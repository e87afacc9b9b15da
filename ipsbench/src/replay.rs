//! The traced run: the same packets replayed through each layer's public
//! functions, in the order `SplitDetect::process_packet` calls them, with
//! a span around every call.
//!
//! `FastPath::classify_full`, `DiversionManager::record` / `divert` and
//! `ConventionalIps::process_packet` are driven directly, built with the
//! parameters `SplitDetect::build` derives from the configuration. Parse,
//! flow lookup and piece scan run inside `classify_full` where no span can
//! reach; each is timed on the same input in a sibling span right after
//! the classifier's (`parse_ipv4`, a shadow `FlowTable` of the same
//! capacity, and `SplitPlan::scan`), and the classifier's own remainder is
//! what is left.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use sd_flow::{FlowKey, FlowTable};
use sd_ips::alert::AlertSource;
use sd_ips::conventional::{ConventionalConfig, ConventionalIps};
use sd_ips::{Alert, Ips, SignatureSet};
use sd_packet::parse::{parse_ipv4, Transport};
use splitdetect::divert::DiversionManager;
use splitdetect::fastpath::{DivertReason, FastPath, FastPathParams, FlowState, Verdict};
use splitdetect::{SplitDetectConfig, SplitPlan};

/// Span names, indexed by [`Span::name`].
const SPAN_NAMES: [&str; 9] = [
    "packet", "parse", "flow", "scan", "classify", "record", "divert", "slow", "finish",
];
const PACKET: u8 = 0;
const PARSE: u8 = 1;
const FLOW: u8 = 2;
const SCAN: u8 = 3;
const CLASSIFY: u8 = 4;
const RECORD: u8 = 5;
const DIVERT: u8 = 6;
const SLOW: u8 = 7;
const FINISH: u8 = 8;
const NO_PARENT: u32 = u32::MAX;

/// One timed call. Times are nanoseconds since the replay started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub pkt: u32,
    pub name: u8,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The layers, built the way `SplitDetect::build` builds them.
pub struct Layers {
    fast: FastPath,
    divert: DiversionManager,
    slow: ConventionalIps,
    /// Shadow flow table for timing lookups `classify_full` hides.
    shadow: FlowTable<FlowState>,
}

/// What building the layers cost and produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Piece-plan compile time (0 when a compiled plan was reused).
    pub compile_ms: f64,
    pub conventional_build_ms: f64,
    pub pieces: usize,
    pub plan_bytes: usize,
    pub states: usize,
    pub slow_automaton_bytes: usize,
}

impl Layers {
    /// Build every layer. `plan` reuses an already compiled piece plan;
    /// `None` compiles (and times) a fresh one.
    pub fn build(
        sigs: &SignatureSet,
        config: &SplitDetectConfig,
        plan: Option<SplitPlan>,
    ) -> (Layers, Setup) {
        let cutoff = config
            .validate(sigs)
            .expect("default config admits the rules");
        let mut setup = Setup::default();
        let plan = plan.unwrap_or_else(|| {
            let t = Instant::now();
            let plan = SplitPlan::compile_unchecked_full(
                sigs,
                config.pieces_per_signature,
                config.fastpath_matcher,
                config.tiered_hot_states,
            );
            setup.compile_ms = ms(t);
            plan
        });
        let hash_seed = config.flow_hash_seed.unwrap_or_else(sd_flow::random_seed);
        setup.pieces = plan.piece_count();
        setup.plan_bytes = plan.memory_bytes();
        setup.states = plan.state_count();
        let fast = FastPath::new(
            plan,
            FastPathParams {
                cutoff,
                budget: config.small_segment_budget,
                divert_on_out_of_order: config.divert_on_out_of_order,
                divert_on_fragments: config.divert_on_fragments,
                divert_on_urgent: config.divert_on_urgent,
                table_capacity: config.flow_table_capacity,
                hash_seed,
                small_counter: config.small_counter,
            },
        );
        let t = Instant::now();
        let slow = ConventionalIps::with_config(sigs.clone(), conventional_config(config));
        setup.conventional_build_ms = ms(t);
        setup.slow_automaton_bytes = slow.automaton_bytes();
        let layers = Layers {
            fast,
            divert: DiversionManager::with_policy(
                config.delay_line_packets,
                config.max_diverted_flows,
                config.divert_eviction,
            ),
            slow,
            shadow: FlowTable::with_seed(config.flow_table_capacity, hash_seed ^ 0x5a5a),
        };
        (layers, setup)
    }
}

/// The slow path's configuration, as `SplitDetect::build` derives it.
pub fn conventional_config(config: &SplitDetectConfig) -> ConventionalConfig {
    ConventionalConfig {
        policy: config.slow_path_policy,
        max_connections: config.slow_path_max_connections,
        urgent: config.slow_path_urgent,
    }
}

/// Everything the replay counted and timed.
#[derive(Default)]
pub struct Replay {
    pub alerts: Vec<Alert>,
    pub spans: Vec<Span>,
    pub wall_ns: u64,
    pub packets: u64,
    pub parse_errors: u64,
    pub scans: u64,
    pub scan_hits: u64,
    pub scan_bytes: u64,
    pub diverts: [u64; 5],
    pub records: u64,
    pub record_bytes: u64,
    pub replayed: u64,
    pub history_lost: u64,
    pub slow_pkts: u64,
    pub slow_payload_bytes: u64,
    pub payload_bytes: u64,
    pub diverted_flows: Vec<FlowKey>,
    pub table_insertions: u64,
    pub table_evictions: u64,
    pub slow_state_peak_bytes: u64,
}

impl Layers {
    /// Replay `packets` through the layers, recording a span per call.
    pub fn replay(mut self, packets: &[Vec<u8>]) -> Replay {
        let mut spans: Vec<Span> = Vec::with_capacity(packets.len() * 6 + 16);
        let mut alerts = Vec::new();
        // Packets recorded into the delay line per flow since its last
        // diversion: what `divert` should hand back.
        let mut recorded: HashMap<FlowKey, u64> = HashMap::new();
        let mut r = Replay {
            packets: packets.len() as u64,
            ..Replay::default()
        };
        let base = Instant::now();
        let now = || base.elapsed().as_nanos() as u64;

        for (i, packet) in packets.iter().enumerate() {
            let pkt = i as u32;
            let tick = i as u64;
            let root = spans.len() as u32;
            spans.push(Span {
                pkt,
                name: PACKET,
                parent: NO_PARENT,
                start: now(),
                end: 0,
            });
            let span = |spans: &mut Vec<Span>, name: u8, parent: u32, start: u64| {
                spans.push(Span {
                    pkt,
                    name,
                    parent,
                    start,
                    end: now(),
                });
            };

            let reclaimed = self.fast.stats().reclaimed;
            let t = now();
            let divert_ref = &self.divert;
            let c = self
                .fast
                .classify_full(packet, |k| divert_ref.is_diverted(k));
            span(&mut spans, CLASSIFY, root, t);

            // Sibling spans: the sub-steps classify_full ran internally,
            // repeated on the same input. They run after the real call, so
            // the classifier pays the first touch of the packet, as it
            // does in the engine. The diversion set is unchanged until
            // `divert` below.
            let t = now();
            let parsed = parse_ipv4(packet);
            span(&mut spans, PARSE, root, t);
            let mut shadow_key = None;
            match &parsed {
                Err(_) => r.parse_errors += 1,
                Ok(p) => {
                    if let Some((flow_key, _)) = FlowKey::from_parsed(p) {
                        let key = FlowKey::from_ip_pair(p).unwrap_or(flow_key);
                        let payload = match &p.transport {
                            Transport::Tcp(t) if !self.divert.is_diverted(&key) => {
                                Some((t.payload, t.repr.flags.urg()))
                            }
                            Transport::Udp(u) if !self.divert.is_diverted(&key) => {
                                Some((u.payload, false))
                            }
                            _ => None,
                        };
                        if let Some((payload, urgent)) = payload {
                            let t = now();
                            self.shadow
                                .get_or_insert_with(&flow_key, FlowState::default);
                            span(&mut spans, FLOW, root, t);
                            shadow_key = Some(flow_key);
                            if !urgent {
                                let t = now();
                                let hit = self.fast.plan().scan(payload).is_some();
                                span(&mut spans, SCAN, root, t);
                                r.scans += 1;
                                r.scan_bytes += payload.len() as u64;
                                r.scan_hits += u64::from(hit);
                            }
                        }
                    }
                }
            }

            // Keep the shadow table's occupancy in step with the real one.
            if self.fast.stats().reclaimed != reclaimed {
                if let Some(k) = shadow_key {
                    self.shadow.remove(&k);
                }
            }
            r.payload_bytes += c.payload_len as u64;

            match c.verdict {
                Verdict::Benign | Verdict::NonFlow => {
                    if let (Some(key), true) = (c.key, c.keep) {
                        let t = now();
                        self.divert.record(key, packet);
                        span(&mut spans, RECORD, root, t);
                        r.records += 1;
                        r.record_bytes += packet.len() as u64;
                        *recorded.entry(key).or_insert(0) += 1;
                    }
                }
                Verdict::AlreadyDiverted => {
                    let t = now();
                    slow(&mut self.slow, packet, tick, &mut alerts, &mut r);
                    span(&mut spans, SLOW, root, t);
                }
                Verdict::Divert(reason) => {
                    let key = c.key.expect("divert verdicts carry a key");
                    r.diverts[reason_index(reason)] += 1;
                    let divert_span = spans.len() as u32;
                    spans.push(Span {
                        pkt,
                        name: DIVERT,
                        parent: root,
                        start: now(),
                        end: 0,
                    });
                    let flows_before = self.divert.stats().flows_diverted;
                    let history = self.divert.divert(key);
                    if self.divert.stats().flows_diverted != flows_before {
                        r.diverted_flows.push(key);
                        let kept = recorded.remove(&key).unwrap_or(0);
                        r.history_lost += kept.saturating_sub(history.len() as u64);
                    }
                    r.replayed += history.len() as u64;
                    for old in &history {
                        let t = now();
                        slow(&mut self.slow, old, tick, &mut alerts, &mut r);
                        span(&mut spans, SLOW, divert_span, t);
                    }
                    spans[divert_span as usize].end = now();
                    let t = now();
                    slow(&mut self.slow, packet, tick, &mut alerts, &mut r);
                    span(&mut spans, SLOW, root, t);
                }
                Verdict::Drop => {}
            }
            spans[root as usize].end = now();
        }
        let t = now();
        self.slow.finish(&mut alerts);
        spans.push(Span {
            pkt: packets.len() as u32,
            name: FINISH,
            parent: NO_PARENT,
            start: t,
            end: now(),
        });
        r.wall_ns = now();
        let table = self.fast.table_stats();
        r.table_insertions = table.insertions;
        r.table_evictions = table.evictions;
        r.slow_state_peak_bytes = self.slow.resources().state_bytes_peak;
        r.alerts = alerts;
        r.spans = spans;
        r
    }
}

/// Hand one packet to the slow path, as `SplitDetect::hand_to_slow` does
/// inline: process, then label the new alerts as slow-path alerts.
fn slow(
    slow: &mut ConventionalIps,
    packet: &[u8],
    tick: u64,
    alerts: &mut Vec<Alert>,
    r: &mut Replay,
) {
    let before = alerts.len();
    slow.process_packet(packet, tick, alerts);
    for a in &mut alerts[before..] {
        a.source = AlertSource::SlowPath;
    }
    r.slow_pkts += 1;
    r.slow_payload_bytes += payload_len(packet);
}

fn payload_len(packet: &[u8]) -> u64 {
    match parse_ipv4(packet) {
        Ok(p) => match p.transport {
            Transport::Tcp(t) => t.payload.len() as u64,
            Transport::Udp(u) => u.payload.len() as u64,
            Transport::Fragment(raw) | Transport::Other(raw) => raw.len() as u64,
            Transport::NonIp => 0,
        },
        Err(_) => 0,
    }
}

fn reason_index(reason: DivertReason) -> usize {
    DivertReason::ALL
        .iter()
        .position(|r| *r == reason)
        .expect("reason in ALL")
}

/// Per-name totals over a span list: calls, total time and self time
/// (time not covered by child spans).
pub struct SpanTotals {
    calls: [u64; SPAN_NAMES.len()],
    total_ns: [u64; SPAN_NAMES.len()],
    self_ns: [u64; SPAN_NAMES.len()],
}

impl SpanTotals {
    pub fn of(spans: &[Span]) -> SpanTotals {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut t = SpanTotals {
            calls: [0; SPAN_NAMES.len()],
            total_ns: [0; SPAN_NAMES.len()],
            self_ns: [0; SPAN_NAMES.len()],
        };
        for (s, c) in spans.iter().zip(&child_ns) {
            let k = usize::from(s.name);
            t.calls[k] += 1;
            t.total_ns[k] += s.ns();
            t.self_ns[k] += s.ns().saturating_sub(*c);
        }
        t
    }

    pub fn mean_ns(&self, name: &str) -> f64 {
        let k = index(name);
        if self.calls[k] == 0 {
            0.0
        } else {
            self.total_ns[k] as f64 / self.calls[k] as f64
        }
    }

    pub fn total(&self, name: &str) -> u64 {
        self.total_ns[index(name)]
    }

    /// Self time of every layer span (everything but the per-packet root,
    /// whose own time is the tracer's bookkeeping).
    pub fn layer_self_ns(&self) -> u64 {
        self.self_ns.iter().skip(1).sum()
    }
}

fn index(name: &str) -> usize {
    SPAN_NAMES
        .iter()
        .position(|n| *n == name)
        .expect("known span name")
}

/// Render spans as tab-separated text, one per line.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 32 + 64);
    out.push_str("span\tpkt\tname\tparent\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.pkt,
            SPAN_NAMES[usize::from(s.name)],
            s.start,
            s.end
        );
    }
    out
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
