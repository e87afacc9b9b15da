//! Whole-pipeline benchmark of the Split-Detect IPS.
//!
//! ```text
//! cargo run --release --manifest-path ipsbench/Cargo.toml -- \
//!     --workload demo-mixed --seed 1 --seconds 5 --trace 0
//! cargo run --release --manifest-path ipsbench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` adds the
//! layer-by-layer replay and prints the per-layer metrics instead. Every
//! run checks its outputs (see `run`), prints every metric by name with
//! its unit, and ends with one JSON result line. See `README.md`.

mod digest;
mod engine;
mod metrics;
mod replay;
mod sys;
mod workload;

use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Instant;

use sd_flow::FlowKey;
use sd_ips::{Alert, Ips, SignatureSet};
use splitdetect::{ShardDispatchStats, ShardedSplitDetect, SplitDetect, SplitDetectConfig};

use digest::alert_digest;
use engine::{Buffers, Pass};
use metrics::{median, mib, percentile_sorted, ratio, result_line, Metrics};
use replay::{Layers, Replay, SpanTotals};
use workload::{Kind, Size, Workload, PINNED_SEED};

const USAGE: &str =
    "usage: ipsbench --workload <demo-mixed|demo-bulk|rules10k-mixed|demo-mixed-sharded|all> \
--seed <n> --seconds <n> --trace <0|1>\n       ipsbench --smoke";

/// Setups measured per run at most, when setup is cheap.
const SETUP_SAMPLES: usize = 11;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--smoke"] {
        return Ok(None);
    }
    let (mut kinds, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => kinds = Some(Kind::ALL.to_vec()),
            "--workload" => {
                let k =
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload {value}"))?;
                kinds = Some(vec![k]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        kinds: kinds.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(None) => smoke(),
        Ok(Some(a)) => {
            // One result line per workload, each right after its output.
            let mut all_correct = true;
            for kind in a.kinds {
                let out = run(kind, Size::Full, a.seed, a.seconds, a.trace);
                println!(
                    "{}",
                    result_line(out.correct(), out.attempted, out.failed, &out.metrics)
                );
                all_correct &= out.correct();
            }
            if all_correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Every workload at smoke size, untraced and traced, checking that each
/// metric `BENCHMARK.json` declares is printed with its unit.
fn smoke() -> ExitCode {
    let mut problems = Vec::new();
    for (trace, array) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = match metrics::declared(BENCHMARK_JSON, array) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("smoke: {e}");
                return ExitCode::FAILURE;
            }
        };
        for kind in Kind::ALL {
            let out = run(kind, Size::Smoke, PINNED_SEED, 0.2, trace);
            problems.extend(out.problems.iter().map(|p| format!("{}: {p}", kind.name())));
            for (name, unit) in &declared {
                match out.metrics.0.iter().find(|m| m.name == name) {
                    Some(m) if m.unit == unit => {}
                    Some(m) => problems.push(format!(
                        "{}: {name} printed in {} but declared in {unit}",
                        kind.name(),
                        m.unit
                    )),
                    None => problems.push(format!("{}: {name} not printed", kind.name())),
                }
            }
            if out.metrics.0.len() != declared.len() {
                problems.push(format!(
                    "{}: {} metrics printed, {} declared in {array}",
                    kind.name(),
                    out.metrics.0.len(),
                    declared.len()
                ));
            }
        }
    }
    for p in &problems {
        println!("SMOKE FAILURE {p}");
    }
    println!(
        "smoke: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run's outcome.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Correctness-gate and fingerprint failures.
    problems: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Detection against the mixer's labels.
struct Detection {
    /// Per labelled attack: index of the first alert on its flow.
    first_alert: Vec<Option<usize>>,
    false_alerts: u64,
}

impl Detection {
    fn of(w: &Workload, alerts: &[Alert]) -> Detection {
        let labelled: HashSet<FlowKey> = w.attacks.iter().map(|a| a.flow).collect();
        let first_alert = w
            .attacks
            .iter()
            .map(|a| alerts.iter().position(|x| x.flow == a.flow))
            .collect();
        let false_alerts = alerts
            .iter()
            .filter(|a| !labelled.contains(&a.flow))
            .count() as u64;
        Detection {
            first_alert,
            false_alerts,
        }
    }

    fn detected(&self) -> usize {
        self.first_alert.iter().flatten().count()
    }

    /// Attacks the reference detects and this engine does not.
    fn misses_against(&self, reference: &Detection) -> u64 {
        self.first_alert
            .iter()
            .zip(&reference.first_alert)
            .filter(|(mine, theirs)| mine.is_none() && theirs.is_some())
            .count() as u64
    }

    fn recall(&self) -> f64 {
        ratio(self.detected() as u64, self.first_alert.len() as u64)
    }
}

fn signatures(w: &Workload) -> SignatureSet {
    sd_ips::parse_rules(&w.rules_text)
        .expect("workload rules parse")
        .to_signatures()
}

/// Generate, measure, check.
fn run(kind: Kind, size: Size, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let w = Workload::generate(kind, size, seed);
    let sigs = signatures(&w);
    let config = SplitDetectConfig::default();
    let mut problems = Vec::new();
    println!(
        "workload {} (size {}, seed {seed}, {} mode): closed loop, one caller, {} packets in memory",
        kind.name(),
        size.name(),
        if trace { "traced" } else { "untraced" },
        w.packets.len()
    );

    let reference = engine::reference(&sigs, &w.packets);
    let ref_detection = Detection::of(&w, &reference.alerts);

    // Untraced engine passes, each a fresh setup and a whole replay: at
    // least three, more until `seconds` of replay have been measured, but
    // no pass that would take the passes past three times `seconds` with
    // their setups (a 10k-rule setup takes ≈10 s, its replay ≈1.5 s).
    // Traced mode needs one.
    let mut buf = Buffers::new(w.packets.len());
    let (mut p50s, mut p99s, mut p999s) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes: Vec<Pass> = Vec::new();
    let mut delays_ms: Vec<f64> = Vec::new();
    let mut dropped = 0u64;
    let (mut measured, mut spent, mut last) = (0.0, 0.0, 0.0);
    let min_passes = if trace { 1 } else { 3 };
    while passes.len() < min_passes
        || (!trace && measured < seconds && spent + last <= 3.0 * seconds)
    {
        let first = passes.is_empty();
        let p = engine::pass(&w, &mut buf, first, !trace && first);
        measured += p.wall_s;
        last = p.wall_s + p.setup_s;
        spent += last;
        let det = Detection::of(&w, &p.alerts);
        for (a, first) in det.first_alert.iter().enumerate() {
            if let Some(k) = first {
                let offered = buf.offered_ns[w.attack_last_packet[a]];
                let delay = p.alert_surfaced_ns[*k].saturating_sub(offered);
                delays_ms.push(delay as f64 / 1e6);
            }
        }
        buf.latency_ns.sort_unstable();
        p50s.push(percentile_sorted(&buf.latency_ns, 50.0) / 1e3);
        p99s.push(percentile_sorted(&buf.latency_ns, 99.0) / 1e3);
        p999s.push(percentile_sorted(&buf.latency_ns, 99.9) / 1e3);
        println!(
            "pass {}: setup {:.6} s, replay {:.3} s, {:.0} packets/s, p50 {:.3} us, p99 {:.3} us, p99.9 {:.3} us",
            passes.len() + 1,
            p.setup_s,
            p.wall_s,
            w.packets.len() as f64 / p.wall_s,
            p50s[p50s.len() - 1],
            p99s[p99s.len() - 1],
            p999s[p999s.len() - 1],
        );
        dropped = dropped.max(p.dropped);
        if let Some(first) = passes.first() {
            if alert_digest(&first.alerts) != alert_digest(&p.alerts) {
                problems.push("alert set differs between passes of the same engine".into());
            }
        }
        passes.push(p);
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let mut extra = 0.0;
    // More setups while they are cheap: stop before one would overrun the
    // measuring time.
    while !trace && setups.len() < SETUP_SAMPLES && extra + median(&setups) < seconds {
        let (engine, t) = engine::setup(&w);
        drop(engine);
        setups.push(t.as_secs_f64());
        extra += t.as_secs_f64();
    }
    let first = &passes[0];
    let engine_digest = alert_digest(&first.alerts);
    let detection = Detection::of(&w, &first.alerts);
    // Operations are counted once per run, over the input, not once per
    // pass: the number of passes follows the host's speed, and every pass
    // must raise the same alerts, so per-pass sums would make `failed` a
    // function of timing rather than of the seed.
    let attempted = w.packets.len() as u64 + w.attacks.len() as u64;
    let failed = dropped + detection.misses_against(&ref_detection) + detection.false_alerts;

    // The sharded dispatcher must agree with the single engine.
    if kind.shards().is_some() {
        let single = single_engine_alerts(&sigs, &w.packets);
        if alert_digest(&single) != engine_digest {
            problems.push(format!(
                "sharded alert set ({} alerts) differs from the single engine's ({} alerts)",
                first.alerts.len(),
                single.len()
            ));
        }
    }

    // The layer replay must reproduce the engine exactly.
    let reuse_plan = if trace { None } else { passes[0].plan.clone() };
    let parse_ms = if trace { time_rule_parse(&w) } else { 0.0 };
    let (layers, setup) = Layers::build(&sigs, &config, reuse_plan);
    let replay = layers.replay(&w.packets);
    gate(first, &replay, engine_digest, &mut problems);

    // Input facts, and the fingerprint of the pinned seed.
    let facts = w.facts(setup.pieces);
    println!(
        "input {} {} seed={seed} {}",
        kind.name(),
        size.name(),
        facts.line()
    );
    let pinned = if seed == PINNED_SEED {
        facts
    } else {
        Workload::generate(kind, size, PINNED_SEED).facts(setup.pieces)
    };
    match workload::check_fingerprint(kind, size, &pinned) {
        Ok(()) => println!("fingerprint of seed {PINNED_SEED}: matches the recorded one"),
        Err(e) => problems.push(e),
    }

    println!(
        "detection: {}/{} labelled attacks alerted (reference {}/{}), {} missed that the reference detects, {} false alerts",
        detection.detected(),
        w.attacks.len(),
        ref_detection.detected(),
        w.attacks.len(),
        detection.misses_against(&ref_detection),
        detection.false_alerts
    );
    println!(
        "engine counts: diverts {:?} (piece, small, ooo, frag, urg), packets_to_slow {}, replayed {}, divert.delay_line_misses {} (never incremented by the engine; see divert.history_lost)",
        first.stats.fast.diverts,
        first.stats.packets_to_slow,
        first.stats.divert.replayed_packets,
        first.stats.divert.delay_line_misses
    );

    let metrics = if trace {
        println!("per-layer metrics (traced replay, one pass):");
        if kind.shards().is_some() {
            println!(
                "  note: inside ShardedSplitDetect only the dispatcher boundary and dispatch_stats() are \
visible; shard.* are measured there, the other layers by replaying the same trace on the caller's thread"
            );
        }
        let dispatcher = dispatcher_pass(&sigs, &w.packets);
        if alert_digest(&dispatcher.alerts) != engine_digest {
            problems.push("dispatcher pass alert set differs from the engine's".into());
        }
        let m = layer_metrics(LayerInputs {
            parse_ms,
            setup,
            replay: &replay,
            untraced_wall_s: first.wall_s,
            dispatcher: &dispatcher,
            reference_ns_per_pkt: reference.ns_per_pkt,
            reference_recall: ref_detection.recall(),
        });
        write_spans(kind, &replay);
        m
    } else {
        let pkts: Vec<f64> = passes
            .iter()
            .map(|p| w.packets.len() as f64 / p.wall_s)
            .collect();
        let bits = w.wire_bytes() as f64 * 8.0;
        let gbps: Vec<f64> = passes.iter().map(|p| bits / p.wall_s / 1e9).collect();
        println!(
            "end-to-end metrics: medians over {} passes ({} latency samples each, every packet) and {} setups; memory of the first pass",
            passes.len(),
            w.packets.len(),
            setups.len()
        );
        let mut m = Metrics::default();
        m.add("pkts_per_s", median(&pkts), "packets/s");
        m.add("gbps", median(&gbps), "Gbit/s");
        m.add("latency_p99_us", median(&p99s), "us");
        m.add("setup_s", median(&setups), "s");
        // Memory is read on the first pass only: later passes start from a
        // heap (and, sharded, a thread arena) shaped by the ones before, so
        // their peaks depend on allocator history rather than the engine.
        let mem = passes[0].mem_mib.expect("the first pass reads memory");
        m.add("mem_peak_mb", mem, "MiB");
        m.print();
        // p50 is printed, not gated: most calls are either header-only
        // (≈0.3–1 µs) or carry payload (≈3–8 µs), and on demo-mixed the
        // median falls on the edge between the two. Those cheap calls are
        // bound by cache misses, whose cost a shared host's other tenants
        // set: the 10th percentile alone moved 1.8× between runs minutes
        // apart, and the median's spread over ten seeds reached 0.25.
        println!(
            "  {:<30} {} us (median over passes; every packet a sample)",
            "latency_p50_us",
            median(&p50s)
        );
        // p99.9 is printed, not gated: on a host with a 250 Hz timer tick
        // and ≈250k packets/s, about 0.1 % of calls absorb a tick, so this
        // rank sits on the edge of the interrupt population and moves with
        // the host more than with the program.
        println!(
            "  {:<30} {} us (median over passes; each pass has {} samples beyond it)",
            "latency_p999_us",
            median(&p999s),
            w.packets.len() / 1000
        );
        if w.attacks.is_empty() {
            println!("  recall, alert_delay_p50_ms: not reported (no labelled attacks)");
        } else {
            println!("  {:<30} {} ratio", "recall", detection.recall());
            println!(
                "  {:<30} {} ms ({} alerted attacks over all passes)",
                "alert_delay_p50_ms",
                median(&delays_ms),
                delays_ms.len()
            );
        }
        println!("  {:<30} {} count", "false_alerts", detection.false_alerts);
        m
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
    }
}

/// The correctness gate: same alert set as the engine, and the replay's
/// counts equal `SplitDetect::stats()`.
fn gate(first: &Pass, replay: &Replay, engine_digest: u64, problems: &mut Vec<String>) {
    if alert_digest(&replay.alerts) != engine_digest {
        problems.push(format!(
            "layer replay raised {} alerts, the engine {} (alert sets differ)",
            replay.alerts.len(),
            first.alerts.len()
        ));
    }
    let s = &first.stats;
    let checks = [
        (
            "diverts by reason",
            format!("{:?}", replay.diverts),
            format!("{:?}", s.fast.diverts),
        ),
        (
            "packets_to_slow",
            replay.slow_pkts.to_string(),
            s.packets_to_slow.to_string(),
        ),
        (
            "replayed_packets",
            replay.replayed.to_string(),
            s.divert.replayed_packets.to_string(),
        ),
    ];
    for (what, mine, engine) in checks {
        if mine != engine {
            problems.push(format!("{what}: layer replay {mine}, engine {engine}"));
        }
    }
}

fn single_engine_alerts(sigs: &SignatureSet, packets: &[Vec<u8>]) -> Vec<Alert> {
    let mut e =
        SplitDetect::with_config(sigs.clone(), SplitDetectConfig::default()).expect("admissible");
    sd_ips::api::run_trace(&mut e, packets.iter().map(|p| p.as_slice()))
}

/// Median time of `parse_rules` + `to_signatures` over a few repetitions
/// (one when a single parse is already slow).
fn time_rule_parse(w: &Workload) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 && (samples.is_empty() || start.elapsed().as_secs_f64() < 1.0) {
        let t = Instant::now();
        let sigs = signatures(w);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        drop(sigs);
    }
    median(&samples)
}

/// The same packets through `ShardedSplitDetect` with one shard, timing
/// each call at the dispatcher boundary.
struct Dispatcher {
    alerts: Vec<Alert>,
    enqueue_ns: f64,
    finish_ms: f64,
    stats: ShardDispatchStats,
}

fn dispatcher_pass(sigs: &SignatureSet, packets: &[Vec<u8>]) -> Dispatcher {
    let mut e =
        ShardedSplitDetect::new(sigs.clone(), SplitDetectConfig::default(), 1).expect("admissible");
    let mut alerts = Vec::new();
    let mut total = 0u128;
    for (i, p) in packets.iter().enumerate() {
        let t = Instant::now();
        e.process_packet(p, i as u64, &mut alerts);
        total += t.elapsed().as_nanos();
    }
    let t = Instant::now();
    e.finish(&mut alerts);
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    Dispatcher {
        alerts,
        enqueue_ns: total as f64 / packets.len().max(1) as f64,
        finish_ms,
        stats: ShardDispatchStats::aggregate(&e.dispatch_stats()),
    }
}

struct LayerInputs<'a> {
    parse_ms: f64,
    setup: replay::Setup,
    replay: &'a Replay,
    untraced_wall_s: f64,
    dispatcher: &'a Dispatcher,
    reference_ns_per_pkt: f64,
    reference_recall: f64,
}

fn layer_metrics(i: LayerInputs<'_>) -> Metrics {
    let r = i.replay;
    let t = SpanTotals::of(&r.spans);
    let mut m = Metrics::default();
    let per_pkt = |ns: u64| ns as f64 / r.packets.max(1) as f64;

    m.add("rules.parse_ms", i.parse_ms, "ms");
    m.add("split.compile_ms", i.setup.compile_ms, "ms");
    m.add("split.automaton_mb", mib(i.setup.plan_bytes as u64), "MiB");
    m.add("split.states", i.setup.states as f64, "count");
    m.add("conventional.build_ms", i.setup.conventional_build_ms, "ms");
    m.add(
        "conventional.automaton_mb",
        mib(i.setup.slow_automaton_bytes as u64),
        "MiB",
    );

    m.add("packet.parse_ns", t.mean_ns("parse"), "ns");
    m.add("packet.parse_errors", r.parse_errors as f64, "count");

    m.add("flow.lookup_ns", t.mean_ns("flow"), "ns");
    m.add("flow.insertions", r.table_insertions as f64, "count");
    m.add("flow.evictions", r.table_evictions as f64, "count");

    let kib = r.scan_bytes as f64 / 1024.0;
    m.add(
        "scan.ns_per_kb",
        if kib > 0.0 {
            t.total("scan") as f64 / kib
        } else {
            0.0
        },
        "ns/KiB",
    );
    m.add("scan.mb", mib(r.scan_bytes), "MiB");
    m.add("scan.hit_share", ratio(r.scan_hits, r.scans), "ratio");

    let classify = t.total("classify");
    let shadowed = t.total("parse") + t.total("flow") + t.total("scan");
    m.add("fastpath.classify_ns", per_pkt(classify), "ns");
    m.add(
        "fastpath.self_ns",
        (classify as f64 - shadowed as f64) / r.packets.max(1) as f64,
        "ns",
    );
    m.add(
        "fastpath.divert_pkt_share",
        ratio(r.slow_pkts, r.packets),
        "ratio",
    );
    m.add(
        "fastpath.divert_byte_share",
        ratio(r.slow_payload_bytes, r.payload_bytes),
        "ratio",
    );
    let names = [
        "fastpath.diverts.piece",
        "fastpath.diverts.small",
        "fastpath.diverts.ooo",
        "fastpath.diverts.frag",
        "fastpath.diverts.urg",
    ];
    for (name, n) in names.into_iter().zip(r.diverts) {
        m.add(name, n as f64, "count");
    }

    m.add("divert.record_ns", t.mean_ns("record"), "ns");
    m.add("divert.record_mb", mib(r.record_bytes), "MiB");
    m.add(
        "divert.record_use_ratio",
        ratio(r.replayed, r.records),
        "ratio",
    );
    m.add("divert.replay_us", t.mean_ns("divert") / 1e3, "us");
    m.add("divert.replayed_pkts", r.replayed as f64, "count");
    m.add("divert.history_lost", r.history_lost as f64, "count");
    m.add("divert.flows", r.diverted_flows.len() as f64, "count");
    let alerted: HashSet<FlowKey> = r.alerts.iter().map(|a| ip_pair(&a.flow)).collect();
    let yielded = r
        .diverted_flows
        .iter()
        .filter(|k| alerted.contains(k))
        .count();
    m.add(
        "divert.alert_yield",
        ratio(yielded as u64, r.diverted_flows.len() as u64),
        "ratio",
    );

    m.add("slowpath.ns", t.mean_ns("slow"), "ns");
    m.add("slowpath.pkts", r.slow_pkts as f64, "count");
    m.add(
        "slowpath.state_peak_mb",
        mib(r.slow_state_peak_bytes),
        "MiB",
    );
    m.add("slowpath.finish_ms", t.total("finish") as f64 / 1e6, "ms");

    let d = i.dispatcher;
    m.add("shard.enqueue_ns", d.enqueue_ns, "ns");
    m.add("shard.finish_ms", d.finish_ms, "ms");
    m.add("shard.batches", d.stats.batches_sent as f64, "count");
    m.add(
        "shard.mean_batch_fill",
        d.stats.mean_batch_fill(),
        "packets",
    );
    m.add(
        "shard.queue_high_water",
        d.stats.queue_depth_high_water as f64,
        "batches",
    );
    m.add(
        "shard.recycle_misses",
        d.stats.recycle_misses as f64,
        "count",
    );

    m.add("reference.ns_per_pkt", i.reference_ns_per_pkt, "ns");
    m.add("reference.recall", i.reference_recall, "ratio");

    m.add(
        "trace.overhead",
        r.wall_ns as f64 / 1e9 / i.untraced_wall_s,
        "ratio",
    );
    m.add(
        "trace.unattributed_share",
        1.0 - ratio(t.layer_self_ns(), r.wall_ns),
        "ratio",
    );
    m.print();
    println!("  (spans: {} over {} packets)", r.spans.len(), r.packets);
    m
}

/// The diversion key of a 5-tuple: the IP pair with ports zeroed.
fn ip_pair(flow: &FlowKey) -> FlowKey {
    FlowKey::from_endpoints(flow.proto, (flow.addr_a, 0), (flow.addr_b, 0)).0
}

/// Write the traced run's spans next to the benchmark's sources.
fn write_spans(kind: Kind, replay: &Replay) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.tsv", kind.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, replay::spans_tsv(&replay.spans)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("ipsbench: cannot write {}: {e}", path.display()),
    }
}
