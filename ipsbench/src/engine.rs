//! The untraced closed loop: one caller offers the next in-memory packet
//! when the previous `process_packet` returns, through the production
//! engines' public `Ips` API with `SplitDetectConfig::default()`.

use std::time::{Duration, Instant};

use sd_ips::conventional::ConventionalIps;
use sd_ips::{Alert, Ips, SignatureSet};
use splitdetect::{
    ShardDispatchStats, ShardedSplitDetect, SplitDetect, SplitDetectConfig, SplitDetectStats,
};

use crate::replay::conventional_config;
use crate::sys;
use crate::workload::Workload;

/// A production engine as the benchmark drives it.
// One short-lived instance per pass: boxing the larger variant would only
// add an indirection.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    Single(SplitDetect),
    Sharded(ShardedSplitDetect),
}

/// Rules text in memory → engine ready for its first packet: parse,
/// compile to signatures, construct (including worker-thread spawn).
pub fn setup(w: &Workload) -> (Engine, Duration) {
    let t = Instant::now();
    let sigs = sd_ips::parse_rules(&w.rules_text)
        .expect("workload rules parse")
        .to_signatures();
    let config = SplitDetectConfig::default();
    let engine = match w.kind.shards() {
        None => Engine::Single(SplitDetect::with_config(sigs, config).expect("admissible")),
        Some(n) => Engine::Sharded(ShardedSplitDetect::new(sigs, config, n).expect("admissible")),
    };
    (engine, t.elapsed())
}

/// Per-packet buffers of one pass, allocated and touched before any
/// memory reading so they never count as engine memory.
pub struct Buffers {
    /// Time inside each `process_packet` call, ns.
    pub latency_ns: Vec<u32>,
    /// Start of each call, ns since the first call.
    pub offered_ns: Vec<u64>,
    /// `(alerts so far, ns since the first call)` after every call or
    /// `finish` that surfaced alerts.
    pub surfaced: Vec<(usize, u64)>,
}

impl Buffers {
    pub fn new(packets: usize) -> Buffers {
        Buffers {
            latency_ns: vec![1; packets],
            offered_ns: vec![1; packets],
            surfaced: Vec::with_capacity(4096),
        }
    }
}

/// What one pass measured.
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Peak RSS over setup + run above the RSS just before setup, MiB
    /// (first pass only).
    pub mem_mib: Option<f64>,
    pub alerts: Vec<Alert>,
    /// Per alert, ns from the first call until it surfaced.
    pub alert_surfaced_ns: Vec<u64>,
    pub stats: SplitDetectStats,
    /// Packets shed by the slow path or dropped at a dead lane.
    pub dropped: u64,
    /// The compiled piece plan (single engine only), for reuse.
    pub plan: Option<splitdetect::SplitPlan>,
}

/// Set up an engine and replay the whole trace through it once.
///
/// The first pass hands free heap back to the kernel and reads the peak
/// RSS, so the engine's memory shows however the input was built. Later
/// passes reuse the heap the earlier ones warmed, the way a long-running
/// process does; their latencies leave out first-touch page faults.
pub fn pass(w: &Workload, buf: &mut Buffers, first: bool, keep_plan: bool) -> Pass {
    let rss0 = first.then(|| {
        sys::release_free_heap();
        sys::reset_peak_rss();
        sys::rss_kib()
    });
    let (mut engine, setup) = setup(w);
    let mut alerts = Vec::with_capacity(1024);
    buf.surfaced.clear();
    let wall = match &mut engine {
        Engine::Single(e) => drive(e, &w.packets, buf, &mut alerts),
        Engine::Sharded(e) => drive(e, &w.packets, buf, &mut alerts),
    };
    let mem_mib = rss0.map(|rss0| sys::peak_rss_kib().saturating_sub(rss0) as f64 / 1024.0);
    let mut alert_surfaced_ns = vec![0u64; alerts.len()];
    let mut from = 0;
    for &(upto, at) in &buf.surfaced {
        alert_surfaced_ns[from..upto].fill(at);
        from = upto;
    }
    let (stats, dropped, plan) = match &engine {
        Engine::Single(e) => {
            let s = e.stats();
            (
                s,
                s.divert.shed_packets,
                keep_plan.then(|| e.plan().clone()),
            )
        }
        Engine::Sharded(e) => {
            let s = SplitDetectStats::aggregate(&e.stats()).expect("one shard survives");
            let d = ShardDispatchStats::aggregate(&e.dispatch_stats());
            (s, d.packets_dropped + s.divert.shed_packets, None)
        }
    };
    Pass {
        setup_s: setup.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        mem_mib,
        alerts,
        alert_surfaced_ns,
        stats,
        dropped,
        plan,
    }
}

/// The closed loop. Returns the wall time from the first call to the
/// return of `finish()`.
fn drive<E: Ips>(
    engine: &mut E,
    packets: &[Vec<u8>],
    buf: &mut Buffers,
    alerts: &mut Vec<Alert>,
) -> Duration {
    let mut seen = 0;
    let base = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        let t0 = Instant::now();
        engine.process_packet(p, i as u64, alerts);
        let t1 = Instant::now();
        buf.latency_ns[i] = u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX);
        buf.offered_ns[i] = (t0 - base).as_nanos() as u64;
        if alerts.len() != seen {
            seen = alerts.len();
            buf.surfaced.push((seen, (t1 - base).as_nanos() as u64));
        }
    }
    engine.finish(alerts);
    let end = Instant::now();
    if alerts.len() != seen {
        buf.surfaced
            .push((alerts.len(), (end - base).as_nanos() as u64));
    }
    end - base
}

/// The reference: a conventional IPS over the whole trace.
pub struct Reference {
    pub alerts: Vec<Alert>,
    pub ns_per_pkt: f64,
}

pub fn reference(sigs: &SignatureSet, packets: &[Vec<u8>]) -> Reference {
    let config = SplitDetectConfig::default();
    let mut ips = ConventionalIps::with_config(sigs.clone(), conventional_config(&config));
    let mut alerts = Vec::new();
    let t = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        ips.process_packet(p, i as u64, &mut alerts);
    }
    ips.finish(&mut alerts);
    let ns = t.elapsed().as_nanos() as f64;
    Reference {
        alerts,
        ns_per_pkt: ns / packets.len().max(1) as f64,
    }
}
