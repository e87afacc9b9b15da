//! Fast-path matcher × mix sweep core: per-segment scan throughput across
//! the six scan-engine builds and three payload mixes, the full classify
//! path on the standard benign trace, and the 10k-rule corpus footprint
//! ladder. This is the measurement behind the `fastpath` bench main, the
//! `fastpath-matcher-mix` lab experiment and `BENCH_fastpath.json`.
//!
//! The mixes:
//!
//! * **benign** — HTTP-like traffic with no signature material; the mix
//!   the prefilter's skip loop is built for,
//! * **pieces** — benign bytes with a signature piece planted in every
//!   segment, so every scan ends in a DFA hit (all engines early-exit at
//!   the same byte),
//! * **adversarial** — benign bytes salted with ~25 % escape bytes, the
//!   attacker's best attempt at defeating the skip loop,
//! * **demo** (`scan/demo`) — the benign bytes against the embedded demo
//!   rules' pieces instead of the single signature's: 13 escape bytes,
//!   common in text, so the prefiltered and tiered builds scan with the
//!   two-lane front end rather than the skip.
//!
//! Measurement is paired: engines alternate inside each round so
//! thermal/scheduler drift cancels, and medians are compared.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_ips::{Signature, SignatureSet};
use sd_traffic::payload::PayloadModel;
use splitdetect::fastpath::{FastPath, FastPathParams};
use splitdetect::split::SplitPlan;
use splitdetect::{MatcherKind, SplitDetectConfig};

use super::median;
use crate::benign_trace;

/// Scan corpus size (split into segment-sized scans).
pub const VOLUME: usize = 1 << 20;
/// Model MTU-ish payload per scan call.
pub const SEGMENT: usize = 1400;

/// Sweep parameters. `full()` is what regenerates the checked-in
/// baseline; `smoke()` trims rounds for the CI gate (same rows, slightly
/// noisier medians — well inside the 15 % compare tolerance).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Paired rounds for the small-corpus mixes and the classify path.
    pub rounds: usize,
    /// Paired rounds for the 10k-rule scan (plan builds dominate).
    pub rounds_10k: usize,
    /// Generated corpus size for the scale rows.
    pub corpus_rules: usize,
    /// Corpus generator seed (42 everywhere in EXPERIMENTS.md).
    pub corpus_seed: u64,
}

impl Params {
    /// Baseline-quality measurement (the `BENCH_fastpath.json` recipe).
    pub fn full() -> Self {
        Params {
            rounds: 9,
            rounds_10k: 5,
            corpus_rules: 10_000,
            corpus_seed: 42,
        }
    }

    /// CI-smoke profile: fewer rounds, identical row coverage.
    pub fn smoke() -> Self {
        Params {
            rounds: 7,
            rounds_10k: 3,
            ..Params::full()
        }
    }
}

/// The single-signature set the small-corpus mixes scan for.
pub fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("one", crate::SIG)])
}

/// Compile the default-corpus plan for one matcher kind.
pub fn plan_for(kind: MatcherKind) -> SplitPlan {
    let config = SplitDetectConfig {
        fastpath_matcher: kind,
        ..Default::default()
    };
    SplitPlan::compile(&sigs(), &config).expect("admissible")
}

/// Compile the embedded demo rules' plan for one matcher kind (the
/// `scan/demo` row).
pub fn demo_plan_for(kind: MatcherKind) -> SplitPlan {
    let sigs = sd_ips::rules::parse_rules(sd_ips::rules::DEMO_RULES)
        .expect("demo rules parse")
        .to_signatures();
    let config = SplitDetectConfig {
        fastpath_matcher: kind,
        ..Default::default()
    };
    SplitPlan::compile(&sigs, &config).expect("admissible")
}

/// Build a full fast path (plan + flow table) for one matcher kind.
pub fn build_fastpath(sigs: &SignatureSet, kind: MatcherKind) -> FastPath {
    let config = SplitDetectConfig {
        fastpath_matcher: kind,
        ..Default::default()
    };
    let cutoff = config.validate(sigs).expect("admissible");
    let plan = SplitPlan::compile(sigs, &config).expect("admissible");
    FastPath::new(
        plan,
        FastPathParams {
            cutoff,
            budget: config.small_segment_budget,
            table_capacity: 1 << 14,
            ..Default::default()
        },
    )
}

/// The benched signature's pieces, cut exactly as `SplitPlan` cuts them.
fn sig_pieces() -> Vec<&'static [u8]> {
    splitdetect::split::balanced_cuts(crate::SIG.len(), 3)
        .into_iter()
        .map(|(a, b)| &crate::SIG[a..b])
        .collect()
}

/// Benign mix: HTTP-like bytes, no signature material.
pub fn benign_corpus() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(3);
    PayloadModel::HttpLike.generate(&mut rng, VOLUME)
}

/// Piece-bearing mix: one signature piece planted per segment, so every
/// scan call terminates in a match.
pub fn piece_corpus() -> Vec<u8> {
    let mut corpus = benign_corpus();
    let mut rng = StdRng::seed_from_u64(11);
    let pieces = sig_pieces();
    let mut seg = 0;
    while seg + SEGMENT <= corpus.len() {
        let piece = pieces[rng.gen_range(0..pieces.len())];
        let at = seg + rng.gen_range(0..SEGMENT - piece.len());
        corpus[at..at + piece.len()].copy_from_slice(piece);
        seg += SEGMENT;
    }
    corpus
}

/// Adversarial mix: ~25 % of bytes replaced with escape bytes (piece
/// first-bytes), flooding the prefilter with candidates.
pub fn adversarial_corpus() -> Vec<u8> {
    let mut corpus = benign_corpus();
    let escapes: Vec<u8> = sig_pieces().iter().map(|p| p[0]).collect();
    let mut rng = StdRng::seed_from_u64(29);
    for b in corpus.iter_mut() {
        if rng.gen_range(0..4u8) == 0 {
            *b = escapes[rng.gen_range(0..escapes.len())];
        }
    }
    corpus
}

/// One timed pass of `SplitPlan::scan` over `corpus` in segment chunks.
pub fn scan_once(plan: &SplitPlan, corpus: &[u8]) -> Duration {
    let start = Instant::now();
    let mut hits = 0u64;
    for seg in corpus.chunks(SEGMENT) {
        hits += u64::from(plan.scan(std::hint::black_box(seg)).is_some());
    }
    std::hint::black_box(hits);
    start.elapsed()
}

/// One timed pass of the full classify path over the benign packet trace.
pub fn classify_once(kind: MatcherKind, trace: &sd_traffic::trace::Trace) -> Duration {
    let mut fp = build_fastpath(&sigs(), kind);
    let start = Instant::now();
    let mut diverts = 0u64;
    for pkt in trace.iter_bytes() {
        let (_, v) = fp.classify(std::hint::black_box(pkt), |_| false);
        diverts += u64::from(matches!(v, splitdetect::fastpath::Verdict::Divert(_)));
    }
    std::hint::black_box(diverts);
    start.elapsed()
}

/// One throughput result row: a (mix, matcher) cell of the sweep grid.
pub struct MixRow {
    /// Mix label (`scan/benign`, `classify/benign`, `scan10k/benign`, …).
    pub mix: String,
    /// Scan-engine build measured.
    pub kind: MatcherKind,
    /// Median over the paired rounds.
    pub median: Duration,
    /// Bytes processed per pass (the throughput denominator).
    pub bytes: u64,
}

impl MixRow {
    /// Throughput in MiB/s.
    pub fn mib_per_s(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64 / self.median.as_secs_f64()
    }
}

/// Default-corpus automaton footprint for one matcher kind.
pub struct AutomatonRow {
    /// Scan-engine build.
    pub kind: MatcherKind,
    /// Exact table bytes.
    pub bytes: usize,
    /// Byte classes (256 for unclassed builds).
    pub classes: usize,
    /// Prefilter escape set size (0 when no prefilter).
    pub escape_bytes: usize,
}

/// 10k-rule corpus automaton footprint for one matcher kind.
pub struct Automaton10kRow {
    /// Scan-engine build.
    pub kind: MatcherKind,
    /// Exact table bytes.
    pub bytes: usize,
    /// Hot-tier bytes (0 for untiered builds).
    pub hot_bytes: usize,
    /// Cold-tier bytes (0 for untiered builds).
    pub cold_bytes: usize,
    /// Automaton states.
    pub states: usize,
    /// Wall-clock build time.
    pub build: Duration,
}

/// Everything one sweep run measured.
pub struct Report {
    /// Parameters the run used.
    pub params: Params,
    /// Throughput rows, sorted by mix (matcher in `MatcherKind::ALL`
    /// order within each mix) — the order `BENCH_fastpath.json` records.
    pub rows: Vec<MixRow>,
    /// Default-corpus automaton footprints.
    pub automaton: Vec<AutomatonRow>,
    /// 10k-corpus automaton footprints.
    pub automaton_10k: Vec<Automaton10kRow>,
}

impl Report {
    /// Dense-baseline median seconds for a mix (NaN when absent).
    pub fn dense_secs(&self, mix: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.mix == mix && r.kind == MatcherKind::Dense)
            .map(|r| r.median.as_secs_f64())
            .unwrap_or(f64::NAN)
    }

    /// Median seconds of one (mix, matcher) cell.
    pub fn secs(&self, mix: &str, kind: MatcherKind) -> f64 {
        self.rows
            .iter()
            .find(|r| r.mix == mix && r.kind == kind)
            .expect("row present")
            .median
            .as_secs_f64()
    }

    /// 10k automaton bytes for one matcher kind.
    pub fn bytes_10k(&self, kind: MatcherKind) -> usize {
        self.automaton_10k
            .iter()
            .find(|r| r.kind == kind)
            .expect("10k plan present")
            .bytes
    }

    /// Print the human table the bench main has always printed.
    pub fn print(&self) {
        println!(
            "\nfast-path matcher throughput (median of {} paired rounds):",
            self.params.rounds
        );
        println!(
            "{:<18} {:<18} {:>10} {:>9}",
            "mix", "matcher", "MiB/s", "vs dense"
        );
        for r in &self.rows {
            println!(
                "{:<18} {:<18} {:>10.1} {:>8.2}x",
                r.mix,
                r.kind.to_string(),
                r.mib_per_s(),
                self.dense_secs(&r.mix) / r.median.as_secs_f64()
            );
        }
        println!("\n10k-rule corpus automaton footprint:");
        println!(
            "{:<18} {:>12} {:>9} {:>10}",
            "matcher", "bytes", "states", "build-ms"
        );
        for r in &self.automaton_10k {
            println!(
                "{:<18} {:>12} {:>9} {:>10.2}",
                r.kind.to_string(),
                r.bytes,
                r.states,
                r.build.as_secs_f64() * 1e3
            );
        }
    }
}

/// Run the full sweep: small-corpus mixes + classify + 10k-corpus scan
/// and footprints. One measurement implementation for bench and lab.
pub fn run(params: &Params) -> Report {
    let scan_mixes: [(&'static str, Vec<u8>); 3] = [
        ("scan/benign", benign_corpus()),
        ("scan/pieces", piece_corpus()),
        ("scan/adversarial", adversarial_corpus()),
    ];
    let trace = benign_trace(200, 17);
    let trace_bytes = trace.total_bytes();
    let plans: Vec<(MatcherKind, SplitPlan, SplitPlan)> = MatcherKind::ALL
        .iter()
        .map(|&k| (k, plan_for(k), demo_plan_for(k)))
        .collect();
    let benign = &scan_mixes[0].1;

    // Warm every path once before measuring.
    for (kind, plan, demo) in &plans {
        for (_, corpus) in &scan_mixes {
            scan_once(plan, corpus);
        }
        scan_once(demo, benign);
        classify_once(*kind, &trace);
    }

    // Paired measurement: alternate engines inside each round so
    // thermal/scheduler drift cancels, compare medians. Per plan: the
    // three scan mixes, classify, then scan/demo.
    let rounds = params.rounds;
    let mut samples: Vec<Vec<Duration>> = vec![Vec::with_capacity(rounds); plans.len() * 5];
    for _ in 0..rounds {
        for (pi, (kind, plan, demo)) in plans.iter().enumerate() {
            for (mi, (_, corpus)) in scan_mixes.iter().enumerate() {
                samples[pi * 5 + mi].push(scan_once(plan, corpus));
            }
            samples[pi * 5 + 3].push(classify_once(*kind, &trace));
            samples[pi * 5 + 4].push(scan_once(demo, benign));
        }
    }

    // 10k-rule corpus: the production-scale mix. Scan-only (the classify
    // path's flow table is rule-count independent) and fewer rounds — the
    // point is how each representation's throughput and footprint hold up
    // as the corpus grows, not another microbenchmark. Benign bytes trip
    // corpus pieces early and often at this scale, so every build
    // early-exits at the same byte: the comparison stays paired-fair.
    let sigs10k = crate::corpus_signature_set(params.corpus_rules, params.corpus_seed);
    let plans10k: Vec<(MatcherKind, SplitPlan)> = MatcherKind::ALL
        .iter()
        .map(|&k| {
            let config = SplitDetectConfig {
                fastpath_matcher: k,
                ..Default::default()
            };
            (
                k,
                SplitPlan::compile(&sigs10k, &config).expect("admissible"),
            )
        })
        .collect();
    for (_, plan) in &plans10k {
        scan_once(plan, benign);
    }
    let mut samples10k: Vec<Vec<Duration>> =
        vec![Vec::with_capacity(params.rounds_10k); plans10k.len()];
    for _ in 0..params.rounds_10k {
        for (pi, (_, plan)) in plans10k.iter().enumerate() {
            samples10k[pi].push(scan_once(plan, benign));
        }
    }

    let mut rows = Vec::new();
    for (pi, (kind, _, _)) in plans.iter().enumerate() {
        for (mi, (mix, _)) in scan_mixes.iter().enumerate() {
            rows.push(MixRow {
                mix: mix.to_string(),
                kind: *kind,
                median: median(samples[pi * 5 + mi].clone()),
                bytes: VOLUME as u64,
            });
        }
        rows.push(MixRow {
            mix: "classify/benign".to_string(),
            kind: *kind,
            median: median(samples[pi * 5 + 3].clone()),
            bytes: trace_bytes,
        });
        rows.push(MixRow {
            mix: "scan/demo".to_string(),
            kind: *kind,
            median: median(samples[pi * 5 + 4].clone()),
            bytes: VOLUME as u64,
        });
    }
    for (pi, (kind, _)) in plans10k.iter().enumerate() {
        rows.push(MixRow {
            mix: "scan10k/benign".to_string(),
            kind: *kind,
            median: median(samples10k[pi].clone()),
            bytes: VOLUME as u64,
        });
    }
    rows.sort_by(|a, b| a.mix.cmp(&b.mix));

    let automaton = plans
        .iter()
        .map(|(kind, plan, _)| AutomatonRow {
            kind: *kind,
            bytes: plan.memory_bytes(),
            classes: plan.class_count().unwrap_or(256),
            escape_bytes: plan.escape_byte_count().unwrap_or(0),
        })
        .collect();
    let automaton_10k = plans10k
        .iter()
        .map(|(kind, plan)| {
            let (hot_bytes, cold_bytes) = plan
                .tier_stats()
                .map_or((0, 0), |t| (t.hot_bytes, t.cold_bytes));
            Automaton10kRow {
                kind: *kind,
                bytes: plan.memory_bytes(),
                hot_bytes,
                cold_bytes,
                states: plan.state_count(),
                build: plan.build_time(),
            }
        })
        .collect();

    Report {
        params: *params,
        rows,
        automaton,
        automaton_10k,
    }
}
