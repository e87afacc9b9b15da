//! Matcher-kind equivalence over adversarial traces.
//!
//! The fast-path scan engine comes in six builds — the dense DFA, the
//! byte-class compressed table, the compressed table behind the
//! start-state skip prefilter, the memory-sparse NFA, the sparse NFA
//! behind a Bloom window prefilter, and the tiered hot/cold hybrid — and
//! the compression/prefilter work
//! is only sound if all six are *observationally identical*: same
//! alerts, same divert decisions, same accounting, on every wire input.
//! The unit and property tests check the matchers agree on raw byte
//! strings; this suite checks the full engines agree on the oracle's
//! adversarial traces, where the payload arrives fragmented, overlapped,
//! chaffed and out of order — and does it again at rule-corpus scale,
//! where the representations actually diverge in structure (dedup'd
//! shared prefixes, saturated byte classes, loaded Bloom filters).
//!
//! The demo corpora (the embedded demo rules and `rules/demo.rules`) get
//! their own pass: their pieces start with common text bytes, so the
//! prefiltered and tiered builds scan with the two-lane front end instead
//! of the start-state skip.
//!
//! Stats are compared whole except for the two fields that *describe* the
//! matcher (`matcher`, `automaton_bytes`) — everything observable about
//! the traffic must match bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_ips::api::run_trace;
use sd_ips::rules::{parse_rules, DEMO_RULES};
use sd_ips::{Alert, Signature, SignatureSet};
use sd_oracle::{CompiledTrace, TraceProgram, ORACLE_SIGNATURE};
use sd_traffic::benign::{BenignConfig, BenignGenerator};
use sd_traffic::payload::PayloadModel;
use sd_traffic::{generate_rule_corpus, RuleCorpusConfig};
use splitdetect::{
    MatcherKind, ShardedSplitDetect, SplitDetect, SplitDetectConfig, SplitDetectStats, SplitPlan,
};

/// The pinned regression traces from `regression.rs`: shrunk reproducers
/// of real engine bugs, i.e. exactly the wire shapes that have fooled
/// this engine before.
const PINNED: [&str; 3] = [
    "# split-detect fuzz trace\n\
     seed 77\n\
     policy first\n\
     prefix 40\n\
     suffix 30\n\
     mutate split-sig 9\n\
     mutate frag 0 24\n",
    "# split-detect fuzz trace\n\
     seed 13968259953709020894\n\
     policy first\n\
     prefix 1\n\
     suffix 2\n\
     mutate chaff-cksum 1501928558060025601\n\
     mutate frag 3759307373701782754 43\n",
    "# split-detect fuzz trace\n\
     seed 5770459859425060368\n\
     policy linux\n\
     prefix 1\n\
     suffix 2\n\
     mutate retransmit-bad 9843630119496533149\n\
     mutate frag-overlap 71580601167850740\n",
];

fn signatures() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("oracle-evil", ORACLE_SIGNATURE)])
}

fn config_for(compiled: &CompiledTrace, kind: MatcherKind) -> SplitDetectConfig {
    SplitDetectConfig {
        slow_path_policy: compiled.victim.policy,
        fastpath_matcher: kind,
        ..Default::default()
    }
}

/// Sort key making alert lists comparable: flow, signature, offset, stage.
fn alert_keys(alerts: &[Alert]) -> Vec<(sd_flow::FlowKey, usize, u64, u8)> {
    let mut keys: Vec<_> = alerts
        .iter()
        .map(|a| (a.flow, a.signature, a.offset, a.source as u8))
        .collect();
    keys.sort_unstable();
    keys
}

/// Blank out the fields that legitimately differ between matcher builds.
fn normalized(mut stats: SplitDetectStats) -> SplitDetectStats {
    stats.matcher = MatcherKind::Dense;
    stats.automaton_bytes = 0;
    stats
}

fn run_packets(
    sigs: &SignatureSet,
    packets: &[Vec<u8>],
    config: SplitDetectConfig,
) -> (Vec<(sd_flow::FlowKey, usize, u64, u8)>, SplitDetectStats) {
    let mut engine = SplitDetect::with_config(sigs.clone(), config).expect("config is admissible");
    let alerts = run_trace(&mut engine, packets.iter().map(|p| p.as_slice()));
    (alert_keys(&alerts), engine.stats())
}

fn run_single_with(
    sigs: &SignatureSet,
    compiled: &CompiledTrace,
    kind: MatcherKind,
) -> (Vec<(sd_flow::FlowKey, usize, u64, u8)>, SplitDetectStats) {
    run_packets(sigs, &compiled.packets, config_for(compiled, kind))
}

fn run_single(
    compiled: &CompiledTrace,
    kind: MatcherKind,
) -> (Vec<(sd_flow::FlowKey, usize, u64, u8)>, SplitDetectStats) {
    run_single_with(&signatures(), compiled, kind)
}

fn assert_kinds_agree_with(sigs: &SignatureSet, compiled: &CompiledTrace, label: &str) {
    let (dense_alerts, dense_stats) = run_single_with(sigs, compiled, MatcherKind::Dense);
    for kind in MatcherKind::ALL {
        if kind == MatcherKind::Dense {
            continue;
        }
        let (alerts, stats) = run_single_with(sigs, compiled, kind);
        assert_eq!(
            alerts, dense_alerts,
            "{label}: {kind} alerts diverge from dense"
        );
        assert_eq!(
            normalized(stats),
            normalized(dense_stats),
            "{label}: {kind} stats diverge from dense"
        );
    }
}

fn assert_kinds_agree(compiled: &CompiledTrace, label: &str) {
    assert_kinds_agree_with(&signatures(), compiled, label);
}

#[test]
fn pinned_regressions_agree_across_matchers() {
    for (i, text) in PINNED.iter().enumerate() {
        let program = TraceProgram::from_text(text).expect("pinned trace must parse");
        let compiled = program.compile();
        // The pins must keep their teeth: each one delivers the signature
        // and the engine alerts, so the agreement below is about real
        // detections, not three engines all saying nothing.
        let (dense_alerts, _) = run_single(&compiled, MatcherKind::Dense);
        assert!(
            !dense_alerts.is_empty(),
            "pin {i} no longer triggers any alert"
        );
        assert_kinds_agree(&compiled, &format!("pin {i}"));
    }
}

#[test]
fn random_adversarial_programs_agree_across_matchers() {
    for seed in 0..48u64 {
        let compiled = TraceProgram::random(seed).compile();
        assert_kinds_agree(&compiled, &format!("random program seed {seed}"));
    }
}

/// Rules in the scale corpus: trimmed in the debug profile so tier-1
/// stays quick, the full 1k in release (CI runs this suite in release).
const CORPUS_RULES: usize = if cfg!(debug_assertions) { 200 } else { 1000 };

/// A generated corpus as the engine's rule set, with the oracle signature
/// appended so adversarial traces still carry a planted detection.
fn corpus_signatures(rules: usize, seed: u64) -> SignatureSet {
    let text = generate_rule_corpus(&RuleCorpusConfig::sized(rules, seed));
    let set = parse_rules(&text).expect("generated corpus parses cleanly");
    let mut sigs: Vec<Signature> = set
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| Signature::new(format!("corpus-{i}"), r.signature_bytes().to_vec()))
        .collect();
    sigs.push(Signature::new("oracle-evil", ORACLE_SIGNATURE));
    SignatureSet::from_signatures(sigs)
}

/// A rule file's signatures, with the oracle signature appended so
/// adversarial traces still carry a planted detection.
fn rules_with_oracle(text: &str) -> SignatureSet {
    let set = parse_rules(text).expect("rule file parses cleanly");
    let mut sigs: Vec<Signature> = set
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| Signature::new(format!("rule-{i}"), r.signature_bytes().to_vec()))
        .collect();
    sigs.push(Signature::new("oracle-evil", ORACLE_SIGNATURE));
    SignatureSet::from_signatures(sigs)
}

/// The escape-dense corpora: the embedded demo rules (13 pieces, 13
/// distinct first bytes) and the shipped `rules/demo.rules`.
fn demo_corpora() -> [(&'static str, SignatureSet); 2] {
    [
        ("embedded demo rules", rules_with_oracle(DEMO_RULES)),
        (
            "rules/demo.rules",
            rules_with_oracle(include_str!("../../../rules/demo.rules")),
        ),
    ]
}

/// One plan per representation over the same signature set.
fn all_plans(sigs: &SignatureSet) -> Vec<SplitPlan> {
    MatcherKind::ALL
        .iter()
        .map(|&kind| {
            SplitPlan::compile(
                sigs,
                &SplitDetectConfig {
                    fastpath_matcher: kind,
                    ..Default::default()
                },
            )
            .expect("corpus is admissible")
        })
        .collect()
}

/// The scale version of the equivalence suite: every engine build loaded
/// with a seeded 1k-rule corpus, driven over the pinned regressions and
/// fresh adversarial programs — exactly the traces whose fragments and
/// splits straddle signatures across packet boundaries. At this scale the
/// representations genuinely diverge inside (byte classes saturate, piece
/// dedup kicks in, the Bloom filter carries real load), so agreement here
/// is the proof the knob is safe to turn on a production-sized rule set.
#[test]
fn corpus_scale_engines_agree_across_matchers() {
    let sigs = corpus_signatures(CORPUS_RULES, 0xC0FFEE);
    for (i, text) in PINNED.iter().enumerate() {
        let program = TraceProgram::from_text(text).expect("pinned trace must parse");
        assert_kinds_agree_with(&sigs, &program.compile(), &format!("corpus pin {i}"));
    }
    for seed in 100..104u64 {
        let compiled = TraceProgram::random(seed).compile();
        assert_kinds_agree_with(&sigs, &compiled, &format!("corpus random seed {seed}"));
    }
}

/// Plan-level agreement on inputs that straddle the sparse engine's scan
/// chunk alignment: a corpus signature placed at every small offset moves
/// its pieces across the Bloom window and the prefilter's skip loop; the
/// match lists must stay byte-identical in every representation.
#[test]
fn corpus_scale_plans_agree_on_straddling_offsets() {
    let sigs = corpus_signatures(CORPUS_RULES, 0xC0FFEE);
    let probes: Vec<Vec<u8>> = [0usize, CORPUS_RULES / 2, CORPUS_RULES - 1]
        .iter()
        .map(|&want| {
            sigs.iter()
                .find(|(id, _)| *id == want)
                .expect("probe signature exists")
                .1
                .bytes
                .clone()
        })
        .collect();
    let plans = all_plans(&sigs);
    for bytes in &probes {
        for shift in 0..16usize {
            let mut payload = vec![b'.'; shift];
            payload.extend_from_slice(bytes);
            payload.extend_from_slice(b" trailing benign tail bytes");
            let base = plans[0].scan_all(&payload);
            assert!(
                !base.is_empty(),
                "a whole signature must trip its own pieces"
            );
            for (plan, kind) in plans.iter().zip(MatcherKind::ALL).skip(1) {
                assert_eq!(
                    plan.scan_all(&payload),
                    base,
                    "{kind} full-scan diverges at shift {shift}"
                );
                assert_eq!(
                    plan.scan(&payload),
                    plans[0].scan(&payload),
                    "{kind} first-match diverges at shift {shift}"
                );
            }
        }
    }
}

/// The demo corpora through the full engines: pinned regressions, fresh
/// adversarial programs and a benign HTTP-like trace (payloads long
/// enough to walk in lanes) — every build, same alerts and stats.
#[test]
fn demo_corpora_engines_agree_across_matchers() {
    let benign = BenignGenerator::new(BenignConfig {
        flows: 40,
        seed: 5,
        ..Default::default()
    })
    .generate();
    let benign: Vec<Vec<u8>> = benign.iter_bytes().map(<[u8]>::to_vec).collect();
    for (label, sigs) in demo_corpora() {
        for kind in [MatcherKind::ClassedPrefilter, MatcherKind::Tiered] {
            let plan = SplitPlan::compile_unchecked_with(&sigs, 3, kind);
            assert_eq!(plan.scan_front_end(), Some("lanes"), "{label}: {kind}");
        }
        for (i, text) in PINNED.iter().enumerate() {
            let program = TraceProgram::from_text(text).expect("pinned trace must parse");
            assert_kinds_agree_with(&sigs, &program.compile(), &format!("{label} pin {i}"));
        }
        for seed in 200..212u64 {
            let compiled = TraceProgram::random(seed).compile();
            assert_kinds_agree_with(&sigs, &compiled, &format!("{label} random seed {seed}"));
        }
        let run = |kind| {
            run_packets(
                &sigs,
                &benign,
                SplitDetectConfig {
                    fastpath_matcher: kind,
                    ..Default::default()
                },
            )
        };
        let (dense_alerts, dense_stats) = run(MatcherKind::Dense);
        for kind in MatcherKind::ALL {
            let (alerts, stats) = run(kind);
            assert_eq!(alerts, dense_alerts, "{label} benign: {kind} alerts");
            assert_eq!(
                normalized(stats),
                normalized(dense_stats),
                "{label} benign: {kind} stats"
            );
        }
    }
}

/// Plan-level agreement where the lanes split: each demo signature planted
/// in benign HTTP-like bytes at every start around the midpoint of
/// payloads on both sides of the lane threshold, so its pieces land in
/// lane 0, in lane 1 and across the overlap.
#[test]
fn demo_corpora_plans_agree_around_the_lane_split() {
    let mut rng = StdRng::seed_from_u64(12);
    let filler = PayloadModel::HttpLike.generate(&mut rng, 1400);
    for (label, sigs) in demo_corpora() {
        let plans = all_plans(&sigs);
        for (_, sig) in sigs.iter() {
            let n = sig.bytes.len();
            for len in [127usize, 128, 200, 691, 1400] {
                if len < n {
                    continue;
                }
                let h = len / 2;
                for at in h.saturating_sub(n)..=(h + 1).min(len - n) {
                    let mut payload = filler[..len].to_vec();
                    payload[at..at + n].copy_from_slice(&sig.bytes);
                    let base = plans[0].scan(&payload);
                    assert!(base.is_some(), "{label}: planted signature missed");
                    let base_all = plans[0].scan_all(&payload);
                    for (plan, kind) in plans.iter().zip(MatcherKind::ALL).skip(1) {
                        assert_eq!(
                            plan.scan(&payload),
                            base,
                            "{label}: {kind} first match, len {len} at {at}"
                        );
                        assert_eq!(
                            plan.scan_all(&payload),
                            base_all,
                            "{label}: {kind} all matches, len {len} at {at}"
                        );
                    }
                }
            }
        }
    }
}

/// The 10k-rule memory ceiling: the sparse representations must cost at
/// most 10% of the dense table on a full-size corpus, with identical
/// structure and identical scan results. Compiling the dense baseline
/// allocates a ~170 MB table, so the check is gated behind
/// `SD_RULES_SCALE=1`; CI's rules-scale job runs it in release.
#[test]
fn sparse_stays_under_ten_percent_of_dense_at_10k_rules() {
    if std::env::var("SD_RULES_SCALE").as_deref() != Ok("1") {
        eprintln!("skipping 10k-rule ceiling check (set SD_RULES_SCALE=1 to run)");
        return;
    }
    let sigs = corpus_signatures(10_000, 42);
    let plans = all_plans(&sigs);
    let dense = &plans[0];
    assert_eq!(dense.matcher_kind(), MatcherKind::Dense);

    let mut payload = b"benign preamble ".to_vec();
    payload.extend_from_slice(&sigs.iter().next().expect("corpus is non-empty").1.bytes);
    payload.extend_from_slice(b" interstitial filler ");
    payload.extend_from_slice(ORACLE_SIGNATURE);
    let base = dense.scan_all(&payload);
    assert!(!base.is_empty());

    for (plan, kind) in plans.iter().zip(MatcherKind::ALL) {
        assert_eq!(
            plan.state_count(),
            dense.state_count(),
            "{kind} must encode the same automaton"
        );
        assert_eq!(
            plan.scan_all(&payload),
            base,
            "{kind} diverges at 10k rules"
        );
        if matches!(kind, MatcherKind::Sparse | MatcherKind::SparseBloom) {
            assert!(
                plan.memory_bytes() * 10 <= dense.memory_bytes(),
                "{kind} is {} B, over 10% of the dense {} B",
                plan.memory_bytes(),
                dense.memory_bytes()
            );
        }
    }

    // The tiered hybrid buys its throughput with a dense hot tier; the
    // budget heuristic must keep the whole table within 2x of plain
    // sparse even at 10k rules (the ceiling E22 and CI enforce).
    let by_kind = |want: MatcherKind| {
        &plans[MatcherKind::ALL
            .iter()
            .position(|&k| k == want)
            .expect("kind is in ALL")]
    };
    let tiered = by_kind(MatcherKind::Tiered);
    let sparse = by_kind(MatcherKind::Sparse);
    assert!(
        tiered.memory_bytes() <= 2 * sparse.memory_bytes(),
        "tiered is {} B, over 2x the sparse {} B at 10k rules",
        tiered.memory_bytes(),
        sparse.memory_bytes()
    );
    let tiers = tiered.tier_stats().expect("tiered plan reports tiers");
    assert!(tiers.hot_states > 0 && tiers.cold_states > 0);
}

#[test]
fn sharded_engines_agree_across_matchers() {
    for (i, text) in PINNED.iter().enumerate() {
        let program = TraceProgram::from_text(text).expect("pinned trace must parse");
        let compiled = program.compile();
        let (dense_alerts, _) = run_single(&compiled, MatcherKind::Dense);
        for kind in MatcherKind::ALL {
            for shards in [2usize, 4] {
                let mut engine =
                    ShardedSplitDetect::new(signatures(), config_for(&compiled, kind), shards)
                        .expect("oracle config is admissible");
                let alerts = run_trace(&mut engine, compiled.packets.iter().map(|p| p.as_slice()));
                assert!(
                    engine.failures().is_empty(),
                    "pin {i}: {kind} x{shards} shard worker failed"
                );
                assert_eq!(
                    alert_keys(&alerts),
                    dense_alerts,
                    "pin {i}: {kind} x{shards} shards diverge from single dense"
                );
            }
        }
    }
}
