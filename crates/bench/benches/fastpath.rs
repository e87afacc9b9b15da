//! Fast-path bench: per-packet classification throughput — the number the
//! paper's line-rate argument rides on — across the six scan-engine
//! builds (`dense`, `classed`, `classed+prefilter`, `sparse`,
//! `sparse+bloom`, `tiered`) and three payload mixes (benign, pieces,
//! adversarial; see [`sd_bench::sweeps::fastpath`] for the mix design).
//!
//! The criterion groups measure `FastPath::classify` end to end. The
//! custom `main` then runs the shared sweep core
//! ([`sd_bench::sweeps::fastpath::run`]) — a paired-median measurement of
//! the raw `SplitPlan::scan` loop, the full classify path, and a
//! `scan10k/benign` mix where every representation carries a generated
//! 10k-rule corpus — prints the table, and, when `SD_FASTPATH_ENFORCE=1`
//! (the CI smoke step), fails unless the default (prefiltered) engine is
//! no slower than dense on the benign mix and on `scan/demo` (the benign
//! bytes against the embedded demo rules), the sparse tables stay within 10% of
//! dense memory at 10k rules, and the tiered build beats sparse by
//! ≥ 1.5x on `scan10k/benign` while spending at most 2x the sparse
//! automaton bytes.
//!
//! `BENCH_fastpath.json` is no longer written here: `sd lab run
//! fastpath-matcher-mix` journals the same sweep with provenance and
//! `sd lab emit` regenerates the baseline from the journal.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};
use sd_bench::sweeps::fastpath::{
    adversarial_corpus, benign_corpus, build_fastpath, piece_corpus, plan_for, sigs, Params,
    SEGMENT, VOLUME,
};
use sd_bench::{benign_trace, generated_signatures};
use splitdetect::MatcherKind;

fn bench_classify(c: &mut Criterion) {
    let trace = benign_trace(200, 17);
    let bytes: u64 = trace.total_bytes();

    let mut group = c.benchmark_group("fastpath_classify");
    group.throughput(Throughput::Bytes(bytes));

    for &n in &[1usize, 100, 1000] {
        let sigs = if n == 1 {
            sigs()
        } else {
            generated_signatures(n, n as u64)
        };
        for kind in MatcherKind::ALL {
            let id = BenchmarkId::new(format!("benign_trace/{kind}"), n);
            group.bench_with_input(id, &n, |b, _| {
                b.iter_batched(
                    || build_fastpath(&sigs, kind),
                    |mut fp| {
                        let mut diverts = 0u64;
                        for pkt in trace.iter_bytes() {
                            let (_, v) = fp.classify(black_box(pkt), |_| false);
                            diverts +=
                                u64::from(matches!(v, splitdetect::fastpath::Verdict::Divert(_)));
                        }
                        diverts
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_scan_mixes(c: &mut Criterion) {
    let mixes: [(&str, Vec<u8>); 3] = [
        ("benign", benign_corpus()),
        ("pieces", piece_corpus()),
        ("adversarial", adversarial_corpus()),
    ];

    let mut group = c.benchmark_group("fastpath_scan");
    group.throughput(Throughput::Bytes(VOLUME as u64));
    for (mix, corpus) in &mixes {
        for kind in MatcherKind::ALL {
            let plan = plan_for(kind);
            let id = BenchmarkId::new(format!("scan/{kind}"), mix);
            group.bench_with_input(id, mix, |b, _| {
                b.iter(|| {
                    let mut hits = 0u64;
                    for seg in corpus.chunks(SEGMENT) {
                        hits += u64::from(plan.scan(black_box(seg)).is_some());
                    }
                    hits
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_classify, bench_scan_mixes);

fn main() {
    benches();

    let report = sd_bench::sweeps::fastpath::run(&Params::full());
    report.print();

    if std::env::var("SD_FASTPATH_ENFORCE").as_deref() == Ok("1") {
        // The default matcher must never lose to dense: on the
        // single-signature benign mix (skip front end) and on the demo
        // rules (lanes front end).
        for mix in ["scan/benign", "scan/demo"] {
            let dense = report.secs(mix, MatcherKind::Dense);
            let default = report.secs(mix, MatcherKind::default());
            assert!(
                default <= dense,
                "default matcher slower than dense on {mix}: \
                 {default:.6}s vs {dense:.6}s"
            );
            println!(
                "default matcher no slower than dense on {mix} ({:.2}x faster)",
                dense / default
            );
        }

        // The memory claim the sparse representations exist for: at 10k
        // rules they must cost at most 10% of the dense table.
        let dense10k = report.bytes_10k(MatcherKind::Dense);
        for kind in [MatcherKind::Sparse, MatcherKind::SparseBloom] {
            let bytes = report.bytes_10k(kind);
            assert!(
                bytes * 10 <= dense10k,
                "{kind} automaton is {bytes} B at 10k rules, over 10% of dense ({dense10k} B)"
            );
        }
        println!("sparse automata within 10% of dense memory at 10k rules");

        // The gap the tiered build exists to close: at 10k rules it must
        // recover at least 1.5x of sparse throughput on benign traffic
        // while spending at most 2x the sparse automaton bytes.
        let sparse10k = report.secs("scan10k/benign", MatcherKind::Sparse);
        let tiered10k = report.secs("scan10k/benign", MatcherKind::Tiered);
        assert!(
            tiered10k * 1.5 <= sparse10k,
            "tiered scan under 1.5x sparse throughput on scan10k/benign: \
             {tiered10k:.6}s vs {sparse10k:.6}s ({:.2}x)",
            sparse10k / tiered10k
        );
        let sparse_bytes = report.bytes_10k(MatcherKind::Sparse);
        let tiered_bytes = report.bytes_10k(MatcherKind::Tiered);
        assert!(
            tiered_bytes <= 2 * sparse_bytes,
            "tiered automaton is {tiered_bytes} B at 10k rules, \
             over 2x sparse ({sparse_bytes} B)"
        );
        println!(
            "tiered {:.2}x sparse throughput on scan10k/benign at {:.2}x sparse memory",
            sparse10k / tiered10k,
            tiered_bytes as f64 / sparse_bytes as f64
        );
    }
}
