//! # sd-match — exact string matching engines
//!
//! The Split-Detect fast path scans every packet payload against the set of
//! *pieces* of all signatures; the slow path and the conventional IPS scan
//! reassembled streams against the full signatures. Both reduce to
//! multi-pattern exact matching, implemented here from scratch:
//!
//! * [`aho`] — Aho–Corasick automaton (goto/fail/output construction),
//! * [`dfa`] — a dense byte-indexed DFA compiled from the NFA; this is the
//!   fast-path engine the paper's hardware argument is about (one table
//!   lookup per byte, no failure chains),
//! * [`classed`] — the dense DFA with its 256-byte alphabet compressed to
//!   equivalence classes, shrinking the transition table ~4–10× so real
//!   rule sets stay L1/L2-resident at the same one-lookup-per-byte bound,
//! * [`prefilter`] — the scan front ends of the classed DFA, chosen from
//!   the start state's escape set: a start-state skip (SWAR `u64`
//!   membership scan, 8 bytes per step in safe Rust) for tiny escape sets,
//!   a sequential walk when every byte escapes, a two-lane interleaved
//!   walk in between — the engine the Split-Detect fast path defaults to,
//! * [`sparse`] — a CSR hybrid NFA-DFA (`O(pattern bytes)` memory instead
//!   of `O(states × 256)`) with an optional Bloom window prefilter before
//!   exact confirm: the representations that keep 10k-rule corpora from
//!   blowing past cache,
//! * [`tiered`] — a two-tier hybrid: dense byte-classed rows for the hot
//!   shallow states (where benign traffic lives), CSR edges for the cold
//!   tail, behind the same front-end rule — the engine that closes
//!   the sparse throughput gap at 10k rules without the dense table,
//! * [`bmh`] — Boyer–Moore–Horspool for single patterns (used by tests and
//!   by the naive per-packet baseline when it has one signature),
//! * [`shiftor`] — bit-parallel shift-or for short patterns (≤ 64 bytes;
//!   signature pieces are short, so this is a credible alternative
//!   fast-path engine and appears in the matcher ablation bench),
//! * [`stream`] — a resumable matcher that carries DFA state across chunk
//!   boundaries, reporting absolute stream offsets: what the slow path runs
//!   over reassembled bytes,
//! * [`stride2`] — a two-bytes-per-lookup DFA: the hardware
//!   multi-byte-per-cycle trade-off (throughput vs table width) as a
//!   measurable software ablation,
//! * [`wumanber`] — Wu–Manber bad-block shifting, the era's software IPS
//!   engine: sublinear on small rule sets, degrading as the shift table
//!   fills — the degradation the paper's DFA assumption avoids,
//! * [`naive`] — the obviously-correct quadratic reference all engines are
//!   cross-checked against in unit and property tests.
//!
//! All engines report [`Match`] values identifying the pattern and the
//! *end* offset (one past the last byte), and find **all** occurrences,
//! including overlapping ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aho;
pub mod bmh;
pub mod classed;
pub mod dfa;
pub mod naive;
pub mod pattern;
pub mod prefilter;
pub mod shiftor;
pub mod sparse;
pub mod stream;
pub mod stride2;
pub mod tiered;
pub mod wumanber;

pub use aho::AhoCorasick;
pub use classed::ClassedDfa;
pub use dfa::AcDfa;
pub use pattern::{Match, PatternId, PatternSet};
pub use prefilter::{FrontEnd, PrefilteredDfa, StartSkip};
pub use sparse::{BloomSparseNfa, SparseNfa, WindowBloom};
pub use stream::StreamMatcher;
pub use stride2::Stride2Dfa;
pub use tiered::TieredNfa;
pub use wumanber::WuManber;
