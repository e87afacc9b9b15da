//! Signature splitting.
//!
//! Each signature of length `L` is cut into `k` contiguous pieces of
//! near-equal length (every piece is `⌊L/k⌋` or `⌈L/k⌉` bytes) and all
//! pieces of all signatures are compiled into one multi-pattern automaton.
//! The plan keeps *provenance* — which signature and which position each
//! piece came from — so a fast-path hit can say what it suspects, and
//! duplicate piece strings across signatures are stored once with merged
//! provenance (keeping the automaton minimal).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sd_ips::{SignatureId, SignatureSet};
use sd_match::pattern::PatternSet;
use sd_match::{
    AcDfa, BloomSparseNfa, ClassedDfa, Match, PatternId, PrefilteredDfa, SparseNfa, TieredNfa,
};

use crate::config::{ConfigError, MatcherKind, SplitDetectConfig};

/// Where a piece occurs inside its signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PieceOrigin {
    /// The signature this piece was cut from.
    pub signature: SignatureId,
    /// Piece index within that signature (0-based).
    pub index: usize,
    /// Byte offset of the piece within the signature.
    pub offset: usize,
}

/// The piece automaton in whichever engine the config selected. Every
/// variant recognizes the identical match set; they differ only in table
/// layout and benign-byte cost (see [`MatcherKind`]).
#[derive(Debug, Clone)]
enum PieceAutomaton {
    Dense(AcDfa),
    Classed(ClassedDfa),
    Prefiltered(PrefilteredDfa),
    Sparse(SparseNfa),
    SparseBloom(BloomSparseNfa),
    Tiered(TieredNfa),
}

impl PieceAutomaton {
    fn compile(set: PatternSet, matcher: MatcherKind, tiered_hot: Option<usize>) -> Self {
        match matcher {
            MatcherKind::Dense => PieceAutomaton::Dense(AcDfa::new(set)),
            MatcherKind::Classed => PieceAutomaton::Classed(ClassedDfa::new(set)),
            MatcherKind::ClassedPrefilter => PieceAutomaton::Prefiltered(PrefilteredDfa::new(set)),
            MatcherKind::Sparse => PieceAutomaton::Sparse(SparseNfa::new(set)),
            MatcherKind::SparseBloom => PieceAutomaton::SparseBloom(BloomSparseNfa::new(set)),
            MatcherKind::Tiered => match tiered_hot {
                Some(h) => PieceAutomaton::Tiered(TieredNfa::with_hot_states(set, h)),
                None => PieceAutomaton::Tiered(TieredNfa::new(set)),
            },
        }
    }

    /// Early-exit scan: the id of the first matching piece, with no
    /// `Match` materialized (the fast path never wants the offset).
    #[inline]
    fn find_first_id(&self, payload: &[u8]) -> Option<PatternId> {
        match self {
            PieceAutomaton::Dense(d) => d.find_first_id(payload),
            PieceAutomaton::Classed(d) => d.find_first_id(payload),
            PieceAutomaton::Prefiltered(d) => d.find_first_id(payload),
            PieceAutomaton::Sparse(d) => d.find_first_id(payload),
            PieceAutomaton::SparseBloom(d) => d.find_first_id(payload),
            PieceAutomaton::Tiered(d) => d.find_first_id(payload),
        }
    }

    /// All piece occurrences in `payload` (profiling, not the hot path).
    fn find_all(&self, payload: &[u8]) -> Vec<Match> {
        match self {
            PieceAutomaton::Dense(d) => d.find_all(payload),
            PieceAutomaton::Classed(d) => d.find_all(payload),
            PieceAutomaton::Prefiltered(d) => d.find_all(payload),
            PieceAutomaton::Sparse(d) => d.find_all(payload),
            PieceAutomaton::SparseBloom(d) => d.find_all(payload),
            PieceAutomaton::Tiered(d) => d.find_all(payload),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            PieceAutomaton::Dense(d) => d.memory_bytes(),
            PieceAutomaton::Classed(d) => d.memory_bytes(),
            PieceAutomaton::Prefiltered(d) => d.memory_bytes(),
            PieceAutomaton::Sparse(d) => d.memory_bytes(),
            PieceAutomaton::SparseBloom(d) => d.memory_bytes(),
            PieceAutomaton::Tiered(d) => d.memory_bytes(),
        }
    }

    fn state_count(&self) -> usize {
        match self {
            PieceAutomaton::Dense(d) => d.state_count(),
            PieceAutomaton::Classed(d) => d.state_count(),
            PieceAutomaton::Prefiltered(d) => d.state_count(),
            PieceAutomaton::Sparse(d) => d.state_count(),
            PieceAutomaton::SparseBloom(d) => d.state_count(),
            PieceAutomaton::Tiered(d) => d.state_count(),
        }
    }

    fn kind(&self) -> MatcherKind {
        match self {
            PieceAutomaton::Dense(_) => MatcherKind::Dense,
            PieceAutomaton::Classed(_) => MatcherKind::Classed,
            PieceAutomaton::Prefiltered(_) => MatcherKind::ClassedPrefilter,
            PieceAutomaton::Sparse(_) => MatcherKind::Sparse,
            PieceAutomaton::SparseBloom(_) => MatcherKind::SparseBloom,
            PieceAutomaton::Tiered(_) => MatcherKind::Tiered,
        }
    }
}

/// Per-tier layout of a [`MatcherKind::Tiered`] plan (telemetry and the
/// bench JSON report both tiers separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// States laid out as dense byte-classed rows.
    pub hot_states: usize,
    /// States kept in the CSR cold tail.
    pub cold_states: usize,
    /// Hot-tier bytes (class map + dense rows).
    pub hot_bytes: usize,
    /// Cold-tier bytes (CSR arrays + failure links).
    pub cold_bytes: usize,
    /// Byte equivalence classes over the hot rows.
    pub class_count: usize,
}

/// The compiled split: piece automaton plus provenance.
#[derive(Debug, Clone)]
pub struct SplitPlan {
    automaton: PieceAutomaton,
    /// origin lists parallel to pattern ids.
    origins: Vec<Vec<PieceOrigin>>,
    /// Longest piece length (the admissible small-segment cutoff floor).
    max_piece_len: usize,
    /// Shortest piece length.
    min_piece_len: usize,
    pieces_per_signature: usize,
    /// Wall time spent compiling the automaton (per-representation build
    /// cost — the telemetry gauge and `sd analyze-rules` report it).
    build_time: Duration,
}

/// Cut `len` into `k` near-equal spans.
pub fn balanced_cuts(len: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(k >= 1 && len >= k, "cannot cut {len} bytes into {k} pieces");
    let base = len / k;
    let extra = len % k; // first `extra` pieces get one more byte
    let mut cuts = Vec::with_capacity(k);
    let mut at = 0;
    for i in 0..k {
        let sz = base + usize::from(i < extra);
        cuts.push((at, at + sz));
        at += sz;
    }
    cuts
}

impl SplitPlan {
    /// Compile a signature set under a configuration. Validates A3.
    pub fn compile(sigs: &SignatureSet, config: &SplitDetectConfig) -> Result<Self, ConfigError> {
        config.validate(sigs)?;
        Ok(Self::compile_unchecked_full(
            sigs,
            config.pieces_per_signature,
            config.fastpath_matcher,
            config.tiered_hot_states,
        ))
    }

    /// [`SplitPlan::compile_unchecked_with`] using the default matcher.
    pub fn compile_unchecked(sigs: &SignatureSet, k: usize) -> Self {
        Self::compile_unchecked_with(sigs, k, MatcherKind::default())
    }

    /// Compile without admissibility checks (ablation experiments). A
    /// signature shorter than `k` bytes is split into fewer pieces.
    pub fn compile_unchecked_with(sigs: &SignatureSet, k: usize, matcher: MatcherKind) -> Self {
        Self::compile_unchecked_full(sigs, k, matcher, None)
    }

    /// [`SplitPlan::compile_unchecked_with`] plus the tiered hot-state
    /// override (`None` lets the budget heuristic size the hot tier;
    /// ignored by every other matcher).
    pub fn compile_unchecked_full(
        sigs: &SignatureSet,
        k: usize,
        matcher: MatcherKind,
        tiered_hot: Option<usize>,
    ) -> Self {
        let mut strings: Vec<Vec<u8>> = Vec::new();
        let mut origins: Vec<Vec<PieceOrigin>> = Vec::new();
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut max_piece = 0usize;
        let mut min_piece = usize::MAX;

        for (sig_id, sig) in sigs.iter() {
            let k_here = k.min(sig.bytes.len()).max(1);
            for (i, (s, e)) in balanced_cuts(sig.bytes.len(), k_here)
                .into_iter()
                .enumerate()
            {
                let piece = sig.bytes[s..e].to_vec();
                max_piece = max_piece.max(piece.len());
                min_piece = min_piece.min(piece.len());
                let origin = PieceOrigin {
                    signature: sig_id,
                    index: i,
                    offset: s,
                };
                match index.get(&piece) {
                    Some(&slot) => origins[slot].push(origin),
                    None => {
                        index.insert(piece.clone(), strings.len());
                        strings.push(piece);
                        origins.push(vec![origin]);
                    }
                }
            }
        }

        let set = PatternSet::from_patterns(strings.iter().map(|p| p.as_slice()));
        let started = Instant::now();
        let automaton = PieceAutomaton::compile(set, matcher, tiered_hot);
        SplitPlan {
            automaton,
            origins,
            max_piece_len: max_piece,
            min_piece_len: min_piece.min(max_piece),
            pieces_per_signature: k,
            build_time: started.elapsed(),
        }
    }

    /// Which engine the piece automaton was compiled to.
    pub fn matcher_kind(&self) -> MatcherKind {
        self.automaton.kind()
    }

    /// The dense DFA, when this plan was compiled with
    /// [`MatcherKind::Dense`] (the stepwise-walk experiments need raw
    /// transition access, which only the dense engine exposes).
    pub fn dense_dfa(&self) -> Option<&AcDfa> {
        match &self.automaton {
            PieceAutomaton::Dense(d) => Some(d),
            _ => None,
        }
    }

    /// Byte equivalence classes of the compressed engines (`None` for
    /// dense, whose row width is always 256).
    pub fn class_count(&self) -> Option<usize> {
        match &self.automaton {
            PieceAutomaton::Classed(d) => Some(d.class_count()),
            PieceAutomaton::Prefiltered(d) => Some(d.class_count()),
            PieceAutomaton::Tiered(d) => Some(d.class_count()),
            _ => None,
        }
    }

    /// Hot/cold tier layout (`None` unless compiled with
    /// [`MatcherKind::Tiered`]).
    pub fn tier_stats(&self) -> Option<TierStats> {
        match &self.automaton {
            PieceAutomaton::Tiered(d) => Some(TierStats {
                hot_states: d.hot_state_count(),
                cold_states: d.cold_state_count(),
                hot_bytes: d.hot_tier_bytes(),
                cold_bytes: d.cold_tier_bytes(),
                class_count: d.class_count(),
            }),
            _ => None,
        }
    }

    /// Bloom prefilter bit count (`None` unless compiled with
    /// [`MatcherKind::SparseBloom`]).
    pub fn bloom_bit_count(&self) -> Option<usize> {
        match &self.automaton {
            PieceAutomaton::SparseBloom(d) => Some(d.bloom().bit_count()),
            _ => None,
        }
    }

    /// Distinct bytes that leave the automaton's start state (the
    /// prefilter's escape set; `None` unless prefiltered).
    pub fn escape_byte_count(&self) -> Option<usize> {
        match &self.automaton {
            PieceAutomaton::Prefiltered(d) => Some(d.escape_count()),
            PieceAutomaton::Tiered(d) => Some(d.escape_count()),
            _ => None,
        }
    }

    /// The scan front end the escape set selected (`"skip"`, `"lanes"` or
    /// `"walk"`; `None` for engines without a start-state front end). See
    /// [`sd_match::FrontEnd`].
    pub fn scan_front_end(&self) -> Option<&'static str> {
        match &self.automaton {
            PieceAutomaton::Prefiltered(d) => Some(d.front_end().name()),
            PieceAutomaton::Tiered(d) => Some(d.front_end().name()),
            _ => None,
        }
    }

    /// Provenance of a matched piece pattern.
    pub fn origins(&self, id: PatternId) -> &[PieceOrigin] {
        &self.origins[id as usize]
    }

    /// Number of distinct piece strings.
    pub fn piece_count(&self) -> usize {
        self.origins.len()
    }

    /// Longest piece length.
    pub fn max_piece_len(&self) -> usize {
        self.max_piece_len
    }

    /// Shortest piece length.
    pub fn min_piece_len(&self) -> usize {
        self.min_piece_len
    }

    /// Pieces per signature (k).
    pub fn pieces_per_signature(&self) -> usize {
        self.pieces_per_signature
    }

    /// Automaton memory (shared across all flows — this is control-plane
    /// memory, reported separately from per-flow state).
    pub fn memory_bytes(&self) -> usize {
        self.automaton.memory_bytes()
    }

    /// Automaton states (trie nodes incl. the root).
    pub fn state_count(&self) -> usize {
        self.automaton.state_count()
    }

    /// Wall time the automaton compilation took.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Does any piece occur in `payload`? The fast path's per-packet scan.
    /// Early-exits at the first match state without materializing a
    /// `Match` — the caller only ever wants the piece id.
    #[inline]
    pub fn scan(&self, payload: &[u8]) -> Option<PatternId> {
        self.automaton.find_first_id(payload)
    }

    /// Every piece occurrence in `payload`, including overlaps — the
    /// profiling scan `sd analyze-rules` uses for per-rule hit attribution.
    /// Not the hot path: allocates one `Match` per occurrence.
    pub fn scan_all(&self, payload: &[u8]) -> Vec<Match> {
        self.automaton.find_all(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_ips::Signature;

    fn set(strings: &[&[u8]]) -> SignatureSet {
        SignatureSet::from_signatures(
            strings
                .iter()
                .enumerate()
                .map(|(i, s)| Signature::new(format!("s{i}"), *s)),
        )
    }

    #[test]
    fn balanced_cuts_cover_exactly() {
        for len in 12..200 {
            for k in 1..=5 {
                if len < k {
                    continue;
                }
                let cuts = balanced_cuts(len, k);
                assert_eq!(cuts.len(), k);
                assert_eq!(cuts[0].0, 0);
                assert_eq!(cuts.last().unwrap().1, len);
                for w in cuts.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                let sizes: Vec<usize> = cuts.iter().map(|(s, e)| e - s).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn pieces_reassemble_to_signature() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX"]);
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        assert_eq!(plan.piece_count(), 3);
        assert_eq!(plan.max_piece_len(), 8);
        // Each piece scans positive against the full signature.
        let sig = b"ABCDEFGHIJKLMNOPQRSTUVWX";
        assert!(plan.scan(sig).is_some());
        assert!(plan.scan(&sig[0..8]).is_some(), "piece 0 alone");
        assert!(plan.scan(&sig[8..16]).is_some(), "piece 1 alone");
        assert!(plan.scan(&sig[16..24]).is_some(), "piece 2 alone");
        assert!(plan.scan(&sig[1..8]).is_none(), "7/8 of a piece is nothing");
    }

    #[test]
    fn provenance_points_back() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX", b"abcdefghijklmnopqrstuvwx"]);
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        let hit = plan.scan(b"...mnop...qrstuvwx").expect("piece 2 of sig 1");
        let origins = plan.origins(hit);
        assert_eq!(origins.len(), 1);
        assert_eq!(origins[0].signature, 1);
    }

    #[test]
    fn duplicate_pieces_merge_provenance() {
        // Two signatures sharing their middle third.
        let sigs = set(&[b"AAAABBBBCCCCSHAREDXXYYZZ", b"DDDDEEEEFFFFSHAREDXXYYZZ"]);
        // k=3 → pieces of 8: [0..8, 8..16, 16..24]. Piece 2 = "EDXXYYZZ"
        // for sig 0 and "EDXXYYZZ" for sig 1 — identical string.
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        assert!(plan.piece_count() < 6, "shared piece must dedup");
        let hit = plan.scan(b"EDXXYYZZ").unwrap();
        assert_eq!(plan.origins(hit).len(), 2, "both signatures claim it");
    }

    #[test]
    fn rejects_inadmissible_config() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX"]);
        let bad = SplitDetectConfig {
            pieces_per_signature: 2,
            small_segment_budget: 0,
            ..Default::default()
        };
        assert!(SplitPlan::compile(&sigs, &bad).is_err());
    }

    #[test]
    fn every_matcher_kind_scans_identically() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX", b"abcdefghijklmnopqrstuvwx"]);
        let plans: Vec<SplitPlan> = MatcherKind::ALL
            .iter()
            .map(|&m| SplitPlan::compile_unchecked_with(&sigs, 3, m))
            .collect();
        let probes: [&[u8]; 6] = [
            b"ABCDEFGH",
            b"..ABCDEFGH..",
            b"BCDEFGH",
            b"",
            b"nothing to see here",
            b"qrstuvwx",
        ];
        for probe in probes {
            let hits: Vec<Option<_>> = plans.iter().map(|p| p.scan(probe)).collect();
            assert!(
                hits.windows(2).all(|w| w[0] == w[1]),
                "probe {probe:?}: {hits:?}"
            );
        }
        for (plan, kind) in plans.iter().zip(MatcherKind::ALL) {
            assert_eq!(plan.matcher_kind(), kind);
        }
    }

    #[test]
    fn compressed_engines_report_smaller_tables() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX", b"abcdefghijklmnopqrstuvwx"]);
        let dense = SplitPlan::compile_unchecked_with(&sigs, 3, MatcherKind::Dense);
        let classed = SplitPlan::compile_unchecked_with(&sigs, 3, MatcherKind::Classed);
        let pre = SplitPlan::compile_unchecked_with(&sigs, 3, MatcherKind::ClassedPrefilter);
        assert!(classed.memory_bytes() < dense.memory_bytes() / 4);
        assert!(pre.memory_bytes() < dense.memory_bytes() / 4);
        assert!(dense.dense_dfa().is_some());
        assert_eq!(dense.class_count(), None);
        assert!(classed.dense_dfa().is_none());
        assert!(classed.class_count().unwrap() <= 49, "48 letters + rest");
        assert_eq!(classed.escape_byte_count(), None);
        // Piece first bytes: A, I, Q, a, i, q → 6 escape bytes, too many
        // for the skip's rare path, so the scan walks in lanes.
        assert_eq!(pre.escape_byte_count(), Some(6));
        assert_eq!(pre.scan_front_end(), Some("lanes"));
        assert_eq!(classed.scan_front_end(), None);

        let sparse = SplitPlan::compile_unchecked_with(&sigs, 3, MatcherKind::Sparse);
        let bloom = SplitPlan::compile_unchecked_with(&sigs, 3, MatcherKind::SparseBloom);
        assert!(sparse.memory_bytes() < dense.memory_bytes() / 4);
        assert!(bloom.memory_bytes() < dense.memory_bytes() / 4);
        assert_eq!(sparse.class_count(), None);
        assert_eq!(bloom.class_count(), None);
        assert_eq!(sparse.escape_byte_count(), None);
        assert_eq!(sparse.state_count(), dense.state_count());

        let tiered = SplitPlan::compile_unchecked_with(&sigs, 3, MatcherKind::Tiered);
        assert!(tiered.memory_bytes() < dense.memory_bytes() / 4);
        assert_eq!(tiered.state_count(), dense.state_count());
        assert_eq!(tiered.escape_byte_count(), Some(6));
        assert_eq!(tiered.scan_front_end(), Some("lanes"));
        let tiers = tiered.tier_stats().expect("tiered plan reports tiers");
        assert_eq!(
            tiers.hot_states + tiers.cold_states,
            tiered.state_count(),
            "tiers partition the state set"
        );
        assert_eq!(Some(tiers.class_count), tiered.class_count());
        assert!(tiers.hot_bytes + tiers.cold_bytes <= tiered.memory_bytes());
        assert_eq!(dense.tier_stats(), None);
        assert_eq!(sparse.tier_stats(), None);
    }

    #[test]
    fn front_end_follows_the_escape_set() {
        // One signature: 3 pieces, 3 escape bytes — the skip's rare path.
        let one = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX"]);
        // The embedded demo rules: 13 pieces starting with common text
        // bytes (space, lower-case letters), so the skip would stop every
        // few bytes of benign text.
        let demo = sd_ips::rules::parse_rules(sd_ips::rules::DEMO_RULES)
            .unwrap()
            .to_signatures();
        // 86 signatures whose pieces start with every byte value, as a
        // large generated corpus's do.
        let every: Vec<Vec<u8>> = (0..86u32)
            .map(|i| {
                let mut sig = Vec::new();
                for j in 0..3 {
                    sig.push((3 * i + j) as u8);
                    sig.extend_from_slice(b"~~~");
                }
                sig
            })
            .collect();
        let every = set(&every.iter().map(Vec::as_slice).collect::<Vec<_>>());
        for kind in [MatcherKind::ClassedPrefilter, MatcherKind::Tiered] {
            let plan = SplitPlan::compile_unchecked_with(&one, 3, kind);
            assert_eq!(plan.escape_byte_count(), Some(3));
            assert_eq!(plan.scan_front_end(), Some("skip"), "{kind}");
            let plan = SplitPlan::compile_unchecked_with(&demo, 3, kind);
            assert_eq!(plan.escape_byte_count(), Some(13));
            assert_eq!(plan.scan_front_end(), Some("lanes"), "{kind}");
            let plan = SplitPlan::compile_unchecked_with(&every, 3, kind);
            assert_eq!(plan.escape_byte_count(), Some(256));
            assert_eq!(plan.scan_front_end(), Some("walk"), "{kind}");
            assert!(plan.scan(b"..\x07~~~..").is_some(), "{kind}");
        }
    }

    #[test]
    fn tiered_hot_override_threads_through_config() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX", b"abcdefghijklmnopqrstuvwx"]);
        let cfg = SplitDetectConfig {
            fastpath_matcher: MatcherKind::Tiered,
            tiered_hot_states: Some(2),
            ..Default::default()
        };
        let plan = SplitPlan::compile(&sigs, &cfg).unwrap();
        let tiers = plan.tier_stats().unwrap();
        assert_eq!(tiers.hot_states, 2, "override pins the hot tier size");
        assert!(tiers.cold_states > 0);
        assert!(plan.scan(b"..ABCDEFGH..").is_some());
        assert!(plan.scan(b"nothing here").is_none());
    }

    #[test]
    fn piece_lengths_tracked() {
        let sigs = set(&[&[b'x'; 25][..]]); // 25 / 3 → pieces 9, 8, 8
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        assert_eq!(plan.max_piece_len(), 9);
        assert_eq!(plan.min_piece_len(), 8);
        assert_eq!(plan.pieces_per_signature(), 3);
        assert!(plan.memory_bytes() > 0);
    }
}
