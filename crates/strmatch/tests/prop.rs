//! Cross-engine property tests: every engine must agree with the naive
//! reference on arbitrary patterns and haystacks, and the streaming matcher
//! must be chunking-invariant.

use proptest::prelude::*;
use sd_match::bmh::Horspool;
use sd_match::prefilter::LANE_MIN_LEN;
use sd_match::shiftor::{ShiftOr, ShiftOrBank};
use sd_match::stream::{StreamMatch, StreamMatcher};
use sd_match::{
    naive, AcDfa, AhoCorasick, BloomSparseNfa, ClassedDfa, FrontEnd, PatternSet, PrefilteredDfa,
    SparseNfa, TieredNfa,
};

/// Small alphabet so matches actually happen.
fn small_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..=max_len)
}

fn pattern_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(small_bytes(6), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nfa_agrees_with_naive(pats in pattern_set(), hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 4 + b'a'), 0..200)) {
        let set = PatternSet::from_patterns(&pats);
        let nfa = AhoCorasick::new(set.clone());
        let mut got = nfa.find_all(&hay);
        let mut want = naive::find_all(&set, &hay);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dfa_agrees_with_naive(pats in pattern_set(), hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 4 + b'a'), 0..200)) {
        let set = PatternSet::from_patterns(&pats);
        let dfa = AcDfa::new(set.clone());
        let mut got = dfa.find_all(&hay);
        let mut want = naive::find_all(&set, &hay);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
        prop_assert_eq!(dfa.is_match(&hay), !dfa.find_all(&hay).is_empty());
    }

    #[test]
    fn horspool_agrees_with_naive(pat in small_bytes(8), hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 3 + b'a'), 0..200)) {
        let h = Horspool::new(&pat);
        let set = PatternSet::from_patterns([&pat]);
        let want: Vec<usize> = naive::find_all(&set, &hay)
            .iter()
            .map(|m| m.start(&set))
            .collect();
        prop_assert_eq!(h.find_all(&hay), want);
    }

    #[test]
    fn shiftor_agrees_with_naive(pat in small_bytes(8), hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 3 + b'a'), 0..200)) {
        let so = ShiftOr::new(&pat);
        let set = PatternSet::from_patterns([&pat]);
        let want: Vec<usize> = naive::find_all(&set, &hay).iter().map(|m| m.end).collect();
        prop_assert_eq!(so.find_ends(&hay), want);
    }

    #[test]
    fn shiftor_bank_agrees_with_naive(
        pats in proptest::collection::vec(small_bytes(5), 1..6),
        hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 3 + b'a'), 0..200),
    ) {
        prop_assume!(pats.iter().map(Vec::len).sum::<usize>() <= 64);
        let bank = ShiftOrBank::new(&pats);
        let set = PatternSet::from_patterns(&pats);
        let mut want: Vec<(usize, usize)> = naive::find_all(&set, &hay)
            .iter()
            .map(|m| (m.end, m.pattern as usize))
            .collect();
        want.sort();
        let mut got = bank.find_all(&hay);
        got.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn streaming_is_chunking_invariant(
        pats in pattern_set(),
        hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 4 + b'a'), 0..200),
        cuts in proptest::collection::vec(0usize..200, 0..8),
    ) {
        let dfa = AcDfa::new(PatternSet::from_patterns(&pats));
        let mut batch = Vec::new();
        StreamMatcher::new().feed(&dfa, &hay, &mut batch);

        let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (hay.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(hay.len());
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut m = StreamMatcher::new();
        let mut out: Vec<StreamMatch> = Vec::new();
        for w in boundaries.windows(2) {
            m.feed(&dfa, &hay[w[0]..w[1]], &mut out);
        }
        prop_assert_eq!(out, batch);
        prop_assert_eq!(m.offset(), hay.len() as u64);
    }
}

proptest! {
    /// The stride-2 DFA reports exactly the byte DFA's matches on random
    /// patterns and haystacks (the exhaustive small-alphabet check lives in
    /// the unit tests; this covers the full byte alphabet).
    #[test]
    fn stride2_agrees_with_byte_dfa(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..6),
        hay in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        use sd_match::stride2::Stride2Dfa;
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let dfa = AcDfa::new(set);
        let s2 = Stride2Dfa::new(dfa.clone()).expect("small automaton");
        let mut a = dfa.find_all(&hay);
        let mut b = s2.find_all(&hay);
        a.sort_by_key(|m| (m.end, m.pattern));
        b.sort_by_key(|m| (m.end, m.pattern));
        prop_assert_eq!(a, b);
        prop_assert_eq!(dfa.is_match(&hay), s2.is_match(&hay));
    }

    /// The byte-class compressed DFA is transition-for-transition the dense
    /// DFA: same matches, same match-state decisions, on the full byte
    /// alphabet.
    #[test]
    fn classed_agrees_with_naive_and_dense(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..8),
        hay in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let dense = AcDfa::new(set.clone());
        let classed = ClassedDfa::new(set.clone());
        let mut a = naive::find_all(&set, &hay);
        let mut b = classed.find_all(&hay);
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(classed.is_match(&hay), dense.is_match(&hay));
        prop_assert_eq!(classed.find_first(&hay), dense.find_first(&hay));
        prop_assert_eq!(classed.find_first_id(&hay), dense.find_first_id(&hay));
        prop_assert!(classed.class_count() <= 256);
    }

    /// The prefiltered scan reports exactly the dense DFA's matches —
    /// including overlapping ones found mid-walk — on the full byte
    /// alphabet, with haystacks of every length mod 8 (payloads ending
    /// mid-chunk come out of the random length).
    #[test]
    fn prefiltered_agrees_with_naive_and_dense(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..8),
        hay in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let dense = AcDfa::new(set.clone());
        let pre = PrefilteredDfa::new(set.clone());
        let mut a = naive::find_all(&set, &hay);
        let mut b = pre.find_all(&hay);
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(pre.is_match(&hay), dense.is_match(&hay));
        prop_assert_eq!(pre.find_first(&hay), dense.find_first(&hay));
        prop_assert_eq!(pre.find_first_id(&hay), dense.find_first_id(&hay));
    }

    /// Planted occurrences that straddle the 8-byte SWAR chunk boundary:
    /// the pattern is embedded at an arbitrary offset (sweeping all lanes)
    /// in a sparse haystack, so the prefilter must hand over to the DFA at
    /// exactly the right position whichever lane the first byte lands in.
    #[test]
    fn prefiltered_finds_planted_matches_across_chunk_boundaries(
        pattern in prop::collection::vec(any::<u8>(), 1..12),
        noise in prop::collection::vec(any::<u8>(), 0..40),
        at in 0usize..40,
        tail in 0usize..9,
    ) {
        let mut hay = noise.clone();
        let at = at.min(hay.len());
        hay.splice(at..at, pattern.iter().copied());
        hay.extend(std::iter::repeat_n(0u8, tail)); // end mid-chunk
        let set = PatternSet::from_patterns([pattern.as_slice()]);
        let dense = AcDfa::new(set.clone());
        let pre = PrefilteredDfa::new(set);
        prop_assert!(pre.is_match(&hay), "planted pattern must be found");
        let mut a = dense.find_all(&hay);
        let mut b = pre.find_all(&hay);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The two-lane walk returns the sequential walk's first match. Each
    /// random pattern set is planted at every start within ±L of the
    /// split point `h = len / 2` (L = longest pattern), so occurrences
    /// straddle the lanes' overlap — including one ending exactly at
    /// `h + L − 1`, the last byte lane 0 walks — alongside an optional
    /// second occurrence elsewhere, in haystacks whose lengths straddle
    /// the lane threshold. The tiered engine, whose sets here all have
    /// more escape bytes than the skip's rare path, must agree too, also
    /// with a hot tier so small that the lanes keep leaving it.
    #[test]
    fn lane_walk_agrees_with_dense_and_naive(
        tails in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..9), 4..8),
        len in (LANE_MIN_LEN - 8)..(3 * LANE_MIN_LEN),
        // (pattern, offset) of the second occurrence; pattern 8 plants none.
        second in (0usize..9, 0usize..1000),
    ) {
        // Distinct first bytes: at least four escape bytes.
        let patterns: Vec<Vec<u8>> = tails
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut p = vec![b'A' + i as u8];
                p.extend_from_slice(t);
                p
            })
            .collect();
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let dense = AcDfa::new(set.clone());
        let lanes = PrefilteredDfa::new(set.clone());
        prop_assert_eq!(lanes.front_end(), FrontEnd::Lanes);
        let tiered = TieredNfa::new(set.clone());
        prop_assert_eq!(tiered.front_end(), FrontEnd::Lanes);
        // Two hot states: the lanes hand over to the sequential walk at
        // almost every cold state.
        let cold = TieredNfa::with_hot_states(set.clone(), 2);
        // A filler byte no pattern contains.
        let filler = (0u8..=255)
            .find(|b| patterns.iter().all(|p| !p.contains(b)))
            .expect("at most 8 patterns of 9 bytes");
        let l = set.max_len().unwrap();
        let h = len / 2;
        for p in &patterns {
            for at in h.saturating_sub(l)..=h + l {
                if at + p.len() > len {
                    continue;
                }
                let mut hay = vec![filler; len];
                if let Some(q) = patterns.get(second.0) {
                    let pos = second.1 % (len - q.len() + 1);
                    hay[pos..pos + q.len()].copy_from_slice(q);
                }
                hay[at..at + p.len()].copy_from_slice(p);
                let want = dense.find_first_id(&hay);
                prop_assert!(want.is_some());
                prop_assert_eq!(lanes.find_first_id(&hay), want);
                prop_assert_eq!(tiered.find_first_id(&hay), want);
                prop_assert_eq!(cold.find_first_id(&hay), want);
                let first_end = naive::find_all(&set, &hay).iter().map(|m| m.end).min();
                prop_assert_eq!(first_end, dense.find_first(&hay).map(|m| m.end));
            }
        }
    }

    /// The CSR sparse automaton is decision-for-decision the dense DFA:
    /// same matches, same first-match identity, on the full byte alphabet.
    #[test]
    fn sparse_agrees_with_naive_and_dense(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..8),
        hay in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let dense = AcDfa::new(set.clone());
        let sparse = SparseNfa::new(set.clone());
        let mut a = naive::find_all(&set, &hay);
        let mut b = sparse.find_all(&hay);
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(sparse.is_match(&hay), dense.is_match(&hay));
        prop_assert_eq!(sparse.find_first(&hay), dense.find_first(&hay));
        prop_assert_eq!(sparse.find_first_id(&hay), dense.find_first_id(&hay));
    }

    /// The Bloom-prefiltered sparse scan reports exactly the dense DFA's
    /// matches — the window prefilter may only add candidate entries, never
    /// skip a real one — on the full byte alphabet.
    #[test]
    fn bloom_sparse_agrees_with_naive_and_dense(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..8),
        hay in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let dense = AcDfa::new(set.clone());
        let bloomed = BloomSparseNfa::new(set.clone());
        let mut a = naive::find_all(&set, &hay);
        let mut b = bloomed.find_all(&hay);
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(bloomed.is_match(&hay), dense.is_match(&hay));
        prop_assert_eq!(bloomed.find_first(&hay), dense.find_first(&hay));
        prop_assert_eq!(bloomed.find_first_id(&hay), dense.find_first_id(&hay));
    }

    /// Planted occurrences at arbitrary offsets (sweeping every window
    /// alignment) in noise: the Bloom window scan must hand over to the
    /// automaton at exactly the right position, including when the planted
    /// pattern straddles a resume point.
    #[test]
    fn bloom_sparse_finds_planted_matches_at_any_offset(
        pattern in prop::collection::vec(any::<u8>(), 1..12),
        noise in prop::collection::vec(any::<u8>(), 0..40),
        at in 0usize..40,
    ) {
        let mut hay = noise.clone();
        let at = at.min(hay.len());
        hay.splice(at..at, pattern.iter().copied());
        let set = PatternSet::from_patterns([pattern.as_slice()]);
        let dense = AcDfa::new(set.clone());
        let bloomed = BloomSparseNfa::new(set);
        prop_assert!(bloomed.is_match(&hay), "planted pattern must be found");
        let mut a = dense.find_all(&hay);
        let mut b = bloomed.find_all(&hay);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Wu–Manber reports exactly the reference matcher's matches for any
    /// pattern set with ≥2-byte patterns.
    #[test]
    fn wu_manber_agrees_with_naive(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 2..8), 1..8),
        hay in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        use sd_match::wumanber::WuManber;
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let wm = WuManber::new(set.clone());
        let mut a = naive::find_all(&set, &hay);
        let mut b = wm.find_all(&hay);
        a.sort_by_key(|m| (m.end, m.pattern));
        b.sort_by_key(|m| (m.end, m.pattern));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(wm.is_match(&hay), !a.is_empty());
    }
}

proptest! {
    // Each case compiles four automata over 256+ patterns: fewer cases,
    // several haystacks each.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// When every byte value starts a pattern, both prefiltered engines
    /// walk sequentially and still report the dense DFA's first match.
    #[test]
    fn walk_front_end_agrees_with_dense(
        pats in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 2..6), 0..8),
        hays in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3 * LANE_MIN_LEN),
            8,
        ),
    ) {
        let mut patterns: Vec<Vec<u8>> = (0u8..=255).map(|b| vec![b, b]).collect();
        patterns.extend(pats);
        let set = PatternSet::from_patterns(&patterns);
        let dense = AcDfa::new(set.clone());
        let pre = PrefilteredDfa::new(set.clone());
        let tiered = TieredNfa::new(set.clone());
        let cold = TieredNfa::with_hot_states(set, 2);
        prop_assert_eq!(pre.front_end(), FrontEnd::Walk);
        prop_assert_eq!(tiered.front_end(), FrontEnd::Walk);
        for hay in &hays {
            let want = dense.find_first_id(hay);
            prop_assert_eq!(pre.find_first_id(hay), want);
            prop_assert_eq!(tiered.find_first_id(hay), want);
            prop_assert_eq!(cold.find_first_id(hay), want);
        }
    }
}
