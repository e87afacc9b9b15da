//! Start-state skip prefilter + the prefiltered scanning engine.
//!
//! Almost all traffic is benign and a benign payload mostly keeps an
//! Aho–Corasick DFA parked in its start state — yet the dense scan still
//! pays a serial, load-latency-bound table lookup for every byte. The only
//! bytes that matter while parked are the ones with a transition *out* of
//! the start state (the first bytes of pattern prefixes). [`StartSkip`]
//! precomputes that escape set and scans eight bytes per step in safe Rust:
//!
//! * **general path** — one `u64` load per chunk, then a branch-free
//!   256-bit-bitmap membership test per lane, OR-ed into a single per-chunk
//!   branch. The eight tests are independent (full ILP), unlike the DFA's
//!   chain of dependent loads.
//! * **rare path** (≤ 3 escape bytes) — the classic SWAR zero-byte trick
//!   (`memchr` without `memchr`): XOR with a splatted byte value turns
//!   occurrences into zero lanes, and `(x - 0x01…) & !x & 0x80…` flags
//!   them; three ALU ops per value per chunk, no per-lane work at all.
//!
//! [`PrefilteredDfa`] couples the skipper with a [`ClassedDfa`]: it skips
//! while the automaton would sit in the start state, enters the DFA at the
//! first candidate byte, and drops back to skipping whenever the walk
//! returns to start. Skipped bytes provably keep the DFA at start (that is
//! the definition of the escape set) and the start state never reports a
//! match (empty patterns are rejected at [`PatternSet`] construction), so
//! the match set is byte-identical to the dense scan on every input — the
//! cross-check property tests in `tests/prop.rs` pin this. Worst-case cost
//! is unchanged: adversarial bytes degrade to the plain one-lookup-per-byte
//! DFA walk plus a bounded prefilter tax.
//!
//! The skip only pays while candidates are rare. A corpus whose pieces
//! start with common text bytes (space, lower-case letters — the embedded
//! demo rules have 13 such escape bytes) finds a candidate every few bytes
//! of benign text, and the skip loop becomes pure overhead on top of the
//! walk. Such corpora get a different [`FrontEnd`], chosen once at compile
//! time from the escape set: [`FrontEnd::Lanes`] walks the DFA in two
//! interleaved lanes over the two halves of the payload. Each lane is one
//! chain of dependent loads, and two independent chains let the CPU
//! overlap their latencies; `two_lane_first_match` below shows why the
//! split loses no match and returns the sequential walk's answer. A
//! corpus whose pieces start with every byte value is large enough that
//! benign text hits a piece within a few hundred bytes; the second lane's
//! steps are then wasted, and [`FrontEnd::Walk`] walks sequentially.

use crate::classed::ClassedDfa;
use crate::pattern::{Match, PatternId, PatternSet};

/// Escape sets at most this large use the splatted-byte SWAR path — and
/// the [`FrontEnd::Skip`] front end; larger sets walk in lanes.
const RARE_MAX: usize = 3;

/// Payloads shorter than this keep the sequential walk under
/// [`FrontEnd::Lanes`]: their halves are too short for the overlap to
/// repay the second lane's setup.
pub const LANE_MIN_LEN: usize = 128;

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// The set of bytes with a transition out of the DFA start state, with an
/// 8-bytes-per-step candidate search.
#[derive(Debug, Clone)]
pub struct StartSkip {
    /// 256-bit membership bitmap, bit `b` of word `b / 64`.
    bitmap: [u64; 4],
    /// The escape bytes themselves when few enough for the splatted-byte
    /// path; empty means "use the bitmap path".
    rare: Vec<u8>,
    escape_count: usize,
}

impl StartSkip {
    /// Build from the bytes that leave `dfa`'s start state.
    pub fn for_dfa(dfa: &ClassedDfa) -> Self {
        Self::from_escape_bytes(
            (0u8..=255).filter(|&b| dfa.next_state(ClassedDfa::START, b) != ClassedDfa::START),
        )
    }

    /// Build from an explicit escape-byte set.
    pub fn from_escape_bytes(bytes: impl IntoIterator<Item = u8>) -> Self {
        let mut bitmap = [0u64; 4];
        let mut escapes: Vec<u8> = Vec::new();
        for b in bytes {
            if bitmap[(b >> 6) as usize] & (1 << (b & 63)) == 0 {
                bitmap[(b >> 6) as usize] |= 1 << (b & 63);
                escapes.push(b);
            }
        }
        let escape_count = escapes.len();
        let rare = if escape_count <= RARE_MAX {
            escapes
        } else {
            Vec::new()
        };
        StartSkip {
            bitmap,
            rare,
            escape_count,
        }
    }

    /// Number of distinct escape bytes.
    pub fn escape_count(&self) -> usize {
        self.escape_count
    }

    /// Whether the splatted-byte rare path is active.
    pub fn is_rare(&self) -> bool {
        !self.rare.is_empty() || self.escape_count == 0
    }

    /// Membership test for a single byte.
    #[inline(always)]
    pub fn contains(&self, b: u8) -> bool {
        (self.bitmap[(b >> 6) as usize] >> (b & 63)) & 1 != 0
    }

    /// Index of the first escape byte at or after `from`, scanning eight
    /// bytes per step.
    #[inline]
    pub fn find_candidate(&self, hay: &[u8], from: usize) -> Option<usize> {
        let mut i = from.min(hay.len());
        if self.rare.is_empty() {
            while i + 8 <= hay.len() {
                let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk"));
                let mut hits = 0u32;
                for lane in 0..8 {
                    let b = ((w >> (lane * 8)) & 0xff) as usize;
                    let bit = (self.bitmap[b >> 6] >> (b & 63)) & 1;
                    hits |= (bit as u32) << lane;
                }
                if hits != 0 {
                    return Some(i + hits.trailing_zeros() as usize);
                }
                i += 8;
            }
        } else {
            while i + 8 <= hay.len() {
                let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk"));
                let mut flagged = 0u64;
                for &v in &self.rare {
                    let x = w ^ (SWAR_LO * u64::from(v));
                    flagged |= x.wrapping_sub(SWAR_LO) & !x & SWAR_HI;
                }
                if flagged != 0 {
                    // The lowest flagged lane is the exact first hit, but a
                    // per-byte confirm keeps correctness independent of the
                    // bit trick: scan the chunk from that lane and fall
                    // through (soundly) if nothing confirms.
                    let lane = (flagged.trailing_zeros() / 8) as usize;
                    for (off, &b) in hay[i + lane..i + 8].iter().enumerate() {
                        if self.contains(b) {
                            return Some(i + lane + off);
                        }
                    }
                }
                i += 8;
            }
        }
        hay[i..]
            .iter()
            .position(|&b| self.contains(b))
            .map(|off| i + off)
    }

    /// Footprint in bytes (the bitmap plus the rare list).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<[u64; 4]>() + self.rare.len()
    }
}

/// How an engine walks a payload from its start state. Chosen once per
/// compiled automaton by [`FrontEnd::for_skip`], so every engine with a
/// root escape set applies the same rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// Skip benign bytes with the [`StartSkip`] while the automaton would
    /// sit at start; walk only from candidates.
    Skip,
    /// Walk every byte, in two interleaved lanes over the two halves of
    /// the payload (see the module docs).
    Lanes,
    /// Walk every byte sequentially.
    Walk,
}

impl FrontEnd {
    /// The front end for an escape set: the skip when the escapes fit the
    /// splatted-byte rare path (candidates are then rare in text, and the
    /// skip dismisses eight bytes per step); the sequential walk when
    /// every byte value escapes (the corpus is large enough that benign
    /// text hits a piece early, so a second lane only adds steps); lanes
    /// otherwise.
    ///
    /// The rule counts escape bytes rather than estimating how often they
    /// occur in traffic. Above the rare path the skip's bitmap scan costs
    /// about as much per byte as the lanes even when no candidate turns
    /// up, so picking the lanes for a set of bytes rare in text gives up
    /// little, while picking the skip for bytes common in text costs
    /// several times over.
    pub fn for_skip(skip: &StartSkip) -> Self {
        if skip.is_rare() {
            FrontEnd::Skip
        } else if skip.escape_count() == 256 {
            FrontEnd::Walk
        } else {
            FrontEnd::Lanes
        }
    }

    /// Stable name (`skip` / `lanes` / `walk`) for reports.
    pub fn name(self) -> &'static str {
        match self {
            FrontEnd::Skip => "skip",
            FrontEnd::Lanes => "lanes",
            FrontEnd::Walk => "walk",
        }
    }
}

/// The first match state the sequential walk of `hay` from `start`
/// reaches, or `None` — computed with two interleaved walks.
///
/// With `h = len / 2` and `L = max_len` (the longest pattern), lane 0
/// walks `hay[..h + L − 1]` and lane 1 walks `hay[h..]`, both from
/// `start`, one byte each per step. Any occurrence either ends inside
/// lane 0's span, or ends past `h + L − 1` and therefore starts at or
/// after `h`, where lane 1 walks from `start` and sees it. Lane 0 *is*
/// the sequential walk over its span, so a lane-0 hit is the answer.
///
/// The lanes walk on only while both states pass `in_lanes`, which must
/// reject every match state; an engine may reject more (the tiered engine
/// rejects its cold tier, whose branchy steps do not overlap). When a
/// lane leaves, lane 0 carries on alone as the sequential walk — exact
/// from any position — so a lane-1 hit, or a detour through rejected
/// states, costs at most the lane steps already taken. Payloads below
/// [`LANE_MIN_LEN`], or too short for the overlap to be a small share,
/// walk sequentially.
#[inline(always)]
pub(crate) fn two_lane_first_match(
    hay: &[u8],
    max_len: usize,
    start: u32,
    step: impl Fn(u32, u8) -> u32,
    is_match: impl Fn(u32) -> bool,
    in_lanes: impl Fn(u32) -> bool,
) -> Option<u32> {
    let h = hay.len() / 2;
    if hay.len() < LANE_MIN_LEN || max_len >= h {
        return walk_from(hay, start, &step, &is_match);
    }
    let lane0 = &hay[..h + max_len - 1];
    let lane1 = &hay[h..];
    let (mut s0, mut s1) = (start, start);
    let mut steps = 0;
    let mut left = false;
    for (&x, &y) in lane0.iter().zip(lane1) {
        s0 = step(s0, x);
        s1 = step(s1, y);
        steps += 1;
        if !(in_lanes(s0) & in_lanes(s1)) {
            if is_match(s0) {
                return Some(s0);
            }
            left = true;
            break;
        }
    }
    if !left {
        if lane0.len() > steps {
            // Lane 1 is done and clean: lane 0's span is all that is left.
            return walk_from(&lane0[steps..], s0, &step, &is_match);
        }
        walk_from(&lane1[steps..], s1, &step, &is_match)?;
    }
    walk_from(&hay[steps..], s0, &step, &is_match)
}

/// The sequential walk from `state`: the first match state reached.
#[inline(always)]
pub(crate) fn walk_from(
    hay: &[u8],
    mut state: u32,
    step: impl Fn(u32, u8) -> u32,
    is_match: impl Fn(u32) -> bool,
) -> Option<u32> {
    for &b in hay {
        state = step(state, b);
        if is_match(state) {
            return Some(state);
        }
    }
    None
}

/// A [`ClassedDfa`] fronted by a [`StartSkip`] prefilter, or — when the
/// escape set is too dense for the skip to pay — walked in two lanes or
/// sequentially.
#[derive(Debug, Clone)]
pub struct PrefilteredDfa {
    dfa: ClassedDfa,
    skip: StartSkip,
    front: FrontEnd,
    /// Longest pattern (the lanes' overlap).
    max_len: usize,
}

impl PrefilteredDfa {
    /// Compile from patterns.
    pub fn new(set: PatternSet) -> Self {
        Self::from_classed(ClassedDfa::new(set))
    }

    /// Wrap an already-compiled classed DFA; the escape set picks the
    /// front end.
    pub fn from_classed(dfa: ClassedDfa) -> Self {
        let skip = StartSkip::for_dfa(&dfa);
        let front = FrontEnd::for_skip(&skip);
        let max_len = dfa.patterns().max_len().unwrap_or(1);
        PrefilteredDfa {
            dfa,
            skip,
            front,
            max_len,
        }
    }

    /// The front end [`PrefilteredDfa::find_first_id`] runs.
    pub fn front_end(&self) -> FrontEnd {
        self.front
    }

    /// The wrapped automaton.
    pub fn dfa(&self) -> &ClassedDfa {
        &self.dfa
    }

    /// The start-state escape set.
    pub fn skip(&self) -> &StartSkip {
        &self.skip
    }

    /// The pattern set this engine recognizes.
    pub fn patterns(&self) -> &PatternSet {
        self.dfa.patterns()
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.dfa.state_count()
    }

    /// Number of byte equivalence classes.
    pub fn class_count(&self) -> usize {
        self.dfa.class_count()
    }

    /// Number of bytes that leave the start state.
    pub fn escape_count(&self) -> usize {
        self.skip.escape_count()
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.dfa.memory_bytes() + self.skip.memory_bytes()
    }

    /// Pattern id of the first match, early-exiting — the fast path's
    /// per-packet scan, through the compiled [`FrontEnd`].
    #[inline]
    pub fn find_first_id(&self, hay: &[u8]) -> Option<PatternId> {
        match self.front {
            FrontEnd::Skip => {}
            FrontEnd::Lanes => {
                let row = two_lane_first_match(
                    hay,
                    self.max_len,
                    ClassedDfa::START_ROW,
                    |r, b| self.dfa.step_row(r, b),
                    ClassedDfa::is_match_row,
                    |r| !ClassedDfa::is_match_row(r),
                )?;
                return Some(self.dfa.row_outputs(row)[0]);
            }
            FrontEnd::Walk => return self.dfa.find_first_id(hay),
        }
        let mut i = 0;
        while let Some(c) = self.skip.find_candidate(hay, i) {
            let mut row = ClassedDfa::START_ROW;
            let mut j = c;
            while j < hay.len() {
                row = self.dfa.step_row(row, hay[j]);
                j += 1;
                if ClassedDfa::is_match_row(row) {
                    return Some(self.dfa.row_outputs(row)[0]);
                }
                if row == ClassedDfa::START_ROW {
                    break;
                }
            }
            if j >= hay.len() {
                return None;
            }
            i = j;
        }
        None
    }

    /// True if any pattern occurs in `hay`.
    #[inline]
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find_first_id(hay).is_some()
    }

    /// First match in `hay`.
    pub fn find_first(&self, hay: &[u8]) -> Option<Match> {
        let mut i = 0;
        while let Some(c) = self.skip.find_candidate(hay, i) {
            let mut row = ClassedDfa::START_ROW;
            let mut j = c;
            while j < hay.len() {
                row = self.dfa.step_row(row, hay[j]);
                j += 1;
                if ClassedDfa::is_match_row(row) {
                    return Some(Match::new(self.dfa.row_outputs(row)[0], j));
                }
                if row == ClassedDfa::START_ROW {
                    break;
                }
            }
            if j >= hay.len() {
                return None;
            }
            i = j;
        }
        None
    }

    /// Find all matches in `hay` with end offsets relative to `hay`.
    pub fn find_all(&self, hay: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(c) = self.skip.find_candidate(hay, i) {
            let mut row = ClassedDfa::START_ROW;
            let mut j = c;
            while j < hay.len() {
                row = self.dfa.step_row(row, hay[j]);
                j += 1;
                if ClassedDfa::is_match_row(row) {
                    for &p in self.dfa.row_outputs(row) {
                        out.push(Match::new(p, j));
                    }
                }
                if row == ClassedDfa::START_ROW {
                    break;
                }
            }
            if j >= hay.len() {
                break;
            }
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::AcDfa;
    use crate::naive;

    fn check(patterns: &[&[u8]], hay: &[u8]) {
        let set = PatternSet::from_patterns(patterns);
        let pre = PrefilteredDfa::new(set.clone());
        let mut got = pre.find_all(hay);
        let mut want = naive::find_all(&set, hay);
        got.sort();
        want.sort();
        assert_eq!(got, want, "patterns {patterns:?} hay {hay:?}");
        assert_eq!(pre.is_match(hay), !want.is_empty());
        let dense = AcDfa::new(set);
        assert_eq!(pre.find_first(hay), dense.find_first(hay));
    }

    #[test]
    fn skip_set_is_exactly_the_escape_bytes() {
        let pre = PrefilteredDfa::new(PatternSet::from_patterns([b"GET".as_slice(), b"_tail"]));
        // Escape bytes: 'G' and '_' (and nothing else — 'E', 'T' only
        // matter after a 'G').
        assert_eq!(pre.escape_count(), 2);
        assert!(pre.skip().contains(b'G'));
        assert!(pre.skip().contains(b'_'));
        assert!(!pre.skip().contains(b'E'));
        assert!(pre.skip().is_rare());
    }

    #[test]
    fn rare_and_general_paths_agree() {
        // 2 escape bytes → rare path; 5 → general path. Same candidates.
        let rare = StartSkip::from_escape_bytes([b'x', b'Q']);
        let general = StartSkip::from_escape_bytes([b'x', b'Q', 1, 2, 3]);
        assert!(rare.is_rare());
        assert!(!general.is_rare());
        let hay: Vec<u8> = (0..100u8)
            .map(|i| if i % 37 == 0 { b'Q' } else { b'.' })
            .collect();
        for from in 0..hay.len() + 2 {
            assert_eq!(
                rare.find_candidate(&hay, from),
                general.find_candidate(&hay, from),
                "from {from}"
            );
        }
    }

    #[test]
    fn candidates_at_every_offset() {
        // Sweep the candidate across all 8 chunk lanes, plus the tail.
        let skip = StartSkip::from_escape_bytes([0xEE]);
        for len in 0..24usize {
            for at in 0..len {
                let mut hay = vec![0x20u8; len];
                hay[at] = 0xEE;
                assert_eq!(skip.find_candidate(&hay, 0), Some(at), "len {len} at {at}");
                assert_eq!(skip.find_candidate(&hay, at + 1), None);
            }
        }
        assert_eq!(skip.find_candidate(&[], 0), None);
        assert_eq!(skip.find_candidate(&[0u8; 9], 99), None);
    }

    #[test]
    fn agrees_with_naive_on_classics() {
        check(&[b"he", b"she", b"his", b"hers"], b"ushers use hershey");
        check(&[b"aa", b"aaa", b"aaaa"], b"aaaaaa");
        check(
            &[b"GET", b"POST", b"HEAD"],
            b"GET / HTTP/1.1\r\nHost: POSTofficePOST",
        );
    }

    #[test]
    fn matches_straddling_chunk_boundaries() {
        // Pattern starts at offset 6 and crosses the first 8-byte chunk.
        let mut hay = vec![b'.'; 6];
        hay.extend_from_slice(b"needle");
        hay.extend_from_slice(&[b'.'; 3]);
        check(&[b"needle"], &hay);
        // Payload ends mid-chunk, match in the tail.
        check(&[b"ab"], b"0123456789ab");
        // Candidate in the last lane of a chunk.
        check(&[b"xy"], b"0123456xy");
    }

    #[test]
    fn resumes_skipping_after_failed_candidates() {
        // Lots of 'n's that enter the DFA and immediately fall back to
        // start; the real match is at the very end.
        let mut hay = vec![b'n'; 50];
        hay.extend_from_slice(b"needle");
        check(&[b"needle"], &hay);
    }

    #[test]
    fn overlapping_outputs_inside_one_dfa_entry() {
        // After entering at 'u', the walk reports she+he at the same
        // position without returning to start in between.
        check(&[b"she", b"he"], b"..ushers..");
    }

    #[test]
    fn all_256_byte_values() {
        let p: Vec<u8> = vec![0, 127, 255];
        let set = PatternSet::from_patterns([p.clone()]);
        let pre = PrefilteredDfa::new(set);
        let mut hay: Vec<u8> = (0u8..=255).collect();
        hay.extend_from_slice(&p);
        let ms = pre.find_all(&hay);
        assert!(ms.iter().any(|m| m.end == hay.len()));
    }

    #[test]
    fn front_end_follows_the_escape_set() {
        let three = PrefilteredDfa::new(PatternSet::from_patterns(["xab", "yab", "zab"]));
        assert_eq!(three.front_end(), FrontEnd::Skip);
        let four = PrefilteredDfa::new(PatternSet::from_patterns(["xab", "yab", "zab", "wab"]));
        assert_eq!(four.front_end(), FrontEnd::Lanes);
        // Every byte value starts a piece: the sequential walk.
        let every: Vec<[u8; 2]> = (0u8..=255).map(|b| [b, b'!']).collect();
        let every = PatternSet::from_patterns(&every);
        let pre = PrefilteredDfa::new(every.clone());
        let tiered = crate::tiered::TieredNfa::new(every);
        assert_eq!(pre.escape_count(), 256);
        assert_eq!(pre.front_end(), FrontEnd::Walk);
        assert_eq!(tiered.front_end(), FrontEnd::Walk);
        assert_eq!(pre.find_first_id(b"..x!"), Some(u32::from(b'x')));
        assert_eq!(tiered.find_first_id(b"..x!"), Some(u32::from(b'x')));
        assert_eq!(tiered.find_first_id(b"..x."), None);
        assert_eq!(FrontEnd::Skip.name(), "skip");
        assert_eq!(FrontEnd::Lanes.name(), "lanes");
        assert_eq!(FrontEnd::Walk.name(), "walk");
    }

    #[test]
    fn lane_one_hit_defers_to_an_earlier_lane_zero_match() {
        // Lane 1 reaches `q` (at the split) after one step, long before
        // lane 0 reaches the end of `needle`; the sequential walk — and so
        // the lane walk — reports `needle` first.
        let set = PatternSet::from_patterns(["needle", "q", "x", "y", "z"]);
        let lanes = PrefilteredDfa::new(set.clone());
        assert_eq!(lanes.front_end(), FrontEnd::Lanes);
        let mut hay = vec![b'.'; 400];
        hay[150..156].copy_from_slice(b"needle");
        hay[200] = b'q';
        assert_eq!(lanes.find_first_id(&hay), Some(0));
        assert_eq!(AcDfa::new(set).find_first_id(&hay), Some(0));
        // Only the lane-1 match: still found.
        hay[150..156].copy_from_slice(b"......");
        assert_eq!(lanes.find_first_id(&hay), Some(1));
        // Lane 1 longer than lane 0 (odd length, single-byte patterns)
        // with the match in its last byte.
        let lanes = PrefilteredDfa::new(PatternSet::from_patterns(["q", "x", "y", "z"]));
        assert_eq!(lanes.front_end(), FrontEnd::Lanes);
        let mut hay = vec![b'.'; 201];
        hay[200] = b'z';
        assert_eq!(lanes.find_first_id(&hay), Some(3));
        hay[99] = b'x';
        assert_eq!(lanes.find_first_id(&hay), Some(1));
    }

    #[test]
    fn memory_includes_dfa_and_skip() {
        let pre = PrefilteredDfa::new(PatternSet::from_patterns(["needle"]));
        assert!(pre.memory_bytes() > pre.dfa().memory_bytes());
        // {n, e, d, l} plus the catch-all class.
        assert_eq!(pre.class_count(), 5);
    }
}
