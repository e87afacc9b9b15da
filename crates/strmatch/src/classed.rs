//! Byte-class compressed DFA.
//!
//! Two input bytes are *equivalent* when every state sends them to the same
//! next state; the automaton then only needs one transition column per
//! equivalence class. Content rule sets mention a small slice of the byte
//! alphabet, so the 256-wide dense rows of [`crate::dfa::AcDfa`] collapse
//! to a handful of classes — typically a 4–10× table shrink that keeps real
//! rule sets L1/L2-resident. The inner loop gains one extra load (the
//! 256-byte `classes` map, which lives in four cache lines and is hot
//! forever) and keeps the dense DFA's worst-case bound: still exactly one
//! transition per input byte.
//!
//! The table stores each target's *row offset* (`next × class_count`)
//! rather than its id, with the top bit set when the target reports a
//! match. The scan loops walk offsets: a mask, an add and one load per
//! byte — no multiply on the chain of dependent loads — and a match is a
//! compare, not a second table load. State ids stay the public currency
//! ([`ClassedDfa::next_state`] converts back).

use crate::aho::AhoCorasick;
use crate::pattern::{Match, PatternId, PatternSet};
use std::collections::HashMap;

/// Flag on a row offset whose state reports a match.
const MATCH_ROW: u32 = 1 << 31;

/// A dense Aho–Corasick DFA over byte equivalence classes.
#[derive(Debug, Clone)]
pub struct ClassedDfa {
    /// Byte → equivalence class (class ids are dense, `< class_count`).
    classes: Box<[u8; 256]>,
    /// Number of distinct classes (the row stride).
    class_count: usize,
    /// `delta[state * class_count + class]` = the next state's row offset,
    /// `next * class_count`, with [`MATCH_ROW`] set if `next` matches.
    delta: Vec<u32>,
    /// Pattern ids ending at each state (empty for most states).
    outputs: Vec<Box<[PatternId]>>,
    /// Per-state "any output?" flag, checked before touching `outputs`.
    has_output: Vec<bool>,
    set: PatternSet,
}

impl ClassedDfa {
    /// Compile from patterns (builds the NFA internally).
    pub fn new(set: PatternSet) -> Self {
        Self::from_nfa(&AhoCorasick::new(set))
    }

    /// Compile from an existing NFA: materialize every transition column,
    /// merge identical columns into one class, then lay out the compressed
    /// table.
    pub fn from_nfa(nfa: &AhoCorasick) -> Self {
        let n = nfa.state_count();
        // Column signatures: cols[b][s] = δ(s, b). Two bytes are in the
        // same class iff their columns are identical.
        let cols: Vec<Vec<u32>> = (0..=255u8)
            .map(|b| (0..n as u32).map(|s| nfa.step(s, b)).collect())
            .collect();
        let mut classes = Box::new([0u8; 256]);
        let mut reps: Vec<usize> = Vec::new(); // representative byte per class
        let mut seen: HashMap<&[u32], u8> = HashMap::new();
        for b in 0..256usize {
            let col = cols[b].as_slice();
            let class = *seen.entry(col).or_insert_with(|| {
                reps.push(b);
                (reps.len() - 1) as u8
            });
            classes[b] = class;
        }
        let class_count = reps.len();
        assert!(
            (n * class_count) < MATCH_ROW as usize,
            "{n} states x {class_count} classes overflow the row offsets"
        );

        let mut outputs = Vec::with_capacity(n);
        let mut has_output = Vec::with_capacity(n);
        for s in 0..n as u32 {
            let out = nfa.outputs(s).to_vec().into_boxed_slice();
            has_output.push(!out.is_empty());
            outputs.push(out);
        }
        let mut dfa = ClassedDfa {
            classes,
            class_count,
            delta: Vec::new(),
            outputs,
            has_output,
            set: nfa.patterns().clone(),
        };
        let mut delta = vec![0u32; n * class_count];
        for s in 0..n {
            for (c, &rep) in reps.iter().enumerate() {
                delta[s * class_count + c] = dfa.row(cols[rep][s]);
            }
        }
        dfa.delta = delta;
        dfa
    }

    /// The pattern set this DFA recognizes.
    pub fn patterns(&self) -> &PatternSet {
        &self.set
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of byte equivalence classes (the compressed row width; the
    /// dense DFA's is always 256).
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The start state.
    pub const START: u32 = 0;

    /// The start state's row offset.
    pub(crate) const START_ROW: u32 = 0;

    /// One transition (ids in, id out; the scan loops step row offsets).
    pub fn next_state(&self, state: u32, byte: u8) -> u32 {
        self.state_of_row(self.step_row(self.row(state), byte))
    }

    /// Row offset of `state`.
    fn row(&self, state: u32) -> u32 {
        let flag = if self.is_match_state(state) {
            MATCH_ROW
        } else {
            0
        };
        state * self.class_count as u32 + flag
    }

    /// The state whose row offset is `row`.
    fn state_of_row(&self, row: u32) -> u32 {
        (row & !MATCH_ROW) / self.class_count as u32
    }

    /// One transition over row offsets: `row(next_state(s, b))` from
    /// `row(s)`.
    #[inline(always)]
    pub(crate) fn step_row(&self, row: u32, byte: u8) -> u32 {
        let class = self.classes[byte as usize] as usize;
        self.delta[(row & !MATCH_ROW) as usize + class]
    }

    /// True if the state at `row` reports at least one pattern.
    #[inline(always)]
    pub(crate) fn is_match_row(row: u32) -> bool {
        row >= MATCH_ROW
    }

    /// Pattern ids ending at the state at `row`.
    #[inline]
    pub(crate) fn row_outputs(&self, row: u32) -> &[PatternId] {
        self.outputs(self.state_of_row(row))
    }

    /// True if `state` reports at least one pattern.
    #[inline(always)]
    pub fn is_match_state(&self, state: u32) -> bool {
        self.has_output[state as usize]
    }

    /// Pattern ids ending at `state`.
    #[inline]
    pub fn outputs(&self, state: u32) -> &[PatternId] {
        &self.outputs[state as usize]
    }

    /// Find all matches in `hay` with end offsets relative to `hay`.
    pub fn find_all(&self, hay: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut row = Self::START_ROW;
        for (i, &b) in hay.iter().enumerate() {
            row = self.step_row(row, b);
            if Self::is_match_row(row) {
                for &p in self.row_outputs(row) {
                    out.push(Match::new(p, i + 1));
                }
            }
        }
        out
    }

    /// First match in `hay`.
    pub fn find_first(&self, hay: &[u8]) -> Option<Match> {
        let mut row = Self::START_ROW;
        for (i, &b) in hay.iter().enumerate() {
            row = self.step_row(row, b);
            if Self::is_match_row(row) {
                return Some(Match::new(self.row_outputs(row)[0], i + 1));
            }
        }
        None
    }

    /// Pattern id of the first match, without materializing a [`Match`] —
    /// the fast path only wants "which piece", never the offset.
    #[inline]
    pub fn find_first_id(&self, hay: &[u8]) -> Option<PatternId> {
        let mut row = Self::START_ROW;
        for &b in hay {
            row = self.step_row(row, b);
            if Self::is_match_row(row) {
                return Some(self.row_outputs(row)[0]);
            }
        }
        None
    }

    /// True if any pattern occurs in `hay`.
    #[inline]
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find_first_id(hay).is_some()
    }

    /// Heap footprint in bytes: the compressed transition table plus the
    /// 256-byte class map.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.delta.len() * 4 + 256;
        total += self.has_output.len();
        for o in &self.outputs {
            total += o.len() * std::mem::size_of::<PatternId>() + std::mem::size_of::<usize>();
        }
        total += self.set.total_bytes();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::AcDfa;
    use crate::naive;

    fn check(patterns: &[&[u8]], hay: &[u8]) {
        let set = PatternSet::from_patterns(patterns);
        let dfa = ClassedDfa::new(set.clone());
        let mut got = dfa.find_all(hay);
        let mut want = naive::find_all(&set, hay);
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(dfa.is_match(hay), !want.is_empty());
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
    fn classed_equals_dense_transition_for_transition() {
        let set = PatternSet::from_patterns([b"abab".as_slice(), b"baba", b"ab"]);
        let dense = AcDfa::new(set.clone());
        let classed = ClassedDfa::new(set);
        assert_eq!(dense.state_count(), classed.state_count());
        for s in 0..dense.state_count() as u32 {
            for b in 0..=255u8 {
                assert_eq!(dense.next_state(s, b), classed.next_state(s, b));
            }
            assert_eq!(dense.outputs(s), classed.outputs(s));
        }
    }

    #[test]
    fn class_count_is_small_for_narrow_alphabets() {
        // Patterns over {a, b} need exactly 3 classes: a, b, everything else.
        let dfa = ClassedDfa::new(PatternSet::from_patterns([b"ab".as_slice(), b"ba"]));
        assert_eq!(dfa.class_count(), 3);
        // Every byte maps to a valid class.
        for b in 0..=255u8 {
            let _ = dfa.next_state(ClassedDfa::START, b);
        }
    }

    #[test]
    fn table_shrinks_versus_dense() {
        let pats: Vec<String> = (0..20).map(|i| format!("piece{i:02}xx")).collect();
        let set = PatternSet::from_patterns(pats.iter().map(|s| s.as_bytes()));
        let dense = AcDfa::new(set.clone());
        let classed = ClassedDfa::new(set);
        assert!(classed.class_count() < 64, "{}", classed.class_count());
        assert!(
            classed.memory_bytes() * 4 < dense.memory_bytes(),
            "classed {} vs dense {}",
            classed.memory_bytes(),
            dense.memory_bytes()
        );
    }

    #[test]
    fn all_256_byte_values() {
        let p: Vec<u8> = vec![0, 127, 255];
        let set = PatternSet::from_patterns([p.clone()]);
        let dfa = ClassedDfa::new(set);
        let mut hay: Vec<u8> = (0u8..=255).collect();
        hay.extend_from_slice(&p);
        let ms = dfa.find_all(&hay);
        assert!(ms.iter().any(|m| m.end == hay.len()));
    }

    #[test]
    fn find_first_id_early_exits_to_first_pattern() {
        let dfa = ClassedDfa::new(PatternSet::from_patterns(["ab", "abcdef"]));
        assert_eq!(dfa.find_first_id(b"abcdef"), Some(0));
        assert_eq!(dfa.find_first(b"abcdef"), Some(Match::new(0, 2)));
        assert_eq!(dfa.find_first_id(b"zzz"), None);
    }
}
