//! The dense operand view: what every division and set-join algorithm
//! of this crate (bar the nested-loop oracles) reads instead of tuples.
//!
//! A binary operand `R(A, B)` in canonical order is already grouped:
//! column 0's equal-key runs are the groups, and a group's element *set*
//! is a contiguous, strictly increasing slice of column 1. `Operand`
//! is that shape, with the element column in the joint, order-preserving
//! dense space `sj_storage::column::joint_codes` builds for the two
//! operands of one call — a set join's two element columns
//! (`Operand::pair`), or a dividend's element column and the divisor
//! (`Operand::dividend`). Every cross-operand comparison, hash and
//! signature bit is then an integer operation, whatever the cells hold;
//! a string or mixed column is coded like any other, not a second
//! algorithm body. Group order is key order, so an algorithm's
//! result is a list of group indices (or index pairs), and the key
//! `Value`s of the qualifying groups are the only cells ever
//! materialized (`emit`, `Operand::quotient`).
//!
//! Signature *bits* hash the dense cell, not the `Value`; signatures only
//! prune, the exact `predicate_on` decides, so the encoding never shows
//! in a result.

use crate::setjoin::SetPredicate;
use sj_storage::column::{hash_int_cell, joint_codes};
use sj_storage::{Columns, FxHashMap, Relation, Tuple, Value};
use std::borrow::Cow;
use std::ops::Range;

/// One operand as groups over a dense element column (see the
/// [module docs](self)). Built in pairs — the encoding is joint.
pub(crate) struct Operand<'a> {
    cols: &'a Columns,
    /// Group `g` is rows `starts[g]..starts[g + 1]`.
    starts: Vec<usize>,
    elems: Cow<'a, [i64]>,
}

impl<'a> Operand<'a> {
    fn of(cols: &'a Columns, elems: Cow<'a, [i64]>) -> Self {
        Operand {
            cols,
            starts: cols.run_starts(1, cols.len(), |row| row),
            elems,
        }
    }

    /// Both operands of `r ⋈ s` in their joint dense element space.
    ///
    /// # Panics
    ///
    /// If either operand is not binary.
    pub(crate) fn pair(r: &'a Relation, s: &'a Relation) -> (Operand<'a>, Operand<'a>) {
        assert_eq!(r.arity(), 2, "set-join operands must be binary");
        assert_eq!(s.arity(), 2, "set-join operands must be binary");
        let (rc, sc) = (r.columns(), s.columns());
        let (relems, selems) = joint_codes((rc, 1), (sc, 1));
        (Operand::of(rc, relems), Operand::of(sc, selems))
    }

    /// The dividend `r(A, B)` of `r ÷ s` and the divisor's values, both
    /// in their joint dense space: the divisor is canonical, so its
    /// codes are strictly increasing.
    ///
    /// # Panics
    ///
    /// If `r` is not binary or `s` not unary.
    pub(crate) fn dividend(r: &'a Relation, s: &'a Relation) -> (Operand<'a>, Cow<'a, [i64]>) {
        assert_eq!(r.arity(), 2, "dividend must be binary R(A,B)");
        assert_eq!(s.arity(), 1, "divisor must be unary S(B)");
        let rc = r.columns();
        let (relems, divisor) = joint_codes((rc, 1), (s.columns(), 0));
        (Operand::of(rc, relems), divisor)
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Group `g`'s element set: a nonempty, strictly increasing slice of
    /// the dense element column.
    #[inline]
    pub(crate) fn set(&self, g: usize) -> &[i64] {
        &self.elems[self.starts[g]..self.starts[g + 1]]
    }

    /// Group `g`'s key, the one cell of it ever materialized.
    fn key(&self, g: usize) -> Value {
        self.cols.value_at(0, self.starts[g])
    }

    /// The unary relation of the keys of `groups` (ascending group
    /// indices): a division's quotient, built from the qualifying
    /// groups alone.
    pub(crate) fn quotient(&self, groups: impl IntoIterator<Item = usize>) -> Relation {
        let keys = groups.into_iter().map(|g| Tuple::from([self.key(g)]));
        Relation::from_sorted_tuples(1, keys.collect())
    }

    /// At most `n` contiguous, nonempty ranges of group indices covering
    /// every group, cut where the row count crosses each `i/n` of the
    /// column — group-aligned ranges of the column, so a group never
    /// spans two of them.
    pub(crate) fn chunks(&self, n: usize) -> Vec<Range<usize>> {
        let (rows, n) = (self.elems.len(), n.max(1));
        let mut out = Vec::with_capacity(n);
        let mut start = 0usize;
        for i in 1..=n {
            if start == self.len() {
                break;
            }
            // The first group starting at or past the cut ends the range.
            let cut = rows * i / n;
            let end = self.starts[..self.len()]
                .partition_point(|&first| first < cut)
                .max(start + 1);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Element → the (ascending) groups whose set holds it.
    pub(crate) fn postings(&self) -> FxHashMap<i64, Vec<u32>> {
        let mut postings: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
        for g in 0..self.len() {
            for &v in self.set(g) {
                postings.entry(v).or_default().push(g as u32);
            }
        }
        postings
    }

    /// Every group's `words × 64`-bit superset signature, flat with
    /// stride `words`: one bit per element, `hash mod (64 · words)` of
    /// one hash — so the bit at a narrower width is a function of the
    /// bit at a wider one, and widening a signature can only separate
    /// elements, never merge them.
    fn signatures(&self, words: usize) -> Vec<u64> {
        assert!(words > 0, "a signature has at least one word");
        let bits = 64 * words as u64;
        let mut sigs = vec![0u64; self.len() * words];
        for (g, sig) in sigs.chunks_exact_mut(words).enumerate() {
            for &x in self.set(g) {
                let bit = hash_int_cell(x) % bits;
                sig[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        sigs
    }
}

/// Is sorted `sub` a subset of sorted `sup`? (Merge scan.)
fn sorted_subset(sub: &[i64], sup: &[i64]) -> bool {
    let mut i = 0;
    for v in sub {
        while i < sup.len() && sup[i] < *v {
            i += 1;
        }
        if i >= sup.len() || sup[i] != *v {
            return false;
        }
        i += 1;
    }
    true
}

/// Do two sorted slices share an element?
fn intersects(a: &[i64], b: &[i64]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Exact predicate check on two group sets (`b` from R, `d` from S).
fn predicate_on(pred: SetPredicate, b: &[i64], d: &[i64]) -> bool {
    match pred {
        SetPredicate::Contains => sorted_subset(d, b),
        SetPredicate::ContainedIn => sorted_subset(b, d),
        SetPredicate::Equals => b == d,
        SetPredicate::IntersectsNonempty => intersects(b, d),
    }
}

/// The condition on two signatures that `pred` holding on the
/// underlying sets implies (`sb` from R, `sd` from S; groups are never
/// empty, so a shared element is a shared bit).
#[inline(always)]
fn signatures_admit(pred: SetPredicate, sb: &[u64], sd: &[u64]) -> bool {
    let mut words = sb.iter().zip(sd);
    match pred {
        SetPredicate::Contains => words.all(|(b, d)| d & !b == 0),
        SetPredicate::ContainedIn => words.all(|(b, d)| b & !d == 0),
        SetPredicate::Equals => sb == sd,
        SetPredicate::IntersectsNonempty => words.any(|(b, d)| b & d != 0),
    }
}

/// Both operands of one join plus their signatures at one width: the
/// filter-then-verify step the all-pairs and the anchor-partitioned
/// signature joins share.
pub(crate) struct Signed<'a> {
    pub(crate) r: Operand<'a>,
    pub(crate) s: Operand<'a>,
    pred: SetPredicate,
    words: usize,
    rsig: Vec<u64>,
    ssig: Vec<u64>,
}

impl<'a> Signed<'a> {
    pub(crate) fn new(r: &'a Relation, s: &'a Relation, pred: SetPredicate, words: usize) -> Self {
        let (r, s) = Operand::pair(r, s);
        let (rsig, ssig) = (r.signatures(words), s.signatures(words));
        Signed {
            r,
            s,
            pred,
            words,
            rsig,
            ssig,
        }
    }

    /// Visit every `(R-group, S-group)` pair the signature filter lets
    /// through, in group order.
    #[inline]
    pub(crate) fn for_each_candidate(&self, visit: impl FnMut(usize, usize)) {
        use SetPredicate::*;
        // One copy of the pair loop per predicate, so the test inlines
        // to straight-line word operations instead of a branch per pair
        // (worth 2× on the 64-bit join).
        match self.pred {
            Contains => self.scan(|b, d| signatures_admit(Contains, b, d), visit),
            ContainedIn => self.scan(|b, d| signatures_admit(ContainedIn, b, d), visit),
            Equals => self.scan(|b, d| signatures_admit(Equals, b, d), visit),
            IntersectsNonempty => {
                self.scan(|b, d| signatures_admit(IntersectsNonempty, b, d), visit)
            }
        }
    }

    #[inline]
    fn scan(&self, admit: impl Fn(&[u64], &[u64]) -> bool, mut visit: impl FnMut(usize, usize)) {
        for (gr, sb) in self.rsig.chunks_exact(self.words).enumerate() {
            for (gs, sd) in self.ssig.chunks_exact(self.words).enumerate() {
                if admit(sb, sd) {
                    visit(gr, gs);
                }
            }
        }
    }

    /// Does the pair pass the signature filter and then the exact test?
    #[inline]
    pub(crate) fn holds(&self, gr: usize, gs: usize) -> bool {
        let w = self.words;
        signatures_admit(
            self.pred,
            &self.rsig[gr * w..(gr + 1) * w],
            &self.ssig[gs * w..(gs + 1) * w],
        ) && self.verify(gr, gs)
    }

    /// The exact test alone.
    #[inline]
    pub(crate) fn verify(&self, gr: usize, gs: usize) -> bool {
        predicate_on(self.pred, self.r.set(gr), self.s.set(gs))
    }
}

/// Materialize qualifying `(R-group, S-group)` index pairs as the output
/// relation. Group order is key order on both sides, so sorting the
/// index pairs sorts the tuples.
pub(crate) fn emit(r: &Operand, s: &Operand, mut pairs: Vec<(u32, u32)>) -> Relation {
    pairs.sort_unstable();
    pairs.dedup();
    let tuples = pairs
        .into_iter()
        .map(|(a, c)| Tuple::from([r.key(a as usize), s.key(c as usize)]))
        .collect();
    Relation::from_sorted_tuples(2, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::tuple;

    /// Chunks are contiguous, nonempty, cover every group once, and
    /// never outnumber the groups or the requested count.
    #[test]
    fn chunks_are_group_aligned_and_cover_every_group() {
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i % 9, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let r = Relation::from_int_rows(&refs);
        let (empty_r, empty_s) = (Relation::empty(2), Relation::empty(1));
        let (op, _) = Operand::dividend(&r, &empty_s);
        for n in [0usize, 1, 2, 3, 4, 8, 200] {
            let chunks = op.chunks(n);
            assert!(chunks.len() <= n.max(1).min(op.len()), "n = {n}");
            let mut next = 0;
            for c in &chunks {
                assert_eq!(c.start, next, "n = {n}");
                assert!(c.end > c.start, "n = {n}");
                next = c.end;
            }
            assert_eq!(next, op.len(), "n = {n}");
        }
        let (empty, _) = Operand::dividend(&empty_r, &empty_s);
        assert!(empty.chunks(4).is_empty());
    }

    /// Every encoding keeps group slices strictly increasing and maps
    /// equal cells of the two operands to equal dense values.
    #[test]
    fn every_encoding_is_joint_and_order_preserving() {
        let ints = Relation::from_int_rows(&[&[1, 7], &[1, 9], &[2, 7]]);
        let strs = Relation::from_str_rows(&[&["k", "7"], &["k", "x"], &["l", "a"]]);
        let mixed = Relation::from_tuples(
            2,
            vec![tuple![1, "x"], tuple![1, 7], tuple![2, "a"], tuple![2, 9]],
        )
        .unwrap();
        for (r, s) in [
            (&ints, &ints),
            (&strs, &strs),
            (&mixed, &ints),
            (&strs, &mixed),
            (&ints, &strs),
        ] {
            let (a, b) = Operand::pair(r, s);
            for (side, rel) in [(&a, r), (&b, s)] {
                assert_eq!(side.elems.len(), rel.len());
                for g in 0..side.len() {
                    assert!(side.set(g).windows(2).all(|w| w[0] < w[1]));
                }
            }
            for (i, t) in r.iter().enumerate() {
                for (j, u) in s.iter().enumerate() {
                    assert_eq!(
                        t[1].cmp(&u[1]),
                        a.elems[i].cmp(&b.elems[j]),
                        "{} vs {}",
                        t[1],
                        u[1]
                    );
                }
            }
        }
    }

    #[test]
    fn a_subset_signature_is_covered_at_every_width() {
        let r = Relation::from_int_rows(&[&[1, 1], &[1, 2], &[1, 3], &[2, 1], &[2, 2]]);
        for words in [1usize, 2, 4] {
            let x = Signed::new(&r, &r, SetPredicate::Contains, words);
            assert_eq!(x.rsig.len(), 2 * words);
            let (big, small) = x.rsig.split_at(words);
            assert!(signatures_admit(SetPredicate::Contains, big, small));
            assert!(signatures_admit(SetPredicate::ContainedIn, small, big));
            assert!(signatures_admit(
                SetPredicate::IntersectsNonempty,
                small,
                big
            ));
        }
    }

    #[test]
    fn sorted_subset_edge_cases() {
        assert!(sorted_subset(&[], &[5]));
        assert!(sorted_subset(&[], &[]));
        assert!(!sorted_subset(&[5], &[]));
        assert!(sorted_subset(&[5], &[5]));
        assert!(!sorted_subset(&[1, 6], &[1, 5, 7]));
    }

    #[test]
    fn emit_sorts_and_deduplicates_by_group_index() {
        let r = Relation::from_str_rows(&[&["a", "x"], &["b", "x"]]);
        let (a, b) = Operand::pair(&r, &r);
        assert_eq!(
            emit(&a, &b, vec![(1, 0), (0, 1), (1, 0)]),
            Relation::from_str_rows(&[&["a", "b"], &["b", "a"]])
        );
    }
}
