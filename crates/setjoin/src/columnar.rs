//! The dense operand view: what every set-join algorithm of this crate
//! (bar the nested-loop oracle) reads instead of tuples.
//!
//! A binary set-join operand `R(A, B)` in canonical order is already
//! grouped: column 0's equal-key runs are the groups, and a group's
//! element *set* is a contiguous, strictly increasing slice of column 1.
//! `Operand::pair` turns both operands of one join into that shape,
//! with the two element columns encoded in a **joint, order-preserving
//! dense space** of `i64`s — so every cross-operand comparison, hash and
//! signature bit is an integer operation, whatever the cells hold:
//!
//! | element columns | encoding |
//! |---|---|
//! | `Int` / `Int` | the `i64` column itself, zero-copy |
//! | `Str` / `Str` | dictionary codes remapped through `joint_codes` |
//! | anything else (`Mixed`, or `Int` against `Str`) | the rank of each cell in the sorted joint dictionary of both columns |
//!
//! `Value: Ord` makes the last row order-preserving too, so a
//! mixed-variant column is one more *encoding* of the operand, not a
//! second algorithm body. Group order is key order on both sides, so an
//! algorithm's result is a list of `(R-group, S-group)` index pairs and
//! `emit` materializes the two key `Value`s of each pair — the only
//! place a `Value` is touched.
//!
//! Signature *bits* hash the dense cell, not the `Value`; signatures only
//! prune, the exact `predicate_on` decides, so the encoding never shows
//! in a result.

use crate::setjoin::SetPredicate;
use sj_storage::column::hash_int_cell;
use sj_storage::{ColumnData, Columns, FxHashMap, Relation, StrDict, Tuple, Value};
use std::borrow::Cow;

/// The `(start, end)` row ranges of column 0's equal-key runs — the
/// groups of a binary set-join operand, in key order.
fn group_ranges(cols: &Columns) -> Vec<(u32, u32)> {
    let n = cols.len();
    let mut out: Vec<(u32, u32)> = Vec::new();
    if n == 0 {
        return out;
    }
    let mut push_runs = |neq: &mut dyn FnMut(usize) -> bool| {
        let mut start = 0usize;
        for i in 1..n {
            if neq(i) {
                out.push((start as u32, i as u32));
                start = i;
            }
        }
        out.push((start as u32, n as u32));
    };
    match cols.col(0) {
        ColumnData::Int(v) => push_runs(&mut |i| v[i] != v[i - 1]),
        ColumnData::Str(v) => push_runs(&mut |i| v[i] != v[i - 1]),
        ColumnData::Mixed(v) => push_runs(&mut |i| v[i] != v[i - 1]),
    }
    out
}

/// Merge two sorted dictionaries into one joint code space: returns, for
/// each dictionary, the strictly increasing map from its codes to joint
/// codes. Equal strings get the same joint code, so cross-relation
/// string equality (and order) becomes integer equality (and order).
fn joint_codes(a: &StrDict, b: &StrDict) -> (Vec<i64>, Vec<i64>) {
    let (mut ma, mut mb) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    let mut next = 0i64;
    while i < a.len() || j < b.len() {
        let ord = if i == a.len() {
            std::cmp::Ordering::Greater
        } else if j == b.len() {
            std::cmp::Ordering::Less
        } else {
            a.strings()[i].as_ref().cmp(b.strings()[j].as_ref())
        };
        if ord.is_le() {
            ma.push(next);
            i += 1;
        }
        if ord.is_ge() {
            mb.push(next);
            j += 1;
        }
        next += 1;
    }
    (ma, mb)
}

/// One set-join operand as groups over a dense element column (see the
/// [module docs](self)). Built in pairs — the encoding is joint.
pub(crate) struct Operand<'a> {
    cols: &'a Columns,
    groups: Vec<(u32, u32)>,
    elems: Cow<'a, [i64]>,
}

impl<'a> Operand<'a> {
    /// Both operands of `r ⋈ s` in their joint dense element space.
    ///
    /// # Panics
    ///
    /// If either operand is not binary.
    pub(crate) fn pair(r: &'a Relation, s: &'a Relation) -> (Operand<'a>, Operand<'a>) {
        assert_eq!(r.arity(), 2, "set-join operands must be binary");
        assert_eq!(s.arity(), 2, "set-join operands must be binary");
        let (rc, sc) = (r.columns(), s.columns());
        let (relems, selems): (Cow<[i64]>, Cow<[i64]>) = match (rc.col(1), sc.col(1)) {
            (ColumnData::Int(b), ColumnData::Int(d)) => (Cow::Borrowed(b), Cow::Borrowed(d)),
            (ColumnData::Str(b), ColumnData::Str(d)) => {
                let (mb, md) = joint_codes(rc.dict(), sc.dict());
                let remap = |codes: &[u32], map: &[i64]| -> Cow<[i64]> {
                    codes.iter().map(|&c| map[c as usize]).collect()
                };
                (remap(b, &mb), remap(d, &md))
            }
            _ => {
                let cells = |rel: &'a Relation| rel.iter().map(|t| &t[1]);
                let mut dict: Vec<&Value> = cells(r).chain(cells(s)).collect();
                dict.sort_unstable();
                dict.dedup();
                let rank = |v| {
                    dict.binary_search(&v)
                        .expect("the dictionary holds every cell")
                };
                (
                    cells(r).map(|v| rank(v) as i64).collect(),
                    cells(s).map(|v| rank(v) as i64).collect(),
                )
            }
        };
        let side = |cols: &'a Columns, elems| Operand {
            cols,
            groups: group_ranges(cols),
            elems,
        };
        (side(rc, relems), side(sc, selems))
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`'s element set: a nonempty, strictly increasing slice of
    /// the dense element column.
    #[inline]
    pub(crate) fn set(&self, g: usize) -> &[i64] {
        let (a, b) = self.groups[g];
        &self.elems[a as usize..b as usize]
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
    let key = |side: &Operand, g: u32| side.cols.value_at(0, side.groups[g as usize].0 as usize);
    let tuples = pairs
        .into_iter()
        .map(|(a, c)| Tuple::new(vec![key(r, a), key(s, c)]))
        .collect();
    Relation::from_sorted_tuples(2, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::tuple;

    #[test]
    fn group_ranges_follow_column_zero() {
        let r = Relation::from_int_rows(&[&[2, 9], &[1, 7], &[1, 8], &[3, 1]]);
        assert_eq!(group_ranges(r.columns()), vec![(0, 2), (2, 3), (3, 4)]);
        assert!(group_ranges(Relation::empty(2).columns()).is_empty());
        let s = Relation::from_str_rows(&[&["a", "x"], &["a", "y"], &["b", "x"]]);
        assert_eq!(group_ranges(s.columns()), vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn joint_codes_agree_with_string_order() {
        let a = StrDict::from_strings(["b", "d"].map(std::sync::Arc::from));
        let b = StrDict::from_strings(["a", "b", "c"].map(std::sync::Arc::from));
        let (ma, mb) = joint_codes(&a, &b);
        // Joint space: a=0, b=1, c=2, d=3.
        assert_eq!(ma, vec![1, 3]);
        assert_eq!(mb, vec![0, 1, 2]);
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
