//! Columnar signature set join: signatures and verification computed
//! directly from a relation's [`Columns`] view.
//!
//! The row-wise [`crate::signature_set_join`] walks `(key, Vec<Value>)`
//! groups — every element is cloned into the group list, every signature
//! bit goes through a `Value` hash (enum dispatch plus `Arc<str>`
//! dereference), and every verification merge compares `Value`s. The
//! columnar port removes all three costs:
//!
//! * **Grouping** is a boundary scan over column 0 — a dense `i64` (or
//!   dictionary-code) run-length pass producing `(start, end)` row
//!   ranges. No element is copied: a group's element *set* is a
//!   contiguous, strictly increasing slice of the element column
//!   (canonical relation order sorts by key first, element second).
//! * **Signatures** are a dense u64 fold over the element column slice
//!   (`acc | 1 << (mix(x) & 63)` per element — branch-free,
//!   SIMD-friendly), one stream per group range.
//! * **Verification** merges run over `i64` slices, or over dictionary
//!   codes translated into a **joint code space**: the two relations'
//!   sorted dictionaries are merged once ([`joint_codes`]), after which
//!   cross-relation string comparison is a `u32` compare.
//!
//! The signature *bits* differ from the row implementation's (they hash
//! raw cells, not `Value`s) — that is fine: signatures only prune, the
//! exact verification decides, and the result is byte-identical. The
//! columnar path covers element columns that are both integers or both
//! dictionary-encoded strings; anything else (mixed-variant columns)
//! returns `None` and the caller falls back to the row path.

use crate::setjoin::SetPredicate;
use sj_storage::column::hash_int_cell;
use sj_storage::{ColumnData, Columns, Relation, StrDict, Tuple};

/// The `(start, end)` row ranges of column 0's equal-key runs — the
/// groups of a binary set-join operand, in key order, without
/// materializing a single key or element.
pub fn group_ranges(cols: &Columns) -> Vec<(u32, u32)> {
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
/// string equality (and order) becomes `u32` equality (and order).
pub fn joint_codes(a: &StrDict, b: &StrDict) -> (Vec<u32>, Vec<u32>) {
    let (mut ma, mut mb) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    let mut next = 0u32;
    while i < a.len() || j < b.len() {
        let ord = if i == a.len() {
            std::cmp::Ordering::Greater
        } else if j == b.len() {
            std::cmp::Ordering::Less
        } else {
            a.strings()[i].as_ref().cmp(b.strings()[j].as_ref())
        };
        match ord {
            std::cmp::Ordering::Less => {
                ma.push(next);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                mb.push(next);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                ma.push(next);
                mb.push(next);
                i += 1;
                j += 1;
            }
        }
        next += 1;
    }
    (ma, mb)
}

/// 64-bit superset signature of a dense sorted element slice: the OR of
/// one [`hash_int_cell`] bit per element. Works for `i64` element
/// columns and joint-space `u32` codes alike (both embed into `i64`),
/// which is what lets the serial columnar join and the partition-
/// parallel one ([`crate::parallel`]) share one signature definition.
pub(crate) fn dense_signature<T: Copy + Into<i64>>(set: &[T]) -> u64 {
    set.iter().fold(0u64, |acc, &x| {
        acc | (1u64 << (hash_int_cell(x.into()) & 63))
    })
}

/// One relation's element column in a comparison-ready dense form.
enum Elems<'a> {
    /// Integer elements: the column slice itself, zero-copy.
    Ints(&'a [i64]),
    /// String elements as joint-space codes (one remap pass).
    Codes(Vec<u32>),
}

impl Elems<'_> {
    /// The group's element slice and its 64-bit signature fold.
    fn signature(&self, start: usize, end: usize) -> u64 {
        match self {
            Elems::Ints(v) => dense_signature(&v[start..end]),
            Elems::Codes(v) => dense_signature(&v[start..end]),
        }
    }
}

/// Is sorted `sub` a subset of sorted `sup`? (Merge scan over dense
/// values — the columnar counterpart of the row path's `Value` merge.)
fn sorted_subset<T: Ord>(sub: &[T], sup: &[T]) -> bool {
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
fn intersects<T: Ord>(a: &[T], b: &[T]) -> bool {
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

/// Exact predicate check on two sorted dense element slices (`b` is the
/// R-side set, `d` the S-side set — the argument order of the row path's
/// `predicate_holds`). Shared with the partition-parallel columnar join.
pub(crate) fn predicate_on<T: Ord>(pred: SetPredicate, b: &[T], d: &[T]) -> bool {
    match pred {
        SetPredicate::Contains => sorted_subset(d, b),
        SetPredicate::ContainedIn => sorted_subset(b, d),
        SetPredicate::Equals => b == d,
        SetPredicate::IntersectsNonempty => intersects(b, d),
    }
}

/// Remap a dictionary-code column through a joint-code map.
pub(crate) fn remap(codes: &[u32], map: &[u32]) -> Vec<u32> {
    codes.iter().map(|&c| map[c as usize]).collect()
}

/// The columnar signature set join, when the element columns support it:
/// both integer columns, or both dictionary-encoded string columns.
/// Returns `None` otherwise (mixed-variant element columns) — callers
/// fall back to the row-wise `signature_set_join_rowwise`.
/// Output is byte-identical to the row path.
pub fn columnar_signature_set_join(
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
) -> Option<Relation> {
    assert_eq!(r.arity(), 2, "set-join operands must be binary");
    assert_eq!(s.arity(), 2, "set-join operands must be binary");
    let (rc, sc) = (r.columns(), s.columns());
    let (relems, selems) = match (rc.col(1), sc.col(1)) {
        (ColumnData::Int(a), ColumnData::Int(b)) => {
            (Elems::Ints(a.as_slice()), Elems::Ints(b.as_slice()))
        }
        (ColumnData::Str(a), ColumnData::Str(b)) => {
            let (mr, ms) = joint_codes(rc.dict(), sc.dict());
            (Elems::Codes(remap(a, &mr)), Elems::Codes(remap(b, &ms)))
        }
        // Cross-variant element columns never match; mixed columns are
        // rare and stay on the row path.
        _ => return None,
    };
    let rg = group_ranges(rc);
    let sg = group_ranges(sc);
    let rsig: Vec<u64> = rg
        .iter()
        .map(|&(a, b)| relems.signature(a as usize, b as usize))
        .collect();
    let ssig: Vec<u64> = sg
        .iter()
        .map(|&(a, b)| selems.signature(a as usize, b as usize))
        .collect();
    let verify = |bi: &(u32, u32), di: &(u32, u32)| -> bool {
        let (bs, be) = (bi.0 as usize, bi.1 as usize);
        let (ds, de) = (di.0 as usize, di.1 as usize);
        match (&relems, &selems) {
            (Elems::Ints(b), Elems::Ints(d)) => predicate_on(pred, &b[bs..be], &d[ds..de]),
            (Elems::Codes(b), Elems::Codes(d)) => predicate_on(pred, &b[bs..be], &d[ds..de]),
            _ => unreachable!("element representations agree by construction"),
        }
    };
    let mut out: Vec<Tuple> = Vec::new();
    for (bi, &sb) in rg.iter().zip(&rsig) {
        for (di, &sd) in sg.iter().zip(&ssig) {
            let may = match pred {
                SetPredicate::Contains => sd & !sb == 0,
                SetPredicate::ContainedIn => sb & !sd == 0,
                SetPredicate::Equals => sb == sd,
                // Groups are never empty (every group has ≥ 1 row), so
                // the signature intersection test is exact enough.
                SetPredicate::IntersectsNonempty => sb & sd != 0,
            };
            if may && verify(bi, di) {
                out.push(Tuple::new(vec![
                    rc.value_at(0, bi.0 as usize),
                    sc.value_at(0, di.0 as usize),
                ]));
            }
        }
    }
    Some(Relation::from_tuples(2, out).expect("binary output"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setjoin::{nested_loop_set_join, signature_set_join_rowwise};
    use sj_storage::{Relation, Value};
    use SetPredicate::*;

    #[test]
    fn group_ranges_match_group_sets() {
        let r = Relation::from_int_rows(&[&[2, 9], &[1, 7], &[1, 8], &[3, 1]]);
        let ranges = group_ranges(r.columns());
        assert_eq!(ranges, vec![(0, 2), (2, 3), (3, 4)]);
        assert!(group_ranges(Relation::empty(2).columns()).is_empty());
        // String keys.
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

    #[test]
    fn columnar_matches_rowwise_on_ints() {
        let r = Relation::from_int_rows(&[
            &[1, 10],
            &[1, 11],
            &[2, 10],
            &[3, 12],
            &[3, 13],
            &[4, 10],
            &[4, 11],
        ]);
        let s = Relation::from_int_rows(&[&[5, 10], &[5, 11], &[6, 10], &[7, 13], &[8, 20]]);
        for pred in [Contains, ContainedIn, Equals, IntersectsNonempty] {
            assert_eq!(
                columnar_signature_set_join(&r, &s, pred).expect("int columns"),
                signature_set_join_rowwise(&r, &s, pred),
                "{pred:?}"
            );
        }
    }

    #[test]
    fn columnar_matches_rowwise_on_strings() {
        let r = Relation::from_str_rows(&[
            &["An", "headache"],
            &["An", "sore throat"],
            &["Bob", "headache"],
            &["Bob", "memory loss"],
            &["Bob", "sore throat"],
        ]);
        let s = Relation::from_str_rows(&[
            &["flu", "headache"],
            &["flu", "sore throat"],
            &["Lyme", "headache"],
            &["Lyme", "memory loss"],
            &["Lyme", "sore throat"],
        ]);
        for pred in [Contains, ContainedIn, Equals, IntersectsNonempty] {
            assert_eq!(
                columnar_signature_set_join(&r, &s, pred).expect("string columns"),
                signature_set_join_rowwise(&r, &s, pred),
                "{pred:?}"
            );
        }
    }

    #[test]
    fn mixed_and_cross_variant_columns_fall_back() {
        // Mixed element column: ints and strings together.
        let mixed = Relation::from_tuples(
            2,
            vec![
                sj_storage::tuple![1, 7],
                sj_storage::tuple![1, "x"],
                sj_storage::tuple![2, 7],
            ],
        )
        .unwrap();
        let ints = Relation::from_int_rows(&[&[5, 7]]);
        assert!(columnar_signature_set_join(&mixed, &ints, Contains).is_none());
        // Cross-variant (int elements vs string elements) also declines;
        // the row path handles it (and finds nothing).
        let strs = Relation::from_str_rows(&[&["5", "7"]]);
        assert!(columnar_signature_set_join(&ints, &strs, Contains).is_none());
        assert!(signature_set_join_rowwise(&ints, &strs, Contains).is_empty());
    }

    #[test]
    fn empty_operands() {
        let e = Relation::empty(2);
        let r = Relation::from_int_rows(&[&[1, 10]]);
        for pred in [Contains, ContainedIn, Equals, IntersectsNonempty] {
            assert!(columnar_signature_set_join(&e, &r, pred)
                .unwrap()
                .is_empty());
            assert!(columnar_signature_set_join(&r, &e, pred)
                .unwrap()
                .is_empty());
            assert!(columnar_signature_set_join(&e, &e, pred)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn agrees_with_nested_loop_on_random_groups() {
        // Deterministic pseudo-random groups, both key types.
        let mut rows_r: Vec<Vec<i64>> = Vec::new();
        let mut rows_s: Vec<Vec<i64>> = Vec::new();
        let mut x = 0x9e3779b9u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as i64
        };
        for g in 0..24 {
            for _ in 0..(1 + step() % 5) {
                rows_r.push(vec![g, step() % 16]);
            }
            for _ in 0..(1 + step() % 5) {
                rows_s.push(vec![g + 100, step() % 16]);
            }
        }
        let rr: Vec<&[i64]> = rows_r.iter().map(|v| v.as_slice()).collect();
        let ss: Vec<&[i64]> = rows_s.iter().map(|v| v.as_slice()).collect();
        let (r, s) = (Relation::from_int_rows(&rr), Relation::from_int_rows(&ss));
        for pred in [Contains, ContainedIn, Equals, IntersectsNonempty] {
            assert_eq!(
                columnar_signature_set_join(&r, &s, pred).unwrap(),
                nested_loop_set_join(&r, &s, pred),
                "{pred:?}"
            );
        }
        let _ = Value::int(0); // keep the import exercised under cfg(test) pruning
    }
}
