//! Vectorized selection over whole typed columns.
//!
//! σ is the one hot operator with no twin in [`crate::kernel`] (it has a
//! single operand and no key to hash or merge on): [`select`] scans the
//! relation's [`Columns`] with one dense typed loop per predicate,
//! collecting a **selection vector** of surviving row indices, and only
//! then gathers the surviving tuples — the output is a subsequence of the
//! canonical order, so no re-sort is needed. [`project_select`] is the
//! same scan under its only consumer `π[1..k]`: it gathers the distinct
//! `k`-prefixes of the survivors instead of the rows.
//!
//! Output-equivalent to [`ops::select`]; `tests/vectorized.rs` holds the
//! two byte-identical on every predicate shape and column kind. A
//! relation beyond the `u32` row-index capacity falls back to the row
//! implementation rather than truncating.

use crate::{kernel, ops};
use sj_algebra::Selection;
use sj_storage::{ColumnData, Columns, Relation, Tuple, Value};
use std::cmp::Ordering;

/// The distinct `k`-prefixes of `r`'s rows `row(0), …, row(len − 1)`
/// (ascending indices), which for `k = arity` are the rows themselves. A
/// canonical relation is sorted by every prefix of its columns, so
/// ascending rows have non-decreasing prefixes: equal prefixes form
/// runs ([`Columns::run_starts`]), and the output is canonical without
/// a sort ([`Relation::from_sorted_tuples`]' linear order check stays as
/// the safety net). A tuple is built for the first row of each run only,
/// from its key cells in the columns.
pub(crate) fn gather(r: &Relation, k: usize, len: usize, row: impl Fn(usize) -> usize) -> Relation {
    let cols = r.columns();
    let tuple = |p: usize| -> Tuple { (0..k).map(|c| cols.value_at(c, row(p))).collect() };
    let out: Vec<Tuple> = if k == r.arity() {
        (0..len).map(tuple).collect()
    } else {
        let starts = cols.run_starts(k, len, &row);
        starts[..starts.len() - 1]
            .iter()
            .map(|&p| tuple(p))
            .collect()
    };
    debug_assert!(
        out.windows(2).all(|w| w[0] < w[1]),
        "ascending rows of a canonical relation give ascending distinct prefixes"
    );
    Relation::from_sorted_tuples(k, out)
}

/// The positions at which `hits` yields `true`, as a selection vector.
#[inline]
fn positions(hits: impl Iterator<Item = bool>) -> Vec<u32> {
    hits.enumerate()
        .filter(|&(_, hit)| hit)
        .map(|(row, _)| row as u32)
        .collect()
}

/// Vectorized `σ(r)`. Output-equivalent to [`ops::select`].
pub fn select(r: &Relation, sel: &Selection) -> Relation {
    project_select(r, sel, r.arity())
}

/// Vectorized `π[1..k](σ(r))` for `k ≤ arity(r)`: the selection vector
/// of [`select`], gathered as distinct `k`-prefixes. `k = arity(r)` is
/// [`select`] itself.
pub fn project_select(r: &Relation, sel: &Selection, k: usize) -> Relation {
    if sj_storage::ensure_u32_indexable(r.len()).is_err() {
        return kernel::project(&ops::select(r, sel), &kernel::prefix_cols(k));
    }
    let cols = r.columns();
    let keep = match sel {
        Selection::Eq(i, j) => sel_eq(cols, *i - 1, *j - 1),
        Selection::Lt(i, j) => sel_lt(cols, *i - 1, *j - 1),
        Selection::EqConst(i, c) => sel_eq_const(cols, *i - 1, c),
    };
    gather(r, k, keep.len(), |p| keep[p] as usize)
}

/// Selection vector for `σ_{i=j}`.
fn sel_eq(cols: &Columns, i: usize, j: usize) -> Vec<u32> {
    match (cols.col(i), cols.col(j)) {
        (ColumnData::Int(a), ColumnData::Int(b)) => positions(a.iter().zip(b).map(|(x, y)| x == y)),
        // Same relation ⇒ same dictionary: code equality is string equality.
        (ColumnData::Str(a), ColumnData::Str(b)) => positions(a.iter().zip(b).map(|(x, y)| x == y)),
        // An all-integer column never equals an all-string column.
        (ColumnData::Int(_), ColumnData::Str(_)) | (ColumnData::Str(_), ColumnData::Int(_)) => {
            Vec::new()
        }
        _ => positions((0..cols.len()).map(|row| cols.cell_eq(i, row, cols, j, row))),
    }
}

/// Selection vector for `σ_{i<j}`.
fn sel_lt(cols: &Columns, i: usize, j: usize) -> Vec<u32> {
    match (cols.col(i), cols.col(j)) {
        (ColumnData::Int(a), ColumnData::Int(b)) => positions(a.iter().zip(b).map(|(x, y)| x < y)),
        // Same dictionary: code order is string order.
        (ColumnData::Str(a), ColumnData::Str(b)) => positions(a.iter().zip(b).map(|(x, y)| x < y)),
        // Every integer sorts before every string, and never after.
        (ColumnData::Int(_), ColumnData::Str(_)) => (0..cols.len() as u32).collect(),
        (ColumnData::Str(_), ColumnData::Int(_)) => Vec::new(),
        _ => positions(
            (0..cols.len()).map(|row| cols.cell_cmp(i, row, cols, j, row) == Ordering::Less),
        ),
    }
}

/// Selection vector for `σ_{i=c}`.
fn sel_eq_const(cols: &Columns, i: usize, c: &Value) -> Vec<u32> {
    match (cols.col(i), c) {
        (ColumnData::Int(v), Value::Int(x)) => positions(v.iter().map(|val| val == x)),
        // One dictionary lookup, then a dense code scan; a constant
        // absent from the dictionary matches nothing.
        (ColumnData::Str(codes), Value::Str(s)) => match cols.dict().code_of(s) {
            Some(code) => positions(codes.iter().map(|&cd| cd == code)),
            None => Vec::new(),
        },
        (ColumnData::Mixed(v), c) => positions(v.iter().map(|val| val == c)),
        // Typed column vs other-variant constant: no row can match.
        (ColumnData::Int(_), Value::Str(_)) | (ColumnData::Str(_), Value::Int(_)) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_matches_row_select() {
        let rows: Vec<Vec<i64>> = (0..50).map(|i| vec![i % 7, i % 3, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let r = Relation::from_int_rows(&refs);
        for sel in [
            Selection::Eq(1, 2),
            Selection::Lt(1, 2),
            Selection::EqConst(1, Value::int(3)),
            Selection::EqConst(1, Value::int(99)),
            Selection::EqConst(1, Value::str("nope")),
        ] {
            assert_eq!(select(&r, &sel), ops::select(&r, &sel), "{sel:?}");
        }
        assert!(select(&Relation::empty(2), &Selection::Eq(1, 2)).is_empty());
    }

    #[test]
    fn select_on_string_and_mixed_columns() {
        let r = Relation::from_str_rows(&[&["a", "a"], &["a", "b"], &["b", "b"]]);
        for sel in [
            Selection::Eq(1, 2),
            Selection::Lt(1, 2),
            Selection::EqConst(2, Value::str("b")),
        ] {
            assert_eq!(select(&r, &sel), ops::select(&r, &sel), "{sel:?}");
        }
        // Mixed column: ints and strings in one column.
        let m = Relation::from_tuples(
            2,
            vec![
                sj_storage::tuple![1, 1],
                sj_storage::tuple![1, "x"],
                sj_storage::tuple!["x", "x"],
            ],
        )
        .unwrap();
        for sel in [
            Selection::Eq(1, 2),
            Selection::Lt(1, 2),
            Selection::EqConst(1, Value::str("x")),
            Selection::EqConst(1, Value::int(1)),
        ] {
            assert_eq!(select(&m, &sel), ops::select(&m, &sel), "{sel:?}");
        }
    }
}
