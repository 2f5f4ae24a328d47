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
//! Output-equivalent to [`crate::ops::select`]; `tests/vectorized.rs`
//! holds the two byte-identical on every predicate shape and column
//! kind. The selection vector holds `u32` row indices, so the input must
//! fit them ([`sj_storage::ensure_u32_indexable`]); the planner checks
//! before it calls.

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
/// from the row's first `k` values; for `k = arity` it is a clone of the
/// row, which holds a row of arity ≤ 2 inline and so allocates nothing.
pub(crate) fn gather(r: &Relation, k: usize, len: usize, row: impl Fn(usize) -> usize) -> Relation {
    let rows = r.tuples();
    let out: Vec<Tuple> = if k == r.arity() {
        (0..len).map(|p| rows[row(p)].clone()).collect()
    } else {
        let starts = r.columns().run_starts(k, len, &row);
        starts[..starts.len() - 1]
            .iter()
            .map(|&p| rows[row(p)].values()[..k].iter().cloned().collect())
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

/// Vectorized `σ(r)`. Output-equivalent to [`crate::ops::select`].
pub fn select(r: &Relation, sel: &Selection) -> Relation {
    project_select(r, sel, r.arity())
}

/// Vectorized `π[1..k](σ(r))` for `k ≤ arity(r)`: the selection vector
/// of [`select`], gathered as distinct `k`-prefixes. `k = arity(r)` is
/// [`select`] itself. `r` must fit `u32` row ids.
pub fn project_select(r: &Relation, sel: &Selection, k: usize) -> Relation {
    let cols = r.columns();
    let keep = match sel {
        Selection::Eq(i, j) => sel_cmp(cols, *i - 1, *j - 1, Ordering::is_eq),
        Selection::Lt(i, j) => sel_cmp(cols, *i - 1, *j - 1, Ordering::is_lt),
        Selection::EqConst(i, c) => sel_eq_const(cols, *i - 1, c),
    };
    gather(r, k, keep.len(), |p| keep[p] as usize)
}

/// Selection vector for `σ_{i=j}` (`keep = Ordering::is_eq`) or
/// `σ_{i<j}` (`Ordering::is_lt`). Two columns of one relation share its
/// dictionary, so two coded columns compare by code; an integer column
/// against a coded one compares values row by row.
fn sel_cmp(cols: &Columns, i: usize, j: usize, keep: impl Fn(Ordering) -> bool) -> Vec<u32> {
    match (cols.col(i), cols.col(j)) {
        (ColumnData::Int(a), ColumnData::Int(b)) => {
            positions(a.iter().zip(b).map(|(x, y)| keep(x.cmp(y))))
        }
        (ColumnData::Coded(a), ColumnData::Coded(b)) => {
            positions(a.iter().zip(b).map(|(x, y)| keep(x.cmp(y))))
        }
        _ => positions(
            (0..cols.len()).map(|row| keep(cols.value_at(i, row).cmp(&cols.value_at(j, row)))),
        ),
    }
}

/// Selection vector for `σ_{i=c}`: one dictionary lookup, then a dense
/// scan; a constant absent from the column's domain matches nothing.
fn sel_eq_const(cols: &Columns, i: usize, c: &Value) -> Vec<u32> {
    match cols.col(i) {
        ColumnData::Int(v) => match c.as_int() {
            Some(x) => positions(v.iter().map(|&val| val == x)),
            None => Vec::new(),
        },
        ColumnData::Coded(codes) => match cols.dict().code_of(c) {
            Some(code) => positions(codes.iter().map(|&cd| cd == code)),
            None => Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

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
