//! Generalized division: composite dividend keys.
//!
//! The paper's `R(A, B) ÷ S(B)` has a single key attribute A, but the
//! operator generalizes to any dividend `R(A₁, …, A_k, …, B, …)`: divide on
//! a chosen *key column set* and a chosen *value column*. This is the form
//! a downstream engine actually needs (e.g. "(student, semester) pairs
//! that completed all core courses").

use crate::division::DivisionSemantics;
use sj_storage::{FxHashMap, FxHashSet, Relation, Tuple, Value};

/// `R ÷ S` with a composite key: returns the distinct `key_cols`
/// projections of `r` whose associated set of `value_col` values contains
/// (or equals) the divisor.
///
/// `key_cols` and `value_col` are 1-based column references into `r`;
/// `s` must be unary. Columns may be listed in any order; they need not be
/// disjoint from `value_col` (though that is the useful case).
///
/// Runs in expected `O(|r| + |s|)` via counting, like
/// [`crate::division::counting_division`].
///
/// ```
/// use sj_setjoin::{divide_general, DivisionSemantics};
/// use sj_storage::Relation;
/// // (student, semester, course): who finished all core courses per semester?
/// let taken = Relation::from_int_rows(&[
///     &[1, 1, 101], &[1, 1, 102],
///     &[1, 2, 101],
///     &[2, 1, 101], &[2, 1, 102],
/// ]);
/// let core = Relation::from_int_rows(&[&[101], &[102]]);
/// let done = divide_general(&taken, &[1, 2], 3, &core, DivisionSemantics::Containment);
/// assert_eq!(done, Relation::from_int_rows(&[&[1, 1], &[2, 1]]));
/// ```
pub fn divide_general(
    r: &Relation,
    key_cols: &[usize],
    value_col: usize,
    s: &Relation,
    sem: DivisionSemantics,
) -> Relation {
    assert_eq!(s.arity(), 1, "divisor must be unary");
    assert!(!key_cols.is_empty(), "need at least one key column");
    for &c in key_cols.iter().chain([&value_col]) {
        assert!(
            c >= 1 && c <= r.arity(),
            "column {c} out of range for arity {}",
            r.arity()
        );
    }
    let divisor: FxHashSet<&Value> = s.iter().map(|t| &t[0]).collect();
    let key0: Vec<usize> = key_cols.iter().map(|&c| c - 1).collect();
    let v0 = value_col - 1;
    // Per key: the set of seen divisor values (distinct!) and whether any
    // non-divisor value occurred. (A composite-key dividend may repeat a
    // (key, value) pair across other columns, so we must deduplicate.)
    struct Acc {
        seen: FxHashSet<Value>,
        extra: bool,
    }
    let mut groups: FxHashMap<Vec<Value>, Acc> = FxHashMap::default();
    for t in r {
        let key: Vec<Value> = key0.iter().map(|&c| t[c].clone()).collect();
        let acc = groups.entry(key).or_insert_with(|| Acc {
            seen: FxHashSet::default(),
            extra: false,
        });
        let v = &t[v0];
        if divisor.contains(v) {
            acc.seen.insert(v.clone());
        } else {
            acc.extra = true;
        }
    }
    let need = divisor.len();
    let out = groups.into_iter().filter_map(|(key, acc)| {
        let ok = match sem {
            DivisionSemantics::Containment => acc.seen.len() == need,
            DivisionSemantics::Equality => acc.seen.len() == need && !acc.extra,
        };
        ok.then(|| Tuple::new(key))
    });
    Relation::from_tuples(key_cols.len(), out).expect("key arity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use DivisionSemantics::{Containment, Equality};

    fn taken() -> Relation {
        // (student, semester, course)
        Relation::from_int_rows(&[
            &[1, 1, 101],
            &[1, 1, 102],
            &[1, 2, 101],
            &[2, 1, 101],
            &[2, 1, 102],
            &[2, 1, 999], // an elective
        ])
    }

    fn core() -> Relation {
        Relation::from_int_rows(&[&[101], &[102]])
    }

    #[test]
    fn composite_key_containment() {
        let got = divide_general(&taken(), &[1, 2], 3, &core(), Containment);
        assert_eq!(got, Relation::from_int_rows(&[&[1, 1], &[2, 1]]));
    }

    #[test]
    fn composite_key_equality_excludes_electives() {
        let got = divide_general(&taken(), &[1, 2], 3, &core(), Equality);
        // student 2 took an elective in semester 1: excluded.
        assert_eq!(got, Relation::from_int_rows(&[&[1, 1]]));
    }

    #[test]
    fn reduces_to_binary_division() {
        let r = Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 7], &[3, 8], &[3, 9]]);
        let s = Relation::from_int_rows(&[&[7], &[8]]);
        for sem in [Containment, Equality] {
            assert_eq!(
                divide_general(&r, &[1], 2, &s, sem),
                crate::division::hash_division(&r, &s, sem),
                "{sem:?}"
            );
        }
    }

    #[test]
    fn key_order_controls_output_columns() {
        let got = divide_general(&taken(), &[2, 1], 3, &core(), Containment);
        assert_eq!(got, Relation::from_int_rows(&[&[1, 1], &[1, 2]]));
    }

    #[test]
    fn duplicate_pairs_across_other_columns_counted_once() {
        // (key, payload, value): the same (key, value) appears under two
        // payloads — must count once.
        let r = Relation::from_int_rows(&[&[1, 100, 7], &[1, 200, 7], &[1, 100, 8]]);
        let s = Relation::from_int_rows(&[&[7], &[8]]);
        let got = divide_general(&r, &[1], 3, &s, Containment);
        assert_eq!(got, Relation::from_int_rows(&[&[1]]));
        // Equality: no non-divisor values at all → still qualifies.
        let got_eq = divide_general(&r, &[1], 3, &s, Equality);
        assert_eq!(got_eq, Relation::from_int_rows(&[&[1]]));
    }

    #[test]
    fn empty_divisor_containment_keeps_all_keys() {
        let got = divide_general(&taken(), &[1], 3, &Relation::empty(1), Containment);
        assert_eq!(got, Relation::from_int_rows(&[&[1], &[2]]));
        let got_eq = divide_general(&taken(), &[1], 3, &Relation::empty(1), Equality);
        assert!(got_eq.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_column_panics() {
        divide_general(&taken(), &[4], 3, &core(), Containment);
    }
}
