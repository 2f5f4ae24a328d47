//! # sj-setjoin — division and set joins as first-class operators
//!
//! The operators the paper is *about*, implemented directly (outside the
//! relational algebra) with the classical algorithm families:
//!
//! * [`division`] — `R(A,B) ÷ S(B)` in both containment and equality
//!   semantics, via nested loops, sort-merge, Graefe's hash-division, and
//!   counting (the Section 5 strategy). All linear-ish except the
//!   deliberate nested-loop baseline — the contrast Proposition 26 proves
//!   is unavoidable *inside* RA.
//! * [`setjoin`] — set-containment / set-equality / subset /
//!   intersection-nonempty joins, via nested loops, Bloom-signature
//!   filtering, group hashing, and the equijoin reduction for `∩ ≠ ∅`.
//!
//! Each set operator is stated once. Every set-join algorithm except the
//! oracle [`nested_loop_set_join`] has one body over the dense operand
//! view of [`columnar`] — integer, string and mixed-variant element
//! columns are encodings of that view, not separate code paths — and
//! every algorithm is declared in exactly one place, the [`registry`]
//! tables, which carry its name, supported predicates, complexity class,
//! cost formula and `run` function. The property tests below state
//! "every table entry ≡ the oracle" once, over the tables.
//!
//! The [`registry`] also holds the deterministic, cost-based
//! [`registry::Registry::auto_set_join`] and
//! [`registry::Registry::auto_division`] selectors over the operands'
//! `sj_stats::TableStats`. The free functions re-exported below are the
//! direct entry points when the caller knows which algorithm it means;
//! prefer the registry (or `sj-eval`'s `Engine`, which routes through it)
//! when the algorithm choice should be configuration rather than code.

pub mod columnar;
pub mod division;
pub mod inverted;
pub mod parallel;
pub mod registry;
pub mod setjoin;
pub mod wide_signature;

pub use division::{
    counting_division, hash_division, nested_loop_division, sort_merge_division, DivisionSemantics,
};
pub use inverted::inverted_index_set_join;
pub use parallel::{parallel_hash_division, parallel_signature_set_join};
pub use registry::{
    run_division_traced, run_set_join_traced, ComplexityClass, DivisionAlgorithm, Registry,
    SetJoinAlgorithm,
};
pub use setjoin::{
    hash_set_equality_join, intersect_join_via_equijoin, nested_loop_set_join, signature_set_join,
    SetPredicate,
};
pub use wide_signature::{filter_survivors, wide_signature_set_join};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sj_storage::{Relation, Tuple, Value};

    /// How a generated integer becomes an element cell — one variant per
    /// encoding of the operand view.
    #[derive(Clone, Copy, Debug)]
    enum Cells {
        /// All integers: the zero-copy `i64` column.
        Int,
        /// All strings: codes remapped through the merged dictionaries.
        Str,
        /// Integers and strings in one column: coded like strings.
        Mixed,
    }

    impl Cells {
        fn cell(self, v: i64) -> Value {
            match self {
                Cells::Int => Value::int(v),
                // Not zero-padded: string order differs from integer
                // order, so an order-confusing encoding shows.
                Cells::Str => Value::str(format!("{v}")),
                Cells::Mixed if v % 2 == 0 => Value::int(v),
                Cells::Mixed => Value::str(format!("{}", v / 2)),
            }
        }
    }

    /// The element kinds of an operand pair: all-int, all-string, mixed
    /// int+string in one column, and an int operand against a string one
    /// (the int column coded against its own distinct values).
    const KINDS: [(Cells, Cells); 4] = [
        (Cells::Int, Cells::Int),
        (Cells::Str, Cells::Str),
        (Cells::Mixed, Cells::Mixed),
        (Cells::Int, Cells::Str),
    ];

    /// The group-key kinds of column A: the quotient and the join output
    /// read their keys back from an `Int`, a `Str` (whose string order
    /// is not the integers' order) or a `Mixed` column.
    const KEYS: [Cells; 3] = [Cells::Int, Cells::Str, Cells::Mixed];

    /// Worker counts for the divisions: serial, an even and an odd split,
    /// and more workers than most operands have groups.
    const DIVISION_WORKERS: [usize; 4] = [1, 2, 3, 8];

    fn relation(rows: &[(i64, i64)], keys: Cells, cells: Cells) -> Relation {
        let tuples = rows
            .iter()
            .map(|&(a, b)| Tuple::from([keys.cell(a), cells.cell(b)]));
        Relation::from_tuples(2, tuples).unwrap()
    }

    fn arb_rows(max_key: i64, max_val: i64, len: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
        proptest::collection::vec((1..=max_key, 1..=max_val), 0..len)
    }

    fn arb_pairs(max_key: i64, max_val: i64, len: usize) -> impl Strategy<Value = Relation> {
        arb_rows(max_key, max_val, len).prop_map(|rows| relation(&rows, Cells::Int, Cells::Int))
    }

    fn arb_divisor(max_val: i64, len: usize) -> impl Strategy<Value = Vec<i64>> {
        proptest::collection::vec(1..=max_val, 0..len)
    }

    fn divisor(vals: &[i64], cells: Cells) -> Relation {
        Relation::from_tuples(1, vals.iter().map(|&v| Tuple::from([cells.cell(v)]))).unwrap()
    }

    /// Brute-force division oracle.
    fn oracle_divide(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
        let divisor: Vec<_> = s.iter().map(|t| t[0].clone()).collect();
        let mut keys: Vec<_> = r.iter().map(|t| t[0].clone()).collect();
        keys.sort();
        keys.dedup();
        let out = keys.into_iter().filter(|a| {
            let bs: Vec<_> = r
                .iter()
                .filter(|t| &t[0] == a)
                .map(|t| t[1].clone())
                .collect();
            match sem {
                DivisionSemantics::Containment => divisor.iter().all(|d| bs.contains(d)),
                DivisionSemantics::Equality => {
                    divisor.iter().all(|d| bs.contains(d)) && bs.len() == divisor.len()
                }
            }
        });
        Relation::from_tuples(1, out.map(|a| Tuple::from([a]))).unwrap()
    }

    /// Every set-join table entry, on every predicate it supports, at
    /// one and three workers, equals the nested-loop oracle.
    fn assert_set_joins_match_the_oracle(r: &Relation, s: &Relation, what: &str) {
        for pred in SetPredicate::ALL {
            let want = nested_loop_set_join(r, s, pred);
            for alg in Registry::standard().set_join_algorithms() {
                for workers in [1, 3] {
                    if alg.supports(pred) {
                        assert_eq!(
                            alg.run(r, s, pred, workers),
                            want,
                            "{} on {pred:?} at {workers} workers, {what}",
                            alg.name()
                        );
                    }
                }
            }
        }
    }

    /// Every division table entry, both semantics, at every
    /// [`DIVISION_WORKERS`] count, equals the brute-force oracle.
    fn assert_divisions_match_the_oracle(r: &Relation, s: &Relation, what: &str) {
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let want = oracle_divide(r, s, sem);
            for alg in Registry::standard().division_algorithms() {
                for workers in DIVISION_WORKERS {
                    assert_eq!(
                        alg.run(r, s, sem, workers),
                        want,
                        "{} under {sem:?} at {workers} workers, {what}",
                        alg.name()
                    );
                }
            }
        }
    }

    /// The shapes partitioning finds hardest, as fixed cases of the one
    /// statement: empty, one key holding everything, all-duplicate rows,
    /// one element shared by every key, harmonic key frequencies, and a
    /// benign mix.
    #[test]
    fn every_algorithm_equals_the_oracle_on_adversarial_operands() {
        let shapes: Vec<(&str, Vec<(i64, i64)>)> = vec![
            ("empty", vec![]),
            ("skewed-key", (0..60).map(|i| (7, i)).collect()),
            ("all-duplicate", (0..50).map(|_| (3, 9)).collect()),
            ("shared-value", (0..40).map(|i| (i, 5)).collect()),
            ("zipf-key", (0..90).map(|i| (90 / (i + 1), i % 7)).collect()),
            ("mixed", (0..80).map(|i| (i % 13, i % 7)).collect()),
        ];
        for (rname, rrows) in &shapes {
            for keys in KEYS {
                for (rc, sc) in KINDS {
                    let r = relation(rrows, keys, rc);
                    for (sname, srows) in &shapes {
                        let what = format!("{rname} {keys:?}/{rc:?} ⋈ {sname} {sc:?}");
                        let s = relation(srows, keys, sc);
                        assert_set_joins_match_the_oracle(&r, &s, &what);
                    }
                    for vals in [&[][..], &[5], &[0, 5, 9]] {
                        let what = format!("{rname} {keys:?}/{rc:?} ÷ {vals:?} {sc:?}");
                        assert_divisions_match_the_oracle(&r, &divisor(vals, sc), &what);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every algorithm ≡ the oracle, stated once over the tables:
        /// every predicate × every set-join entry that supports it at
        /// workers ∈ {1, 3}, and both semantics × every division entry
        /// at every [`DIVISION_WORKERS`] count, × every group-key kind ×
        /// every element kind. It iterates the arrays, so a new entry
        /// is covered without editing a list.
        #[test]
        fn every_algorithm_equals_the_oracle(
            r in arb_rows(5, 8, 20),
            s in arb_rows(5, 8, 20),
            d in arb_divisor(8, 6),
        ) {
            for keys in KEYS {
                for (rc, sc) in KINDS {
                    let what = format!("{keys:?} keys, {rc:?} against {sc:?}");
                    let rel = relation(&r, keys, rc);
                    assert_set_joins_match_the_oracle(&rel, &relation(&s, keys, sc), &what);
                    assert_divisions_match_the_oracle(&rel, &divisor(&d, sc), &what);
                }
            }
        }

        /// Division is the set join against a single-group divisor, in
        /// both semantics: R ÷ S = π_A(R ⋈_{B ⊇ D} {0} × S) and
        /// R ÷₌ S = π_A(R ⋈_{B = D} {0} × S) — through the serial
        /// signature join and through the partitioned one.
        #[test]
        fn division_is_a_set_join(
            r in arb_pairs(5, 6, 20),
            s in arb_divisor(6, 5),
        ) {
            prop_assume!(!s.is_empty());
            let s = divisor(&s, Cells::Int);
            // Lift the divisor into a single C-group keyed 0.
            let lifted = Relation::from_tuples(
                2,
                s.iter().map(|t| Tuple::from([Value::int(0), t[0].clone()])),
            ).unwrap();
            for (pred, sem) in [
                (SetPredicate::Contains, DivisionSemantics::Containment),
                (SetPredicate::Equals, DivisionSemantics::Equality),
            ] {
                for join in [
                    signature_set_join(&r, &lifted, pred),
                    parallel_signature_set_join(&r, &lifted, pred, 4),
                ] {
                    let via_join = Relation::from_tuples(
                        1,
                        join.iter().map(|t| Tuple::from([t[0].clone()])),
                    ).unwrap();
                    prop_assert_eq!(via_join, hash_division(&r, &s, sem), "{:?}", sem);
                }
            }
        }

        /// Containment in both directions is equality.
        #[test]
        fn contains_both_ways_is_equals(
            r in arb_pairs(4, 6, 16),
            s in arb_pairs(4, 6, 16),
        ) {
            let fwd = signature_set_join(&r, &s, SetPredicate::Contains);
            let bwd = signature_set_join(&r, &s, SetPredicate::ContainedIn);
            let eq = hash_set_equality_join(&r, &s);
            let both = fwd.intersection(&bwd).unwrap();
            prop_assert_eq!(both, eq);
        }
    }
}
