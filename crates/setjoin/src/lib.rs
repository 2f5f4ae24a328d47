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
//! Every algorithm is cross-validated against the others and against the
//! RA plans of `sj_algebra::division` evaluated by `sj-eval`.
//!
//! All algorithms are also available through the [`registry`] — trait
//! objects behind [`registry::SetJoinAlgorithm`] /
//! [`registry::DivisionAlgorithm`] with the deterministic, cost-based
//! [`registry::Registry::auto_set_join`] and
//! [`registry::Registry::auto_division`] selectors over the operands'
//! `sj_stats::TableStats`. The free functions
//! below remain the convenient direct entry points; prefer the registry
//! (or `sj-eval`'s `Engine`, which routes through it) when the algorithm
//! choice should be configuration rather than code.

pub mod columnar;
pub mod division;
pub mod general;
pub mod inverted;
pub mod parallel;
pub mod registry;
pub mod setjoin;
pub mod wide_signature;

pub use columnar::{columnar_signature_set_join, group_ranges, joint_codes};
pub use division::{
    counting_division, divide, hash_division, nested_loop_division, sort_merge_division,
    DivisionSemantics,
};
pub use general::divide_general;
pub use inverted::inverted_index_set_join;
pub use parallel::{parallel_hash_division, parallel_signature_set_join};
pub use registry::{
    run_division_traced, run_set_join_traced, ComplexityClass, DivisionAlgorithm, Registry,
    SetJoinAlgorithm,
};
pub use setjoin::{
    group_sets, hash_set_equality_join, intersect_join_via_equijoin, nested_loop_set_join,
    set_join, signature_set_join, SetPredicate,
};
pub use wide_signature::{filter_survivors, wide_signature_set_join, WideSignature};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sj_storage::{Relation, Tuple};

    fn arb_pairs(max_key: i64, max_val: i64, len: usize) -> impl Strategy<Value = Relation> {
        proptest::collection::vec((1..=max_key, 1..=max_val), 0..len).prop_map(|rows| {
            Relation::from_tuples(2, rows.into_iter().map(|(a, b)| Tuple::from_ints(&[a, b])))
                .unwrap()
        })
    }

    fn arb_divisor(max_val: i64, len: usize) -> impl Strategy<Value = Relation> {
        proptest::collection::vec(1..=max_val, 0..len).prop_map(|vals| {
            Relation::from_tuples(1, vals.into_iter().map(|v| Tuple::from_ints(&[v]))).unwrap()
        })
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
        Relation::from_tuples(1, out.map(|a| Tuple::new(vec![a]))).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every division algorithm equals the brute-force oracle, both
        /// semantics.
        #[test]
        fn division_algorithms_agree(
            r in arb_pairs(6, 6, 24),
            s in arb_divisor(6, 6),
        ) {
            for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
                let want = oracle_divide(&r, &s, sem);
                for (name, alg) in division::all_algorithms() {
                    prop_assert_eq!(
                        alg(&r, &s, sem),
                        want.clone(),
                        "{} under {:?}", name, sem
                    );
                }
            }
        }

        /// Signature and hash set joins equal the nested-loop baseline on
        /// every predicate.
        #[test]
        fn set_join_algorithms_agree(
            r in arb_pairs(5, 8, 20),
            s in arb_pairs(5, 8, 20),
        ) {
            use SetPredicate::*;
            for pred in [Contains, ContainedIn, Equals, IntersectsNonempty] {
                let want = nested_loop_set_join(&r, &s, pred);
                prop_assert_eq!(
                    signature_set_join(&r, &s, pred),
                    want.clone(),
                    "signature on {:?}", pred
                );
                prop_assert_eq!(set_join(&r, &s, pred), want, "default on {:?}", pred);
            }
        }

        /// Division is the set join against a single-group divisor, in
        /// both semantics: R ÷ S = π_A(R ⋈_{B ⊇ D} {0} × S) and
        /// R ÷₌ S = π_A(R ⋈_{B = D} {0} × S) — through the default set
        /// join and through the partitioned one.
        #[test]
        fn division_is_a_set_join(
            r in arb_pairs(5, 6, 20),
            s in arb_divisor(6, 5),
        ) {
            prop_assume!(!s.is_empty());
            // Lift the divisor into a single C-group keyed 0.
            let lifted = Relation::from_tuples(
                2,
                s.iter().map(|t| Tuple::new(vec![
                    sj_storage::Value::int(0), t[0].clone(),
                ])),
            ).unwrap();
            for (pred, sem) in [
                (SetPredicate::Contains, DivisionSemantics::Containment),
                (SetPredicate::Equals, DivisionSemantics::Equality),
            ] {
                for join in [
                    set_join(&r, &lifted, pred),
                    parallel_signature_set_join(&r, &lifted, pred, 4),
                ] {
                    let via_join = Relation::from_tuples(
                        1,
                        join.iter().map(|t| Tuple::new(vec![t[0].clone()])),
                    ).unwrap();
                    prop_assert_eq!(via_join, divide(&r, &s, sem), "{:?}", sem);
                }
            }
        }

        /// The inverted-index join equals the nested-loop baseline.
        #[test]
        fn inverted_index_agrees(
            r in arb_pairs(5, 8, 20),
            s in arb_pairs(5, 8, 20),
        ) {
            prop_assert_eq!(
                inverted_index_set_join(&r, &s),
                nested_loop_set_join(&r, &s, SetPredicate::Contains)
            );
        }

        /// Wide signatures are exact at every width.
        #[test]
        fn wide_signature_agrees(
            r in arb_pairs(5, 8, 20),
            s in arb_pairs(5, 8, 20),
            words in 1usize..4,
        ) {
            for pred in [SetPredicate::Contains, SetPredicate::Equals] {
                prop_assert_eq!(
                    wide_signature_set_join(&r, &s, pred, words),
                    nested_loop_set_join(&r, &s, pred),
                    "{:?} width {}", pred, words
                );
            }
        }

        /// Generalized division on a single key column reduces to binary
        /// division.
        #[test]
        fn divide_general_reduces(
            r in arb_pairs(6, 6, 24),
            s in arb_divisor(6, 6),
        ) {
            for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
                prop_assert_eq!(
                    divide_general(&r, &[1], 2, &s, sem),
                    divide(&r, &s, sem),
                    "{:?}", sem
                );
            }
        }

        /// Containment in both directions is equality.
        #[test]
        fn contains_both_ways_is_equals(
            r in arb_pairs(4, 6, 16),
            s in arb_pairs(4, 6, 16),
        ) {
            let fwd = set_join(&r, &s, SetPredicate::Contains);
            let bwd = set_join(&r, &s, SetPredicate::ContainedIn);
            let eq = set_join(&r, &s, SetPredicate::Equals);
            let both = fwd.intersection(&bwd).unwrap();
            prop_assert_eq!(both, eq);
        }
    }
}
