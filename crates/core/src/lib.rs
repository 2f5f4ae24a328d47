//! # sj-core — the paper's contribution: the linear/quadratic dichotomy
//!
//! This crate implements the machinery of Sections 3–4 of Leinders & Van
//! den Bussche:
//!
//! * [`freevals`] — free values of a joining tuple (Definition 22) and the
//!   constrained/unconstrained column sets (via `sj-algebra`'s
//!   Definition 20 support).
//! * [`pump`] — the **Lemma 24 construction**: from a witness database
//!   with a joining pair whose free-value sets are both nonempty, the
//!   linear-size database family `Dₙ` on which the join emits ≥ n²
//!   tuples. Reproduces Fig. 4 exactly (see the tests).
//! * [`rewrite`] — the **Theorem 18 rewriter** turning syntactically
//!   determined joins into SA= (the `Z₁ ∪ Z₂` construction, specialized to
//!   the syntactically recognizable case).
//! * [`mod@analyze`] — the dichotomy analyzer combining both halves into a
//!   `Linear { sa_equivalent } / Quadratic { witness } / Undetermined`
//!   verdict with machine-checkable certificates.
//! * [`growth`] — measured growth exponents (log-log least squares) that
//!   turn the asymptotic statements into reproducible numbers.

pub mod analyze;
pub mod error;
pub mod freevals;
pub mod growth;
pub mod pump;
pub mod rewrite;

pub use analyze::{analyze, find_witness, QuadraticWitness, Verdict};
pub use error::CoreError;
pub use freevals::{free_values_left, free_values_right, interval_contains};
pub use growth::{log_log_slope, measure_growth, GrowthPoint, GrowthReport};
pub use pump::Pump;
pub use rewrite::{constant_columns, to_sa_eq};

#[cfg(test)]
mod integration {
    use super::*;
    use sj_algebra::{Condition, Expr};
    use sj_bisim::are_bisimilar;
    use sj_eval::{evaluate, evaluate_instrumented};
    use sj_storage::{tuple, Database, Relation, Tuple};

    /// The Fig. 4 setting, end to end: pump, then *evaluate the actual
    /// expression* E = (R ⋉₁₌₂ T) ⋈₃₌₁ (S ⋉₂₌₁ T) on Dₙ and check the n²
    /// lower bound and the linear-size upper bound — Lemma 24 verified
    /// semantically, not just on the copy tuples.
    #[test]
    fn fig4_lemma24_end_to_end() {
        let mut d = Database::new();
        d.set("R", Relation::from_int_rows(&[&[1, 2, 3], &[8, 9, 10]]));
        d.set("S", Relation::from_int_rows(&[&[3, 4, 5]]));
        d.set("T", Relation::from_int_rows(&[&[6, 1], &[4, 7]]));
        let e1 = Expr::rel("R").semijoin(Condition::eq(1, 2), Expr::rel("T"));
        let e2 = Expr::rel("S").semijoin(Condition::eq(2, 1), Expr::rel("T"));
        let e = e1.clone().join(Condition::eq(3, 1), e2.clone());

        // The witness pair is exactly the paper's: ā = (1,2,3), b̄ = (3,4,5).
        assert_eq!(
            evaluate(&e1, &d).unwrap(),
            Relation::from_int_rows(&[&[1, 2, 3]])
        );
        assert_eq!(
            evaluate(&e2, &d).unwrap(),
            Relation::from_int_rows(&[&[3, 4, 5]])
        );

        let pump = Pump::new(
            &d,
            &Condition::eq(3, 1),
            &tuple![1, 2, 3],
            &tuple![3, 4, 5],
            &[],
            8,
        )
        .unwrap();
        for n in [2usize, 4, 8] {
            let dn = pump.database(n);
            assert!(dn.size() <= pump.size_constant() * n, "size bound at n={n}");
            let (_, report) = evaluate_instrumented(&e, &dn).unwrap();
            assert!(
                report.output_rows >= n * n,
                "|E(D{n})| = {} < n² = {}",
                report.output_rows,
                n * n
            );
            // E₁(Dₙ) contains every left copy (guarded bisimilarity at
            // work: Corollary 14).
            let e1_out = evaluate(&e1, &dn).unwrap();
            for c in pump.left_copies(n) {
                assert!(e1_out.contains(&c), "E1(Dn) missing copy {c}");
            }
        }
    }

    /// The copies created by the pump are guarded-bisimilar to the
    /// originals — the heart of the Lemma 24 proof (D, ā ∼ Dₙ, f₁⁽ᵏ⁾(ā)).
    #[test]
    fn pump_copies_are_bisimilar() {
        let mut d = Database::new();
        d.set("R", Relation::from_int_rows(&[&[1, 2, 3], &[8, 9, 10]]));
        d.set("S", Relation::from_int_rows(&[&[3, 4, 5]]));
        d.set("T", Relation::from_int_rows(&[&[6, 1], &[4, 7]]));
        let pump = Pump::new(
            &d,
            &Condition::eq(3, 1),
            &tuple![1, 2, 3],
            &tuple![3, 4, 5],
            &[],
            4,
        )
        .unwrap();
        let n = 3;
        let dn = pump.database(n);
        let base = pump.base();
        let (a, b) = pump.witness();
        for copy in pump.left_copies(n) {
            assert!(
                are_bisimilar(base, a, &dn, &copy, &[]).is_some(),
                "D,ā ∼ Dₙ,{copy} fails"
            );
        }
        for copy in pump.right_copies(n) {
            assert!(
                are_bisimilar(base, b, &dn, &copy, &[]).is_some(),
                "D,b̄ ∼ Dₙ,{copy} fails"
            );
        }
    }

    /// Theorem 17 in action on a mixed corpus: every verdict is Linear or
    /// Quadratic (none Undetermined), and measured exponents agree with
    /// the verdicts.
    #[test]
    fn dichotomy_on_small_corpus() {
        let schema = sj_storage::Schema::new([("R", 2), ("S", 1)]);
        let mut seed = Database::new();
        seed.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 9]]),
        );
        seed.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        let corpus: Vec<(Expr, bool)> = vec![
            // (expression, expected_quadratic)
            (
                sj_algebra::division::division_double_difference("R", "S"),
                true,
            ),
            (sj_algebra::division::division_via_join("R", "S"), true),
            (sj_algebra::division::division_equality("R", "S"), true),
            (
                Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S")),
                false,
            ),
            (
                Expr::rel("R").semijoin(Condition::eq(2, 1), Expr::rel("S")),
                false,
            ),
            (Expr::rel("R").project([1]).union(Expr::rel("S")), false),
            (Expr::rel("R").product(Expr::rel("S")), true),
        ];
        for (e, expect_quadratic) in corpus {
            let verdict = analyze(&e, &schema, std::slice::from_ref(&seed)).unwrap();
            if expect_quadratic {
                assert!(verdict.is_quadratic(), "{e} should be quadratic");
            } else {
                assert!(verdict.is_linear(), "{e} should be linear");
            }
        }
    }

    /// A quadratic witness, when pumped, produces a family whose measured
    /// exponent is ≈ 2 for the witnessed join node.
    #[test]
    fn witness_pump_measures_quadratic() {
        let schema = sj_storage::Schema::new([("R", 2), ("S", 1)]);
        let mut seed = Database::new();
        seed.set("R", Relation::from_int_rows(&[&[1, 7], &[2, 8]]));
        seed.set("S", Relation::from_int_rows(&[&[7]]));
        let e = sj_algebra::division::division_double_difference("R", "S");
        let Verdict::Quadratic { witness } =
            analyze(&e, &schema, std::slice::from_ref(&seed)).unwrap()
        else {
            panic!("expected quadratic")
        };
        let pump = witness.pump(&[], 32).unwrap();
        let points: Vec<(f64, f64)> = [4usize, 8, 16, 32]
            .iter()
            .map(|&n| {
                let (size, pairs) = pump.verify(n);
                (size as f64, pairs as f64)
            })
            .collect();
        let slope = log_log_slope(&points);
        assert!(slope > 1.7, "pumped family slope {slope} not quadratic");
    }

    /// Linear verdicts come with equivalent SA= certificates whose
    /// intermediates never exceed the database size on scaled inputs.
    #[test]
    fn linear_certificate_is_actually_linear() {
        let schema = sj_storage::Schema::new([("R", 2), ("S", 1)]);
        let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S"));
        let Verdict::Linear { sa_equivalent } = analyze(&e, &schema, &[]).unwrap() else {
            panic!("expected linear")
        };
        for k in [10i64, 40, 160] {
            let rows: Vec<[i64; 2]> = (1..=k).map(|a| [a, 1000 + a % 7]).collect();
            let slices: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut db = Database::new();
            db.set("R", Relation::from_int_rows(&slices));
            db.set(
                "S",
                Relation::unary((0..7).map(|b| sj_storage::Value::int(1000 + b))),
            );
            let (result, report) = evaluate_instrumented(&sa_equivalent, &db).unwrap();
            assert!(report.max_intermediate() <= db.size());
            // And equivalence holds at every scale.
            assert_eq!(result, evaluate(&e, &db).unwrap());
        }
    }

    /// Tuple helper sanity for this module.
    #[test]
    fn tuple_macro_available() {
        let t: Tuple = tuple![1, 2, 3];
        assert_eq!(t.arity(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sj_algebra::{Condition, Expr};
    use sj_eval::evaluate;
    use sj_storage::{Database, Relation, Tuple};

    fn arb_db() -> impl Strategy<Value = Database> {
        (
            proptest::collection::vec((1i64..8, 101i64..109), 1..10),
            proptest::collection::vec(101i64..109, 1..6),
        )
            .prop_map(|(pairs, divisor)| {
                let mut db = Database::new();
                db.set(
                    "R",
                    Relation::from_tuples(
                        2,
                        pairs.into_iter().map(|(a, b)| Tuple::from_ints(&[a, b])),
                    )
                    .unwrap(),
                );
                db.set(
                    "S",
                    Relation::from_tuples(1, divisor.into_iter().map(|b| Tuple::from_ints(&[b])))
                        .unwrap(),
                );
                db
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Lemma 24 invariants hold for every witness the analyzer finds
        /// on random databases: |Dₙ| ≤ c·n and ≥ n² joining copy pairs.
        #[test]
        fn pump_invariants_on_random_witnesses(db in arb_db()) {
            let e = Expr::rel("R").project([1]).product(Expr::rel("S"));
            let schema = db.schema();
            if let Ok(Some(w)) =
                find_witness(&e, &schema, std::slice::from_ref(&db))
            {
                let pump = w.pump(&[], 12).unwrap();
                for n in [2usize, 5, 12] {
                    let (size, pairs) = pump.verify(n);
                    prop_assert!(size <= pump.size_constant() * n);
                    prop_assert!(pairs >= n * n);
                    // The pumped database really contains the base.
                    let dn = pump.database(n);
                    for (name, rel) in pump.base().iter() {
                        prop_assert!(rel.is_subset_of(dn.get(name).unwrap()));
                    }
                }
            }
        }

        /// The rewriter's SA= output is equivalent on random databases
        /// whenever it succeeds, for a family of joins with mixed
        /// conditions.
        #[test]
        fn rewriter_equivalence_random(db in arb_db(), which in 0u8..4) {
            let e = match which {
                0 => Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S")),
                1 => Expr::rel("R")
                    .join(Condition::eq(2, 1).and(1, sj_algebra::CompOp::Lt, 1), Expr::rel("S")),
                2 => Expr::rel("S").join(Condition::eq(1, 2), Expr::rel("R")),
                _ => Expr::rel("R")
                    .join(Condition::eq(2, 1).and(1, sj_algebra::CompOp::Neq, 1), Expr::rel("S")),
            };
            let schema = db.schema();
            if let Ok(sa) = to_sa_eq(&e, &schema) {
                prop_assert!(sa.is_sa_eq());
                prop_assert_eq!(
                    evaluate(&e, &db).unwrap(),
                    evaluate(&sa, &db).unwrap(),
                    "{}", e
                );
            }
        }

        /// Growth measurement is monotone under database inclusion for
        /// monotone expressions (sanity of the measurement tool).
        #[test]
        fn measurement_tool_sane(db in arb_db()) {
            let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S"));
            let report = measure_growth(&e, std::slice::from_ref(&db)).unwrap();
            prop_assert_eq!(report.points.len(), 1);
            prop_assert_eq!(report.points[0].db_size, db.size());
            prop_assert_eq!(report.exponent, 0.0); // single point → slope 0
        }
    }
}
