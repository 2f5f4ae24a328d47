//! Cross-crate dichotomy experiments (E7, E8, E9, E12 of DESIGN.md):
//! measured growth exponents confirm the Theorem 17 dichotomy, the
//! Proposition 26 quadratic lower bound for RA division plans, the
//! linearity of the Section 5 counting expression, and the linearity of
//! SA= plans.

use setjoins::prelude::*;
use sj_core::{analyze, measure_growth, Verdict};
use sj_eval::evaluate;
use sj_workload::{adversarial_division_series, DivisionWorkload};

fn series() -> Vec<Database> {
    // The adversarial family: |D| = Θ(k), product node Θ(k²).
    adversarial_division_series(&[16, 32, 64, 128], 7)
}

/// E8 — every classical RA division plan is measured quadratic: the
/// fitted exponent of the max intermediate size is ≈ 2 on a linear-size
/// workload family.
#[test]
fn ra_division_plans_measured_quadratic() {
    let series = series();
    for (name, plan) in [
        (
            "double-difference",
            sj_algebra::division::division_double_difference("R", "S"),
        ),
        (
            "via-join",
            sj_algebra::division::division_via_join("R", "S"),
        ),
        (
            "equality",
            sj_algebra::division::division_equality("R", "S"),
        ),
    ] {
        let report = measure_growth(&plan, &series).unwrap();
        assert!(
            report.exponent > 1.7,
            "{name}: exponent {} not quadratic",
            report.exponent
        );
        assert_eq!(report.classification(), "quadratic-like", "{name}");
    }
}

/// E9 — the Section 5 counting expression is measured linear (its
/// intermediates never exceed |D| + a constant).
#[test]
fn counting_division_measured_linear() {
    let series = series();
    for (name, plan) in [
        (
            "counting",
            sj_algebra::division::division_counting("R", "S"),
        ),
        (
            "counting-eq",
            sj_algebra::division::division_equality_counting("R", "S"),
        ),
    ] {
        let report = measure_growth(&plan, &series).unwrap();
        assert!(
            report.exponent < 1.3,
            "{name}: exponent {} not linear",
            report.exponent
        );
        for p in &report.points {
            assert!(
                p.max_intermediate <= p.db_size + 2,
                "{name}: intermediate {} exceeds |D| {}",
                p.max_intermediate,
                p.db_size
            );
        }
    }
}

/// E9 — correctness at every scale: the counting expression and the
/// quadratic plan compute the same quotient, which matches the workload's
/// expected winners and the direct algorithms.
#[test]
fn all_division_routes_agree_on_workloads() {
    for groups in [8usize, 32, 96] {
        let w = DivisionWorkload {
            groups,
            divisor_size: 5,
            containment_fraction: 0.4,
            extra_per_group: 3,
            noise_domain: 64,
            seed: groups as u64 * 31,
        };
        let (r, s, expected) = w.generate();
        let mut db = Database::new();
        db.set("R", r.clone());
        db.set("S", s.clone());
        let dd = evaluate(
            &sj_algebra::division::division_double_difference("R", "S"),
            &db,
        )
        .unwrap();
        let cnt = evaluate(&sj_algebra::division::division_counting("R", "S"), &db).unwrap();
        assert_eq!(dd, expected);
        assert_eq!(cnt, expected);
        assert_eq!(
            sj_setjoin::hash_division(&r, &s, DivisionSemantics::Containment),
            expected
        );
    }
}

/// E7 — the dichotomy on a corpus: analyzer verdicts and measured
/// exponents agree, and the exponent distribution is bimodal with nothing
/// between 1.3 and 1.7.
#[test]
fn dichotomy_corpus_bimodal() {
    let schema = Schema::new([("R", 2), ("S", 1)]);
    let seeds = vec![sj_workload::DivisionWorkload {
        groups: 6,
        divisor_size: 3,
        containment_fraction: 0.5,
        extra_per_group: 2,
        noise_domain: 16,
        seed: 5,
    }
    .database()];
    let series = series();
    let corpus: Vec<Expr> = vec![
        sj_algebra::division::division_double_difference("R", "S"),
        sj_algebra::division::division_via_join("R", "S"),
        sj_algebra::division::division_equality("R", "S"),
        Expr::rel("R").product(Expr::rel("S")),
        Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S")),
        Expr::rel("R").semijoin(Condition::eq(2, 1), Expr::rel("S")),
        Expr::rel("R").project([1]),
        Expr::rel("R").project([1]).union(Expr::rel("S")),
        Expr::rel("R").select_lt(1, 2).project([2, 1]),
        Expr::rel("R").diff(Expr::rel("R").select_eq(1, 2)),
    ];
    for e in corpus {
        let verdict = analyze(&e, &schema, &seeds).unwrap();
        let report = measure_growth(&e, &series).unwrap();
        match verdict {
            Verdict::Linear { sa_equivalent } => {
                assert!(
                    report.exponent < 1.3,
                    "{e}: verdict Linear but exponent {}",
                    report.exponent
                );
                // The certificate is equivalent on every database of the series.
                for db in &series {
                    assert_eq!(
                        evaluate(&e, db).unwrap(),
                        evaluate(&sa_equivalent, db).unwrap(),
                        "{e}"
                    );
                }
            }
            Verdict::Quadratic { .. } => {
                assert!(
                    report.exponent > 1.7,
                    "{e}: verdict Quadratic but exponent {}",
                    report.exponent
                );
            }
            Verdict::Undetermined => panic!("{e}: analyzer undetermined on corpus"),
        }
        assert!(
            !(1.3..=1.7).contains(&report.exponent),
            "{e}: exponent {} in the forbidden band — no n·log n in RA!",
            report.exponent
        );
    }
}

/// E12 — SA= plans are linear by construction: max intermediate ≤ |D| on
/// every database of a scaling series, while the equivalent *join* plan of
/// the same query stays linear too (the paper's note under Theorem 18) —
/// contrast with the inherently quadratic division plans.
#[test]
fn semijoin_plans_linear_on_series() {
    let series = series();
    let sa = Expr::rel("R")
        .semijoin(Condition::eq(2, 1), Expr::rel("S"))
        .project([1]);
    let report = measure_growth(&sa, &series).unwrap();
    for p in &report.points {
        assert!(p.max_intermediate <= p.db_size);
    }
    // Lowered to joins (π₁,₂(R ⋈ π₁(S))-style): still linear.
    let schema = Schema::new([("R", 2), ("S", 1)]);
    let lowered = sj_algebra::semijoins_to_joins_checked(&sa, &schema).unwrap();
    let report2 = measure_growth(&lowered, &series).unwrap();
    assert!(
        report2.exponent < 1.3,
        "lowered exponent {}",
        report2.exponent
    );
    for (db, p) in series.iter().zip(&report2.points) {
        assert_eq!(
            evaluate(&sa, db).unwrap().len(),
            p.output,
            "lowered plan output differs"
        );
    }
}

/// The Lemma 24 pump applied to an analyzer witness measures exponent 2
/// on the *witnessed node* even when the seed database is tiny.
#[test]
fn witness_pump_exponent_two() {
    let schema = Schema::new([("R", 2), ("S", 1)]);
    let mut seed = Database::new();
    seed.set("R", Relation::from_int_rows(&[&[1, 7], &[2, 8]]));
    seed.set("S", Relation::from_int_rows(&[&[7], &[8]]));
    let e = sj_algebra::division::division_double_difference("R", "S");
    let Verdict::Quadratic { witness } = analyze(&e, &schema, std::slice::from_ref(&seed)).unwrap()
    else {
        panic!("expected quadratic");
    };
    let pump = witness.pump(&[], 64).unwrap();
    let pts: Vec<(f64, f64)> = [8usize, 16, 32, 64]
        .iter()
        .map(|&n| {
            let (size, pairs) = pump.verify(n);
            (size as f64, pairs as f64)
        })
        .collect();
    let slope = sj_core::log_log_slope(&pts);
    assert!(slope > 1.8, "slope {slope}");
}
