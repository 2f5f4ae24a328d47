//! The set-join half of Proposition 26, measured: the RA plan for the
//! set-containment join has quadratic intermediates on linear-size
//! families, while the direct algorithms and the set-equality hash join
//! behave as the paper's footnote 1 describes.

use setjoins::prelude::*;
use sj_core::{analyze, log_log_slope, measure_growth};
use sj_eval::evaluate;
use sj_workload::{ElementDist, SetJoinWorkload, SetSizeDist};

/// A linear-size set-join family: k left groups and k right groups with
/// constant-size sets.
fn setjoin_series(scales: &[usize]) -> Vec<Database> {
    scales
        .iter()
        .map(|&k| {
            let w = SetJoinWorkload {
                r_groups: k,
                s_groups: k,
                set_size: SetSizeDist::Fixed(3),
                domain: 4 * k,
                elements: ElementDist::Uniform,
                seed: 0x5E7 ^ k as u64,
            };
            let (r, s) = w.generate();
            let mut db = Database::new();
            db.set("R", r);
            db.set("S", s);
            db
        })
        .collect()
}

#[test]
fn set_containment_ra_plan_is_quadratic() {
    let series = setjoin_series(&[8, 16, 32, 64]);
    let plan = sj_algebra::division::set_containment_join_plan("R", "S");
    let report = measure_growth(&plan, &series).unwrap();
    assert!(
        report.exponent > 1.7,
        "set-containment RA plan exponent {}",
        report.exponent
    );
    // The analyzer agrees, with a witness.
    let schema = Schema::new([("R", 2), ("S", 2)]);
    let verdict = analyze(&plan, &schema, &series[..1]).unwrap();
    assert!(verdict.is_quadratic());
}

#[test]
fn set_equality_ra_plan_is_quadratic_but_hash_join_is_not() {
    let series = setjoin_series(&[8, 16, 32, 64]);
    let plan = sj_algebra::division::set_equality_join_plan("R", "S");
    let report = measure_growth(&plan, &series).unwrap();
    assert!(report.exponent > 1.7, "exponent {}", report.exponent);
    // Footnote 1: with sorting/hashing tricks, set-equality join runs in
    // O(n log n) + output. Measure the hash join's *work* via timing
    // proxy: its output sizes on this family stay linear while the RA
    // plan's intermediates blow up.
    let points: Vec<(f64, f64)> = series
        .iter()
        .map(|db| {
            let out =
                sj_setjoin::hash_set_equality_join(db.get("R").unwrap(), db.get("S").unwrap());
            (db.size() as f64, (out.len() + 1) as f64)
        })
        .collect();
    let slope = log_log_slope(&points);
    assert!(slope < 1.3, "equality-join output slope {slope}");
}

#[test]
fn all_set_join_algorithms_agree_at_scale() {
    for k in [32usize, 128] {
        let w = SetJoinWorkload {
            r_groups: k,
            s_groups: k,
            set_size: SetSizeDist::Uniform(2, 6),
            domain: 48,
            elements: ElementDist::Zipf(0.8),
            seed: k as u64,
        };
        let (r, s) = w.generate();
        let want = sj_setjoin::nested_loop_set_join(&r, &s, SetPredicate::Contains);
        assert_eq!(
            sj_setjoin::signature_set_join(&r, &s, SetPredicate::Contains),
            want
        );
        assert_eq!(
            sj_setjoin::wide_signature_set_join(&r, &s, SetPredicate::Contains, 4),
            want
        );
        assert_eq!(sj_setjoin::inverted_index_set_join(&r, &s), want);
        // And the RA plan.
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        let plan = sj_algebra::division::set_containment_join_plan("R", "S");
        assert_eq!(evaluate(&plan, &db).unwrap(), want);
    }
}

#[test]
fn intersection_join_is_just_an_equijoin() {
    // The paper's remark, at scale: the ∩≠∅ set join equals
    // π_{A,C}(R ⋈_{B=D} S) — evaluated through the RA evaluator.
    let w = SetJoinWorkload {
        r_groups: 100,
        s_groups: 80,
        set_size: SetSizeDist::Uniform(1, 5),
        domain: 64,
        elements: ElementDist::Uniform,
        seed: 77,
    };
    let (r, s) = w.generate();
    let direct = sj_setjoin::intersect_join_via_equijoin(&r, &s);
    let mut db = Database::new();
    db.set("R", r.clone());
    db.set("S", s.clone());
    let plan = Expr::rel("R")
        .join(Condition::eq(2, 2), Expr::rel("S"))
        .project([1, 3]);
    assert_eq!(evaluate(&plan, &db).unwrap(), direct);
    assert_eq!(
        sj_setjoin::nested_loop_set_join(&r, &s, SetPredicate::IntersectsNonempty),
        direct
    );
}
