//! Larger-scale smoke tests: the fast algorithms at tens of thousands of
//! tuples (debug-build friendly — only the linear paths run at full size).

use setjoins::eval::Parallelism;
use setjoins::prelude::*;
use sj_setjoin::{
    counting_division, hash_division, parallel_hash_division, parallel_signature_set_join,
    sort_merge_division, DivisionSemantics,
};
use sj_workload::{DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist};

#[test]
fn division_at_fifty_thousand_tuples() {
    let w = DivisionWorkload {
        groups: 10_000,
        divisor_size: 12,
        containment_fraction: 0.05,
        extra_per_group: 4,
        noise_domain: 10_000,
        seed: 0x57E55,
    };
    let (r, s, expected) = w.generate();
    assert!(r.len() > 20_000, "workload too small: {}", r.len());
    let sem = DivisionSemantics::Containment;
    let h = hash_division(&r, &s, sem);
    let m = sort_merge_division(&r, &s, sem);
    let c = counting_division(&r, &s, sem);
    assert_eq!(h, m);
    assert_eq!(h, c);
    assert_eq!(h, expected);
}

#[test]
fn instrumented_eval_on_large_linear_plan() {
    // The counting plan stays ≤ |D| + 2 even at 30k+ tuples.
    let db = DivisionWorkload {
        groups: 8_000,
        divisor_size: 10,
        containment_fraction: 0.1,
        extra_per_group: 3,
        noise_domain: 8_000,
        seed: 0xB16,
    }
    .database();
    let plan = sj_algebra::division::division_counting("R", "S");
    let (_, report) = evaluate_instrumented(&plan, &db).unwrap();
    assert!(report.db_size > 20_000);
    assert!(report.max_intermediate() <= report.db_size + 2);
}

#[test]
fn set_join_medium_scale_cross_validation() {
    let w = SetJoinWorkload {
        r_groups: 800,
        s_groups: 800,
        set_size: SetSizeDist::Uniform(2, 8),
        domain: 96,
        elements: ElementDist::Zipf(0.9),
        seed: 0x5CA1E,
    };
    let (r, s) = w.generate();
    let a = sj_setjoin::signature_set_join(&r, &s, SetPredicate::Contains);
    let b = sj_setjoin::inverted_index_set_join(&r, &s);
    assert_eq!(a, b);
    assert!(!a.is_empty(), "workload produced no containments");
}

#[test]
fn pump_construction_at_large_n() {
    // Lemma 24 at n = 512: the database stays linear (~4n) while the
    // join pairs hit n² = 262,144 — verified by the copy-pair counter
    // (full evaluation of the n² output would be slow in debug mode).
    let db = sj_workload::figures::fig4();
    let pump = sj_core::Pump::new(
        &db,
        &Condition::eq(3, 1),
        &tuple![1, 2, 3],
        &tuple![3, 4, 5],
        &[],
        512,
    )
    .unwrap();
    let (size, pairs) = pump.verify(512);
    assert_eq!(size, 5 + 4 * 511);
    assert_eq!(pairs, 512 * 512);
}

#[test]
fn parallel_division_workload_is_deterministic_across_runs() {
    // Fixed-seed fig-scale division workload, executed twice under
    // Threads(4): same tuples, same `render()`-stable instrumentation
    // shape (cardinalities, operators, worker and partition counts are
    // deterministic; the renders omit wall-clock times precisely so this
    // holds).
    let db = DivisionWorkload {
        groups: 6_000,
        divisor_size: 12,
        containment_fraction: 0.1,
        extra_per_group: 4,
        noise_domain: 6_000,
        seed: 0xDE7E12,
    }
    .database();
    for plan in [
        sj_algebra::division::division_counting("R", "S"),
        sj_algebra::division::division_double_difference("R", "S"),
    ] {
        let run = || {
            Engine::new(db.clone())
                .parallelism(Parallelism::Threads(4))
                .instrument(Instrument::Cardinalities)
                .query(plan.clone())
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.relation.tuples(),
            b.relation.tuples(),
            "identical tuples across runs: {plan}"
        );
        let (ra, rb) = (a.report.unwrap(), b.report.unwrap());
        assert_eq!(
            ra.render_stable(),
            rb.render_stable(),
            "render_stable() shape: {plan}"
        );
        // ... and identical to the serial run.
        let serial = Engine::new(db.clone()).query(plan.clone()).run().unwrap();
        assert_eq!(a.relation, serial.relation, "parallel ≡ serial: {plan}");
    }
}

#[test]
fn parallel_set_join_workload_is_deterministic_across_runs() {
    // Fixed-seed fig-scale set-join workload: the partition-based join
    // at 4 workers, twice, against the serial signature join.
    let (r, s) = SetJoinWorkload {
        r_groups: 1_200,
        s_groups: 1_200,
        set_size: SetSizeDist::Uniform(2, 8),
        domain: 72,
        elements: ElementDist::Zipf(0.9),
        seed: 0x57AB1E,
    }
    .generate();
    for pred in [SetPredicate::Contains, SetPredicate::ContainedIn] {
        let once = parallel_signature_set_join(&r, &s, pred, 4);
        let twice = parallel_signature_set_join(&r, &s, pred, 4);
        assert_eq!(once.tuples(), twice.tuples(), "{pred:?}");
        assert_eq!(
            once,
            sj_setjoin::signature_set_join(&r, &s, pred),
            "parallel ≡ serial on {pred:?}"
        );
    }
    // Division at the same scale through the direct parallel operator.
    let (dr, ds, expected) = DivisionWorkload {
        groups: 10_000,
        divisor_size: 12,
        containment_fraction: 0.05,
        extra_per_group: 4,
        noise_domain: 10_000,
        seed: 0x57E55,
    }
    .generate();
    for workers in [2, 4, 8] {
        assert_eq!(
            parallel_hash_division(&dr, &ds, DivisionSemantics::Containment, workers),
            expected,
            "parallel hash division @{workers}"
        );
    }
}

#[test]
fn storage_set_ops_at_scale() {
    // Merge-based set operations on 40k-tuple relations.
    let mk = |offset: i64| {
        let rows: Vec<Tuple> = (0..40_000i64)
            .map(|i| Tuple::from_ints(&[i + offset, (i + offset) % 97]))
            .collect();
        Relation::from_tuples(2, rows).unwrap()
    };
    let a = mk(0);
    let b = mk(20_000);
    let u = a.union(&b).unwrap();
    assert_eq!(u.len(), 60_000);
    let d = a.difference(&b).unwrap();
    assert_eq!(d.len(), 20_000);
    let i = a.intersection(&b).unwrap();
    assert_eq!(i.len(), 20_000);
    assert_eq!(d.union(&i).unwrap(), a);
}
