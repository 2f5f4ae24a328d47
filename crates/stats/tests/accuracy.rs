//! Estimator accuracy: the estimates must stay within a bounded
//! **q-error** of the actuals on the `sj-workload` generators.
//!
//! q-error is the standard estimator quality metric,
//! `max(est, actual) / min(est, actual)` (both smoothed by +1 so empty
//! results do not divide by zero): a q-error of `q` means the estimate
//! is wrong by at most a factor `q` in either direction. The bounds
//! asserted here are deliberately loose enough to be robust across
//! seeds — they pin the estimator's *order of magnitude*, which is
//! what cost-based decisions consume — and tight enough that a broken
//! selectivity formula (off by the domain size, say) fails loudly.

use proptest::prelude::*;
use sj_algebra::{Condition, Expr};
use sj_stats::{division_rows, Estimator, StatsSource, TableStats};
use sj_storage::{Database, FxHashMap, Relation, Value};
use sj_workload::{DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist};
use std::sync::Arc;

/// Smoothed q-error of an estimate against an actual count.
fn q_error(est: f64, actual: usize) -> f64 {
    let (e, a) = (est + 1.0, actual as f64 + 1.0);
    (e / a).max(a / e)
}

fn source_of(db: &Database) -> FxHashMap<String, Arc<TableStats>> {
    db.iter()
        .map(|(n, r)| (n.to_string(), Arc::new(TableStats::analyze(r))))
        .collect()
}

fn actual(e: &Expr, db: &Database) -> usize {
    sj_eval::evaluate(e, db).unwrap().len()
}

/// One estimate/actual comparison on a generated set-join workload.
fn check_workload(dist: ElementDist, seed: u64, eq_bound: f64, join_bound: f64) {
    let (r, s) = SetJoinWorkload {
        r_groups: 300,
        s_groups: 200,
        set_size: SetSizeDist::Uniform(2, 8),
        domain: 64,
        elements: dist,
        seed,
    }
    .generate();
    let mut db = Database::new();
    db.set("R", r.clone());
    db.set("S", s.clone());
    let src = source_of(&db);
    let est = Estimator::new(&src);

    // Constant-equality selectivity from the histogram, on an element
    // value that actually occurs.
    let probe = r.tuples()[r.len() / 2][1].clone();
    let sel = Expr::rel("R").select_const(2, probe.clone());
    let q = q_error(est.estimate(&sel).unwrap().rows, actual(&sel, &db));
    assert!(
        q <= eq_bound,
        "σ₂₌{probe:?} q-error {q:.2} exceeds {eq_bound} (seed {seed}, {dist:?})"
    );

    // Equi-join on the element column: the distinct-count formula.
    let join = Expr::rel("R").join(Condition::eq(2, 2), Expr::rel("S"));
    let q = q_error(est.estimate(&join).unwrap().rows, actual(&join, &db));
    assert!(
        q <= join_bound,
        "join q-error {q:.2} exceeds {join_bound} (seed {seed}, {dist:?})"
    );

    // Group count (distinct keys) is estimated from exact distincts.
    let gc = Expr::rel("R").group_count([1]);
    let q = q_error(est.estimate(&gc).unwrap().rows, actual(&gc, &db));
    assert!(q <= 1.5, "group-count q-error {q:.2} (seed {seed})");

    // Projection onto the key column likewise.
    let pj = Expr::rel("R").project([1]);
    let q = q_error(est.estimate(&pj).unwrap().rows, actual(&pj, &db));
    assert!(q <= 1.5, "projection q-error {q:.2} (seed {seed})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Uniform element distributions: the independence assumptions
    /// hold, estimates stay within small q-error.
    #[test]
    fn uniform_workload_estimates_are_accurate(seed in 1u32..5000) {
        check_workload(ElementDist::Uniform, seed as u64, 4.0, 6.0);
    }

    /// Zipf-skewed elements violate uniformity — the histogram absorbs
    /// most of the skew for constant selections; joins degrade but stay
    /// within an order of magnitude.
    #[test]
    fn zipf_workload_estimates_stay_bounded(seed in 1u32..5000) {
        check_workload(ElementDist::Zipf(1.0), seed as u64, 8.0, 16.0);
    }

    /// Division-output estimates on random near-miss/containment mixes:
    /// the group-statistics estimate stays within an order of magnitude
    /// of the true quotient size on workloads without engineered
    /// correlation (uniform random sets over a small domain).
    #[test]
    fn division_estimate_stays_bounded_on_random_sets(seed in 1u32..5000) {
        let seed = seed as u64;
        let rows: Vec<(i64, i64)> = {
            let mut rng = sj_workload::SplitMix64::new(seed);
            (0..300)
                .flat_map(|g| {
                    let k = 2 + rng.below(6);
                    (0..k).map(move |_| (g, 0)).collect::<Vec<_>>()
                })
                .collect()
        };
        // Re-draw values with a fresh RNG pass (the closure above only
        // fixed the group sizes).
        let mut rng = sj_workload::SplitMix64::new(seed ^ 0xABCD);
        let r = Relation::from_tuples(
            2,
            rows.iter().map(|&(g, _)| {
                sj_storage::Tuple::from_ints(&[g, rng.below(12) as i64])
            }),
        )
        .unwrap();
        let s = Relation::unary((0..2).map(Value::int));
        let stats = TableStats::analyze(&r);
        let est = division_rows(&stats, s.len(), false);
        let actual = sj_setjoin::hash_division(&r, &s, sj_setjoin::DivisionSemantics::Containment).len();
        let q = q_error(est, actual);
        prop_assert!(q <= 12.0, "division q-error {q:.2} (est {est:.1}, actual {actual})");
    }
}

#[test]
fn estimates_are_deterministic() {
    let db = DivisionWorkload::default().database();
    let src = source_of(&db);
    let est = Estimator::new(&src);
    let e = sj_algebra::division::division_counting("R", "S");
    let a = est.estimate(&e).unwrap().rows;
    let b = Estimator::new(&src).estimate(&e).unwrap().rows;
    assert_eq!(a, b, "same stats ⇒ same estimate");
    // And a re-analysis of equal relations produces equal estimates.
    let src2 = source_of(&db);
    assert_eq!(a, Estimator::new(&src2).estimate(&e).unwrap().rows);
}

#[test]
fn missing_leaf_stats_yield_none_not_nonsense() {
    let db = DivisionWorkload::default().database();
    let mut src = source_of(&db);
    src.remove("S");
    let est = Estimator::new(&src);
    assert!(est
        .estimate(&sj_algebra::division::division_counting("R", "S"))
        .is_none());
    assert!(est.estimate(&Expr::rel("R")).is_some());
    assert!(src.table_stats("S").is_none());
}
