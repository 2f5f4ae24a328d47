//! Integration suite for the statistics subsystem: how the engine
//! decides. Statistics are an input, not a mode — every `Auto` pick is
//! the arg-min of the registry's cost formulas over the operands'
//! catalog statistics and every plan is costed from the same catalog —
//! so the suite pins the picks at both ends of the scale, that a pick
//! never changes an answer, catalog invalidation through engine
//! mutation, and the explain/report annotations.

use setjoins::prelude::*;
use setjoins::setjoin::{run_division_traced, run_set_join_traced};
use sj_algebra::division;
use sj_workload::{DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist};

fn division_db(groups: usize) -> Database {
    DivisionWorkload {
        groups,
        divisor_size: (groups as f64).sqrt() as usize,
        containment_fraction: 0.1,
        extra_per_group: 4,
        noise_domain: 4 * groups,
        seed: 0x57A7,
    }
    .database()
}

fn setjoin_db(groups: usize, dist: ElementDist) -> Database {
    let (r, s) = SetJoinWorkload {
        r_groups: groups,
        s_groups: groups,
        set_size: SetSizeDist::Uniform(2, 10),
        domain: 64,
        elements: dist,
        seed: 0x57A8,
    }
    .generate();
    let mut db = Database::new();
    db.set("R", r);
    db.set("S", s);
    db
}

/// Which algorithm the statistics pick never shows in the answer:
/// `Auto` equals the nested-loop baseline for both set operators and
/// the planned query equals the tree walker, across scales and
/// predicates. `Engine::stats` is accepted and ignored — same picks,
/// same answers.
#[test]
fn stats_modes_never_change_results() {
    let registry = Registry::standard();
    let nested_division = registry.find_division("nested-loop").unwrap();
    let nested_set_join = registry.find_set_join("nested-loop").unwrap();
    for groups in [32usize, 2048] {
        let ddb = division_db(groups);
        let engine = Engine::new(ddb.clone());
        let shimmed = Engine::new(ddb.clone()).stats(StatsMode::Cached);
        let (r, s) = (ddb.get("R").unwrap(), ddb.get("S").unwrap());
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let auto = engine.divide("R", "S", sem).unwrap();
            assert_eq!(
                auto.relation,
                run_division_traced(nested_division, r, s, sem, 1),
                "{} {sem:?} at {groups} groups",
                auto.algorithm
            );
            assert_eq!(
                shimmed.divide("R", "S", sem).unwrap().algorithm,
                auto.algorithm
            );
        }
        let e = division::division_counting("R", "S");
        let walked = Engine::new(ddb.clone()).strategy(Strategy::Naive);
        assert_eq!(
            engine.query(e.clone()).run().unwrap().relation,
            walked.query(e).run().unwrap().relation,
            "query at {groups} groups"
        );
        let sdb = setjoin_db(groups.min(512), ElementDist::Zipf(1.0));
        let sj_engine = Engine::new(sdb.clone());
        let (r, s) = (sdb.get("R").unwrap(), sdb.get("S").unwrap());
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
            SetPredicate::IntersectsNonempty,
        ] {
            let auto = sj_engine.set_join("R", "S", pred).unwrap();
            assert_eq!(
                auto.relation,
                run_set_join_traced(nested_set_join, r, s, pred, 1),
                "{} {pred:?}",
                auto.algorithm
            );
        }
    }
}

/// The pick is the arg-min of `DivisionAlgorithm::cost` over the table, pinned
/// on the two dividends either side of 64 tuples where the retired
/// threshold rule used to flip; the quotient is the nested loop's.
#[test]
fn stats_off_reproduces_threshold_selection_at_the_boundaries() {
    let divisor = Relation::from_int_rows(&[&[0]]);
    let mk = |n: usize| {
        let rows: Vec<Vec<i64>> = (0..n as i64 - 1).map(|i| vec![i, 0]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&refs));
        db.set("S", divisor.clone());
        db
    };
    let sem = DivisionSemantics::Containment;
    let model = CostModel::default();
    for total in [64usize, 66] {
        let db = mk(total);
        let (r, s) = (db.get("R").unwrap(), db.get("S").unwrap());
        let (rs, ss) = (TableStats::analyze(r), TableStats::analyze(s));
        // The latest entry wins exact ties, hence `rev`.
        let cheapest = Registry::standard()
            .division_algorithms()
            .iter()
            .rev()
            .min_by(|a, b| {
                a.cost(&model, &rs, &ss, 1)
                    .total_cmp(&b.cost(&model, &rs, &ss, 1))
            })
            .unwrap()
            .name();
        let out = Engine::new(db.clone()).divide("R", "S", sem).unwrap();
        assert_eq!(out.algorithm, cheapest, "{total} tuples");
        assert_eq!(
            out.relation,
            sj_setjoin::nested_loop_division(r, s, sem),
            "{total} tuples"
        );
    }
}

/// The cost model prices the anchor pruning: on the selective fig-scale
/// workload the partition-based join wins even single-threaded (where a
/// size rule would stay with `signature64`), while tiny inputs keep the
/// setup-free nested loop.
#[test]
fn cost_based_selection_refines_the_containment_pick() {
    let db = setjoin_db(2048, ElementDist::Uniform);
    let signature = run_set_join_traced(
        Registry::standard().find_set_join("signature64").unwrap(),
        db.get("R").unwrap(),
        db.get("S").unwrap(),
        SetPredicate::Contains,
        1,
    );
    let costed = Engine::new(db)
        .set_join("R", "S", SetPredicate::Contains)
        .unwrap();
    assert_eq!(costed.algorithm, "parallel-signature");
    assert_eq!(signature, costed.relation);
    let tiny = setjoin_db(4, ElementDist::Uniform);
    let costed = Engine::new(tiny)
        .set_join("R", "S", SetPredicate::Contains)
        .unwrap();
    assert_eq!(costed.algorithm, "nested-loop");
}

/// The cached catalog follows database mutation through the engine
/// (copy-on-write invalidation end to end). At eight workers the pick
/// turns on the dividend's size: the serial merge on a small one, the
/// partitioned probes once a large one amortizes their spawns.
#[test]
fn cached_mode_tracks_engine_db_mutation() {
    let mut engine = Engine::new(division_db(16)).parallelism(Parallelism::Threads(8));
    let before = engine
        .divide("R", "S", DivisionSemantics::Containment)
        .unwrap();
    assert_eq!(engine.catalog().len(), 2);
    // Replace R with the fig-scale dividend: the pick must follow the
    // new statistics, not the cached ones.
    let big = division_db(16_384);
    let r = big.get("R").unwrap().clone();
    let s = big.get("S").unwrap().clone();
    engine.db_mut().set("R", r);
    engine.db_mut().set("S", s);
    let after = engine
        .divide("R", "S", DivisionSemantics::Containment)
        .unwrap();
    assert_eq!(before.algorithm, "sort-merge");
    assert_eq!(after.algorithm, "parallel-hash");
}

/// A default engine's explain output and instrumented reports carry
/// estimated-vs-actual row annotations.
#[test]
fn explain_and_reports_annotate_estimates() {
    let db = division_db(256);
    let e = division::division_double_difference("R", "S");
    let annotated = Engine::new(db.clone()).query(e.clone()).explain().unwrap();
    assert!(annotated.contains("rows"), "{annotated}");
    let out = Engine::new(db)
        .instrument(Instrument::Cardinalities)
        .query(e)
        .run()
        .unwrap();
    let planned = out.report.unwrap();
    assert!(planned.nodes.iter().all(|n| n.estimate.is_some()));
    assert!(planned.render().contains("est≈"));
    // Scan estimates are exact: est == actual cardinality on leaves.
    for stat in &planned.nodes {
        if stat.operator == "scan" {
            let est = stat.estimate.unwrap();
            assert_eq!(est as usize, stat.cardinality, "{}", stat.label);
        }
    }
}

/// Stats-driven planning composes with optimization, parallelism and
/// both instrumented strategies without changing any result.
#[test]
fn stats_compose_with_optimizer_and_parallelism() {
    let db = division_db(512);
    let e = division::division_via_join("R", "S");
    let want = Engine::new(db.clone())
        .strategy(Strategy::Naive)
        .query(e.clone())
        .run()
        .unwrap();
    for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let out = Engine::new(db.clone())
                .optimize(level)
                .parallelism(par)
                .query(e.clone())
                .run()
                .unwrap();
            assert_eq!(out.relation, want.relation, "{level:?} {par}");
        }
    }
}

/// The statistics types are reachable through the umbrella crate and
/// prelude (API surface pin).
#[test]
fn stats_api_is_exported() {
    let stats = TableStats::analyze(&Relation::from_int_rows(&[&[1, 2], &[1, 3]]));
    assert_eq!(stats.rows, 2);
    assert_eq!(stats.groups(), 1);
    let model = CostModel::default();
    assert!(
        model.spawn > model.tuple_pass,
        "a thread costs more than a tuple"
    );
    let catalog: StatsCatalog = StatsCatalog::new();
    assert!(catalog.is_empty());
    let _ = setjoins::stats::Histogram::empty();
}
