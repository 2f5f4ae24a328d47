//! Integration and property tests for the unified `Engine` API: output
//! must be identical to the reference evaluator under every evaluation
//! [`Strategy`], and identical across every registered set-join/division
//! algorithm, on random databases and predicates as well as on the
//! paper's workloads.

use proptest::prelude::*;
// `engine::Strategy` (the enum) and proptest's `Strategy` (the trait)
// collide under the two globs: bind each explicitly.
use proptest::strategy::Strategy as PropStrategy;
use setjoins::eval::{evaluate_reference, Strategy};
use setjoins::prelude::*;
use setjoins::setjoin::{run_division_traced, run_set_join_traced};
use sj_algebra::division;
use sj_workload::{
    adversarial_division_series, DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist,
};

mod common;

// ---------------------------------------------------------------------------
// Deterministic workload cross-checks
// ---------------------------------------------------------------------------

fn paper_division_plans() -> Vec<(&'static str, Expr)> {
    vec![
        (
            "double-difference",
            division::division_double_difference("R", "S"),
        ),
        ("via-join", division::division_via_join("R", "S")),
        ("equality", division::division_equality("R", "S")),
        ("counting", division::division_counting("R", "S")),
        (
            "equality-counting",
            division::division_equality_counting("R", "S"),
        ),
    ]
}

/// `Planned` and `Naive` match the reference evaluator byte-for-byte on
/// the paper's division workloads.
#[test]
fn strategies_agree_on_division_workloads() {
    for db in adversarial_division_series(&[16, 64], 0xE16E) {
        for (name, e) in paper_division_plans() {
            let run = |s: Strategy| {
                Engine::new(db.clone())
                    .strategy(s)
                    .query(e.clone())
                    .run()
                    .unwrap()
                    .relation
            };
            let reference = evaluate_reference(&e, &db).unwrap();
            assert_eq!(run(Strategy::Planned), reference, "{name} planned");
            assert_eq!(run(Strategy::Naive), reference, "{name} naive");
        }
    }
}

/// ... and on the paper's set-join workloads, via the set-containment
/// RA plan and the registry-routed direct operator.
#[test]
fn strategies_and_registry_agree_on_set_join_workloads() {
    let w = SetJoinWorkload {
        r_groups: 48,
        s_groups: 48,
        set_size: SetSizeDist::Uniform(2, 8),
        domain: 32,
        elements: ElementDist::Uniform,
        seed: 0x5E7F,
    };
    let (r, s) = w.generate();
    let mut db = Database::new();
    db.set("R", r);
    db.set("S", s);
    let plan = division::set_containment_join_plan("R", "S");
    let run = |s: Strategy| {
        Engine::new(db.clone())
            .strategy(s)
            .query(plan.clone())
            .run()
            .unwrap()
            .relation
    };
    let reference = evaluate_reference(&plan, &db).unwrap();
    assert_eq!(run(Strategy::Planned), reference, "planned");
    assert_eq!(run(Strategy::Naive), reference, "naive");
    // Every registered algorithm, forced through the registry.
    let (r, s) = (db.get("R").unwrap(), db.get("S").unwrap());
    for alg in Registry::standard().set_join_algorithms() {
        if !alg.supports(SetPredicate::Contains) {
            continue;
        }
        let out = run_set_join_traced(alg, r, s, SetPredicate::Contains, 1);
        assert_eq!(out, reference, "{}", alg.name());
    }
    let engine = Engine::new(db.clone());
    let auto = engine.set_join("R", "S", SetPredicate::Contains).unwrap();
    assert_eq!(auto.relation, reference, "auto={}", auto.algorithm);
}

#[test]
fn engine_division_matches_ra_plans_on_scaled_workloads() {
    let w = DivisionWorkload {
        groups: 64,
        divisor_size: 6,
        containment_fraction: 0.3,
        extra_per_group: 3,
        noise_domain: 64,
        seed: 0xD1F,
    };
    let engine = Engine::new(w.database());
    let via_plan = engine
        .query(division::division_double_difference("R", "S"))
        .run()
        .unwrap()
        .relation;
    let (r, s) = (engine.db().get("R").unwrap(), engine.db().get("S").unwrap());
    for alg in Registry::standard().division_algorithms() {
        let out = run_division_traced(alg, r, s, DivisionSemantics::Containment, 1);
        assert_eq!(out, via_plan, "{}", alg.name());
    }
    let auto = engine
        .divide("R", "S", DivisionSemantics::Containment)
        .unwrap();
    assert_eq!(auto.relation, via_plan, "auto={}", auto.algorithm);
}

#[test]
fn optimizer_levels_preserve_results_across_strategies() {
    let db = sj_workload::figures::example3_beer_db();
    for e in [
        division::example3_lousy_bar_ra(),
        division::example3_lousy_bar_sa(),
        division::cyclic_beer_query_ra(),
    ] {
        let expected = evaluate_reference(&e, &db).unwrap();
        for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
            for strategy in [Strategy::Planned, Strategy::Naive] {
                let out = Engine::new(db.clone())
                    .optimize(level)
                    .strategy(strategy)
                    .query(e.clone())
                    .run()
                    .unwrap();
                assert_eq!(out.relation, expected, "{e} at {level}/{strategy}");
            }
        }
    }
}

#[test]
fn query_output_shape_follows_configuration() {
    let db = sj_workload::figures::example3_beer_db();
    let e = division::example3_lousy_bar_sa();
    // plan present iff Planned; report present iff instrumented; the
    // wall clock rides on the report.
    let cases: Vec<(Strategy, Instrument, bool, bool)> = vec![
        (Strategy::Planned, Instrument::Off, true, false),
        (Strategy::Planned, Instrument::Cardinalities, true, true),
        (Strategy::Naive, Instrument::Off, false, false),
        (Strategy::Naive, Instrument::Cardinalities, false, true),
    ];
    for (strategy, instrument, has_plan, has_report) in cases {
        let out = Engine::new(db.clone())
            .strategy(strategy)
            .instrument(instrument)
            .query(e.clone())
            .run()
            .unwrap();
        assert_eq!(out.plan.is_some(), has_plan, "{strategy}/{instrument:?}");
        assert_eq!(
            out.report.is_some(),
            has_report,
            "{strategy}/{instrument:?}"
        );
        if let Some(report) = &out.report {
            assert!(report.elapsed.is_some(), "{strategy}/{instrument:?}");
            assert!(report.max_intermediate() >= out.relation.len());
        }
    }
}

#[test]
fn explain_is_strategy_shaped() {
    let db = sj_workload::figures::example3_beer_db();
    let e = division::example3_lousy_bar_sa();
    let planned = Engine::new(db.clone()).query(e.clone()).explain().unwrap();
    assert!(planned.contains("physical plan"), "{planned}");
    let naive = Engine::new(db)
        .strategy(Strategy::Naive)
        .query(e)
        .explain()
        .unwrap();
    assert!(naive.contains("max intermediate"), "{naive}");
}

// ---------------------------------------------------------------------------
// Property tests: random databases, expressions, predicates
// ---------------------------------------------------------------------------

fn arb_pairs(max_key: i64, max_val: i64, len: usize) -> impl PropStrategy<Value = Relation> {
    proptest::collection::vec((1..=max_key, 1..=max_val), 0..len).prop_map(|rows| {
        Relation::from_tuples(2, rows.into_iter().map(|(a, b)| Tuple::from_ints(&[a, b]))).unwrap()
    })
}

fn arb_db() -> impl PropStrategy<Value = Database> {
    (arb_pairs(6, 6, 24), arb_pairs(6, 6, 24), arb_divisor()).prop_map(|(r, s, t)| {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db.set("T", t);
        db
    })
}

fn arb_divisor() -> impl PropStrategy<Value = Relation> {
    proptest::collection::vec(1i64..=6, 0..6).prop_map(|vals| {
        Relation::from_tuples(1, vals.into_iter().map(|v| Tuple::from_ints(&[v]))).unwrap()
    })
}

/// Arbitrary valid arity-2 expressions over R, S (both binary).
fn arb_expr() -> impl PropStrategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("R")), Just(Expr::rel("S"))];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_eq(i, j)),
            (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_lt(i, j)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| a.join(Condition::eq(1, 1), b).project([1, 2])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.semijoin(Condition::eq(2, 1), b)),
            // A bare three-leaf chain: the only shape `JoinOrder` can move.
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| a
                .join(Condition::eq(2, 1), b)
                .join(Condition::eq(4, 1), c)
                .project([1, 6])),
            inner.clone().prop_map(|a| a.project([2, 1])),
        ]
    })
}

fn arb_predicate() -> impl PropStrategy<Value = SetPredicate> {
    prop_oneof![
        Just(SetPredicate::Contains),
        Just(SetPredicate::ContainedIn),
        Just(SetPredicate::Equals),
        Just(SetPredicate::IntersectsNonempty),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The configuration matrix, stated once: every surviving value of
    /// every live engine axis ([`common::engines`]) answers exactly what
    /// the reference evaluator does, on random expressions and databases.
    #[test]
    fn every_engine_configuration_equals_the_reference(e in arb_expr(), db in arb_db()) {
        let want = setjoins::eval::evaluate_reference(&e, &db).unwrap();
        for (label, engine) in common::engines(&db) {
            let out = engine.query(e.clone()).run().unwrap();
            prop_assert_eq!(&out.relation, &want, "{} on {}", label, e);
            // The report's shape, stated once: present iff the run was
            // instrumented.
            let planned = out.plan.is_some();
            let wanted = label.contains("Cardinalities");
            prop_assert_eq!(out.report.is_some(), wanted, "{}", label);
            let Some(report) = out.report else { continue };
            prop_assert_eq!(report.output_rows, want.len(), "{}", label);
            // Plan nodes are topological (root last), tree nodes pre-order.
            let root = if planned { report.nodes.last() } else { report.nodes.first() };
            prop_assert_eq!(root.unwrap().cardinality, want.len(), "{}", label);
            prop_assert!(report.max_intermediate() >= report.output_rows, "{}", label);
            // Every tree node is served by one node per occurrence; a
            // fused node's label names each of the tree nodes it runs.
            prop_assert_eq!(
                report
                    .nodes
                    .iter()
                    .map(|n| n.occurrences * (1 + n.label.matches('∘').count()))
                    .sum::<usize>(),
                report.expr_nodes,
                "{}", label
            );
            prop_assert!(
                report.nodes.iter().all(|n| n.estimate.is_some() == planned),
                "{}: estimates iff planned", label
            );
            let again = engine.query(e.clone()).run().unwrap().report.unwrap();
            prop_assert_eq!(report.render_stable(), again.render_stable(), "{}", label);
        }
    }

    /// Engine output is identical to the reference evaluator under both
    /// `Strategy` variants on random expressions and databases.
    #[test]
    fn engine_output_identical_across_strategies(e in arb_expr(), db in arb_db()) {
        let run = |s: Strategy| {
            Engine::new(db.clone()).strategy(s).query(e.clone()).run().unwrap().relation
        };
        let reference = evaluate_reference(&e, &db).unwrap();
        prop_assert_eq!(&run(Strategy::Planned), &reference, "planned vs reference on {}", e);
        prop_assert_eq!(&run(Strategy::Naive), &reference, "naive vs reference on {}", e);
    }

    /// Optimization never changes any strategy's output.
    #[test]
    fn engine_output_stable_under_optimization(e in arb_expr(), db in arb_db()) {
        let base = Engine::new(db.clone()).query(e.clone()).run().unwrap().relation;
        for strategy in [Strategy::Planned, Strategy::Naive] {
            let out = Engine::new(db.clone())
                .optimize(OptimizeLevel::Full)
                .strategy(strategy)
                .query(e.clone())
                .run()
                .unwrap();
            prop_assert_eq!(&out.relation, &base, "{} at full/{}", e, strategy);
        }
    }

    /// Every registered set-join algorithm (and the auto selector) agrees
    /// with the nested-loop baseline on random inputs and predicates —
    /// each forced through the registry, the pick through the engine.
    #[test]
    fn registered_set_join_algorithms_agree(
        r in arb_pairs(5, 8, 20),
        s in arb_pairs(5, 8, 20),
        pred in arb_predicate(),
    ) {
        let want = sj_setjoin::nested_loop_set_join(&r, &s, pred);
        for alg in Registry::standard().set_join_algorithms() {
            if !alg.supports(pred) {
                continue;
            }
            let out = run_set_join_traced(alg, &r, &s, pred, 1);
            prop_assert_eq!(&out, &want, "{} on {:?}", alg.name(), pred);
        }
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        let engine = Engine::new(db);
        let auto = engine.set_join("R", "S", pred).unwrap();
        prop_assert_eq!(&auto.relation, &want, "auto={} on {:?}", auto.algorithm, pred);
    }

    /// Every registered division algorithm (and the auto selector) agrees
    /// on random inputs, both semantics.
    #[test]
    fn registered_division_algorithms_agree(
        r in arb_pairs(6, 6, 24),
        s in arb_divisor(),
    ) {
        let mut db = Database::new();
        db.set("R", r.clone());
        db.set("S", s.clone());
        let engine = Engine::new(db);
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let want = sj_setjoin::nested_loop_division(&r, &s, sem);
            for alg in Registry::standard().division_algorithms() {
                let out = run_division_traced(alg, &r, &s, sem, 1);
                prop_assert_eq!(&out, &want, "{} under {:?}", alg.name(), sem);
            }
            let auto = engine.divide("R", "S", sem).unwrap();
            prop_assert_eq!(&auto.relation, &want, "auto={} under {:?}", auto.algorithm, sem);
        }
    }

    /// Instrumented runs return the same relation as bare runs, and the
    /// report counts its rows.
    #[test]
    fn instrumentation_never_changes_results(e in arb_expr(), db in arb_db()) {
        for strategy in [Strategy::Planned, Strategy::Naive] {
            let bare = Engine::new(db.clone()).strategy(strategy).query(e.clone()).run().unwrap();
            let inst = Engine::new(db.clone())
                .strategy(strategy)
                .instrument(Instrument::Cardinalities)
                .query(e.clone())
                .run()
                .unwrap();
            prop_assert_eq!(&inst.relation, &bare.relation);
            prop_assert_eq!(inst.report.unwrap().output_rows, bare.relation.len());
        }
    }
}
