//! Integration tests for the physical planner: `Strategy::Planned` (the
//! engine's default) must agree with `evaluate` on every query family the
//! reproduction exercises, while evaluating each distinct subexpression
//! exactly once and running the RA division idioms as one division node.

use sj_algebra::{division, optimize, Condition, Expr, OptimizeLevel};
use sj_eval::{evaluate, Engine, Instrument, JoinOrder, PhysOp, PhysicalPlan, Report};
use sj_setjoin::DivisionSemantics;
use sj_stats::{CatalogSource, CostModel};
use sj_storage::{Database, Relation};
use sj_workload::{adversarial_division_series, DivisionWorkload};

/// `e` on `db` through a default engine: planned, costed from its catalog.
fn planned(e: &Expr, db: &Database) -> Relation {
    Engine::new(db.clone())
        .query(e.clone())
        .run()
        .unwrap()
        .relation
}

/// The same run instrumented: the answer beside its per-DAG-node report.
fn planned_instrumented(e: &Expr, db: &Database) -> (Relation, Report) {
    let out = Engine::new(db.clone())
        .instrument(Instrument::Cardinalities)
        .query(e.clone())
        .run()
        .unwrap();
    (out.relation, out.report.unwrap())
}

fn beer_db() -> Database {
    let mut db = Database::new();
    db.set(
        "Visits",
        Relation::from_str_rows(&[
            &["an", "bad bar"],
            &["bob", "good bar"],
            &["carl", "empty bar"],
        ]),
    );
    db.set(
        "Serves",
        Relation::from_str_rows(&[&["bad bar", "swill"], &["good bar", "nectar"]]),
    );
    db.set("Likes", Relation::from_str_rows(&[&["bob", "nectar"]]));
    db
}

fn division_plans() -> Vec<(&'static str, Expr)> {
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
        (
            "set-containment",
            division::set_containment_join_plan("R", "S"),
        ),
    ]
}

#[test]
fn planned_agrees_with_naive_on_beer_queries() {
    let db = beer_db();
    for e in [
        division::example3_lousy_bar_sa(),
        division::example3_lousy_bar_ra(),
        division::cyclic_beer_query_ra(),
    ] {
        assert_eq!(planned(&e, &db), evaluate(&e, &db).unwrap(), "{e}");
    }
}

#[test]
fn planned_agrees_with_naive_on_division_workloads() {
    for db in adversarial_division_series(&[16, 64], 0xC0FFEE) {
        for (name, e) in division_plans() {
            if name == "set-containment" {
                // needs S binary; the adversarial series has unary S
                continue;
            }
            assert_eq!(
                planned(&e, &db),
                evaluate(&e, &db).unwrap(),
                "{name} on |D| = {}",
                db.size()
            );
        }
    }
    let w = DivisionWorkload {
        groups: 24,
        divisor_size: 5,
        containment_fraction: 0.4,
        extra_per_group: 3,
        noise_domain: 40,
        seed: 11,
    };
    let db = w.database();
    for (name, e) in division_plans() {
        if name == "set-containment" {
            continue;
        }
        assert_eq!(planned(&e, &db), evaluate(&e, &db).unwrap(), "{name}");
    }
}

#[test]
fn planned_agrees_with_naive_after_optimization() {
    let db = beer_db();
    for e in [
        division::example3_lousy_bar_ra(),
        division::cyclic_beer_query_ra(),
    ] {
        let opt = optimize(&e, &db.schema()).unwrap();
        assert_eq!(
            planned(&opt, &db),
            evaluate(&e, &db).unwrap(),
            "optimize({e}) = {opt}"
        );
    }
}

/// `R = {(1,7), (1,8), (2,7)}`, `S = {7, 8}` and `T`, a copy of `R`.
fn small_division_db() -> Database {
    let mut db = Database::new();
    db.set("R", Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7]]));
    db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
    db.set("T", Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7]]));
    db
}

/// `π₁(R) − π₁((π₁(R) × S) − T)`: the double difference with its
/// subtracted relation renamed, a near miss the planner does not lower.
fn near_miss_division() -> Expr {
    let candidates = Expr::rel("R").project([1]);
    candidates.clone().diff(
        candidates
            .product(Expr::rel("S"))
            .diff(Expr::rel("T"))
            .project([1]),
    )
}

#[test]
fn near_miss_division_is_memoized_into_eight_nodes() {
    // The tree has 10 nodes; R occurs 2×, π₁(R) 2× — the DAG must have
    // exactly 8, each evaluated once.
    let db = small_division_db();
    let (result, report) = planned_instrumented(&near_miss_division(), &db);
    assert_eq!(report.expr_nodes, 10);
    assert_eq!(report.nodes.len(), 8);
    assert_eq!(report.nodes.iter().filter(|n| n.label == "R").count(), 1);
    assert_eq!(result, Relation::from_int_rows(&[&[1]]));
}

#[test]
fn division_double_difference_lowers_to_three_nodes() {
    // Scan R, scan S and one division node run by the registry's pick:
    // the product π₁(R) × S is never built, so R is the largest
    // intermediate.
    let db = small_division_db();
    let e = division::division_double_difference("R", "S");
    let (result, report) = planned_instrumented(&e, &db);
    assert_eq!(report.expr_nodes, 10);
    assert_eq!(report.nodes.len(), 3);
    assert_eq!(report.max_intermediate(), 3, "|R|");
    assert_eq!(result, Relation::from_int_rows(&[&[1]]));
    let engine = Engine::new(db);
    let picked = engine
        .divide("R", "S", DivisionSemantics::Containment)
        .unwrap()
        .algorithm;
    let plan = engine.query(e).run().unwrap().plan.unwrap();
    let root = &plan.nodes()[plan.root()];
    assert_eq!(root.op.name(), picked);
    assert!(plan.explain().contains(picked), "{}", plan.explain());
    // R's first column holds two distinct groups.
    assert!(root.est_rows <= 2.0, "{}", root.est_rows);
}

#[test]
fn planner_explain_marks_merge_operators_and_sharing() {
    let mut db = Database::new();
    db.set("R", Relation::from_int_rows(&[&[1, 7], &[2, 8]]));
    db.set("S", Relation::from_int_rows(&[&[1, 9]]));
    let e = Expr::rel("R")
        .semijoin(Condition::eq(1, 1), Expr::rel("S"))
        .union(Expr::rel("R").semijoin(Condition::eq(1, 1), Expr::rel("S")));
    let plan = Engine::new(db).query(e).run().unwrap().plan.unwrap();
    // The two identical semijoin branches collapse: 7 tree nodes, 4 DAG
    // nodes (R, S, the semijoin, the union).
    assert_eq!(plan.node_count(), 4);
    let s = plan.explain();
    assert!(s.contains("merge-semijoin"), "{s}");
    assert!(s.contains("×2"), "{s}");
}

#[test]
fn engine_planned_strategy_returns_the_same_plan_shape() {
    // The Engine's Planned strategy must expose exactly the plan the
    // one constructor builds over the engine's own catalog with the
    // default cost model and join order: 8 DAG nodes for the 10-node
    // near miss, 3 for the 10-node double difference it lowers.
    let engine = Engine::new(small_division_db());
    for (e, nodes) in [
        (near_miss_division(), 8),
        (division::division_double_difference("R", "S"), 3),
    ] {
        let direct = PhysicalPlan::of_costed_with_order(
            &e,
            &engine.db().schema(),
            &CatalogSource::new(engine.catalog(), engine.db()),
            &CostModel::default(),
            JoinOrder::default(),
        )
        .unwrap();
        let out = engine.query(e.clone()).run().unwrap();
        let via_engine = out.plan.expect("Planned strategy returns its plan");
        assert_eq!(direct.node_count(), nodes, "{e}");
        assert_eq!(via_engine.node_count(), direct.node_count());
        assert_eq!(via_engine.expr_node_count(), 10);
        assert_eq!(via_engine.explain(), direct.explain());
        assert_eq!(out.relation, Relation::from_int_rows(&[&[1]]));
    }
}

#[test]
fn planned_instrumentation_reports_operators_and_timing() {
    let db = beer_db();
    let e = division::example3_lousy_bar_sa();
    let (_, report) = planned_instrumented(&e, &db);
    // Three visits against two bars: tiny, but the off-prefix
    // equality semijoins still run the hash body — `kernel::semijoin`
    // dispatches on θ alone — fused with the `π₁` that is each one's
    // only consumer, and the report names what ran.
    let fused: Vec<&str> = report
        .nodes
        .iter()
        .filter(|n| n.operator == "hash-semijoin+project")
        .map(|n| n.label.as_str())
        .collect();
    assert_eq!(
        fused,
        ["project[1]∘semijoin[2=2]", "project[1]∘semijoin[2=1]"],
        "{}",
        report.render_stable()
    );
    assert!(report.nodes.iter().any(|n| n.operator == "scan"));
    // Self times are recorded (may be zero on coarse clocks, but the sum
    // is well-defined).
    let _ = report.total_elapsed();
    // The shared Serves scan appears once with occurrence count 2.
    let serves = report.nodes.iter().find(|n| n.label == "Serves").unwrap();
    assert_eq!(serves.occurrences, 2);
    assert_eq!(serves.cardinality, 2);
}

/// The serving pool's semijoin shape, `π₁(R ⋉[2=1] (S − σ₁₌c(S)))`, at
/// both optimizer levels: the projection runs inside the semijoin, so
/// the plan has one node fewer than the same query under `π₂` (which
/// does not fuse), and the semijoin's survivors are never materialized
/// — the largest intermediate is `R` itself.
#[test]
fn prefix_projection_of_a_semijoin_fuses_into_it() {
    let db = DivisionWorkload {
        groups: 24,
        divisor_size: 5,
        containment_fraction: 0.4,
        extra_per_group: 3,
        noise_domain: 40,
        seed: 11,
    }
    .database();
    let c = db.get("S").unwrap().tuples()[0][0].clone();
    let query = |col: usize| {
        Expr::rel("R")
            .semijoin_eq(
                [(2, 1)],
                Expr::rel("S").diff(Expr::rel("S").select_const(1, c.clone())),
            )
            .project([col])
    };
    for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
        let engine = Engine::new(db.clone())
            .optimize(level)
            .instrument(Instrument::Cardinalities);
        let run = |e: Expr| engine.query(e).run().unwrap();
        let (fused, near_miss) = (run(query(1)), run(query(2)));
        let plan = fused.plan.unwrap();
        assert_eq!(
            plan.node_count() + 1,
            near_miss.plan.unwrap().node_count(),
            "{level}:\n{}",
            plan.explain()
        );
        let root = &plan.nodes()[plan.root()];
        assert_eq!(root.op.name(), "hash-semijoin+project");
        assert_eq!(root.label, "project[1]∘semijoin[2=1]");
        let report = fused.report.unwrap();
        assert_eq!(
            report.max_intermediate(),
            db.get("R").unwrap().len(),
            "{}",
            report.render_stable()
        );
        let want = evaluate(&query(1), &db).unwrap();
        assert!(!want.is_empty());
        assert_eq!(fused.relation, want, "{level}");
    }
}

/// The §5 counting plan's `γ₁(R ⋈[2=1] S)` runs as one group-join over
/// the two scans: no join row is built and no grouping consumes a join.
#[test]
fn counting_division_plans_a_group_join() {
    let db = DivisionWorkload {
        groups: 24,
        divisor_size: 5,
        containment_fraction: 0.4,
        extra_per_group: 3,
        noise_domain: 40,
        seed: 11,
    }
    .database();
    let e = division::division_counting("R", "S");
    for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
        let out = Engine::new(db.clone())
            .optimize(level)
            .query(e.clone())
            .run()
            .unwrap();
        let plan = out.plan.unwrap();
        let explained = plan.explain();
        let group_joins: Vec<_> = plan
            .nodes()
            .iter()
            .filter(|n| n.op.name() == "hash-group-join")
            .collect();
        assert_eq!(group_joins.len(), 1, "{level}:\n{explained}");
        assert_eq!(group_joins[0].label, "gcount[1]∘join[2=1]");
        let scans: Vec<&str> = group_joins[0]
            .children
            .iter()
            .map(|&c| plan.nodes()[c].label.as_str())
            .collect();
        assert_eq!(scans, ["R", "S"], "{level}:\n{explained}");
        for node in plan.nodes() {
            if matches!(node.op, PhysOp::HashGroupCount(_)) {
                let input = &plan.nodes()[node.children[0]];
                assert!(
                    !input.op.name().ends_with("-join"),
                    "{level}: a grouping consumes a join:\n{explained}"
                );
            }
        }
        if level == OptimizeLevel::Full {
            assert!(!explained.contains("hash-join"), "{explained}");
            assert!(!explained.contains("hash-group "), "{explained}");
        }
        assert_eq!(out.relation, evaluate(&e, &db).unwrap(), "{level}");
    }
}
