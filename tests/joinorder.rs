//! Differential suite for the join-order enumerator and the multiway
//! join: every engine of the configuration matrix ([`common::engines`],
//! which covers every tested worker count) must be byte-identical to
//! `Strategy::Naive`, which evaluates the chain as written and never
//! plans — reordering and the worst-case-optimal operator are pure
//! plan-level decisions, invisible in the answer. The fixed cases
//! cover the shapes the enumerator finds degenerate (single relations,
//! self-joins, empty inputs, stars, collapsing chains, expressions
//! *around* the join chain) plus the skewed triangle where the AGM
//! trigger actually fires; the property test runs the same matrix over
//! random small relations.

use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use setjoins::eval::Strategy;
use setjoins::prelude::*;
use sj_workload::{CyclicWorkload, EdgeDist};

mod common;

/// `e` evaluated as written: the tree walker, no planner, no reordering.
fn as_written(db: &Database, e: &Expr) -> Relation {
    Engine::new(db.clone())
        .strategy(Strategy::Naive)
        .query(e.clone())
        .run()
        .unwrap()
        .relation
}

/// Run `e` on every engine of the matrix and assert each answer
/// byte-identical to the as-written baseline.
fn differential(name: &str, db: &Database, e: &Expr) {
    let baseline = as_written(db, e);
    for (label, engine) in common::engines(db) {
        let out = engine.query(e.clone()).run().unwrap();
        assert_eq!(out.relation, baseline, "{name}: {label} diverged");
    }
}

/// Does the planner lower `e` to the multiway operator?
fn fires_multiway(db: &Database, e: &Expr) -> bool {
    Engine::new(db.clone())
        .query(e.clone())
        .explain()
        .unwrap()
        .contains("multiway-join")
}

fn pairs(rows: impl IntoIterator<Item = [i64; 2]>) -> Relation {
    Relation::from_tuples(2, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
}

fn chain_db() -> Database {
    let mut db = Database::new();
    db.set("R", pairs((0..600).map(|i| [i % 50, i])));
    db.set("S", pairs((0..12).map(|i| [i, i % 3])));
    db.set("T", pairs((0..3).map(|i| [i, i])));
    db
}

// ---------------------------------------------------------------------------
// Degenerate shapes the enumerator must leave intact
// ---------------------------------------------------------------------------

#[test]
fn single_relations_and_non_joins_are_untouched() {
    let db = chain_db();
    for (name, e) in [
        ("scan", Expr::rel("R")),
        ("select", Expr::rel("R").select_lt(1, 2)),
        ("project", Expr::rel("R").project([2, 1])),
        ("union", Expr::rel("S").union(Expr::rel("T"))),
        ("diff", Expr::rel("S").diff(Expr::rel("T"))),
        (
            "semijoin",
            Expr::rel("R").semijoin(Condition::eq(1, 1), Expr::rel("S")),
        ),
    ] {
        differential(name, &db, &e);
    }
}

#[test]
fn two_relation_joins_and_self_joins_agree() {
    let db = chain_db();
    for (name, e) in [
        (
            "binary join",
            Expr::rel("R").join(Condition::eq(1, 2), Expr::rel("S")),
        ),
        (
            "self join",
            Expr::rel("S").join(Condition::eq(2, 1), Expr::rel("S")),
        ),
        (
            "triangle self join",
            Expr::rel("S")
                .join(Condition::eq(2, 1), Expr::rel("S"))
                .join(Condition::eq_pairs([(4, 1), (1, 2)]), Expr::rel("S")),
        ),
        (
            "theta-only join",
            Expr::rel("S").join(Condition::lt(1, 1), Expr::rel("T")),
        ),
    ] {
        differential(name, &db, &e);
    }
}

#[test]
fn empty_inputs_stay_empty_in_every_mode() {
    let mut db = chain_db();
    db.set("R", Relation::empty(2));
    let chain = Expr::rel("R")
        .join(Condition::eq(1, 2), Expr::rel("S"))
        .join(Condition::eq(3, 1), Expr::rel("T"));
    differential("empty-leftmost", &db, &chain);
    let mut db2 = chain_db();
    db2.set("T", Relation::empty(2));
    differential("empty-rightmost", &db2, &chain);
}

#[test]
fn chains_stars_and_wrapped_joins_agree() {
    let db = chain_db();
    let chain = Expr::rel("R")
        .join(Condition::eq(1, 2), Expr::rel("S"))
        .join(Condition::eq(3, 1), Expr::rel("T"));
    // A star: every arm joins the hub's first column — acyclic, so the
    // multiway trigger must never fire on it.
    let star = Expr::rel("R")
        .join(Condition::eq(1, 1), Expr::rel("S"))
        .join(Condition::eq(1, 1), Expr::rel("T"));
    assert!(!fires_multiway(&db, &star), "the trigger fired on a star");
    // Expressions around and inside the chain: the reorderer recurses
    // through non-join nodes and restores the written column order.
    let wrapped = chain.clone().project([5, 1, 3]).select_lt(2, 1);
    let inner = Expr::rel("R")
        .select_lt(1, 2)
        .join(Condition::eq(1, 2), Expr::rel("S").project([2, 1]))
        .join(Condition::eq(3, 2), Expr::rel("T"));
    for (name, e) in [
        ("badly written chain", chain),
        ("star", star),
        ("wrapped chain", wrapped),
        ("chain of transformed leaves", inner),
    ] {
        differential(name, &db, &e);
    }
}

#[test]
fn skewed_triangles_agree_where_the_multiway_operator_fires() {
    let w = CyclicWorkload {
        cycle_len: 3,
        edges_per_table: 600,
        vertices: 128,
        edges: EdgeDist::Zipf(1.3),
        seed: 0x7A1,
    };
    let db = w.database();
    let q = w.query();
    // The suite's premise: this workload actually routes the planner
    // through the multiway operator (skew pushes every pairwise estimate past the
    // AGM bound) — otherwise the differential below tests nothing new.
    assert!(
        fires_multiway(&db, &q),
        "AGM trigger stayed cold on the skewed triangle"
    );
    differential("skewed triangle", &db, &q);

    // The two controls where the trigger must stay cold: without hubs a
    // triangle's pairwise plans are already AGM-tight, and for any
    // 4-cycle the cheapest adjacent pairwise estimate is at most
    // `min(r1·r2, r3·r4) ≤ √(r1·r2·r3·r4)`, the cycle's AGM bound,
    // whatever the skew.
    let uniform = CyclicWorkload {
        edges: EdgeDist::Uniform,
        ..w
    };
    let four = CyclicWorkload {
        cycle_len: 4,
        edges_per_table: 300,
        vertices: 64,
        edges: EdgeDist::Zipf(1.2),
        seed: 0x7A2,
    };
    for (name, control) in [("uniform triangle", uniform), ("skewed 4-cycle", four)] {
        let (db, q) = (control.database(), control.query());
        assert!(!fires_multiway(&db, &q), "the trigger fired on the {name}");
        differential(name, &db, &q);
    }
}

// ---------------------------------------------------------------------------
// Property test: random relations through the whole knob matrix
// ---------------------------------------------------------------------------

fn arb_relation(arity: usize) -> impl PropStrategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(0i64..6, arity), 0..14).prop_map(
        move |rows| {
            Relation::from_tuples(arity, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random ternary chains and triangle closures: every engine of the
    /// matrix equals the as-written answer.
    #[test]
    fn modes_agree_on_random_databases(
        r in arb_relation(2),
        s in arb_relation(2),
        t in arb_relation(2),
        qi in 0usize..3,
    ) {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db.set("T", t);
        let chain = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .join(Condition::eq(4, 1), Expr::rel("T"));
        let cycle = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .join(Condition::eq_pairs([(4, 1), (1, 2)]), Expr::rel("T"));
        let star = Expr::rel("R")
            .join(Condition::eq(1, 1), Expr::rel("S"))
            .join(Condition::eq(1, 1), Expr::rel("T"));
        let e = [chain, cycle, star][qi].clone();
        let baseline = as_written(&db, &e);
        for (label, engine) in common::engines(&db) {
            let out = engine.query(e.clone()).run().unwrap();
            prop_assert_eq!(&out.relation, &baseline, "{} diverged on query {}", label, qi);
        }
    }
}
