//! The decision pin: what the statistics decide on the serving pool.
//!
//! Statistics exist to choose between plans. For each of the 16 queries
//! of `ServingWorkload::default().query_pool()`, the `serve-churn`
//! canary `σ[2<1](R)`, and the two shapes the benchmark's serving pool
//! adds — a zipf triangle and the written-worst chain — planned at
//! `OptimizeLevel::Full` on `ServingWorkload::default().database()`
//! extended with their tables, this test renders every plan node's
//! operator name, label, children, sharing count and estimated rows,
//! and the registry pick of each division node, and compares the text
//! with `tests/decisions.txt`. The text is read from
//! `PhysicalPlan::nodes()`, not from `explain()`, so a change to the
//! rendering cannot move it; a change to a statistic that a plan, a
//! pick or an estimate reads does.

use setjoins::eval::PhysOp;
use setjoins::prelude::*;
use sj_workload::{CyclicWorkload, EdgeDist, ServingWorkload};
use std::fmt::Write;

/// The serving pool's zipf triangle `E0 ⋈ E1 ⋈ E2`, at a seed where the
/// planner collapses it into one multiway join.
fn triangle() -> CyclicWorkload {
    CyclicWorkload {
        cycle_len: 3,
        edges_per_table: 1024,
        vertices: 256,
        edges: EdgeDist::Zipf(1.2),
        seed: 0xC7_C1_EC_A5,
    }
}

/// The relations of the badly written chain `(C1 ⋈[1=2] C2) ⋈[3=1] C3`
/// (see [`pool`]): as written the huge join runs first, the cheap order
/// joins the tiny tail first.
fn chain_relations(n: usize) -> [(&'static str, Relation); 3] {
    let rows = |it: &mut dyn Iterator<Item = [i64; 2]>| {
        Relation::from_tuples(2, it.map(|r| Tuple::from_ints(&r))).expect("binary rows")
    };
    let m = (n / 100).max(3) as i64;
    [
        ("C1", rows(&mut (0..n as i64).map(|i| [i % 50, i]))),
        ("C2", rows(&mut (0..m).map(|i| [i, i % 3]))),
        ("C3", rows(&mut (0..3i64).map(|i| [i, i]))),
    ]
}

/// The serving database plus the triangle's and the chain's tables.
fn database() -> Database {
    let mut db = ServingWorkload::default().database();
    let tri = triangle();
    for (name, rel) in tri.table_names().into_iter().zip(tri.generate()) {
        db.set(name, rel);
    }
    for (name, rel) in chain_relations(4000) {
        db.set(name, rel);
    }
    db
}

/// The serving pool, the canary of the `serve-churn` benchmark, the
/// triangle and the chain.
fn pool() -> Vec<Expr> {
    let mut pool = ServingWorkload::default().query_pool();
    pool.push(Expr::rel("R").select_lt(2, 1));
    pool.push(triangle().query());
    pool.push(
        Expr::rel("C1")
            .join(Condition::eq(1, 2), Expr::rel("C2"))
            .join(Condition::eq(3, 1), Expr::rel("C3")),
    );
    pool
}

/// One line per plan node, in topological order.
fn decisions() -> String {
    let engine = Engine::new(database()).optimize(OptimizeLevel::Full);
    let mut out = String::new();
    for (i, e) in pool().into_iter().enumerate() {
        writeln!(out, "q{i}: {e}").unwrap();
        let plan = engine.query(e).plan().expect("the pool plans");
        for (id, node) in plan.nodes().iter().enumerate() {
            write!(
                out,
                "  #{id} {} {} {:?} ×{} est={:.3}",
                node.op.name(),
                node.label,
                node.children,
                node.occurrences,
                node.est_rows
            )
            .unwrap();
            if let PhysOp::Divide { algorithm, .. } = &node.op {
                write!(out, " pick={algorithm}").unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn serving_pool_decisions_are_pinned() {
    let got = decisions();
    let want = include_str!("decisions.txt");
    assert!(
        got == want,
        "the serving pool's plan decisions moved; now:\n{got}"
    );
}
