//! The decision pin: what the statistics decide on the serving pool.
//!
//! Statistics exist to choose between plans. For each of the 16 queries
//! of `ServingWorkload::default().query_pool()` and the `serve-churn`
//! canary `σ[2<1](R)`, planned at `OptimizeLevel::Full` on
//! `ServingWorkload::default().database()`, this test renders every plan
//! node's operator name, label, children and estimated rows, and the
//! registry pick of each division node, and compares the text with
//! `tests/decisions.txt`. The text is read from `PhysicalPlan::nodes()`,
//! not from `explain()`, so a change to the rendering cannot move it; a
//! change to a statistic that a plan, a pick or an estimate reads does.

use setjoins::eval::PhysOp;
use setjoins::prelude::*;
use sj_workload::ServingWorkload;
use std::fmt::Write;

/// The serving pool plus the canary of the `serve-churn` benchmark.
fn pool() -> Vec<Expr> {
    let mut pool = ServingWorkload::default().query_pool();
    pool.push(Expr::rel("R").select_lt(2, 1));
    pool
}

/// One line per plan node, in topological order.
fn decisions() -> String {
    let engine = Engine::new(ServingWorkload::default().database()).optimize(OptimizeLevel::Full);
    let mut out = String::new();
    for (i, e) in pool().into_iter().enumerate() {
        writeln!(out, "q{i}: {e}").unwrap();
        let plan = engine.query(e).plan().expect("the pool plans");
        for (id, node) in plan.nodes().iter().enumerate() {
            write!(
                out,
                "  #{id} {} {} {:?} est={:.3}",
                node.op.name(),
                node.label,
                node.children,
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
