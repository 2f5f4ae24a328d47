//! `Query::explain` + the semijoin-reduction optimizer: watch the paper's
//! theory fix a real plan, all through one [`Engine`].
//!
//! The engine unifies what used to be two explain flavors: under
//! `Strategy::Naive` it renders the expression tree with actual
//! cardinalities (`EXPLAIN ANALYZE`), under `Strategy::Planned` the
//! memoized physical DAG with operator choices (`EXPLAIN`). The last
//! section shows both on the division plan: the naive tree keeps the
//! quadratic product no rewrite removes, the planned DAG runs the idiom
//! as one division node.
//!
//! ```bash
//! cargo run --example explain_and_optimize
//! ```

use setjoins::prelude::*;
use sj_workload::DivisionWorkload;

fn main() {
    let db = DivisionWorkload {
        groups: 200,
        divisor_size: 8,
        containment_fraction: 0.3,
        extra_per_group: 4,
        noise_domain: 256,
        seed: 7,
    }
    .database();

    // Two engines over the same data: one runs plans exactly as written,
    // one applies the full optimizer pipeline (semijoin reduction,
    // selection pushdown, projection pruning).
    let raw = Engine::new(db.clone()).strategy(Strategy::Naive);
    let optimized = raw.clone().optimize(OptimizeLevel::Full);

    // A join plan a naive planner might emit for "A-values related to
    // some divisor value": join then project the left columns.
    let naive_plan = Expr::rel("R")
        .join(Condition::eq(2, 1), Expr::rel("S"))
        .project([1]);
    println!("== naive plan ==\n{naive_plan}\n");
    println!("{}", raw.query(naive_plan.clone()).explain().unwrap());

    // The optimizer recognizes the projection only keeps left columns and
    // rewrites the join into a semijoin (the paper's linear core).
    let q = optimized.query(naive_plan.clone());
    println!("== optimized plan ==\n{}\n", q.optimized().unwrap());
    println!("{}", q.explain().unwrap());

    assert_eq!(
        raw.query(naive_plan.clone()).run().unwrap().relation,
        q.run().unwrap().relation
    );

    // The planned strategy explains the physical DAG instead — operator
    // choices (hash vs merge vs nested-loop) and memoized sharing.
    println!("== physical DAG of the optimized plan ==");
    println!(
        "{}",
        optimized
            .clone()
            .strategy(Strategy::Planned)
            .query(naive_plan)
            .explain()
            .unwrap()
    );

    // Division, though, cannot be fixed this way: Proposition 26 says the
    // quadratic node is unavoidable in plain RA.
    let division = sj_algebra::division::division_double_difference("R", "S");
    println!("== division plan (quadratic by Proposition 26) ==\n{division}\n");
    println!("{}", raw.query(division.clone()).explain().unwrap());
    println!(
        "after optimization the largest intermediate remains (the product \
         feeds a difference, not a projection):"
    );
    println!("{}", optimized.query(division.clone()).explain().unwrap());

    // The planner leaves RA instead: it recognizes the idiom and runs it
    // as one division node, one linear algorithm of the registry.
    let planned = optimized.clone().strategy(Strategy::Planned);
    let dag = planned.query(division.clone()).explain().unwrap();
    println!("== physical DAG of the division plan ==\n{dag}");
    assert!(
        dag.contains("divide[⊇]"),
        "the idiom lowers to a division node"
    );
    let out = planned
        .clone()
        .instrument(Instrument::Cardinalities)
        .query(division.clone())
        .run()
        .unwrap();
    assert_eq!(out.relation, raw.query(division).run().unwrap().relation);
    println!(
        "RA cannot escape the quadratic product; the planner does: under \
         `Strategy::Planned` the idiom runs as a direct division operator \
         (the same registry algorithms `Engine::divide` uses), and the \
         largest intermediate is the dividend itself ({} rows). \
         `Strategy::Naive` keeps evaluating the RA as written — the \
         instrument for Proposition 26.\n",
        out.report.unwrap().max_intermediate()
    );

    // The §5 counting plan is linear as written, but it still builds
    // R ⋈ S only to count it per group. The planner runs γ₁(R ⋈ S) as one
    // group-join: each R row counts its partners in S, and no join row
    // is built.
    let counting = sj_algebra::division::division_counting("R", "S");
    println!("== counting plan (§5) ==\n{counting}\n");
    println!("{}", raw.query(counting.clone()).explain().unwrap());
    let dag = planned.query(counting.clone()).explain().unwrap();
    println!("== physical DAG of the counting plan ==\n{dag}");
    assert!(
        dag.contains("hash-group-join") && dag.contains("gcount[1]∘join[2=1]"),
        "γ₁(R ⋈ S) runs as one group-join node"
    );
    assert!(!dag.contains("hash-join"), "no join row is built");
    assert_eq!(
        planned.query(counting.clone()).run().unwrap().relation,
        raw.query(counting).run().unwrap().relation
    );
}
