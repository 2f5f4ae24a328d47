//! # sj-eval — instrumented evaluation of algebra expressions
//!
//! Evaluators for the RA / SA / extended-RA expressions of `sj-algebra`
//! over `sj-storage` databases:
//!
//! * [`evaluate`] — the plain evaluator: hash equi-joins/semijoins with
//!   residual filters, merge-based set operations, hash grouping.
//! * [`instrumented::evaluate_instrumented`] — the same evaluation, but
//!   additionally reporting the cardinality of **every subexpression**.
//!   This is the measurement instrument behind the paper's Definition 16
//!   ("linear" = every intermediate O(n); "quadratic" = some intermediate
//!   Ω(n²)) and is used by all dichotomy experiments.
//! * [`report::Report`] — what an instrumented run measured, from either
//!   evaluator: one [`NodeStat`] per node (cardinality, operator, self
//!   time; estimate and sharing count where the planner ran), the
//!   accessors the experiments read (`max_intermediate`,
//!   `max_q_error`, …) and the one `EXPLAIN ANALYZE` table renderer.
//! * [`reference::evaluate_reference`] — a naive nested-loop transliteration
//!   of the paper's semantics, used to cross-validate the optimized
//!   operators in unit and property tests.
//! * [`plan::PhysicalPlan`] — the cost-based physical planner: the
//!   expression is hash-consed into an operator DAG so each **distinct**
//!   subexpression is evaluated exactly once, leaf relations are scanned
//!   zero-copy via `Arc` handles, joins/semijoins hash on dense key
//!   codes, and join chains are ordered from statistics. See [`plan`] for the
//!   design; [`plan::PhysicalPlan::explain`] renders the chosen
//!   operators.
//! * [`engine::Engine`] — **the recommended entry point**: one facade
//!   over all of the above plus the `sj-setjoin` algorithm registry and
//!   the `sj-stats` catalog every plan and algorithm pick is costed
//!   from. Optimizer level, evaluation strategy, instrumentation and
//!   parallelism are builder configuration; queries
//!   return a single [`engine::QueryOutput`]. The pre-`Engine` free
//!   functions that remain exported — [`evaluate`],
//!   [`evaluate_instrumented`], [`evaluate_reference`] — are the tree
//!   walkers themselves.

pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod instrumented;
pub mod joinorder;
pub mod kernel;
pub mod ops;
pub mod ops_vec;
pub mod par;
pub mod plain;
pub mod plan;
pub mod reference;
pub mod report;

pub use engine::{Engine, Instrument, Query, QueryOutput, SetOpOutput, Strategy};
pub use error::EvalError;
pub use exec::{Execution, JoinOrder, StatsMode};
pub use explain::explain;
pub use instrumented::evaluate_instrumented;
pub use joinorder::DP_MAX_RELATIONS;
pub use kernel::{multiway_join, MultiwayLeaf, MultiwaySpec};
pub use par::Parallelism;
pub use plain::evaluate;
pub use plan::{PhysOp, PhysicalPlan};
pub use reference::evaluate_reference;
pub use report::{NodeStat, Report, Q_ERROR_BUDGET};

/// Most-used items in one import.
pub mod prelude {
    pub use crate::engine::{Engine, Instrument, Query, QueryOutput, SetOpOutput, Strategy};
    pub use crate::exec::{Execution, JoinOrder, StatsMode};
    pub use crate::instrumented::evaluate_instrumented;
    pub use crate::par::Parallelism;
    pub use crate::plain::evaluate;
    pub use crate::reference::evaluate_reference;
    pub use crate::report::{NodeStat, Report};
}

#[cfg(test)]
mod proptests {
    // `engine::Strategy` would shadow proptest's `Strategy` trait under a
    // glob, so the evaluator entry points are imported explicitly.
    use super::{
        evaluate, evaluate_instrumented, evaluate_reference, Engine, Instrument, NodeStat,
    };
    use proptest::prelude::*;
    use sj_algebra::{Atom, CompOp, Condition, Expr};
    use sj_storage::{Database, Relation, Tuple, Value};

    fn arb_relation(arity: usize) -> impl Strategy<Value = Relation> {
        proptest::collection::vec(proptest::collection::vec(0i64..6, arity), 0..12).prop_map(
            move |rows| {
                Relation::from_tuples(arity, rows.into_iter().map(|r| Tuple::from_ints(&r)))
                    .unwrap()
            },
        )
    }

    fn arb_db() -> impl Strategy<Value = Database> {
        (arb_relation(2), arb_relation(2), arb_relation(1)).prop_map(|(r, s, t)| {
            let mut db = Database::new();
            db.set("R", r);
            db.set("S", s);
            db.set("T", t);
            db
        })
    }

    fn arb_condition() -> impl Strategy<Value = Condition> {
        proptest::collection::vec(
            (1usize..=2, 1usize..=2, 0u8..4).prop_map(|(l, r, o)| Atom {
                left: l,
                op: match o {
                    0 => CompOp::Eq,
                    1 => CompOp::Neq,
                    2 => CompOp::Lt,
                    _ => CompOp::Gt,
                },
                right: r,
            }),
            0..3,
        )
        .prop_map(Condition::new)
    }

    /// `e` on `db` through a default engine: the planned strategy.
    fn planned(e: &Expr, db: &Database) -> Relation {
        Engine::new(db.clone())
            .query(e.clone())
            .run()
            .unwrap()
            .relation
    }

    /// `π_i(X) × π_j(Y)` for X, Y ∈ {R, S}.
    fn leaf_product() -> impl Strategy<Value = Expr> {
        let column = || {
            (prop_oneof![Just("R"), Just("S")], 1usize..=2)
                .prop_map(|(r, c)| Expr::rel(r).project([c]))
        };
        (column(), column()).prop_map(|(a, b)| a.product(b))
    }

    /// Arbitrary **valid** arity-2 expressions over R, S (arity 2).
    fn arb_expr2() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![Just(Expr::rel("R")), Just(Expr::rel("S"))];
        leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
                // A product as either operand of a difference, or both,
                // which the walker reads without storing.
                (
                    leaf_product(),
                    prop_oneof![inner.clone(), leaf_product()],
                    any::<bool>()
                )
                    .prop_map(|(p, c, left)| if left {
                        p.diff(c)
                    } else {
                        c.diff(p)
                    }),
                (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_eq(i, j)),
                (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_lt(i, j)),
                (0i64..6, inner.clone()).prop_map(|(c, a)| a.tag(Value::int(c)).project([1, 2])),
                (arb_condition(), inner.clone(), inner.clone())
                    .prop_map(|(t, a, b)| a.join(t, b).project([1, 2])),
                (arb_condition(), inner.clone(), inner.clone())
                    .prop_map(|(t, a, b)| a.semijoin(t, b)),
                inner.clone().prop_map(|a| a.project([2, 1])),
                inner.clone().prop_map(|a| a.group_count([1])),
                // The three shapes the planner fuses into one node:
                // `π∘⋉`, `π∘σ` (tagged back to arity 2) and `γ∘⋈`.
                (arb_condition(), inner.clone(), inner.clone(), 0i64..6)
                    .prop_map(|(t, a, b, c)| a.semijoin(t, b).project([1]).tag(Value::int(c))),
                (1usize..=2, 1usize..=2, inner.clone(), 0i64..6)
                    .prop_map(|(i, j, a, c)| a.select_eq(i, j).project([1]).tag(Value::int(c))),
                (arb_condition(), inner.clone(), inner.clone())
                    .prop_map(|(t, a, b)| a.join(t, b).group_count([1])),
            ]
        })
    }

    /// The arms above reach every fusion: over a fixed sample of
    /// `arb_expr2`, each fused operator appears in some plan.
    #[test]
    fn arb_expr2_reaches_every_fusion() {
        let mut rng = proptest::test_runner::TestRng::from_seed(7);
        let db = arb_db().generate(&mut rng);
        let mut seen = [false; 3];
        for _ in 0..256 {
            let e = arb_expr2().generate(&mut rng);
            let plan = Engine::new(db.clone()).query(e).plan().unwrap();
            for node in plan.nodes() {
                let name = node.op.name();
                seen[0] |= name.ends_with("semijoin+project");
                seen[1] |= name == "filter+project";
                seen[2] |= name.ends_with("group-join");
            }
        }
        assert_eq!(seen, [true; 3], "π∘⋉, π∘σ, γ∘⋈");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Optimized and reference evaluators agree on random expressions
        /// and databases.
        #[test]
        fn optimized_matches_reference(e in arb_expr2(), db in arb_db()) {
            let fast = evaluate(&e, &db).unwrap();
            let slow = evaluate_reference(&e, &db).unwrap();
            prop_assert_eq!(fast, slow);
        }

        /// The instrumented evaluator computes the same result and one stat
        /// per AST node.
        #[test]
        fn instrumented_consistent(e in arb_expr2(), db in arb_db()) {
            let plain = evaluate(&e, &db).unwrap();
            let (result, report) = evaluate_instrumented(&e, &db).unwrap();
            prop_assert_eq!(&result, &plain);
            prop_assert_eq!(report.output_rows, plain.len());
            prop_assert_eq!(report.nodes.len(), e.node_count());
            prop_assert_eq!(report.nodes[0].cardinality, plain.len());
            prop_assert!(report.max_intermediate() >= plain.len());
        }

        /// Semijoin is equivalent to join + project (the defining identity
        /// used throughout the paper).
        #[test]
        fn semijoin_join_identity(t in arb_condition(), db in arb_db()) {
            let sj = Expr::rel("R").semijoin(t.clone(), Expr::rel("S"));
            let jp = Expr::rel("R").join(t, Expr::rel("S")).project([1, 2]);
            prop_assert_eq!(evaluate(&sj, &db).unwrap(), evaluate(&jp, &db).unwrap());
        }

        /// Schema-aware semijoin→join lowering preserves semantics.
        #[test]
        fn semijoin_lowering_semantics(e in arb_expr2(), db in arb_db()) {
            let lowered = sj_algebra::semijoins_to_joins_checked(&e, &db.schema()).unwrap();
            prop_assert_eq!(evaluate(&e, &db).unwrap(), evaluate(&lowered, &db).unwrap());
        }

        /// The planned (DAG-memoizing) evaluator agrees with the naive
        /// evaluator on random expressions and databases.
        #[test]
        fn planned_matches_naive(e in arb_expr2(), db in arb_db()) {
            prop_assert_eq!(
                planned(&e, &db),
                evaluate(&e, &db).unwrap(),
                "planning {} diverged", e
            );
        }

        /// Planning the *optimized* expression still agrees with naively
        /// evaluating the original — the optimizer and the planner
        /// compose without changing semantics.
        #[test]
        fn optimized_planned_matches_naive(e in arb_expr2(), db in arb_db()) {
            let opt = sj_algebra::optimize(&e, &db.schema()).unwrap();
            prop_assert_eq!(
                planned(&opt, &db),
                evaluate(&e, &db).unwrap(),
                "optimize({}) = {} then plan diverged", e, opt
            );
        }

        /// The planned instrumented report is consistent: same result, one
        /// stat per *distinct* subexpression, never more stats than tree
        /// nodes.
        #[test]
        fn planned_instrumented_consistent(e in arb_expr2(), db in arb_db()) {
            let plain = evaluate(&e, &db).unwrap();
            let out = Engine::new(db.clone())
                .instrument(Instrument::Cardinalities)
                .query(e.clone())
                .run()
                .unwrap();
            prop_assert_eq!(&out.relation, &plain);
            let report = out.report.unwrap();
            prop_assert_eq!(report.output_rows, plain.len());
            prop_assert!(report.nodes.len() <= e.node_count());
            prop_assert_eq!(report.expr_nodes, e.node_count());
            // Occurrences over plan nodes sum to the tree size, a fused
            // node (`π∘⋉`, `π∘σ`, `γ∘⋈`) weighed by the two tree nodes
            // each of its occurrences stands for.
            let tree_nodes = |n: &NodeStat| n.occurrences * (1 + n.label.matches('∘').count());
            prop_assert_eq!(
                report.nodes.iter().map(tree_nodes).sum::<usize>(),
                e.node_count()
            );
            prop_assert_eq!(report.nodes.last().unwrap().cardinality, plain.len());
        }

        /// The optimizer (selection pushdown, projection pruning, semijoin
        /// reduction) preserves semantics on arbitrary expressions.
        #[test]
        fn optimizer_preserves_semantics(e in arb_expr2(), db in arb_db()) {
            let opt = sj_algebra::optimize(&e, &db.schema()).unwrap();
            prop_assert_eq!(
                evaluate(&e, &db).unwrap(),
                evaluate(&opt, &db).unwrap(),
                "optimize({}) = {} changed semantics", e, opt
            );
        }

        /// Semijoin reduction never increases the max intermediate size.
        #[test]
        fn optimizer_never_hurts_intermediates(e in arb_expr2(), db in arb_db()) {
            let opt = sj_algebra::optimize(&e, &db.schema()).unwrap();
            let before = evaluate_instrumented(&e, &db).unwrap().1.max_intermediate();
            let after = evaluate_instrumented(&opt, &db).unwrap().1.max_intermediate();
            prop_assert!(after <= before, "{}: {} -> {} ({} tuples -> {})",
                e, e, opt, before, after);
        }

        /// A single semijoin never outgrows its left operand — the
        /// "linear by definition" property of SA (Section 1).
        #[test]
        fn semijoins_bounded_by_operand(t in arb_condition(), db in arb_db()) {
            let e = Expr::rel("R").semijoin(t, Expr::rel("S"));
            let (_, report) = evaluate_instrumented(&e, &db).unwrap();
            let r_size = db.get("R").unwrap().len();
            prop_assert!(report.output_rows <= r_size);
        }
    }
}
