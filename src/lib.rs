//! # setjoins — umbrella crate
//!
//! A production-quality Rust reproduction of
//!
//! > Dirk Leinders, Jan Van den Bussche.
//! > *On the complexity of division and set joins in the relational algebra.*
//! > PODS 2005; JCSS 73(3):538–549, 2007.
//!
//! This crate re-exports the whole workspace under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`storage`] | `sj-storage` | values, tuples, relations, databases |
//! | [`algebra`] | `sj-algebra` | RA / SA / extended-RA expression ASTs, optimizer rewrites |
//! | [`eval`] | `sj-eval` | the [`Engine`] facade and the underlying evaluators |
//! | [`logic`] | `sj-logic` | guarded fragment, Theorem 8 translations |
//! | [`bisim`] | `sj-bisim` | guarded bisimulation checker and solver |
//! | [`core`] | `sj-core` | dichotomy theorem machinery (the paper's contribution) |
//! | [`setjoin`] | `sj-setjoin` | division and set-join algorithms & their [`Registry`] |
//! | [`stats`] | `sj-stats` | per-relation statistics, cardinality estimation, the cost model |
//! | [`workload`] | `sj-workload` | deterministic data generators, paper figures, serving traces |
//! | [`server`] | `sj-server` | concurrent snapshot-isolated serving with a plan/result cache |
//!
//! ## Quickstart
//!
//! The [`Engine`] is the single entry point: build it over a database,
//! configure optimizer level / evaluation strategy / instrumentation /
//! parallelism, then run queries and set operators:
//!
//! ```
//! use setjoins::prelude::*;
//!
//! // Fig. 1: who has all the symptoms in the Symptoms table?
//! let engine = Engine::new(setjoins::workload::figures::fig1())
//!     .strategy(Strategy::Planned)
//!     .instrument(Instrument::Cardinalities);
//!
//! // Division and set joins route through the algorithm registry, which
//! // picks the algorithm the cost model prices cheapest on the operands'
//! // statistics.
//! let division = engine
//!     .divide("Person", "Symptoms", DivisionSemantics::Containment)
//!     .unwrap();
//! assert_eq!(division.relation.len(), 2); // An and Bob
//!
//! let diagnosis = engine
//!     .set_join("Person", "Disease", SetPredicate::Contains)
//!     .unwrap();
//! assert_eq!(diagnosis.relation.len(), 3);
//!
//! // Relational-algebra queries return relation + report + plan at once.
//! let plan = setjoins::algebra::division::division_double_difference("Person", "Symptoms");
//! let out = engine.query(plan).run().unwrap();
//! assert_eq!(out.relation, division.relation);
//! assert!(out.plan.is_some()); // the memoized physical DAG
//! // What the run measured is one `Report`, whichever evaluator ran:
//! // per-node cardinalities (Definition 16), estimates, timings.
//! let report = out.report.unwrap();
//! assert!(report.max_intermediate() >= 2);
//! assert!(report.render().starts_with("profile:")); // EXPLAIN ANALYZE
//! ```
//!
//! Statistics are an input, not a mode: the engine analyzes a relation
//! the first time a plan or an algorithm pick reads it (and again only
//! after it changed), and every plan and pick is costed from that catalog.
//! To force one algorithm — an ablation — look it up in
//! [`Registry::standard`] and run it with `setjoin::run_division_traced` /
//! `setjoin::run_set_join_traced`.
//!
//! The pre-`Engine` free functions remain exported — `evaluate`,
//! `evaluate_instrumented` (the tree walkers `Strategy::Naive` runs) and
//! `evaluate_reference` (the nested-loop test oracle); the direct
//! operators on bare relations are `sj_setjoin`'s per-algorithm functions
//! (`setjoin::hash_division`, `setjoin::signature_set_join`, …).

pub use sj_algebra as algebra;
pub use sj_bisim as bisim;
pub use sj_core as core;
pub use sj_eval as eval;
pub use sj_logic as logic;
pub use sj_obs as obs;
pub use sj_server as server;
pub use sj_setjoin as setjoin;
pub use sj_stats as stats;
pub use sj_storage as storage;
pub use sj_workload as workload;

pub use sj_eval::{
    Engine, Execution, Instrument, JoinOrder, Parallelism, Query, QueryOutput, StatsMode, Strategy,
};
pub use sj_setjoin::Registry;
pub use sj_stats::{CostModel, TableStats};

/// Most-used items in one import.
pub mod prelude {
    pub use sj_algebra::{Condition, Expr, OptimizeLevel};
    pub use sj_eval::{
        evaluate, evaluate_instrumented, Engine, Execution, Instrument, JoinOrder, Parallelism,
        Query, QueryOutput, Report, SetOpOutput, StatsMode, Strategy,
    };
    pub use sj_setjoin::{ComplexityClass, DivisionSemantics, Registry, SetPredicate};
    pub use sj_stats::{CostModel, StatsCatalog, TableStats};
    pub use sj_storage::{tuple, Database, Relation, Schema, Tuple, Value};
}
