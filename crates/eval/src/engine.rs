//! The [`Engine`]: one configurable entry point for every way this
//! workspace can answer a query.
//!
//! The paper's dichotomy is fundamentally a statement about *which
//! plan/algorithm gets picked* — so that choice is configuration on one
//! object (optimizer pipeline, evaluator, instrumentation, division or
//! set-join algorithm), not a pipeline each caller hand-wires out of free
//! functions:
//!
//! ```
//! use sj_eval::{Engine, Instrument, Strategy};
//! use sj_algebra::{division, OptimizeLevel};
//! use sj_storage::{Database, Relation};
//!
//! let mut db = Database::new();
//! db.set("R", Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7]]));
//! db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
//!
//! let engine = Engine::new(db)
//!     .optimize(OptimizeLevel::Full)
//!     .strategy(Strategy::Planned)
//!     .instrument(Instrument::Cardinalities);
//!
//! let out = engine
//!     .query(division::division_double_difference("R", "S"))
//!     .run()
//!     .unwrap();
//! assert_eq!(out.relation, Relation::from_int_rows(&[&[1]]));
//! assert!(out.plan.is_some());                      // Strategy::Planned
//! assert!(out.report.unwrap().max_intermediate() >= 1);
//! ```
//!
//! * [`Engine::query`] builds a [`Query`]; [`Query::run`] returns a
//!   single [`QueryOutput`] `{ relation, report, plan }`, and
//!   [`Query::explain`] renders the plan of whichever strategy is set.
//! * [`Engine::divide`] and [`Engine::set_join`] route the direct
//!   division/set-join operators through the algorithm tables behind
//!   [`sj_setjoin::Registry`], which picks the estimated-cheapest
//!   algorithm. An ablation looks its algorithm up in
//!   [`Registry::standard`] and calls [`sj_setjoin::run_division_traced`]
//!   / [`sj_setjoin::run_set_join_traced`] itself.
//! * Statistics are an input, not a mode: the engine owns a
//!   [`StatsCatalog`] that analyzes each relation the first time a plan
//!   or an algorithm pick reads it and again whenever the stored
//!   relation changed (its [`Database::version_of`] moved). Every
//!   [`Strategy::Planned`] plan and every pick is costed from it;
//!   [`Strategy::Naive`] never touches it.

use crate::error::EvalError;
use crate::exec::{Execution, JoinOrder, StatsMode};
use crate::explain::explain;
use crate::instrumented::evaluate_instrumented;
use crate::par::Parallelism;
use crate::plain::evaluate;
use crate::plan::PhysicalPlan;
use crate::report::Report;
use sj_algebra::{AlgebraError, Expr, OptimizeLevel};
use sj_setjoin::registry::{ComplexityClass, Registry};
use sj_setjoin::{DivisionSemantics, SetPredicate};
use sj_stats::{CatalogSource, CostModel, StatsCatalog, TableStats};
use sj_storage::{Database, Relation};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which evaluator executes the (optimized) expression. The paper needs
/// exactly these two regimes: RA run as written (Definition 16's
/// intermediate sizes) and RA run with the linear operators
/// (Proposition 26's division node). The nested-loop reference
/// evaluator is a test oracle, called directly as
/// [`crate::evaluate_reference`], not a strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Strategy {
    /// The DAG-memoizing, cost-based physical planner
    /// ([`crate::PhysicalPlan`]): every distinct subexpression evaluated
    /// once, zero-copy leaf scans, hash joins on dense key codes, join
    /// chains ordered from statistics, the RA division
    /// idioms run as one division node ([`crate::PhysOp::Divide`]). The
    /// production default.
    #[default]
    Planned,
    /// The tree-walking evaluator ([`crate::evaluate`]): one evaluation
    /// per *tree* node — the measurement instrument for the paper's
    /// Definition 16 experiments, where per-occurrence cardinalities are
    /// the point.
    Naive,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Planned => write!(f, "planned"),
            Strategy::Naive => write!(f, "naive"),
        }
    }
}

/// How much measurement a [`Query::run`] performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Instrument {
    /// No per-node statistics; fastest. [`QueryOutput::report`] is `None`.
    #[default]
    Off,
    /// Record per-node cardinalities (the Definition 16 quantities),
    /// self times and — under [`Strategy::Planned`] — estimates and
    /// sharing counts in a [`Report`], plus the end-to-end
    /// [`Report::elapsed`]; [`Report::render`] is the `EXPLAIN
    /// ANALYZE`-style table (with a timing-masked form for golden
    /// tests).
    Cardinalities,
}

/// Everything a [`Query::run`] produces.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The query result.
    pub relation: Relation,
    /// Per-node statistics and the end-to-end wall time
    /// ([`Report::elapsed`]: optimize + plan + execute), present iff
    /// [`Instrument`] is not `Off`.
    pub report: Option<Report>,
    /// The physical plan that was executed ([`Strategy::Planned`] only).
    pub plan: Option<PhysicalPlan>,
}

/// The result of a table-routed [`Engine::divide`] /
/// [`Engine::set_join`], carrying which algorithm ran.
#[derive(Debug, Clone)]
pub struct SetOpOutput {
    /// The operator result.
    pub relation: Relation,
    /// Name of the algorithm that ran.
    pub algorithm: &'static str,
    /// Its worst-case complexity class.
    pub complexity: ComplexityClass,
    /// Wall-clock time of the algorithm run.
    pub elapsed: Duration,
}

/// The unified query engine: a database plus evaluation configuration.
///
/// Construction is builder-style — each setter consumes and returns the
/// engine, so a fully configured engine is one expression. See the
/// [module docs](self) for a complete example.
#[derive(Clone, Debug)]
pub struct Engine {
    db: Database,
    optimize: OptimizeLevel,
    strategy: Strategy,
    instrument: Instrument,
    parallelism: Parallelism,
    catalog: Arc<StatsCatalog>,
}

impl Engine {
    /// An engine over `db` with the default configuration: no algebraic
    /// rewrites ([`OptimizeLevel::Off`]),
    /// [`Strategy::Planned`], [`Instrument::Off`],
    /// [`Parallelism::Serial`] and an empty statistics catalog that
    /// fills on first use. Plans and algorithm picks are priced with [`CostModel::default`] — the one statement
    /// of the cost constants; there is no knob to swap it.
    pub fn new(db: Database) -> Engine {
        Engine {
            db,
            optimize: OptimizeLevel::Off,
            strategy: Strategy::default(),
            instrument: Instrument::default(),
            parallelism: Parallelism::default(),
            catalog: Arc::new(StatsCatalog::new()),
        }
    }

    /// Set the optimizer level.
    pub fn optimize(mut self, level: OptimizeLevel) -> Engine {
        self.optimize = level;
        self
    }

    /// Set the evaluation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Engine {
        self.strategy = strategy;
        self
    }

    /// Set the instrumentation level.
    pub fn instrument(mut self, instrument: Instrument) -> Engine {
        self.instrument = instrument;
        self
    }

    /// Set the worker budget of [`Engine::divide`] and
    /// [`Engine::set_join`]: the registry's `auto` selectors price the
    /// partition-parallel division/set-join variants at this worker
    /// count, and the pick runs at it. Queries ignore it: every plan runs
    /// on the caller's thread (see [`crate::par`]). Results are
    /// byte-identical to [`Parallelism::Serial`] (the default) for every
    /// worker count.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Engine {
        self.parallelism = parallelism;
        self
    }

    /// Accepted and ignored: [`Execution`] has one value and selects
    /// nothing (see [`crate::exec`]). Kept because `benchmark/` calls it.
    pub fn execution(self, _execution: Execution) -> Engine {
        self
    }

    /// Accepted and ignored: [`StatsMode`] has one value and selects
    /// nothing (see [`crate::exec`]). Kept because `benchmark/` calls it.
    pub fn stats(self, _mode: StatsMode) -> Engine {
        self
    }

    /// Accepted and ignored: [`JoinOrder`] has one value and selects
    /// nothing (the planner always runs its join-order search). Kept
    /// because `benchmark/` calls it.
    pub fn join_order(self, _order: JoinOrder) -> Engine {
        self
    }

    /// The statistics catalog, shared by every clone and
    /// [fork](Engine::fork) of this engine; planning and algorithm picks
    /// fill it lazily.
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// The engine's database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the engine's database (loads, inserts).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Consume the engine, returning its database.
    pub fn into_db(self) -> Database {
        self.db
    }

    /// A clone of this engine bound to a different database, sharing
    /// everything else — crucially the
    /// [`StatsCatalog`], so statistics analyzed by any fork benefit all
    /// of them (the catalog compares [`Database::version_of`], which is
    /// unique across the process: snapshots of one evolving master
    /// share entries for the relations they share, and unrelated
    /// databases can never be served each other's).
    ///
    /// This is the serving substrate: `sj-server` holds one template
    /// engine and forks it per query onto an immutable
    /// [`sj_storage::Snapshot`] of the master database.
    pub fn fork(&self, db: Database) -> Engine {
        let mut forked = self.clone();
        forked.db = db;
        forked
    }

    /// Build a [`Query`] for `expr` against this engine's configuration.
    pub fn query(&self, expr: Expr) -> Query<'_> {
        Query { engine: self, expr }
    }

    /// Division `dividend ÷ divisor`, run by the algorithm of the table
    /// the cost model prices cheapest on the operands' statistics
    /// ([`Registry::auto_division`]).
    pub fn divide(
        &self,
        dividend: &str,
        divisor: &str,
        sem: DivisionSemantics,
    ) -> Result<SetOpOutput, EvalError> {
        let r = self.operand(dividend, 2)?;
        let s = self.operand(divisor, 1)?;
        let workers = self.parallelism.workers();
        let (rs, ss) = (self.operand_stats(dividend), self.operand_stats(divisor));
        let alg = Registry::standard().auto_division(&rs, &ss, workers, &CostModel::default());
        let start = Instant::now();
        let relation = sj_setjoin::run_division_traced(alg, r, s, sem, workers);
        Ok(SetOpOutput {
            relation,
            algorithm: alg.name(),
            complexity: alg.complexity(),
            elapsed: start.elapsed(),
        })
    }

    /// Set join `left ⋈_{B pred D} right`, run by the cheapest algorithm
    /// of the table that implements `pred`
    /// ([`Registry::auto_set_join`]).
    pub fn set_join(
        &self,
        left: &str,
        right: &str,
        pred: SetPredicate,
    ) -> Result<SetOpOutput, EvalError> {
        let r = self.operand(left, 2)?;
        let s = self.operand(right, 2)?;
        let workers = self.parallelism.workers();
        let (rs, ss) = (self.operand_stats(left), self.operand_stats(right));
        let alg =
            Registry::standard().auto_set_join(&rs, &ss, pred, workers, &CostModel::default());
        let start = Instant::now();
        let relation = sj_setjoin::run_set_join_traced(alg, r, s, pred, workers);
        Ok(SetOpOutput {
            relation,
            algorithm: alg.name(),
            complexity: alg.complexity(),
            elapsed: start.elapsed(),
        })
    }

    /// Build the physical plan for an (optimized) expression, costed
    /// from the engine's catalog.
    fn plan_for(&self, expr: &Expr) -> Result<PhysicalPlan, EvalError> {
        PhysicalPlan::of_costed_with_order(
            expr,
            &self.db.schema(),
            &CatalogSource::new(&self.catalog, &self.db),
            &CostModel::default(),
            JoinOrder::Dp,
        )
    }

    /// Catalog statistics for a set-operator operand that
    /// [`Engine::operand`] already found.
    fn operand_stats(&self, name: &str) -> Arc<TableStats> {
        self.catalog
            .stats_for(&self.db, name)
            .expect("the operand exists: `operand` looked it up")
    }

    /// Look up a set-operator operand and check its arity.
    fn operand(&self, name: &str, expected: usize) -> Result<&Relation, EvalError> {
        let rel = self
            .db
            .get(name)
            .ok_or_else(|| EvalError::Algebra(AlgebraError::UnknownRelation(name.to_string())))?;
        if rel.arity() != expected {
            return Err(EvalError::InvalidSetOperand {
                relation: name.to_string(),
                arity: rel.arity(),
                expected,
            });
        }
        Ok(rel)
    }
}

/// An expression bound to an [`Engine`]; run it with [`Query::run`] or
/// render it with [`Query::explain`].
#[derive(Clone, Debug)]
pub struct Query<'e> {
    engine: &'e Engine,
    expr: Expr,
}

impl Query<'_> {
    /// The expression as submitted (before optimization).
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The expression after the engine's optimizer level.
    pub fn optimized(&self) -> Result<Expr, EvalError> {
        let engine = self.engine;
        Ok(engine.optimize.run(&self.expr, &engine.db.schema())?)
    }

    /// Optimize and plan without executing: the [`PhysicalPlan`] that
    /// [`Query::run`] executes under [`Strategy::Planned`], costed from
    /// the engine's catalog. A plan names its scans and holds no data,
    /// so the caller may execute it against any database of the same
    /// schema ([`PhysicalPlan::execute_reported`]).
    pub fn plan(&self) -> Result<PhysicalPlan, EvalError> {
        self.engine.plan_for(&self.optimized()?)
    }

    /// Optimize, plan (under [`Strategy::Planned`]), and execute.
    pub fn run(&self) -> Result<QueryOutput, EvalError> {
        let engine = self.engine;
        let start = Instant::now();
        let expr = self.optimized()?;
        let instrumented = engine.instrument != Instrument::Off;
        let (relation, mut report, plan) = match engine.strategy {
            Strategy::Naive if instrumented => {
                let (relation, report) = evaluate_instrumented(&expr, &engine.db)?;
                (relation, Some(report), None)
            }
            Strategy::Naive => (evaluate(&expr, &engine.db)?, None, None),
            Strategy::Planned => {
                let plan = engine.plan_for(&expr)?;
                let (relation, report) = if instrumented {
                    let (relation, report) = plan.execute_reported(&engine.db)?;
                    (relation, Some(report))
                } else {
                    (plan.execute_with(&engine.db)?, None)
                };
                (relation, report, Some(plan))
            }
        };
        if let Some(report) = &mut report {
            report.elapsed = Some(start.elapsed());
        }
        Ok(QueryOutput {
            relation,
            report,
            plan,
        })
    }

    /// Render the query plan:
    ///
    /// * under [`Strategy::Planned`], the physical DAG with operator
    ///   choices, sharing annotations and `~N rows` estimates per node
    ///   (no execution; compare against the actuals in an instrumented
    ///   run's report);
    /// * under [`Strategy::Naive`], an
    ///   `EXPLAIN ANALYZE`-style tree with actual per-node cardinalities
    ///   (runs the instrumented tree evaluator).
    pub fn explain(&self) -> Result<String, EvalError> {
        let expr = self.optimized()?;
        match self.engine.strategy {
            Strategy::Planned => Ok(self.engine.plan_for(&expr)?.explain()),
            Strategy::Naive => explain(&expr, &self.engine.db),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::evaluate_reference;
    use sj_algebra::division;
    use sj_algebra::Condition;

    fn division_db() -> Database {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 8], &[3, 9]]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        db
    }

    fn fig1_db() -> Database {
        let mut db = Database::new();
        db.set(
            "Person",
            Relation::from_str_rows(&[
                &["An", "headache"],
                &["An", "neck pain"],
                &["Bob", "headache"],
                &["Bob", "neck pain"],
                &["Carol", "headache"],
            ]),
        );
        db.set(
            "Symptoms",
            Relation::from_str_rows(&[&["headache"], &["neck pain"]]),
        );
        db
    }

    #[test]
    fn all_strategies_agree_on_the_division_plan() {
        let e = division::division_double_difference("R", "S");
        let expected = Relation::from_int_rows(&[&[1]]);
        assert_eq!(evaluate_reference(&e, &division_db()).unwrap(), expected);
        for strategy in [Strategy::Planned, Strategy::Naive] {
            let engine = Engine::new(division_db()).strategy(strategy);
            let out = engine.query(e.clone()).run().unwrap();
            assert_eq!(out.relation, expected, "{strategy}");
            assert_eq!(out.plan.is_some(), strategy == Strategy::Planned);
            assert!(out.report.is_none(), "Instrument::Off ⇒ no report");
        }
    }

    #[test]
    fn instrumentation_produces_the_right_report_flavor() {
        let e = division::division_double_difference("R", "S");
        let naive = Engine::new(division_db())
            .strategy(Strategy::Naive)
            .instrument(Instrument::Cardinalities);
        let out = naive.query(e.clone()).run().unwrap();
        let report = out.report.unwrap();
        assert!(report.nodes.iter().all(|n| n.estimate.is_none()));
        assert_eq!(report.max_q_error(), None);
        let rendered = report.render_stable();
        assert!(
            !rendered.contains("est≈"),
            "no estimate, no column: {rendered}"
        );
        assert!(rendered.contains("  ×1  -"), "{rendered}");
        assert_eq!(report.nodes.len(), e.node_count());
        assert_eq!(report.output_rows, out.relation.len());

        // A near miss the planner does not lower (the subtracted relation
        // is `T`, a copy of `R`): one stat per distinct subtree, 8 for the
        // 10-node tree.
        let mut db = division_db();
        db.set("T", db.get("R").unwrap().clone());
        let candidates = Expr::rel("R").project([1]);
        let near_miss = candidates.clone().diff(
            candidates
                .product(Expr::rel("S"))
                .diff(Expr::rel("T"))
                .project([1]),
        );
        let planned = Engine::new(db)
            .strategy(Strategy::Planned)
            .instrument(Instrument::Cardinalities);
        let out = planned.query(near_miss).run().unwrap();
        let report = out.report.unwrap();
        assert!(report.nodes.iter().all(|n| n.estimate.is_some()));
        assert_eq!(report.nodes.len(), 8);
        assert_eq!(report.output_rows, out.relation.len());
    }

    #[test]
    fn a_report_comes_with_the_wall_clock() {
        let e = division::division_double_difference("R", "S");
        let engine = Engine::new(division_db()).instrument(Instrument::Cardinalities);
        let report = engine.query(e).run().unwrap().report.unwrap();
        assert!(report.total_elapsed() <= report.elapsed.unwrap());
    }

    #[test]
    fn optimizer_levels_are_applied() {
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([1]);
        let off = Engine::new(division_db());
        assert_eq!(off.query(e.clone()).optimized().unwrap(), e);
        let full = Engine::new(division_db()).optimize(OptimizeLevel::Full);
        let opt = full.query(e.clone()).optimized().unwrap();
        assert!(
            opt.subexpressions()
                .iter()
                .any(|s| matches!(s, Expr::Semijoin(..))),
            "Full level runs semijoin reduction: {opt}"
        );
        assert_eq!(
            full.query(e.clone()).run().unwrap().relation,
            off.query(e).run().unwrap().relation
        );
    }

    #[test]
    fn explain_unifies_both_flavors() {
        let e = division::division_double_difference("R", "S");
        let planned = Engine::new(division_db())
            .query(e.clone())
            .explain()
            .unwrap();
        assert!(planned.contains("physical plan"), "{planned}");
        assert!(planned.contains("scan"), "{planned}");
        let naive = Engine::new(division_db())
            .strategy(Strategy::Naive)
            .query(e)
            .explain()
            .unwrap();
        assert!(naive.contains("max intermediate"), "{naive}");
        assert!(naive.contains("◀ largest"), "{naive}");
    }

    #[test]
    fn divide_routes_through_the_registry() {
        let engine = Engine::new(fig1_db());
        let out = engine
            .divide("Person", "Symptoms", DivisionSemantics::Containment)
            .unwrap();
        assert_eq!(out.relation, Relation::from_str_rows(&[&["An"], &["Bob"]]));
        // Tiny input → the auto selector picks the sort-free merge.
        assert_eq!(out.algorithm, "sort-merge");
        assert_eq!(out.complexity, ComplexityClass::Linear);
        // An ablation forces its algorithm through the registry.
        let nested = Registry::standard().find_division("nested-loop").unwrap();
        let db = engine.db();
        let forced = sj_setjoin::run_division_traced(
            nested,
            db.get("Person").unwrap(),
            db.get("Symptoms").unwrap(),
            DivisionSemantics::Containment,
            1,
        );
        assert_eq!(forced, out.relation);
        assert_eq!(nested.complexity(), ComplexityClass::Quadratic);
    }

    #[test]
    fn planned_division_idioms_run_the_algorithm_divide_picks() {
        let engine = Engine::new(division_db()).instrument(Instrument::Cardinalities);
        for (e, sem) in [
            (
                division::division_double_difference("R", "S"),
                DivisionSemantics::Containment,
            ),
            (
                division::division_equality("R", "S"),
                DivisionSemantics::Equality,
            ),
        ] {
            let direct = engine.divide("R", "S", sem).unwrap();
            let q = engine.query(e.clone());
            let explained = q.explain().unwrap();
            assert!(explained.contains("physical plan: 3 nodes"), "{explained}");
            assert!(explained.contains(direct.algorithm), "{explained}");
            let out = q.run().unwrap();
            assert_eq!(out.relation, direct.relation, "{e}");
            let report = out.report.unwrap();
            let root = report.nodes.last().unwrap();
            assert_eq!(root.operator, direct.algorithm);
            assert!(root.label.starts_with("divide["), "{}", root.label);
            // R has three distinct first-column values.
            assert!(root.estimate.unwrap() <= 3.0);
            assert_eq!(report.max_intermediate(), 5, "|R|");
        }
    }

    #[test]
    fn set_join_routes_through_the_registry() {
        let mut db = fig1_db();
        db.set(
            "Disease",
            Relation::from_str_rows(&[&["flu", "headache"], &["meningitis", "neck pain"]]),
        );
        let engine = Engine::new(db);
        let auto = engine
            .set_join("Person", "Disease", SetPredicate::Contains)
            .unwrap();
        let signature = Registry::standard().find_set_join("signature64").unwrap();
        let db = engine.db();
        let forced = sj_setjoin::run_set_join_traced(
            signature,
            db.get("Person").unwrap(),
            db.get("Disease").unwrap(),
            SetPredicate::Contains,
            1,
        );
        assert_eq!(auto.relation, forced);
    }

    #[test]
    fn set_op_errors_are_typed() {
        let engine = Engine::new(fig1_db());
        assert!(matches!(
            engine.divide("Nope", "Symptoms", DivisionSemantics::Containment),
            Err(EvalError::Algebra(AlgebraError::UnknownRelation(_)))
        ));
        assert!(matches!(
            engine.divide("Symptoms", "Symptoms", DivisionSemantics::Containment),
            Err(EvalError::InvalidSetOperand { expected: 2, .. })
        ));
    }

    #[test]
    fn queries_run_the_same_under_every_parallelism() {
        let e = division::division_double_difference("R", "S");
        let serial = Engine::new(division_db())
            .instrument(Instrument::Cardinalities)
            .query(e.clone())
            .run()
            .unwrap();
        let stable = serial.report.as_ref().unwrap().render_stable();
        for strategy in [Strategy::Planned, Strategy::Naive] {
            for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
                let out = Engine::new(division_db())
                    .strategy(strategy)
                    .parallelism(par)
                    .instrument(Instrument::Cardinalities)
                    .query(e.clone())
                    .run()
                    .unwrap();
                assert_eq!(out.relation, serial.relation, "{strategy} under {par}");
                if strategy == Strategy::Planned {
                    assert_eq!(out.report.unwrap().render_stable(), stable, "{par}");
                }
            }
        }
    }

    #[test]
    fn parallel_auto_picks_partition_variants_on_large_set_ops() {
        // A dividend big enough that eight workers amortize the spawns
        // and the serial grouping pass in the cost model.
        let rows: Vec<Vec<i64>> = (0..400_000).map(|i| vec![i / 16, i % 16]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&refs));
        db.set("S", Relation::from_int_rows(&[&[0], &[1], &[2]]));
        let serial = Engine::new(db.clone());
        let threaded = Engine::new(db).parallelism(Parallelism::Threads(8));
        let a = serial
            .divide("R", "S", DivisionSemantics::Containment)
            .unwrap();
        let b = threaded
            .divide("R", "S", DivisionSemantics::Containment)
            .unwrap();
        assert_eq!(a.algorithm, "sort-merge", "a 3-value divisor: merging wins");
        assert_eq!(b.algorithm, "parallel-hash");
        assert_eq!(a.relation, b.relation, "parallel ≡ serial");
        assert_eq!(b.complexity, ComplexityClass::Linear);
    }

    #[test]
    fn cached_stats_invalidate_when_the_db_changes() {
        // Tiny relations: cost-based selection picks nested-loop.
        let mut engine = Engine::new(fig1_db());
        let small = engine
            .set_join("Person", "Person", SetPredicate::Contains)
            .unwrap();
        assert_eq!(small.algorithm, "nested-loop");
        // Replace Person with a fig-scale relation through db_mut: the
        // catalog entry must be refreshed, flipping the pick.
        let rows: Vec<Vec<i64>> = (0..2000)
            .flat_map(|g| (0..6).map(move |v| vec![g, (g * 7 + v) % 64]))
            .collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        engine
            .db_mut()
            .set("Person", Relation::from_int_rows(&refs));
        let big = engine
            .set_join("Person", "Person", SetPredicate::Contains)
            .unwrap();
        assert_eq!(big.algorithm, "parallel-signature");
    }

    #[test]
    fn explain_is_annotated_with_estimates() {
        let e = division::division_double_difference("R", "S");
        let annotated = Engine::new(division_db())
            .query(e.clone())
            .explain()
            .unwrap();
        assert!(annotated.contains("~5 rows"), "{annotated}");
        // Instrumented runs put estimated next to actual per node.
        let out = Engine::new(division_db())
            .instrument(Instrument::Cardinalities)
            .query(e)
            .run()
            .unwrap();
        let rendered = out.report.unwrap().render();
        assert!(rendered.contains("est≈"), "{rendered}");
        assert!(rendered.contains("card"), "{rendered}");
    }

    #[test]
    fn tree_walking_strategies_never_touch_the_catalog() {
        let e = division::division_double_difference("R", "S");
        let engine = Engine::new(division_db())
            .strategy(Strategy::Naive)
            .instrument(Instrument::Cardinalities);
        engine.query(e.clone()).run().unwrap();
        engine.query(e).explain().unwrap();
        assert!(engine.catalog().is_empty());
    }

    #[test]
    fn fork_rebinds_db_and_shares_the_catalog() {
        let engine = Engine::new(fig1_db());
        engine
            .set_join("Person", "Person", SetPredicate::Contains)
            .unwrap();
        assert_eq!(engine.catalog().len(), 1);
        // The fork shares one catalog: it sees the original's analysis
        // before running anything of its own...
        let fork = engine.fork(division_db());
        assert_eq!(fork.catalog().len(), 1);
        // ...runs against its own database...
        let out = fork
            .query(division::division_double_difference("R", "S"))
            .run()
            .unwrap();
        assert_eq!(out.relation, Relation::from_int_rows(&[&[1]]));
        // ...and its analyses (R and S, done while planning) become
        // visible to the original through the shared catalog.
        assert_eq!(engine.catalog().len(), 3, "Person + R + S");
    }

    #[test]
    fn db_access_and_mutation() {
        let mut engine = Engine::new(division_db());
        assert_eq!(engine.db().size(), 7);
        engine.db_mut().insert("S", sj_storage::tuple![9]).unwrap();
        assert_eq!(engine.db().size(), 8);
        assert_eq!(engine.into_db().size(), 8);
    }

    #[test]
    fn run_surfaces_validation_errors() {
        let engine = Engine::new(Database::new());
        assert!(engine.query(Expr::rel("R")).run().is_err());
        assert!(engine.query(Expr::rel("R")).explain().is_err());
    }
}
