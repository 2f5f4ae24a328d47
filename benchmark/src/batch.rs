//! `batch-paper`: no server. One caller drives an [`Engine`] through a
//! fixed suite pass of eight query classes — the paper's operators
//! themselves: division three ways (registry algorithm, the quadratic RA
//! plan, the linear counting plan), three set joins, a badly written join
//! chain and a skewed triangle. One op = one class execution; a round of
//! 26 passes holds 208 of them, the fewest that support a p95 per round.
//! The only workload that runs `Threads(n)`.

use crate::gen::{self, BatchInputs, Scale, CLASSES};
use crate::spans::SpanLog;
use setjoins::algebra::{Expr, OptimizeLevel};
use setjoins::eval::evaluate;
use setjoins::setjoin::{nested_loop_set_join, DivisionSemantics, SetPredicate};
use setjoins::stats::StatsCatalog;
use setjoins::storage::{Database, Relation};
use setjoins::{Engine, Execution, JoinOrder, Parallelism, StatsMode};
use std::time::Instant;

/// The set-join classes: `(class, left, right, predicate)`.
pub const SET_JOINS: [(&str, &str, &str, SetPredicate); 3] = [
    (
        "setjoin-contain-uniform",
        "UA",
        "UB",
        SetPredicate::Contains,
    ),
    ("setjoin-contain-zipf", "ZA", "ZB", SetPredicate::Contains),
    ("setjoin-equal", "QA", "QB", SetPredicate::Equals),
];

/// The engine configuration under test, at a given parallelism.
pub fn engine(inputs: &BatchInputs, parallelism: Parallelism) -> Engine {
    Engine::new(inputs.db.clone())
        .optimize(OptimizeLevel::Full)
        .stats(StatsMode::Cached)
        .join_order(JoinOrder::Dp)
        .parallelism(parallelism)
        .execution(Execution::Vectorized)
}

/// One full set-up: operands, a configured engine with a warm statistics
/// catalog, and the RA expression of each class that has one.
pub struct Batch {
    pub inputs: BatchInputs,
    pub engine: Engine,
    exprs: Vec<Option<Expr>>,
}

/// ANALYZE every relation of `db` into `catalog`.
pub fn analyze_all(catalog: &StatsCatalog, db: &Database) {
    for name in db.names() {
        catalog.stats_for(db, name);
    }
}

/// Generate → load → ANALYZE every relation → first touch of every class.
pub fn set_up(seed: u64, scale: Scale, nproc: usize) -> Batch {
    load(gen::batch_inputs(seed, scale), nproc)
}

/// [`set_up`] from operands already generated.
pub fn load(inputs: BatchInputs, nproc: usize) -> Batch {
    let engine = engine(&inputs, Parallelism::Threads(nproc));
    analyze_all(engine.catalog(), engine.db());
    let exprs = CLASSES
        .iter()
        .map(|c| gen::class_expr(c, &inputs))
        .collect();
    let batch = Batch {
        inputs,
        engine,
        exprs,
    };
    for class in 0..CLASSES.len() {
        batch.run_class(&batch.engine, class);
    }
    batch
}

impl Batch {
    /// Run one class on `engine`; the answer and, for the set operators,
    /// the registry algorithm that produced it.
    pub fn run_class(&self, engine: &Engine, class: usize) -> (Relation, &'static str) {
        let name = CLASSES[class];
        if let Some(expr) = &self.exprs[class] {
            let out = engine
                .query(expr.clone())
                .run()
                .expect("class query on its own operands");
            return (out.relation, "plan");
        }
        let out = match SET_JOINS.iter().find(|(c, ..)| *c == name) {
            Some((_, left, right, pred)) => engine.set_join(left, right, *pred),
            None => engine.divide("DR", "DS", DivisionSemantics::Containment),
        }
        .expect("set operator on its own operands");
        (out.relation, out.algorithm)
    }
}

/// Expected answers per class, from code the engine's paths do not run:
/// the generator's own quotient, the nested-loop set join, and the plain
/// tree-walking evaluator.
pub fn oracle(batch: &Batch) -> Vec<Relation> {
    let db = &batch.inputs.db;
    CLASSES
        .iter()
        .zip(&batch.exprs)
        .map(|(name, expr)| match expr {
            Some(e) => evaluate(e, db).expect("class query on its own operands"),
            None => match SET_JOINS.iter().find(|(c, ..)| c == name) {
                Some((_, left, right, pred)) => nested_loop_set_join(
                    db.get(left).expect("generated"),
                    db.get(right).expect("generated"),
                    *pred,
                ),
                None => batch.inputs.expected_quotient.clone(),
            },
        })
        .collect()
}

/// Every `SAMPLE_EVERY`-th pass of a round (so always the first) is
/// compared in full.
const SAMPLE_EVERY: usize = 64;

pub struct Round {
    pub wall_s: f64,
    /// One latency per op, i.e. per class execution.
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    pub log: SpanLog,
}

/// Run `passes` suite passes. Every answer's row count is checked as it
/// arrives; sampled passes keep their answers for a full comparison after
/// the timed loop.
pub fn round(batch: &Batch, expected: &[Relation], passes: usize, traced: bool) -> Round {
    let origin = Instant::now();
    let ops = passes * CLASSES.len();
    let mut log = if traced {
        SpanLog::recording(origin, passes + ops)
    } else {
        SpanLog::disabled()
    };
    let mut latencies_ms = Vec::with_capacity(ops);
    let mut failed_op = vec![false; ops];
    let mut kept: Vec<(usize, Relation)> = Vec::new();
    for pass in 0..passes {
        log.enter("batch.pass", pass as u32);
        for (class, name) in CLASSES.iter().enumerate() {
            let op = pass * CLASSES.len() + class;
            let started = Instant::now();
            let (answer, _) = log.span(name, op as u32, || batch.run_class(&batch.engine, class));
            latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
            failed_op[op] = answer.len() != expected[class].len();
            if pass % SAMPLE_EVERY == 0 {
                kept.push((op, answer));
            }
        }
        log.exit();
    }
    let wall_s = origin.elapsed().as_secs_f64();
    for (op, answer) in kept {
        failed_op[op] |= answer != expected[op % CLASSES.len()];
    }
    Round {
        wall_s,
        latencies_ms,
        failed: failed_op.iter().filter(|f| **f).count() as u64,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setjoins::eval::evaluate_reference;

    #[test]
    fn every_class_matches_its_oracle_and_the_reference() {
        let batch = set_up(3, Scale::Quick, 2);
        let expected = oracle(&batch);
        for (class, name) in CLASSES.iter().enumerate() {
            let (answer, _) = batch.run_class(&batch.engine, class);
            assert_eq!(answer, expected[class], "{name}");
            if let Some(expr) = gen::class_expr(name, &batch.inputs) {
                let reference = evaluate_reference(&expr, &batch.inputs.db).unwrap();
                assert_eq!(reference, expected[class], "{name}");
            }
            assert!(!expected[class].is_empty(), "{name} has an empty answer");
        }
        let r = round(&batch, &expected, 3, true);
        assert_eq!(r.failed, 0);
        assert_eq!(r.log.spans().len(), 3 * (CLASSES.len() + 1));
        assert_eq!(r.latencies_ms.len(), 3 * CLASSES.len());
    }
}
