//! Client traces for the serving experiments: a zipf-skewed hot query
//! set interleaved with writes and ANALYZEs.
//!
//! A serving workload is *not* one query over a scaling database (that
//! is what [`crate::generators`] produces) but a long stream of
//! operations hitting a server: most are queries drawn from a finite
//! pool with zipf skew (a few expressions account for most traffic —
//! the regime where a result cache pays), a small fraction are inserts
//! (which invalidate cached results over the touched relation), and an
//! even smaller fraction are ANALYZEs (which retire cached plans).
//!
//! Like everything in this crate, a trace is bit-reproducible from its
//! seed.

use crate::generators::{DivisionWorkload, ELEMENT_BASE};
use crate::rng::{SplitMix64, Zipf};
use sj_algebra::{division, Expr};
use sj_storage::{Database, Tuple};

/// One operation in a client trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceOp {
    /// Run a query and observe its result.
    Query(Expr),
    /// Insert one tuple into a relation.
    Insert {
        /// Target relation name.
        relation: String,
        /// The tuple to add.
        tuple: Tuple,
    },
    /// Recollect statistics (retires cached plans).
    Analyze,
}

/// Parameters of a serving trace over a division database `{R/2, S/1}`.
#[derive(Clone, Debug)]
pub struct ServingWorkload {
    /// Number of A-groups in the dividend (database scale).
    pub groups: usize,
    /// Number of values in the divisor.
    pub divisor_size: usize,
    /// Size of the hot query pool.
    pub hot_queries: usize,
    /// Zipf skew over the pool (0 = uniform; ≈1 = classic hot set).
    pub theta: f64,
    /// Trace length in operations.
    pub ops: usize,
    /// Fraction of operations that are inserts.
    pub write_fraction: f64,
    /// Fraction of operations that are ANALYZEs.
    pub analyze_fraction: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for ServingWorkload {
    fn default() -> Self {
        ServingWorkload {
            groups: 48,
            divisor_size: 6,
            hot_queries: 16,
            theta: 1.1,
            ops: 400,
            write_fraction: 0.05,
            analyze_fraction: 0.01,
            seed: 0x5E_4F_1E_57,
        }
    }
}

impl ServingWorkload {
    /// The initial database the trace runs against.
    pub fn database(&self) -> Database {
        DivisionWorkload {
            groups: self.groups,
            divisor_size: self.divisor_size,
            containment_fraction: 0.4,
            extra_per_group: 3,
            noise_domain: 4 * self.groups.max(1),
            seed: self.seed ^ 0xDB,
        }
        .database()
    }

    /// The hot query pool: `hot_queries` *distinct* expressions over
    /// `{R, S}`, cycling through the paper's division plans and
    /// parameterized selection/semijoin shapes so the pool can be made
    /// arbitrarily large without repeating an expression.
    pub fn query_pool(&self) -> Vec<Expr> {
        (0..self.hot_queries)
            .map(|i| match i {
                0 => division::division_double_difference("R", "S"),
                // Not `division_via_join`: product desugars to a
                // trivial join, making that expression structurally
                // identical to the double-difference plan.
                1 => division::division_equality("R", "S"),
                2 => division::division_counting("R", "S"),
                _ => {
                    // Parameterized by a per-index constant, so every
                    // further pool slot is a distinct expression.
                    // (Columns are 1-based: A = 1, B = 2.)
                    let b = ELEMENT_BASE + 1 + i as i64;
                    if i % 2 == 1 {
                        // Groups holding element b.
                        Expr::rel("R").select_const(2, b).project([1])
                    } else {
                        // Groups holding a divisor element other than b.
                        Expr::rel("R")
                            .semijoin_eq(
                                [(2, 1)],
                                Expr::rel("S").diff(Expr::rel("S").select_const(1, b)),
                            )
                            .project([1])
                    }
                }
            })
            .collect()
    }

    /// Generate the operation stream. Queries are drawn zipf-skewed
    /// from [`ServingWorkload::query_pool`]; inserts add noise tuples
    /// to `R` (arity-preserving, so cached plans survive and only
    /// result entries die); ANALYZEs punctuate the stream.
    pub fn trace(&self) -> Vec<TraceOp> {
        let pool = self.query_pool();
        let zipf = Zipf::new(pool.len().max(1), self.theta);
        let mut rng = SplitMix64::new(self.seed);
        (0..self.ops)
            .map(|_| {
                let u = rng.unit_f64();
                if u < self.write_fraction {
                    let g = rng.range_i64(1, self.groups.max(1) as i64);
                    let b = ELEMENT_BASE
                        + 1
                        + self.divisor_size as i64
                        + rng.below(4 * self.groups.max(1) as u64) as i64;
                    TraceOp::Insert {
                        relation: "R".into(),
                        tuple: Tuple::from_ints(&[g, b]),
                    }
                } else if u < self.write_fraction + self.analyze_fraction {
                    TraceOp::Analyze
                } else {
                    TraceOp::Query(pool[zipf.sample(&mut rng)].clone())
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_queries_are_distinct() {
        let w = ServingWorkload {
            hot_queries: 25,
            ..ServingWorkload::default()
        };
        let pool = w.query_pool();
        assert_eq!(pool.len(), 25);
        for (i, a) in pool.iter().enumerate() {
            for b in &pool[i + 1..] {
                assert_ne!(a, b, "pool entries must be distinct expressions");
            }
        }
    }

    #[test]
    fn trace_is_deterministic_and_mixed() {
        let w = ServingWorkload::default();
        let t1 = w.trace();
        let t2 = w.trace();
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), w.ops);
        let writes = t1
            .iter()
            .filter(|op| matches!(op, TraceOp::Insert { .. }))
            .count();
        let analyzes = t1
            .iter()
            .filter(|op| matches!(op, TraceOp::Analyze))
            .count();
        let queries = t1
            .iter()
            .filter(|op| matches!(op, TraceOp::Query(_)))
            .count();
        assert_eq!(writes + analyzes + queries, w.ops);
        assert!(writes > 0, "expected some writes at 5%");
        assert!(queries > writes, "queries dominate");
    }

    #[test]
    fn zipf_skew_concentrates_traffic_on_a_hot_set() {
        let w = ServingWorkload {
            ops: 2000,
            hot_queries: 16,
            theta: 1.1,
            write_fraction: 0.0,
            analyze_fraction: 0.0,
            ..ServingWorkload::default()
        };
        let pool = w.query_pool();
        let trace = w.trace();
        // Count hits on the head of the pool (first 4 of 16 queries).
        let head: usize = trace
            .iter()
            .filter(|op| match op {
                TraceOp::Query(e) => pool[..4].contains(e),
                _ => false,
            })
            .count();
        assert!(
            head * 2 > trace.len(),
            "head queries should carry most traffic: {head}/{}",
            trace.len()
        );
    }

    #[test]
    fn database_matches_pool_schema() {
        let w = ServingWorkload::default();
        let db = w.database();
        assert_eq!(db.get("R").unwrap().arity(), 2);
        assert_eq!(db.get("S").unwrap().arity(), 1);
    }
}
