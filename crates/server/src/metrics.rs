//! Aggregate serving metrics: the counters a [`crate::Server`] keeps
//! as handles into its [`sj_obs::Metrics`] registry, copied out as a
//! [`StatsSnapshot`]. The same numbers appear under the `sj_server_*`
//! series of the Prometheus-style [`crate::Server::metrics_text`]
//! exposition.
//!
//! Besides the cache hit counters, the server folds the
//! [`Report::max_q_error`] of every query that *executed* — cold, or a
//! cached plan re-run over data that changed since it was costed — into
//! [`StatsSnapshot::max_q_error_seen`], the worst
//! cardinality-estimation error any served query has exhibited, and
//! counts the executions past [`sj_eval::Q_ERROR_BUDGET`] in
//! `sj_server_q_error_over_budget_total`. This surfaces cost-model
//! drift *in serving*, not just in per-query `render()` output: a
//! dashboard reading the stats snapshot (or scraping the exposition)
//! sees estimator trouble the moment a hot workload starts hitting it.
//!
//! [`Report::max_q_error`]: sj_eval::Report::max_q_error

/// A point-in-time copy of a server's aggregate counters
/// ([`crate::Server::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Queries served (every tier: cold, plan-cached, result-cached).
    pub queries: u64,
    /// Queries that skipped optimize+plan via the plan cache.
    pub plan_hits: u64,
    /// Queries that skipped execution entirely via the result cache.
    pub result_hits: u64,
    /// Write operations applied ([`crate::WriteOp::Insert`] /
    /// [`crate::WriteOp::Set`] / [`crate::WriteOp::Remove`]).
    pub writes: u64,
    /// ANALYZE operations applied.
    pub analyzes: u64,
    /// Submissions rejected by [`crate::Session::try_query`] because the
    /// bounded queue was full.
    pub rejected: u64,
    /// The worst [`sj_eval::Report::max_q_error`] across all queries
    /// that executed (cold or off a cached plan; every execution is
    /// instrumented) — cost-model drift made visible in serving.
    pub max_q_error_seen: Option<f64>,
}

impl StatsSnapshot {
    /// Queries that actually executed (everything but result-cache
    /// hits).
    pub fn executed(&self) -> u64 {
        self.queries - self.result_hits
    }

    /// Cold queries: planned from scratch and executed.
    pub fn cold(&self) -> u64 {
        self.queries - self.result_hits - self.plan_hits
    }
}
