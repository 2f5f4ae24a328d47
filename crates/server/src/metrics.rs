//! Aggregate serving metrics: a thin facade over the shared
//! [`sj_obs::Metrics`] registry, keeping the original counter API
//! (`bump_*` / [`ServerStats::snapshot`]) while every series also shows
//! up in the Prometheus-style [`crate::Server::metrics_text`]
//! exposition.
//!
//! Besides the cache hit counters, the server folds the
//! [`Report::max_q_error`] of every query that *executed* — cold, or a
//! cached plan re-run over data that changed since it was costed — into
//! [`ServerStats::max_q_error_seen`](StatsSnapshot::max_q_error_seen),
//! the worst cardinality-estimation error any served query has
//! exhibited, and counts the executions past [`Q_ERROR_BUDGET`] in
//! `sj_server_q_error_over_budget_total`. This surfaces cost-model
//! drift *in serving*, not just in per-query `render()` output: a
//! dashboard reading the stats snapshot (or scraping the exposition)
//! sees estimator trouble the moment a hot workload starts hitting it.
//!
//! [`Report::max_q_error`]: sj_eval::Report::max_q_error

use sj_eval::Q_ERROR_BUDGET;
use sj_obs::{Counter, MaxGauge, Metrics};
use std::fmt;
use std::sync::Arc;

/// Aggregate counters for one [`crate::Server`]. All methods are
/// thread-safe; counters only ever increase. Each counter is a handle
/// into the server's [`Metrics`] registry, so the same numbers appear
/// in [`crate::Server::metrics_text`] under the `sj_server_*` series.
pub struct ServerStats {
    registry: Arc<Metrics>,
    queries: Arc<Counter>,
    plan_hits: Arc<Counter>,
    result_hits: Arc<Counter>,
    writes: Arc<Counter>,
    analyzes: Arc<Counter>,
    rejected: Arc<Counter>,
    /// The largest q-error seen. [`MaxGauge`] guards against NaN /
    /// non-positive junk: one poisoned observation would otherwise
    /// stick as the maximum forever (NaN's bit pattern compares
    /// greater than every finite value's).
    max_q_error: Arc<MaxGauge>,
    /// Executions whose worst q-error exceeded [`Q_ERROR_BUDGET`].
    q_error_over_budget: Arc<Counter>,
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new(Arc::new(Metrics::new()))
    }
}

impl ServerStats {
    /// Register the serving series in `registry` and return the facade.
    pub fn new(registry: Arc<Metrics>) -> ServerStats {
        ServerStats {
            queries: registry.counter("sj_server_queries_total"),
            plan_hits: registry.counter_with("sj_server_cache_hits_total", &[("tier", "plan")]),
            result_hits: registry.counter_with("sj_server_cache_hits_total", &[("tier", "result")]),
            writes: registry.counter("sj_server_writes_total"),
            analyzes: registry.counter("sj_server_analyzes_total"),
            rejected: registry.counter("sj_server_rejected_total"),
            max_q_error: registry.max_gauge("sj_server_max_q_error"),
            q_error_over_budget: registry.counter("sj_server_q_error_over_budget_total"),
            registry,
        }
    }

    /// The registry the facade's series live in.
    pub fn registry(&self) -> &Arc<Metrics> {
        &self.registry
    }

    pub(crate) fn bump_queries(&self) {
        self.queries.inc();
    }

    pub(crate) fn bump_plan_hits(&self) {
        self.plan_hits.inc();
    }

    pub(crate) fn bump_result_hits(&self) {
        self.result_hits.inc();
    }

    pub(crate) fn bump_writes(&self) {
        self.writes.inc();
    }

    pub(crate) fn bump_analyzes(&self) {
        self.analyzes.inc();
    }

    pub(crate) fn bump_rejected(&self) {
        self.rejected.inc();
    }

    /// Fold one execution's worst per-node q-error into the running
    /// maximum ([`MaxGauge::observe`] drops NaN, infinities, and
    /// non-positive values, so junk can never poison it) and count it
    /// when it is past [`Q_ERROR_BUDGET`].
    pub(crate) fn record_q_error(&self, q_error: f64) {
        self.max_q_error.observe(q_error);
        if q_error > Q_ERROR_BUDGET {
            self.q_error_over_budget.inc();
        }
    }

    /// A consistent-enough point-in-time copy of all counters (each
    /// counter is read atomically; the set is not fenced — fine for
    /// monitoring).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.get(),
            plan_hits: self.plan_hits.get(),
            result_hits: self.result_hits.get(),
            writes: self.writes.get(),
            analyzes: self.analyzes.get(),
            rejected: self.rejected.get(),
            max_q_error_seen: self.max_q_error.get(),
        }
    }
}

impl fmt::Debug for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// A point-in-time copy of a server's [`ServerStats`].
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
    /// that executed (cold or off a cached plan), when instrumentation
    /// is on — cost-model drift made visible in serving.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = ServerStats::default();
        s.bump_queries();
        s.bump_queries();
        s.bump_queries();
        s.bump_plan_hits();
        s.bump_result_hits();
        s.bump_writes();
        s.bump_analyzes();
        s.bump_rejected();
        let snap = s.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.plan_hits, 1);
        assert_eq!(snap.result_hits, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.analyzes, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.executed(), 2);
        assert_eq!(snap.cold(), 1);
    }

    #[test]
    fn q_error_keeps_the_maximum() {
        let s = ServerStats::default();
        assert_eq!(s.snapshot().max_q_error_seen, None);
        s.record_q_error(2.5);
        s.record_q_error(17.0);
        s.record_q_error(1.0);
        assert_eq!(s.snapshot().max_q_error_seen, Some(17.0));
        // One of the three was past the budget of 16.
        assert!(s
            .registry()
            .expose()
            .contains("sj_server_q_error_over_budget_total 1"));
        // Junk values are ignored — the NaN-poisoning regression.
        s.record_q_error(f64::NAN);
        s.record_q_error(f64::INFINITY);
        s.record_q_error(-3.0);
        assert_eq!(s.snapshot().max_q_error_seen, Some(17.0));
    }

    #[test]
    fn facade_series_appear_in_the_exposition() {
        let s = ServerStats::default();
        s.bump_queries();
        s.bump_plan_hits();
        s.record_q_error(4.5);
        let text = s.registry().expose();
        assert!(text.contains("sj_server_queries_total 1"), "{text}");
        assert!(
            text.contains("sj_server_cache_hits_total{tier=\"plan\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sj_server_cache_hits_total{tier=\"result\"} 0"),
            "{text}"
        );
        assert!(text.contains("sj_server_max_q_error 4.500000"), "{text}");
    }
}
