//! `EXPLAIN ANALYZE`-style query profiles: the per-node breakdown of an
//! instrumented run — estimated vs actual rows, q-error, elapsed time,
//! partition counts, cache provenance — packaged for rendering.
//!
//! A [`QueryProfile`] is derived from whichever [`Report`] an
//! instrumented [`crate::Query::run`] produced
//! ([`crate::QueryOutput::profile`]) and rendered two ways:
//!
//! * [`QueryProfile::render`] — the full report with wall-clock times;
//! * [`QueryProfile::render_stable`] — the same report with every
//!   timing masked (`-`), leaving only deterministic quantities, so
//!   golden tests can pin the format byte-for-byte.
//!
//! `sj-server` attaches the cache tier ([`QueryProfile::cache_tier`]):
//! a result-cache hit profiles as just the tier line (no plan ran), a
//! plan-cache hit or cold run carries the full node table.

use crate::engine::Report;
use crate::plan::Q_ERROR_BUDGET;
use std::time::Duration;

/// One plan (or tree) node of a [`QueryProfile`].
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Node id (plan-DAG topological id, or pre-order tree index for
    /// naive reports).
    pub id: usize,
    /// Physical operator (`hash-join`, `scan`, …).
    pub operator: String,
    /// Expression label.
    pub label: String,
    /// Output arity.
    pub arity: usize,
    /// Actual output cardinality.
    pub actual: usize,
    /// Estimated output cardinality (planned reports only: the tree
    /// walkers estimate nothing).
    pub estimate: Option<f64>,
    /// `max(est/actual, actual/est)`, both clamped to ≥ 1 row.
    pub q_error: Option<f64>,
    /// Wall-clock self time of this node's operator.
    pub elapsed: Duration,
    /// Partitions the node ran with (0 = serial).
    pub partitions: usize,
    /// Logical tree nodes this DAG node served (memoization sharing;
    /// 1 for naive reports).
    pub occurrences: usize,
}

/// The per-node breakdown of one instrumented query.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Per-node rows, root last.
    pub nodes: Vec<ProfileNode>,
    /// Rows the query returned.
    pub output_rows: usize,
    /// Input database size `|D|`.
    pub db_size: usize,
    /// Worker threads the executor ran with.
    pub workers: usize,
    /// End-to-end wall time, when the engine recorded it.
    pub elapsed: Option<Duration>,
    /// Which serving tier produced the result (`cold`, `plan-cache`,
    /// `result-cache`); `None` outside the server.
    pub cache_tier: Option<String>,
}

impl QueryProfile {
    /// Build a profile from an instrumented run's report.
    pub fn from_report(report: &Report, elapsed: Option<Duration>) -> QueryProfile {
        let nodes = match report {
            Report::Planned(r) => r
                .nodes
                .iter()
                .zip(&r.occurrences)
                .zip(&r.estimates)
                .map(|((n, &occ), &est)| ProfileNode {
                    id: n.id,
                    operator: n.operator.clone(),
                    label: n.label.clone(),
                    arity: n.arity,
                    actual: n.cardinality,
                    estimate: Some(est),
                    q_error: Some(r.q_error(n.id)),
                    elapsed: n.elapsed,
                    partitions: n.partitions.len(),
                    occurrences: occ,
                })
                .collect(),
            Report::Naive(r) => r
                .nodes
                .iter()
                .map(|n| ProfileNode {
                    id: n.id,
                    operator: n.operator.clone(),
                    label: n.label.clone(),
                    arity: n.arity,
                    actual: n.cardinality,
                    estimate: None,
                    q_error: None,
                    elapsed: n.elapsed,
                    partitions: n.partitions.len(),
                    occurrences: 1,
                })
                .collect(),
        };
        let (workers, output_rows) = match report {
            Report::Planned(r) => (r.workers, r.output_rows),
            Report::Naive(r) => (1, r.output_rows),
        };
        QueryProfile {
            nodes,
            output_rows,
            db_size: report.db_size(),
            workers,
            elapsed,
            cache_tier: None,
        }
    }

    /// A tier-only profile for serving tiers that ran no plan (a
    /// result-cache hit returns rows without executing anything).
    pub fn cache_hit(
        tier: impl Into<String>,
        output_rows: usize,
        elapsed: Duration,
    ) -> QueryProfile {
        QueryProfile {
            nodes: Vec::new(),
            output_rows,
            db_size: 0,
            workers: 0,
            elapsed: Some(elapsed),
            cache_tier: Some(tier.into()),
        }
    }

    /// Attach the serving tier that produced this result.
    pub fn with_cache_tier(mut self, tier: impl Into<String>) -> QueryProfile {
        self.cache_tier = Some(tier.into());
        self
    }

    /// The worst per-node q-error, when estimates are present.
    pub fn max_q_error(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.q_error)
            .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
    }

    /// Render with wall-clock timings.
    pub fn render(&self) -> String {
        self.render_inner(true)
    }

    /// Render with every timing masked as `-`: byte-stable across runs
    /// of the same configuration, so golden tests can pin it.
    pub fn render_stable(&self) -> String {
        self.render_inner(false)
    }

    fn render_inner(&self, timed: bool) -> String {
        let fmt_us = |d: Duration| format!("{:.1}µs", d.as_nanos() as f64 / 1_000.0);
        let elapsed = match (timed, self.elapsed) {
            (true, Some(d)) => format!(", elapsed {}", fmt_us(d)),
            (true, None) => String::new(),
            (false, _) => ", elapsed -".to_string(),
        };
        let tier = match &self.cache_tier {
            Some(t) => format!(", tier {t}"),
            None => String::new(),
        };
        let mut out = format!(
            "profile: |D| = {}, output = {} rows, {} nodes, {} workers{tier}{elapsed}\n",
            self.db_size,
            self.output_rows,
            self.nodes.len(),
            self.workers,
        );
        for n in &self.nodes {
            let est = match (n.estimate, n.q_error) {
                (Some(e), Some(q)) if q > Q_ERROR_BUDGET => {
                    format!("  est≈{e:.0} q-error {q:.1} (over budget)")
                }
                (Some(e), Some(q)) => format!("  est≈{e:.0} q-error {q:.1}"),
                _ => String::new(),
            };
            let parts = if n.partitions == 0 {
                "[serial]".to_string()
            } else {
                format!("[{} partitions]", n.partitions)
            };
            let t = if timed {
                fmt_us(n.elapsed)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "  [{:>3}] {:<20} {:<28} arity {}  rows {}{est}  ×{}  {parts}  {t}\n",
                n.id, n.operator, n.label, n.arity, n.actual, n.occurrences
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Instrument, Strategy};
    use sj_algebra::division;
    use sj_storage::{Database, Relation};

    fn division_db() -> Database {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 8], &[3, 9]]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        db
    }

    #[test]
    fn profile_from_planned_report() {
        let engine = Engine::new(division_db())
            .strategy(Strategy::Planned)
            .instrument(Instrument::Cardinalities);
        let out = engine
            .query(division::division_double_difference("R", "S"))
            .run()
            .unwrap();
        let profile = out.profile().expect("a report ⇒ a profile");
        assert_eq!(profile.output_rows, out.relation.len());
        assert!(!profile.nodes.is_empty());
        assert!(profile.nodes.iter().any(|n| n.estimate.is_some()));
        assert!(profile.max_q_error().is_some());
        assert_eq!(profile.elapsed, out.elapsed);
        let rendered = profile.render();
        assert!(rendered.contains("µs"), "{rendered}");
        let stable = profile.render_stable();
        assert!(!stable.contains("µs"), "{stable}");
        assert!(stable.contains("est≈"), "{stable}");
        assert!(stable.contains("[serial]"), "{stable}");
        // Stable rendering is deterministic across repeated runs.
        let again = engine
            .query(division::division_double_difference("R", "S"))
            .run()
            .unwrap();
        assert_eq!(stable, again.profile().unwrap().render_stable());
    }

    #[test]
    fn cache_hit_profile_is_tier_only() {
        let p = QueryProfile::cache_hit("result-cache", 42, Duration::from_micros(3));
        assert!(p.nodes.is_empty());
        let s = p.render_stable();
        assert!(s.contains("tier result-cache"), "{s}");
        assert!(s.contains("output = 42 rows"), "{s}");
    }
}
