//! The [`Report`]: what an instrumented run measured, whichever
//! evaluator ran it.
//!
//! The per-node cardinality record is how this reproduction measures
//! Definition 16 (see [`crate::instrumented`]), and it is one struct: the
//! tree walker ([`crate::evaluate_instrumented`]) fills one [`NodeStat`]
//! per expression-tree node in pre-order (root first), the planned executor
//! ([`crate::PhysicalPlan::execute_reported`]) one per **DAG** node in
//! topological order (root last) with the planner's estimate and sharing
//! count beside the actual cardinality, [`crate::Engine`] stamps the
//! end-to-end wall time on it, and `sj-server` the cache tier that
//! answered.
//!
//! One table renderer, two forms: [`Report::render`] with wall-clock
//! times, [`Report::render_stable`] with every timing masked (`-`) so
//! golden tests can pin the format byte-for-byte.
//! [`crate::explain::render_tree`] is the tree-shaped view of the same
//! struct.

use std::time::Duration;

/// Estimation-accuracy budget: a node whose q-error
/// ([`Report::q_error`]) exceeds this factor is flagged `(over budget)`
/// in rendered reports, and `sj-server` counts the runs that have one.
/// The value is deliberately loose — the estimator assumes independence
/// and uniformity, so factor-of-two errors are routine and harmless; an
/// order-of-magnitude miss is what changes what estimates decide (the
/// join order, the multiway collapse) and deserves a visible marker.
pub const Q_ERROR_BUDGET: f64 = 16.0;

/// What one node of the expression tree (tree walkers) or of the
/// physical-plan DAG (planned executor) did.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStat {
    /// The node's index in [`Report::nodes`]: its pre-order index within
    /// the root expression (matching `Expr::subexpressions`) under the
    /// tree walkers, its plan-node id under the planned executor.
    pub id: usize,
    /// Operator label (see `Expr::label`).
    pub label: String,
    /// The physical operator that produced this node's output (e.g.
    /// `hash-join`, `hash-semijoin+project`, `scan`). The planner chooses per
    /// node; the tree walker reports the fixed choice `ops` makes.
    pub operator: &'static str,
    /// Output arity of the node.
    pub arity: usize,
    /// Output cardinality `|E'(D)|`.
    pub cardinality: usize,
    /// The planner's estimate of that cardinality; `None` under the tree
    /// walkers, which estimate nothing.
    pub estimate: Option<f64>,
    /// Logical tree nodes this node served: `> 1` where the planner's
    /// memoization shared a subexpression, always 1 under the tree
    /// walkers.
    pub occurrences: usize,
    /// Wall-clock time spent in this node's own operator, children
    /// excluded.
    pub elapsed: Duration,
}

/// What an instrumented run measured; the evaluator hands the result
/// relation back beside it. The default is the record of a run that
/// executed nothing — what a result-cache hit reports, with its row
/// count, tier and elapsed time filled in.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-node statistics, indexed by [`NodeStat::id`]. Empty when
    /// nothing executed.
    pub nodes: Vec<NodeStat>,
    /// Rows of the query result (the root node's output).
    pub output_rows: usize,
    /// The input database size `|D|` (Definition 15).
    pub db_size: usize,
    /// Size of the logical expression tree that ran; more than
    /// `nodes.len()` where memoization shared subexpressions.
    pub expr_nodes: usize,
    /// End-to-end wall time (optimize + plan + execute), stamped by
    /// whoever drove the run — [`crate::Query::run`], `sj-server`; the
    /// evaluators themselves leave it `None`.
    pub elapsed: Option<Duration>,
    /// Which serving tier produced the result (`cold`, `plan-cache`,
    /// `result-cache`); `None` outside the server.
    pub tier: Option<&'static str>,
    /// Set when the run read only these many groups of one relation:
    /// `sj-server` patches a cached answer by running its plan on the
    /// groups an insert touched, so the cardinalities and `|D|` describe
    /// that slice, not the whole database. `None` for a full run.
    pub patched_groups: Option<usize>,
}

impl Report {
    /// The largest intermediate (or final) result cardinality — the
    /// quantity whose growth Theorem 17 shows is either `O(n)` or `Ω(n²)`.
    pub fn max_intermediate(&self) -> usize {
        self.nodes.iter().map(|n| n.cardinality).max().unwrap_or(0)
    }

    /// The node achieving the maximum intermediate size.
    pub fn max_node(&self) -> Option<&NodeStat> {
        self.nodes.iter().max_by_key(|n| n.cardinality)
    }

    /// `max_intermediate / |D|` — the "expansion factor"; bounded by a
    /// constant across a scaling series iff the expression behaves linearly
    /// on that series.
    pub fn expansion_factor(&self) -> f64 {
        if self.db_size == 0 {
            0.0
        } else {
            self.max_intermediate() as f64 / self.db_size as f64
        }
    }

    /// Total time across all nodes (the sum of per-node self times).
    pub fn total_elapsed(&self) -> Duration {
        self.nodes.iter().map(|n| n.elapsed).sum()
    }

    /// Tree-node evaluations the memoization and operator fusion avoided
    /// (`expr_nodes − nodes`); 0 under the tree walkers.
    pub fn evaluations_saved(&self) -> usize {
        self.expr_nodes - self.nodes.len()
    }

    /// The q-error of node `id`: `max(est/actual, actual/est)`, the
    /// standard symmetric multiplicative measure of estimation accuracy
    /// (1.0 = exact). Both sides are clamped to ≥ 1 row first, so empty
    /// outputs and sub-row estimates compare as "one row" instead of
    /// dividing by zero. `None` without an estimate.
    pub fn q_error(&self, id: usize) -> Option<f64> {
        let node = &self.nodes[id];
        node.estimate.map(|est| {
            let est = est.max(1.0);
            let actual = (node.cardinality as f64).max(1.0);
            (est / actual).max(actual / est)
        })
    }

    /// The worst per-node q-error of the run — the headline estimator
    /// accuracy number; `None` when no node carries an estimate.
    pub fn max_q_error(&self) -> Option<f64> {
        (0..self.nodes.len())
            .filter_map(|id| self.q_error(id))
            .reduce(f64::max)
    }

    /// Render the per-node table with wall-clock times. One line per
    /// node — id, operator, label, arity, cardinality, then (only where
    /// the node carries an estimate) `est≈`, the q-error and an
    /// `(over budget)` marker past [`Q_ERROR_BUDGET`], the sharing count
    /// (`×1` for unshared nodes) and the node's self time — under a
    /// header with `|D|`, output rows, the largest intermediate, plan vs
    /// tree size, serving tier, patched groups and end-to-end time. A
    /// report without nodes (nothing executed) renders output rows, tier
    /// and elapsed time and nothing else.
    pub fn render(&self) -> String {
        self.render_inner(true)
    }

    /// [`Report::render`] with every timing masked as `-`: cardinalities,
    /// operator choices and estimates are deterministic, so this form is byte-stable across runs of the
    /// same configuration.
    pub fn render_stable(&self) -> String {
        self.render_inner(false)
    }

    fn render_inner(&self, timed: bool) -> String {
        let time = |d: Duration| {
            if timed {
                format!("{:.1}µs", d.as_nanos() as f64 / 1_000.0)
            } else {
                "-".to_string()
            }
        };
        let mut out = if self.nodes.is_empty() {
            format!("profile: output = {} rows", self.output_rows)
        } else {
            format!(
                "profile: |D| = {}, output = {} rows, max intermediate = {}, \
                 {} plan nodes for {} tree nodes",
                self.db_size,
                self.output_rows,
                self.max_intermediate(),
                self.nodes.len(),
                self.expr_nodes,
            )
        };
        if let Some(tier) = self.tier {
            out.push_str(&format!(", tier {tier}"));
        }
        if let Some(groups) = self.patched_groups {
            let plural = if groups == 1 { "" } else { "s" };
            out.push_str(&format!(", patched {groups} group{plural}"));
        }
        if let Some(elapsed) = self.elapsed {
            out.push_str(&format!(", elapsed {}", time(elapsed)));
        }
        out.push('\n');
        for n in &self.nodes {
            let est = match (n.estimate, self.q_error(n.id)) {
                (Some(e), Some(q)) if q > Q_ERROR_BUDGET => {
                    format!("  est≈{e:.0} q-error {q:.1} (over budget)")
                }
                (Some(e), Some(q)) => format!("  est≈{e:.0} q-error {q:.1}"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "  [{:>3}] {:<20} {:<28} arity {}  card {}{est}  ×{}  {}\n",
                n.id,
                n.operator,
                n.label,
                n.arity,
                n.cardinality,
                n.occurrences,
                time(n.elapsed),
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
        let profile = out.report.expect("instrumented ⇒ a report");
        assert_eq!(profile.output_rows, out.relation.len());
        assert!(!profile.nodes.is_empty());
        assert!(profile.nodes.iter().any(|n| n.estimate.is_some()));
        assert!(profile.max_q_error().is_some());
        assert!(profile.elapsed.is_some());
        let rendered = profile.render();
        assert!(rendered.contains("µs"), "{rendered}");
        let stable = profile.render_stable();
        assert!(!stable.contains("µs"), "{stable}");
        assert!(stable.contains("est≈"), "{stable}");
        // Stable rendering is deterministic across repeated runs.
        let again = engine
            .query(division::division_double_difference("R", "S"))
            .run()
            .unwrap();
        assert_eq!(stable, again.report.unwrap().render_stable());
    }

    #[test]
    fn cache_hit_profile_is_tier_only() {
        let p = Report {
            output_rows: 42,
            tier: Some("result-cache"),
            elapsed: Some(Duration::from_micros(3)),
            ..Report::default()
        };
        assert!(p.nodes.is_empty());
        let s = p.render_stable();
        assert!(s.contains("tier result-cache"), "{s}");
        assert!(s.contains("output = 42 rows"), "{s}");
        // Nothing it has no value for: no `|D| = 0`, no `0 plan nodes`.
        assert_eq!(
            s,
            "profile: output = 42 rows, tier result-cache, elapsed -\n"
        );
        assert_eq!(p.max_q_error(), None);
        assert_eq!(p.evaluations_saved(), 0);
    }
}
