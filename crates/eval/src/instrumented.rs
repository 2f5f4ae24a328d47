//! The instrumented evaluator: evaluation plus per-subexpression
//! cardinalities.
//!
//! Definition 16 of the paper assigns to every RA expression `E` the
//! function `c(E)(n) = max{|E(D)| : |D| = n}` and calls `E` *linear* when
//! `c(E') = O(n)` for **every subexpression** `E'`, *quadratic* when some
//! subexpression is `Ω(n²)`. Measuring those intermediate sizes is the
//! core experimental tool of this reproduction: the instrumented evaluator
//! returns, beside the result, the cardinality of every node of the
//! expression tree (identified by its pre-order index, matching
//! [`Expr::subexpressions`]).

use crate::error::EvalError;
use crate::ops;
use crate::plain::walk;
use sj_algebra::Expr;
use sj_storage::{Database, Relation};
use std::time::Duration;

/// Statistics for one node of the expression tree (or, for the planned
/// evaluator, of the physical-plan DAG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStat {
    /// Pre-order index of the node within the root expression (plan-node
    /// id, in topological order, for [`crate::plan::PlannedReport`]).
    pub id: usize,
    /// Operator label (see [`Expr::label`]).
    pub label: String,
    /// The physical operator that produced this node's output (e.g.
    /// `hash-join`, `merge-semijoin`, `scan`). The planner chooses per
    /// node; the naive evaluator reports the fixed choice `ops` makes.
    pub operator: String,
    /// Output arity of the node.
    pub arity: usize,
    /// Output cardinality `|E'(D)|`.
    pub cardinality: usize,
    /// Wall-clock time spent in this node's own operator, children
    /// excluded.
    pub elapsed: Duration,
    /// Per-partition timings when the node ran partition-parallel
    /// ([`crate::kernel::PartitionStat`]); empty for serial operators and
    /// serial runs.
    pub partitions: Vec<crate::kernel::PartitionStat>,
}

/// What an instrumented evaluation measured; the evaluator hands the
/// result relation back beside it.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Rows of the query result (the root node's output).
    pub output_rows: usize,
    /// Per-node statistics in pre-order (index 0 is the root).
    pub nodes: Vec<NodeStat>,
    /// The input database size `|D|` (Definition 15).
    pub db_size: usize,
}

impl EvalReport {
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

    /// Render a per-node table (id, label, operator, cardinality), for
    /// reports.
    pub fn render(&self) -> String {
        let mut out = format!(
            "|D| = {}, output = {}, max intermediate = {}\n",
            self.db_size,
            self.output_rows,
            self.max_intermediate()
        );
        for n in &self.nodes {
            out.push_str(&format!(
                "  [{:>3}] {:<28} {:<20} arity {}  card {}\n",
                n.id, n.label, n.operator, n.arity, n.cardinality
            ));
        }
        out
    }
}

/// The physical operator the naive (tree-walking) evaluator uses for a
/// node — the fixed dispatch of [`crate::ops`], reported in [`NodeStat`]
/// so naive and planned reports are comparable.
pub(crate) fn naive_operator(expr: &Expr) -> &'static str {
    match expr {
        Expr::Rel(_) => "scan",
        Expr::Union(..) => "merge-union",
        Expr::Diff(..) => "merge-diff",
        Expr::Project(..) => "project",
        Expr::Select(..) => "filter",
        Expr::ConstTag(..) => "tag",
        Expr::GroupCount(..) => "hash-group",
        Expr::Join(theta, _, _) => ops::join_dispatch(theta),
        Expr::Semijoin(theta, _, _) => ops::semijoin_dispatch(theta),
    }
}

/// Evaluate with instrumentation: the plain evaluator's tree walk with an
/// observer recording one [`NodeStat`] per node. Node ids follow
/// pre-order, exactly the order of [`Expr::subexpressions`].
pub fn evaluate_instrumented(
    expr: &Expr,
    db: &Database,
) -> Result<(Relation, EvalReport), EvalError> {
    expr.arity(&db.schema())?;
    let mut nodes: Vec<Option<NodeStat>> = vec![None; expr.node_count()];
    let result = walk(expr, db, &mut 0, &mut |id, node, rel, elapsed| {
        nodes[id] = Some(NodeStat {
            id,
            label: node.label(),
            operator: naive_operator(node).to_string(),
            arity: rel.arity(),
            cardinality: rel.len(),
            elapsed,
            partitions: Vec::new(),
        });
    });
    let report = EvalReport {
        output_rows: result.len(),
        nodes: nodes
            .into_iter()
            .map(|n| n.expect("every node visited"))
            .collect(),
        db_size: db.size(),
    };
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::evaluate;
    use sj_algebra::{division, Condition};
    use sj_storage::Relation;

    fn division_db(groups: i64, divisor: i64) -> Database {
        // R = {1..groups} × {1..divisor}, S = {1..divisor}: every A divides.
        let mut r = Vec::new();
        for a in 1..=groups {
            for b in 1..=divisor {
                r.push([a, b]);
            }
        }
        let rows: Vec<&[i64]> = r.iter().map(|x| x.as_slice()).collect();
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&rows));
        db.set(
            "S",
            Relation::unary((1..=divisor).map(sj_storage::Value::int)),
        );
        db
    }

    #[test]
    fn instrumented_matches_plain() {
        let db = division_db(4, 3);
        let e = division::division_double_difference("R", "S");
        let plain = evaluate(&e, &db).unwrap();
        let (result, report) = evaluate_instrumented(&e, &db).unwrap();
        assert_eq!(plain, result);
        assert_eq!(report.output_rows, plain.len());
    }

    #[test]
    fn node_ids_match_preorder_subexpressions() {
        let db = division_db(3, 2);
        let e = division::division_double_difference("R", "S");
        let (_, report) = evaluate_instrumented(&e, &db).unwrap();
        let subs = e.subexpressions();
        assert_eq!(report.nodes.len(), subs.len());
        for (stat, sub) in report.nodes.iter().zip(subs.iter()) {
            assert_eq!(stat.label, sub.label(), "node {}", stat.id);
        }
    }

    #[test]
    fn division_plan_has_quadratic_intermediate_on_this_family() {
        // On the all-divide family, π₁(R) × S has |A-values| · |S| tuples.
        let db = division_db(10, 10);
        let e = division::division_double_difference("R", "S");
        let (_, report) = evaluate_instrumented(&e, &db).unwrap();
        // |D| = 110; the product node has 100 tuples.
        assert_eq!(report.db_size, 110);
        assert!(report.max_intermediate() >= 100);
        // The cartesian-product node itself carries 10 × 10 tuples.
        let product = report
            .nodes
            .iter()
            .find(|n| n.label.starts_with("join["))
            .unwrap();
        assert_eq!(product.cardinality, 100);
    }

    #[test]
    fn semijoin_plan_never_exceeds_input() {
        let mut db = Database::new();
        db.set(
            "Visits",
            Relation::from_int_rows(&[&[1, 10], &[2, 20], &[3, 30]]),
        );
        db.set("Serves", Relation::from_int_rows(&[&[10, 5], &[20, 6]]));
        db.set("Likes", Relation::from_int_rows(&[&[1, 5]]));
        let e = division::example3_lousy_bar_sa();
        let (_, report) = evaluate_instrumented(&e, &db).unwrap();
        assert!(report.max_intermediate() <= report.db_size);
    }

    #[test]
    fn expansion_factor_and_render() {
        let db = division_db(5, 5);
        let e = division::division_double_difference("R", "S");
        let (_, report) = evaluate_instrumented(&e, &db).unwrap();
        assert!(report.expansion_factor() > 0.0);
        let s = report.render();
        assert!(s.contains("max intermediate"));
        assert!(s.contains("join["));
    }

    #[test]
    fn union_children_both_counted() {
        let mut db = Database::new();
        db.set("A", Relation::from_int_rows(&[&[1], &[2]]));
        db.set("B", Relation::from_int_rows(&[&[3]]));
        let e = Expr::rel("A").union(Expr::rel("B"));
        let (_, report) = evaluate_instrumented(&e, &db).unwrap();
        assert_eq!(report.nodes.len(), 3);
        assert_eq!(report.nodes[0].cardinality, 3); // union
        assert_eq!(report.nodes[1].cardinality, 2); // A
        assert_eq!(report.nodes[2].cardinality, 1); // B
    }

    #[test]
    fn join_node_stats() {
        let mut db = Database::new();
        db.set("A", Relation::from_int_rows(&[&[1], &[2]]));
        db.set("B", Relation::from_int_rows(&[&[1], &[3]]));
        let e = Expr::rel("A").join(Condition::eq(1, 1), Expr::rel("B"));
        let (_, report) = evaluate_instrumented(&e, &db).unwrap();
        assert_eq!(report.nodes[0].arity, 2);
        assert_eq!(report.nodes[0].cardinality, 1);
    }
}
