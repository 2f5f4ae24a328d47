//! The instrumented evaluator: evaluation plus per-subexpression
//! cardinalities.
//!
//! Definition 16 of the paper assigns to every RA expression `E` the
//! function `c(E)(n) = max{|E(D)| : |D| = n}` and calls `E` *linear* when
//! `c(E') = O(n)` for **every subexpression** `E'`, *quadratic* when some
//! subexpression is `Ω(n²)`. Measuring those intermediate sizes is the
//! core experimental tool of this reproduction: the instrumented evaluator
//! returns, beside the result, a [`Report`] with the cardinality of every
//! node of the expression tree (identified by its pre-order index,
//! matching [`Expr::subexpressions`]).

use crate::error::EvalError;
use crate::ops;
use crate::plain::walk;
use crate::report::{NodeStat, Report};
use sj_algebra::Expr;
use sj_storage::{Database, Relation};

/// The physical operator the naive (tree-walking) evaluator uses for a
/// node — the fixed dispatch of [`crate::ops`], reported in [`NodeStat`]
/// so tree-walk and planned reports are comparable.
fn naive_operator(expr: &Expr) -> &'static str {
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
/// observer recording one [`NodeStat`] per node (no estimate, one
/// occurrence each). Node ids follow pre-order, exactly the order of
/// [`Expr::subexpressions`].
pub fn evaluate_instrumented(expr: &Expr, db: &Database) -> Result<(Relation, Report), EvalError> {
    expr.arity(&db.schema())?;
    let mut nodes = Vec::with_capacity(expr.node_count());
    let result = walk(expr, db, &mut 0, &mut |id, node, arity, rows, elapsed| {
        nodes.push(NodeStat {
            id,
            label: node.label(),
            operator: naive_operator(node),
            arity,
            cardinality: rows,
            estimate: None,
            occurrences: 1,
            elapsed,
        });
    });
    let result = result.into_owned();
    // Observed children first; reported in pre-order.
    nodes.sort_by_key(|n| n.id);
    let report = Report {
        output_rows: result.len(),
        nodes,
        db_size: db.size(),
        expr_nodes: expr.node_count(),
        ..Report::default()
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
