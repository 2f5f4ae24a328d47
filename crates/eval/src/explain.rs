//! `EXPLAIN ANALYZE`-style plan rendering.
//!
//! Evaluates an expression with instrumentation and renders the plan tree
//! with actual cardinalities, flagging the largest intermediate — the node
//! Theorem 17 says is Ω(n²) for any quadratic expression.
//!
//! ```text
//! diff                                 card 1
//! ├─ project[1]                        card 3
//! │  └─ R                              card 4
//! └─ project[1]                        card 2    ◀ largest
//!    └─ ...
//! ```

use crate::error::EvalError;
use crate::instrumented::evaluate_instrumented;
use crate::report::Report;
use sj_algebra::Expr;
use sj_storage::Database;

/// Evaluate and render the annotated plan tree.
pub fn explain(e: &Expr, db: &Database) -> Result<String, EvalError> {
    let (_, report) = evaluate_instrumented(e, db)?;
    Ok(render_tree(e, &report))
}

/// Render a tree walker's report ([`evaluate_instrumented`]: one node
/// per tree node, pre-order) against its expression.
pub fn render_tree(e: &Expr, report: &Report) -> String {
    let max = report.max_intermediate();
    let mut out = format!(
        "|D| = {}   output = {}   max intermediate = {}\n",
        report.db_size, report.output_rows, max
    );
    let mut stats = report.nodes.iter();
    draw_tree(e, &mut out, &mut |e, branch, out| {
        let stat = stats.next().expect("one report node per tree node");
        let label = format!("{branch}{}", stat.label);
        let marker = if stat.cardinality == max && max > 0 {
            "   ◀ largest"
        } else {
            ""
        };
        out.push_str(&format!(
            "{label:<44} card {:>8}{marker}\n",
            stat.cardinality
        ));
        e.children()
    });
    out
}

/// Draw a tree with `├─ └─ │` branches, pre-order from `root`. `line`
/// writes one node's line given the branch glyphs that start it, and
/// returns the children to draw beneath it.
pub(crate) fn draw_tree<N>(
    root: N,
    out: &mut String,
    line: &mut impl FnMut(N, &str, &mut String) -> Vec<N>,
) {
    fn walk<N>(
        node: N,
        branch: &str,
        prefix: &str,
        out: &mut String,
        line: &mut impl FnMut(N, &str, &mut String) -> Vec<N>,
    ) {
        let children = line(node, branch, out);
        let n = children.len();
        for (i, c) in children.into_iter().enumerate() {
            let (glyph, indent) = if i + 1 == n {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            walk(
                c,
                &format!("{prefix}{glyph}"),
                &format!("{prefix}{indent}"),
                out,
                line,
            );
        }
    }
    walk(root, "", "", out, line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_algebra::division;
    use sj_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 9]]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        db
    }

    #[test]
    fn explain_division_plan() {
        let e = division::division_double_difference("R", "S");
        let s = explain(&e, &db()).unwrap();
        assert!(s.contains("max intermediate"));
        assert!(s.contains("◀ largest"));
        assert!(s.contains("join[true]"));
        assert!(s.contains("└─"));
        // One line per node plus the header.
        assert_eq!(s.lines().count(), e.node_count() + 1);
    }

    #[test]
    fn explain_leaf() {
        let e = sj_algebra::Expr::rel("R");
        let s = explain(&e, &db()).unwrap();
        assert!(s.lines().count() == 2);
        assert!(s.contains("R"));
    }

    #[test]
    fn tree_structure_markers() {
        let e = sj_algebra::Expr::rel("R").union(sj_algebra::Expr::rel("R"));
        let s = explain(&e, &db()).unwrap();
        assert!(s.contains("├─ R"));
        assert!(s.contains("└─ R"));
    }
}
