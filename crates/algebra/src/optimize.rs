//! Algebraic plan rewrites.
//!
//! The paper's practical moral is that *semijoins are the linear core of
//! the relational algebra*: a query processor that recognizes when a join
//! is only used to filter one side can replace it by a semijoin and stay
//! linear. This module implements that and the classical enabling
//! rewrites, all semantics-preserving (property-tested against the
//! evaluator in `sj-eval`):
//!
//! * [`push_down_selections`] — move `σ` below `∪` and `−`, through `π`
//!   (remapping column references), into the left side of `⋈` when every
//!   referenced column is a left column, and into the left of `⋉` always.
//! * [`prune_projections`] — collapse `π∘π` into one projection.
//! * [`joins_to_semijoins`] — **semijoin reduction**: rewrite
//!   `π_cols(E₁ ⋈θ E₂)` into `π_cols(E₁ ⋉θ E₂)` whenever `cols` only
//!   references the left operand and θ is *right-lossless* for the kept
//!   columns — i.e. each left tuple's contribution does not depend on how
//!   many right tuples match. This turns quadratic intermediates into
//!   linear ones exactly in the cases Theorem 18 covers syntactically.
//! * [`OptimizeLevel`] — whether the rewrites run:
//!   [`OptimizeLevel::run`] is the one fixpoint driver, and `sj-eval`'s
//!   `Engine` carries a level as its optimizer configuration.
//! * [`optimize`] — [`OptimizeLevel::Full`] by its classical name.
//!
//! Each pass is written as its rule arms, then [`Expr::map_children`]:
//! a node where no rule fires is rebuilt from the pass applied to its
//! children, so a pass states only what it rewrites.

use crate::error::AlgebraError;
use crate::expr::{Expr, Selection};
use sj_storage::Schema;
use std::fmt;

/// Whether the optimizer runs — the configuration knob carried by
/// `sj-eval`'s `Engine`; [`OptimizeLevel::run`] applies a level. The two
/// values are the paper's two questions: how big are the intermediates
/// of the expression as written (`Off`), and how far do the rewrites
/// shrink them (`Full`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum OptimizeLevel {
    /// No rewrites: the expression reaches the evaluator as written. With
    /// `sj-eval`'s naive evaluator that is the right choice when the
    /// expression's own intermediate sizes are the object of study (all
    /// the paper's Definition 16 measurements); its planner still picks
    /// physical operators, and runs the RA division idioms as one
    /// division node, at every level.
    #[default]
    Off,
    /// Every rewrite: the paper's semijoin reduction — joins whose
    /// output is projected to left columns become semijoins (linear
    /// intermediates wherever Theorem 18 applies syntactically) — plus
    /// selection pushdown and projection pruning.
    Full,
}

impl OptimizeLevel {
    /// Validate `e` against `schema`, then, under `Full`, apply
    /// [`joins_to_semijoins`], [`push_down_selections`] and
    /// [`prune_projections`], in that order, repeating until a full
    /// round changes nothing (at most 32 rounds: every rewrite shrinks
    /// a measure, so real inputs converge in a handful).
    pub fn run(self, e: &Expr, schema: &Schema) -> Result<Expr, AlgebraError> {
        e.arity(schema)?;
        let mut current = e.clone();
        if self == OptimizeLevel::Off {
            // The engine's per-query default: no clone-and-compare
            // fixpoint round for a level that rewrites nothing.
            return Ok(current);
        }
        for _ in 0..32 {
            let reduced = joins_to_semijoins(&current, schema)?;
            let next = prune_projections(&push_down_selections(&reduced, schema));
            if next == current {
                break;
            }
            current = next;
        }
        Ok(current)
    }

    /// The level itself. Kept because `benchmark/` spells
    /// `OptimizeLevel::Full.pipeline().run(..)`; call
    /// [`OptimizeLevel::run`] directly.
    pub fn pipeline(self) -> OptimizeLevel {
        self
    }
}

impl fmt::Display for OptimizeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeLevel::Off => write!(f, "off"),
            OptimizeLevel::Full => write!(f, "full"),
        }
    }
}

/// Apply all rewrites to a fixpoint (bounded, since every rewrite strictly
/// shrinks a measure or is applied once): [`OptimizeLevel::Full`].
pub fn optimize(e: &Expr, schema: &Schema) -> Result<Expr, AlgebraError> {
    OptimizeLevel::Full.run(e, schema)
}

/// Remap a selection through a projection: column `i` of `π_cols(E)`'s
/// output is column `cols[i-1]` of `E`, so `σ(π_cols(E)) = π_cols(σ'(E))`
/// with every column reference substituted. Returns `None` when a
/// referenced column is out of the projection's range (malformed input —
/// leave the node unchanged rather than rewrite or panic).
fn remap_selection(sel: &Selection, cols: &[usize]) -> Option<Selection> {
    let remap = |i: usize| cols.get(i.checked_sub(1)?).copied();
    Some(match sel {
        Selection::Eq(i, j) => Selection::Eq(remap(*i)?, remap(*j)?),
        Selection::Lt(i, j) => Selection::Lt(remap(*i)?, remap(*j)?),
        Selection::EqConst(i, c) => Selection::EqConst(remap(*i)?, c.clone()),
    })
}

/// Push selections toward the leaves. Only structurally safe moves are
/// made; anything else is left in place. The schema is consulted for the
/// operand arities of `⋈`/`⋉` (to decide whether a selection is a pure
/// left-side selection); subexpressions whose arity cannot be determined
/// are conservatively left untouched.
pub fn push_down_selections(e: &Expr, schema: &Schema) -> Expr {
    let Expr::Select(sel, inner) = e else {
        return e.map_children_infallible(|c| push_down_selections(c, schema));
    };
    match push_down_selections(inner, schema) {
        // σ(E₁ ∪ E₂) = σ(E₁) ∪ σ(E₂)
        Expr::Union(a, b) => push_down_selections(&Expr::Select(sel.clone(), a), schema)
            .union(push_down_selections(&Expr::Select(sel.clone(), b), schema)),
        // σ(E₁ − E₂) = σ(E₁) − E₂  (difference filters the left)
        Expr::Diff(a, b) => push_down_selections(&Expr::Select(sel.clone(), a), schema).diff(*b),
        // σ(π_cols(E)) = π_cols(σ'(E)) with columns remapped —
        // every output column of π is an input column, so any
        // selection survives the trip below the projection.
        Expr::Project(cols, a) => match remap_selection(sel, &cols) {
            Some(remapped) => {
                push_down_selections(&Expr::Select(remapped, a), schema).project(cols)
            }
            None => Expr::Select(sel.clone(), Box::new(a.project(cols))),
        },
        // σ(E₁ ⋈θ E₂) = σ(E₁) ⋈θ E₂ when σ only references the
        // left operand's columns (all ≤ n₁).
        Expr::Join(theta, a, b) => match a.arity(schema) {
            Ok(n1) if sel.columns().iter().all(|&c| c >= 1 && c <= n1) => {
                push_down_selections(&Expr::Select(sel.clone(), a), schema).join(theta, *b)
            }
            _ => Expr::Select(sel.clone(), Box::new(a.join(theta, *b))),
        },
        Expr::Semijoin(theta, a, b) => {
            // A semijoin's output columns are the left operand's;
            // every selection on it is a left selection.
            let pushed = push_down_selections(&Expr::Select(sel.clone(), a), schema);
            pushed.semijoin(theta, *b)
        }
        other => Expr::Select(sel.clone(), Box::new(other)),
    }
}

/// Merge nested projections: `π_p(π_q(E)) = π_{q∘p}(E)`. An identity
/// projection stays: whether it is one depends on the schema, which this
/// pass does not read.
///
/// Malformed nodes (an outer column outside the inner projection's range)
/// are left unchanged rather than composed: the rewrite is total on any
/// input, validated or not, and never panics — `optimize` validates up
/// front, but this function is public on its own.
pub fn prune_projections(e: &Expr) -> Expr {
    let Expr::Project(outer, inner) = e else {
        return e.map_children_infallible(prune_projections);
    };
    match prune_projections(inner) {
        Expr::Project(inner_cols, base)
            if outer.iter().all(|&o| o >= 1 && o <= inner_cols.len()) =>
        {
            let composed: Vec<usize> = outer.iter().map(|&o| inner_cols[o - 1]).collect();
            prune_projections(&base.project(composed))
        }
        other => other.project(outer.clone()),
    }
}

/// **Semijoin reduction**: rewrite `π_cols(E₁ ⋈θ E₂)` to
/// `π_cols(E₁ ⋉θ E₂)` when
///
/// 1. every projected column refers to the left operand (`≤ n₁`), and
/// 2. θ is equality-only with every right column of `E₂` constrained
///    (each left tuple matches at most one *distinct* right tuple after
///    projecting `E₂` to its constrained columns), **or** the projection
///    is duplicate-eliminating anyway — which under set semantics it
///    always is. Under set semantics condition 1 alone suffices: the
///    projection of the join to left columns equals the projection of the
///    semijoin, because each left tuple appears in the join output iff it
///    has a θ-match.
///
/// The rewrite therefore fires on condition 1 alone, for joins under a
/// projection. It applies recursively.
pub fn joins_to_semijoins(e: &Expr, schema: &Schema) -> Result<Expr, AlgebraError> {
    if let Expr::Project(cols, inner) = e {
        if let Expr::Join(theta, a, b) = inner.as_ref() {
            let n1 = a.arity(schema)?;
            if cols.iter().all(|&c| c <= n1) {
                let a2 = joins_to_semijoins(a, schema)?;
                let b2 = joins_to_semijoins(b, schema)?;
                return Ok(a2.semijoin(theta.clone(), b2).project(cols.clone()));
            }
        }
    }
    e.map_children(|c| joins_to_semijoins(c, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::display::to_text;

    fn schema() -> Schema {
        Schema::new([("R", 2), ("S", 2), ("T", 1)])
    }

    #[test]
    fn semijoin_reduction_fires_on_left_projection() {
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([1, 2]);
        let o = joins_to_semijoins(&e, &schema()).unwrap();
        assert_eq!(to_text(&o), "project[1,2](semijoin[2=1](R, S))");
    }

    #[test]
    fn semijoin_reduction_blocked_by_right_columns() {
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([1, 3]);
        let o = joins_to_semijoins(&e, &schema()).unwrap();
        assert_eq!(o, e, "projection keeps a right column — must not rewrite");
    }

    #[test]
    fn semijoin_reduction_recurses_into_operands() {
        let inner = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("T"))
            .project([1]);
        let e = inner
            .clone()
            .join(Condition::eq(1, 1), Expr::rel("S"))
            .project([1]);
        let o = joins_to_semijoins(&e, &schema()).unwrap();
        assert_eq!(
            to_text(&o),
            "project[1](semijoin[1=1](project[1](semijoin[2=1](R, T)), S))"
        );
    }

    #[test]
    fn projection_composition() {
        let e = Expr::rel("R").project([2, 1]).project([2, 2]);
        let o = prune_projections(&e);
        assert_eq!(to_text(&o), "project[1,1](R)");
    }

    #[test]
    fn selection_pushes_through_union_and_diff() {
        let e = Expr::rel("R").union(Expr::rel("S")).select_eq(1, 2);
        let o = push_down_selections(&e, &schema());
        assert_eq!(to_text(&o), "union(select[1=2](R), select[1=2](S))");
        let d = Expr::rel("R").diff(Expr::rel("S")).select_lt(1, 2);
        let od = push_down_selections(&d, &schema());
        assert_eq!(to_text(&od), "diff(select[1<2](R), S)");
    }

    #[test]
    fn selection_pushes_through_semijoin_left() {
        let e = Expr::rel("R")
            .semijoin(Condition::eq(2, 1), Expr::rel("T"))
            .select_eq(1, 2);
        let o = push_down_selections(&e, &schema());
        assert_eq!(to_text(&o), "semijoin[2=1](select[1=2](R), T)");
    }

    #[test]
    fn selection_pushes_through_projection_with_remap() {
        // σ₁₌₂(π₂,₁(R)) = π₂,₁(σ₂₌₁(R)): output column 1 is input column
        // 2 and vice versa.
        let e = Expr::rel("R").project([2, 1]).select_eq(1, 2);
        let o = push_down_selections(&e, &schema());
        assert_eq!(to_text(&o), "project[2,1](select[2=1](R))");
        // The constant form remaps its single column.
        let c = Expr::rel("R")
            .project([2])
            .select_const(1, sj_storage::Value::int(7));
        let oc = push_down_selections(&c, &schema());
        assert_eq!(to_text(&oc), "project[2](select[2={7}](R))");
        // Duplicated projection columns remap to the same source column.
        let d = Expr::rel("R").project([2, 2]).select_lt(1, 2);
        let od = push_down_selections(&d, &schema());
        assert_eq!(to_text(&od), "project[2,2](select[2<2](R))");
    }

    #[test]
    fn selection_pushes_into_join_left() {
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .select_lt(1, 2);
        let o = push_down_selections(&e, &schema());
        assert_eq!(to_text(&o), "join[2=1](select[1<2](R), S)");
    }

    #[test]
    fn selection_referencing_right_join_columns_stays_put() {
        // Column 3 belongs to S — the selection must not move.
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .select_eq(1, 3);
        let o = push_down_selections(&e, &schema());
        assert_eq!(o, e);
    }

    #[test]
    fn pushdown_leaves_malformed_projection_selection_alone() {
        // σ₃₌₁ over a 1-column projection is malformed; no rewrite, no
        // panic.
        let e = Expr::rel("R").project([1]).select_eq(3, 1);
        let o = push_down_selections(&e, &schema());
        assert_eq!(o, e);
        // Same for an unknown relation under a join: arity is unknowable,
        // so the selection stays put.
        let u = Expr::rel("Nope")
            .join(Condition::always(), Expr::rel("S"))
            .select_eq(1, 1);
        let ou = push_down_selections(&u, &schema());
        assert_eq!(ou, u);
    }

    #[test]
    fn pushdown_semantics_on_remapped_projection() {
        // End-to-end check that the π-remap rewrite preserves results.
        use sj_storage::{Database, Relation};
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&[&[1, 2], &[2, 2], &[3, 1]]));
        let e = Expr::rel("R").project([2, 1]).select_eq(1, 2);
        let o = push_down_selections(&e, &db.schema());
        assert_ne!(o, e, "rewrite should fire");
        // Evaluate both by hand through the reference semantics: compare
        // projected-selected row sets.
        let rows = |ex: &Expr| -> Vec<Vec<i64>> {
            // tiny structural interpreter for this test's two shapes
            fn eval(ex: &Expr, r: &[(i64, i64)]) -> Vec<Vec<i64>> {
                match ex {
                    Expr::Rel(_) => r.iter().map(|&(a, b)| vec![a, b]).collect(),
                    Expr::Project(cols, inner) => {
                        let mut out: Vec<Vec<i64>> = eval(inner, r)
                            .into_iter()
                            .map(|t| cols.iter().map(|&c| t[c - 1]).collect())
                            .collect();
                        out.sort_unstable();
                        out.dedup();
                        out
                    }
                    Expr::Select(Selection::Eq(i, j), inner) => eval(inner, r)
                        .into_iter()
                        .filter(|t| t[i - 1] == t[j - 1])
                        .collect(),
                    _ => unreachable!("test shapes only"),
                }
            }
            eval(ex, &[(1, 2), (2, 2), (3, 1)])
        };
        assert_eq!(rows(&e), rows(&o));
    }

    #[test]
    fn prune_projections_tolerates_out_of_range_columns() {
        // π₅(π₁(R)) is malformed (5 > 1); before the fix this panicked on
        // `inner_cols[o - 1]`. Now the node is left unchanged.
        let e = Expr::rel("R").project([1]).project([5]);
        let o = prune_projections(&e);
        assert_eq!(o, e);
        // A zero column is equally out of range.
        let z = Expr::rel("R").project([1, 2]).project([0]);
        let oz = prune_projections(&z);
        assert_eq!(oz, z);
        // Well-formed composition still fires around malformed nodes.
        let mixed = Expr::rel("R").project([2, 1]).project([2, 2]).project([9]);
        let om = prune_projections(&mixed);
        assert_eq!(to_text(&om), "project[9](project[1,1](R))");
    }

    #[test]
    fn optimize_fixpoint_turns_division_inner_into_semijoins_where_legal() {
        // The double-difference division plan has a product under π₁ via
        // the *difference*, not directly — the optimizer must NOT alter
        // semantics. We just check it runs to fixpoint and preserves
        // validity.
        let s = Schema::new([("R", 2), ("S", 1)]);
        let e = crate::division::division_double_difference("R", "S");
        let o = optimize(&e, &s).unwrap();
        assert_eq!(o.arity(&s).unwrap(), 1);
    }

    #[test]
    fn off_level_is_identity_but_still_validates() {
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([1, 2]);
        assert_eq!(OptimizeLevel::default(), OptimizeLevel::Off);
        assert_eq!(OptimizeLevel::Off.run(&e, &schema()).unwrap(), e);
        // Validation still fires on malformed input.
        assert!(OptimizeLevel::Off
            .run(&Expr::rel("Nope"), &schema())
            .is_err());
    }

    #[test]
    fn full_level_agrees_with_optimize() {
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([1, 2])
            .select_eq(1, 2);
        assert_eq!(
            OptimizeLevel::Full.run(&e, &schema()).unwrap(),
            optimize(&e, &schema()).unwrap()
        );
    }

    #[test]
    fn full_level_runs_semijoin_reduction() {
        let e = Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([1, 2]);
        let full = OptimizeLevel::Full.run(&e, &schema()).unwrap();
        assert!(
            full.subexpressions()
                .iter()
                .any(|s| matches!(s, Expr::Semijoin(..))),
            "full level does: {full}"
        );
    }

    #[test]
    fn optimize_makes_lousy_bar_join_plan_semijoin_shaped() {
        let s = Schema::new([("Likes", 2), ("Serves", 2), ("Visits", 2)]);
        let e = crate::division::example3_lousy_bar_ra();
        let o = optimize(&e, &s).unwrap();
        // The outer join under π₁ becomes a semijoin.
        assert!(
            to_text(&o).starts_with("project[1](semijoin["),
            "optimized: {o}"
        );
    }
}
