//! Expression transformations.
//!
//! The central one is [`semijoins_to_joins_checked`]: the paper notes (below
//! Theorem 18) that the equi-semijoin is expressible in RA *in a linear
//! way*, e.g. for binary `R`, `S`:
//!
//! ```text
//! R ⋉₂₌₁ S  =  π₁,₂(R ⋈₂₌₁ π₁(S))
//! ```
//!
//! Generalized: project the right operand onto exactly the columns its side
//! of the condition mentions, remap the condition to the projected
//! positions, join, and project back onto the left columns. For an
//! equality-only condition every left tuple matches at most one projected
//! right tuple, so all intermediates stay ≤ the operand sizes — the
//! expression is linear. (For conditions with `<`, `>` or `≠` the rewrite
//! is still *correct*, but not linear; the linearity claim is only made —
//! and only needed — for SA=.)

use crate::condition::{Atom, Condition};
use crate::error::AlgebraError;
use crate::expr::Expr;
use sj_storage::Schema;

/// Rewrite every semijoin into the linear join/project form:
///
/// `left ⋉θ right = π_{1..n}(left ⋈θ' π_J(right))` where `J` is the sorted
/// set of right columns mentioned in θ and θ' re-targets each atom to the
/// position of its column within `J`. When θ is empty (unconditional
/// semijoin — "keep left iff right nonempty"), `J` is empty and `π_J(right)`
/// is the nullary projection of the right operand, which is `{()}` iff
/// `right` is nonempty: exactly the semijoin semantics.
///
/// The rewrite needs operand arities (for the outer projection), hence the
/// schema parameter; it fails only if the expression is ill-formed over the
/// schema. The result contains no `Semijoin` node and computes the same
/// query; if the input was SA=, the output is a **linear** RA= expression.
pub fn semijoins_to_joins_checked(e: &Expr, schema: &Schema) -> Result<Expr, AlgebraError> {
    fn go(e: &Expr, schema: &Schema) -> Result<Expr, AlgebraError> {
        let Expr::Semijoin(theta, a, b) = e else {
            return e.map_children(|c| go(c, schema));
        };
        let mut j_cols: Vec<usize> = theta.atoms().iter().map(|at| at.right).collect();
        j_cols.sort_unstable();
        j_cols.dedup();
        let remapped = Condition::new(theta.atoms().iter().map(|at| Atom {
            left: at.left,
            op: at.op,
            right: j_cols.partition_point(|&c| c < at.right) + 1,
        }));
        let na = a.arity(schema)?;
        Ok(go(a, schema)?
            .join(remapped, go(b, schema)?.project(j_cols))
            .project(1..=na))
    }
    // Validate first so errors surface with the original expression.
    e.arity(schema)?;
    go(e, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::to_text;

    #[test]
    fn lowers_binary_semijoin_like_paper_note() {
        // R ⋉₂₌₁ S = π₁,₂(R ⋈₂₌₁ π₁(S)) — the exact equation under Thm 18.
        let schema = Schema::new([("R", 2), ("S", 2)]);
        let e = Expr::rel("R").semijoin(Condition::eq(2, 1), Expr::rel("S"));
        let lowered = semijoins_to_joins_checked(&e, &schema).unwrap();
        assert_eq!(
            to_text(&lowered),
            "project[1,2](join[2=1](R, project[1](S)))"
        );
        assert!(lowered.is_ra_eq());
        assert_eq!(lowered.arity(&schema).unwrap(), 2);
    }

    #[test]
    fn lowers_unconditional_semijoin_to_nullary_projection() {
        let schema = Schema::new([("R", 2), ("S", 2)]);
        let e = Expr::rel("R").semijoin(Condition::always(), Expr::rel("S"));
        let lowered = semijoins_to_joins_checked(&e, &schema).unwrap();
        assert_eq!(
            to_text(&lowered),
            "project[1,2](join[true](R, project[](S)))"
        );
    }

    #[test]
    fn lowers_nested_semijoins() {
        let schema = Schema::new([("Likes", 2), ("Serves", 2), ("Visits", 2)]);
        let e = crate::division::example3_lousy_bar_sa();
        let lowered = semijoins_to_joins_checked(&e, &schema).unwrap();
        assert!(lowered.is_ra_eq());
        assert!(!lowered
            .subexpressions()
            .iter()
            .any(|s| matches!(s, Expr::Semijoin(..))));
        assert_eq!(lowered.arity(&schema).unwrap(), 1);
    }

    #[test]
    fn condition_remapping_handles_gaps_and_duplicates() {
        // θ uses right columns {3, 1, 3}: J = [1, 3]; atoms remap to
        // positions 1 and 2.
        let schema = Schema::new([("R", 2), ("S", 3)]);
        let theta = Condition::eq(1, 3).and_eq(2, 1).and_eq(1, 3);
        let e = Expr::rel("R").semijoin(theta, Expr::rel("S"));
        let lowered = semijoins_to_joins_checked(&e, &schema).unwrap();
        assert_eq!(
            to_text(&lowered),
            "project[1,2](join[1=2,2=1,1=2](R, project[1,3](S)))"
        );
        assert_eq!(lowered.arity(&schema).unwrap(), 2);
    }

    #[test]
    fn non_equi_semijoin_also_lowers() {
        let schema = Schema::new([("R", 1), ("S", 1)]);
        let e = Expr::rel("R").semijoin(Condition::lt(1, 1), Expr::rel("S"));
        let lowered = semijoins_to_joins_checked(&e, &schema).unwrap();
        assert_eq!(to_text(&lowered), "project[1](join[1<1](R, project[1](S)))");
    }

    #[test]
    fn errors_propagate() {
        let schema = Schema::new([("R", 2)]);
        let e = Expr::rel("R").semijoin(Condition::eq(1, 1), Expr::rel("Missing"));
        assert!(semijoins_to_joins_checked(&e, &schema).is_err());
    }
}
