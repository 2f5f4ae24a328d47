//! # sj-algebra — relational & semijoin algebra expressions
//!
//! AST, validation, parsing, printing and transformations for the algebras
//! of Leinders & Van den Bussche, *"On the complexity of division and set
//! joins in the relational algebra"*:
//!
//! * **RA** (Definition 1): union, difference, projection, selection
//!   (`σᵢ₌ⱼ`, `σᵢ<ⱼ`), constant-tagging `τ_c`, and θ-joins with
//!   conjunctions over `{=, ≠, <, >}`. RA= is the equality-join fragment.
//! * **SA** (Definition 2): the join replaced by the semijoin `⋉θ`.
//!   SA= is the equality fragment — the paper's characterization of the
//!   *linear* RA queries (Corollary 19).
//! * **Extended RA** (Section 5): grouping `γ` with a count aggregate,
//!   in which division has a linear expression.
//!
//! Modules:
//!
//! * [`expr`] — the AST ([`expr::Expr`]), builders, arity checking,
//!   fragment predicates, subexpression traversal.
//! * [`condition`] — join/semijoin conditions θ and the Definition 20
//!   machinery (`constrainedₗ` / `uncₗ`).
//! * [`display`] / [`mod@parse`] — round-tripping text forms, and the
//!   [`parse::Scanner`] that `sj-logic`'s formula grammar reads with too.
//! * [`division`] — the classical division / set-join plans whose
//!   complexity the paper analyzes, and the running-example queries.
//! * [`transform`] — semijoin → join lowering (the linearity note under
//!   Theorem 18).
//! * [`joingraph`] — flattening join chains into (leaves, predicate
//!   edges) graphs and rebuilding them in any association order — the
//!   substrate of the cost-based join-order search in `sj-eval`.
//!
//! Every `Expr → Expr` pass — the [`mod@optimize`] rewrites,
//! [`Expr::desugared`], [`transform::semijoins_to_joins_checked`], and
//! outside this crate the Theorem 18 rewriter and the join-order search —
//! is written as the match arms where its rule fires, then one fallback
//! to [`Expr::map_children`], the single structural rebuild: a fresh node
//! of the same operator from the pass applied to each child, left to
//! right, stopping at the first error.

pub mod condition;
pub mod display;
pub mod division;
pub mod error;
pub mod expr;
pub mod joingraph;
pub mod optimize;
pub mod parse;
pub mod transform;

pub use condition::{Atom, CompOp, Condition};
pub use display::to_text;
pub use error::AlgebraError;
pub use expr::{Expr, Selection};
pub use joingraph::{CyclePos, JoinEdge, JoinGraph, OrderTree};
pub use optimize::{optimize, OptimizeLevel};
pub use parse::parse;
pub use transform::semijoins_to_joins_checked;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sj_storage::Value;

    /// Strategy for arbitrary conditions with columns in 1..=4.
    fn arb_condition() -> impl Strategy<Value = Condition> {
        proptest::collection::vec(
            (1usize..=4, 1usize..=4, 0u8..4).prop_map(|(l, r, o)| {
                let op = match o {
                    0 => CompOp::Eq,
                    1 => CompOp::Neq,
                    2 => CompOp::Lt,
                    _ => CompOp::Gt,
                };
                Atom {
                    left: l,
                    op,
                    right: r,
                }
            }),
            0..4,
        )
        .prop_map(Condition::new)
    }

    /// Strings of up to `max` letters, spaces and the bytes the grammar
    /// gives a meaning to, the quote among them.
    fn arb_string(max: usize) -> impl Strategy<Value = String> {
        let alphabet = "abz '{}[](),=<".chars().collect();
        proptest::collection::vec(proptest::sample::select(alphabet), 0..=max)
            .prop_map(String::from_iter)
    }

    /// Strategy for arbitrary expressions over relations R, S (arity 2).
    /// All column references are drawn from 1..=2 so the expression is
    /// well-formed as long as sub-arities cooperate; we don't force
    /// validity — the round-trip property holds regardless.
    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![Just(Expr::rel("R")), Just(Expr::rel("S"))];
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
                (proptest::collection::vec(1usize..=2, 0..3), inner.clone())
                    .prop_map(|(cols, a)| a.project(cols)),
                (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_eq(i, j)),
                (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_lt(i, j)),
                (any::<i64>(), inner.clone()).prop_map(|(c, a)| a.tag(Value::int(c))),
                (arb_string(8), inner.clone()).prop_map(|(s, a)| a.tag(Value::str(s))),
                (arb_condition(), inner.clone(), inner.clone()).prop_map(|(t, a, b)| a.join(t, b)),
                (arb_condition(), inner.clone(), inner.clone())
                    .prop_map(|(t, a, b)| a.semijoin(t, b)),
                (proptest::collection::vec(1usize..=2, 0..3), inner)
                    .prop_map(|(cols, a)| a.group_count(cols)),
            ]
        })
    }

    proptest! {
        /// parse(to_text(e)) == e for every expression.
        #[test]
        fn parse_print_roundtrip(e in arb_expr()) {
            let text = to_text(&e);
            let parsed = parse(&text).unwrap();
            prop_assert_eq!(parsed, e);
        }

        /// Subexpression count equals node count; pre-order starts at root.
        #[test]
        fn subexpr_invariants(e in arb_expr()) {
            let subs = e.subexpressions();
            prop_assert_eq!(subs.len(), e.node_count());
            prop_assert_eq!(subs[0], &e);
            prop_assert!(e.depth() <= e.node_count());
        }

        /// Fragment predicates are consistent: SA= ⊆ SA, RA= ⊆ RA, and
        /// an extended expression is in neither RA nor SA.
        #[test]
        fn fragment_consistency(e in arb_expr()) {
            if e.is_sa_eq() { prop_assert!(e.is_sa()); }
            if e.is_ra_eq() { prop_assert!(e.is_ra()); }
            if e.is_extended() {
                prop_assert!(!e.is_ra() && !e.is_sa());
            }
        }

        /// Swapping a condition twice is the identity.
        #[test]
        fn condition_swap_involution(c in arb_condition()) {
            prop_assert_eq!(c.swapped().swapped(), c);
        }

        /// constrained ∪ unc partitions {1..arity}.
        #[test]
        fn constrained_unc_partition(c in arb_condition()) {
            let arity = 4usize;
            let mut all: Vec<usize> = c.constrained_left();
            all.extend(c.unconstrained_left(arity));
            all.sort_unstable();
            let expect: Vec<usize> = (1..=arity).collect();
            prop_assert_eq!(all, expect);
        }
    }
}
