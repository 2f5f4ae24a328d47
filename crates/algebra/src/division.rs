//! Classical relational-algebra plans for division, set joins, and the
//! paper's running example queries.
//!
//! These are the *expressions* whose intermediate-result complexity the
//! paper analyzes. Proposition 26 shows every RA expression for division is
//! quadratic; Section 5 shows the grouping/counting expression is linear.
//! Both are constructed here so the experiments can measure them.
//!
//! Conventions: the dividend `R(A, B)` is binary (column 1 = A, column 2 =
//! B), the divisor `S(B)` is unary, and set-join operands are binary
//! `R(A, B)`, `S(C, D)`.
//!
//! `sj-eval`'s physical planner recognizes two of these shapes over
//! stored operands and runs each as one direct division operator (its
//! `PhysOp::Divide`): [`division_double_difference`] (which
//! [`division_via_join`] builds too) and [`division_equality`]. No RA
//! rewrite can make them linear, so lowering them is an operator choice,
//! not an optimizer pass; the naive and reference evaluators keep running
//! them as written, which is what the experiments measure. The counting
//! shapes are not lowered: they are linear already, and
//! [`division_counting`] is not division when `S` is empty — it counts
//! the groups of `R ⋈ S`, which is empty then, so it returns ∅ where
//! division returns π₁(R).

use crate::condition::Condition;
use crate::expr::Expr;

/// The textbook "double difference" RA plan for containment division
/// `R(A,B) ÷ S(B)`:
///
/// ```text
/// π₁(R) − π₁((π₁(R) × S) − R)
/// ```
///
/// `π₁(R) × S` enumerates every (A-value, required-B) pair; subtracting `R`
/// leaves the *missing* pairs; their A-values are disqualified. The
/// cartesian product makes the plan inherently quadratic — by Proposition 26
/// this is not an accident of this plan but holds for **every** RA plan.
pub fn division_double_difference(r: &str, s: &str) -> Expr {
    let candidates = Expr::rel(r).project([1]);
    let missing = candidates
        .clone()
        .product(Expr::rel(s))
        .diff(Expr::rel(r))
        .project([1]);
    candidates.diff(missing)
}

/// A join-flavoured variant of the classical division plan that avoids the
/// bare cartesian product in favour of a join with an inequality — still
/// quadratic (as Theorem 17 predicts for any correct plan):
///
/// ```text
/// π₁(R) − π₁(σ-missing pairs via ⋈)
/// ```
///
/// Concretely: pair every candidate with every divisor value using a join
/// on the always-true condition, then remove realized pairs. This is the
/// same plan shape as [`division_double_difference`] but exercises the
/// `Join` code path with an explicit (trivial) condition, so the
/// instrumented evaluator reports the blow-up at a `join` node rather than
/// a `product` node.
pub fn division_via_join(r: &str, s: &str) -> Expr {
    let candidates = Expr::rel(r).project([1]);
    let all_pairs = candidates.clone().join(Condition::always(), Expr::rel(s));
    let realized = Expr::rel(r);
    candidates.diff(all_pairs.diff(realized).project([1]))
}

/// Equality division `R ÷₌ S`: A-values whose B-set is **equal** to S.
/// Derived from containment division by removing A-values that also relate
/// to some B outside S:
///
/// ```text
/// (R ÷⊇ S) − π₁(R − (π₁(R) × S))
/// ```
pub fn division_equality(r: &str, s: &str) -> Expr {
    let extras = Expr::rel(r)
        .diff(Expr::rel(r).project([1]).product(Expr::rel(s)))
        .project([1]);
    division_double_difference(r, s).diff(extras)
}

/// The paper's Section 5 **linear** expression for containment division in
/// the extended algebra with grouping and counting:
///
/// ```text
/// π_A( γ_{A, count(B)}(R ⋈_{B=C} S)  ⋈_{count(B)=count(C)}  γ_{∅, count(C)}(S) )
/// ```
///
/// An A-value divides iff the number of its B's that fall inside S equals
/// |S|. Every intermediate here is at most the input size (the join with
/// the unary relation `S` is a semijoin-like filter), so the expression is
/// linear — the contrast with Proposition 26 that motivates set-join
/// specific operators.
pub fn division_counting(r: &str, s: &str) -> Expr {
    let matched_counts = Expr::rel(r)
        .join(Condition::eq(2, 1), Expr::rel(s))
        .group_count([1]);
    let divisor_count = Expr::rel(s).group_count([]);
    matched_counts
        .join(Condition::eq(2, 1), divisor_count)
        .project([1])
}

/// Section 5 analogue for **equality** division with grouping/counting:
/// additionally require that *all* of an A-value's B's fall inside S, i.e.
/// the A-group count in R equals the A-group count in `R ⋈ S`:
///
/// ```text
/// π_A( (γ_{A,count}(R ⋈_{B=C} S) ⋈_{A=A ∧ cnt=cnt} γ_{A,count}(R)) ⋈_{cnt=cnt} γ_{∅,count}(S) )
/// ```
pub fn division_equality_counting(r: &str, s: &str) -> Expr {
    let matched_counts = Expr::rel(r)
        .join(Condition::eq(2, 1), Expr::rel(s))
        .group_count([1]); // (A, matched)
    let total_counts = Expr::rel(r).group_count([1]); // (A, total)
    let same = matched_counts.join(Condition::eq_pairs([(1, 1), (2, 2)]), total_counts);
    // (A, matched, A, total) with matched = total
    let divisor_count = Expr::rel(s).group_count([]); // (|S|)
    same.join(Condition::eq(2, 1), divisor_count).project([1])
}

/// The classical RA plan for the **set-containment join**
/// `R(A,B) ⋈_{B⊇D} S(C,D)`, returning pairs `(a, c)` with
/// `{b | R(a,b)} ⊇ {d | S(c,d)}`:
///
/// ```text
/// (π₁R × π₁S) − π₁,₂( (π₁R × S) − π₁,₂,₃((π₁R × S) ⋈_{1=1 ∧ 3=2} R) )
/// ```
///
/// `π₁R × S` enumerates the *requirements* (a, c, d); joining back to `R`
/// keeps the satisfied ones; the difference yields violated requirements
/// whose (a, c) pairs are removed from all candidate pairs.
pub fn set_containment_join_plan(r: &str, s: &str) -> Expr {
    let all_pairs = Expr::rel(r).project([1]).product(Expr::rel(s).project([1]));
    let requirements = Expr::rel(r).project([1]).product(Expr::rel(s));
    let satisfied = requirements
        .clone()
        .join(Condition::eq_pairs([(1, 1), (3, 2)]), Expr::rel(r))
        .project([1, 2, 3]);
    let violated = requirements.diff(satisfied);
    all_pairs.diff(violated.project([1, 2]))
}

/// The classical RA plan for the **set-equality join**
/// `R(A,B) ⋈_{B=D} S(C,D)`: containment in both directions.
pub fn set_equality_join_plan(r: &str, s: &str) -> Expr {
    // (a, c) with B-set ⊇ D-set
    let forward = set_containment_join_plan(r, s);
    // (c, a) with D-set ⊇ B-set, then swapped to (a, c)
    let backward = set_containment_join_plan(s, r).project([2, 1]);
    forward.intersect(backward)
}

/// Example 3 of the paper (SA= form): drinkers that visit a *lousy* bar —
/// a bar serving only beers nobody likes.
///
/// ```text
/// π₁( Visits ⋉₂₌₁ ( π₁(Serves) − π₁(Serves ⋉₂₌₂ Likes) ) )
/// ```
pub fn example3_lousy_bar_sa() -> Expr {
    Expr::rel("Visits")
        .semijoin(
            Condition::eq(2, 1),
            Expr::rel("Serves").project([1]).diff(
                Expr::rel("Serves")
                    .semijoin(Condition::eq(2, 2), Expr::rel("Likes"))
                    .project([1]),
            ),
        )
        .project([1])
}

/// The same lousy-bar query written with joins instead of semijoins
/// (a linear RA expression — each semijoin is replaced following the
/// paper's note under Theorem 18).
pub fn example3_lousy_bar_ra() -> Expr {
    let liked_beers = Expr::rel("Likes").project([2]);
    let bars_serving_liked = Expr::rel("Serves")
        .join(Condition::eq(2, 1), liked_beers)
        .project([1]);
    let lousy = Expr::rel("Serves").project([1]).diff(bars_serving_liked);
    Expr::rel("Visits")
        .join(Condition::eq(2, 1), lousy)
        .project([1])
}

/// The cyclic query Q of Section 4.1: *drinkers that visit a bar that
/// serves a beer they like* — not expressible in SA=, hence quadratic in RA
/// (the paper's second application).
///
/// ```text
/// π₁( (Visits ⋈₂₌₁ Serves) ⋈_{1=1 ∧ 4=2} Likes )
/// ```
pub fn cyclic_beer_query_ra() -> Expr {
    Expr::rel("Visits")
        .join(Condition::eq(2, 1), Expr::rel("Serves"))
        // columns now: (drinker, bar, bar, beer)
        .join(Condition::eq_pairs([(1, 1), (4, 2)]), Expr::rel("Likes"))
        .project([1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::Schema;

    fn div_schema() -> Schema {
        Schema::new([("R", 2), ("S", 1)])
    }

    fn setjoin_schema() -> Schema {
        Schema::new([("R", 2), ("S", 2)])
    }

    fn beer_schema() -> Schema {
        Schema::new([("Likes", 2), ("Serves", 2), ("Visits", 2)])
    }

    #[test]
    fn division_plans_are_well_formed_ra() {
        let s = div_schema();
        for e in [
            division_double_difference("R", "S"),
            division_via_join("R", "S"),
            division_equality("R", "S"),
        ] {
            assert_eq!(e.arity(&s).unwrap(), 1, "{e}");
            assert!(e.is_ra(), "{e}");
            assert!(e.is_ra_eq(), "{e}");
        }
    }

    #[test]
    fn counting_plans_are_extended_and_unary() {
        let s = div_schema();
        for e in [
            division_counting("R", "S"),
            division_equality_counting("R", "S"),
        ] {
            assert_eq!(e.arity(&s).unwrap(), 1, "{e}");
            assert!(e.is_extended(), "{e}");
        }
    }

    #[test]
    fn set_join_plans_are_binary_ra() {
        let s = setjoin_schema();
        for e in [
            set_containment_join_plan("R", "S"),
            set_equality_join_plan("R", "S"),
        ] {
            assert_eq!(e.arity(&s).unwrap(), 2, "{e}");
            assert!(e.is_ra(), "{e}");
        }
    }

    #[test]
    fn example3_fragments() {
        let s = beer_schema();
        let sa = example3_lousy_bar_sa();
        assert!(sa.is_sa_eq());
        assert_eq!(sa.arity(&s).unwrap(), 1);
        let ra = example3_lousy_bar_ra();
        assert!(ra.is_ra_eq());
        assert_eq!(ra.arity(&s).unwrap(), 1);
    }

    #[test]
    fn cyclic_query_is_ra_eq_unary() {
        let e = cyclic_beer_query_ra();
        assert!(e.is_ra_eq());
        assert_eq!(e.arity(&beer_schema()).unwrap(), 1);
    }
}
