//! The plain recursive evaluator, and the one tree walk it shares with
//! the instrumented evaluator.

use crate::error::EvalError;
use crate::ops;
use sj_algebra::Expr;
use sj_storage::{Database, Relation};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Evaluate `expr` on `db`.
///
/// The expression is validated against the database's induced schema first,
/// so evaluation itself cannot encounter malformed column references.
///
/// ```
/// use sj_algebra::{Condition, Expr};
/// use sj_eval::evaluate;
/// use sj_storage::{Database, Relation};
///
/// let mut db = Database::new();
/// db.set("R", Relation::from_int_rows(&[&[1, 7], &[2, 8]]));
/// db.set("S", Relation::from_int_rows(&[&[7]]));
/// let e = Expr::rel("R").semijoin(Condition::eq(2, 1), Expr::rel("S"));
/// let out = evaluate(&e, &db).unwrap();
/// assert_eq!(out, Relation::from_int_rows(&[&[1, 7]]));
/// ```
pub fn evaluate(expr: &Expr, db: &Database) -> Result<Relation, EvalError> {
    expr.arity(&db.schema())?;
    Ok(walk(expr, db, &mut 0, &mut |_, _, _, _, _| {}).into_owned())
}

/// The tree walk behind [`evaluate`] and
/// [`crate::instrumented::evaluate_instrumented`]: recursive evaluation of
/// a **validated** expression with the row operators of [`crate::ops`].
/// `observe` sees every node once — its pre-order id (the order of
/// [`Expr::subexpressions`]; `next_id` starts at 0), the node, its
/// output's arity and row count, and the time spent in the node's own
/// operator, children excluded. A scan borrows the stored relation; a
/// product that a difference consumes is not stored (see [`operand`]);
/// every other node owns its output.
pub(crate) fn walk<'db>(
    expr: &Expr,
    db: &'db Database,
    next_id: &mut usize,
    observe: &mut dyn FnMut(usize, &Expr, usize, usize, Duration),
) -> Cow<'db, Relation> {
    let id = *next_id;
    *next_id += 1;
    // Children are evaluated before the node's own operator is timed, so
    // the observed time is self time.
    if let Expr::Diff(a, b) = expr {
        let a = operand(a, db, next_id, observe);
        let b = operand(b, db, next_id, observe);
        let start = Instant::now();
        let rel = ops::difference(a, &b);
        observe(id, expr, rel.arity(), rel.len(), start.elapsed());
        return Cow::Owned(rel);
    }
    let kids: Vec<Cow<'db, Relation>> = expr
        .children()
        .into_iter()
        .map(|child| walk(child, db, next_id, observe))
        .collect();
    let start = Instant::now();
    let rel = match (expr, kids.as_slice()) {
        (Expr::Rel(name), []) => {
            let rel = db.get(name).expect("validated: relation exists");
            observe(id, expr, rel.arity(), rel.len(), start.elapsed());
            return Cow::Borrowed(rel);
        }
        (Expr::Union(..), [a, b]) => a.union(b).expect("validated: arities agree"),
        (Expr::Project(cols, _), [a]) => ops::project(a, cols),
        (Expr::Select(sel, _), [a]) => ops::select(a, sel),
        (Expr::ConstTag(c, _), [a]) => ops::const_tag(a, c),
        (Expr::Join(theta, ..), [a, b]) => ops::join(a, b, theta),
        (Expr::Semijoin(theta, ..), [a, b]) => ops::semijoin(a, b, theta),
        (Expr::GroupCount(cols, _), [a]) => ops::group_count(a, cols),
        _ => unreachable!("Expr::children yields each operator's own arity"),
    };
    observe(id, expr, rel.arity(), rel.len(), start.elapsed());
    Cow::Owned(rel)
}

/// An operand of a difference. A product (a join on the empty θ) is
/// handed over as its two factors, and the difference reads its pairs
/// without storing them: on the double-difference division plan that
/// saves building and freeing one tuple per pair of `π₁R × S`. The
/// product node is observed with the size it would have and no time of
/// its own. Any other node is walked.
fn operand<'db>(
    expr: &Expr,
    db: &'db Database,
    next_id: &mut usize,
    observe: &mut dyn FnMut(usize, &Expr, usize, usize, Duration),
) -> ops::Operand<'db> {
    match expr {
        Expr::Join(theta, a, b) if theta.is_empty() => {
            let id = *next_id;
            *next_id += 1;
            let a = walk(a, db, next_id, observe);
            let b = walk(b, db, next_id, observe);
            let (arity, rows) = (a.arity() + b.arity(), a.len() * b.len());
            observe(id, expr, arity, rows, Duration::ZERO);
            ops::Operand::Product(a, b)
        }
        _ => ops::Operand::Rows(walk(expr, db, next_id, observe)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_algebra::division;
    use sj_storage::Relation;

    /// The beer-drinkers database used in Examples 3 and 7 discussions —
    /// small hand data with one lousy bar.
    fn beer_db() -> Database {
        let mut db = Database::new();
        db.set(
            "Visits",
            Relation::from_str_rows(&[
                &["an", "bad bar"],
                &["bob", "good bar"],
                &["carl", "empty bar"],
            ]),
        );
        db.set(
            "Serves",
            Relation::from_str_rows(&[&["bad bar", "swill"], &["good bar", "nectar"]]),
        );
        db.set("Likes", Relation::from_str_rows(&[&["bob", "nectar"]]));
        db
    }

    #[test]
    fn example3_lousy_bar_query() {
        // "bad bar" serves only unliked beers → an visits a lousy bar.
        // "empty bar" serves nothing → not lousy (serves no unliked beer,
        // but the expression asks for bars serving only unliked beers via
        // π₁(Serves) − …, so bars serving nothing are not in π₁(Serves)).
        let out = evaluate(&division::example3_lousy_bar_sa(), &beer_db()).unwrap();
        assert_eq!(out, Relation::from_str_rows(&[&["an"]]));
    }

    #[test]
    fn example3_ra_and_sa_agree() {
        let db = beer_db();
        let sa = evaluate(&division::example3_lousy_bar_sa(), &db).unwrap();
        let ra = evaluate(&division::example3_lousy_bar_ra(), &db).unwrap();
        assert_eq!(sa, ra);
    }

    #[test]
    fn cyclic_query() {
        let out = evaluate(&division::cyclic_beer_query_ra(), &beer_db()).unwrap();
        assert_eq!(out, Relation::from_str_rows(&[&["bob"]]));
    }

    #[test]
    fn division_double_difference_small() {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 8]]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        let out = evaluate(&division::division_double_difference("R", "S"), &db).unwrap();
        assert_eq!(out, Relation::from_int_rows(&[&[1]]));
    }

    #[test]
    fn division_by_empty_divisor_returns_all_candidates() {
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&[&[1, 7], &[2, 8]]));
        db.set("S", Relation::empty(1));
        let out = evaluate(&division::division_double_difference("R", "S"), &db).unwrap();
        // Every A trivially contains the empty set.
        assert_eq!(out, Relation::from_int_rows(&[&[1], &[2]]));
    }

    #[test]
    fn counting_division_agrees_with_double_difference() {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[1, 9], &[2, 7], &[2, 8], &[3, 9]]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        let dd = evaluate(&division::division_double_difference("R", "S"), &db).unwrap();
        let cnt = evaluate(&division::division_counting("R", "S"), &db).unwrap();
        assert_eq!(dd, cnt);
        assert_eq!(dd, Relation::from_int_rows(&[&[1], &[2]]));
    }

    #[test]
    fn equality_division_variants_agree() {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[
                &[1, 7],
                &[1, 8],
                &[1, 9], // superset of S
                &[2, 7],
                &[2, 8], // exactly S
                &[3, 7], // proper subset
            ]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        let eq_ra = evaluate(&division::division_equality("R", "S"), &db).unwrap();
        let eq_cnt = evaluate(&division::division_equality_counting("R", "S"), &db).unwrap();
        assert_eq!(eq_ra, Relation::from_int_rows(&[&[2]]));
        assert_eq!(eq_ra, eq_cnt);
    }

    #[test]
    fn validation_errors_surface() {
        let db = Database::new();
        assert!(matches!(
            evaluate(&Expr::rel("R"), &db),
            Err(EvalError::Algebra(_))
        ));
        let mut db2 = Database::new();
        db2.set("R", Relation::empty(1));
        assert!(evaluate(&Expr::rel("R").project([2]), &db2).is_err());
    }

    #[test]
    fn union_and_tag_evaluate() {
        let mut db = Database::new();
        db.set("A", Relation::from_int_rows(&[&[1]]));
        db.set("B", Relation::from_int_rows(&[&[2]]));
        let e = Expr::rel("A").union(Expr::rel("B")).tag(9);
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out, Relation::from_int_rows(&[&[1, 9], &[2, 9]]));
    }

    #[test]
    fn select_const_sugar_equals_desugared() {
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&[&[1, 5], &[2, 6]]));
        let e = Expr::rel("R").select_const(2, 5);
        let d = e.desugared(&db.schema()).unwrap();
        assert_eq!(evaluate(&e, &db).unwrap(), evaluate(&d, &db).unwrap());
        assert_eq!(
            evaluate(&e, &db).unwrap(),
            Relation::from_int_rows(&[&[1, 5]])
        );
    }

    #[test]
    fn semijoin_lowering_preserves_semantics() {
        let db = beer_db();
        let sa = division::example3_lousy_bar_sa();
        let lowered = sj_algebra::semijoins_to_joins_checked(&sa, &db.schema()).unwrap();
        assert_eq!(
            evaluate(&sa, &db).unwrap(),
            evaluate(&lowered, &db).unwrap()
        );
    }

    #[test]
    fn set_containment_join_plan_on_fig1_shape() {
        // Minimal version of Fig. 1: the full figure is tested in the
        // workload crate; here a 2-person variant.
        let mut db = Database::new();
        db.set(
            "R", // person-symptom
            Relation::from_str_rows(&[&["an", "headache"], &["an", "fever"], &["bob", "headache"]]),
        );
        db.set(
            "S", // disease-symptom
            Relation::from_str_rows(&[&["flu", "headache"], &["flu", "fever"]]),
        );
        let out = evaluate(&division::set_containment_join_plan("R", "S"), &db).unwrap();
        assert_eq!(out, Relation::from_str_rows(&[&["an", "flu"]]));
    }
}
