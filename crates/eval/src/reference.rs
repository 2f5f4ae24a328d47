//! A deliberately naive reference evaluator.
//!
//! Every operator is implemented by the most direct transcription of the
//! paper's semantics (Definitions 1 and 2) — nested loops, no hashing, no
//! indexes. It exists purely to cross-validate the optimized evaluator: the
//! property tests in this crate check `evaluate == evaluate_reference` on
//! random expressions and databases.

use crate::error::EvalError;
use sj_algebra::{Expr, Selection};
use sj_storage::{Database, Relation, Tuple, Value};

/// Evaluate `expr` on `db` with the naive reference semantics.
pub fn evaluate_reference(expr: &Expr, db: &Database) -> Result<Relation, EvalError> {
    expr.arity(&db.schema())?;
    Ok(go(expr, db))
}

fn go(expr: &Expr, db: &Database) -> Relation {
    match expr {
        Expr::Rel(name) => db.get(name).expect("validated").clone(),
        Expr::Union(a, b) => {
            let (ra, rb) = (go(a, db), go(b, db));
            let all = ra.iter().chain(rb.iter()).cloned();
            Relation::from_tuples(ra.arity(), all).expect("same arity")
        }
        Expr::Diff(a, b) => {
            let (ra, rb) = (go(a, db), go(b, db));
            Relation::from_tuples(
                ra.arity(),
                ra.iter().filter(|t| !rb.iter().any(|u| u == *t)).cloned(),
            )
            .expect("same arity")
        }
        Expr::Project(cols, a) => {
            let ra = go(a, db);
            let zero: Vec<usize> = cols.iter().map(|c| c - 1).collect();
            Relation::from_tuples(cols.len(), ra.iter().map(|t| t.project(&zero)))
                .expect("projection arity")
        }
        Expr::Select(sel, a) => {
            let ra = go(a, db);
            let keep = |t: &Tuple| match sel {
                Selection::Eq(i, j) => t[*i - 1] == t[*j - 1],
                Selection::Lt(i, j) => t[*i - 1] < t[*j - 1],
                Selection::EqConst(i, c) => &t[*i - 1] == c,
            };
            Relation::from_tuples(ra.arity(), ra.iter().filter(|t| keep(t)).cloned())
                .expect("selection arity")
        }
        Expr::ConstTag(c, a) => {
            let ra = go(a, db);
            Relation::from_tuples(ra.arity() + 1, ra.iter().map(|t| t.tag(c.clone())))
                .expect("tag arity")
        }
        Expr::Join(theta, a, b) => {
            let (ra, rb) = (go(a, db), go(b, db));
            let mut out = Vec::new();
            for t1 in &ra {
                for t2 in &rb {
                    if theta.eval(t1.values(), t2.values()) {
                        out.push(t1.concat(t2));
                    }
                }
            }
            Relation::from_tuples(ra.arity() + rb.arity(), out).expect("join arity")
        }
        Expr::Semijoin(theta, a, b) => {
            let (ra, rb) = (go(a, db), go(b, db));
            Relation::from_tuples(
                ra.arity(),
                ra.iter()
                    .filter(|t1| rb.iter().any(|t2| theta.eval(t1.values(), t2.values())))
                    .cloned(),
            )
            .expect("semijoin arity")
        }
        Expr::GroupCount(cols, a) => {
            let ra = go(a, db);
            let zero: Vec<usize> = cols.iter().map(|c| c - 1).collect();
            // Quadratic grouping: for each distinct key, count matches.
            let keys: Vec<Tuple> = {
                let mut ks: Vec<Tuple> = ra.iter().map(|t| t.project(&zero)).collect();
                ks.sort_unstable();
                ks.dedup();
                ks
            };
            let mut out: Vec<Tuple> = keys
                .into_iter()
                .map(|k| {
                    let n = ra.iter().filter(|t| t.project(&zero) == k).count();
                    k.tag(Value::int(n as i64))
                })
                .collect();
            if cols.is_empty() && out.is_empty() {
                out.push(Tuple::from([Value::int(0)]));
            }
            Relation::from_tuples(cols.len() + 1, out).expect("group arity")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::evaluate;
    use sj_algebra::Condition;

    #[test]
    fn reference_agrees_on_hand_examples() {
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&[&[1, 2], &[2, 3], &[3, 3]]));
        db.set("S", Relation::from_int_rows(&[&[2, 9], &[3, 9]]));
        for e in [
            Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S")),
            Expr::rel("R").semijoin(Condition::eq(2, 1).and_eq(1, 1), Expr::rel("S")),
            Expr::rel("R")
                .project([2, 2])
                .union(Expr::rel("S").project([1, 2])),
            Expr::rel("R").diff(Expr::rel("S")),
            Expr::rel("R").select_eq(1, 2).tag(7),
            Expr::rel("R").group_count([2]),
            Expr::rel("R").join(
                Condition::lt(1, 2).and(2, sj_algebra::CompOp::Neq, 1),
                Expr::rel("S"),
            ),
        ] {
            assert_eq!(
                evaluate(&e, &db).unwrap(),
                evaluate_reference(&e, &db).unwrap(),
                "expression: {e}"
            );
        }
    }
}
