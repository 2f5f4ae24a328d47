//! The **Theorem 18 rewriter**: non-quadratic RA expressions into SA=.
//!
//! The proof of Theorems 17/18 rewrites a join `E₁ ⋈θ E₂` whose joining
//! pairs always have an empty free-value side into `Z₁ ∪ Z₂`, where e.g.
//!
//! ```text
//! Z₂ = ⋃_f π_p̄ ( σ_ψ τ_v̄ ( E₁ ⋉_{θ=} σ_φ τ_v̄ E₂ ) )
//! ```
//!
//! reconstructs the right tuple from the left one: every right column is
//! either pinned by an equality atom (read it off the left tuple via
//! `g(j) = min{ i | (i,j) ∈ θ= }`) or holds a value from the constants /
//! finite-interval pool (tag it on).
//!
//! This module implements the rewriting for the **syntactically
//! determined** case: every column of one operand is equality-constrained
//! or provably constant (by a constant-column dataflow analysis). That is
//! exactly the fragment where the empty-free-value condition holds for
//! *every* database — the case split `⋃_f` over interval values
//! degenerates, because a column that is "retrievable from the constants
//! and finite intervals" without being constant cannot be recognized
//! syntactically. The semantic residue is handled by the witness search in
//! [`mod@crate::analyze`] (which proves quadraticness via Lemma 24 instead).
//!
//! The output is a genuine SA= expression: semijoins with equality
//! conditions, plus `σ/π/τ/∪/−`.

use crate::error::CoreError;
use sj_algebra::{CompOp, Condition, Expr, Selection};
use sj_storage::{Schema, Value};

/// Constant-column dataflow: `result[i] = Some(c)` when column `i + 1` of
/// the expression provably equals `c` in every tuple of every database.
pub fn constant_columns(e: &Expr, schema: &Schema) -> Result<Vec<Option<Value>>, CoreError> {
    Ok(match e {
        Expr::Rel(name) => {
            let n = schema.arity_of(name).ok_or_else(|| {
                CoreError::Algebra(sj_algebra::AlgebraError::UnknownRelation(name.clone()))
            })?;
            vec![None; n]
        }
        Expr::Union(a, b) => {
            let (ca, cb) = (constant_columns(a, schema)?, constant_columns(b, schema)?);
            ca.into_iter()
                .zip(cb)
                .map(|(x, y)| if x == y { x } else { None })
                .collect()
        }
        Expr::Diff(a, _) => constant_columns(a, schema)?,
        Expr::Project(cols, a) => {
            let ca = constant_columns(a, schema)?;
            cols.iter().map(|&c| ca[c - 1].clone()).collect()
        }
        Expr::Select(sel, a) => {
            let mut ca = constant_columns(a, schema)?;
            match sel {
                Selection::EqConst(i, c) => ca[i - 1] = Some(c.clone()),
                Selection::Eq(i, j) => {
                    // Equality propagates constants across the two columns.
                    match (ca[i - 1].clone(), ca[j - 1].clone()) {
                        (Some(c), None) => ca[j - 1] = Some(c),
                        (None, Some(c)) => ca[i - 1] = Some(c),
                        _ => {}
                    }
                }
                Selection::Lt(..) => {}
            }
            ca
        }
        Expr::ConstTag(c, a) => {
            let mut ca = constant_columns(a, schema)?;
            ca.push(Some(c.clone()));
            ca
        }
        Expr::Join(theta, a, b) => {
            let ca = constant_columns(a, schema)?;
            let cb = constant_columns(b, schema)?;
            let n1 = ca.len();
            let mut all: Vec<Option<Value>> = ca.into_iter().chain(cb).collect();
            for atom in theta.atoms() {
                if atom.op == CompOp::Eq {
                    let (i, j) = (atom.left - 1, n1 + atom.right - 1);
                    match (all[i].clone(), all[j].clone()) {
                        (Some(c), None) => all[j] = Some(c),
                        (None, Some(c)) => all[i] = Some(c),
                        _ => {}
                    }
                }
            }
            all
        }
        Expr::Semijoin(_, a, _) => constant_columns(a, schema)?,
        Expr::GroupCount(cols, a) => {
            let ca = constant_columns(a, schema)?;
            let mut out: Vec<Option<Value>> = cols.iter().map(|&c| ca[c - 1].clone()).collect();
            out.push(None);
            out
        }
    })
}

/// `σ_{i α j}(e)` for all four operators, using only the paper's selection
/// primitives (`σᵢ₌ⱼ`, `σᵢ<ⱼ`, difference).
fn select_cols(e: Expr, i: usize, op: CompOp, j: usize) -> Expr {
    match op {
        CompOp::Eq => e.select_eq(i, j),
        CompOp::Lt => e.select_lt(i, j),
        CompOp::Gt => e.select_lt(j, i),
        CompOp::Neq => e.clone().diff(e.select_eq(i, j)),
    }
}

/// `σ_{i α c}(e)` against a constant, via tagging:
/// `π_{1..n}(σ_{i α (n+1)}(τ_c(e)))`.
fn select_vs_const(e: Expr, arity: usize, i: usize, op: CompOp, c: &Value) -> Expr {
    let tagged = e.tag(c.clone());
    let filtered = select_cols(tagged, i, op, arity + 1);
    filtered.project(1..=arity)
}

/// Rewrite an RA/SA expression into an equivalent **SA=** expression, when
/// every join is syntactically determined on at least one side. Errors
/// with [`CoreError::NotLinearSafe`] otherwise (which does *not* mean the
/// expression is quadratic — see the analyzer).
pub fn to_sa_eq(e: &Expr, schema: &Schema) -> Result<Expr, CoreError> {
    e.arity(schema)?;
    rewrite(e, schema)
}

fn rewrite(e: &Expr, schema: &Schema) -> Result<Expr, CoreError> {
    match e {
        Expr::Semijoin(theta, ..) if !theta.is_equi() => Err(CoreError::NotLinearSafe(
            "semijoin with a non-equality condition is linear but outside SA=".into(),
        )),
        Expr::GroupCount(..) => Err(CoreError::NotLinearSafe(
            "grouping is outside the relational algebra (Section 5 extension)".into(),
        )),
        Expr::Join(theta, a, b) => {
            let sa = rewrite(a, schema)?;
            let sb = rewrite(b, schema)?;
            let n1 = a.arity(schema)?;
            let n2 = b.arity(schema)?;
            let ca = constant_columns(a, schema)?;
            let cb = constant_columns(b, schema)?;
            let eq_left = theta.constrained_left();
            let eq_right = theta.constrained_right();
            let right_determined = (1..=n2).all(|j| eq_right.contains(&j) || cb[j - 1].is_some());
            let left_determined = (1..=n1).all(|i| eq_left.contains(&i) || ca[i - 1].is_some());
            if right_determined {
                let (z, cols) = rewrite_right_determined(theta, sa, sb, n1, n2, &cb);
                Ok(z.project(cols))
            } else if left_determined {
                // Z₁ is Z₂ of the mirrored join E₂ ⋈_θ' E₁, whose output
                // (b̄, ā) the projection rotates back to (ā, b̄).
                let (z, mut cols) = rewrite_right_determined(&theta.swapped(), sb, sa, n2, n1, &ca);
                cols.rotate_left(n2);
                Ok(z.project(cols))
            } else {
                Err(CoreError::NotLinearSafe(format!(
                    "join {theta}: neither side has all columns equality-constrained \
                     or constant"
                )))
            }
        }
        _ => e.map_children(|c| rewrite(c, schema)),
    }
}

/// `g(j) = min{ i | (i, j) ∈ θ= }` — the paper's retrieval function.
fn g_of(theta: &Condition, j: usize) -> Option<usize> {
    theta
        .theta(CompOp::Eq)
        .into_iter()
        .filter(|&(_, jj)| jj == j)
        .map(|(i, _)| i)
        .min()
}

/// The `Z₂` shape: every right column is retrievable from the left tuple
/// (via `g`) or constant. Build `τ_c̄( σ_ψ(E₁) ⋉_{θ=} E₂ )`, where ψ
/// re-expresses the non-equality atoms against retrieved/constant right
/// values, beside the columns `p̄` of its final projection onto (ā, b̄).
fn rewrite_right_determined(
    theta: &Condition,
    sa: Expr,
    sb: Expr,
    n1: usize,
    n2: usize,
    cb: &[Option<Value>],
) -> (Expr, Vec<usize>) {
    // ψ: residual atoms as selections on E₁.
    let mut left = sa;
    for atom in theta.atoms() {
        if atom.op == CompOp::Eq {
            continue;
        }
        match g_of(theta, atom.right) {
            Some(gj) => {
                left = select_cols(left, atom.left, atom.op, gj);
            }
            None => {
                let c = cb[atom.right - 1]
                    .as_ref()
                    .expect("right_determined: unconstrained column is constant");
                left = select_vs_const(left, n1, atom.left, atom.op, c);
            }
        }
    }
    // Semijoin on the equality part.
    let eq_cond = Condition::new(theta.atoms().iter().filter(|a| a.op == CompOp::Eq).copied());
    let filtered = left.semijoin(eq_cond, sb);
    // Tag the constants needed for unconstrained right columns, then
    // read off (ā, reconstructed b̄).
    let mut tagged = filtered;
    let mut tag_pos: Vec<(usize, usize)> = Vec::new(); // (j, column position)
    let mut next = n1 + 1;
    for j in 1..=n2 {
        if g_of(theta, j).is_none() {
            let c = cb[j - 1].as_ref().expect("constant column");
            tagged = tagged.tag(c.clone());
            tag_pos.push((j, next));
            next += 1;
        }
    }
    let mut proj: Vec<usize> = (1..=n1).collect();
    for j in 1..=n2 {
        match g_of(theta, j) {
            Some(gj) => proj.push(gj),
            None => {
                let &(_, pos) = tag_pos.iter().find(|&&(jj, _)| jj == j).unwrap();
                proj.push(pos);
            }
        }
    }
    (tagged, proj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_eval::{evaluate, evaluate_instrumented};
    use sj_storage::{Database, Relation};

    fn schema() -> Schema {
        Schema::new([("R", 2), ("S", 2), ("U1", 1)])
    }

    fn db() -> Database {
        let mut d = Database::new();
        d.set(
            "R",
            Relation::from_int_rows(&[&[1, 10], &[2, 20], &[3, 10], &[4, 40]]),
        );
        d.set(
            "S",
            Relation::from_int_rows(&[&[10, 5], &[20, 6], &[10, 7], &[50, 8]]),
        );
        d.set("U1", Relation::from_int_rows(&[&[10], &[20], &[99]]));
        d
    }

    fn assert_rewrite_equivalent(e: &Expr) {
        let s = schema();
        let d = db();
        let sa = to_sa_eq(e, &s).unwrap_or_else(|err| panic!("{e}: {err}"));
        assert!(sa.is_sa_eq(), "rewrite of {e} not SA=: {sa}");
        assert_eq!(
            evaluate(e, &d).unwrap(),
            evaluate(&sa, &d).unwrap(),
            "rewrite changed semantics of {e}"
        );
    }

    #[test]
    fn paper_note_example_semijoin_expressed_linearly() {
        // R ⋈_{2=1} π₁(S): right side fully constrained — rewrites, and the
        // SA= version is the semijoin the paper's note describes.
        let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S").project([1]));
        assert_rewrite_equivalent(&e);
    }

    #[test]
    fn join_with_unary_determined_right() {
        let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("U1"));
        assert_rewrite_equivalent(&e);
    }

    #[test]
    fn join_with_unary_determined_left() {
        let e = Expr::rel("U1").join(Condition::eq(1, 2), Expr::rel("R"));
        assert_rewrite_equivalent(&e);
    }

    #[test]
    fn residual_inequalities_become_selections() {
        // R ⋈_{2=1 ∧ 1<2} π₁,₂(S): right determined by 2=1... second right
        // column unconstrained — use a fully constrained variant instead:
        // R ⋈_{2=1 ∧ 1<1} U1 — atom 1<1 is left1 < right1 with right1
        // constrained by 2=1: becomes σ₁<₂ on R.
        let e = Expr::rel("R").join(Condition::eq(2, 1).and(1, CompOp::Lt, 1), Expr::rel("U1"));
        assert_rewrite_equivalent(&e);
        let e2 = Expr::rel("R").join(Condition::eq(2, 1).and(1, CompOp::Gt, 1), Expr::rel("U1"));
        assert_rewrite_equivalent(&e2);
        let e3 = Expr::rel("R").join(Condition::eq(2, 1).and(1, CompOp::Neq, 1), Expr::rel("U1"));
        assert_rewrite_equivalent(&e3);
        // Left-determined: U1 ⋈_{1=2 ∧ 1 α 1} R selects on R, whose
        // column 2 carries U1's column 1.
        for op in [CompOp::Lt, CompOp::Gt, CompOp::Neq] {
            let e = Expr::rel("U1").join(Condition::eq(1, 2).and(1, op, 1), Expr::rel("R"));
            assert_rewrite_equivalent(&e);
        }
        // Left-determined through a constant left column: σ₁₌₃(R)'s
        // column 1 is compared with S's column 2 as the constant 3.
        for op in [CompOp::Lt, CompOp::Neq] {
            let left = Expr::rel("R").select_const(1, 3);
            let e = left.join(Condition::eq(2, 1).and(1, op, 2), Expr::rel("S"));
            assert_rewrite_equivalent(&e);
        }
    }

    #[test]
    fn constant_right_columns_reconstructed_by_tagging() {
        // Right side: σ₂₌'5'(S) — column 2 constant, column 1 eq-bound.
        let right = Expr::rel("S").select_const(2, 5);
        let e = Expr::rel("R").join(Condition::eq(2, 1), right);
        assert_rewrite_equivalent(&e);
    }

    #[test]
    fn constant_left_columns_reconstructed_by_tagging() {
        let left = Expr::rel("R").select_const(1, 3);
        let e = left.join(Condition::eq(2, 1), Expr::rel("S"));
        // Left col 1 constant, col 2 eq-bound → left determined; right is
        // NOT determined (col 2 free) — must take the Z₁ branch.
        assert_rewrite_equivalent(&e);
    }

    #[test]
    fn tagged_right_via_tau_is_determined() {
        // E₂ = τ₇(U1): columns (u, 7); join on 2=1 binds u; col 2 constant.
        let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("U1").tag(7));
        assert_rewrite_equivalent(&e);
    }

    #[test]
    fn undetermined_join_rejected() {
        // Plain R ⋈_{2=1} S: right column 2 is neither constrained nor
        // constant — the join can be quadratic; the rewriter refuses.
        let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S"));
        assert!(matches!(
            to_sa_eq(&e, &schema()),
            Err(CoreError::NotLinearSafe(_))
        ));
        // Cartesian product likewise.
        let p = Expr::rel("U1").product(Expr::rel("U1"));
        assert!(to_sa_eq(&p, &schema()).is_err());
    }

    #[test]
    fn rewritten_plan_is_linear_in_practice() {
        // The SA= rewrite never exceeds the input size on any database —
        // measured with the instrumented evaluator.
        let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("U1"));
        let sa = to_sa_eq(&e, &schema()).unwrap();
        let d = db();
        let (_, report) = evaluate_instrumented(&sa, &d).unwrap();
        assert!(report.max_intermediate() <= d.size() + 1);
    }

    #[test]
    fn nested_joins_rewrite_recursively() {
        let inner = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("U1"));
        // inner: (r1, r2, u) with u = r2. Outer join against U1 on 3=1.
        let e = inner.join(Condition::eq(3, 1), Expr::rel("U1"));
        assert_rewrite_equivalent(&e);
    }

    #[test]
    fn constant_columns_analysis() {
        let s = schema();
        let e = Expr::rel("R").tag(9).select_const(1, 4);
        let cc = constant_columns(&e, &s).unwrap();
        assert_eq!(cc, vec![Some(Value::int(4)), None, Some(Value::int(9))]);
        // Union meets.
        let u = Expr::rel("R").tag(9).union(Expr::rel("R").tag(9));
        assert_eq!(constant_columns(&u, &s).unwrap()[2], Some(Value::int(9)));
        let u2 = Expr::rel("R").tag(9).union(Expr::rel("R").tag(8));
        assert_eq!(constant_columns(&u2, &s).unwrap()[2], None);
        // Equality propagation through σ.
        let p = Expr::rel("R").select_const(1, 4).select_eq(1, 2);
        assert_eq!(
            constant_columns(&p, &s).unwrap(),
            vec![Some(Value::int(4)), Some(Value::int(4))]
        );
    }

    #[test]
    fn semijoin_passthrough_and_rejections() {
        let s = schema();
        let e = Expr::rel("R").semijoin(Condition::eq(2, 1), Expr::rel("S"));
        let sa = to_sa_eq(&e, &s).unwrap();
        assert_eq!(sa, e);
        assert!(to_sa_eq(
            &Expr::rel("R").semijoin(Condition::lt(1, 1), Expr::rel("S")),
            &s
        )
        .is_err());
        assert!(to_sa_eq(&Expr::rel("R").group_count([1]), &s).is_err());
    }
}
