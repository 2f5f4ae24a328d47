//! The two directions of **Theorem 8**: SA= ↔ GF.
//!
//! * [`gf_to_sa`] — for every GF formula `φ(x₁,…,x_k)` with constants in
//!   `C`, an SA= expression `E_φ` with
//!   `E_φ(D) = { d̄ C-stored in D | D ⊨ φ(d̄) }`.
//! * [`sa_to_gf`] — for every (constant-tagging-free) SA= expression `E` of
//!   arity `k`, a GF formula `φ_E(x₁,…,x_k)` with
//!   `{ d̄ | D ⊨ φ_E(d̄) } = E(D)`.
//!
//! Both constructions follow the authors' earlier paper (Leinders, Marx,
//! Tyszkiewicz, Van den Bussche, *The semijoin algebra and the guarded
//! fragment*, JoLLI 2005), which proves the correspondence in the
//! constant-free setting; the present paper notes the extension to
//! constants is routine. Our `gf_to_sa` handles constants fully (via
//! `σᵢ₌c` and constant-tagging in the "stored-tuples" expression);
//! `sa_to_gf` handles constant-free expressions plus `σᵢ₌c` selections
//! (which map to the GF atom `x = c`), and rejects `τ_c` — exactly the
//! fragment the cited proof covers.
//!
//! ### The key idea (both directions)
//!
//! Every SA= output tuple is **C-stored** (Definition 4): its non-constant
//! values sit inside a single stored tuple. Therefore a projection or
//! semijoin witness can always be *guarded* by a relation atom, which
//! converts unguarded ∃ into guarded ∃. `sa_to_gf` reads the atom off the
//! expression: each subexpression carries a list of *guards* `(R, g)`, a
//! relation and a map from the subexpression's columns to positions of
//! `R`, such that each output tuple `t` fits at least one — some stored
//! `R`-tuple `s` has `t[l] = s[g(l)]` for every column `l`. `R` is its own
//! guard under the identity; `σ`, `−` and `⋉` output tuples of their left
//! operand and keep its guards; `∪` takes both operands' guards and `π`
//! composes each guard's map with its column list. The list is enough
//! because it follows every place an output tuple can come from, so a
//! projection (or semijoin) becomes one guarded case per guard of the
//! subexpression (of the right operand), each holding the subformula once.
//! Conversely, GF's guarded ∃ quantifies over tuples of a single relation,
//! which a semijoin against that relation simulates.

use crate::error::LogicError;
use crate::formula::{Formula, Var};
use sj_algebra::{Condition, Expr, Selection};
use sj_storage::{Schema, Value};
use std::collections::BTreeMap;

/// A translated query: an expression/formula plus the ordered free
/// variables naming its columns.
#[derive(Debug, Clone)]
pub struct GfQuery {
    /// The GF formula.
    pub formula: Formula,
    /// Free variables in column order (column i ↦ `free_vars[i]`).
    pub free_vars: Vec<Var>,
}

/// A translated expression: SA= expression plus the ordered free variables
/// naming its columns.
#[derive(Debug, Clone)]
pub struct SaQuery {
    /// The SA= expression.
    pub expr: Expr,
    /// Free variables in column order.
    pub free_vars: Vec<Var>,
}

// ---------------------------------------------------------------------------
// The "all C-stored k-tuples" expression
// ---------------------------------------------------------------------------

/// Build the SA= expression whose value on any database `D` is the set of
/// all C-stored `k`-tuples of `D`: the union, over every relation name `R`
/// (arity m) and every map `g : {1..k} → {columns of R} ∪ C`, of
/// `π_g(τ_C(R))`. Uses only projection, constant-tagging and union — all
/// SA= operators.
///
/// Errors with [`LogicError::EmptySchema`] when the schema has no
/// relations (then no tuple is C-stored and no expression exists).
pub fn stored_tuples_expr(
    schema: &Schema,
    k: usize,
    constants: &[Value],
) -> Result<Expr, LogicError> {
    let mut terms: Vec<Expr> = Vec::new();
    for (name, m) in schema.iter() {
        // Base: R tagged with all constants; columns m+1 .. m+|C| hold them.
        let mut base = Expr::rel(name);
        for c in constants {
            base = base.tag(c.clone());
        }
        // Every map {1..k} → {1..pool}, as the k base-`pool` digits of
        // an index, the last digit varying fastest.
        let pool = m + constants.len(); // columns to draw from
        for i in 0..pool.pow(k as u32) {
            let cols = (0..k).rev().map(|d| i / pool.pow(d as u32) % pool + 1);
            terms.push(base.clone().project(cols.collect::<Vec<_>>()));
        }
    }
    terms
        .into_iter()
        .reduce(Expr::union)
        .ok_or(LogicError::EmptySchema)
}

// ---------------------------------------------------------------------------
// GF → SA=
// ---------------------------------------------------------------------------

/// Translate a GF formula into an SA= expression computing its C-stored
/// answers (Theorem 8, second statement).
///
/// `constants` must contain every constant of the formula; pass the
/// formula's own constants (`f.constants()`) for the tightest `C`.
pub fn gf_to_sa(f: &Formula, schema: &Schema, constants: &[Value]) -> Result<SaQuery, LogicError> {
    f.check_guarded().map_err(LogicError::Unguarded)?;
    for c in f.constants() {
        if !constants.contains(&c) {
            return Err(LogicError::UnsupportedExpression(format!(
                "constant {c} of the formula is not in the supplied C"
            )));
        }
    }
    let desugared = desugar_bool(f);
    translate_formula(&desugared, schema, constants)
}

/// Replace `→` and `↔` by `¬/∧/∨` so the core translation has fewer cases.
fn desugar_bool(f: &Formula) -> Formula {
    match f {
        Formula::Implies(a, b) => desugar_bool(a).not().or(desugar_bool(b)),
        Formula::Iff(a, b) => {
            let (da, db) = (desugar_bool(a), desugar_bool(b));
            (da.clone().not().or(db.clone())).and(db.not().or(da))
        }
        Formula::Not(a) => desugar_bool(a).not(),
        Formula::And(a, b) => desugar_bool(a).and(desugar_bool(b)),
        Formula::Or(a, b) => desugar_bool(a).or(desugar_bool(b)),
        Formula::Exists {
            vars,
            guard_rel,
            guard_args,
            body,
        } => Formula::Exists {
            vars: vars.clone(),
            guard_rel: guard_rel.clone(),
            guard_args: guard_args.clone(),
            body: Box::new(desugar_bool(body)),
        },
        atom => atom.clone(),
    }
}

/// Semijoin `e_target ⋉ e_sub` keeping target tuples whose `vars_sub`
/// columns (looked up by variable name in `vars_target`) match.
fn expand_to(
    e_sub: Expr,
    vars_sub: &[Var],
    vars_target: &[Var],
    schema: &Schema,
    constants: &[Value],
) -> Result<Expr, LogicError> {
    let stored = stored_tuples_expr(schema, vars_target.len(), constants)?;
    let pairs: Vec<(usize, usize)> = vars_sub
        .iter()
        .enumerate()
        .map(|(sub_pos, v)| {
            let tgt_pos = vars_target
                .iter()
                .position(|w| w == v)
                .expect("vars_sub ⊆ vars_target");
            (tgt_pos + 1, sub_pos + 1)
        })
        .collect();
    Ok(stored.semijoin(Condition::eq_pairs(pairs), e_sub))
}

/// The relation atom `R(x̄)` as `R` with an equality selection for each
/// repeated variable; beside it the distinct variables in order of first
/// occurrence and the column where each first occurs.
fn relation_atom(
    r: &str,
    args: &[Var],
    schema: &Schema,
) -> Result<(Expr, Vec<Var>, Vec<usize>), LogicError> {
    let bad = |message: String| LogicError::BadRelationAtom {
        relation: r.to_string(),
        message,
    };
    let m = schema
        .arity_of(r)
        .ok_or_else(|| bad("not in schema".into()))?;
    if m != args.len() {
        return Err(bad(format!("arity {m} but {} arguments", args.len())));
    }
    let mut expr = Expr::rel(r);
    let mut distinct: Vec<Var> = Vec::new();
    let mut first_cols: Vec<usize> = Vec::new();
    for (pos, v) in args.iter().enumerate() {
        match distinct.iter().position(|w| w == v) {
            Some(d) => expr = expr.select_eq(first_cols[d], pos + 1),
            None => {
                distinct.push(v.clone());
                first_cols.push(pos + 1);
            }
        }
    }
    Ok((expr, distinct, first_cols))
}

fn translate_formula(
    f: &Formula,
    schema: &Schema,
    constants: &[Value],
) -> Result<SaQuery, LogicError> {
    match f {
        Formula::Bool(true) => Ok(SaQuery {
            expr: stored_tuples_expr(schema, 0, constants)?,
            free_vars: vec![],
        }),
        Formula::Bool(false) => {
            let s = stored_tuples_expr(schema, 0, constants)?;
            Ok(SaQuery {
                expr: s.clone().diff(s),
                free_vars: vec![],
            })
        }
        Formula::Eq(x, y) => {
            if x == y {
                Ok(SaQuery {
                    expr: stored_tuples_expr(schema, 1, constants)?,
                    free_vars: vec![x.clone()],
                })
            } else {
                Ok(SaQuery {
                    expr: stored_tuples_expr(schema, 2, constants)?.select_eq(1, 2),
                    free_vars: vec![x.clone(), y.clone()],
                })
            }
        }
        Formula::Lt(x, y) => {
            if x == y {
                // x < x is unsatisfiable.
                let s = stored_tuples_expr(schema, 1, constants)?;
                Ok(SaQuery {
                    expr: s.clone().diff(s),
                    free_vars: vec![x.clone()],
                })
            } else {
                Ok(SaQuery {
                    expr: stored_tuples_expr(schema, 2, constants)?.select_lt(1, 2),
                    free_vars: vec![x.clone(), y.clone()],
                })
            }
        }
        Formula::EqConst(x, c) => Ok(SaQuery {
            expr: stored_tuples_expr(schema, 1, constants)?.select_const(1, c.clone()),
            free_vars: vec![x.clone()],
        }),
        Formula::Rel(r, args) => {
            let (expr, free_vars, cols) = relation_atom(r, args, schema)?;
            Ok(SaQuery {
                expr: expr.project(cols),
                free_vars,
            })
        }
        Formula::Not(g) => {
            let sub = translate_formula(g, schema, constants)?;
            let stored = stored_tuples_expr(schema, sub.free_vars.len(), constants)?;
            Ok(SaQuery {
                expr: stored.diff(sub.expr),
                free_vars: sub.free_vars,
            })
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            let sa = translate_formula(a, schema, constants)?;
            let sb = translate_formula(b, schema, constants)?;
            let mut target = sa.free_vars.clone();
            for v in &sb.free_vars {
                if !target.contains(v) {
                    target.push(v.clone());
                }
            }
            let xa = expand_to(sa.expr, &sa.free_vars, &target, schema, constants)?;
            let xb = expand_to(sb.expr, &sb.free_vars, &target, schema, constants)?;
            let expr = if matches!(f, Formula::And(..)) {
                xa.intersect(xb)
            } else {
                xa.union(xb)
            };
            Ok(SaQuery {
                expr,
                free_vars: target,
            })
        }
        Formula::Implies(..) | Formula::Iff(..) => {
            unreachable!("desugared before translation")
        }
        Formula::Exists {
            vars,
            guard_rel,
            guard_args,
            body,
        } => {
            let (guard, distinct, first_cols) = relation_atom(guard_rel, guard_args, schema)?;
            let col_of = |v: &Var| {
                let d = distinct.iter().position(|w| w == v);
                first_cols[d.expect("guardedness checked: body var occurs in guard")]
            };
            // Filter by the body: semijoin on the body's free variables
            // (all occur in the guard by guardedness).
            let sub = translate_formula(body, schema, constants)?;
            let pairs: Vec<(usize, usize)> = sub.free_vars.iter().map(col_of).zip(1..).collect();
            let filtered = guard.semijoin(Condition::eq_pairs(pairs), sub.expr);
            // Project onto the un-quantified guard variables.
            let free: Vec<Var> = distinct
                .iter()
                .filter(|v| !vars.contains(v))
                .cloned()
                .collect();
            let cols: Vec<usize> = free.iter().map(col_of).collect();
            Ok(SaQuery {
                expr: filtered.project(cols),
                free_vars: free,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// SA= → GF
// ---------------------------------------------------------------------------

/// Fresh-variable supply. Free canonical variables are `v{n}`, bound ones
/// `b{n}` — distinct prefixes guarantee substitution never captures.
struct Fresh {
    n: usize,
}

impl Fresh {
    fn free(&mut self) -> Var {
        self.n += 1;
        format!("v{}", self.n)
    }
    fn bound(&mut self) -> Var {
        self.n += 1;
        format!("b{}", self.n)
    }
    fn frees(&mut self, k: usize) -> Vec<Var> {
        (0..k).map(|_| self.free()).collect()
    }
}

/// A stored relation that holds an expression's output: column `l` of the
/// output tuple is position `map[l]` (0-based) of some tuple of `rel`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Guard {
    rel: String,
    map: Vec<usize>,
}

/// A translated subexpression: its formula, the free variables naming its
/// columns, and guards of which every output tuple fits at least one.
type Translated = (Formula, Vec<Var>, Vec<Guard>);

/// Translate an SA= expression into an equivalent GF formula (Theorem 8,
/// first statement): `{d̄ | D ⊨ φ_E(d̄)} = E(D)` for every database `D`.
///
/// Handles the constant-free SA= fragment plus `σᵢ₌c` selections (which
/// become `x = c` atoms); rejects `τ_c` (constant-tagging), joins, and
/// grouping with [`LogicError::UnsupportedExpression`].
pub fn sa_to_gf(e: &Expr, schema: &Schema) -> Result<GfQuery, LogicError> {
    e.arity(schema)?;
    let mut fresh = Fresh { n: 0 };
    let (formula, free_vars, _) = translate_expr(e, schema, &mut fresh)?;
    debug_assert!(formula.check_guarded().is_ok());
    Ok(GfQuery { formula, free_vars })
}

fn rename(f: &Formula, from: &[Var], to: &[Var]) -> Formula {
    let map: BTreeMap<Var, Var> = from.iter().cloned().zip(to.iter().cloned()).collect();
    f.rename_free(&map)
}

/// The guards in order, each once.
fn distinct_guards(guards: impl IntoIterator<Item = Guard>) -> Vec<Guard> {
    let mut out: Vec<Guard> = Vec::new();
    for g in guards {
        if !out.contains(&g) {
            out.push(g);
        }
    }
    out
}

fn translate_expr(e: &Expr, schema: &Schema, fresh: &mut Fresh) -> Result<Translated, LogicError> {
    match e {
        Expr::Rel(r) => {
            let k = schema.arity_of(r).expect("validated");
            let vars = fresh.frees(k);
            let guard = Guard {
                rel: r.clone(),
                map: (0..k).collect(),
            };
            Ok((Formula::Rel(r.clone(), vars.clone()), vars, vec![guard]))
        }
        Expr::Union(a, b) => {
            let (fa, va, ga) = translate_expr(a, schema, fresh)?;
            let (fb, vb, gb) = translate_expr(b, schema, fresh)?;
            Ok((
                fa.or(rename(&fb, &vb, &va)),
                va,
                distinct_guards(ga.into_iter().chain(gb)),
            ))
        }
        Expr::Diff(a, b) => {
            let (fa, va, ga) = translate_expr(a, schema, fresh)?;
            let (fb, vb, _) = translate_expr(b, schema, fresh)?;
            Ok((fa.and(rename(&fb, &vb, &va).not()), va, ga))
        }
        Expr::Select(sel, a) => {
            let (fa, va, ga) = translate_expr(a, schema, fresh)?;
            let atom = match sel {
                Selection::Eq(i, j) => Formula::Eq(va[i - 1].clone(), va[j - 1].clone()),
                Selection::Lt(i, j) => Formula::Lt(va[i - 1].clone(), va[j - 1].clone()),
                Selection::EqConst(i, c) => Formula::EqConst(va[i - 1].clone(), c.clone()),
            };
            Ok((fa.and(atom), va, ga))
        }
        Expr::Project(cols, a) => {
            let (fa, va, ga) = translate_expr(a, schema, fresh)?;
            let guards = distinct_guards(ga.iter().map(|g| Guard {
                rel: g.rel.clone(),
                map: cols.iter().map(|&c| g.map[c - 1]).collect(),
            }));
            if va.is_empty() {
                // cols is necessarily empty.
                return Ok((fa, vec![], guards));
            }
            // The output tuple is a projection of some tuple of `a`, which
            // sits inside a stored tuple of one of `a`'s guards.
            let out_vars = fresh.frees(cols.len());
            let claims: Vec<(Var, usize)> = out_vars
                .iter()
                .cloned()
                .zip(cols.iter().map(|&c| c - 1))
                .collect();
            let cases: Vec<Formula> = ga
                .iter()
                .map(|g| guarded_case(&claims, g, schema, &fa, &va, fresh))
                .collect();
            Ok((Formula::or_all(cases), out_vars, guards))
        }
        Expr::Semijoin(theta, a, b) => {
            if !theta.is_equi() {
                return Err(LogicError::UnsupportedExpression(
                    "sa_to_gf requires equality-only semijoin conditions (SA=)".into(),
                ));
            }
            let (fa, va, ga) = translate_expr(a, schema, fresh)?;
            let (fb, vb, gb) = translate_expr(b, schema, fresh)?;
            if vb.is_empty() {
                // Right side is nullary: the semijoin keeps the left side
                // iff the right side is the nonempty nullary relation,
                // i.e. iff φ_b (a sentence) holds.
                return Ok((fa.and(fb), va, ga));
            }
            // The witness sits inside a stored tuple of one of `b`'s
            // guards; θ reads its constrained columns off the left tuple.
            let claims: Vec<(Var, usize)> = theta
                .atoms()
                .iter()
                .map(|t| (va[t.left - 1].clone(), t.right - 1))
                .collect();
            let cases: Vec<Formula> = gb
                .iter()
                .map(|g| guarded_case(&claims, g, schema, &fb, &vb, fresh))
                .collect();
            Ok((fa.and(Formula::or_all(cases)), va, ga))
        }
        Expr::ConstTag(..) => Err(LogicError::UnsupportedExpression(
            "sa_to_gf does not handle constant-tagging (τ_c); the cited \
             construction covers the constant-free fragment"
                .into(),
        )),
        Expr::Join(..) => Err(LogicError::UnsupportedExpression(
            "sa_to_gf translates the semijoin algebra; lower joins first".into(),
        )),
        Expr::GroupCount(..) => Err(LogicError::UnsupportedExpression(
            "grouping/aggregation is outside first-order logic".into(),
        )),
    }
}

/// `⋀ equalities ∧ ∃ȳ (R(ū) ∧ φ[vₗ ↦ u_{g(l)}])` for one guard `(R, g)` of
/// the subexpression `φ(v̄)`. A claim `(x, l)` puts the variable `x` at
/// position `g(l)` of `R`; a later claim on a position held by another
/// variable adds an equality instead. The unclaimed positions are the
/// fresh quantified variables `ȳ`; when every position is claimed, the
/// case is `R(ū) ∧ φ[…]`, since `∃` needs a variable to bind.
fn guarded_case(
    claims: &[(Var, usize)],
    guard: &Guard,
    schema: &Schema,
    body: &Formula,
    body_vars: &[Var],
    fresh: &mut Fresh,
) -> Formula {
    let m = schema.arity_of(&guard.rel).expect("validated");
    let mut slots: Vec<Option<Var>> = vec![None; m];
    let mut equalities: Vec<Formula> = Vec::new();
    for (x, l) in claims {
        match &slots[guard.map[*l]] {
            None => slots[guard.map[*l]] = Some(x.clone()),
            Some(u) if u != x => equalities.push(Formula::Eq(x.clone(), u.clone())),
            Some(_) => {}
        }
    }
    let mut quantified: Vec<Var> = Vec::new();
    let guard_args: Vec<Var> = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                let y = fresh.bound();
                quantified.push(y.clone());
                y
            })
        })
        .collect();
    let on_guard: Vec<Var> = guard.map.iter().map(|&p| guard_args[p].clone()).collect();
    let body = rename(body, body_vars, &on_guard);
    let case = if quantified.is_empty() {
        Formula::Rel(guard.rel.clone(), guard_args).and(body)
    } else {
        Formula::Exists {
            vars: quantified,
            guard_rel: guard.rel.clone(),
            guard_args,
            body: Box::new(body),
        }
    };
    Formula::and_all(equalities.into_iter().chain([case]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::example7_lousy_bar;
    use crate::parse::{parse_formula, to_ascii};
    use crate::semantics::eval_query;
    use crate::stored::{all_c_stored_tuples, is_c_stored};
    use sj_eval::evaluate;
    use sj_storage::{Database, Relation, Tuple};

    fn beer_schema() -> Schema {
        Schema::new([("Likes", 2), ("Serves", 2), ("Visits", 2)])
    }

    fn beer_db() -> Database {
        let mut db = Database::new();
        db.set(
            "Visits",
            Relation::from_str_rows(&[
                &["an", "bad bar"],
                &["bob", "good bar"],
                &["eve", "bad bar"],
            ]),
        );
        db.set(
            "Serves",
            Relation::from_str_rows(&[
                &["bad bar", "swill"],
                &["good bar", "nectar"],
                &["good bar", "swill"],
            ]),
        );
        db.set("Likes", Relation::from_str_rows(&[&["bob", "nectar"]]));
        db
    }

    /// Candidates for `{d̄ | D ⊨ φ(d̄)}`: the active domain plus sentinels
    /// outside it, to catch formulas that wrongly hold off-domain.
    fn candidates(db: &Database) -> Vec<Value> {
        let mut v = db.active_domain();
        v.push(Value::str("zzz-sentinel"));
        v.push(Value::int(-99_999));
        v
    }

    #[test]
    fn stored_tuples_expr_computes_c_stored_set() {
        let db = beer_db();
        let schema = beer_schema();
        for k in 0..=2 {
            for consts in [vec![], vec![Value::str("swill")]] {
                let e = stored_tuples_expr(&schema, k, &consts).unwrap();
                assert!(e.is_sa_eq(), "stored expr must be SA=");
                let got = evaluate(&e, &db).unwrap();
                let want = all_c_stored_tuples(&db, k, &consts);
                assert_eq!(got.tuples().to_vec(), want, "k={k}, C={consts:?}");
            }
        }
    }

    #[test]
    fn stored_tuples_expr_empty_schema_errors() {
        assert!(matches!(
            stored_tuples_expr(&Schema::empty(), 1, &[]),
            Err(LogicError::EmptySchema)
        ));
    }

    #[test]
    fn gf_to_sa_example7_equals_sa_example3() {
        let db = beer_db();
        let schema = beer_schema();
        let phi = example7_lousy_bar();
        let translated = gf_to_sa(&phi, &schema, &[]).unwrap();
        assert!(translated.expr.is_sa_eq());
        let via_gf = evaluate(&translated.expr, &db).unwrap();
        let direct = evaluate(&sj_algebra::division::example3_lousy_bar_sa(), &db).unwrap();
        assert_eq!(via_gf, direct);
        // an and eve visit the bad bar, which serves only swill (unliked).
        assert_eq!(direct, Relation::from_str_rows(&[&["an"], &["eve"]]));
    }

    #[test]
    fn gf_to_sa_matches_c_stored_semantics() {
        let db = beer_db();
        let schema = beer_schema();
        let x = || "x".to_string();
        let y = || "y".to_string();
        let formulas: Vec<Formula> = vec![
            Formula::Rel("Likes".into(), vec![x(), y()]),
            Formula::Rel("Likes".into(), vec![x(), x()]),
            Formula::Eq(x(), y()),
            Formula::Lt(x(), y()),
            Formula::EqConst(x(), Value::str("swill")),
            Formula::Rel("Serves".into(), vec![x(), y()]).not(),
            Formula::Rel("Serves".into(), vec![x(), y()])
                .and(Formula::Rel("Visits".into(), vec![y(), x()]).not()),
            Formula::Rel("Serves".into(), vec![x(), y()]).or(Formula::Likes_xy()),
            example7_lousy_bar(),
            Formula::exists(["w"], "Likes", ["w", "z"], Formula::Bool(true)),
            Formula::Rel("Visits".into(), vec![x(), y()])
                .implies(Formula::Rel("Serves".into(), vec![y(), x()])),
            Formula::Eq(x(), y()).iff(Formula::Lt(x(), y())),
        ];
        for phi in formulas {
            let consts = phi.constants();
            let q = gf_to_sa(&phi, &schema, &consts).unwrap();
            assert!(q.expr.is_sa(), "{phi}");
            let got = evaluate(&q.expr, &db).unwrap();
            // Expected: C-stored tuples satisfying φ.
            let sat = eval_query(&db, &phi, &q.free_vars, &candidates(&db));
            let want: Vec<Tuple> = sat
                .into_iter()
                .filter(|t| is_c_stored(&db, t, &consts))
                .collect();
            assert_eq!(got.tuples().to_vec(), want, "φ = {phi}");
        }
    }

    // Small helper used in the list above to keep it terse.
    impl Formula {
        #[allow(non_snake_case)]
        fn Likes_xy() -> Formula {
            Formula::Rel("Likes".into(), vec!["x".into(), "y".into()])
        }
    }

    #[test]
    fn sa_to_gf_example3_matches() {
        let db = beer_db();
        let schema = beer_schema();
        let e = sj_algebra::division::example3_lousy_bar_sa();
        let q = sa_to_gf(&e, &schema).unwrap();
        assert!(q.formula.check_guarded().is_ok());
        let want = evaluate(&e, &db).unwrap();
        let got = eval_query(&db, &q.formula, &q.free_vars, &candidates(&db));
        assert_eq!(got, want.tuples().to_vec());
    }

    #[test]
    fn sa_to_gf_handles_each_operator() {
        let db = beer_db();
        let schema = beer_schema();
        let exprs: Vec<Expr> = vec![
            Expr::rel("Likes"),
            Expr::rel("Likes").union(Expr::rel("Serves")),
            Expr::rel("Likes").diff(Expr::rel("Serves")),
            Expr::rel("Likes").project([2]),
            // Claims every position of its guard: nothing to quantify.
            Expr::rel("Likes").project([2, 1]),
            Expr::rel("Likes").project([1, 1, 2]),
            Expr::rel("Likes").project(Vec::<usize>::new()),
            Expr::rel("Likes").select_eq(1, 2),
            Expr::rel("Likes").select_lt(1, 2),
            Expr::rel("Likes").select_const(2, Value::str("nectar")),
            Expr::rel("Visits").semijoin(Condition::eq(2, 1), Expr::rel("Serves")),
            Expr::rel("Visits").semijoin(Condition::always(), Expr::rel("Likes")),
            Expr::rel("Visits")
                .semijoin(Condition::eq_pairs([(2, 1), (2, 1)]), Expr::rel("Serves")),
            Expr::rel("Visits").semijoin(
                Condition::eq_pairs([(1, 1), (2, 2)]),
                Expr::rel("Likes").union(Expr::rel("Serves")),
            ),
            Expr::rel("Serves").project([1]).diff(
                Expr::rel("Serves")
                    .semijoin(Condition::eq(2, 2), Expr::rel("Likes"))
                    .project([1]),
            ),
            // A chain of three semijoins: each witness is guarded by the
            // relation its own subexpression reads.
            (0..3)
                .fold(Expr::rel("Serves"), |inner, _| {
                    Expr::rel("Visits").semijoin(Condition::eq(2, 1), inner)
                })
                .project([1]),
            // A union under a projection carries both sides' guards.
            Expr::rel("Likes")
                .union(Expr::rel("Serves"))
                .project([1])
                .semijoin(
                    Condition::eq(1, 2),
                    Expr::rel("Visits").union(Expr::rel("Likes").project([2, 1])),
                ),
        ];
        for e in exprs {
            let q = sa_to_gf(&e, &schema).unwrap();
            assert!(q.formula.check_guarded().is_ok(), "{e}");
            let text = to_ascii(&q.formula);
            assert_eq!(parse_formula(&text), Ok(q.formula.clone()), "{e}: {text}");
            let want = evaluate(&e, &db).unwrap();
            let got = eval_query(&db, &q.formula, &q.free_vars, &candidates(&db));
            assert_eq!(got, want.tuples().to_vec(), "E = {e}");
        }
    }

    #[test]
    fn sa_to_gf_rejects_unsupported() {
        let schema = beer_schema();
        assert!(matches!(
            sa_to_gf(&Expr::rel("Likes").tag(Value::int(1)), &schema),
            Err(LogicError::UnsupportedExpression(_))
        ));
        assert!(matches!(
            sa_to_gf(
                &Expr::rel("Likes").join(Condition::eq(1, 1), Expr::rel("Serves")),
                &schema
            ),
            Err(LogicError::UnsupportedExpression(_))
        ));
        assert!(matches!(
            sa_to_gf(&Expr::rel("Likes").group_count([1]), &schema),
            Err(LogicError::UnsupportedExpression(_))
        ));
        assert!(matches!(
            sa_to_gf(
                &Expr::rel("Likes").semijoin(Condition::lt(1, 1), Expr::rel("Serves")),
                &schema
            ),
            Err(LogicError::UnsupportedExpression(_))
        ));
    }

    #[test]
    fn gf_to_sa_rejects_unguarded_and_missing_constants() {
        let schema = beer_schema();
        let bad = Formula::exists(
            ["y"],
            "Likes",
            ["x", "y"],
            Formula::Eq("x".into(), "z".into()),
        );
        assert!(matches!(
            gf_to_sa(&bad, &schema, &[]),
            Err(LogicError::Unguarded(_))
        ));
        let with_const = Formula::EqConst("x".into(), Value::int(5));
        assert!(matches!(
            gf_to_sa(&with_const, &schema, &[]),
            Err(LogicError::UnsupportedExpression(_))
        ));
    }

    #[test]
    fn full_roundtrip_sa_gf_sa() {
        // E → φ_E → E': E'(D) must equal E(D) because SA= outputs are
        // ∅-stored (Theorem 8 applied twice).
        let db = beer_db();
        let schema = beer_schema();
        let e = sj_algebra::division::example3_lousy_bar_sa();
        let q = sa_to_gf(&e, &schema).unwrap();
        let back = gf_to_sa(&q.formula, &schema, &[]).unwrap();
        let original = evaluate(&e, &db).unwrap();
        let roundtripped = evaluate(&back.expr, &db).unwrap();
        assert_eq!(original, roundtripped);
    }
}
