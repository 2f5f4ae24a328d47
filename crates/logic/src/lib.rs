//! # sj-logic — the guarded fragment and the Theorem 8 translations
//!
//! The paper's lower-bound technique runs through first-order logic: the
//! semijoin algebra SA= corresponds to the **guarded fragment** GF
//! (Theorem 8), and GF is invariant under guarded bisimulation
//! (Proposition 13). This crate supplies the logic side:
//!
//! * [`formula`] — GF syntax (Definition 6), free variables, guardedness
//!   checking, renaming.
//! * [`semantics`] — satisfaction `D ⊨ φ(d̄)` and query-style evaluation.
//! * [`stored`] — C-stored tuples (Definition 4), predicate and enumerator.
//! * [`translate`] — both directions of Theorem 8:
//!   [`translate::gf_to_sa`] (full GF with constants → SA=, relative to
//!   C-stored answers) and [`translate::sa_to_gf`] (constant-tagging-free
//!   SA= → GF). `sa_to_gf` guards each projection and semijoin witness
//!   by the stored relations the subexpression itself reads, so the
//!   formula grows linearly in the expression; `gf_to_sa` ranges over all
//!   C-stored tuples where the formula names no guard (the atoms `true`,
//!   `false`, `x = y`, `x < y` and `x = c`, negation, and the widening of
//!   `∧`/`∨` operands to their joint variables).

pub mod distinguish;
pub mod error;
pub mod formula;
pub mod parse;
pub mod semantics;
pub mod stored;
pub mod translate;

pub use distinguish::distinguishing_formula;
pub use error::LogicError;
pub use formula::{Formula, Var};
pub use parse::{parse_formula, to_ascii};
pub use semantics::{eval_query, satisfies, Assignment};
pub use stored::{all_c_stored_tuples, is_c_stored};
pub use translate::{gf_to_sa, sa_to_gf, stored_tuples_expr, GfQuery, SaQuery};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sj_algebra::{Condition, Expr};
    use sj_eval::evaluate;
    use sj_storage::{Database, Relation, Schema, Tuple, Value};

    fn schema() -> Schema {
        Schema::new([("R", 2), ("S", 2), ("T", 1)])
    }

    fn arb_relation(arity: usize) -> impl Strategy<Value = Relation> {
        proptest::collection::vec(proptest::collection::vec(0i64..5, arity), 0..8).prop_map(
            move |rows| {
                Relation::from_tuples(arity, rows.into_iter().map(|r| Tuple::from_ints(&r)))
                    .unwrap()
            },
        )
    }

    fn arb_db() -> impl Strategy<Value = Database> {
        (arb_relation(2), arb_relation(2), arb_relation(1)).prop_map(|(r, s, t)| {
            let mut db = Database::new();
            db.set("R", r);
            db.set("S", s);
            db.set("T", t);
            db
        })
    }

    /// Random constant-free SA= expressions of arity ≤ 2 over the schema.
    /// Shapes chosen to exercise projection and semijoin (the nontrivial
    /// translation cases) while keeping arity manageable.
    fn arb_sa_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            Just(Expr::rel("R")),
            Just(Expr::rel("S")),
            Just(Expr::rel("T").project([1, 1])),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
                inner.clone().prop_map(|a| a.select_eq(1, 2)),
                inner.clone().prop_map(|a| a.select_lt(2, 1)),
                inner.clone().prop_map(|a| a.project([2, 1])),
                inner.clone().prop_map(|a| a.project([1, 1])),
                (inner.clone(), inner.clone(), 0u8..3).prop_map(|(a, b, w)| {
                    let cond = match w {
                        0 => Condition::eq(1, 1),
                        1 => Condition::eq(2, 1),
                        _ => Condition::eq_pairs([(1, 1), (2, 2)]),
                    };
                    a.semijoin(cond, b)
                }),
            ]
        })
    }

    fn candidates(db: &Database) -> Vec<Value> {
        let mut v = db.active_domain();
        v.push(Value::int(-7)); // sentinel outside every generated domain
        v
    }

    /// Strings of up to `max` letters, spaces and the bytes either
    /// grammar gives a meaning to, the quote among them.
    fn arb_string(max: usize) -> impl Strategy<Value = String> {
        let alphabet = "abz '{}[](),=<".chars().collect();
        proptest::collection::vec(proptest::sample::select(alphabet), 0..=max)
            .prop_map(String::from_iter)
    }

    /// Arbitrary (syntactically valid, not necessarily guarded) formulas
    /// for the parser round-trip.
    fn arb_formula() -> impl Strategy<Value = Formula> {
        let var = proptest::sample::select(vec!["x", "y", "z", "w"]);
        let leaf = prop_oneof![
            Just(Formula::Bool(true)),
            Just(Formula::Bool(false)),
            (var.clone(), var.clone()).prop_map(|(a, b)| Formula::Eq(a.into(), b.into())),
            (var.clone(), var.clone()).prop_map(|(a, b)| Formula::Lt(a.into(), b.into())),
            (var.clone(), any::<i64>())
                .prop_map(|(a, c)| Formula::EqConst(a.into(), Value::int(c))),
            (var.clone(), arb_string(6))
                .prop_map(|(a, s)| Formula::EqConst(a.into(), Value::str(s))),
            (var.clone(), var.clone())
                .prop_map(|(a, b)| Formula::Rel("R".into(), vec![a.into(), b.into()])),
        ];
        leaf.prop_recursive(4, 24, 2, move |inner| {
            let var2 = proptest::sample::select(vec!["x", "y", "z", "w"]);
            prop_oneof![
                inner.clone().prop_map(Formula::not),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.iff(b)),
                (var2.clone(), var2, inner).prop_map(|(u, v, body)| {
                    Formula::Exists {
                        vars: vec![u.into()],
                        guard_rel: "R".into(),
                        guard_args: vec![u.into(), v.into()],
                        body: Box::new(body),
                    }
                }),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// parse_formula(to_ascii(f)) == f for arbitrary formulas.
        #[test]
        fn formula_parse_print_roundtrip(f in arb_formula()) {
            let text = to_ascii(&f);
            let parsed = parse_formula(&text)
                .map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
            prop_assert_eq!(parsed, f, "text: {}", text);
        }

        /// Theorem 8, direction 1: {d̄ | D ⊨ φ_E(d̄)} = E(D).
        #[test]
        fn sa_to_gf_preserves_semantics(e in arb_sa_expr(), db in arb_db()) {
            let q = sa_to_gf(&e, &schema()).unwrap();
            prop_assert!(q.formula.check_guarded().is_ok());
            prop_assert_eq!(parse_formula(&to_ascii(&q.formula)), Ok(q.formula.clone()));
            let want = evaluate(&e, &db).unwrap();
            let got = eval_query(&db, &q.formula, &q.free_vars, &candidates(&db));
            prop_assert_eq!(got, want.tuples().to_vec());
        }

        /// Theorem 8 applied both ways: E → φ_E → E' with E'(D) = E(D)
        /// (SA= outputs are ∅-stored, so the C-stored restriction of the
        /// reverse direction is invisible).
        #[test]
        fn roundtrip_sa_gf_sa(e in arb_sa_expr(), db in arb_db()) {
            let q = sa_to_gf(&e, &schema()).unwrap();
            let back = gf_to_sa(&q.formula, &schema(), &[]).unwrap();
            prop_assert!(back.expr.is_sa());
            // gf_to_sa orders columns by its own free-variable traversal —
            // a permutation of sa_to_gf's column order; align them.
            let cols: Vec<usize> = q.free_vars.iter().map(|v| {
                back.free_vars.iter().position(|w| w == v).unwrap() + 1
            }).collect();
            let aligned = back.expr.project(cols);
            let original = evaluate(&e, &db).unwrap();
            let round = evaluate(&aligned, &db).unwrap();
            prop_assert_eq!(original, round);
        }

        /// The stored-tuples expression enumerates exactly the C-stored
        /// tuples, for arities 0..2.
        #[test]
        fn stored_expr_correct(db in arb_db(), k in 0usize..3) {
            let e = stored_tuples_expr(&schema(), k, &[]).unwrap();
            let got = evaluate(&e, &db).unwrap();
            let want = all_c_stored_tuples(&db, k, &[]);
            prop_assert_eq!(got.tuples().to_vec(), want);
        }
    }
}
