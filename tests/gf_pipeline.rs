//! End-to-end guarded-fragment pipeline: GF text → parse → guardedness
//! check → Theorem 8 translation → optimizer → evaluation, cross-checked
//! against direct model-theoretic semantics.

use setjoins::prelude::*;
use sj_eval::evaluate;
use sj_logic::{eval_query, gf_to_sa, parse_formula, sa_to_gf, to_ascii};
use sj_workload::figures;

#[test]
fn gf_text_to_answers() {
    let db = figures::example3_beer_db();
    let schema = db.schema();
    // The lousy-bar query, arriving as text.
    let text = "exists y (Visits(x,y) & !(exists z (Serves(y,z) & \
                exists w (Likes(w,z) & true))))";
    let phi = parse_formula(text).unwrap();
    phi.check_guarded().unwrap();

    // Translate to SA=, optimize, evaluate.
    let q = gf_to_sa(&phi, &schema, &[]).unwrap();
    let optimized = sj_algebra::optimize(&q.expr, &schema).unwrap();
    let via_algebra = evaluate(&optimized, &db).unwrap();

    // Direct semantics.
    let direct = eval_query(&db, &phi, &q.free_vars, &db.active_domain());
    assert_eq!(via_algebra.tuples().to_vec(), direct);
    assert_eq!(via_algebra, Relation::from_str_rows(&[&["an"], &["eve"]]));
}

#[test]
fn sa_to_gf_to_text_and_back() {
    // SA= → GF → ASCII → parse: the formula survives the text round trip
    // and still answers the original query.
    let db = figures::example3_beer_db();
    let schema = db.schema();
    let e = sj_algebra::division::example3_lousy_bar_sa();
    let gf = sa_to_gf(&e, &schema).unwrap();
    let text = to_ascii(&gf.formula);
    let reparsed = parse_formula(&text).unwrap();
    assert_eq!(reparsed, gf.formula);
    let answers = eval_query(&db, &reparsed, &gf.free_vars, &db.active_domain());
    assert_eq!(answers, evaluate(&e, &db).unwrap().tuples().to_vec());
}

#[test]
fn gf_with_constants_pipeline() {
    // A formula with a constant: drinkers of 'nectar' specifically.
    let db = figures::example3_beer_db();
    let schema = db.schema();
    let phi = parse_formula("exists y (Likes(x,y) & y='nectar')").unwrap();
    phi.check_guarded().unwrap();
    let consts = phi.constants();
    assert_eq!(consts, vec![Value::str("nectar")]);
    let q = gf_to_sa(&phi, &schema, &consts).unwrap();
    let out = evaluate(&q.expr, &db).unwrap();
    assert_eq!(out, Relation::from_str_rows(&[&["bob"]]));
}

#[test]
fn unguarded_text_rejected() {
    // Syntactically fine, semantically unguarded: z free in the body but
    // not in the guard.
    let phi = parse_formula("exists y (Visits(x,y) & y=z)").unwrap();
    assert!(phi.check_guarded().is_err());
    let schema = figures::example3_beer_db().schema();
    assert!(gf_to_sa(&phi, &schema, &[]).is_err());
}

#[test]
fn boolean_connectives_through_translation() {
    // Implication and biconditional survive the desugaring translation.
    let db = figures::example3_beer_db();
    let schema = db.schema();
    for text in [
        "Likes(x,y) -> Serves(y,x)",
        "Likes(x,y) <-> Likes(x,y)",
        "!(Likes(x,y)) | Likes(x,y)",
    ] {
        let phi = parse_formula(text).unwrap();
        let consts = phi.constants();
        let q = gf_to_sa(&phi, &schema, &consts).unwrap();
        let got = evaluate(&q.expr, &db).unwrap();
        // Expected: C-stored tuples satisfying the formula.
        let mut cands = db.active_domain();
        cands.push(Value::str("zz-outside"));
        let sat = eval_query(&db, &phi, &q.free_vars, &cands);
        let want: Vec<Tuple> = sat
            .into_iter()
            .filter(|t| sj_logic::is_c_stored(&db, t, &consts))
            .collect();
        assert_eq!(got.tuples().to_vec(), want, "{text}");
    }
}

#[test]
fn semijoin_chain_formula_grows_linearly() {
    // π₁(R ⋉₂₌₁ (R ⋉₂₌₁ … (R ⋉₂₌₁ S))) with k semijoins. Each witness is
    // guarded by the relation its own subexpression reads, so every
    // semijoin adds a bounded amount of text.
    let schema = Schema::new([("R", 2), ("S", 2)]);
    let db = sj_workload::random_database(11, 12, 5);
    let mut candidates = db.active_domain();
    candidates.push(Value::int(-1));
    let mut inner = Expr::rel("S");
    for k in 1..=8 {
        inner = Expr::rel("R").semijoin(Condition::eq(2, 1), inner);
        let e = inner.clone().project([1]);
        let gf = sa_to_gf(&e, &schema).unwrap();
        gf.formula.check_guarded().unwrap();
        let text = to_ascii(&gf.formula);
        assert_eq!(parse_formula(&text).unwrap(), gf.formula, "k = {k}");
        let want = evaluate(&e, &db).unwrap().tuples().to_vec();
        assert!(!want.is_empty(), "k = {k}: the database answers nothing");
        assert_eq!(
            eval_query(&db, &gf.formula, &gf.free_vars, &candidates),
            want,
            "k = {k}"
        );
        assert!(text.len() <= 64 * k + 64, "k = {k}: {} bytes", text.len());
    }
}
