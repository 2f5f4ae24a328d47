//! The rewrite pin: what every `Expr → Expr` pass makes of a fixed corpus.
//!
//! The corpus is the 16 queries of `ServingWorkload::default()
//! .query_pool()` plus the `serve-churn` canary `σ[2<1](R)` (over
//! `ServingWorkload::default().database()`), the `sj_algebra::division`
//! idioms (over the serving database, Example 3's beer database, or a
//! seeded `random_database` for the set-join plans), and 240 seeded
//! random expressions over `{R/2, S/2, T/1}` (over `random_database(7,
//! 40, 8)`), a few of them ill-formed on purpose. For each expression
//! the test writes one line per pass — the output text, or the error —
//! and compares the whole text with `tests/rewrites.txt`:
//!
//! * `full`: `OptimizeLevel::Full.run`;
//! * `j2sj`, `push`, `prune`: the three optimizer passes alone;
//! * `desugar`: `Expr::desugared`;
//! * `sa_eq`: the Theorem 18 rewriter `sj_core::to_sa_eq`;
//! * `sj2j`: `semijoins_to_joins_checked`;
//! * `reorder`: `joinorder::reorder` with statistics from a
//!   `StatsCatalog` over the expression's database (`-` when it keeps
//!   the written order).
//!
//! A change meant to move no rewrite must leave it passing unchanged; on
//! failure the test prints the new text.

use setjoins::algebra::division;
use setjoins::algebra::optimize::{joins_to_semijoins, prune_projections, push_down_selections};
use setjoins::algebra::transform::semijoins_to_joins_checked;
use setjoins::algebra::{CompOp, Selection};
use setjoins::core::to_sa_eq;
use setjoins::eval::joinorder;
use setjoins::prelude::*;
use setjoins::stats::CatalogSource;
use sj_workload::{random_database, ServingWorkload, SplitMix64};
use std::fmt::{Display, Write};

/// `Ok` output as text, or the error.
fn shown<T: Display, E: Display>(r: Result<T, E>) -> String {
    match r {
        Ok(v) => v.to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// A random expression over `R/2, S/2, T/1` with its intended arity.
/// About one column reference in a hundred is out of range, so the error
/// paths of each pass are pinned too.
fn random_expr(rng: &mut SplitMix64, depth: u32) -> (Expr, usize) {
    let col = |rng: &mut SplitMix64, n: usize| -> usize {
        if n == 0 || rng.chance(0.01) {
            n + 1
        } else {
            rng.range_i64(1, n as i64) as usize
        }
    };
    let cols = |rng: &mut SplitMix64, n: usize, max: u64| -> Vec<usize> {
        (0..rng.below(max + 1)).map(|_| col(rng, n)).collect()
    };
    let theta = |rng: &mut SplitMix64, na: usize, nb: usize| -> Condition {
        let mut c = Condition::always();
        for _ in 0..rng.below(3) {
            let op = [CompOp::Eq, CompOp::Eq, CompOp::Neq, CompOp::Lt, CompOp::Gt]
                [rng.below(5) as usize];
            c = c.and(col(rng, na), op, col(rng, nb));
        }
        c
    };
    if depth == 0 || rng.chance(0.25) {
        return [
            (Expr::rel("R"), 2),
            (Expr::rel("S"), 2),
            (Expr::rel("T"), 1),
        ][rng.below(3) as usize]
            .clone();
    }
    let (a, na) = random_expr(rng, depth - 1);
    match rng.below(11) {
        kind @ (0 | 1) => {
            let (b, nb) = random_expr(rng, depth - 1);
            // Match the right side's arity to the left's.
            let b = if nb == na {
                b
            } else {
                b.project((0..na).map(|_| col(rng, nb)))
            };
            (if kind == 0 { a.union(b) } else { a.diff(b) }, na)
        }
        2 => {
            let cs = cols(rng, na, 3);
            let n = cs.len();
            (a.project(cs), n)
        }
        3 => {
            let sel = match rng.below(3) {
                0 => Selection::Eq(col(rng, na), col(rng, na)),
                1 => Selection::Lt(col(rng, na), col(rng, na)),
                _ => Selection::EqConst(col(rng, na), Value::int(rng.range_i64(1, 8))),
            };
            (Expr::Select(sel, Box::new(a)), na)
        }
        4 => {
            let c = if rng.chance(0.5) {
                Value::int(rng.range_i64(1, 8))
            } else {
                Value::str("k")
            };
            (a.tag(c), na + 1)
        }
        5 | 6 => {
            let (b, nb) = random_expr(rng, depth - 1);
            let t = theta(rng, na, nb);
            (a.join(t, b), na + nb)
        }
        7 => {
            // A join under a projection: semijoin reduction's shape when
            // every kept column is a left one.
            let (b, nb) = random_expr(rng, depth - 1);
            let t = theta(rng, na, nb);
            let keep = if rng.chance(0.75) { na } else { na + nb };
            let cs = cols(rng, keep, 2);
            let n = cs.len();
            (a.join(t, b).project(cs), n)
        }
        8 => {
            let (b, nb) = random_expr(rng, depth - 1);
            let t = theta(rng, na, nb);
            (a.semijoin(t, b), na)
        }
        9 => {
            let cs = cols(rng, na, 2);
            let n = cs.len() + 1;
            (a.group_count(cs), n)
        }
        _ => {
            // A selection over a binary operator: pushdown's shape.
            let (b, nb) = random_expr(rng, depth - 1);
            let (e, n) = match rng.below(3) {
                0 => (a.join(theta(rng, na, nb), b), na + nb),
                1 => (a.semijoin(theta(rng, na, nb), b), na),
                _ => (a.clone().union(a), na),
            };
            let (i, j) = (col(rng, n), col(rng, n));
            (e.select_eq(i, j), n)
        }
    }
}

/// `(name, expression, database)` for every expression of the corpus.
fn corpus() -> Vec<(String, Expr, Database)> {
    let serving = ServingWorkload::default().database();
    let mut out: Vec<(String, Expr, Database)> = Vec::new();
    let mut pool = ServingWorkload::default().query_pool();
    pool.push(Expr::rel("R").select_lt(2, 1));
    for (i, e) in pool.into_iter().enumerate() {
        out.push((format!("q{i}"), e, serving.clone()));
    }
    let idioms: [(&str, Expr); 5] = [
        (
            "division_double_difference",
            division::division_double_difference("R", "S"),
        ),
        ("division_via_join", division::division_via_join("R", "S")),
        ("division_equality", division::division_equality("R", "S")),
        ("division_counting", division::division_counting("R", "S")),
        (
            "division_equality_counting",
            division::division_equality_counting("R", "S"),
        ),
    ];
    for (name, e) in idioms {
        out.push((name.to_string(), e, serving.clone()));
    }
    let set_joins = random_database(3, 30, 6);
    out.push((
        "set_containment_join_plan".into(),
        division::set_containment_join_plan("R", "S"),
        set_joins.clone(),
    ));
    out.push((
        "set_equality_join_plan".into(),
        division::set_equality_join_plan("R", "S"),
        set_joins,
    ));
    let beer = sj_workload::figures::example3_beer_db();
    for (name, e) in [
        ("example3_lousy_bar_sa", division::example3_lousy_bar_sa()),
        ("example3_lousy_bar_ra", division::example3_lousy_bar_ra()),
        ("cyclic_beer_query_ra", division::cyclic_beer_query_ra()),
    ] {
        out.push((name.to_string(), e, beer.clone()));
    }
    let random = random_database(7, 40, 8);
    let mut rng = SplitMix64::new(47);
    for i in 0..240 {
        let (e, _) = random_expr(&mut rng, 4);
        out.push((format!("r{i}"), e, random.clone()));
    }
    out
}

/// One line per pass for every expression of the corpus.
fn rewrites() -> String {
    let mut out = String::new();
    for (name, e, db) in corpus() {
        let schema = db.schema();
        let catalog = StatsCatalog::new();
        let source = CatalogSource::new(&catalog, &db);
        let reordered = match e.arity(&schema) {
            Ok(_) => joinorder::reorder(&e, &schema, &source).map_or("-".into(), |r| r.to_string()),
            Err(err) => format!("error: {err}"),
        };
        writeln!(out, "{name}: {e}").unwrap();
        for (pass, text) in [
            ("full", shown(OptimizeLevel::Full.run(&e, &schema))),
            ("j2sj", shown(joins_to_semijoins(&e, &schema))),
            ("push", push_down_selections(&e, &schema).to_string()),
            ("prune", prune_projections(&e).to_string()),
            ("desugar", shown(e.desugared(&schema))),
            ("sa_eq", shown(to_sa_eq(&e, &schema))),
            ("sj2j", shown(semijoins_to_joins_checked(&e, &schema))),
            ("reorder", reordered),
        ] {
            writeln!(out, "  {pass}: {text}").unwrap();
        }
    }
    out
}

#[test]
fn every_rewrite_pass_output_is_pinned() {
    let got = rewrites();
    let want = include_str!("rewrites.txt");
    assert!(got == want, "a rewrite pass's output moved; now:\n{got}");
}
