//! Proposition 26 in the query path, as a property. The planner lowers
//! the two RA division idioms — the double difference and its equality
//! variant, over stored operands — to one `PhysOp::Divide` node run by
//! a linear registry algorithm. Every configuration of the engine
//! (`common::engines`) must still answer exactly what the reference
//! evaluator computes from the RA as written, on seeded random databases
//! and on the Lemma 24 pump family; near misses of the idioms must not
//! lower and must stay correct.

use setjoins::eval::{evaluate_reference, PhysOp};
use setjoins::prelude::*;
use sj_algebra::division;
use sj_core::{analyze, Verdict};
use sj_workload::SplitMix64;

mod common;

/// `π₁(X) − π₁((π₁(X) × Y) − X)` over arbitrary operands.
fn double_difference(x: &Expr, y: &Expr) -> Expr {
    let candidates = x.clone().project([1]);
    let missing = candidates
        .clone()
        .product(y.clone())
        .diff(x.clone())
        .project([1]);
    candidates.diff(missing)
}

/// `DD(X, Y) − π₁(X − (π₁(X) × Y))` over arbitrary operands.
fn equality(x: &Expr, y: &Expr) -> Expr {
    let extras = x
        .clone()
        .diff(x.clone().project([1]).product(y.clone()))
        .project([1]);
    double_difference(x, y).diff(extras)
}

/// Every query the suite runs, with the number of division nodes its
/// plan must hold: the idioms lower, nothing else does.
fn corpus() -> Vec<(&'static str, Expr, usize)> {
    let (r, s, t) = (Expr::rel("R"), Expr::rel("S"), Expr::rel("T"));
    let theta_product = {
        let c = r.clone().project([1]);
        c.clone().diff(
            c.join(Condition::neq(1, 1), s.clone())
                .diff(r.clone())
                .project([1]),
        )
    };
    let second_column = {
        let c = r.clone().project([2]);
        c.clone()
            .diff(c.product(s.clone()).diff(r.clone()).project([1]))
    };
    let subtracts_t = {
        let c = r.clone().project([1]);
        c.clone()
            .diff(c.product(s.clone()).diff(t.clone()).project([1]))
    };
    let equality_subtracting_t = double_difference(&r, &s).diff(
        t.clone()
            .diff(r.clone().project([1]).product(s.clone()))
            .project([1]),
    );
    vec![
        (
            "double difference",
            division::division_double_difference("R", "S"),
            1,
        ),
        ("via join", division::division_via_join("R", "S"), 1),
        ("equality", division::division_equality("R", "S"), 1),
        (
            "both idioms",
            division::division_double_difference("R", "S")
                .union(division::division_equality("R", "S")),
            2,
        ),
        // The §5 grouping/counting plan is linear already and is not
        // division when S is empty: it is not lowered.
        ("counting", division::division_counting("R", "S"), 0),
        ("near miss: subtracts T", subtracts_t, 0),
        ("near miss: π₂", second_column, 0),
        ("near miss: θ on the product", theta_product, 0),
        (
            "near miss: binary divisor",
            division::division_double_difference("W", "V"),
            0,
        ),
        (
            "near miss: derived dividend",
            double_difference(&r.clone().select_lt(1, 2), &s),
            0,
        ),
        (
            "near miss: derived divisor",
            equality(&r, &s.clone().union(t.clone().project([2]))),
            0,
        ),
        // Only the equality variant's inner double difference lowers.
        ("near miss: equality over T", equality_subtracting_t, 1),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Random,
    EmptyDividend,
    EmptyDivisor,
    /// Divisor values that occur nowhere in `R`.
    AbsentDivisor,
    SingleGroup,
    /// `R = π₁(R) × S`: every group divides, in both semantics.
    FullProduct,
}

const SHAPES: [Shape; 6] = [
    Shape::Random,
    Shape::EmptyDividend,
    Shape::EmptyDivisor,
    Shape::AbsentDivisor,
    Shape::SingleGroup,
    Shape::FullProduct,
];

/// A seeded database over `R/2`, `S/1`, the near misses' `T/2`, and the
/// binary-divisor pair `W/3`, `V/2` derived from `R` and `S`. Cells are
/// integers or, with `strings`, their decimal strings (whose order
/// differs from the integers').
fn database(seed: u64, shape: Shape, strings: bool) -> Database {
    let mut rng = SplitMix64::new(seed);
    let cell = |v: i64| {
        if strings {
            Value::str(format!("{v}"))
        } else {
            Value::int(v)
        }
    };
    let pairs = |rng: &mut SplitMix64, groups: i64| -> Vec<(i64, i64)> {
        let n = rng.below(16) as usize;
        (0..n)
            .map(|_| (rng.range_i64(1, groups), rng.range_i64(1, 6)))
            .collect()
    };
    let divisor: Vec<i64> = match shape {
        Shape::EmptyDivisor => vec![],
        Shape::AbsentDivisor => (7..=7 + rng.below(3) as i64).collect(),
        _ => (1..=6).filter(|_| rng.chance(0.4)).chain([3]).collect(),
    };
    let r: Vec<(i64, i64)> = match shape {
        Shape::EmptyDividend => vec![],
        Shape::SingleGroup => pairs(&mut rng, 1),
        Shape::FullProduct => (1..=rng.range_i64(1, 4))
            .flat_map(|a| divisor.iter().map(move |&b| (a, b)))
            .collect(),
        _ => pairs(&mut rng, 5),
    };
    let t = pairs(&mut rng, 5);
    let rel = |arity: usize, rows: Vec<Vec<i64>>| {
        let tuples = rows
            .into_iter()
            .map(|row| Tuple::new(row.into_iter().map(cell).collect()));
        Relation::from_tuples(arity, tuples).unwrap()
    };
    let mut db = Database::new();
    db.set("R", rel(2, r.iter().map(|&(a, b)| vec![a, b]).collect()));
    db.set("S", rel(1, divisor.iter().map(|&b| vec![b]).collect()));
    db.set("T", rel(2, t.iter().map(|&(a, b)| vec![a, b]).collect()));
    db.set(
        "W",
        rel(3, r.iter().map(|&(a, b)| vec![a, b, b % 2]).collect()),
    );
    db.set(
        "V",
        rel(2, divisor.iter().map(|&b| vec![b, b % 2]).collect()),
    );
    db
}

/// Every engine of the configuration matrix answers every query of the
/// corpus exactly as the reference evaluator does, and every plan holds
/// the division nodes the corpus says.
fn assert_every_engine_agrees(db: &Database, what: &str) {
    let corpus = corpus();
    let expected: Vec<Relation> = corpus
        .iter()
        .map(|(_, e, _)| evaluate_reference(e, db).unwrap())
        .collect();
    for (label, engine) in common::engines(db) {
        for ((name, e, divides), want) in corpus.iter().zip(&expected) {
            let out = engine.query(e.clone()).run().unwrap();
            assert_eq!(&out.relation, want, "{name} under {label}, {what}");
            if let Some(plan) = &out.plan {
                let lowered = plan
                    .nodes()
                    .iter()
                    .filter(|n| matches!(n.op, PhysOp::Divide { .. }))
                    .count();
                assert_eq!(lowered, *divides, "{name} under {label}, {what}");
            }
        }
    }
}

#[test]
fn the_helpers_build_the_library_idioms() {
    let (r, s) = (Expr::rel("R"), Expr::rel("S"));
    assert_eq!(
        double_difference(&r, &s),
        division::division_double_difference("R", "S")
    );
    assert_eq!(equality(&r, &s), division::division_equality("R", "S"));
    assert_eq!(
        division::division_via_join("R", "S"),
        division::division_double_difference("R", "S")
    );
}

#[test]
fn every_engine_agrees_on_random_databases() {
    for seed in 0..10u64 {
        for shape in SHAPES {
            let strings = seed % 2 == 1;
            let db = database(seed, shape, strings);
            assert_every_engine_agrees(&db, &format!("seed {seed} {shape:?} strings={strings}"));
        }
    }
}

#[test]
fn the_edge_shapes_hold_what_they_claim() {
    let quotient = |db: &Database, sem| {
        Engine::new(db.clone())
            .divide("R", "S", sem)
            .unwrap()
            .relation
    };
    let groups = |db: &Database| evaluate(&Expr::rel("R").project([1]), db).unwrap();
    for seed in 0..8u64 {
        let empty_r = database(seed, Shape::EmptyDividend, false);
        assert!(empty_r.get("R").unwrap().is_empty());
        let empty_s = database(seed, Shape::EmptyDivisor, false);
        assert!(empty_s.get("S").unwrap().is_empty());
        // Every group divides an empty divisor; none equals it.
        assert_eq!(
            quotient(&empty_s, DivisionSemantics::Containment),
            groups(&empty_s)
        );
        assert!(quotient(&empty_s, DivisionSemantics::Equality).is_empty());
        // The §5 counting plan is not division there: it answers ∅.
        let counting = division::division_counting("R", "S");
        assert!(evaluate(&counting, &empty_s).unwrap().is_empty());
        let absent = database(seed, Shape::AbsentDivisor, false);
        assert!(quotient(&absent, DivisionSemantics::Containment).is_empty());
        let single = database(seed, Shape::SingleGroup, false);
        assert!(groups(&single).len() <= 1);
        let full = database(seed, Shape::FullProduct, false);
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            assert_eq!(quotient(&full, sem), groups(&full));
        }
    }
}

#[test]
fn planned_explain_shows_a_division_node_for_the_idioms_only() {
    let db = database(7, Shape::Random, false);
    for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
        let engine = Engine::new(db.clone()).optimize(level);
        for (name, e, divides) in corpus() {
            let explained = engine.query(e).explain().unwrap();
            assert_eq!(
                explained.matches("divide[").count(),
                divides,
                "{name} at {level}:\n{explained}"
            );
        }
    }
}

/// The pump family of an analyzer witness: `Dₙ` of linear size on which
/// the RA as written materializes at least `n²` tuples. Every engine
/// agrees with the reference on it; the planned engines, which lower the
/// idiom, keep every intermediate within `|Dₙ|`.
#[test]
fn every_engine_agrees_on_the_pump_family() {
    let schema = Schema::new([("R", 2), ("S", 1)]);
    let mut seed = Database::new();
    seed.set("R", Relation::from_int_rows(&[&[1, 7], &[2, 8]]));
    seed.set("S", Relation::from_int_rows(&[&[7], &[8]]));
    for e in [
        division::division_double_difference("R", "S"),
        division::division_equality("R", "S"),
    ] {
        let Verdict::Quadratic { witness } =
            analyze(&e, &schema, std::slice::from_ref(&seed)).unwrap()
        else {
            panic!("{e}: the RA division plans are quadratic");
        };
        let pump = witness.pump(&[], 16).unwrap();
        for n in [1usize, 2, 4, 8, 16] {
            let db = pump.database(n);
            let want = evaluate_reference(&e, &db).unwrap();
            for (label, engine) in common::engines(&db) {
                let out = engine.query(e.clone()).run().unwrap();
                assert_eq!(out.relation, want, "{e} under {label} at n = {n}");
                let Some(report) = out.report else { continue };
                if out.plan.is_some() {
                    assert!(
                        report.max_intermediate() <= db.size(),
                        "{label} at n = {n}: {}",
                        report.render_stable()
                    );
                } else {
                    assert!(report.max_intermediate() >= n * n, "{label} at n = {n}");
                }
            }
        }
    }
}
