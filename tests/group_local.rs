//! `Expr::local_to_groups_of` is sound: whenever it accepts `Q` for `R`,
//! `Q(R)` is the union over `R`'s first-column values `a` of
//! `Q(σ₁₌ₐR)`, and every row of `Q(σ₁₌ₐR)` starts with `a` — checked with
//! the reference evaluator on random expressions and databases, and on
//! the serving pool the server patches. The near misses pin what the rule
//! must refuse.

use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use setjoins::eval::evaluate_reference;
use setjoins::prelude::*;
use sj_workload::ServingWorkload;

/// The rule's claim on `db`, spelled out: `Q` over all of `R` equals the
/// union of `Q` over each group of `R`, and each group's rows carry its
/// key in column 1.
fn holds_group_by_group(e: &Expr, db: &Database) -> Result<(), String> {
    let want = evaluate_reference(e, db).map_err(|err| err.to_string())?;
    let r = db.get("R").expect("R").clone();
    let mut keys: Vec<Value> = r.iter().map(|t| t[0].clone()).collect();
    keys.dedup();
    let mut union = Relation::empty(want.arity());
    for key in &keys {
        let mut group = db.clone();
        group.set("R", r.keyed_rows(std::slice::from_ref(key)));
        let part = evaluate_reference(e, &group).map_err(|err| err.to_string())?;
        if let Some(row) = part.iter().find(|t| t.get(0) != Some(key)) {
            return Err(format!("group {key}: row {row:?} is not keyed by it"));
        }
        union = union.union(&part).map_err(|err| err.to_string())?;
    }
    if union == want {
        Ok(())
    } else {
        Err(format!("⋃ groups = {union:?}, Q(R) = {want:?}"))
    }
}

fn serving_pool() -> Vec<Expr> {
    let mut pool = ServingWorkload::default().query_pool();
    // The canary of the `serve-churn` benchmark.
    pool.push(Expr::rel("R").select_lt(2, 1));
    pool
}

fn division_schema() -> Schema {
    Schema::new([("R", 2), ("S", 1)])
}

#[test]
fn the_serving_pool_is_local_to_the_groups_of_r() {
    let pool = serving_pool();
    assert_eq!(pool.len(), 17);
    let db = ServingWorkload::default().database();
    for e in &pool {
        assert!(e.local_to_groups_of("R", &division_schema()), "{e}");
        assert!(!e.local_to_groups_of("S", &division_schema()), "{e}");
        holds_group_by_group(e, &db).unwrap_or_else(|why| panic!("{e}: {why}"));
    }
}

#[test]
fn near_misses_are_refused() {
    let binary = Schema::new([("R", 2), ("S", 2)]);
    let (r, s) = (Expr::rel("R"), Expr::rel("S"));
    for e in [
        r.clone().project([2]),
        r.clone().project([2, 1]),
        r.clone().union(s.clone()),
        s.clone().diff(r.clone()),
        s.clone().semijoin_eq([(2, 1)], r.clone()),
        r.clone().group_count([]),
        r.clone().join_eq([(1, 1)], r.clone()),
    ] {
        assert!(!e.local_to_groups_of("R", &binary), "{e}");
    }
    let nullary = Schema::new([("R", 0)]);
    assert!(!r.local_to_groups_of("R", &nullary));
    // Each near miss is one step from an accepted shape.
    for e in [
        r.clone().project([1]),
        r.clone().project([1, 2]),
        r.clone().union(r.clone()),
        r.clone().diff(s.clone()),
        r.clone().semijoin_eq([(1, 1)], s.clone()),
        r.clone().group_count([1]),
        s.clone().join_eq([(1, 1)], r.clone()).project([3, 1]),
    ] {
        assert!(e.local_to_groups_of("R", &binary), "{e}");
    }
}

/// The near misses are wrong answers, not just refusals: on this
/// database, splitting each of them by the groups of `R` changes it.
#[test]
fn near_misses_break_the_group_by_group_claim() {
    let mut db = Database::new();
    db.set("R", Relation::from_int_rows(&[&[1, 2], &[2, 1]]));
    db.set("S", Relation::from_int_rows(&[&[3, 3], &[1, 2]]));
    let (r, s) = (Expr::rel("R"), Expr::rel("S"));
    for e in [
        r.clone().project([2]),
        r.clone().project([2, 1]),
        r.clone().union(s.clone()),
        s.clone().diff(r.clone()),
        s.clone().semijoin_eq([(2, 1)], r.clone()),
        r.clone().group_count([]),
        r.clone().join_eq([(2, 1)], r.clone()),
    ] {
        assert!(holds_group_by_group(&e, &db).is_err(), "{e}");
    }
}

fn arb_pairs(max_key: i64, max_val: i64, len: usize) -> impl PropStrategy<Value = Relation> {
    proptest::collection::vec((1..=max_key, 1..=max_val), 0..len).prop_map(|rows| {
        Relation::from_tuples(2, rows.into_iter().map(|(a, b)| Tuple::from_ints(&[a, b]))).unwrap()
    })
}

fn arb_unary() -> impl PropStrategy<Value = Relation> {
    proptest::collection::vec(1i64..=6, 0..6).prop_map(|vals| {
        Relation::from_tuples(1, vals.into_iter().map(|v| Tuple::from_ints(&[v]))).unwrap()
    })
}

/// `R` and `S` both binary, as the expression generator needs.
fn arb_binary_db() -> impl PropStrategy<Value = Database> {
    (arb_pairs(5, 5, 16), arb_pairs(5, 5, 16)).prop_map(|(r, s)| {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db
    })
}

/// The serving pool's shape: `R` binary, `S` unary.
fn arb_division_db() -> impl PropStrategy<Value = Database> {
    (arb_pairs(6, 6, 24), arb_unary()).prop_map(|(r, s)| {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db
    })
}

/// Arity-2 expressions over binary `R` and `S`: the shapes of
/// `tests/engine.rs`, plus the ones that keep or move the group key —
/// `γ₁`, `π₁,₁`, a constant selection, a join whose right side carries
/// the key, and semijoins and differences in both directions.
fn arb_expr() -> impl PropStrategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("R")), Just(Expr::rel("S"))];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_eq(i, j)),
            (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_lt(i, j)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| a.join(Condition::eq(1, 1), b).project([1, 2])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| a.join(Condition::eq(2, 1), b).project([3, 4])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.semijoin(Condition::eq(2, 1), b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.semijoin(Condition::eq(1, 1), b)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| a
                .join(Condition::eq(2, 1), b)
                .join(Condition::eq(4, 1), c)
                .project([1, 6])),
            inner.clone().prop_map(|a| a.project([2, 1])),
            inner.clone().prop_map(|a| a.project([1, 1])),
            inner.clone().prop_map(|a| a.group_count([1])),
            (1i64..=5, inner.clone()).prop_map(|(c, a)| a.select_const(2, c)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every expression the rule accepts holds group by group.
    #[test]
    fn accepted_expressions_hold_group_by_group(e in arb_expr(), db in arb_binary_db()) {
        if e.local_to_groups_of("R", &db.schema()) {
            let verdict = holds_group_by_group(&e, &db);
            prop_assert!(verdict.is_ok(), "{}: {:?}", e, verdict);
        }
    }

    /// The serving pool holds group by group on random divisions too.
    #[test]
    fn the_serving_pool_holds_on_random_databases(db in arb_division_db()) {
        for e in serving_pool() {
            let verdict = holds_group_by_group(&e, &db);
            prop_assert!(verdict.is_ok(), "{}: {:?}", e, verdict);
        }
    }
}
