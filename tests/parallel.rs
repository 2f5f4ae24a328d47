//! Differential suite proving **parallel ≡ serial**: every registered
//! set-join and division algorithm at every tested worker count
//! ([`common::WORKER_COUNTS`]) must produce byte-identical relations to
//! its one-worker run, and the engine's set operators under every
//! [`Parallelism`] to the [`Parallelism::Serial`] engine's. Plans do not
//! read `Parallelism`: a planned query under `Threads(8)` returns the
//! relation and the timing-masked report of the `Serial` run, and every
//! engine of the configuration matrix ([`common::engines`]) the same
//! relation. Inputs cover random relations (property tests) as well as
//! the adversarial shapes hash partitioning finds hardest: empty
//! operands, skewed and zipf-distributed keys (one partition holds
//! almost everything) and all-duplicate inputs.

use proptest::prelude::*;
// `engine::Strategy` (the enum) and proptest's `Strategy` (the trait)
// collide under the two globs: bind the trait explicitly.
use proptest::strategy::Strategy as PropStrategy;
use setjoins::eval::Parallelism;
use setjoins::prelude::*;
use sj_algebra::division;
use sj_setjoin::nested_loop_set_join;
use sj_workload::{DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist};

mod common;
use common::WORKER_COUNTS;

/// `e` planned and run instrumented on `db` under `par`: the relation and
/// the timing-masked report.
fn planned_under(db: &Database, e: &Expr, par: Parallelism) -> (Relation, String) {
    let out = Engine::new(db.clone())
        .parallelism(par)
        .instrument(Instrument::Cardinalities)
        .query(e.clone())
        .run()
        .unwrap();
    let report = out.report.expect("instrumented ⇒ a report");
    (out.relation, report.render_stable())
}

// ---------------------------------------------------------------------------
// Adversarial deterministic inputs
// ---------------------------------------------------------------------------

/// Build a binary relation from `[A, B]` rows (duplicates welcome — the
/// canonical representation dedups them, which is itself under test).
fn pairs(rows: impl IntoIterator<Item = [i64; 2]>) -> Relation {
    Relation::from_tuples(2, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
}

/// Binary relations that stress the partitioning: empty, skewed onto one
/// key (one partition holds everything), all-duplicate rows (canonical
/// dedup leaves a single tuple), one value shared by every key, and a
/// benign mixed shape.
fn adversarial_pairs() -> Vec<(&'static str, Relation)> {
    vec![
        ("empty", Relation::empty(2)),
        ("skewed-key", pairs((0..60).map(|i| [7, i]))),
        ("all-duplicate", pairs((0..50).map(|_| [3, 9]))),
        ("shared-value", pairs((0..40).map(|i| [i, 5]))),
        // Harmonic key frequencies: rank-r key appears ~n/r times.
        ("zipf-key", pairs((0..90).map(|i| [90 / (i + 1), i % 7]))),
        ("mixed", pairs((0..80).map(|i| [i % 13, i % 7]))),
    ]
}

fn divisors() -> Vec<(&'static str, Relation)> {
    vec![
        ("empty", Relation::empty(1)),
        ("single", Relation::from_int_rows(&[&[5]])),
        ("several", Relation::from_int_rows(&[&[0], &[5], &[9]])),
    ]
}

/// Every registered division algorithm, every worker count (1 is the
/// serial run), every adversarial input: byte-identical to the
/// nested-loop baseline.
#[test]
fn division_algorithms_parallel_equals_serial_on_adversarial_inputs() {
    let reg = Registry::standard();
    for (rname, r) in adversarial_pairs() {
        for (sname, s) in divisors() {
            for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
                let baseline = sj_setjoin::nested_loop_division(&r, &s, sem);
                for alg in reg.division_algorithms() {
                    for n in WORKER_COUNTS {
                        assert_eq!(
                            alg.run(&r, &s, sem, n),
                            baseline,
                            "{} @{n} workers on {rname}÷{sname} {sem:?}",
                            alg.name()
                        );
                    }
                }
            }
        }
    }
}

/// Every registered set-join algorithm, every supported predicate, every
/// worker count, every adversarial input pair.
#[test]
fn set_join_algorithms_parallel_equals_serial_on_adversarial_inputs() {
    let reg = Registry::standard();
    let preds = [
        SetPredicate::Contains,
        SetPredicate::ContainedIn,
        SetPredicate::Equals,
        SetPredicate::IntersectsNonempty,
    ];
    for (rname, r) in adversarial_pairs() {
        for (sname, s) in adversarial_pairs() {
            for pred in preds {
                let baseline = nested_loop_set_join(&r, &s, pred);
                for alg in reg.set_join_algorithms() {
                    if !alg.supports(pred) {
                        continue;
                    }
                    for n in WORKER_COUNTS {
                        assert_eq!(
                            alg.run(&r, &s, pred, n),
                            baseline,
                            "{} @{n} workers on {rname}⋈{sname} {pred:?}",
                            alg.name()
                        );
                    }
                }
            }
        }
    }
}

/// The engine end to end on the paper's division plans: under
/// `Threads(8)` a plan returns the serial relation and report, and every
/// engine of the matrix agrees with the serial default engine, on a real
/// workload and on the adversarial shapes.
#[test]
fn engine_division_plans_parallel_equals_serial() {
    let mut dbs: Vec<(String, Database)> = vec![(
        "workload".into(),
        DivisionWorkload {
            groups: 200,
            divisor_size: 8,
            containment_fraction: 0.3,
            extra_per_group: 3,
            noise_domain: 64,
            seed: 0xFA12A11E1,
        }
        .database(),
    )];
    for (name, r) in adversarial_pairs() {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", Relation::from_int_rows(&[&[5], &[9]]));
        dbs.push((format!("adversarial-{name}"), db));
    }
    let plans = [
        division::division_double_difference("R", "S"),
        division::division_counting("R", "S"),
        division::division_equality("R", "S"),
    ];
    for (dbname, db) in &dbs {
        for e in &plans {
            let serial = planned_under(db, e, Parallelism::Serial);
            let threaded = planned_under(db, e, Parallelism::Threads(8));
            assert_eq!(threaded, serial, "{dbname} {e} under threads(8)");
            for (label, engine) in common::engines(db) {
                let out = engine.query(e.clone()).run().unwrap();
                assert_eq!(out.relation, serial.0, "{dbname} {e} {label}");
            }
        }
    }
}

/// Registry-routed engine set operators under the parallelism knob: the
/// auto pick may change (that is the point) but the relation never does.
#[test]
fn engine_set_operators_parallel_equals_serial() {
    let w = SetJoinWorkload {
        r_groups: 600,
        s_groups: 600,
        set_size: SetSizeDist::Uniform(2, 8),
        domain: 48,
        elements: ElementDist::Zipf(0.8),
        seed: 0x9A11E1,
    };
    let (r, s) = w.generate();
    let mut db = Database::new();
    db.set("R", r.clone());
    db.set("S", s.clone());
    db.set(
        "D",
        Relation::unary((0..4).map(|v| Value::int(1_000_001 + v))),
    );
    let serial = Engine::new(db.clone());
    for n in WORKER_COUNTS {
        let threaded = Engine::new(db.clone()).parallelism(Parallelism::Threads(n));
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
            SetPredicate::IntersectsNonempty,
        ] {
            let a = serial.set_join("R", "S", pred).unwrap();
            let b = threaded.set_join("R", "S", pred).unwrap();
            assert_eq!(a.relation, b.relation, "{pred:?} @{n} workers");
        }
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let a = serial.divide("R", "D", sem).unwrap();
            let b = threaded.divide("R", "D", sem).unwrap();
            assert_eq!(a.relation, b.relation, "division {sem:?} @{n} workers");
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

fn arb_relation(arity: usize) -> impl PropStrategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(0i64..6, arity), 0..14).prop_map(
        move |rows| {
            Relation::from_tuples(arity, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
        },
    )
}

fn arb_db() -> impl PropStrategy<Value = Database> {
    (arb_relation(2), arb_relation(2), arb_relation(1)).prop_map(|(r, s, t)| {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db.set("T", t);
        db
    })
}

/// Arbitrary valid arity-2 expressions over R, S (both arity 2) that
/// exercise every operator the planner can parallelize.
fn arb_expr() -> impl PropStrategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("R")), Just(Expr::rel("S"))];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| a.join(Condition::eq(1, 1), b).project([1, 2])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| a.join(Condition::eq(2, 1), b).project([2, 1])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.semijoin(Condition::eq(1, 1), b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.semijoin(Condition::lt(1, 2), b)),
            inner.clone().prop_map(|a| a.project([2, 1])),
            inner.clone().prop_map(|a| a.select_eq(1, 2)),
            inner.clone().prop_map(|a| a.group_count([1])),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random expression × random database: the plan under
    /// `Threads(8)` returns the serial relation and report, and every
    /// engine of the matrix the serial relation.
    #[test]
    fn parallel_equals_serial_on_random_expressions(e in arb_expr(), db in arb_db()) {
        let serial = planned_under(&db, &e, Parallelism::Serial);
        let threaded = planned_under(&db, &e, Parallelism::Threads(8));
        prop_assert_eq!(&threaded, &serial, "{} under threads(8)", e);
        for (label, engine) in common::engines(&db) {
            let out = engine.query(e.clone()).run().unwrap();
            prop_assert_eq!(&out.relation, &serial.0, "{} under {}", e, label);
        }
    }

    /// Random binary relations: every registered algorithm at every
    /// worker count equals the nested-loop baselines.
    #[test]
    fn parallel_set_ops_equal_serial_on_random_relations(
        r in arb_relation(2),
        s in arb_relation(2),
        d in arb_relation(1),
    ) {
        let reg = Registry::standard();
        for pred in [SetPredicate::Contains, SetPredicate::ContainedIn, SetPredicate::Equals] {
            let baseline = nested_loop_set_join(&r, &s, pred);
            for alg in reg.set_join_algorithms() {
                if !alg.supports(pred) {
                    continue;
                }
                for n in WORKER_COUNTS {
                    prop_assert_eq!(
                        alg.run(&r, &s, pred, n),
                        baseline.clone(),
                        "{} {:?} @{}", alg.name(), pred, n
                    );
                }
            }
        }
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let baseline = sj_setjoin::nested_loop_division(&r, &d, sem);
            for alg in reg.division_algorithms() {
                for n in WORKER_COUNTS {
                    prop_assert_eq!(
                        alg.run(&r, &d, sem, n),
                        baseline.clone(),
                        "{} {:?} @{}", alg.name(), sem, n
                    );
                }
            }
        }
    }

    /// Relation::partition_by_hash invariants on random relations: the
    /// partitions are a disjoint cover with stable key placement.
    #[test]
    fn partitioning_round_trips(r in arb_relation(2), n in 1usize..9) {
        let parts = r.partition_by_hash(&[0], n);
        prop_assert_eq!(parts.len(), n);
        let mut union = Relation::empty(2);
        let mut total = 0usize;
        for p in &parts {
            prop_assert!(p.intersection(&union).unwrap().is_empty());
            total += p.len();
            union = union.union(p).unwrap();
        }
        prop_assert_eq!(total, r.len());
        prop_assert_eq!(union, r.clone());
        for (pi, p) in parts.iter().enumerate() {
            for t in p {
                prop_assert_eq!(Relation::partition_of(t, &[0], n), pi);
            }
        }
    }
}
