//! The kernel differential suite: the one-body-per-operator kernels of
//! `sj_eval::kernel` (and the columnar σ of `sj_eval::ops_vec`) must
//! produce byte-identical relations to the row operators of
//! `sj_eval::ops` **and** to a brute-force nested loop written here from
//! the definitions — for every θ shape (aligned prefix, off-diagonal
//! equality, equality + residual, inequality only, compound residual
//! without equality, empty) × operand kind
//! (int, string, mixed-variant, cross-dictionary, empty, single row,
//! all-duplicate, zipf, and every size from 0 to 9 rows). Every kernel
//! has one body over whole operands, so the operand axis is the whole
//! configuration space.
//!
//! The prefix consumers are held the same way: the fused bodies
//! `kernel::project_semijoin` / `ops_vec::project_select` to
//! `ops::project` over the row operator,
//! `kernel::group_join` to `ops::group_count ∘ ops::join`, and
//! `kernel::{project, group_count, tag}` to their `ops` twins, called
//! directly. Through the `Engine`, every `common::engines`
//! configuration answers the fused shapes and their near misses exactly
//! as `evaluate_reference` does, and every plan holds the fused nodes
//! the corpus says.

use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use setjoins::eval::{evaluate_reference, kernel, ops, ops_vec, Execution, Strategy};
use setjoins::prelude::*;
use sj_algebra::{Atom, CompOp, Selection};
use sj_workload::SplitMix64;
use std::collections::BTreeMap;

mod common;

/// The one value of the kernels' accepted-and-ignored `exec` argument,
/// and the worker count they ignore beside it.
const EXEC: Execution = Execution::Vectorized;
const WORKERS: usize = 1;

fn pairs(rows: impl IntoIterator<Item = [i64; 2]>) -> Relation {
    Relation::from_tuples(2, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
}

/// `n` rows with repeated keys and a value pattern that makes every
/// predicate under test partially selective.
fn sized(n: usize) -> Relation {
    pairs((0..n as i64).map(|i| [i % 97, i % 13]))
}

/// Input pairs covering every operand kind named in the module docs.
fn operand_pairs() -> Vec<(String, Relation, Relation)> {
    let mut out: Vec<(String, Relation, Relation)> = vec![
        (
            // Two string relations never share a dictionary: every key
            // comparison here crosses dictionaries.
            "strings-cross-dictionary".into(),
            Relation::from_str_rows(&[
                &["an", "headache"],
                &["an", "sore throat"],
                &["bob", "headache"],
                &["bob", "memory loss"],
            ]),
            Relation::from_str_rows(&[
                &["flu", "headache"],
                &["flu", "sore throat"],
                &["lyme", "memory loss"],
                &["an", "headache"],
            ]),
        ),
        (
            "mixed-variants".into(),
            Relation::from_tuples(
                2,
                vec![tuple![1, "x"], tuple![1, 7], tuple![2, "y"], tuple![3, 7]],
            )
            .unwrap(),
            Relation::from_tuples(2, vec![tuple![1, 7], tuple![2, "x"], tuple![9, "y"]]).unwrap(),
        ),
        (
            // An all-int key column against an all-string one: hash
            // buckets may collide, keys never match.
            "int-vs-string".into(),
            pairs((0..6).map(|i| [i, i])),
            Relation::from_str_rows(&[&["1", "1"], &["2", "2"]]),
        ),
        (
            "skewed".into(),
            pairs((0..60).map(|i| [7, i])),
            pairs((0..40).map(|i| [i % 5, 7])),
        ),
        (
            // Harmonic key frequencies (rank-r key appears ~n/r times):
            // one key carries most rows, the tail is singletons.
            "zipf".into(),
            pairs((0..120).map(|i| [120 / (i + 1), i % 11])),
            pairs((0..80).map(|i| [80 / (i + 1), i % 7])),
        ),
        (
            "all-duplicate".into(),
            pairs((0..50).map(|_| [3, 9])),
            pairs((0..30).map(|_| [3, 9])),
        ),
        ("single-row".into(), sized(1), sized(20)),
        ("empty-left".into(), Relation::empty(2), sized(20)),
        ("empty-right".into(), sized(20), Relation::empty(2)),
        ("ints".into(), sized(300), sized(200)),
    ];
    for n in 0..=9 {
        out.push((format!("{n}-rows"), sized(n), sized(n / 2 + 1)));
    }
    out
}

fn atom(left: usize, op: CompOp, right: usize) -> Atom {
    Atom { left, op, right }
}

/// Every θ shape the kernels dispatch on.
fn thetas() -> Vec<Condition> {
    vec![
        Condition::eq(1, 1),                       // aligned prefix
        Condition::eq_pairs([(1, 1), (2, 2)]),     // aligned prefix, composite
        Condition::eq(2, 1),                       // off-diagonal equality
        Condition::eq(2, 2),                       // equality off the prefix
        Condition::eq(1, 1).and(2, CompOp::Lt, 2), // equality + residual
        Condition::eq(1, 1).and(2, CompOp::Neq, 2),
        Condition::eq_pairs([(1, 1), (2, 2)]).and(1, CompOp::Lt, 2),
        Condition::eq(2, 1).and(1, CompOp::Neq, 2),
        Condition::lt(1, 1),                        // inequality only
        Condition::lt(1, 1).and(2, CompOp::Neq, 2), // no equality, compound residual
        Condition::lt(2, 1),                        // no equality, off-diagonal
        Condition::always(),                        // empty
    ]
}

// ---------------------------------------------------------------------------
// The brute-force oracle: the definitions, nothing else
// ---------------------------------------------------------------------------

fn brute_join(r: &Relation, s: &Relation, theta: &Condition) -> Relation {
    let mut out = Vec::new();
    for t1 in r {
        for t2 in s {
            if theta.eval(t1.values(), t2.values()) {
                out.push(t1.concat(t2));
            }
        }
    }
    Relation::from_tuples(r.arity() + s.arity(), out).unwrap()
}

fn brute_semijoin(r: &Relation, s: &Relation, theta: &Condition) -> Relation {
    let keep = r
        .iter()
        .filter(|t1| s.iter().any(|t2| theta.eval(t1.values(), t2.values())))
        .cloned();
    Relation::from_tuples(r.arity(), keep).unwrap()
}

/// The distinct `k`-prefixes of `r`'s tuples.
fn brute_prefixes(r: &Relation, k: usize) -> Relation {
    Relation::from_tuples(k, r.iter().map(|t| Tuple::new(t.values()[..k].to_vec()))).unwrap()
}

/// Every `k`-prefix of `r`'s tuples with the number of tuples carrying it.
fn brute_prefix_counts(r: &Relation, k: usize) -> Relation {
    let mut groups: BTreeMap<Vec<Value>, i64> = BTreeMap::new();
    for t in r {
        *groups.entry(t.values()[..k].to_vec()).or_default() += 1;
    }
    let rows = groups.into_iter().map(|(mut key, n)| {
        key.push(Value::int(n));
        Tuple::new(key)
    });
    Relation::from_tuples(k + 1, rows).unwrap()
}

/// `(1..=k)`: the 1-based column list of a `k`-prefix.
fn prefix(k: usize) -> Vec<usize> {
    (1..=k).collect()
}

/// [`operand_pairs`] plus a ternary left operand, so a key prefix can be
/// shorter than the left row by more than one column.
fn prefix_operand_pairs() -> Vec<(String, Relation, Relation)> {
    let mut out = operand_pairs();
    let triples = (0..90i64).map(|i| Tuple::from_ints(&[i % 7, i % 5, i]));
    out.push((
        "ternary-left".into(),
        Relation::from_tuples(3, triples).unwrap(),
        sized(40),
    ));
    out
}

// ---------------------------------------------------------------------------
// Direct operator differentials
// ---------------------------------------------------------------------------

/// Columnar selection ≡ row selection, every predicate shape, every
/// operand, and under every key prefix of a fused projection.
#[test]
fn vectorized_select_equals_row_select() {
    let sels = [
        Selection::Eq(1, 2),
        Selection::Lt(1, 2),
        Selection::Lt(2, 1),
        Selection::EqConst(1, Value::int(7)),
        Selection::EqConst(2, Value::str("headache")),
        Selection::EqConst(2, Value::str("absent")),
    ];
    for (name, r, s) in prefix_operand_pairs() {
        for rel in [&r, &s] {
            for sel in &sels {
                let want = ops::select(rel, sel);
                assert_eq!(ops_vec::select(rel, sel), want, "select {sel:?} on {name}");
                for k in 0..=rel.arity() {
                    assert_eq!(
                        ops_vec::project_select(rel, sel, k),
                        ops::project(&want, &prefix(k)),
                        "π[1..{k}]∘select {sel:?} on {name}"
                    );
                }
            }
        }
    }
}

/// `kernel::{join, semijoin}` ≡ `ops::{join, semijoin}` ≡ brute force on
/// every θ shape × operand kind.
#[test]
fn vectorized_joins_equal_row_joins() {
    for (name, r, s) in operand_pairs() {
        for theta in &thetas() {
            let want_join = brute_join(&r, &s, theta);
            let want_semi = brute_semijoin(&r, &s, theta);
            assert_eq!(
                ops::join(&r, &s, theta),
                want_join,
                "ops join {theta} on {name}"
            );
            assert_eq!(
                ops::semijoin(&r, &s, theta),
                want_semi,
                "ops semijoin {theta} on {name}"
            );
            assert_eq!(
                kernel::join(&r, &s, theta, EXEC, WORKERS),
                want_join,
                "join {theta} on {name}"
            );
            assert_eq!(
                kernel::semijoin(&r, &s, theta, EXEC, WORKERS),
                want_semi,
                "semijoin {theta} on {name}"
            );
        }
    }
}

/// `kernel::merge_join`, kept for `benchmark/`, is `kernel::join` on the
/// rebuilt condition `1=1 ∧ … ∧ k=k ∧ residual`.
#[test]
fn merge_join_shim_is_join_on_the_prefix_condition() {
    let residual = Condition::new([atom(2, CompOp::Neq, 2)]);
    for (name, r, s) in operand_pairs() {
        for k in [1usize, 2] {
            let theta = Condition::new(
                (1..=k)
                    .map(|c| atom(c, CompOp::Eq, c))
                    .chain(residual.atoms().iter().copied()),
            );
            assert_eq!(
                kernel::merge_join(&r, &s, k, &residual, EXEC, WORKERS),
                kernel::join(&r, &s, &theta, EXEC, WORKERS),
                "k={k} on {name}"
            );
        }
    }
}

/// The fused prefix consumers: `kernel::project_semijoin` ≡
/// `ops::project ∘ ops::semijoin` and `kernel::group_join` ≡
/// `ops::group_count ∘ ops::join` ≡ the definitions, for every key
/// prefix × θ shape × operand kind. The fused ⋉ stops probing a run of
/// equal `k`-prefix at its first survivor, and the group-join sums the
/// run.
#[test]
fn prefix_consumer_kernels_equal_row_operators() {
    for (name, r, s) in prefix_operand_pairs() {
        for theta in &thetas() {
            let semi = brute_semijoin(&r, &s, theta);
            let join = brute_join(&r, &s, theta);
            for k in 0..=r.arity() {
                let want_projected = brute_prefixes(&semi, k);
                assert_eq!(
                    ops::project(&ops::semijoin(&r, &s, theta), &prefix(k)),
                    want_projected,
                    "ops π[1..{k}]∘semijoin {theta} on {name}"
                );
                // `γ[]` counts `{(0)}` on an empty join: it is not a
                // group-join.
                let want_counts = (k >= 1).then(|| brute_prefix_counts(&join, k));
                if let Some(want) = &want_counts {
                    assert_eq!(
                        &ops::group_count(&ops::join(&r, &s, theta), &prefix(k)),
                        want,
                        "ops γ[1..{k}]∘join {theta} on {name}"
                    );
                }
                assert_eq!(
                    kernel::project_semijoin(&r, &s, theta, k),
                    want_projected,
                    "π[1..{k}]∘semijoin {theta} on {name}"
                );
                if let Some(want) = &want_counts {
                    assert_eq!(
                        &kernel::group_join(&r, &s, theta, k),
                        want,
                        "γ[1..{k}]∘join {theta} on {name}"
                    );
                }
            }
        }
    }
}

/// `kernel::{project, group_count, tag}` — the planned path's single
/// operand bodies — ≡ `ops::{project, group_count, const_tag}` on column
/// prefixes (the run-based paths), on every other column list (sort or
/// hash), and on empty input (`γ[]` is `{(0)}`).
#[test]
fn single_operand_kernels_equal_row_operators() {
    let col_lists: [&[usize]; 9] = [
        &[],
        &[1],
        &[1, 2],
        &[1, 2, 3],
        &[2],
        &[2, 1],
        &[1, 1],
        &[3, 1],
        &[2, 2, 1],
    ];
    for (name, r, s) in prefix_operand_pairs() {
        for rel in [&r, &s] {
            for cols in col_lists
                .iter()
                .filter(|cols| cols.iter().all(|&c| c <= rel.arity()))
            {
                assert_eq!(
                    kernel::project(rel, cols),
                    ops::project(rel, cols),
                    "project {cols:?} on {name}"
                );
                assert_eq!(
                    kernel::group_count(rel, cols),
                    ops::group_count(rel, cols),
                    "group_count {cols:?} on {name}"
                );
            }
            for c in [Value::int(7), Value::str("x")] {
                assert_eq!(
                    kernel::tag(rel, &c),
                    ops::const_tag(rel, &c),
                    "tag {c} on {name}"
                );
            }
        }
    }
    assert_eq!(
        kernel::group_count(&Relation::empty(2), &[]),
        Relation::from_int_rows(&[&[0]])
    );
}

/// Ternary left and binary right operands whose key columns sit in
/// different code spaces: strings under two dictionaries that give the
/// same string different codes, integer keys against string ones (never
/// equal), and mixed-variant columns. In `joint_codes` two dictionaries
/// are merged and their codes remapped, and an integer key column is
/// coded against its own distinct values before it meets a coded one.
/// Left runs of the prefix `1` are long, so a fused ⋉ stops probing
/// early and a group-join sums many rows per run.
fn key_code_operands() -> Vec<(&'static str, Relation, Relation, bool)> {
    let text = |v: i64| Value::str(format!("s{v}"));
    let mixed = move |v: i64| if v % 2 == 0 { Value::int(v) } else { text(v) };
    let left = |cell: &dyn Fn(i64) -> Value| {
        let rows =
            (0..120i64).map(|i| Tuple::new(vec![Value::int(i % 9), cell(i % 7), cell(i % 4)]));
        Relation::from_tuples(3, rows).unwrap()
    };
    // Right cells skip values, so the right dictionary numbers its
    // strings differently from the left one.
    let right = |cell: &dyn Fn(i64) -> Value| {
        let rows =
            (0..40i64).map(|i| Tuple::new(vec![cell(3 * (i % 5) + i % 2), cell(3 * (i % 3))]));
        Relation::from_tuples(2, rows).unwrap()
    };
    vec![
        (
            "str-str across dictionaries",
            left(&text),
            right(&text),
            true,
        ),
        ("int-vs-str", left(&Value::int), right(&text), false),
        ("mixed", left(&mixed), right(&mixed), true),
        ("mixed-vs-str", left(&mixed), right(&text), true),
    ]
}

/// The hash kernels called directly on [`key_code_operands`], single
/// and composite keys: `kernel::join`,
/// `kernel::project_semijoin` at every prefix and `kernel::group_join`
/// at every non-empty prefix equal the definitions.
#[test]
fn hash_kernels_key_on_joint_codes() {
    let thetas = [Condition::eq(2, 1), Condition::eq_pairs([(2, 1), (3, 2)])];
    for (name, r, s, partners) in key_code_operands() {
        for theta in &thetas {
            let join = brute_join(&r, &s, theta);
            let semi = brute_semijoin(&r, &s, theta);
            assert_eq!(!join.is_empty(), partners, "{name} {theta}: partners");
            let what = format!("{theta} on {name}");
            let j = kernel::join(&r, &s, theta, EXEC, WORKERS);
            assert_eq!(j, join, "join {what}");
            for k in 0..=r.arity() {
                let p = kernel::project_semijoin(&r, &s, theta, k);
                assert_eq!(p, brute_prefixes(&semi, k), "π[1..{k}]∘semijoin {what}");
                if k >= 1 {
                    let g = kernel::group_join(&r, &s, theta, k);
                    assert_eq!(g, brute_prefix_counts(&join, k), "γ[1..{k}]∘join {what}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine end to end: the kernels behind the planner ≡ the row evaluator
// ---------------------------------------------------------------------------

/// Queries exercising every operator the kernel layer serves.
fn engine_queries() -> Vec<Expr> {
    vec![
        Expr::rel("R").select_eq(1, 2),
        Expr::rel("R").select_lt(1, 2),
        Expr::rel("R")
            .join(Condition::eq(1, 1), Expr::rel("S"))
            .project([1, 2]),
        Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([2, 1]),
        Expr::rel("R").semijoin(Condition::eq(1, 1), Expr::rel("S")),
        Expr::rel("R").semijoin(Condition::lt(1, 2), Expr::rel("S")),
        sj_algebra::division::division_double_difference("R", "T"),
        sj_algebra::division::division_counting("R", "T"),
    ]
}

/// Every optimize level: `Strategy::Planned` (the kernels)
/// byte-identical to `Strategy::Naive` (the row operators, one at a
/// time), on a real workload, on every adversarial operand pair, and on
/// 3 000-row operands.
#[test]
fn engine_vectorized_equals_row_at_a_time() {
    use sj_workload::{DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist};
    let workload_db = {
        let div = DivisionWorkload {
            groups: 150,
            divisor_size: 6,
            containment_fraction: 0.4,
            extra_per_group: 2,
            noise_domain: 48,
            seed: 0xD1FFE4E7,
        }
        .database();
        let (s, _) = SetJoinWorkload {
            r_groups: 80,
            s_groups: 80,
            set_size: SetSizeDist::Uniform(2, 6),
            domain: 32,
            elements: ElementDist::Uniform,
            seed: 0x5E7D1FF,
        }
        .generate();
        let mut db = Database::new();
        db.set("R", div.get("R").unwrap().clone());
        db.set("T", div.get("S").unwrap().clone());
        db.set("S", s);
        db
    };
    let mut dbs: Vec<(String, Database)> = vec![("division-workload".into(), workload_db)];
    let mut operands = operand_pairs();
    operands.push((
        "large".into(),
        pairs((0..3000).map(|i| [i % 211, i])),
        pairs((0..3000).map(|i| [i % 197, i % 89])),
    ));
    for (name, r, s) in operands {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db.set("T", Relation::from_int_rows(&[&[5], &[9]]));
        dbs.push((format!("operands-{name}"), db));
    }
    for (dbname, db) in &dbs {
        for e in engine_queries() {
            for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
                let run = |strategy: Strategy| {
                    Engine::new(db.clone())
                        .optimize(level)
                        .strategy(strategy)
                        .query(e.clone())
                        .run()
                        .unwrap()
                        .relation
                };
                assert_eq!(
                    run(Strategy::Planned),
                    run(Strategy::Naive),
                    "{dbname} {e} {level:?}"
                );
            }
        }
    }
}

/// Queries over `R/2`, `S/2` whose consumer keeps a key prefix, each with
/// the number of fused nodes (`…+project`, `…group-join`) its plan holds
/// at `[OptimizeLevel::Off, OptimizeLevel::Full]`. The near misses plan
/// unfused.
fn prefix_consumer_corpus(c: &Value) -> Vec<(&'static str, Expr, [usize; 2])> {
    let (r, s) = (Expr::rel("R"), Expr::rel("S"));
    let semi = |theta: Condition| r.clone().semijoin(theta, s.clone());
    let join = |theta: Condition| r.clone().join(theta, s.clone());
    let shared = semi(Condition::eq(2, 1));
    vec![
        ("π₁ ⋉ hash", semi(Condition::eq(2, 1)).project([1]), [1, 1]),
        ("π₁ ⋉ 1=1", semi(Condition::eq(1, 1)).project([1]), [1, 1]),
        (
            "π₁ ⋉ residual ≠",
            semi(Condition::eq(2, 1).and(1, CompOp::Neq, 2)).project([1]),
            [1, 1],
        ),
        (
            "π₁ ⋉ no equality",
            semi(Condition::lt(1, 2)).project([1]),
            [1, 1],
        ),
        ("π₁,₂ ⋉", semi(Condition::eq(2, 1)).project([1, 2]), [1, 1]),
        (
            "π₁ σ₂₌c",
            r.clone().select_const(2, c.clone()).project([1]),
            [1, 1],
        ),
        ("π₁ σ₁<₂", r.clone().select_lt(1, 2).project([1]), [1, 1]),
        (
            "γ₁ ⋈ hash",
            join(Condition::eq(2, 1)).group_count([1]),
            [1, 1],
        ),
        (
            "γ₁ ⋈ residual <",
            join(Condition::eq(2, 1).and(1, CompOp::Lt, 2)).group_count([1]),
            [1, 1],
        ),
        (
            "γ₁ ⋈ no equality",
            join(Condition::neq(1, 1)).group_count([1]),
            [1, 1],
        ),
        (
            "γ₁,₂ ⋈",
            join(Condition::eq(1, 1)).group_count([1, 2]),
            [1, 1],
        ),
        // The semijoin reduction makes the outer `π₁(· ⋈ γ[](S))` a ⋉.
        (
            "counting division",
            sj_algebra::division::division_counting("R", "S"),
            [1, 2],
        ),
        ("π₁ ⋈", join(Condition::eq(2, 1)).project([1]), [0, 1]),
        (
            "shared consumer",
            shared
                .clone()
                .project([1])
                .union(shared.clone().project([1])),
            [1, 1],
        ),
        (
            "near miss: π₂",
            semi(Condition::eq(2, 1)).project([2]),
            [0, 0],
        ),
        (
            "near miss: π[2,1]",
            semi(Condition::eq(2, 1)).project([2, 1]),
            [0, 0],
        ),
        (
            "near miss: γ into B",
            join(Condition::eq(2, 1)).group_count([1, 2, 3]),
            [0, 0],
        ),
        (
            "near miss: γ[]",
            join(Condition::eq(2, 1)).group_count([]),
            [0, 0],
        ),
        (
            "near miss: shared ⋉",
            shared.clone().project([1]).union(shared.project([2])),
            [0, 0],
        ),
    ]
}

/// A seeded database over `R/2`, `S/2` with cells in `1..=4`, as integers
/// or (with `strings`) their decimal strings; `empty` empties one side.
fn prefix_consumer_db(seed: u64, strings: bool, empty: Option<&str>) -> Database {
    let mut rng = SplitMix64::new(seed);
    let cell = |v: i64| {
        if strings {
            Value::str(format!("{v}"))
        } else {
            Value::int(v)
        }
    };
    let mut db = Database::new();
    for name in ["R", "S"] {
        let n = if empty == Some(name) {
            0
        } else {
            rng.below(14) as usize
        };
        let rows: Vec<Tuple> = (0..n)
            .map(|_| Tuple::new(vec![cell(rng.range_i64(1, 4)), cell(rng.range_i64(1, 4))]))
            .collect();
        db.set(name, Relation::from_tuples(2, rows).unwrap());
    }
    db
}

/// Every engine configuration answers every prefix-consumer query exactly
/// as the reference evaluator does, and every plan fuses exactly where
/// the corpus says.
#[test]
fn every_engine_agrees_on_prefix_consumers() {
    for seed in 0..8u64 {
        for empty in [None, Some("R"), Some("S")] {
            let strings = seed % 2 == 1;
            let db = prefix_consumer_db(seed, strings, empty);
            let c = db
                .get("R")
                .unwrap()
                .iter()
                .next()
                .map_or(Value::int(1), |t| t[1].clone());
            let corpus = prefix_consumer_corpus(&c);
            let expected: Vec<Relation> = corpus
                .iter()
                .map(|(_, e, _)| evaluate_reference(e, &db).unwrap())
                .collect();
            for (label, engine) in common::engines(&db) {
                let full = label.contains("/full/");
                for ((name, e, fused), want) in corpus.iter().zip(&expected) {
                    let what = format!("{name} under {label}, seed {seed} {empty:?}");
                    let out = engine.query(e.clone()).run().unwrap();
                    assert_eq!(&out.relation, want, "{what}");
                    let Some(plan) = out.plan else { continue };
                    let fused_nodes = plan
                        .nodes()
                        .iter()
                        .filter(|n| {
                            n.op.name().ends_with("+project") || n.op.name().ends_with("group-join")
                        })
                        .count();
                    assert_eq!(
                        fused_nodes,
                        fused[usize::from(full)],
                        "{what}:\n{}",
                        plan.explain()
                    );
                }
            }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random relations and conditions: every kernel equals its row
    /// counterpart.
    #[test]
    fn vectorized_ops_equal_row_ops_on_random_relations(
        r in arb_relation(2),
        s in arb_relation(2),
        ci in 0usize..3,
    ) {
        let theta = [Condition::eq(1, 1), Condition::eq(2, 2), Condition::eq(2, 1)][ci].clone();
        let sel = Selection::Eq(1, 2);
        prop_assert_eq!(ops_vec::select(&r, &sel), ops::select(&r, &sel));
        prop_assert_eq!(
            kernel::join(&r, &s, &theta, EXEC, WORKERS),
            ops::join(&r, &s, &theta),
            "join"
        );
        prop_assert_eq!(
            kernel::semijoin(&r, &s, &theta, EXEC, WORKERS),
            ops::semijoin(&r, &s, &theta),
            "semijoin"
        );
        prop_assert_eq!(
            kernel::project_semijoin(&r, &s, &theta, 1),
            ops::project(&ops::semijoin(&r, &s, &theta), &[1]),
            "π₁∘semijoin"
        );
        prop_assert_eq!(
            kernel::group_join(&r, &s, &theta, 1),
            ops::group_count(&ops::join(&r, &s, &theta), &[1]),
            "γ₁∘join"
        );
    }
}
