//! Concurrency differential suite: the server under concurrent readers
//! and a churning writer must serve exactly what a direct [`Engine`]
//! over the same snapshot computes — and the caches must never change
//! an answer, only its provenance.
//!
//! All tests are fixed-seed and deterministic in their *inputs*; thread
//! interleavings vary, which is the point — every interleaving must
//! satisfy the differential invariants.

use proptest::prelude::*;
use sj_algebra::{division, Expr};
use sj_eval::Engine;
use sj_server::{CacheMode, Server, ServerConfig, WriteOp};
use sj_storage::{Database, Relation, Tuple};
use sj_workload::{ServingWorkload, TraceOp, ELEMENT_BASE};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn config(workers: usize, cache: CacheMode) -> ServerConfig {
    ServerConfig {
        workers,
        cores: workers,
        cache,
        ..ServerConfig::default()
    }
}

/// The serving shape used across this suite.
fn workload() -> ServingWorkload {
    ServingWorkload {
        groups: 32,
        divisor_size: 5,
        hot_queries: 8,
        ops: 120,
        seed: 0xC0FFEE,
        ..ServingWorkload::default()
    }
}

/// N reader sessions pin snapshots and diff every pooled query against
/// a direct engine over that same snapshot, while a writer keeps
/// inserting into `R` and re-ANALYZing. Snapshot isolation means every
/// reader must agree with its own frozen database no matter what the
/// writer does.
#[test]
fn readers_agree_with_direct_engine_on_their_snapshot_while_writer_churns() {
    let w = workload();
    let server = Server::start(w.database(), config(4, CacheMode::PlanAndResult));
    let pool = w.query_pool();
    let writer = server.session();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..40i64 {
                writer
                    .write(WriteOp::Insert {
                        relation: "R".into(),
                        tuple: Tuple::from_ints(&[1 + i % 32, ELEMENT_BASE + 900 + i]),
                    })
                    .expect("writer insert");
                if i % 10 == 9 {
                    writer.write(WriteOp::Analyze).expect("writer analyze");
                }
            }
        });
        for _ in 0..4 {
            let session = server.session();
            let pool = &pool;
            scope.spawn(move || {
                for _round in 0..6 {
                    let txn = session.begin();
                    let direct = Engine::new(txn.snapshot().db().clone());
                    for e in pool {
                        let served = txn.query(e.clone()).expect("txn query");
                        let reference = direct.query(e.clone()).run().expect("direct query");
                        assert_eq!(
                            *served.relation, reference.relation,
                            "server ≠ direct engine on pinned snapshot for {e}"
                        );
                        assert_eq!(served.epoch, txn.epoch());
                    }
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.queries, 4 * 6 * pool.len() as u64);
    assert_eq!(stats.writes, 40);
    assert_eq!(stats.analyzes, 4);
}

/// The full mixed trace (queries, inserts, ANALYZEs) replayed through
/// three pipelines in lockstep — a cache-on server, a cache-off server,
/// and a plain engine over a locally-maintained database — must produce
/// byte-identical relations at every query step, and identical final
/// databases.
#[test]
fn trace_replay_cache_on_equals_cache_off_equals_direct() {
    let w = workload();
    let cached = Server::start(w.database(), config(2, CacheMode::PlanAndResult));
    let uncached = Server::start(w.database(), config(2, CacheMode::Off));
    let mut local = w.database();
    let cached_session = cached.session();
    let uncached_session = uncached.session();

    for (i, op) in w.trace().into_iter().enumerate() {
        match op {
            TraceOp::Query(e) => {
                let a = cached_session.query(e.clone()).expect("cached query");
                let b = uncached_session.query(e.clone()).expect("uncached query");
                let c = Engine::new(local.clone())
                    .query(e.clone())
                    .run()
                    .expect("direct query");
                assert_eq!(
                    *a.relation, *b.relation,
                    "op {i}: cache changed answer for {e}"
                );
                assert_eq!(*b.relation, c.relation, "op {i}: server ≠ direct for {e}");
            }
            TraceOp::Insert { relation, tuple } => {
                local
                    .insert(&relation, tuple.clone())
                    .expect("local insert");
                cached_session
                    .write(WriteOp::Insert {
                        relation: relation.clone(),
                        tuple: tuple.clone(),
                    })
                    .expect("cached insert");
                uncached_session
                    .write(WriteOp::Insert { relation, tuple })
                    .expect("uncached insert");
            }
            TraceOp::Analyze => {
                cached_session
                    .write(WriteOp::Analyze)
                    .expect("cached analyze");
                uncached_session
                    .write(WriteOp::Analyze)
                    .expect("uncached analyze");
            }
        }
    }
    assert!(
        cached.stats().result_hits > 0,
        "zipf-skewed trace should produce result-cache hits"
    );
    assert_eq!(cached.shutdown(), uncached.shutdown());
}

/// Concurrent sessions hammering the *same* hot query must all get the
/// correct answer whether they are served cold, from the plan tier, or
/// from the result tier — under every worker count.
#[test]
fn hot_query_is_correct_under_every_worker_count() {
    let w = workload();
    let e = division::division_double_difference("R", "S");
    let expected = Engine::new(w.database())
        .query(e.clone())
        .run()
        .expect("reference")
        .relation;
    for n in [1usize, 2, 4, 8] {
        let server = Server::start(w.database(), config(n, CacheMode::PlanAndResult));
        std::thread::scope(|scope| {
            for _ in 0..n.max(2) {
                let session = server.session();
                let e = &e;
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let resp = session.query(e.clone()).expect("hot query");
                        assert_eq!(
                            *resp.relation,
                            *expected,
                            "@{} workers",
                            session.stats().queries
                        );
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.queries, (n.max(2) * 8) as u64);
        assert!(
            stats.result_hits >= stats.queries - (n.max(2) as u64),
            "at most one cold/plan execution per worker burst: {stats:?}"
        );
    }
}

/// Un-pinned reads racing a writer — the path where a result-cache hit
/// is answered inline on the reader's own thread, validated against the
/// live epochs instead of a snapshot. Every response claims an epoch;
/// its relation must be exactly what a direct engine computes on the
/// database *as of that epoch* (so a hit that outlived an insert it
/// depends on is caught on the spot), and no reader may see the epoch
/// go backwards.
#[test]
fn unpinned_reads_are_exact_at_their_epoch_while_a_writer_inserts() {
    const INSERTS: i64 = 24;
    let w = workload();
    let server = Server::start(w.database(), config(2, CacheMode::PlanAndResult));
    let pool = w.query_pool();
    let writer = server.session();
    let done = AtomicBool::new(false);
    // Reads answered so far; the writer paces itself on it so that the
    // inserts land *between* reads whatever the scheduler does.
    let reads = AtomicU64::new(0);

    // The database at every epoch the server passes through, replayed
    // locally in lockstep with the (single) writer.
    let mut local = w.database();
    let mut states = BTreeMap::from([(server.snapshot().epoch(), local.clone())]);

    let observed: Vec<(usize, u64, Arc<Relation>)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let session = server.session();
                let (pool, done, reads) = (&pool, &done, &reads);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut last_epoch = 0;
                    // Keep reading until the writer is through, and at
                    // least one full pass over the pool after that.
                    let mut passes_after_done = 0;
                    while passes_after_done < 2 {
                        if done.load(Ordering::Acquire) {
                            passes_after_done += 1;
                        }
                        for i in 0..pool.len() {
                            let q = (i + r) % pool.len();
                            let resp = session.query(pool[q].clone()).expect("read");
                            assert!(
                                resp.epoch >= last_epoch,
                                "reader {r}: epoch went backwards, {last_epoch} → {}",
                                resp.epoch
                            );
                            last_epoch = resp.epoch;
                            seen.push((q, resp.epoch, resp.relation));
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    seen
                })
            })
            .collect();
        for i in 0..INSERTS {
            while reads.load(Ordering::Relaxed) < (i as u64 + 1) * 16 {
                std::thread::yield_now();
            }
            let tuple = Tuple::from_ints(&[1 + i % 32, ELEMENT_BASE + 700 + i]);
            local.insert("R", tuple.clone()).expect("local insert");
            let epoch = writer
                .write(WriteOp::Insert {
                    relation: "R".into(),
                    tuple,
                })
                .expect("writer insert");
            states.insert(epoch, local.clone());
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .flat_map(|reader| reader.join().expect("reader"))
            .collect()
    });
    assert_eq!(states.len() as i64, INSERTS + 1, "one epoch per insert");

    let mut expected: BTreeMap<(usize, u64), Relation> = BTreeMap::new();
    for (q, epoch, relation) in &observed {
        let reference = expected.entry((*q, *epoch)).or_insert_with(|| {
            let db = states
                .get(epoch)
                .expect("response epoch is a written epoch");
            Engine::new(db.clone())
                .query(pool[*q].clone())
                .run()
                .expect("direct query")
                .relation
        });
        assert_eq!(
            **relation, *reference,
            "served ≠ direct engine at epoch {epoch} for {}",
            pool[*q]
        );
    }
    let final_epoch = *states.keys().last().expect("states");
    assert!(
        observed.iter().any(|(_, epoch, _)| *epoch == final_epoch),
        "reads continued past the last insert"
    );
    let stats = server.stats();
    assert_eq!(stats.queries, observed.len() as u64);
    assert!(stats.result_hits > 0, "the hit path was exercised");
}

/// A herd: many clients released together on one query nobody has run.
/// All of them miss inline and queue, but an inline miss counts nothing
/// — each query is counted once, by the worker that serves it — and the
/// workers' own re-probe means only the jobs dequeued before the first
/// one finishes execute: at most one per worker, not one per client.
#[test]
fn a_herd_on_one_cold_query_executes_once_per_worker_at_most() {
    const CLIENTS: usize = 8;
    const WORKERS: usize = 2;
    let w = workload();
    let e = division::division_double_difference("R", "S");
    let expected = Engine::new(w.database())
        .query(e.clone())
        .run()
        .expect("reference")
        .relation;
    let server = Server::start(w.database(), config(WORKERS, CacheMode::PlanAndResult));
    let gate = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let session = server.session();
            let (e, expected, gate) = (&e, &expected, &gate);
            scope.spawn(move || {
                gate.wait();
                let resp = session.query(e.clone()).expect("herd query");
                assert_eq!(*resp.relation, *expected);
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries, CLIENTS as u64, "{stats:?}");
    assert!(
        (1..=WORKERS as u64).contains(&stats.executed()),
        "cold + plan-tier executions bounded by the pool, not the herd: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Property tests: caching never changes an answer
// ---------------------------------------------------------------------------

fn arb_relation(arity: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(0i64..6, arity), 0..12).prop_map(
        move |rows| {
            Relation::from_tuples(arity, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
        },
    )
}

fn arb_db() -> impl Strategy<Value = Database> {
    (arb_relation(2), arb_relation(1)).prop_map(|(r, s)| {
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db
    })
}

/// One step of a random serving script (see the proptest below).
#[derive(Clone, Debug)]
enum Step {
    Query(usize),
    /// Into `R`: patches the local pool entries, drops the rest.
    Insert(i64, i64),
    /// Into `S`: drops every entry that read it.
    InsertS(i64),
    Analyze,
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    // The vendored proptest stub's `prop_oneof!` is unweighted; repeat
    // the query arm so queries dominate the scripts.
    proptest::collection::vec(
        prop_oneof![
            (0usize..7).prop_map(Step::Query),
            (0usize..7).prop_map(Step::Query),
            (0usize..7).prop_map(Step::Query),
            (0usize..7).prop_map(Step::Query),
            (0usize..7).prop_map(Step::Query),
            (0i64..6, 0i64..6).prop_map(|(g, b)| Step::Insert(g, b)),
            (0i64..6, 0i64..6).prop_map(|(g, b)| Step::Insert(g, b)),
            (0i64..6).prop_map(Step::InsertS),
            Just(Step::Analyze),
        ],
        1..25,
    )
}

fn script_pool() -> Vec<Expr> {
    vec![
        division::division_double_difference("R", "S"),
        division::division_equality("R", "S"),
        division::division_counting("R", "S"),
        Expr::rel("R").project([1]),
        Expr::rel("R").semijoin_eq([(2, 1)], Expr::rel("S")),
        Expr::rel("R").select_eq(1, 2).project([2]),
        // Keeps the group key, but not in column 1: never patched.
        Expr::rel("R").project([2, 1]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random database × random op script: every query answered by the
    /// cache-on server is byte-identical to the cache-off server and to
    /// a direct engine over the evolving database.
    #[test]
    fn caching_never_changes_any_answer(db in arb_db(), script in arb_script()) {
        let pool = script_pool();
        let cached = Server::start(db.clone(), config(1, CacheMode::PlanAndResult));
        let uncached = Server::start(db.clone(), config(1, CacheMode::Off));
        let mut local = db;
        let cs = cached.session();
        let us = uncached.session();
        for step in script {
            match step {
                Step::Query(i) => {
                    let e = pool[i].clone();
                    let a = cs.query(e.clone()).unwrap();
                    let b = us.query(e.clone()).unwrap();
                    let c = Engine::new(local.clone()).query(e.clone()).run().unwrap();
                    prop_assert_eq!(&*a.relation, &*b.relation, "cache on ≠ cache off on {}", &e);
                    prop_assert_eq!(&*b.relation, &c.relation, "server ≠ direct on {}", &e);
                }
                Step::Insert(g, b) => {
                    let t = Tuple::from_ints(&[g, b]);
                    local.insert("R", t.clone()).unwrap();
                    cs.write(WriteOp::Insert { relation: "R".into(), tuple: t.clone() }).unwrap();
                    us.write(WriteOp::Insert { relation: "R".into(), tuple: t }).unwrap();
                }
                Step::InsertS(b) => {
                    let t = Tuple::from_ints(&[b]);
                    local.insert("S", t.clone()).unwrap();
                    cs.write(WriteOp::Insert { relation: "S".into(), tuple: t.clone() }).unwrap();
                    us.write(WriteOp::Insert { relation: "S".into(), tuple: t }).unwrap();
                }
                Step::Analyze => {
                    cs.write(WriteOp::Analyze).unwrap();
                    us.write(WriteOp::Analyze).unwrap();
                }
            }
        }
        prop_assert_eq!(cached.shutdown(), uncached.shutdown());
    }
}
