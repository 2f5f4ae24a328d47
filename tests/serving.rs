//! End-to-end serving suite over the umbrella crate: the [`Server`]
//! must be a transparent layer — every answer it returns, at every
//! worker count and cache mode, is byte-identical to a direct
//! [`Engine`] run over the same database state.

use setjoins::prelude::*;
use setjoins::server::{CacheMode, Provenance, Server, ServerConfig, WriteOp};
use sj_workload::{ServingWorkload, TraceOp};

mod common;
use common::WORKER_COUNTS;

fn workload() -> ServingWorkload {
    ServingWorkload {
        groups: 40,
        divisor_size: 6,
        hot_queries: 10,
        ops: 80,
        seed: 0x5EAF00D,
        ..ServingWorkload::default()
    }
}

/// The mixed read/write/ANALYZE trace, replayed at every worker count:
/// each query answer equals a direct engine over a locally-maintained
/// copy of the evolving database, and the final databases agree.
#[test]
fn served_answers_equal_direct_engine_at_every_worker_count() {
    let w = workload();
    let trace = w.trace();
    for workers in WORKER_COUNTS {
        let server = Server::start(
            w.database(),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        let session = server.session();
        let mut local = w.database();
        for (i, op) in trace.iter().cloned().enumerate() {
            match op {
                TraceOp::Query(e) => {
                    let served = session.query(e.clone()).expect("served query");
                    let direct = Engine::new(local.clone())
                        .query(e.clone())
                        .run()
                        .expect("direct query");
                    assert_eq!(
                        *served.relation, direct.relation,
                        "op {i} @{workers} workers: server ≠ direct for {e}"
                    );
                }
                TraceOp::Insert { relation, tuple } => {
                    local
                        .insert(&relation, tuple.clone())
                        .expect("local insert");
                    session
                        .write(WriteOp::Insert { relation, tuple })
                        .expect("served insert");
                }
                TraceOp::Analyze => {
                    session.write(WriteOp::Analyze).expect("served analyze");
                }
            }
        }
        let stats = server.stats();
        assert!(
            stats.result_hits > 0,
            "@{workers} workers: zipf trace should hit the result cache: {stats:?}"
        );
        assert_eq!(server.shutdown(), local, "@{workers} workers: final states");
    }
}

/// Estimator error on the serving pool: one cold, instrumented pass of
/// the default pool. The two RA division idioms run as one division node
/// each, whose estimate (the dividend's group count) keeps both runs
/// within [`Q_ERROR_BUDGET`](setjoins::eval::Q_ERROR_BUDGET), and so do
/// the six semijoin-family queries `π₁(R ⋉[2=1] (S − σ₁₌c(S)))`, whose
/// semijoin runs fused with its projection.
#[test]
fn lowered_division_queries_stay_within_the_q_error_budget() {
    let w = ServingWorkload::default();
    let server = Server::start(
        w.database(),
        ServerConfig {
            cache: CacheMode::Off,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    let over_budget = || {
        server
            .metrics()
            .counter("sj_server_q_error_over_budget_total")
            .get()
    };
    let lowered = [
        setjoins::algebra::division::division_double_difference("R", "S"),
        setjoins::algebra::division::division_equality("R", "S"),
    ];
    let mut semijoin_family = 0;
    for e in w.query_pool() {
        let before = over_budget();
        let resp = session.query_profiled(e.clone()).expect("pool query");
        let profile = resp.profile.expect("profiled");
        if lowered.contains(&e) {
            assert!(profile.contains("divide["), "{e}:\n{profile}");
            assert_eq!(over_budget(), before, "{e}:\n{profile}");
        }
        if matches!(&e, Expr::Project(_, inner) if matches!(**inner, Expr::Semijoin(..))) {
            semijoin_family += 1;
            assert!(profile.contains("hash-semijoin+project"), "{e}:\n{profile}");
            assert_eq!(over_budget(), before, "{e}:\n{profile}");
        }
    }
    assert_eq!(semijoin_family, 6);
}

/// Serving smoke: the default server config over a paper figure — cold,
/// plan-cached and result-cached runs of the Fig. 1 division query all
/// agree with the engine, and provenance progresses through the tiers.
#[test]
fn serving_smoke_on_fig1() {
    let db = setjoins::workload::figures::fig1();
    let e = setjoins::algebra::division::division_double_difference("Person", "Symptoms");
    let expected = Engine::new(db.clone())
        .query(e.clone())
        .run()
        .expect("reference")
        .relation;

    let server = setjoins::server::serve(db);
    let session = server.session();
    let cold = session.query(e.clone()).expect("cold");
    assert_eq!(*cold.relation, expected);
    assert_eq!(cold.provenance, Provenance::Cold);
    let hot = session.query(e.clone()).expect("hot");
    assert_eq!(*hot.relation, expected);
    assert_eq!(hot.provenance, Provenance::ResultCache);

    // Cache off: same answers, always cold.
    let server = Server::start(
        setjoins::workload::figures::fig1(),
        ServerConfig {
            cache: CacheMode::Off,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    for _ in 0..2 {
        let resp = session.query(e.clone()).expect("uncached");
        assert_eq!(*resp.relation, expected);
        assert_eq!(resp.provenance, Provenance::Cold);
    }
}
