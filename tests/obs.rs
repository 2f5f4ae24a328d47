//! Workspace observability suite: instrumentation must be
//! **differentially invisible** — turning [`Instrument::Cardinalities`] on
//! or installing a trace collector never changes an answer — while the
//! rendered artifacts (planned reports, query profiles, served traces,
//! the Prometheus-style exposition) keep the shape golden tests can
//! pin.

use setjoins::obs::{RingCollector, SpanRecord};
use setjoins::prelude::*;
use setjoins::server::{CacheMode, Server, ServerConfig, WriteOp};
use sj_algebra::division;
use sj_workload::DivisionWorkload;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Every test here serializes on one lock: the trace collector is a
/// process-wide resource, so a test that installs one would otherwise
/// capture spans emitted by its concurrently-running neighbours.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn division_db() -> Database {
    DivisionWorkload {
        groups: 160,
        divisor_size: 8,
        containment_fraction: 0.3,
        extra_per_group: 3,
        noise_domain: 64,
        seed: 0x0B5E7,
    }
    .database()
}

/// The tentpole invariant: `Instrument::Off`, `Instrument::Cardinalities`,
/// and a run under an installed [`RingCollector`] produce byte-identical
/// relations on the paper's division plans.
#[test]
fn observability_is_differentially_invisible() {
    let _guard = lock();
    let db = division_db();
    let plans = [
        division::division_double_difference("R", "S"),
        division::division_counting("R", "S"),
        division::division_equality("R", "S"),
    ];
    for e in &plans {
        let reference = Engine::new(db.clone())
            .query(e.clone())
            .run()
            .unwrap()
            .relation;
        let build = || Engine::new(db.clone()).strategy(Strategy::Planned);
        let off = build().query(e.clone()).run().unwrap().relation;
        assert_eq!(off, reference, "{e}: Off ≠ reference");

        let profiled = build()
            .instrument(Instrument::Cardinalities)
            .query(e.clone())
            .run()
            .unwrap();
        assert_eq!(
            profiled.relation, reference,
            "{e}: Cardinalities ≠ reference"
        );
        assert!(profiled.report.is_some(), "instrumented ⇒ a report");

        let ring = Arc::new(RingCollector::new(1 << 14));
        let collected = setjoins::obs::with_collector(ring.clone(), || {
            build().query(e.clone()).run().unwrap().relation
        });
        assert_eq!(collected, reference, "{e}: collector-on ≠ reference");
        assert!(!ring.log().is_empty(), "collector captured engine spans");
    }
}

/// Satellite golden: every node line of [`Report::render`] carries the
/// sharing count (`×occ`) followed by the node's self time and nothing
/// else, and the header ends with the plan vs tree size and the
/// end-to-end time.
#[test]
fn planned_report_render_marks_every_node() {
    let _guard = lock();
    let db = division_db();
    let out = Engine::new(db)
        .strategy(Strategy::Planned)
        .instrument(Instrument::Cardinalities)
        .query(division::division_double_difference("R", "S"))
        .run()
        .unwrap();
    let report = out.report.expect("instrumented ⇒ a report");
    let stable = report.render_stable();
    let mut lines = stable.lines();
    let header = lines.next().expect("a header");
    let sizes = format!(
        "{} plan nodes for {} tree nodes, elapsed -",
        report.nodes.len(),
        report.expr_nodes
    );
    assert!(header.ends_with(&sizes), "{header:?}");
    let node_lines: Vec<&str> = lines.collect();
    assert_eq!(node_lines.len(), report.nodes.len(), "one line per node");
    for (line, node) in node_lines.iter().zip(&report.nodes) {
        let tail = format!("  ×{}  -", node.occurrences);
        assert!(line.ends_with(&tail), "sharing, then self time: {line:?}");
    }
}

/// [`Report::render_stable`] is byte-identical across two runs of
/// the same configuration (timings masked), and the timed render
/// carries estimates, q-errors, sharing and wall-clock.
#[test]
fn query_profile_render_is_deterministic_and_complete() {
    let _guard = lock();
    let db = division_db();
    let run = || {
        Engine::new(db.clone())
            .strategy(Strategy::Planned)
            .instrument(Instrument::Cardinalities)
            .query(division::division_double_difference("R", "S"))
            .run()
            .unwrap()
            .report
            .expect("instrumented ⇒ a report")
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.render_stable(),
        b.render_stable(),
        "stable render varies between identical runs"
    );
    assert!(a.render_stable().contains("elapsed -"));
    let text = a.render();
    assert!(text.starts_with("profile:"), "header: {text}");
    for needle in ["est≈", "q-error", "  ×", "µs"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// One served query yields one connected trace on the worker's thread:
/// `server.dispatch → {storage.snapshot, server.query → {stats.analyze,
/// plan.node → kernel.* / setjoin.division}}`, every edge a direct
/// parent, with the exit attributes on every span: tier and output rows
/// on the query, rows on each plan node, output rows on each kernel
/// call. The first query lowers to a division node, the second is an
/// equi-join whose plan runs a `kernel.join`. The cache is off, so every
/// query plans — and
/// planning is where ANALYZE hides: a query reading a relation the
/// catalog has not analyzed at its current `Arc` (first use, or first
/// use after an insert) has a `stats.analyze` span under its
/// `server.query`; a repeat on unchanged relations has none.
#[test]
fn served_queries_trace_the_full_hierarchy() {
    let _guard = lock();
    let mut db = division_db();
    let expected = Engine::new(db.clone())
        .query(division::division_double_difference("R", "S"))
        .run()
        .unwrap()
        .relation;
    let n = 12_000i64;
    let ints = |f: fn(i64) -> i64| {
        Relation::from_tuples(2, (0..n).map(|i| Tuple::from_ints(&[i, f(i)]))).unwrap()
    };
    db.set("E", ints(|i| i));
    db.set("F", ints(|i| i + 1));
    let (r_rows, s_rows) = (db.get("R").unwrap().len(), db.get("S").unwrap().len());
    let server = Server::start(
        db,
        ServerConfig {
            workers: 1,
            cache: CacheMode::Off,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    let ring = Arc::new(RingCollector::new(1 << 14));
    let rows = setjoins::obs::with_collector(ring.clone(), || {
        let division = || {
            session
                .query(division::division_double_difference("R", "S"))
                .unwrap()
        };
        let resp = division();
        assert_eq!(*resp.relation, expected);
        let joined = session
            .query(Expr::rel("E").join_eq([(2, 1)], Expr::rel("F")))
            .unwrap();
        assert_eq!(joined.relation.len(), n as usize);
        division(); // R and S unchanged: the catalog is current
        session
            .write(WriteOp::Insert {
                relation: "R".into(),
                tuple: Tuple::from_ints(&[-1, -1]),
            })
            .unwrap();
        division(); // R copied on write: re-analyzed, S is not
        resp.relation.len()
    });
    server.shutdown();
    let log = ring.log();
    assert_eq!(log.evicted, 0, "ring sized for all four traces");
    assert_eq!(log.spans("server.dispatch").count(), 4);
    let queries: Vec<_> = log.spans("server.query").collect();
    assert_eq!(queries.len(), 4);
    // Rows of every relation ANALYZEd under each query, ascending.
    let analyzed: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            let mut rows: Vec<u64> = log
                .spans("stats.analyze")
                .filter(|a| {
                    std::iter::successors(Some(*a), |s| s.parent.and_then(|p| log.get(p)))
                        .any(|s| s.id == q.id)
                })
                .map(|a| a.attr_u64("rows").expect("stats.analyze carries rows"))
                .collect();
            rows.sort_unstable();
            rows
        })
        .collect();
    assert!(s_rows < r_rows, "the divisor is the smaller relation");
    assert_eq!(
        analyzed[0],
        [s_rows as u64, r_rows as u64],
        "first use analyzes R and S"
    );
    assert_eq!(analyzed[1], [n as u64, n as u64], "first use of E and F");
    assert!(analyzed[2].is_empty(), "repeat on unchanged relations");
    assert_eq!(analyzed[3], [r_rows as u64 + 1], "only R changed");
    assert_eq!(
        log.spans("stats.analyze").count(),
        5,
        "every ANALYZE hangs off the query that paid for it"
    );
    assert_eq!(
        queries[0].attr("tier").map(ToString::to_string).as_deref(),
        Some("cold")
    );
    assert_eq!(queries[0].attr_u64("out_rows"), Some(rows as u64));
    assert!(
        log.spans("storage.snapshot")
            .any(|s| log.has_ancestor(s, "server.dispatch")),
        "snapshot capture traced under dispatch"
    );
    let parent_name = |r: &SpanRecord| r.parent.and_then(|p| log.get(p)).map(|p| p.name);
    assert!(
        queries
            .iter()
            .all(|q| parent_name(q) == Some("server.dispatch")),
        "every query span is its dispatch's child"
    );
    assert!(queries
        .iter()
        .all(|q| q.attr("tier").is_some() && q.attr_u64("out_rows").is_some()));
    let nodes: Vec<_> = log.spans("plan.node").collect();
    assert!(!nodes.is_empty(), "plan nodes traced");
    for node in &nodes {
        assert_eq!(parent_name(node), Some("server.query"), "{node:?}");
        assert!(node.attr_u64("rows").is_some(), "exit rows: {node:?}");
    }
    let calls: Vec<_> = log
        .records
        .iter()
        .filter(|r| r.name.starts_with("kernel.") || r.name.starts_with("setjoin."))
        .collect();
    for name in ["kernel.join", "setjoin.division"] {
        assert!(calls.iter().any(|c| c.name == name), "{name} traced");
    }
    for call in &calls {
        assert_eq!(parent_name(call), Some("plan.node"), "{call:?}");
        assert!(call.attr_u64("out_rows").is_some(), "exit rows: {call:?}");
    }
}

/// [`Server::metrics_text`] exposes the serving series with correct
/// counts and is byte-stable between scrapes with no traffic in
/// between.
#[test]
fn metrics_text_is_stable_and_complete() {
    let _guard = lock();
    let server = Server::start(
        division_db(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    let e = division::division_double_difference("R", "S");
    session.query(e.clone()).unwrap();
    session.query(e).unwrap(); // second hit answers from the result cache
    let text = server.metrics_text();
    for needle in [
        "sj_server_queries_total 2",
        "sj_server_cache_hits_total{tier=\"result\"} 1",
        "sj_server_queries_by_class_total{class=\"difference\"} 2",
        // One, not two: only the cold query was a job. The result-cache
        // hit was answered inline on this thread and never queued.
        "sj_server_queue_wait_seconds_count 1",
        "sj_server_query_seconds",
        "sj_server_max_q_error",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    assert_eq!(
        text,
        server.metrics_text(),
        "exposition drifts between idle scrapes"
    );
    server.shutdown();
}
