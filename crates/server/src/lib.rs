//! # sj-server — concurrent snapshot-isolated query serving
//!
//! The serving front end over the paper engine: many concurrent client
//! [`Session`]s run queries against an evolving [`Database`] while
//! writers keep mutating it, with a two-tier plan/result cache making
//! hot (zipf-skewed) query sets nearly free.
//!
//! ```text
//!  clients ──► Session ──► result cache ──hit──► Arc<Relation>   (caller's thread:
//!                              │miss                one lookup, stamps checked
//!                              ▼                    under the read lock)
//!                        bounded queue ──► worker pool (N threads)
//!                                                 │ re-probe, then
//!                  ┌──────────────────────────────┤ snapshot capture
//!                  ▼                              ▼ (read lock, µs)
//!        RwLock<master Database>        plan cache ──hit──► execute plan
//!          ▲ copy-on-write writes          │miss
//!          │ (storage re-stamps R)      Engine::fork(snapshot) — cold
//!        WriteOp (Insert/Set/
//!        Remove/Analyze)
//! ```
//!
//! **Snapshot isolation.** Every query executes against an immutable
//! [`sj_storage::Snapshot`] — one `Arc` clone per relation, zero tuple
//! copies — captured under a brief read lock. Writers mutate the master
//! through the storage layer's copy-on-write (`Arc::make_mut`), so
//! readers never block writers beyond the capture window and a running
//! query never observes a torn write. [`Session::begin`] pins one
//! snapshot across many queries ([`ReadTxn`]).
//!
//! **Cache tiers.** Both keyed by [`sj_algebra::Expr::structural_hash`]
//! *plus a full expression equality check* (collisions degrade to
//! misses, never wrong results):
//!
//! * the **result cache** stamps each entry with the version
//!   ([`Database::version_of`]) of every relation the query reads; a
//!   write to one of them invalidates the entry (eager sweep + stamp
//!   re-validation on hit, against the database the query sees) —
//!   except an insert into `R` when the query is local to `R`'s groups
//!   ([`sj_algebra::Expr::local_to_groups_of`]: division, the §5
//!   counting plan, `π₁(R ⋉ …)`). Such an answer changes only in the
//!   rows keyed by the inserted tuple's first value, so the entry stays,
//!   marked with that key, and the next read re-runs the plan on just
//!   the marked groups of `R` and splices the output into the answer.
//!   A hit never leaves the thread that asked: [`Session::query`]
//!   probes the tier itself and only a miss becomes a queued job;
//! * the **plan cache** stamps entries with the statistics epoch and
//!   operand arities; data writes leave plans valid (a physical plan is
//!   correct for any contents), `ANALYZE` retires them.
//!
//! **Scheduling.** The configured core budget is divided between
//! inter-query concurrency (worker threads) and intra-query partition
//! parallelism (each worker's engine runs with `cores / workers`
//! partition workers) — the engine's [`sj_eval::Parallelism`] knob
//! becomes a server policy instead of a per-query setting.
//!
//! **Observability.** [`Server::stats`] counts queries, per-tier hits,
//! writes, ANALYZEs and queue rejections, and folds the
//! [`sj_eval::Report::max_q_error`] of every query that executed — cold
//! or off a cached plan — into [`StatsSnapshot::max_q_error_seen`]
//! (counting the ones past [`sj_eval::Q_ERROR_BUDGET`] in
//! `sj_server_q_error_over_budget_total`) so cost-model drift shows up
//! in serving dashboards, not just per-query `render()` output. The
//! counters are handles into a shared [`sj_obs::Metrics`] registry
//! that also carries per-tier latency histograms, queue wait and
//! depth, contained worker panics, and per-class query counters —
//! [`Server::metrics_text`] renders the whole registry as a
//! Prometheus-style exposition. Workers open `server.dispatch` /
//! `server.query` spans around every job, and an inline result-cache
//! hit opens a root `server.query` on the caller's thread (zero-cost
//! while no [`sj_obs::Collector`] is installed), so an installed
//! collector sees the full serving hierarchy down to individual kernel
//! partitions;
//! [`Session::query_profiled`] attaches the rendered
//! [`sj_eval::Report`] (`EXPLAIN ANALYZE`) of whichever tier answered
//! to the response.
//!
//! The serving workload driver lives in `sj-workload`
//! (`ServingWorkload`), the throughput measurement in `benchmark/`
//! (workloads `serve-hot`, `serve-cold`, `serve-churn`), and the
//! differential suites in
//! `crates/server/tests/` and the workspace `tests/serving.rs`.

#![warn(missing_docs)]

mod cache;
mod metrics;
mod queue;
mod server;

pub use cache::{ExprCache, ExprHashFn};
pub use metrics::StatsSnapshot;
pub use server::{
    CacheMode, Provenance, QueryResponse, ReadTxn, Server, ServerConfig, ServerError, Session,
    WriteOp,
};

use sj_storage::Database;

/// Convenience: start a server over `db` with the default
/// [`ServerConfig`].
pub fn serve(db: Database) -> Server {
    Server::start(db, ServerConfig::default())
}
