//! # sj-server — concurrent snapshot-isolated query serving
//!
//! The serving front end over the paper engine: many concurrent client
//! [`Session`]s run queries against an evolving [`Database`] while
//! writers keep mutating it, with one cache entry per query — its plan
//! and its answer — making hot (zipf-skewed) query sets nearly free.
//!
//! ```text
//!  clients ──► Session ──► cache entry ──answer──► Arc<Relation>  (caller's thread:
//!                              │ no answer         one lookup, stamps checked
//!                              ▼                   under the read lock)
//!                        bounded queue ──► worker pool (N threads)
//!                                                 │ snapshot capture
//!                  ┌──────────────────────────────┤ (read lock, µs), then
//!                  ▼                              ▼ one lookup: Entry::serve
//!        RwLock<master Database>       answer │ patch │ plan │ cold
//!          ▲ copy-on-write writes        execute, then Entry::store
//!          │ (storage re-stamps R)
//!        WriteOp (Insert/Set/Remove/Analyze) ──► Entry::after on every entry
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
//! **One cache entry, two stamps.** The cache holds one entry per
//! expression, keyed by [`sj_algebra::Expr::structural_hash`] *plus a
//! full expression equality check* (collisions degrade to misses, never
//! wrong results). Its **answer** is stamped with the version
//! ([`Database::version_of`]) of every relation the query read, and a
//! write to one of them drops it — except an insert into `R` when the
//! query is local to `R`'s groups
//! ([`sj_algebra::Expr::local_to_groups_of`]: division, the §5 counting
//! plan, `π₁(R ⋉ …)`): the answer stays, marked with the inserted key,
//! and the next read re-runs the plan on just the marked groups and
//! splices the output in. Its **plan** is stamped with the statistics
//! epoch and operand arities: data writes leave it valid, `ANALYZE`
//! retires it. A run keeps the newer plan and the newer answer, so a
//! transaction pinned in the past never replaces what a live read
//! stored. Every rule of this life cycle is one lock-free function of
//! `entry.rs`; a hit never leaves the thread that asked.
//!
//! **Scheduling.** Concurrency is between queries: `workers` pool
//! threads (one per available core by default), each running a query's
//! plan on its own thread from start to finish. A plan does not fan out
//! inside itself — the paper's plans are linear or quadratic by their
//! intermediates, whatever the thread count.
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
//! collector sees the full serving hierarchy down to the individual
//! kernel calls;
//! [`Session::query_profiled`] attaches the rendered
//! [`sj_eval::Report`] (`EXPLAIN ANALYZE`) of whatever answered to the
//! response.
//!
//! The serving workload driver lives in `sj-workload`
//! (`ServingWorkload`), the throughput measurement in `benchmark/`
//! (workloads `serve-hot`, `serve-cold`, `serve-churn`), and the
//! differential suites in
//! `crates/server/tests/` and the workspace `tests/serving.rs`.

#![warn(missing_docs)]

mod cache;
mod entry;
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
