//! The serving core: master database, worker pool, sessions, and the
//! two cache tiers.
//!
//! # Concurrency model
//!
//! One `RwLock<Master>` guards the **master** database plus its
//! invalidation bookkeeping. Nobody executes queries under that lock:
//! a reader takes the lock only long enough to capture a
//! [`Snapshot`] (one `Arc` clone per relation — microseconds), then
//! executes against the snapshot outside it. Writers take the write
//! lock, mutate copy-on-write (never disturbing live snapshots), bump
//! the per-relation epochs, and leave. Readers therefore never block
//! on query execution and writers never block on readers beyond the
//! capture window — the paper-engine's `Arc<Relation>` copy-on-write
//! storage is what makes this cheap.
//!
//! # Cache tiers
//!
//! * **Result cache** — keyed by the submitted expression, stamped
//!   with the epoch of every relation the expression reads. A hit
//!   skips *everything* (optimize, plan, execute) and returns the
//!   shared result `Arc`. Any write to a referenced relation
//!   invalidates the entry (eagerly swept on write, re-validated by
//!   stamp comparison on hit — so the sweep/insert race with an
//!   in-flight query can never serve a stale result).
//! * **Plan cache** — keyed the same way, stamped with the statistics
//!   epoch and the operand arities. A hit skips optimize+plan and
//!   re-executes the cached physical plan against the current
//!   snapshot (plans resolve scans by *name* at execution, so this is
//!   sound). Data writes leave plans valid — a plan is correct for
//!   any contents, only its operator choices age — but ANALYZE bumps
//!   the stats epoch and retires them, and schema changes
//!   (replace/remove) sweep affected plans eagerly.
//!
//! Both tiers key by [`Expr::structural_hash`] **plus a full
//! expression equality check** ([`crate::cache::ExprCache`]): hash
//! collisions degrade to misses, never wrong results.

use crate::cache::ExprCache;
use crate::metrics::{ServerStats, StatsSnapshot};
use sj_algebra::{Expr, OptimizeLevel};
use sj_eval::{
    Engine, EvalError, Execution, Instrument, Parallelism, PhysicalPlan, QueryProfile, Report,
    Strategy,
};
use sj_obs::{Histogram, Metrics};
use sj_storage::{Database, FxHashMap, Relation, Snapshot, StorageError, Tuple};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The query-class label one expression gets in the per-class metric
/// series (`sj_server_queries_by_class_total{class="..."}`): the root
/// operator of the submitted expression.
fn query_class(expr: &Expr) -> &'static str {
    match expr {
        Expr::Rel(_) => "scan",
        Expr::Union(..) => "union",
        Expr::Diff(..) => "difference",
        Expr::Project(..) => "projection",
        Expr::Select(..) => "selection",
        Expr::ConstTag(..) => "const-tag",
        Expr::Join(..) => "join",
        Expr::Semijoin(..) => "semijoin",
        Expr::GroupCount(..) => "group-count",
    }
}

/// Which cache tiers a server runs with.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// No caching: every query optimizes, plans, and executes.
    Off,
    /// Plan tier only: hot queries skip optimize+plan but always
    /// execute against the current snapshot.
    Plan,
    /// Both tiers (the default): hot queries skip execution entirely
    /// until a write invalidates their result.
    #[default]
    PlanAndResult,
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMode::Off => write!(f, "off"),
            CacheMode::Plan => write!(f, "plan"),
            CacheMode::PlanAndResult => write!(f, "plan+result"),
        }
    }
}

/// Server configuration. `Default` is a production-shaped setup:
/// auto-sized worker pool, both cache tiers, full optimization,
/// instrumented q-error tracking.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Server worker threads (inter-query concurrency). `0` = one per
    /// available core (capped at 8).
    pub workers: usize,
    /// Core budget divided between inter-query concurrency and
    /// intra-query partition parallelism: each query runs with
    /// `max(1, cores / workers)` partition workers. `0` = available
    /// cores (capped at 8). This is the scheduler decision that turns
    /// the engine's [`Parallelism`] knob into policy.
    pub cores: usize,
    /// Bounded submission-queue capacity ([`Session::query`] blocks
    /// when full, [`Session::try_query`] rejects).
    pub queue_capacity: usize,
    /// Which cache tiers run.
    pub cache: CacheMode,
    /// Plan-tier capacity (entries).
    pub plan_cache_capacity: usize,
    /// Result-tier capacity (entries).
    pub result_cache_capacity: usize,
    /// Optimizer level queries are compiled with.
    pub optimize: OptimizeLevel,
    /// Accepted and ignored: [`Execution`] has one value and selects
    /// nothing (see `sj_eval::exec`). Kept because `benchmark/` sets it.
    pub execution: Execution,
    /// Run cold queries instrumented so their
    /// [`sj_eval::PlannedReport::max_q_error`] feeds
    /// [`StatsSnapshot::max_q_error_seen`].
    pub instrument: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            cores: 0,
            queue_capacity: 64,
            cache: CacheMode::default(),
            plan_cache_capacity: 1024,
            result_cache_capacity: 1024,
            optimize: OptimizeLevel::Full,
            execution: Execution::Vectorized,
            instrument: true,
        }
    }
}

/// A mutation applied through [`Server::write`] / [`Session::write`].
/// Typed (rather than a closure) so the server knows exactly which
/// relations changed and can invalidate per relation.
#[derive(Clone, Debug)]
pub enum WriteOp {
    /// Insert one tuple into an existing relation.
    Insert {
        /// Target relation name.
        relation: String,
        /// The tuple to insert.
        tuple: Tuple,
    },
    /// Assign (create or replace) a whole relation.
    Set {
        /// Target relation name.
        relation: String,
        /// The new contents.
        rows: Relation,
    },
    /// Remove a relation.
    Remove {
        /// Target relation name.
        relation: String,
    },
    /// Re-ANALYZE: refresh cached statistics for every relation and
    /// bump the statistics epoch, retiring all cached plans (results
    /// stay valid — statistics never change query answers, only plans).
    Analyze,
}

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Query compilation or execution failed.
    Eval(EvalError),
    /// A write failed in storage (e.g. unknown relation, arity
    /// mismatch).
    Storage(StorageError),
    /// [`Session::try_query`] found the bounded submission queue full.
    QueueFull,
    /// The server has shut down (or its workers are gone).
    Stopped,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Eval(e) => write!(f, "query failed: {e}"),
            ServerError::Storage(e) => write!(f, "write failed: {e}"),
            ServerError::QueueFull => write!(f, "submission queue full"),
            ServerError::Stopped => write!(f, "server stopped"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<EvalError> for ServerError {
    fn from(e: EvalError) -> ServerError {
        ServerError::Eval(e)
    }
}

impl From<StorageError> for ServerError {
    fn from(e: StorageError) -> ServerError {
        ServerError::Storage(e)
    }
}

/// Which tier answered a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Planned from scratch and executed.
    Cold,
    /// Plan-cache hit: skipped optimize+plan, executed.
    PlanCache,
    /// Result-cache hit: skipped execution entirely.
    ResultCache,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Cold => write!(f, "cold"),
            Provenance::PlanCache => write!(f, "plan-cache"),
            Provenance::ResultCache => write!(f, "result-cache"),
        }
    }
}

/// A served query result.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The query result, shared — result-cache hits hand out the same
    /// allocation.
    pub relation: Arc<Relation>,
    /// Which tier produced it.
    pub provenance: Provenance,
    /// The database epoch of the snapshot it was computed against.
    pub epoch: u64,
    /// Wall-clock serving time (capture → answer) on the worker.
    pub elapsed: Duration,
    /// Rendered `EXPLAIN ANALYZE`-style profile
    /// ([`sj_eval::QueryProfile::render`] with the serving tier
    /// attached), present when the query was submitted via
    /// [`Session::query_profiled`]. A result-cache hit profiles as just
    /// the tier line — no plan ran.
    pub profile: Option<String>,
}

/// Per-relation epoch stamps for the relations one expression reads,
/// in sorted name order — the result-cache validity token.
type DepStamps = Vec<(String, u64)>;

/// The master state guarded by the server's `RwLock`.
struct Master {
    db: Database,
    /// `relation name → db.epoch() after its last write`. Relations
    /// never written since startup are implicitly at epoch 0.
    rel_epochs: FxHashMap<String, u64>,
    /// Bumped by [`WriteOp::Analyze`]; plan-cache entries carry the
    /// value they were built under.
    stats_epoch: u64,
}

/// A plan-tier entry: the compiled physical plan plus everything
/// needed to prove it still applies.
#[derive(Clone)]
struct PlanEntry {
    plan: PhysicalPlan,
    /// `(relation, arity)` per referenced relation — a plan is only
    /// reusable while its operands keep their shape.
    deps: Vec<(String, usize)>,
    stats_epoch: u64,
}

/// A result-tier entry: the shared result plus the epoch stamps it was
/// computed under.
#[derive(Clone)]
struct ResultEntry {
    relation: Arc<Relation>,
    deps: DepStamps,
}

/// Everything workers share.
struct Shared {
    master: RwLock<Master>,
    /// Configuration template; forked per query onto a snapshot. Its
    /// own database is empty — the catalog, registry, and cost model
    /// are the shared parts.
    template: Engine,
    plan_cache: ExprCache<PlanEntry>,
    result_cache: ExprCache<ResultEntry>,
    stats: ServerStats,
    /// The registry behind [`ServerStats`], shared with every labeled
    /// series the workers update ([`Server::metrics_text`] exposes it).
    metrics: Arc<Metrics>,
    /// Serving latency per tier (`sj_server_query_seconds{tier=...}`).
    latency_cold: Arc<Histogram>,
    latency_plan: Arc<Histogram>,
    latency_result: Arc<Histogram>,
    /// Time jobs spend in the bounded queue before a worker dequeues
    /// them (`sj_server_queue_wait_seconds`).
    queue_wait: Arc<Histogram>,
    /// Session-id allocator for the per-session query counters.
    next_session: AtomicU64,
    cache_mode: CacheMode,
    per_query: Parallelism,
    /// Set by [`Server::shutdown`]/`Drop`: workers exit on their next
    /// poll tick even while session handles (and their queue senders)
    /// are still alive, and new submissions fail fast with
    /// [`ServerError::Stopped`].
    closed: AtomicBool,
}

/// The capture a query executes against: an immutable snapshot plus
/// the validity stamps taken under the same lock hold.
struct QueryCtx {
    snap: Snapshot,
    dep_stamps: DepStamps,
    stats_epoch: u64,
}

/// Snapshot context a [`ReadTxn`] pins at `begin` and reuses for every
/// query it runs.
#[derive(Clone)]
pub(crate) struct TxnCtx {
    snap: Snapshot,
    rel_epochs: FxHashMap<String, u64>,
    stats_epoch: u64,
}

impl Shared {
    /// An inert, already-closed `Shared` — the placeholder
    /// [`Server::shutdown`] swaps in so the real one can be unwrapped.
    fn closed_stub() -> Shared {
        let metrics = Arc::new(Metrics::new());
        Shared {
            master: RwLock::new(Master {
                db: Database::new(),
                rel_epochs: FxHashMap::default(),
                stats_epoch: 0,
            }),
            template: Engine::new(Database::new()),
            plan_cache: ExprCache::new(1),
            result_cache: ExprCache::new(1),
            stats: ServerStats::new(metrics.clone()),
            latency_cold: metrics.histogram_with("sj_server_query_seconds", &[("tier", "cold")]),
            latency_plan: metrics
                .histogram_with("sj_server_query_seconds", &[("tier", "plan-cache")]),
            latency_result: metrics
                .histogram_with("sj_server_query_seconds", &[("tier", "result-cache")]),
            queue_wait: metrics.histogram("sj_server_queue_wait_seconds"),
            metrics,
            next_session: AtomicU64::new(0),
            cache_mode: CacheMode::Off,
            per_query: Parallelism::Serial,
            closed: AtomicBool::new(true),
        }
    }

    /// Sorted, deduplicated relation names an expression reads.
    fn dep_names(expr: &Expr) -> Vec<String> {
        let mut names: Vec<String> = expr
            .relation_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    fn stamps_from(names: &[String], rel_epochs: &FxHashMap<String, u64>) -> DepStamps {
        names
            .iter()
            .map(|n| (n.clone(), rel_epochs.get(n).copied().unwrap_or(0)))
            .collect()
    }

    /// Capture a consistent (snapshot, stamps) pair for a one-shot
    /// query: one read-lock hold, no execution inside it.
    fn capture(&self, expr: &Expr) -> QueryCtx {
        let names = Shared::dep_names(expr);
        let master = self.master.read().expect("master poisoned");
        QueryCtx {
            snap: master.db.snapshot(),
            dep_stamps: Shared::stamps_from(&names, &master.rel_epochs),
            stats_epoch: master.stats_epoch,
        }
    }

    /// Capture the full context a transaction pins.
    fn capture_txn(&self) -> TxnCtx {
        let master = self.master.read().expect("master poisoned");
        TxnCtx {
            snap: master.db.snapshot(),
            rel_epochs: master.rel_epochs.clone(),
            stats_epoch: master.stats_epoch,
        }
    }

    fn ctx_for(&self, expr: &Expr, pinned: Option<&TxnCtx>) -> QueryCtx {
        match pinned {
            Some(txn) => {
                let names = Shared::dep_names(expr);
                QueryCtx {
                    snap: txn.snap.clone(),
                    dep_stamps: Shared::stamps_from(&names, &txn.rel_epochs),
                    stats_epoch: txn.stats_epoch,
                }
            }
            None => self.capture(expr),
        }
    }

    /// Serve one query against its captured context. This is the
    /// worker hot path; it holds no locks beyond the cache mutexes.
    /// With `want_profile`, the response carries a rendered
    /// [`QueryProfile`] for whichever tier answered.
    fn run_query(
        &self,
        expr: &Expr,
        ctx: &QueryCtx,
        want_profile: bool,
    ) -> Result<QueryResponse, ServerError> {
        let started = Instant::now();
        self.stats.bump_queries();
        let class = query_class(expr);
        self.metrics
            .counter_with("sj_server_queries_by_class_total", &[("class", class)])
            .inc();
        let mut span = sj_obs::span!("server.query", class = class);

        // Tier 1: result cache — skip execution entirely.
        if self.cache_mode == CacheMode::PlanAndResult {
            if let Some(entry) = self.result_cache.get(expr) {
                if entry.deps == ctx.dep_stamps {
                    self.stats.bump_result_hits();
                    let elapsed = started.elapsed();
                    self.latency_result.observe_duration(elapsed);
                    span.attr("tier", "result-cache");
                    span.attr("out_rows", entry.relation.len());
                    let profile = want_profile.then(|| {
                        QueryProfile::cache_hit("result-cache", entry.relation.len(), elapsed)
                            .render()
                    });
                    return Ok(QueryResponse {
                        relation: entry.relation,
                        provenance: Provenance::ResultCache,
                        epoch: ctx.snap.epoch(),
                        elapsed,
                        profile,
                    });
                }
            }
        }

        // Tier 2: plan cache — skip optimize+plan, execute the cached
        // physical plan against this snapshot.
        if self.cache_mode != CacheMode::Off {
            if let Some(entry) = self.plan_cache.get(expr) {
                let schema = ctx.snap.schema();
                let applicable = entry.stats_epoch == ctx.stats_epoch
                    && entry
                        .deps
                        .iter()
                        .all(|(n, a)| schema.arity_of(n) == Some(*a));
                if applicable {
                    self.stats.bump_plan_hits();
                    let (relation, profile) = if want_profile {
                        let (relation, report) = entry
                            .plan
                            .execute_instrumented_with(ctx.snap.db(), self.per_query)?;
                        let profile = QueryProfile::from_report(
                            &Report::Planned(report),
                            Some(started.elapsed()),
                        )
                        .with_cache_tier("plan-cache");
                        (Arc::new(relation), Some(profile.render()))
                    } else {
                        (
                            Arc::new(entry.plan.execute_with(ctx.snap.db(), self.per_query)?),
                            None,
                        )
                    };
                    self.store_result(expr, &relation, ctx);
                    let elapsed = started.elapsed();
                    self.latency_plan.observe_duration(elapsed);
                    span.attr("tier", "plan-cache");
                    span.attr("out_rows", relation.len());
                    return Ok(QueryResponse {
                        relation,
                        provenance: Provenance::PlanCache,
                        epoch: ctx.snap.epoch(),
                        elapsed,
                        profile,
                    });
                }
            }
        }

        // Cold: fork the template engine onto the snapshot, compile,
        // execute, and populate both tiers.
        let mut engine = self.template.fork(ctx.snap.db().clone());
        if want_profile {
            engine = engine.instrument(Instrument::Cardinalities);
        }
        let out = engine.query(expr.clone()).run()?;
        // A report exists iff the run was instrumented (by config or for
        // the profile).
        if let Some(planned) = out.report.as_ref().and_then(|r| r.as_planned()) {
            self.stats.record_q_error(planned.max_q_error());
        }
        let profile = want_profile
            .then(|| out.profile().map(|p| p.with_cache_tier("cold").render()))
            .flatten();
        let relation = Arc::new(out.relation);
        if self.cache_mode != CacheMode::Off {
            if let Some(plan) = out.plan {
                let schema = ctx.snap.schema();
                let deps = Shared::dep_names(expr)
                    .into_iter()
                    .filter_map(|n| schema.arity_of(&n).map(|a| (n, a)))
                    .collect();
                self.plan_cache.insert(
                    expr.clone(),
                    PlanEntry {
                        plan,
                        deps,
                        stats_epoch: ctx.stats_epoch,
                    },
                );
            }
        }
        self.store_result(expr, &relation, ctx);
        let elapsed = started.elapsed();
        self.latency_cold.observe_duration(elapsed);
        span.attr("tier", "cold");
        span.attr("out_rows", relation.len());
        Ok(QueryResponse {
            relation,
            provenance: Provenance::Cold,
            epoch: ctx.snap.epoch(),
            elapsed,
            profile,
        })
    }

    /// Populate the result tier. The entry carries the stamps captured
    /// *before* execution: if a writer touched a dependency in the
    /// meantime, the stamps are already stale and every future hit
    /// attempt fails the comparison — the insert/sweep race is benign.
    fn store_result(&self, expr: &Expr, relation: &Arc<Relation>, ctx: &QueryCtx) {
        if self.cache_mode == CacheMode::PlanAndResult {
            self.result_cache.insert(
                expr.clone(),
                ResultEntry {
                    relation: relation.clone(),
                    deps: ctx.dep_stamps.clone(),
                },
            );
        }
    }

    /// Apply one write: mutate the master copy-on-write, stamp the
    /// touched relation, then sweep the caches eagerly (outside the
    /// write lock — stamp validation backstops the race).
    fn apply_write(&self, op: WriteOp) -> Result<u64, ServerError> {
        match op {
            WriteOp::Insert { relation, tuple } => {
                let epoch = {
                    let mut master = self.master.write().expect("master poisoned");
                    master.db.insert(&relation, tuple)?;
                    let epoch = master.db.epoch();
                    master.rel_epochs.insert(relation.clone(), epoch);
                    epoch
                };
                self.stats.bump_writes();
                // Inserts can't change arity: results referencing the
                // relation die, plans survive.
                self.sweep_results(&relation);
                Ok(epoch)
            }
            WriteOp::Set { relation, rows } => {
                let epoch = {
                    let mut master = self.master.write().expect("master poisoned");
                    master.db.set(relation.clone(), rows);
                    let epoch = master.db.epoch();
                    master.rel_epochs.insert(relation.clone(), epoch);
                    epoch
                };
                self.stats.bump_writes();
                // Replacement may change the schema: sweep both tiers.
                self.sweep_results(&relation);
                self.sweep_plans(&relation);
                Ok(epoch)
            }
            WriteOp::Remove { relation } => {
                let epoch = {
                    let mut master = self.master.write().expect("master poisoned");
                    if master.db.remove(&relation).is_none() {
                        return Err(ServerError::Storage(StorageError::UnknownRelation(
                            relation.clone(),
                        )));
                    }
                    let epoch = master.db.epoch();
                    master.rel_epochs.insert(relation.clone(), epoch);
                    epoch
                };
                self.stats.bump_writes();
                self.sweep_results(&relation);
                self.sweep_plans(&relation);
                Ok(epoch)
            }
            WriteOp::Analyze => {
                let snap = {
                    let mut master = self.master.write().expect("master poisoned");
                    master.stats_epoch += 1;
                    master.db.snapshot()
                };
                self.stats.bump_analyzes();
                // Refresh the shared catalog outside any lock; the
                // catalog's own Arc-identity check skips relations
                // whose analysis is already current.
                for name in snap.names().map(str::to_string).collect::<Vec<_>>() {
                    self.template.catalog().stats_for(snap.db(), &name);
                }
                // Plans were chosen under the old statistics; retire
                // them (lazily — the stats_epoch check on hit) and
                // eagerly so the capacity isn't wasted on dead entries.
                self.plan_cache.retain(|_, _| false);
                Ok(snap.epoch())
            }
        }
    }

    fn sweep_results(&self, relation: &str) {
        self.result_cache
            .retain(|_, e| !e.deps.iter().any(|(n, _)| n == relation));
    }

    fn sweep_plans(&self, relation: &str) {
        self.plan_cache
            .retain(|_, e| !e.deps.iter().any(|(n, _)| n == relation));
    }
}

/// One unit of queued work: a query plus its reply channel (and, for
/// transactional reads, the pinned snapshot context).
struct Job {
    expr: Expr,
    pinned: Option<TxnCtx>,
    /// Submitting session's id (per-session metric label).
    session: u64,
    /// Attach a rendered [`QueryProfile`] to the response.
    profile: bool,
    /// When the job entered the queue (queue-wait histogram).
    submitted: Instant,
    reply: SyncSender<Result<QueryResponse, ServerError>>,
}

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the receiver lock only while dequeuing, and poll with a
        // timeout so workers notice shutdown (sender dropped) promptly
        // even if a session handle still exists somewhere.
        let job = {
            let rx = rx.lock().expect("job queue poisoned");
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    if shared.closed.load(Ordering::Relaxed) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        let queue_wait = job.submitted.elapsed();
        shared.queue_wait.observe_duration(queue_wait);
        let session_label = job.session.to_string();
        shared
            .metrics
            .counter_with(
                "sj_server_session_queries_total",
                &[("session", &session_label)],
            )
            .inc();
        // The dispatch span parents both the snapshot capture
        // (`storage.snapshot`, opened inside `Database::snapshot`) and
        // the serving span (`server.query` and everything below it).
        let span = sj_obs::span!(
            "server.dispatch",
            session = job.session,
            queue_wait_us = queue_wait.as_micros() as u64
        );
        let ctx = shared.ctx_for(&job.expr, job.pinned.as_ref());
        let result = shared.run_query(&job.expr, &ctx, job.profile);
        drop(span);
        // A client that gave up (dropped its reply receiver) is fine.
        let _ = job.reply.send(result);
    }
}

/// The serving subsystem: a master database, a worker pool consuming a
/// bounded submission queue, and the two cache tiers. See the
/// [crate docs](crate) for the architecture.
pub struct Server {
    shared: Arc<Shared>,
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server over `db` with `config`: spawns the worker pool
    /// and returns immediately.
    pub fn start(db: Database, config: ServerConfig) -> Server {
        let cores = if config.cores == 0 {
            sj_setjoin::parallel::resolve_workers(0)
        } else {
            config.cores
        };
        let workers = if config.workers == 0 {
            cores
        } else {
            config.workers
        };
        // The scheduler decision: divide the core budget between
        // inter-query concurrency (`workers` pool threads) and
        // intra-query partition parallelism (each query's engine gets
        // the remaining share).
        let per = (cores / workers).max(1);
        let per_query = if per == 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(per)
        };
        let template = Engine::new(Database::new())
            .optimize(config.optimize)
            .strategy(Strategy::Planned)
            .instrument(if config.instrument {
                Instrument::Cardinalities
            } else {
                Instrument::Off
            })
            .parallelism(per_query);
        let metrics = Arc::new(Metrics::new());
        let shared = Arc::new(Shared {
            master: RwLock::new(Master {
                db,
                rel_epochs: FxHashMap::default(),
                stats_epoch: 0,
            }),
            template,
            plan_cache: ExprCache::new(config.plan_cache_capacity),
            result_cache: ExprCache::new(config.result_cache_capacity),
            stats: ServerStats::new(metrics.clone()),
            latency_cold: metrics.histogram_with("sj_server_query_seconds", &[("tier", "cold")]),
            latency_plan: metrics
                .histogram_with("sj_server_query_seconds", &[("tier", "plan-cache")]),
            latency_result: metrics
                .histogram_with("sj_server_query_seconds", &[("tier", "result-cache")]),
            queue_wait: metrics.histogram("sj_server_queue_wait_seconds"),
            metrics,
            next_session: AtomicU64::new(0),
            cache_mode: config.cache,
            per_query,
            closed: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("sj-server-worker-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn server worker")
            })
            .collect();
        Server {
            shared,
            tx: Some(tx),
            workers: handles,
        }
    }

    /// A new client session. Sessions are cheap handles (clone freely,
    /// move across threads); every session submits into the same
    /// bounded queue.
    pub fn session(&self) -> Session {
        Session {
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1,
            shared: self.shared.clone(),
            tx: self.tx.as_ref().expect("server running").clone(),
        }
    }

    /// Apply a write directly (equivalent to [`Session::write`]).
    pub fn write(&self, op: WriteOp) -> Result<u64, ServerError> {
        self.shared.apply_write(op)
    }

    /// A point-in-time snapshot of the master database.
    pub fn snapshot(&self) -> Snapshot {
        self.shared
            .master
            .read()
            .expect("master poisoned")
            .db
            .snapshot()
    }

    /// Aggregate serving metrics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Prometheus-style text exposition of every serving series:
    /// the [`ServerStats`] counters (`sj_server_*_total`), the
    /// per-tier latency histograms (`sj_server_query_seconds{tier=…}`),
    /// queue wait (`sj_server_queue_wait_seconds`), per-class and
    /// per-session query counters, and the running
    /// `sj_server_max_q_error` maximum.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.expose()
    }

    /// The shared metrics registry (e.g. to register extra series or
    /// read quantiles from the latency histograms directly).
    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// The intra-query parallelism every query runs with (the
    /// `cores / workers` scheduler split).
    pub fn per_query_parallelism(&self) -> Parallelism {
        self.shared.per_query
    }

    /// Worker-pool size.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Plan-tier entry count (introspection for tests/monitoring).
    pub fn plan_cache_len(&self) -> usize {
        self.shared.plan_cache.len()
    }

    /// Result-tier entry count.
    pub fn result_cache_len(&self) -> usize {
        self.shared.result_cache.len()
    }

    /// Stop accepting work, drain the workers, and return the final
    /// master database.
    pub fn shutdown(mut self) -> Database {
        self.stop();
        let shared = std::mem::replace(
            &mut self.shared,
            // `self`'s Drop runs after this; give it a dummy Shared so
            // the real one can be unwrapped below.
            Arc::new(Shared::closed_stub()),
        );
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.master.into_inner().expect("master poisoned").db,
            // A session handle still holds the Arc: fall back to a
            // snapshot of the final state.
            Err(shared) => shared
                .master
                .read()
                .expect("master poisoned")
                .db
                .snapshot()
                .into_db(),
        }
    }

    fn stop(&mut self) {
        // Dropping our sender disconnects the queue once every session
        // handle is gone; the closed flag covers the case where
        // sessions outlive the server — workers then exit on their
        // next poll tick instead of waiting for disconnection.
        self.shared.closed.store(true, Ordering::Relaxed);
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A client handle: submit queries (and writes) to the server. Cheap
/// to clone; safe to move to other threads. Each `Server::session`
/// call gets a fresh session id for the per-session metric series
/// (clones share their original's identity).
#[derive(Clone)]
pub struct Session {
    id: u64,
    shared: Arc<Shared>,
    tx: SyncSender<Job>,
}

impl Session {
    /// Run `expr` against a fresh snapshot, blocking while the bounded
    /// queue is full (backpressure) and until the answer arrives.
    pub fn query(&self, expr: Expr) -> Result<QueryResponse, ServerError> {
        self.submit(expr, None, true, false)
    }

    /// Like [`Session::query`], additionally attaching a rendered
    /// `EXPLAIN ANALYZE`-style profile ([`QueryResponse::profile`]):
    /// the per-node estimated-vs-actual breakdown for cold runs and
    /// plan-cache hits, the tier line alone for result-cache hits.
    pub fn query_profiled(&self, expr: Expr) -> Result<QueryResponse, ServerError> {
        self.submit(expr, None, true, true)
    }

    /// Like [`Session::query`] but **rejecting** instead of blocking
    /// when the queue is full — bounded admission for latency-critical
    /// callers.
    pub fn try_query(&self, expr: Expr) -> Result<QueryResponse, ServerError> {
        self.submit(expr, None, false, false)
    }

    /// Begin a snapshot-pinned read transaction: every query through
    /// the returned [`ReadTxn`] sees exactly the database state at this
    /// call, regardless of concurrent writers.
    pub fn begin(&self) -> ReadTxn {
        ReadTxn {
            session: self.clone(),
            ctx: self.shared.capture_txn(),
        }
    }

    /// Apply a write to the master database. Writes bypass the query
    /// queue: they serialize on the master lock and return as soon as
    /// the mutation (and cache sweep) is done. Returns the new
    /// database epoch.
    pub fn write(&self, op: WriteOp) -> Result<u64, ServerError> {
        self.shared.apply_write(op)
    }

    /// Aggregate serving metrics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    fn submit(
        &self,
        expr: Expr,
        pinned: Option<TxnCtx>,
        block: bool,
        profile: bool,
    ) -> Result<QueryResponse, ServerError> {
        if self.shared.closed.load(Ordering::Relaxed) {
            return Err(ServerError::Stopped);
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            expr,
            pinned,
            session: self.id,
            profile,
            submitted: Instant::now(),
            reply: reply_tx,
        };
        if block {
            self.tx.send(job).map_err(|_| ServerError::Stopped)?;
        } else {
            match self.tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.shared.stats.bump_rejected();
                    return Err(ServerError::QueueFull);
                }
                Err(TrySendError::Disconnected(_)) => return Err(ServerError::Stopped),
            }
        }
        reply_rx.recv().map_err(|_| ServerError::Stopped)?
    }
}

/// A snapshot-pinned read transaction (see [`Session::begin`]).
///
/// All queries run against the one [`Snapshot`] captured at `begin`:
/// concurrent writers keep mutating the master copy-on-write without
/// ever disturbing it. Cache tiers stay fully usable — entries are
/// only served when their stamps match the *pinned* state, so a hit
/// is always byte-identical to executing against the pinned snapshot
/// directly.
pub struct ReadTxn {
    session: Session,
    ctx: TxnCtx,
}

impl ReadTxn {
    /// Run `expr` against the pinned snapshot.
    pub fn query(&self, expr: Expr) -> Result<QueryResponse, ServerError> {
        self.session
            .submit(expr, Some(self.ctx.clone()), true, false)
    }

    /// The pinned snapshot (e.g. for differential checks against a
    /// direct [`Engine`] run).
    pub fn snapshot(&self) -> &Snapshot {
        &self.ctx.snap
    }

    /// The pinned snapshot's database epoch.
    pub fn epoch(&self) -> u64 {
        self.ctx.snap.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_algebra::division;
    use sj_storage::tuple;

    fn division_db() -> Database {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 8], &[3, 9]]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        db
    }

    fn config(workers: usize, cache: CacheMode) -> ServerConfig {
        ServerConfig {
            workers,
            cores: workers,
            cache,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn tiers_progress_cold_then_plan_then_result() {
        let server = Server::start(division_db(), config(2, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        let expected = Relation::from_int_rows(&[&[1]]);

        let first = session.query(e.clone()).unwrap();
        assert_eq!(*first.relation, expected);
        assert_eq!(first.provenance, Provenance::Cold);

        // Second submission: the result tier answers without executing.
        let second = session.query(e.clone()).unwrap();
        assert_eq!(second.provenance, Provenance::ResultCache);
        assert!(
            Arc::ptr_eq(&first.relation, &second.relation),
            "result-cache hits share the allocation"
        );

        // An insert into a referenced relation kills the result entry
        // but not the plan: the next run re-executes the cached plan.
        // Adding (2,8) completes 2's divisor set {7,8}.
        session
            .write(WriteOp::Insert {
                relation: "R".into(),
                tuple: tuple![2, 8],
            })
            .unwrap();
        let third = session.query(e.clone()).unwrap();
        assert_eq!(third.provenance, Provenance::PlanCache);
        assert_eq!(*third.relation, Relation::from_int_rows(&[&[1], &[2]]));

        // ...and the fresh result is cached again.
        let fourth = session.query(e.clone()).unwrap();
        assert_eq!(fourth.provenance, Provenance::ResultCache);

        let stats = server.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.plan_hits, 1);
        assert_eq!(stats.result_hits, 2);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.cold(), 1);
    }

    #[test]
    fn writes_to_unrelated_relations_leave_results_cached() {
        let mut db = division_db();
        db.set("Other", Relation::from_int_rows(&[&[1, 1]]));
        let server = Server::start(db, config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        session.query(e.clone()).unwrap();
        session
            .write(WriteOp::Insert {
                relation: "Other".into(),
                tuple: tuple![2, 2],
            })
            .unwrap();
        // The query reads only R and S: its result entry survives.
        assert_eq!(
            session.query(e).unwrap().provenance,
            Provenance::ResultCache
        );
    }

    #[test]
    fn analyze_retires_plans_but_keeps_results() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        session.query(e.clone()).unwrap();
        assert_eq!(server.plan_cache_len(), 1);
        session.write(WriteOp::Analyze).unwrap();
        assert_eq!(server.plan_cache_len(), 0, "ANALYZE retires plans");
        // Results don't depend on statistics: still a result hit.
        assert_eq!(
            session.query(e).unwrap().provenance,
            Provenance::ResultCache
        );
        assert_eq!(server.stats().analyzes, 1);
    }

    #[test]
    fn cache_off_is_always_cold_and_plan_mode_always_executes() {
        let e = division::division_double_difference("R", "S");
        let server = Server::start(division_db(), config(1, CacheMode::Off));
        let session = server.session();
        for _ in 0..3 {
            assert_eq!(
                session.query(e.clone()).unwrap().provenance,
                Provenance::Cold
            );
        }
        assert_eq!(server.plan_cache_len(), 0);
        assert_eq!(server.result_cache_len(), 0);

        let server = Server::start(division_db(), config(1, CacheMode::Plan));
        let session = server.session();
        assert_eq!(
            session.query(e.clone()).unwrap().provenance,
            Provenance::Cold
        );
        assert_eq!(
            session.query(e.clone()).unwrap().provenance,
            Provenance::PlanCache
        );
        assert_eq!(server.result_cache_len(), 0, "no result tier");
    }

    #[test]
    fn read_txn_pins_its_snapshot_across_writes() {
        let server = Server::start(division_db(), config(2, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        let txn = session.begin();
        let pinned_epoch = txn.epoch();

        // A writer shrinks the divisor set after the transaction began.
        session
            .write(WriteOp::Set {
                relation: "S".into(),
                rows: Relation::from_int_rows(&[&[7]]),
            })
            .unwrap();

        // The transaction still sees the old divisor…
        let pinned = txn.query(e.clone()).unwrap();
        assert_eq!(*pinned.relation, Relation::from_int_rows(&[&[1]]));
        assert_eq!(pinned.epoch, pinned_epoch);
        // …while a fresh query sees the new one: {7} ⊆ both 1 and 2.
        let fresh = session.query(e.clone()).unwrap();
        assert_eq!(*fresh.relation, Relation::from_int_rows(&[&[1], &[2]]));
        assert!(fresh.epoch > pinned_epoch);

        // Repeated txn queries are served (and cacheable) against the
        // pinned state, byte-identically.
        let again = txn.query(e).unwrap();
        assert_eq!(again.relation, pinned.relation);
        assert_eq!(again.epoch, pinned_epoch);
    }

    #[test]
    fn q_error_metric_surfaces_through_the_server() {
        let server = Server::start(division_db(), config(1, CacheMode::Off));
        let session = server.session();
        assert_eq!(server.stats().max_q_error_seen, None);
        session
            .query(division::division_double_difference("R", "S"))
            .unwrap();
        let q = server.stats().max_q_error_seen;
        assert!(q.is_some(), "instrumented cold query records q-error");
        assert!(q.unwrap() >= 1.0, "q-error is ≥ 1 by definition: {q:?}");
    }

    #[test]
    fn profiled_queries_carry_profiles_per_tier() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");

        let cold = session.query_profiled(e.clone()).unwrap();
        assert_eq!(cold.provenance, Provenance::Cold);
        let p = cold.profile.as_deref().unwrap();
        assert!(p.starts_with("profile:"), "{p}");
        assert!(p.contains("tier cold"), "{p}");
        assert!(p.contains("arity"), "per-node table present: {p}");

        // A result-cache hit ran no plan: tier line only.
        let hit = session.query_profiled(e.clone()).unwrap();
        assert_eq!(hit.provenance, Provenance::ResultCache);
        let p = hit.profile.as_deref().unwrap();
        assert!(p.contains("tier result-cache"), "{p}");
        assert!(!p.contains("arity"), "no nodes on a result hit: {p}");

        // Kill the result entry but keep the plan: the plan-cache hit
        // re-executes instrumented and carries the full breakdown.
        session
            .write(WriteOp::Insert {
                relation: "R".into(),
                tuple: tuple![2, 8],
            })
            .unwrap();
        let warm = session.query_profiled(e.clone()).unwrap();
        assert_eq!(warm.provenance, Provenance::PlanCache);
        let p = warm.profile.as_deref().unwrap();
        assert!(p.contains("tier plan-cache"), "{p}");
        assert!(p.contains("arity"), "{p}");
        assert_eq!(*warm.relation, Relation::from_int_rows(&[&[1], &[2]]));

        // Unprofiled submissions stay profile-free.
        assert!(session.query(e).unwrap().profile.is_none());
    }

    #[test]
    fn metrics_text_exposes_serving_series() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        session.query(e.clone()).unwrap();
        session.query(e.clone()).unwrap();
        session.write(WriteOp::Analyze).unwrap();
        let text = server.metrics_text();
        assert!(text.contains("sj_server_queries_total 2"), "{text}");
        assert!(
            text.contains("sj_server_cache_hits_total{tier=\"result\"} 1"),
            "{text}"
        );
        assert!(text.contains("sj_server_analyzes_total 1"), "{text}");
        assert!(
            text.contains("sj_server_queries_by_class_total{class="),
            "{text}"
        );
        assert!(
            text.contains("sj_server_session_queries_total{session=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("sj_server_query_seconds_bucket{le=\"+Inf\",tier=\"cold\"} 1")
                || text.contains("sj_server_query_seconds_bucket{tier=\"cold\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sj_server_queue_wait_seconds_count 2"),
            "{text}"
        );
        assert!(text.contains("sj_server_max_q_error"), "{text}");
        // The exposition is stable between scrapes with no traffic.
        assert_eq!(server.metrics_text(), text);
    }

    #[test]
    fn errors_are_typed_and_writes_validate() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        assert!(matches!(
            session.query(Expr::rel("NoSuch")),
            Err(ServerError::Eval(_))
        ));
        assert!(matches!(
            session.write(WriteOp::Insert {
                relation: "NoSuch".into(),
                tuple: tuple![1],
            }),
            Err(ServerError::Storage(_))
        ));
        assert!(matches!(
            session.write(WriteOp::Remove {
                relation: "NoSuch".into(),
            }),
            Err(ServerError::Storage(StorageError::UnknownRelation(_)))
        ));
        // Failed writes must not advance the write counter.
        assert_eq!(server.stats().writes, 0);
    }

    #[test]
    fn remove_then_query_misses_cache_and_errors() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        session.query(e.clone()).unwrap();
        session
            .write(WriteOp::Remove {
                relation: "S".into(),
            })
            .unwrap();
        assert_eq!(server.plan_cache_len(), 0, "plans on S swept");
        assert_eq!(server.result_cache_len(), 0, "results on S swept");
        assert!(matches!(session.query(e), Err(ServerError::Eval(_))));
    }

    #[test]
    fn shutdown_returns_the_final_database_and_stops_sessions() {
        let server = Server::start(division_db(), config(2, CacheMode::PlanAndResult));
        let session = server.session();
        session
            .write(WriteOp::Insert {
                relation: "S".into(),
                tuple: tuple![11],
            })
            .unwrap();
        let db = server.shutdown();
        assert_eq!(db.get("S").unwrap().len(), 3);
        assert!(matches!(
            session.query(Expr::rel("R")),
            Err(ServerError::Stopped)
        ));
    }

    #[test]
    fn scheduler_divides_cores_between_workers_and_partitions() {
        let server = Server::start(
            division_db(),
            ServerConfig {
                workers: 2,
                cores: 8,
                ..ServerConfig::default()
            },
        );
        assert_eq!(server.worker_count(), 2);
        assert_eq!(server.per_query_parallelism(), Parallelism::Threads(4));
        let server = Server::start(
            division_db(),
            ServerConfig {
                workers: 8,
                cores: 8,
                ..ServerConfig::default()
            },
        );
        assert_eq!(
            server.per_query_parallelism(),
            Parallelism::Serial,
            "all cores spent on inter-query concurrency"
        );
    }
}
