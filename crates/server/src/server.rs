//! The serving core: master database, worker pool, sessions, and the
//! two cache tiers.
//!
//! # Concurrency model
//!
//! One `RwLock<Master>` guards the **master** database and the
//! statistics epoch. Nobody executes queries under that lock: a reader
//! holds it only long enough to validate a cached result's stamps, or
//! to capture a [`Snapshot`] (one `Arc` clone per relation —
//! microseconds) and execute against the snapshot outside it. Writers
//! take the write lock, mutate copy-on-write (never disturbing live
//! snapshots; in place when there is none) and leave — storage itself
//! re-stamps the relation they touched ([`Database::version_of`]), so
//! there is no invalidation bookkeeping to keep beside the database.
//! Readers therefore never block on query execution and writers never
//! block on readers beyond that window — the paper-engine's
//! `Arc<Relation>` copy-on-write storage is what makes this cheap.
//!
//! Which thread serves which tier:
//!
//! * a **result-cache hit** is answered on the **caller's thread**,
//!   inside [`Session::query`]: one cache lookup, one read-lock hold
//!   to validate it, no snapshot, no heap allocation, no queue, no
//!   other thread (`tests/alloc.rs` pins the zero allocations);
//! * everything else — plan-cache hits and cold queries — is a `Job`
//!   on the bounded `queue::Queue`, executed by one of the
//!   `workers` pool threads. Workers park on the queue's condvar until
//!   there is work or the server closes; nothing polls. A panic inside
//!   one job is caught at the job boundary: the client gets
//!   [`ServerError::QueryPanicked`], the worker lives on.
//!
//! # Cache tiers
//!
//! * **Result cache** — keyed by the submitted expression, stamped
//!   with the version of every relation the expression reads. A hit
//!   skips *everything* (optimize, plan, execute) and returns the
//!   shared result `Arc`. A write to a referenced relation
//!   invalidates the entry (eagerly swept on write, re-validated on
//!   hit by comparing its stamps with [`Database::version_of`] in the
//!   database the query sees — the live master, or a transaction's
//!   pinned snapshot — so the sweep/insert race with an in-flight
//!   query can never serve a stale result). The probe is one
//!   function, `Shared::probe_result`, with two callers: the session
//!   (above), and the worker as the first thing it does with a job —
//!   so when many clients miss together after an invalidation, the
//!   first job to finish answers the rest from the cache.
//! * **Patches** — the one write that does not invalidate: an insert
//!   of `t` into `R` when the expression is local to `R`'s groups
//!   ([`Expr::local_to_groups_of`]: `Q(R) = ⋃ₐ Q(σ₁₌ₐR)`, each part
//!   keyed `a` in column 1). Then the insert changes only the answer's
//!   rows keyed `t[1]`, so the sweep keeps the entry and marks it with
//!   that key (`ResultEntry::pending`). The marked entry's stamps are
//!   stale, so it is never a hit on the live master; the next worker
//!   that runs the query takes its plan from the tier it always would,
//!   executes it on the snapshot with `R` rebound to the marked groups
//!   (`Relation::keyed_rows`) and splices the output over the old rows
//!   for those keys (`Relation::splice_keyed`). The snapshot must hold
//!   `R` at the marked version and every other relation at its stamp,
//!   or the query runs in full as before.
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
use crate::metrics::StatsSnapshot;
use crate::queue::{PushError, Queue};
use sj_algebra::{Expr, OptimizeLevel};
use sj_eval::{
    Engine, EvalError, Execution, Instrument, PhysicalPlan, Report, Strategy, Q_ERROR_BUDGET,
};
use sj_obs::{Counter, Histogram, MaxGauge, Metrics};
use sj_storage::{Database, Relation, Schema, Snapshot, StorageError, Tuple, Value};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The labels of the per-class metric series
/// (`sj_server_queries_by_class_total{class="..."}`), indexed by
/// [`query_class`].
const QUERY_CLASSES: [&str; 9] = [
    "scan",
    "union",
    "difference",
    "projection",
    "selection",
    "const-tag",
    "join",
    "semijoin",
    "group-count",
];

/// The query class of one expression — the root operator of the
/// submitted expression — as an index into [`QUERY_CLASSES`].
fn query_class(expr: &Expr) -> usize {
    match expr {
        Expr::Rel(_) => 0,
        Expr::Union(..) => 1,
        Expr::Diff(..) => 2,
        Expr::Project(..) => 3,
        Expr::Select(..) => 4,
        Expr::ConstTag(..) => 5,
        Expr::Join(..) => 6,
        Expr::Semijoin(..) => 7,
        Expr::GroupCount(..) => 8,
    }
}

/// Whether a server caches: both tiers or neither.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// No caching: every query optimizes, plans, and executes.
    Off,
    /// Both tiers (the default): hot queries skip execution entirely
    /// until a write invalidates their result, and re-executions after
    /// a data write skip optimize+plan.
    #[default]
    PlanAndResult,
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMode::Off => write!(f, "off"),
            CacheMode::PlanAndResult => write!(f, "plan+result"),
        }
    }
}

/// Server configuration: resource bounds sized to the deployment, plus
/// whether to cache. `Default` is a production-shaped setup: auto-sized
/// worker pool, both cache tiers. What is not configurable: every query
/// is compiled at [`OptimizeLevel::Full`], and every query that
/// executes — cold or off a cached plan — runs instrumented, so its
/// [`sj_eval::Report::max_q_error`] feeds
/// [`StatsSnapshot::max_q_error_seen`] and
/// `sj_server_q_error_over_budget_total`.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Server worker threads (inter-query concurrency); each runs one
    /// query at a time on its own thread. `0` = one per available core
    /// (capped at 8).
    pub workers: usize,
    /// Accepted and ignored: a query's plan runs on the worker thread
    /// that took it, so there is no per-query core share to set. Kept
    /// because `benchmark/` sets it.
    pub cores: usize,
    /// Bounded submission-queue capacity ([`Session::query`] blocks
    /// when full, [`Session::try_query`] rejects).
    pub queue_capacity: usize,
    /// Whether the cache tiers run.
    pub cache: CacheMode,
    /// Plan-tier capacity (entries).
    pub plan_cache_capacity: usize,
    /// Result-tier capacity (entries).
    pub result_cache_capacity: usize,
    /// Accepted and ignored: [`Execution`] has one value and selects
    /// nothing (see `sj_eval::exec`). Kept because `benchmark/` sets it.
    pub execution: Execution,
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
            execution: Execution::Vectorized,
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
    /// The server has shut down.
    Stopped,
    /// The query panicked inside the engine. The panic was contained
    /// at the job boundary — the worker that ran it keeps serving —
    /// and this carries its message.
    QueryPanicked(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Eval(e) => write!(f, "query failed: {e}"),
            ServerError::Storage(e) => write!(f, "write failed: {e}"),
            ServerError::QueueFull => write!(f, "submission queue full"),
            ServerError::Stopped => write!(f, "server stopped"),
            ServerError::QueryPanicked(message) => write!(f, "query panicked: {message}"),
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

impl Provenance {
    /// The tier's label: in [`sj_eval::Report::tier`], on the
    /// `server.query` span and in `sj_server_query_seconds{tier=…}`.
    pub fn tier(self) -> &'static str {
        match self {
            Provenance::Cold => "cold",
            Provenance::PlanCache => "plan-cache",
            Provenance::ResultCache => "result-cache",
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tier())
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
    /// Wall-clock serving time on the thread that served it: probe →
    /// answer on the caller's own thread for an inline result-cache
    /// hit, probe → capture → answer on a worker for everything else.
    /// Time spent queued is not in it
    /// (`sj_server_queue_wait_seconds` has that).
    pub elapsed: Duration,
    /// Rendered `EXPLAIN ANALYZE`-style profile
    /// ([`sj_eval::Report::render`] with the serving tier and this
    /// `elapsed` stamped on it), present when the query was submitted
    /// via [`Session::query_profiled`]. A result-cache hit profiles as
    /// just the tier line — no plan ran.
    pub profile: Option<String>,
}

/// The master state guarded by the server's `RwLock`.
struct Master {
    db: Database,
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

/// A result-tier entry: the shared result plus the version stamps it was
/// computed under. Cached behind an `Arc`, so a lookup clones a
/// pointer, not the stamps.
#[derive(Clone)]
struct ResultEntry {
    relation: Arc<Relation>,
    /// [`Database::version_of`] every relation the expression reads, in
    /// the snapshot the result was computed from — the validity token.
    deps: Vec<(String, Option<u64>)>,
    /// Inserts the answer has not absorbed yet (see [`Pending`]).
    pending: Option<Pending>,
}

/// Inserts into one relation since a result was computed, which the
/// result can absorb without a full re-run because its expression is
/// local to that relation's groups ([`Expr::local_to_groups_of`]).
#[derive(Clone)]
struct Pending {
    relation: String,
    /// The relation's version once the inserts are in.
    version: u64,
    /// The inserted tuples' first columns — the groups the inserts
    /// touched — sorted and deduplicated.
    keys: Vec<Value>,
}

impl ResultEntry {
    /// The version of `relation` this entry's answer is, or can be
    /// patched to be, correct at: the pending version when its inserts
    /// are into `relation`, the stamp when nothing is pending, and no
    /// version at all when inserts into another relation are pending.
    fn version_seen(&self, relation: &str) -> Option<u64> {
        match &self.pending {
            Some(p) if p.relation == relation => Some(p.version),
            Some(_) => None,
            None => self
                .deps
                .iter()
                .find(|(n, _)| n == relation)
                .and_then(|(_, v)| *v),
        }
    }

    /// The pending inserts, when `db` holds their relation at the
    /// pending version and every other dependency at its stamp: then
    /// the answer for `db` is this answer with the pending groups
    /// re-run.
    fn patch_under(&self, db: &Database) -> Option<&Pending> {
        let p = self.pending.as_ref()?;
        let current = self.deps.iter().all(|(name, version)| {
            let want = if *name == p.relation {
                Some(p.version)
            } else {
                *version
            };
            db.version_of(name) == want
        });
        current.then_some(p)
    }

    /// Record one more insert into `relation`, keyed `key`, that moved
    /// it to `version`.
    fn absorb_insert(&mut self, relation: &str, version: u64, key: &Value) {
        let pending = self.pending.get_or_insert_with(|| Pending {
            relation: relation.to_string(),
            version,
            keys: Vec::new(),
        });
        pending.version = version;
        if let Err(at) = pending.keys.binary_search(key) {
            pending.keys.insert(at, key.clone());
        }
    }

    /// Does `db` hold every relation the result read at the version it
    /// was stamped with (a relation removed since is `None`, which
    /// matches no stamp of a result that ran)? Compared in place — the
    /// entry was found under full expression equality, so its
    /// dependency names *are* the probing expression's.
    fn valid_under(&self, db: &Database) -> bool {
        self.deps
            .iter()
            .all(|(name, version)| db.version_of(name) == *version)
    }
}

/// Everything sessions and workers share.
struct Shared {
    master: RwLock<Master>,
    /// Configuration template; forked per query onto a snapshot. Its
    /// own database is empty — the catalog and cost model are the
    /// shared parts.
    template: Engine,
    plan_cache: ExprCache<PlanEntry>,
    result_cache: ExprCache<Arc<ResultEntry>>,
    /// The registry behind every series here ([`Server::metrics_text`]
    /// exposes it). Handles are resolved once, below, so serving a
    /// query never looks a series up.
    metrics: Arc<Metrics>,
    /// `sj_server_queries_total`: every answer, whichever tier gave it.
    queries: Arc<Counter>,
    /// `sj_server_cache_hits_total{tier="plan"}` / `{tier="result"}`.
    plan_hits: Arc<Counter>,
    result_hits: Arc<Counter>,
    /// `sj_server_writes_total` (Insert / Set / Remove that succeeded)
    /// and `sj_server_analyzes_total`.
    writes: Arc<Counter>,
    analyzes: Arc<Counter>,
    /// `sj_server_rejected_total`: `try_query` found the queue full.
    rejected: Arc<Counter>,
    /// `sj_server_max_q_error`, the largest q-error any execution
    /// showed. [`MaxGauge`] guards against NaN / non-positive junk: one
    /// poisoned observation would otherwise stick as the maximum
    /// forever (NaN's bit pattern compares greater than every finite
    /// value's).
    max_q_error: Arc<MaxGauge>,
    /// `sj_server_q_error_over_budget_total`: executions whose worst
    /// q-error exceeded [`Q_ERROR_BUDGET`].
    q_error_over_budget: Arc<Counter>,
    /// `sj_server_queries_by_class_total{class=…}`, one handle per
    /// [`QUERY_CLASSES`] entry.
    class_queries: [Arc<Counter>; QUERY_CLASSES.len()],
    /// Jobs whose panic a worker contained
    /// (`sj_server_worker_panics_total`).
    worker_panics: Arc<Counter>,
    /// `sj_server_result_patches_total`: answers made by re-running a
    /// plan on the groups inserts touched and splicing the output into
    /// the cached answer; `sj_server_patched_groups_total`: the groups
    /// those runs read.
    patches: Arc<Counter>,
    patched_groups: Arc<Counter>,
    /// `sj_server_result_invalidations_total{cause=…}`: result entries a
    /// write's sweep dropped, indexed by [`Cause`].
    invalidations: [Arc<Counter>; 3],
    /// Serving latency per tier (`sj_server_query_seconds{tier=...}`),
    /// indexed by [`Provenance`].
    latency: [Arc<Histogram>; 3],
    /// Time jobs spend in the bounded queue before a worker dequeues
    /// them (`sj_server_queue_wait_seconds`). Inline result-cache hits
    /// never queue, so its count is the number of misses.
    queue_wait: Arc<Histogram>,
    /// The submission queue; closing it is what stops the server
    /// ([`Server::shutdown`]/`Drop`): workers drain it and exit, and
    /// submissions — inline hits included — fail with
    /// [`ServerError::Stopped`] even on sessions that outlive it.
    queue: Queue<Job>,
    /// Session-id allocator (`server.dispatch` span attribute).
    next_session: AtomicU64,
    /// [`ServerConfig::cache`] is [`CacheMode::PlanAndResult`].
    caching: bool,
    /// Test-only failpoint: called with every query a worker is about
    /// to execute — past the result tier, snapshot captured — and free
    /// to panic or block.
    #[cfg(test)]
    failpoint: std::sync::Mutex<Option<Failpoint>>,
}

#[cfg(test)]
type Failpoint = Arc<dyn Fn(&Expr) + Send + Sync>;

/// The write that dropped a result entry: the label of
/// `sj_server_result_invalidations_total{cause=…}`.
#[derive(Clone, Copy)]
enum Cause {
    Insert,
    Set,
    Remove,
}

impl Cause {
    const ALL: [Cause; 3] = [Cause::Insert, Cause::Set, Cause::Remove];

    fn label(self) -> &'static str {
        match self {
            Cause::Insert => "insert",
            Cause::Set => "set",
            Cause::Remove => "remove",
        }
    }
}

/// The capture a query executes against: an immutable snapshot — which
/// carries the version of every relation in it, the validity stamps of
/// whatever is computed from it — and the statistics epoch read under
/// the same lock hold. A [`ReadTxn`] pins one at `begin` and every
/// query it runs shares it (the inline probe borrows it, a queued job
/// holds the `Arc`); any other query that has to execute takes its own.
struct QueryCtx {
    snap: Snapshot,
    stats_epoch: u64,
}

impl Shared {
    /// Capture the master as it is now, under one read-lock hold (no
    /// execution inside it).
    fn capture(&self) -> QueryCtx {
        let master = self.master.read().expect("master poisoned");
        QueryCtx {
            snap: master.db.snapshot(),
            stats_epoch: master.stats_epoch,
        }
    }

    /// Count one served query in the total and its class series;
    /// returns the class label.
    fn count_query(&self, expr: &Expr) -> &'static str {
        let class = query_class(expr);
        self.queries.inc();
        self.class_queries[class].inc();
        QUERY_CLASSES[class]
    }

    /// Fold one execution's worst per-node q-error into the running
    /// maximum and count it when it is past [`Q_ERROR_BUDGET`].
    fn record_q_error(&self, q_error: f64) {
        self.max_q_error.observe(q_error);
        if q_error > Q_ERROR_BUDGET {
            self.q_error_over_budget.inc();
        }
    }

    /// A consistent-enough point-in-time copy of all counters (each
    /// counter is read atomically; the set is not fenced — fine for
    /// monitoring).
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.get(),
            plan_hits: self.plan_hits.get(),
            result_hits: self.result_hits.get(),
            writes: self.writes.get(),
            analyzes: self.analyzes.get(),
            rejected: self.rejected.get(),
            max_q_error_seen: self.max_q_error.get(),
        }
    }

    /// Everything an answer leaves behind, from the one [`Report`] of
    /// the run that produced it (`None`: a result-cache hit, which ran
    /// nothing): the tier's latency
    /// observation, the estimator-drift series
    /// (`sj_server_max_q_error`, `sj_server_q_error_over_budget_total`;
    /// not from a patch, whose plan was estimated for all of the
    /// relation it ran on a few groups of) and, when asked for, the
    /// rendered profile — the report with tier and serving time stamped
    /// on it.
    fn respond(
        &self,
        relation: Arc<Relation>,
        provenance: Provenance,
        epoch: u64,
        report: Option<Report>,
        started: Instant,
        want_profile: bool,
    ) -> QueryResponse {
        let elapsed = started.elapsed();
        self.latency[provenance as usize].observe_duration(elapsed);
        if let Some(q) = report
            .as_ref()
            .filter(|r| r.patched_groups.is_none())
            .and_then(Report::max_q_error)
        {
            self.record_q_error(q);
        }
        let profile = want_profile.then(|| {
            // No report: nothing executed, the answer is all there is.
            let mut report = report.unwrap_or_else(|| Report {
                output_rows: relation.len(),
                ..Report::default()
            });
            report.tier = Some(provenance.tier());
            report.elapsed = Some(elapsed);
            report.render()
        });
        QueryResponse {
            relation,
            provenance,
            epoch,
            elapsed,
            profile,
        }
    }

    /// Tier 1, the result cache: answer `expr` without executing
    /// anything, or `None`. Called by [`Session::submit`] on the
    /// client's own thread and by [`Shared::run_query`] on a worker,
    /// and nowhere else.
    ///
    /// Validity and epoch are one consistent read of the database the
    /// query sees — the transaction's pinned snapshot, or the live
    /// master under a single read-lock hold: the entry's stamps are
    /// compared with that database's versions and its epoch taken —
    /// but nothing is snapshotted or allocated: the cache hands out a
    /// pointer to its entry, and all that is cloned from the entry is
    /// the result's `Arc`. A miss counts nothing and leaves no span:
    /// whoever executes the query accounts for it.
    fn probe_result(
        &self,
        expr: &Expr,
        pinned: Option<&QueryCtx>,
        want_profile: bool,
    ) -> Option<QueryResponse> {
        // Without caching the probe is this one branch.
        if !self.caching {
            return None;
        }
        let started = Instant::now();
        let entry = self.result_cache.get(expr)?;
        let epoch = {
            let live;
            let db: &Database = match pinned {
                Some(txn) => &txn.snap,
                None => {
                    live = self.master.read().expect("master poisoned");
                    &live.db
                }
            };
            entry.valid_under(db).then(|| db.epoch())
        }?;
        let class = self.count_query(expr);
        self.result_hits.inc();
        // Opened once the hit is certain, so the span marks the hit
        // (its latency is in the histogram below); under a worker it
        // hangs off `server.dispatch`, inline it is a root.
        let _span = sj_obs::span!(
            "server.query",
            class = class,
            tier = "result-cache",
            out_rows = entry.relation.len()
        );
        Some(self.respond(
            entry.relation.clone(),
            Provenance::ResultCache,
            epoch,
            None,
            started,
            want_profile,
        ))
    }

    /// Serve one queued job on a worker: re-probe the result tier (a
    /// job queued behind the one that refilled the cache is a hit by
    /// now), then capture and execute. Holds no lock while executing.
    /// With `job.profile`, the response carries the rendered [`Report`]
    /// of whichever tier answered.
    fn run_query(&self, job: &Job) -> Result<QueryResponse, ServerError> {
        let started = Instant::now();
        let expr = &job.expr;
        let pinned = job.pinned.as_deref();
        let want_profile = job.profile;
        if let Some(hit) = self.probe_result(expr, pinned, want_profile) {
            return Ok(hit);
        }
        let class = self.count_query(expr);
        let fresh;
        let ctx = match pinned {
            Some(txn) => txn,
            None => {
                fresh = self.capture();
                &fresh
            }
        };
        #[cfg(test)]
        {
            let hook = self.failpoint.lock().expect("failpoint poisoned").clone();
            if let Some(hook) = hook {
                hook(expr);
            }
        }
        let mut span = sj_obs::span!("server.query", class = class);

        // Tier 2: plan cache — skip optimize+plan, execute the cached
        // physical plan against this snapshot.
        let db = ctx.snap.db();
        let schema = ctx.snap.schema();
        let cached = self
            .caching
            .then(|| self.plan_cache.get(expr))
            .flatten()
            .filter(|entry| {
                entry.stats_epoch == ctx.stats_epoch
                    && entry
                        .deps
                        .iter()
                        .all(|(n, a)| schema.arity_of(n) == Some(*a))
            });
        let (provenance, plan) = match cached {
            Some(entry) => {
                self.plan_hits.inc();
                (Provenance::PlanCache, entry.plan)
            }
            // Cold: fork the instrumented template engine onto the
            // snapshot and compile against all of it.
            None => (
                Provenance::Cold,
                self.template.fork(db.clone()).query(expr.clone()).plan()?,
            ),
        };
        // A result entry whose only news is inserts into groups it is
        // local to needs just those groups re-run.
        let stale = self.caching.then(|| self.result_cache.get(expr)).flatten();
        let (relation, report) = match stale.as_deref().and_then(|e| Some((e, e.patch_under(db)?)))
        {
            Some((entry, pending)) => self.patch(&plan, db, entry, pending)?,
            None => {
                let (relation, report) = plan.execute_reported(db)?;
                (Arc::new(relation), report)
            }
        };
        if provenance == Provenance::Cold && self.caching {
            let deps = expr
                .relation_names()
                .into_iter()
                .filter_map(|n| schema.arity_of(n).map(|a| (n.to_string(), a)))
                .collect();
            let stats_epoch = ctx.stats_epoch;
            let entry = PlanEntry {
                plan,
                deps,
                stats_epoch,
            };
            self.plan_cache.insert(expr.clone(), entry);
        }
        self.store_result(expr, &relation, db);
        span.attr("tier", provenance.tier());
        span.attr("out_rows", relation.len());
        Ok(self.respond(
            relation,
            provenance,
            ctx.snap.epoch(),
            Some(report),
            started,
            want_profile,
        ))
    }

    /// Bring `entry`'s answer up to `db` by running `plan` on the
    /// pending groups alone — `db` with the inserted-into relation
    /// rebound to its rows keyed by `pending.keys` — and splicing the
    /// output over the answer's rows for those keys. Sound because the
    /// expression is local to that relation's groups, the only news
    /// since the answer are inserts into those groups, and `db` holds
    /// every other relation the answer read as it was.
    fn patch(
        &self,
        plan: &PhysicalPlan,
        db: &Database,
        entry: &ResultEntry,
        pending: &Pending,
    ) -> Result<(Arc<Relation>, Report), ServerError> {
        let mut groups = db.clone();
        let rows = db
            .get(&pending.relation)
            .expect("the pending version is in db")
            .keyed_rows(&pending.keys);
        groups.set(pending.relation.clone(), rows);
        let (fresh, mut report) = plan.execute_reported(&groups)?;
        report.patched_groups = Some(pending.keys.len());
        self.patches.inc();
        self.patched_groups.add(pending.keys.len() as u64);
        let relation = entry.relation.splice_keyed(&pending.keys, &fresh);
        Ok((relation, report))
    }

    /// Populate the result tier. The entry carries the versions of the
    /// snapshot `db` it was computed from: if a writer touched a
    /// dependency in the meantime, the stamps are already stale and
    /// every future hit attempt fails the comparison — the insert/sweep
    /// race is benign.
    fn store_result(&self, expr: &Expr, relation: &Arc<Relation>, db: &Database) {
        if self.caching {
            let deps = expr
                .relation_names()
                .into_iter()
                .map(|n| (n.to_string(), db.version_of(n)))
                .collect();
            self.result_cache.insert(
                expr.clone(),
                Arc::new(ResultEntry {
                    relation: relation.clone(),
                    deps,
                    pending: None,
                }),
            );
        }
    }

    /// Apply one write: mutate the master copy-on-write (storage
    /// re-stamps the touched relation), then sweep the caches eagerly
    /// (outside the write lock — stamp validation backstops the race).
    fn apply_write(&self, op: WriteOp) -> Result<u64, ServerError> {
        match op {
            WriteOp::Insert { relation, tuple } => {
                let key = tuple.get(0).cloned();
                let (epoch, versions) = {
                    let mut master = self.master.write().expect("master poisoned");
                    let before = master.db.version_of(&relation);
                    let fresh = master.db.insert(&relation, tuple)?;
                    let after = master.db.version_of(&relation);
                    let versions = fresh.then(|| (before, after, master.db.schema()));
                    (master.db.epoch(), versions)
                };
                self.writes.inc();
                // Inserts can't change arity: plans survive, and so do
                // the results local to the relation's groups. A tuple
                // already present changed nothing — same epoch, nothing
                // to sweep.
                if let Some((Some(before), Some(after), schema)) = versions {
                    self.sweep_insert(&relation, key.as_ref(), before, after, &schema);
                }
                Ok(epoch)
            }
            WriteOp::Set { relation, rows } => {
                let epoch = {
                    let mut master = self.master.write().expect("master poisoned");
                    master.db.set(relation.clone(), rows);
                    master.db.epoch()
                };
                self.writes.inc();
                // Replacement may change the schema: sweep both tiers.
                self.sweep_results(&relation, Cause::Set);
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
                    master.db.epoch()
                };
                self.writes.inc();
                self.sweep_results(&relation, Cause::Remove);
                self.sweep_plans(&relation);
                Ok(epoch)
            }
            WriteOp::Analyze => {
                let snap = {
                    let mut master = self.master.write().expect("master poisoned");
                    master.stats_epoch += 1;
                    master.db.snapshot()
                };
                self.analyzes.inc();
                // Refresh the shared catalog outside any lock; the
                // catalog's own version check skips relations whose
                // analysis is already current.
                for name in snap.names() {
                    self.template.catalog().stats_for(&snap, name);
                }
                // Plans were chosen under the old statistics; retire
                // them (lazily — the stats_epoch check on hit) and
                // eagerly so the capacity isn't wasted on dead entries.
                self.plan_cache.retain(|_, _| false);
                Ok(snap.epoch())
            }
        }
    }

    /// Drop every result that read `relation`.
    fn sweep_results(&self, relation: &str, cause: Cause) {
        let dropped = &self.invalidations[cause as usize];
        self.result_cache.retain(|_, e| {
            let keep = !e.deps.iter().any(|(n, _)| n == relation);
            if !keep {
                dropped.inc();
            }
            keep
        });
    }

    /// The sweep after a fresh insert keyed `key` moved `relation` from
    /// version `before` to `after`: a result that read it survives,
    /// marked with `key`, when its answer is (or is pending to be) the
    /// one at `before`, its expression is local to the relation's
    /// groups and no insert into another relation is pending on it.
    /// Every other result that read the relation is dropped. A sweep
    /// that runs late — another write to the relation landed in between
    /// — finds no answer at `before` and drops, so out-of-order sweeps
    /// cost patches, never correctness.
    fn sweep_insert(
        &self,
        relation: &str,
        key: Option<&Value>,
        before: u64,
        after: u64,
        schema: &Schema,
    ) {
        let dropped = &self.invalidations[Cause::Insert as usize];
        self.result_cache.retain(|expr, e| {
            if !e.deps.iter().any(|(n, _)| n == relation) {
                return true;
            }
            let key = key.filter(|_| {
                e.version_seen(relation) == Some(before)
                    && expr.local_to_groups_of(relation, schema)
            });
            match key {
                Some(key) => Arc::make_mut(e).absorb_insert(relation, after, key),
                None => dropped.inc(),
            }
            key.is_some()
        });
    }

    fn sweep_plans(&self, relation: &str) {
        self.plan_cache
            .retain(|_, e| !e.deps.iter().any(|(n, _)| n == relation));
    }
}

/// One unit of queued work: a query the result tier could not answer
/// inline, plus its reply channel (and, for transactional reads, the
/// pinned snapshot context).
struct Job {
    expr: Expr,
    pinned: Option<Arc<QueryCtx>>,
    /// Submitting session's id (`server.dispatch` span attribute).
    session: u64,
    /// Attach the rendered [`Report`] to the response.
    profile: bool,
    /// When the job entered the queue (queue-wait histogram).
    submitted: Instant,
    reply: SyncSender<Result<QueryResponse, ServerError>>,
}

/// The message of a caught panic (`panic!` payloads are a `&str` or a
/// `String`; anything else came from `panic_any`).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&'static str>()
            .map_or_else(|| "non-string panic payload".into(), |s| s.to_string()),
    }
}

fn worker_loop(shared: &Shared) {
    // Parks inside `pop` while the queue is empty; `None` means the
    // server closed and every accepted job has been served.
    while let Some(job) = shared.queue.pop() {
        let queue_wait = job.submitted.elapsed();
        shared.queue_wait.observe_duration(queue_wait);
        // The job boundary: a panic below (an engine bug on this one
        // query) must cost this one reply, not the worker. Unwinding
        // cannot leave shared state torn — `run_query` executes with no
        // lock held, and every shared structure it updates (caches,
        // counters, the stats catalog) changes under its own lock or
        // atomically, in calls that run to completion.
        let result = catch_unwind(AssertUnwindSafe(|| {
            // The dispatch span parents the serving span
            // (`server.query` and everything below it) and, for a
            // query that executes, its snapshot capture
            // (`storage.snapshot`, opened inside `Database::snapshot`).
            let _span = sj_obs::span!(
                "server.dispatch",
                session = job.session,
                queue_wait_us = queue_wait.as_micros() as u64
            );
            shared.run_query(&job)
        }))
        .unwrap_or_else(|payload| {
            shared.worker_panics.inc();
            Err(ServerError::QueryPanicked(panic_message(payload)))
        });
        // A client that gave up (dropped its reply receiver) is fine.
        let _ = job.reply.send(result);
    }
}

/// The serving subsystem: a master database, a worker pool consuming a
/// bounded submission queue, and the two cache tiers. See the
/// [crate docs](crate) for the architecture.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server over `db` with `config`: spawns the worker pool
    /// and returns immediately.
    pub fn start(db: Database, config: ServerConfig) -> Server {
        let workers = match config.workers {
            0 => sj_setjoin::parallel::resolve_workers(0),
            n => n,
        };
        let template = Engine::new(Database::new())
            .optimize(OptimizeLevel::Full)
            .strategy(Strategy::Planned)
            .instrument(Instrument::Cardinalities);
        let metrics = Arc::new(Metrics::new());
        let shared = Arc::new(Shared {
            master: RwLock::new(Master { db, stats_epoch: 0 }),
            template,
            plan_cache: ExprCache::new(config.plan_cache_capacity),
            result_cache: ExprCache::new(config.result_cache_capacity),
            queries: metrics.counter("sj_server_queries_total"),
            plan_hits: metrics.counter_with("sj_server_cache_hits_total", &[("tier", "plan")]),
            result_hits: metrics.counter_with("sj_server_cache_hits_total", &[("tier", "result")]),
            writes: metrics.counter("sj_server_writes_total"),
            analyzes: metrics.counter("sj_server_analyzes_total"),
            rejected: metrics.counter("sj_server_rejected_total"),
            max_q_error: metrics.max_gauge("sj_server_max_q_error"),
            q_error_over_budget: metrics.counter("sj_server_q_error_over_budget_total"),
            class_queries: QUERY_CLASSES.map(|class| {
                metrics.counter_with("sj_server_queries_by_class_total", &[("class", class)])
            }),
            worker_panics: metrics.counter("sj_server_worker_panics_total"),
            patches: metrics.counter("sj_server_result_patches_total"),
            patched_groups: metrics.counter("sj_server_patched_groups_total"),
            invalidations: Cause::ALL.map(|cause| {
                metrics.counter_with(
                    "sj_server_result_invalidations_total",
                    &[("cause", cause.label())],
                )
            }),
            latency: [
                Provenance::Cold,
                Provenance::PlanCache,
                Provenance::ResultCache,
            ]
            .map(|p| metrics.histogram_with("sj_server_query_seconds", &[("tier", p.tier())])),
            queue_wait: metrics.histogram("sj_server_queue_wait_seconds"),
            queue: Queue::new(
                config.queue_capacity,
                metrics.gauge("sj_server_queue_depth"),
            ),
            metrics,
            next_session: AtomicU64::new(0),
            caching: config.cache == CacheMode::PlanAndResult,
            #[cfg(test)]
            failpoint: std::sync::Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sj-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn server worker")
            })
            .collect();
        Server {
            shared,
            workers: handles,
        }
    }

    /// A new client session. Sessions are cheap handles (clone freely,
    /// move across threads) that register nothing — a client may open
    /// one per request; every session submits into the same bounded
    /// queue.
    pub fn session(&self) -> Session {
        Session {
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1,
            shared: self.shared.clone(),
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
        self.shared.snapshot()
    }

    /// Prometheus-style text exposition of every serving series:
    /// the [`StatsSnapshot`] counters (`sj_server_*_total`), the
    /// per-tier latency histograms (`sj_server_query_seconds{tier=…}`),
    /// queue wait (`sj_server_queue_wait_seconds` — jobs only: a
    /// result-cache hit answered inline never queued) and the queue's
    /// current length (`sj_server_queue_depth`), per-class query
    /// counters, contained worker panics
    /// (`sj_server_worker_panics_total`), the running
    /// `sj_server_max_q_error` maximum and the count of executions
    /// whose worst node missed its estimate by more than
    /// [`sj_eval::Q_ERROR_BUDGET`]
    /// (`sj_server_q_error_over_budget_total`).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.expose()
    }

    /// The shared metrics registry (e.g. to register extra series or
    /// read quantiles from the latency histograms directly).
    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
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
        let shared = self.shared.clone();
        drop(self);
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
        // Closing the queue wakes every parked worker; each serves
        // what was already accepted and exits. Sessions may outlive
        // the server — they see the closed queue and fail fast.
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            // Runs from `Drop` too, so a worker's panic must not
            // become a second one here; per-job panics never reach
            // this far (`worker_loop` contains them).
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
/// call gets a fresh session id, which the `server.dispatch` span of
/// every job it queues carries (clones share their original's
/// identity).
#[derive(Clone)]
pub struct Session {
    id: u64,
    shared: Arc<Shared>,
}

impl Session {
    /// Run `expr` against the current database state. A result-cache
    /// hit is answered right here on the calling thread; anything else
    /// is queued for the worker pool — blocking while the bounded queue
    /// is full (backpressure) and until the answer arrives.
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
    /// callers. A result-cache hit never touches the queue, so it is
    /// answered however full the queue is.
    pub fn try_query(&self, expr: Expr) -> Result<QueryResponse, ServerError> {
        self.submit(expr, None, false, false)
    }

    /// Begin a snapshot-pinned read transaction: every query through
    /// the returned [`ReadTxn`] sees exactly the database state at this
    /// call, regardless of concurrent writers.
    pub fn begin(&self) -> ReadTxn {
        ReadTxn {
            session: self.clone(),
            ctx: Arc::new(self.shared.capture()),
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
        self.shared.snapshot()
    }

    fn submit(
        &self,
        expr: Expr,
        pinned: Option<&Arc<QueryCtx>>,
        block: bool,
        profile: bool,
    ) -> Result<QueryResponse, ServerError> {
        let shared = &*self.shared;
        if shared.queue.is_closed() {
            return Err(ServerError::Stopped);
        }
        if let Some(hit) = shared.probe_result(&expr, pinned.map(|ctx| &**ctx), profile) {
            return Ok(hit);
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            expr,
            pinned: pinned.cloned(),
            session: self.id,
            profile,
            submitted: Instant::now(),
            reply: reply_tx,
        };
        let pushed = if block {
            shared.queue.push(job)
        } else {
            shared.queue.try_push(job)
        };
        match pushed {
            Ok(()) => {}
            Err(PushError::Full(_)) => {
                shared.rejected.inc();
                return Err(ServerError::QueueFull);
            }
            Err(PushError::Closed(_)) => return Err(ServerError::Stopped),
        }
        // Every accepted job is answered: workers drain the queue
        // before they exit and contain a panicking job, so a dropped
        // reply sender means the pool itself is gone.
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
    ctx: Arc<QueryCtx>,
}

impl ReadTxn {
    /// Run `expr` against the pinned snapshot.
    pub fn query(&self, expr: Expr) -> Result<QueryResponse, ServerError> {
        self.session.submit(expr, Some(&self.ctx), true, false)
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
        assert_eq!(stats.executed(), 2);
        assert!(server
            .metrics_text()
            .contains("sj_server_cache_hits_total{tier=\"plan\"} 1"));
    }

    fn insert(session: &Session, relation: &str, tuple: Tuple) {
        let relation = relation.to_string();
        session.write(WriteOp::Insert { relation, tuple }).unwrap();
    }

    fn counter(server: &Server, name: &str) -> u64 {
        server.metrics().counter(name).get()
    }

    /// A patch changes what a plan runs on, not where the plan came
    /// from: off the plan tier it is a plan-cache answer, after ANALYZE
    /// retired the plans it is a cold one.
    #[test]
    fn a_patched_read_keeps_its_tiers_provenance() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        assert_eq!(
            session.query(e.clone()).unwrap().provenance,
            Provenance::Cold
        );

        // Group 3 gains its missing 7.
        insert(&session, "R", tuple![3, 7]);
        let warm = session.query(e.clone()).unwrap();
        assert_eq!(warm.provenance, Provenance::PlanCache);
        assert_eq!(*warm.relation, Relation::from_int_rows(&[&[1], &[3]]));
        assert_eq!(counter(&server, "sj_server_result_patches_total"), 1);

        session.write(WriteOp::Analyze).unwrap();
        insert(&session, "R", tuple![2, 8]);
        let cold = session.query(e.clone()).unwrap();
        assert_eq!(cold.provenance, Provenance::Cold);
        assert_eq!(*cold.relation, Relation::from_int_rows(&[&[1], &[2], &[3]]));
        assert_eq!(counter(&server, "sj_server_result_patches_total"), 2);
        let stats = server.stats();
        assert_eq!((stats.cold(), stats.plan_hits), (2, 1));
        // The patched answer is cached like any other.
        assert_eq!(
            session.query(e).unwrap().provenance,
            Provenance::ResultCache
        );
    }

    /// Inserts that leave every touched group's answer as it was hand
    /// back the cached allocation itself, however many accumulated.
    #[test]
    fn a_patch_that_changes_nothing_returns_the_cached_allocation() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        let first = session.query(e.clone()).unwrap();
        // Group 3 still lacks 7.
        insert(&session, "R", tuple![3, 10]);
        let second = session.query(e.clone()).unwrap();
        assert!(Arc::ptr_eq(&first.relation, &second.relation));
        assert!(second.epoch > first.epoch);
        // Two more inserts, into groups 2 and 3, patched together.
        insert(&session, "R", tuple![2, 9]);
        insert(&session, "R", tuple![3, 11]);
        let third = session.query(e).unwrap();
        assert!(Arc::ptr_eq(&first.relation, &third.relation));
        assert_eq!(counter(&server, "sj_server_result_patches_total"), 2);
        assert_eq!(counter(&server, "sj_server_patched_groups_total"), 3);
    }

    /// The patch adds a key whose group an insert completed, and drops
    /// one from `÷₌` whose group an insert made larger than `S` — and
    /// touches no other key.
    #[test]
    fn patches_add_and_remove_exactly_the_touched_keys() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let contains = division::division_double_difference("R", "S");
        let equals = division::division_equality("R", "S");
        let answer = |e: &Expr| session.query(e.clone()).unwrap();
        let one = Relation::from_int_rows(&[&[1]]);
        assert_eq!(*answer(&contains).relation, one);
        assert_eq!(*answer(&equals).relation, one);

        // Group 2 = {7, 8} = S: in both quotients now.
        insert(&session, "R", tuple![2, 8]);
        let both = Relation::from_int_rows(&[&[1], &[2]]);
        assert_eq!(*answer(&contains).relation, both);
        assert_eq!(*answer(&equals).relation, both);

        // Group 1 = {7, 8, 9} ⊋ S: still in ÷, out of ÷₌.
        insert(&session, "R", tuple![1, 9]);
        assert_eq!(*answer(&contains).relation, both);
        assert_eq!(*answer(&equals).relation, Relation::from_int_rows(&[&[2]]));
        assert_eq!(counter(&server, "sj_server_result_patches_total"), 4);
        assert_eq!(server.stats().cold(), 2);
    }

    /// The pending entry still carries the answer at its stamps: a
    /// transaction pinned before the insert is served it as a hit, and
    /// once a live read has patched the entry, re-runs on its own
    /// snapshot — the old answer either way.
    #[test]
    fn a_txn_pinned_before_an_insert_reads_the_old_answer() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        let old = session.query(e.clone()).unwrap().relation;
        let txn = session.begin();
        insert(&session, "R", tuple![2, 8]);

        let pinned = txn.query(e.clone()).unwrap();
        assert_eq!(pinned.provenance, Provenance::ResultCache);
        assert!(Arc::ptr_eq(&pinned.relation, &old));
        assert_eq!(pinned.epoch, txn.epoch());

        let live = session.query(e.clone()).unwrap();
        assert_eq!(live.provenance, Provenance::PlanCache);
        assert_eq!(*live.relation, Relation::from_int_rows(&[&[1], &[2]]));

        let again = txn.query(e).unwrap();
        assert_eq!(again.relation, old);
        assert_eq!(again.epoch, txn.epoch());
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
    fn a_duplicate_insert_changes_nothing() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        let cold = session.query(e.clone()).unwrap();
        let epoch = session
            .write(WriteOp::Insert {
                relation: "R".into(),
                tuple: tuple![1, 7],
            })
            .unwrap();
        assert_eq!(epoch, cold.epoch, "no mutation, no new epoch");
        // The result that read R is still the result.
        let again = session.query(e).unwrap();
        assert_eq!(again.provenance, Provenance::ResultCache);
        assert_eq!(again.epoch, cold.epoch);
    }

    /// With no snapshot or transaction open, the master holds the only
    /// handle on a stored relation — the statistics catalog in
    /// particular keeps none — so a write mutates it in place and a
    /// removal frees it.
    #[test]
    fn writes_leave_no_copy_of_the_old_relation_behind() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let stored = |name| Arc::downgrade(&server.snapshot().get_shared(name).unwrap());
        let r = stored("R");
        server.write(WriteOp::Analyze).unwrap();
        server
            .write(WriteOp::Insert {
                relation: "R".into(),
                tuple: tuple![2, 8],
            })
            .unwrap();
        assert!(r.upgrade().is_none(), "the analyzed R outlived the insert");
        let s = stored("S");
        server.write(WriteOp::Analyze).unwrap();
        server
            .write(WriteOp::Remove {
                relation: "S".into(),
            })
            .unwrap();
        assert!(s.upgrade().is_none(), "the analyzed S outlived its removal");
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
    fn cache_off_is_always_cold() {
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

    /// Estimator drift on the plan tier: a cached plan keeps the
    /// estimates it was costed with, so re-running it over data that
    /// changed since is exactly the run whose q-error matters. A patch
    /// runs such a plan on a few groups its estimates do not describe,
    /// so it feeds nothing.
    #[test]
    fn plan_tier_executions_feed_the_q_error_series() {
        // σ₁₌₂ over 20 rows with a ≠ b everywhere: estimated ≈ 1 row,
        // actually 0 — within budget on the cold runs. `π₂` drops the
        // group key, so only the bare filter is patched.
        let rows: Vec<[i64; 2]> = (0..20).map(|i| [i, i + 100]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&refs));
        let local = Expr::rel("R").select_eq(1, 2);
        let e = local.clone().project([2]);
        assert!(local.local_to_groups_of("R", &db.schema()));
        assert!(!e.local_to_groups_of("R", &db.schema()));
        // The plan the server is about to cache, costed on those 20 rows.
        let plan = Engine::new(db.clone())
            .optimize(OptimizeLevel::Full)
            .query(e.clone())
            .plan()
            .unwrap();

        let server = Server::start(db, config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let counter = |name: &str| server.metrics().counter(name).get();
        let over_budget = || counter("sj_server_q_error_over_budget_total");
        for query in [&e, &local] {
            let cold = session.query(query.clone()).unwrap();
            assert_eq!(cold.provenance, Provenance::Cold);
        }
        assert_eq!(over_budget(), 0);
        let seen = server.stats().max_q_error_seen;

        // Twenty rows with a = b: the non-local result entry dies, the
        // plans — and their one-row estimates for the filter — survive.
        for k in 200..220 {
            let (relation, tuple) = ("R".into(), tuple![k, k]);
            session.write(WriteOp::Insert { relation, tuple }).unwrap();
        }
        let patched = session.query_profiled(local).unwrap();
        assert_eq!(patched.provenance, Provenance::PlanCache);
        assert_eq!(patched.relation.len(), 20);
        let p = patched.profile.unwrap();
        assert!(p.contains("patched 20 groups"), "{p}");
        assert!(p.contains("(over budget)"), "a bad estimate: {p}");
        assert_eq!(counter("sj_server_result_patches_total"), 1);
        assert_eq!(over_budget(), 0, "the patch fed no q-error");
        assert_eq!(server.stats().max_q_error_seen, seen);

        let warm = session.query(e).unwrap();
        assert_eq!(warm.provenance, Provenance::PlanCache);
        // That run again, outside the server: stale plan, new data.
        let (_, report) = plan.execute_reported(server.snapshot().db()).unwrap();
        let q = report.max_q_error().unwrap();
        assert!(q > sj_eval::Q_ERROR_BUDGET, "{}", report.render_stable());
        assert_eq!(over_budget(), 1, "the plan-tier run counted");
        assert_eq!(server.stats().max_q_error_seen, Some(q));
    }

    #[test]
    fn sessions_register_no_metric_series() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let e = division::division_double_difference("R", "S");
        // A client that opens a session per request…
        for _ in 0..2 {
            server.session().query(e.clone()).unwrap();
        }
        let before = server.metrics_text().len();
        for _ in 0..10_000 {
            server.session();
        }
        // …must not grow the registry with every one.
        assert_eq!(server.metrics_text().len(), before);
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
        assert!(
            !p.contains("|D|") && !p.contains("plan nodes"),
            "a hit prints nothing it has no value for: {p}"
        );

        // An insert into group 2 leaves the entry pending: the plan-cache
        // hit re-executes instrumented on that group alone, and its
        // breakdown says so — |D| is group 2 of R (two rows) plus S.
        session
            .write(WriteOp::Insert {
                relation: "R".into(),
                tuple: tuple![2, 8],
            })
            .unwrap();
        let warm = session.query_profiled(e.clone()).unwrap();
        assert_eq!(warm.provenance, Provenance::PlanCache);
        let p = warm.profile.as_deref().unwrap();
        assert!(p.contains("tier plan-cache, patched 1 group,"), "{p}");
        assert!(p.contains("|D| = 4,"), "{p}");
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
            text.contains("sj_server_query_seconds_bucket{le=\"+Inf\",tier=\"cold\"} 1")
                || text.contains("sj_server_query_seconds_bucket{tier=\"cold\",le=\"+Inf\"} 1"),
            "{text}"
        );
        // Only the cold query queued: the result-cache hit was answered
        // inline on this thread and never waited for a worker.
        assert!(
            text.contains("sj_server_queue_wait_seconds_count 1"),
            "{text}"
        );
        assert!(text.contains("sj_server_queue_depth 0"), "{text}");
        assert!(text.contains("sj_server_worker_panics_total 0"), "{text}");
        assert!(text.contains("sj_server_max_q_error"), "{text}");
        // The exposition is stable between scrapes with no traffic.
        assert_eq!(server.metrics_text(), text);

        // An insert patches the local division and drops the non-local
        // `π₂(R)`; replacing S and removing R drop the rest.
        let non_local = Expr::rel("R").project([2]);
        session.query(non_local.clone()).unwrap();
        insert(&session, "R", tuple![2, 8]);
        session.query(e.clone()).unwrap();
        let rows = Relation::from_int_rows(&[&[7]]);
        let relation = "S".to_string();
        session.write(WriteOp::Set { relation, rows }).unwrap();
        session.query(non_local).unwrap();
        let relation = "R".to_string();
        session.write(WriteOp::Remove { relation }).unwrap();
        let text = server.metrics_text();
        for series in [
            "sj_server_result_patches_total 1",
            "sj_server_patched_groups_total 1",
            "sj_server_result_invalidations_total{cause=\"insert\"} 1",
            "sj_server_result_invalidations_total{cause=\"set\"} 1",
            "sj_server_result_invalidations_total{cause=\"remove\"} 1",
        ] {
            assert!(text.contains(series), "{series}: {text}");
        }
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
        let cached = division::division_double_difference("R", "S");
        session.query(cached.clone()).unwrap();
        assert_eq!(
            session.query(cached.clone()).unwrap().provenance,
            Provenance::ResultCache
        );
        let db = server.shutdown();
        assert_eq!(db.get("S").unwrap().len(), 3);
        assert!(matches!(
            session.query(Expr::rel("R")),
            Err(ServerError::Stopped)
        ));
        // A query the result tier could still answer inline is refused
        // all the same: the session outlived its server.
        assert!(matches!(session.query(cached), Err(ServerError::Stopped)));
    }

    fn set_failpoint(server: &Server, hook: impl Fn(&Expr) + Send + Sync + 'static) {
        *server.shared.failpoint.lock().unwrap() = Some(Arc::new(hook));
    }

    /// The race the stamps exist for, forced: a query captures its
    /// snapshot, a write to a relation it reads lands (and sweeps a
    /// cache that does not hold the result yet), and only then does the
    /// query finish and cache what it computed. That entry is stale on
    /// arrival and the probe must refuse it.
    #[test]
    fn a_result_cached_after_its_dependency_changed_is_never_served() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let e = division::division_double_difference("R", "S");
        let captured = Arc::new(Barrier::new(2));
        let written = Arc::new(Barrier::new(2));
        {
            let (captured, written) = (captured.clone(), written.clone());
            let first = AtomicBool::new(true);
            set_failpoint(&server, move |_| {
                if first.swap(false, Ordering::Relaxed) {
                    captured.wait();
                    written.wait();
                }
            });
        }
        let write_epoch = std::thread::scope(|scope| {
            let early = scope.spawn(|| session.query(e.clone()).unwrap());
            captured.wait();
            let write_epoch = session
                .write(WriteOp::Insert {
                    relation: "R".into(),
                    tuple: tuple![2, 8],
                })
                .unwrap();
            written.wait();
            // Correct for the snapshot it ran against — and cached.
            let early = early.join().unwrap();
            assert_eq!(*early.relation, Relation::from_int_rows(&[&[1]]));
            assert!(early.epoch < write_epoch);
            write_epoch
        });
        assert_eq!(
            server.result_cache_len(),
            1,
            "the late entry is in the cache"
        );

        let fresh = session.query(e).unwrap();
        assert_eq!(fresh.provenance, Provenance::PlanCache);
        assert_eq!(*fresh.relation, Relation::from_int_rows(&[&[1], &[2]]));
        assert_eq!(fresh.epoch, write_epoch);
    }

    #[test]
    fn a_panicking_query_costs_one_reply_not_the_worker() {
        let server = Server::start(division_db(), config(1, CacheMode::PlanAndResult));
        let session = server.session();
        let poisoned = Expr::rel("R").project([1]);
        let trigger = poisoned.clone();
        set_failpoint(&server, move |e| {
            if *e == trigger {
                panic!("injected failure");
            }
        });

        assert_eq!(
            session.query(poisoned).map(|r| r.provenance),
            Err(ServerError::QueryPanicked("injected failure".into()))
        );
        assert!(server
            .metrics_text()
            .contains("sj_server_worker_panics_total 1"));

        // The pool's only worker survived it: the next query answers.
        let next = session
            .query(division::division_double_difference("R", "S"))
            .unwrap();
        assert_eq!(*next.relation, Relation::from_int_rows(&[&[1]]));
        assert_eq!(server.stats().queries, 2, "the poisoned query counted");
        drop(session);
        assert_eq!(server.shutdown(), division_db());
    }

    #[test]
    fn try_query_answers_cached_queries_while_the_queue_is_full() {
        use std::sync::Barrier;
        let server = Server::start(
            division_db(),
            ServerConfig {
                queue_capacity: 2,
                ..config(1, CacheMode::PlanAndResult)
            },
        );
        let session = server.session();
        let cached = division::division_double_difference("R", "S");
        session.query(cached.clone()).unwrap();

        // Park the only worker inside a query…
        let parked = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let blocker = Expr::rel("S");
        {
            let (parked, release, blocker) = (parked.clone(), release.clone(), blocker.clone());
            set_failpoint(&server, move |e| {
                if *e == blocker {
                    parked.wait();
                    release.wait();
                }
            });
        }
        let uncached = Expr::rel("R").project([2]);
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| session.query(blocker.clone()));
            parked.wait();
            // …and fill the queue behind it through the queue's own
            // API, so "full" is a fact and not a race.
            let mut replies = Vec::new();
            loop {
                let (reply, answer) = mpsc::sync_channel(1);
                let job = Job {
                    expr: uncached.clone(),
                    pinned: None,
                    session: session.id,
                    profile: false,
                    submitted: Instant::now(),
                    reply,
                };
                match server.shared.queue.try_push(job) {
                    Ok(()) => replies.push(answer),
                    Err(PushError::Full(_)) => break,
                    Err(PushError::Closed(_)) => panic!("server is running"),
                }
            }
            assert_eq!(replies.len(), 2, "queue_capacity jobs fit");
            assert!(server.metrics_text().contains("sj_server_queue_depth 2"));

            // A result-cache hit never touches the queue…
            let hit = session.try_query(cached.clone()).unwrap();
            assert_eq!(hit.provenance, Provenance::ResultCache);
            assert_eq!(server.stats().rejected, 0);
            // …a query that has to execute is turned away.
            assert_eq!(
                session.try_query(uncached.clone()).map(|r| r.provenance),
                Err(ServerError::QueueFull)
            );
            assert_eq!(server.stats().rejected, 1);

            // Un-park the worker: it serves everything it had accepted.
            release.wait();
            assert!(blocked.join().unwrap().is_ok());
            for answer in replies {
                assert!(answer.recv().unwrap().is_ok());
            }
        });
        assert!(server.metrics_text().contains("sj_server_queue_depth 0"));
    }
}
