//! The set-join / division **algorithm registry**: every algorithm of this
//! crate behind one trait object, with a deterministic `auto` selector.
//!
//! The paper's dichotomy is ultimately a statement about *which algorithm a
//! query processor is allowed to pick*: inside plain RA every division plan
//! is quadratic (Proposition 26), while the direct operators of this crate
//! are linear or quasilinear. The registry makes that choice a first-class,
//! inspectable object instead of a hard-wired function call:
//!
//! * [`SetJoinAlgorithm`] / [`DivisionAlgorithm`] — name, supported
//!   predicates, complexity class per Definition 16, and `run`.
//! * [`Registry`] — a named collection of algorithms;
//!   [`Registry::standard`] holds every algorithm this crate implements.
//! * [`Registry::auto_set_join`] / [`Registry::auto_division`] — pick an
//!   algorithm from the predicate and input statistics ([`Relation::len`];
//!   canonical storage order means both operands are always sorted, so the
//!   merge-based algorithms never need a sort pass).
//!
//! The free functions of [`crate::division`] and [`crate::setjoin`] remain
//! available as thin wrappers; `sj-eval`'s `Engine` routes its division and
//! set-join entry points through this registry, so swapping algorithms in
//! an experiment is a one-line configuration change.

use crate::division::{
    counting_division, hash_division, nested_loop_division, sort_merge_division, DivisionSemantics,
};
use crate::inverted::inverted_index_set_join;
use crate::parallel::{parallel_hash_division, parallel_signature_set_join};
use crate::setjoin::{
    hash_set_equality_join, intersect_join_via_equijoin, nested_loop_set_join, signature_set_join,
    SetPredicate,
};
use crate::wide_signature::wide_signature_set_join;
use sj_stats::{containment_selectivity, CostModel, TableStats};
use sj_storage::Relation;
use std::fmt;
use std::sync::{Arc, OnceLock};

// `ComplexityClass` (Definition 16's running-time classes) lives in
// `sj-stats` — the bottom of the crate graph — so the cost model can
// price it without a dependency cycle; this re-export keeps the
// historical `sj_setjoin::registry::ComplexityClass` path working.
pub use sj_stats::ComplexityClass;

/// A named set-join algorithm `R(A,B) ⋈_{B θ D} S(C,D)`.
///
/// Implementations must agree with [`nested_loop_set_join`] on every
/// supported predicate (cross-validated by property tests).
pub trait SetJoinAlgorithm: Send + Sync {
    /// Stable name used for registry lookup and reports.
    fn name(&self) -> &'static str;
    /// Does the algorithm implement this predicate?
    fn supports(&self, pred: SetPredicate) -> bool;
    /// Complexity class when run on `pred` (worst case over inputs).
    fn complexity(&self, pred: SetPredicate) -> ComplexityClass;
    /// Execute the set join. Callers must check [`Self::supports`] first;
    /// implementations may panic on unsupported predicates.
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation;
    /// Execute with a caller-supplied worker-count hint. Serial
    /// algorithms ignore the hint (the default); partition-parallel
    /// algorithms fan out over `workers` threads (`0` = one per CPU).
    /// Results are byte-identical for every worker count.
    fn run_with_workers(
        &self,
        r: &Relation,
        s: &Relation,
        pred: SetPredicate,
        workers: usize,
    ) -> Relation {
        let _ = workers;
        self.run(r, s, pred)
    }
}

/// A named division algorithm `R(A,B) ÷ S(B)` (both semantics).
///
/// Implementations must agree with the brute-force oracle on both
/// [`DivisionSemantics`] variants (cross-validated by property tests).
pub trait DivisionAlgorithm: Send + Sync {
    /// Stable name used for registry lookup and reports.
    fn name(&self) -> &'static str;
    /// Complexity class under `sem` (worst case over inputs).
    fn complexity(&self, sem: DivisionSemantics) -> ComplexityClass;
    /// Execute the division.
    fn run(&self, r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation;
    /// Execute with a caller-supplied worker-count hint (see
    /// [`SetJoinAlgorithm::run_with_workers`]; serial algorithms ignore
    /// it).
    fn run_with_workers(
        &self,
        r: &Relation,
        s: &Relation,
        sem: DivisionSemantics,
        workers: usize,
    ) -> Relation {
        let _ = workers;
        self.run(r, s, sem)
    }
}

/// Run a division algorithm under a `setjoin.division` tracing span
/// carrying the algorithm name, operand sizes, worker hint, and output
/// cardinality — the single traced choke point for registry-routed
/// divisions (the engine's `divide` goes through here).
pub fn run_division_traced(
    alg: &dyn DivisionAlgorithm,
    r: &Relation,
    s: &Relation,
    sem: DivisionSemantics,
    workers: usize,
) -> Relation {
    let mut span = sj_obs::span!(
        "setjoin.division",
        algorithm = alg.name(),
        left = r.len(),
        right = s.len(),
        workers = workers.max(1)
    );
    let out = alg.run_with_workers(r, s, sem, workers);
    span.attr("out_rows", out.len());
    out
}

/// Run a set-join algorithm under a `setjoin.setjoin` tracing span (see
/// [`run_division_traced`]).
pub fn run_set_join_traced(
    alg: &dyn SetJoinAlgorithm,
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
    workers: usize,
) -> Relation {
    let mut span = sj_obs::span!(
        "setjoin.setjoin",
        algorithm = alg.name(),
        left = r.len(),
        right = s.len(),
        workers = workers.max(1)
    );
    let out = alg.run_with_workers(r, s, pred, workers);
    span.attr("out_rows", out.len());
    out
}

// ---------------------------------------------------------------------------
// Set-join algorithm implementations (wrapping the crate's free functions)
// ---------------------------------------------------------------------------

/// [`nested_loop_set_join`]: every group pair verified exactly.
pub struct NestedLoopSetJoin;

impl SetJoinAlgorithm for NestedLoopSetJoin {
    fn name(&self) -> &'static str {
        "nested-loop"
    }
    fn supports(&self, _pred: SetPredicate) -> bool {
        true
    }
    fn complexity(&self, _pred: SetPredicate) -> ComplexityClass {
        ComplexityClass::Quadratic
    }
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
        nested_loop_set_join(r, s, pred)
    }
}

/// [`signature_set_join`]: 64-bit Bloom signatures prune pairs before the
/// exact merge verification.
pub struct SignatureSetJoin;

impl SetJoinAlgorithm for SignatureSetJoin {
    fn name(&self) -> &'static str {
        "signature64"
    }
    fn supports(&self, _pred: SetPredicate) -> bool {
        true
    }
    fn complexity(&self, _pred: SetPredicate) -> ComplexityClass {
        // Same worst case as nested loops; the filter is a constant factor.
        ComplexityClass::Quadratic
    }
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
        signature_set_join(r, s, pred)
    }
}

/// [`wide_signature_set_join`] with a configurable signature width. The
/// reported name tracks the width (`signature128`, `signature256`, …), so
/// a re-registered variant never masquerades as the standard entry.
pub struct WideSignatureSetJoin {
    /// Signature width in 64-bit words.
    pub words: usize,
}

impl SetJoinAlgorithm for WideSignatureSetJoin {
    fn name(&self) -> &'static str {
        // `words == 1` deliberately does NOT reuse "signature64": that
        // name belongs to [`SignatureSetJoin`], and the wide variant must
        // never shadow it.
        match self.words {
            2 => "signature128",
            4 => "signature256",
            8 => "signature512",
            _ => "signature-wide",
        }
    }
    fn supports(&self, pred: SetPredicate) -> bool {
        matches!(
            pred,
            SetPredicate::Contains | SetPredicate::ContainedIn | SetPredicate::Equals
        )
    }
    fn complexity(&self, _pred: SetPredicate) -> ComplexityClass {
        ComplexityClass::Quadratic
    }
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
        wide_signature_set_join(r, s, pred, self.words)
    }
}

/// [`inverted_index_set_join`]: per-element postings intersection; only the
/// set-containment direction `B ⊇ D`.
pub struct InvertedIndexSetJoin;

impl SetJoinAlgorithm for InvertedIndexSetJoin {
    fn name(&self) -> &'static str {
        "inverted-index"
    }
    fn supports(&self, pred: SetPredicate) -> bool {
        pred == SetPredicate::Contains
    }
    fn complexity(&self, _pred: SetPredicate) -> ComplexityClass {
        ComplexityClass::Quadratic
    }
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
        assert_eq!(pred, SetPredicate::Contains, "inverted-index: ⊇ only");
        inverted_index_set_join(r, s)
    }
}

/// [`hash_set_equality_join`]: hash each group's canonical value list;
/// set-equality only.
pub struct HashSetEqualityJoin;

impl SetJoinAlgorithm for HashSetEqualityJoin {
    fn name(&self) -> &'static str {
        "hash-set-equality"
    }
    fn supports(&self, pred: SetPredicate) -> bool {
        pred == SetPredicate::Equals
    }
    fn complexity(&self, _pred: SetPredicate) -> ComplexityClass {
        ComplexityClass::Quasilinear
    }
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
        assert_eq!(pred, SetPredicate::Equals, "hash-set-equality: = only");
        hash_set_equality_join(r, s)
    }
}

/// [`intersect_join_via_equijoin`]: the `∩ ≠ ∅` predicate as an ordinary
/// equijoin — the paper's remark made executable.
pub struct EquijoinIntersect;

impl SetJoinAlgorithm for EquijoinIntersect {
    fn name(&self) -> &'static str {
        "equijoin-intersect"
    }
    fn supports(&self, pred: SetPredicate) -> bool {
        pred == SetPredicate::IntersectsNonempty
    }
    fn complexity(&self, _pred: SetPredicate) -> ComplexityClass {
        ComplexityClass::Linear
    }
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
        assert_eq!(
            pred,
            SetPredicate::IntersectsNonempty,
            "equijoin-intersect: ∩≠∅ only"
        );
        intersect_join_via_equijoin(r, s)
    }
}

/// [`parallel_signature_set_join`]: the partition-based set join —
/// groups partitioned by anchor element, signature-filtered exact tests
/// per partition, fanned out over scoped worker threads. Same worst case
/// as the monolithic signature join, but the partitioning prunes the
/// candidate pair space even at one worker.
pub struct ParallelSignatureSetJoin {
    /// Worker threads; `0` = one per available CPU (capped at 8).
    pub threads: usize,
}

impl SetJoinAlgorithm for ParallelSignatureSetJoin {
    fn name(&self) -> &'static str {
        "parallel-signature"
    }
    fn supports(&self, pred: SetPredicate) -> bool {
        // ∩ ≠ ∅ has no anchor element; it is an equijoin anyway.
        matches!(
            pred,
            SetPredicate::Contains | SetPredicate::ContainedIn | SetPredicate::Equals
        )
    }
    fn complexity(&self, _pred: SetPredicate) -> ComplexityClass {
        // All groups can share one anchor partition in the worst case.
        ComplexityClass::Quadratic
    }
    fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
        parallel_signature_set_join(r, s, pred, self.threads)
    }
    fn run_with_workers(
        &self,
        r: &Relation,
        s: &Relation,
        pred: SetPredicate,
        workers: usize,
    ) -> Relation {
        parallel_signature_set_join(r, s, pred, workers)
    }
}

// ---------------------------------------------------------------------------
// Division algorithm implementations
// ---------------------------------------------------------------------------

/// [`nested_loop_division`]: the deliberate quadratic baseline.
pub struct NestedLoopDivision;

impl DivisionAlgorithm for NestedLoopDivision {
    fn name(&self) -> &'static str {
        "nested-loop"
    }
    fn complexity(&self, _sem: DivisionSemantics) -> ComplexityClass {
        ComplexityClass::Quadratic
    }
    fn run(&self, r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
        nested_loop_division(r, s, sem)
    }
}

/// [`sort_merge_division`]: one merge pass per A-group; sort-free because
/// relations are stored in canonical order.
pub struct SortMergeDivision;

impl DivisionAlgorithm for SortMergeDivision {
    fn name(&self) -> &'static str {
        "sort-merge"
    }
    fn complexity(&self, _sem: DivisionSemantics) -> ComplexityClass {
        // Canonical storage order has already paid the sort.
        ComplexityClass::Linear
    }
    fn run(&self, r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
        sort_merge_division(r, s, sem)
    }
}

/// [`hash_division`]: Graefe's bitmap hash-division.
pub struct HashDivision;

impl DivisionAlgorithm for HashDivision {
    fn name(&self) -> &'static str {
        "hash"
    }
    fn complexity(&self, _sem: DivisionSemantics) -> ComplexityClass {
        ComplexityClass::Linear
    }
    fn run(&self, r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
        hash_division(r, s, sem)
    }
}

/// [`counting_division`]: the Section 5 grouping/counting strategy.
pub struct CountingDivision;

impl DivisionAlgorithm for CountingDivision {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn complexity(&self, _sem: DivisionSemantics) -> ComplexityClass {
        ComplexityClass::Linear
    }
    fn run(&self, r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
        counting_division(r, s, sem)
    }
}

/// [`parallel_hash_division`]: Graefe's hash-division with the dividend
/// hash-partitioned on A across scoped worker threads.
pub struct ParallelHashDivision {
    /// Worker threads; `0` = one per available CPU (capped at 8).
    pub threads: usize,
}

impl DivisionAlgorithm for ParallelHashDivision {
    fn name(&self) -> &'static str {
        "parallel-hash"
    }
    fn complexity(&self, _sem: DivisionSemantics) -> ComplexityClass {
        ComplexityClass::Linear
    }
    fn run(&self, r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
        parallel_hash_division(r, s, sem, self.threads)
    }
    fn run_with_workers(
        &self,
        r: &Relation,
        s: &Relation,
        sem: DivisionSemantics,
        workers: usize,
    ) -> Relation {
        parallel_hash_division(r, s, sem, workers)
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// A collection of set-join and division algorithms, addressable by name,
/// with a deterministic `auto` selector.
#[derive(Clone, Default)]
pub struct Registry {
    set_joins: Vec<Arc<dyn SetJoinAlgorithm>>,
    divisions: Vec<Arc<dyn DivisionAlgorithm>>,
}

/// The selection thresholds of the stats-free `auto` selectors
/// ([`Registry::auto_set_join_with`] / [`Registry::auto_division_with`]),
/// named and documented in one place and public so tests and experiments
/// can construct inputs exactly on either side of each boundary. The
/// cost-based selectors ([`Registry::auto_set_join_costed`] /
/// [`Registry::auto_division_costed`]) replace these fixed cutoffs with
/// [`CostModel`] estimates when statistics are available.
pub mod thresholds {
    /// Inputs at or below this many tuples (both operands together) skip
    /// signature/hash machinery: the setup cost dominates at toy sizes.
    pub const SMALL_INPUT: usize = 64;

    /// Average group size at which the `auto` selector widens signatures
    /// from one to four words (large sets saturate 64-bit signatures).
    pub const WIDE_SET_THRESHOLD: usize = 16;

    /// Combined input size (tuples, both operands) above which the `auto`
    /// selectors prefer the partition-parallel set-join variant when the
    /// caller signals a parallel execution context (`workers > 1`). Below
    /// it, partition bookkeeping outweighs the pruning.
    pub const PARALLEL_SETJOIN_INPUT: usize = 4096;

    /// Combined input size above which the `auto` selectors prefer the
    /// partition-parallel division when `workers > 1`.
    pub const PARALLEL_DIVISION_INPUT: usize = 8192;
}

use thresholds::{
    PARALLEL_DIVISION_INPUT, PARALLEL_SETJOIN_INPUT, SMALL_INPUT, WIDE_SET_THRESHOLD,
};

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The standard registry: every algorithm this crate implements.
    ///
    /// Set joins: `nested-loop`, `signature64`, `signature256`,
    /// `inverted-index`, `hash-set-equality`, `equijoin-intersect`,
    /// `parallel-signature`.
    /// Divisions: `nested-loop`, `sort-merge`, `hash`, `counting`,
    /// `parallel-hash`.
    pub fn standard() -> &'static Registry {
        Self::standard_cell()
    }

    /// The standard registry as a shared handle — the same process-wide
    /// instance [`Registry::standard`] borrows, never a copy. This is
    /// what `sj-eval`'s `Engine` holds by default.
    pub fn standard_shared() -> Arc<Registry> {
        Self::standard_cell().clone()
    }

    fn standard_cell() -> &'static Arc<Registry> {
        static STANDARD: OnceLock<Arc<Registry>> = OnceLock::new();
        STANDARD.get_or_init(|| {
            let mut reg = Registry::new();
            reg.register_set_join(Arc::new(NestedLoopSetJoin));
            reg.register_set_join(Arc::new(SignatureSetJoin));
            reg.register_set_join(Arc::new(WideSignatureSetJoin { words: 4 }));
            reg.register_set_join(Arc::new(InvertedIndexSetJoin));
            reg.register_set_join(Arc::new(HashSetEqualityJoin));
            reg.register_set_join(Arc::new(EquijoinIntersect));
            reg.register_set_join(Arc::new(ParallelSignatureSetJoin { threads: 0 }));
            reg.register_division(Arc::new(NestedLoopDivision));
            reg.register_division(Arc::new(SortMergeDivision));
            reg.register_division(Arc::new(HashDivision));
            reg.register_division(Arc::new(CountingDivision));
            reg.register_division(Arc::new(ParallelHashDivision { threads: 0 }));
            Arc::new(reg)
        })
    }

    /// Add a set-join algorithm. Last registration wins on name clashes
    /// (lookup scans from the back), so callers can shadow a standard
    /// algorithm with a tuned variant.
    pub fn register_set_join(&mut self, alg: Arc<dyn SetJoinAlgorithm>) {
        self.set_joins.push(alg);
    }

    /// Add a division algorithm (same shadowing rule).
    pub fn register_division(&mut self, alg: Arc<dyn DivisionAlgorithm>) {
        self.divisions.push(alg);
    }

    /// All registered set-join algorithms, in registration order.
    pub fn set_join_algorithms(&self) -> &[Arc<dyn SetJoinAlgorithm>] {
        &self.set_joins
    }

    /// All registered division algorithms, in registration order.
    pub fn division_algorithms(&self) -> &[Arc<dyn DivisionAlgorithm>] {
        &self.divisions
    }

    /// Look up a set-join algorithm by name.
    pub fn find_set_join(&self, name: &str) -> Option<Arc<dyn SetJoinAlgorithm>> {
        self.set_joins
            .iter()
            .rev()
            .find(|a| a.name() == name)
            .cloned()
    }

    /// Look up a division algorithm by name.
    pub fn find_division(&self, name: &str) -> Option<Arc<dyn DivisionAlgorithm>> {
        self.divisions
            .iter()
            .rev()
            .find(|a| a.name() == name)
            .cloned()
    }

    /// Pick a set-join algorithm from the predicate and input statistics.
    ///
    /// Deterministic rules, in order:
    ///
    /// 1. `=` → `hash-set-equality` (quasilinear beats any pair scan).
    /// 2. `∩ ≠ ∅` → `equijoin-intersect` (the paper's equijoin remark).
    /// 3. Tiny inputs (≤ 64 tuples total) → `nested-loop`: signature
    ///    setup costs more than it saves.
    /// 4. Large average group size (≥ 16 values) → `signature256`:
    ///    64-bit signatures saturate and stop filtering.
    /// 5. Otherwise → `signature64`.
    ///
    /// Returns `None` only when the registry lacks an algorithm for the
    /// predicate (never for [`Registry::standard`]).
    pub fn auto_set_join(
        &self,
        r: &Relation,
        s: &Relation,
        pred: SetPredicate,
    ) -> Option<Arc<dyn SetJoinAlgorithm>> {
        self.auto_set_join_with(r, s, pred, 1)
    }

    /// [`Registry::auto_set_join`] with a parallel-context hint: when the
    /// caller will execute with `workers > 1` threads (the `Engine`
    /// passes its parallelism degree) and the containment input is large
    /// (≥ 4096 tuples combined), the partition-parallel
    /// `parallel-signature` variant is preferred — the anchor-element
    /// partitioning both prunes candidate pairs and gives the workers
    /// independent shards. `workers ≤ 1` reproduces the serial choice
    /// exactly; `=` and `∩ ≠ ∅` keep their dedicated (quasi)linear
    /// algorithms at every worker count.
    pub fn auto_set_join_with(
        &self,
        r: &Relation,
        s: &Relation,
        pred: SetPredicate,
        workers: usize,
    ) -> Option<Arc<dyn SetJoinAlgorithm>> {
        let pick = |name: &str| self.find_set_join(name).filter(|a| a.supports(pred));
        let fallback = || {
            self.set_joins
                .iter()
                .rev()
                .find(|a| a.supports(pred))
                .cloned()
        };
        let n = r.len() + s.len();
        let preferred = match pred {
            SetPredicate::Equals => pick("hash-set-equality"),
            SetPredicate::IntersectsNonempty => pick("equijoin-intersect"),
            SetPredicate::Contains | SetPredicate::ContainedIn => {
                if workers > 1 && n >= PARALLEL_SETJOIN_INPUT {
                    pick("parallel-signature")
                } else if n <= SMALL_INPUT {
                    pick("nested-loop")
                } else if avg_group_size(r).max(avg_group_size(s)) >= WIDE_SET_THRESHOLD {
                    pick("signature256")
                } else {
                    pick("signature64")
                }
            }
        };
        preferred.or_else(fallback)
    }

    /// Pick a division algorithm from the semantics and input statistics.
    ///
    /// Deterministic rules, in order:
    ///
    /// 1. Tiny inputs (≤ 64 tuples total) → `sort-merge`: canonical
    ///    storage order makes it sort-free, and it allocates nothing.
    /// 2. Equality semantics → `counting` (group sizes fall out of the
    ///    single counting pass).
    /// 3. Otherwise → `hash` (Graefe's bitmap division).
    ///
    /// Returns `None` only for an empty registry.
    pub fn auto_division(
        &self,
        r: &Relation,
        s: &Relation,
        sem: DivisionSemantics,
    ) -> Option<Arc<dyn DivisionAlgorithm>> {
        self.auto_division_with(r, s, sem, 1)
    }

    /// [`Registry::auto_division`] with a parallel-context hint: with
    /// `workers > 1` and a large dividend (≥ 8192 tuples combined) the
    /// hash-partitioned `parallel-hash` variant is preferred so the
    /// build/probe pass shards across the worker threads. `workers ≤ 1`
    /// reproduces the serial choice exactly.
    pub fn auto_division_with(
        &self,
        r: &Relation,
        s: &Relation,
        sem: DivisionSemantics,
        workers: usize,
    ) -> Option<Arc<dyn DivisionAlgorithm>> {
        let pick = |name: &str| self.find_division(name);
        let preferred = if workers > 1 && r.len() + s.len() >= PARALLEL_DIVISION_INPUT {
            pick("parallel-hash")
        } else if r.len() + s.len() <= SMALL_INPUT {
            pick("sort-merge")
        } else if sem == DivisionSemantics::Equality {
            pick("counting")
        } else {
            pick("hash")
        };
        preferred.or_else(|| self.divisions.last().cloned())
    }

    /// **Cost-based** division selection: with statistics, every
    /// registered algorithm is priced by [`division_cost`] and the
    /// cheapest wins; without statistics this is exactly
    /// [`Registry::auto_division_with`] (the threshold rules), so
    /// engines with statistics disabled behave identically to engines
    /// predating the cost model.
    ///
    /// Deterministic: identical statistics produce identical picks; on
    /// exact cost ties the latest registration of a name wins (matching
    /// the [`Registry::find_division`] shadowing rule).
    pub fn auto_division_costed(
        &self,
        r: &Relation,
        s: &Relation,
        sem: DivisionSemantics,
        workers: usize,
        stats: Option<(&TableStats, &TableStats)>,
        model: &CostModel,
    ) -> Option<Arc<dyn DivisionAlgorithm>> {
        let Some((rs, ss)) = stats else {
            return self.auto_division_with(r, s, sem, workers);
        };
        let mut best: Option<(f64, Arc<dyn DivisionAlgorithm>)> = None;
        let mut seen: Vec<&str> = Vec::new();
        for alg in self.divisions.iter().rev() {
            if seen.contains(&alg.name()) {
                continue; // shadowed by a later registration
            }
            seen.push(alg.name());
            let cost = division_cost(model, alg.as_ref(), rs, ss, sem, workers);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, alg.clone()));
            }
        }
        best.map(|(_, a)| a)
    }

    /// **Cost-based** set-join selection over the algorithms supporting
    /// `pred` (see [`Registry::auto_division_costed`]; prices come from
    /// [`set_join_cost`]). Falls back to the threshold rules of
    /// [`Registry::auto_set_join_with`] when `stats` is `None`.
    pub fn auto_set_join_costed(
        &self,
        r: &Relation,
        s: &Relation,
        pred: SetPredicate,
        workers: usize,
        stats: Option<(&TableStats, &TableStats)>,
        model: &CostModel,
    ) -> Option<Arc<dyn SetJoinAlgorithm>> {
        let Some((rs, ss)) = stats else {
            return self.auto_set_join_with(r, s, pred, workers);
        };
        let mut best: Option<(f64, Arc<dyn SetJoinAlgorithm>)> = None;
        let mut seen: Vec<&str> = Vec::new();
        for alg in self.set_joins.iter().rev() {
            if seen.contains(&alg.name()) {
                continue;
            }
            seen.push(alg.name());
            if !alg.supports(pred) {
                continue;
            }
            let cost = set_join_cost(model, alg.as_ref(), rs, ss, pred, workers);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, alg.clone()));
            }
        }
        best.map(|(_, a)| a)
    }
}

// ---------------------------------------------------------------------------
// The cost formulas
// ---------------------------------------------------------------------------

/// Verification work per nested-loop candidate pair, in
/// [`CostModel::verify`] units — hand-set (the exact merge test bails
/// out early on most non-matching pairs, so the effective per-pair cost
/// is a small constant rather than the full set size).
const NL_PAIR: f64 = 2.4;

/// Per-candidate scan factor of the inverted-index join's postings
/// intersection (hand-set like [`NL_PAIR`]).
const INV_SCAN: f64 = 0.55;

/// Per-probe-group bookkeeping of the inverted-index join (it
/// allocates a candidate-count map per contained group) — dominant at
/// small group counts, where the measured medians sit well above the
/// pure postings-scan cost.
const INV_GROUP: f64 = 100.0;

/// Per-candidate anchor-postings probe cost of the partition-based set
/// join, on top of the signature test.
const PSJ_PROBE: f64 = 0.2;

/// Estimated cost, in [`CostModel`] units, of running a division
/// algorithm on inputs with the given statistics.
///
/// The standard algorithm names get refined formulas (constants
/// hand-set; the benchmark's `setjoin.auto_regret.div-direct` checks
/// the selector they drive against `setjoin.division_ms.*`); anything
/// else is priced by the generic [`CostModel::class_cost`] of its declared
/// [`ComplexityClass`] — so user-registered algorithms participate in
/// cost-based selection from their class alone.
pub fn division_cost(
    model: &CostModel,
    alg: &dyn DivisionAlgorithm,
    r: &TableStats,
    s: &TableStats,
    sem: DivisionSemantics,
    workers: usize,
) -> f64 {
    let w = workers.max(1) as f64;
    let (n_r, n_s) = (r.rows as f64, s.rows as f64);
    let g = r.groups() as f64;
    let mean = r.mean_set();
    match alg.name() {
        // Each (group, divisor value) probe scans half the group.
        "nested-loop" => model.tuple_pass * g * n_s * (1.0 + mean / 2.0),
        // One allocation-free merge per group: the whole divisor is
        // re-walked per group, the dividend once in total.
        "sort-merge" => 0.7 * model.tuple_pass * (n_r + g * n_s),
        // Graefe's bitmap division: build the divisor table, one hash
        // probe per dividend tuple.
        "hash" => model.setup + model.tuple_pass * n_s + model.hash_op * n_r,
        // The counting pass touches the same tuples with a slightly
        // leaner per-tuple operation (counter bump vs bitmap index).
        "counting" => model.setup + model.tuple_pass * n_s + 0.95 * model.hash_op * n_r,
        // Shared divisor index + group-aligned zero-copy dividend
        // slices: the probe pass shards across workers, everything
        // else (spawn, partition bookkeeping, merge) is overhead.
        "parallel-hash" => {
            model.setup
                + model.partition_setup
                + model.spawn * w
                + model.tuple_pass * (n_s + g)
                + 0.95 * model.hash_op * n_r / w
        }
        _ => model.setup + model.class_cost(alg.complexity(sem), n_r + n_s),
    }
}

/// Estimated cost, in [`CostModel`] units, of running a set-join
/// algorithm on inputs with the given statistics (see
/// [`division_cost`]; constants hand-set, the selector checked by the
/// benchmark's `setjoin.auto_regret.setjoin-*`).
///
/// The quadratic algorithms are priced on the **group-pair space**
/// `G_R · G_S` with the expected exact-verification work derived from
/// [`containment_selectivity`] and the signature false-positive rate
/// from the sets' signature-bit saturation; the partition-based join
/// additionally gets the anchor-element pruning factor
/// `mean-set / distinct-elements` — the same quantity that makes it
/// win even single-threaded on selective workloads.
pub fn set_join_cost(
    model: &CostModel,
    alg: &dyn SetJoinAlgorithm,
    r: &TableStats,
    s: &TableStats,
    pred: SetPredicate,
    workers: usize,
) -> f64 {
    let w = workers.max(1) as f64;
    let (n_r, n_s) = (r.rows as f64, s.rows as f64);
    let n = n_r + n_s;
    let (g_r, g_s) = (r.groups() as f64, s.groups() as f64);
    let pairs = g_r * g_s;
    // The side whose sets must cover the other's.
    let (containing, contained) = match pred {
        SetPredicate::ContainedIn => (s, r),
        _ => (r, s),
    };
    let mean_b = containing.mean_set();
    let mean_d = contained.mean_set();
    let d_elems = containing.distinct(1).max(1) as f64;
    // Probability a candidate pair passes the exact test; drives the
    // verification work that survives a signature filter.
    let sel = match pred {
        SetPredicate::Contains | SetPredicate::ContainedIn => {
            containment_selectivity(containing, contained)
        }
        // Equality is containment with a size match on top.
        SetPredicate::Equals => 0.5 * containment_selectivity(containing, contained),
        // Any shared element qualifies — selective only on tiny sets.
        SetPredicate::IntersectsNonempty => 0.5,
    };
    // Exact verification merges both sorted sets.
    let verify_pair = model.verify * (mean_b + mean_d) / 2.0;
    // Signature false-positive rate at a given width: the probability
    // that all of the contained set's signature bits land inside the
    // containing set's occupied bits.
    let fp = |bits: f64| {
        let occ = 1.0 - (-mean_b / bits).exp();
        occ.powf(mean_d.clamp(1.0, bits))
    };
    match alg.name() {
        "nested-loop" => model.tuple_pass * n + NL_PAIR * model.verify * pairs,
        "signature64" => {
            model.setup
                + model.tuple_pass * n
                + pairs * (model.sig_test + (sel + fp(64.0)) * verify_pair)
        }
        "signature128" | "signature256" | "signature512" | "signature-wide" => {
            model.setup
                + 4.0 * model.tuple_pass * n
                + pairs * (2.2 * model.sig_test + (sel + fp(256.0)) * verify_pair)
        }
        // Postings over the containing side; every element of every
        // contained set scans its postings list (average length
        // `rows / distinct-elements`), with a per-group candidate map
        // on top.
        "inverted-index" => {
            model.setup
                + 1.5 * model.tuple_pass * containing.rows as f64
                + INV_GROUP * contained.groups() as f64
                + INV_SCAN * contained.rows as f64 * (containing.rows as f64 / d_elems)
        }
        "hash-set-equality" => model.setup + model.hash_op * n + model.tuple_pass * (g_r + g_s),
        "equijoin-intersect" => model.setup + model.hash_op * n,
        "parallel-signature" => {
            let base = model.partition_setup + 2.0 * model.tuple_pass * n + model.spawn * w;
            match pred {
                // Set-hash partitioning: candidate pairs collapse to
                // the per-partition collisions, dominated by the group
                // hashing itself.
                SetPredicate::Equals => base + model.hash_op * (g_r + g_s) / w,
                _ => {
                    // Anchor pruning: a contained group is only tested
                    // against groups holding its anchor element.
                    let pruned = pairs * (mean_b / d_elems).min(1.0);
                    base + (pruned * (model.sig_test + PSJ_PROBE) + pairs * sel * verify_pair) / w
                }
            }
        }
        _ => model.setup + model.class_cost(alg.complexity(pred), n),
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field(
                "set_joins",
                &self.set_joins.iter().map(|a| a.name()).collect::<Vec<_>>(),
            )
            .field(
                "divisions",
                &self.divisions.iter().map(|a| a.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Average number of values per group of a binary relation (0 when empty).
fn avg_group_size(r: &Relation) -> usize {
    // Canonical storage order keeps equal keys adjacent: counting group
    // boundaries is one allocation-free scan (materializing `group_sets`
    // here would clone every value just to take a length).
    let mut groups = 0usize;
    let mut prev = None;
    for t in r {
        if prev != Some(&t[0]) {
            groups += 1;
            prev = Some(&t[0]);
        }
    }
    r.len().checked_div(groups).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::{Relation, Tuple};

    fn pairs(rows: &[[i64; 2]]) -> Relation {
        Relation::from_tuples(2, rows.iter().map(|r| Tuple::from_ints(r))).unwrap()
    }

    #[test]
    fn standard_registry_has_all_algorithms() {
        let reg = Registry::standard();
        assert_eq!(reg.set_join_algorithms().len(), 7);
        assert_eq!(reg.division_algorithms().len(), 5);
        for name in [
            "nested-loop",
            "signature64",
            "signature256",
            "inverted-index",
            "hash-set-equality",
            "equijoin-intersect",
            "parallel-signature",
        ] {
            assert!(reg.find_set_join(name).is_some(), "{name}");
        }
        for name in [
            "nested-loop",
            "sort-merge",
            "hash",
            "counting",
            "parallel-hash",
        ] {
            assert!(reg.find_division(name).is_some(), "{name}");
        }
        assert!(reg.find_set_join("no-such").is_none());
        assert!(reg.find_division("no-such").is_none());
    }

    #[test]
    fn every_registered_algorithm_matches_the_baseline() {
        let r = pairs(&[[1, 10], [1, 11], [2, 10], [3, 12], [3, 13]]);
        let s = pairs(&[[5, 10], [5, 11], [6, 10], [7, 13]]);
        let reg = Registry::standard();
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
            SetPredicate::IntersectsNonempty,
        ] {
            let want = nested_loop_set_join(&r, &s, pred);
            for alg in reg.set_join_algorithms() {
                if alg.supports(pred) {
                    assert_eq!(alg.run(&r, &s, pred), want, "{} on {pred:?}", alg.name());
                }
            }
        }
        let divisor = Relation::from_int_rows(&[&[10], &[11]]);
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let want = crate::division::divide(&r, &divisor, sem);
            for alg in reg.division_algorithms() {
                assert_eq!(alg.run(&r, &divisor, sem), want, "{} {sem:?}", alg.name());
            }
        }
    }

    #[test]
    fn auto_set_join_picks_by_predicate() {
        let reg = Registry::standard();
        let r = pairs(&[[1, 10], [1, 11]]);
        let s = pairs(&[[5, 10]]);
        assert_eq!(
            reg.auto_set_join(&r, &s, SetPredicate::Equals)
                .unwrap()
                .name(),
            "hash-set-equality"
        );
        assert_eq!(
            reg.auto_set_join(&r, &s, SetPredicate::IntersectsNonempty)
                .unwrap()
                .name(),
            "equijoin-intersect"
        );
        // Tiny containment input → nested loops.
        assert_eq!(
            reg.auto_set_join(&r, &s, SetPredicate::Contains)
                .unwrap()
                .name(),
            "nested-loop"
        );
    }

    #[test]
    fn auto_set_join_scales_with_input_stats() {
        let reg = Registry::standard();
        // > SMALL_INPUT tuples, small groups → 64-bit signatures.
        let rows: Vec<[i64; 2]> = (0..60).flat_map(|g| [[g, 2 * g], [g, 2 * g + 1]]).collect();
        let big = pairs(&rows);
        assert_eq!(
            reg.auto_set_join(&big, &big, SetPredicate::Contains)
                .unwrap()
                .name(),
            "signature64"
        );
        // Wide groups (≥ WIDE_SET_THRESHOLD values each) → wide signatures.
        let wide_rows: Vec<[i64; 2]> = (0..4).flat_map(|g| (0..20).map(move |v| [g, v])).collect();
        let wide = pairs(&wide_rows);
        assert_eq!(
            reg.auto_set_join(&wide, &wide, SetPredicate::Contains)
                .unwrap()
                .name(),
            "signature256"
        );
    }

    #[test]
    fn auto_division_picks_by_stats_and_semantics() {
        let reg = Registry::standard();
        let small = pairs(&[[1, 7], [2, 7]]);
        let divisor = Relation::from_int_rows(&[&[7]]);
        assert_eq!(
            reg.auto_division(&small, &divisor, DivisionSemantics::Containment)
                .unwrap()
                .name(),
            "sort-merge"
        );
        let rows: Vec<[i64; 2]> = (0..200).map(|i| [i / 4, i % 4]).collect();
        let big = pairs(&rows);
        assert_eq!(
            reg.auto_division(&big, &divisor, DivisionSemantics::Containment)
                .unwrap()
                .name(),
            "hash"
        );
        assert_eq!(
            reg.auto_division(&big, &divisor, DivisionSemantics::Equality)
                .unwrap()
                .name(),
            "counting"
        );
    }

    #[test]
    fn auto_with_workers_prefers_parallel_variants_on_large_inputs() {
        let reg = Registry::standard();
        // Fig-scale containment input: > PARALLEL_SETJOIN_INPUT tuples.
        let rows: Vec<[i64; 2]> = (0..1200)
            .flat_map(|g| (0..2).map(move |v| [g, v]))
            .collect();
        let big = pairs(&rows);
        assert_eq!(
            reg.auto_set_join_with(&big, &big, SetPredicate::Contains, 4)
                .unwrap()
                .name(),
            "parallel-signature"
        );
        // Same input, serial context: the serial pick is unchanged.
        assert_eq!(
            reg.auto_set_join_with(&big, &big, SetPredicate::Contains, 1)
                .unwrap()
                .name(),
            reg.auto_set_join(&big, &big, SetPredicate::Contains)
                .unwrap()
                .name()
        );
        // Equality keeps its dedicated quasilinear algorithm even in a
        // parallel context.
        assert_eq!(
            reg.auto_set_join_with(&big, &big, SetPredicate::Equals, 8)
                .unwrap()
                .name(),
            "hash-set-equality"
        );
        // Division: large dividend + workers ⇒ parallel-hash; serial
        // context unchanged.
        let drows: Vec<[i64; 2]> = (0..10_000).map(|i| [i / 4, i % 4]).collect();
        let dividend = pairs(&drows);
        let divisor = Relation::from_int_rows(&[&[0], &[1]]);
        assert_eq!(
            reg.auto_division_with(&dividend, &divisor, DivisionSemantics::Containment, 4)
                .unwrap()
                .name(),
            "parallel-hash"
        );
        assert_eq!(
            reg.auto_division_with(&dividend, &divisor, DivisionSemantics::Containment, 1)
                .unwrap()
                .name(),
            "hash"
        );
        // Small inputs never trigger the parallel variants, whatever the
        // worker count.
        let small = pairs(&[[1, 7], [2, 7]]);
        assert_eq!(
            reg.auto_division_with(&small, &divisor, DivisionSemantics::Containment, 8)
                .unwrap()
                .name(),
            "sort-merge"
        );
    }

    #[test]
    fn run_with_workers_defaults_to_run_for_serial_algorithms() {
        let reg = Registry::standard();
        let r = pairs(&[[1, 10], [1, 11], [2, 10]]);
        let s = pairs(&[[5, 10], [5, 11]]);
        for alg in reg.set_join_algorithms() {
            if alg.supports(SetPredicate::Contains) {
                assert_eq!(
                    alg.run_with_workers(&r, &s, SetPredicate::Contains, 4),
                    alg.run(&r, &s, SetPredicate::Contains),
                    "{}",
                    alg.name()
                );
            }
        }
        let divisor = Relation::from_int_rows(&[&[10], &[11]]);
        for alg in reg.division_algorithms() {
            assert_eq!(
                alg.run_with_workers(&r, &divisor, DivisionSemantics::Containment, 4),
                alg.run(&r, &divisor, DivisionSemantics::Containment),
                "{}",
                alg.name()
            );
        }
    }

    #[test]
    fn auto_never_picks_an_unsupported_algorithm() {
        let reg = Registry::standard();
        let r = pairs(&[[1, 10]]);
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
            SetPredicate::IntersectsNonempty,
        ] {
            let alg = reg.auto_set_join(&r, &r, pred).unwrap();
            assert!(alg.supports(pred), "{} vs {pred:?}", alg.name());
        }
    }

    #[test]
    fn registration_shadows_by_name() {
        struct Always;
        impl SetJoinAlgorithm for Always {
            fn name(&self) -> &'static str {
                "nested-loop"
            }
            fn supports(&self, _p: SetPredicate) -> bool {
                true
            }
            fn complexity(&self, _p: SetPredicate) -> ComplexityClass {
                ComplexityClass::Linear
            }
            fn run(&self, r: &Relation, _s: &Relation, _p: SetPredicate) -> Relation {
                r.clone()
            }
        }
        let mut reg = Registry::standard().clone();
        reg.register_set_join(Arc::new(Always));
        let got = reg.find_set_join("nested-loop").unwrap();
        assert_eq!(
            got.complexity(SetPredicate::Contains),
            ComplexityClass::Linear,
            "later registration must shadow the standard entry"
        );
    }

    #[test]
    fn wide_signature_name_tracks_width() {
        assert_eq!(WideSignatureSetJoin { words: 2 }.name(), "signature128");
        assert_eq!(WideSignatureSetJoin { words: 4 }.name(), "signature256");
        assert_eq!(WideSignatureSetJoin { words: 3 }.name(), "signature-wide");
        // A one-word wide signature must not shadow the standard entry.
        assert_eq!(WideSignatureSetJoin { words: 1 }.name(), "signature-wide");
    }

    fn stats_pair(r: &Relation, s: &Relation) -> (TableStats, TableStats) {
        (TableStats::analyze(r), TableStats::analyze(s))
    }

    #[test]
    fn costed_auto_without_stats_is_the_threshold_selector() {
        let reg = Registry::standard();
        let model = CostModel::default();
        let rows: Vec<[i64; 2]> = (0..500).map(|i| [i / 4, i % 4]).collect();
        let big = pairs(&rows);
        let small = pairs(&[[1, 7], [2, 7]]);
        let divisor = Relation::from_int_rows(&[&[7]]);
        for (r, s) in [(&big, &divisor), (&small, &divisor)] {
            for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
                for workers in [1usize, 4] {
                    assert_eq!(
                        reg.auto_division_costed(r, s, sem, workers, None, &model)
                            .unwrap()
                            .name(),
                        reg.auto_division_with(r, s, sem, workers).unwrap().name(),
                        "stats off must reproduce the threshold pick"
                    );
                }
            }
        }
        for pred in [
            SetPredicate::Contains,
            SetPredicate::Equals,
            SetPredicate::IntersectsNonempty,
        ] {
            assert_eq!(
                reg.auto_set_join_costed(&big, &big, pred, 1, None, &model)
                    .unwrap()
                    .name(),
                reg.auto_set_join_with(&big, &big, pred, 1).unwrap().name()
            );
        }
    }

    #[test]
    fn costed_division_picks_by_scale_and_workers() {
        let reg = Registry::standard();
        let model = CostModel::default();
        // A divisor comfortably larger than the mean set size: per-group
        // divisor merges (sort-merge's cost) outweigh per-tuple hashing.
        let drows: Vec<[i64; 1]> = (0..8).map(|i| [i]).collect();
        let divisor = Relation::from_tuples(1, drows.iter().map(|r| Tuple::from_ints(r))).unwrap();
        // Tiny input: the allocation-free merge wins on setup cost.
        let small = pairs(&[[1, 0], [1, 1], [2, 0]]);
        let (rs, ss) = stats_pair(&small, &divisor);
        let pick = |r: &Relation, st: &(TableStats, TableStats), workers| {
            reg.auto_division_costed(
                r,
                &divisor,
                DivisionSemantics::Containment,
                workers,
                Some((&st.0, &st.1)),
                &model,
            )
            .unwrap()
            .name()
        };
        assert_eq!(pick(&small, &(rs, ss), 1), "sort-merge");
        // Fig-scale input: the one-pass counting division wins serial…
        let rows: Vec<[i64; 2]> = (0..60_000).map(|i| [i / 4, i % 4]).collect();
        let big = pairs(&rows);
        let st = stats_pair(&big, &divisor);
        assert_eq!(pick(&big, &st, 1), "counting");
        // …and the partitioned variant wins once workers amortize the
        // spawn cost.
        assert_eq!(pick(&big, &st, 4), "parallel-hash");
    }

    #[test]
    fn costed_set_join_prices_the_anchor_pruning() {
        let reg = Registry::standard();
        let model = CostModel::default();
        // Many groups over a small element domain — the regime where
        // anchor partitioning prunes the pair space and the
        // partition-based join wins even single-threaded.
        let rows: Vec<[i64; 2]> = (0..2000)
            .flat_map(|g| (0..6).map(move |v| [g, (g * 7 + v) % 64]))
            .collect();
        let big = pairs(&rows);
        let (rs, ss) = stats_pair(&big, &big);
        let alg = reg
            .auto_set_join_costed(
                &big,
                &big,
                SetPredicate::Contains,
                1,
                Some((&rs, &ss)),
                &model,
            )
            .unwrap();
        assert_eq!(alg.name(), "parallel-signature");
        // Small group counts: signatures win (spawn/partition overhead
        // dominates), and tiny inputs fall back to nested loops.
        let mid_rows: Vec<[i64; 2]> = (0..128)
            .flat_map(|g| (0..6).map(move |v| [g, (g * 7 + v) % 64]))
            .collect();
        let mid = pairs(&mid_rows);
        let (ms, _) = stats_pair(&mid, &mid);
        let alg = reg
            .auto_set_join_costed(
                &mid,
                &mid,
                SetPredicate::Contains,
                1,
                Some((&ms, &ms)),
                &model,
            )
            .unwrap();
        assert_eq!(alg.name(), "signature64");
        let tiny = pairs(&[[1, 10], [1, 11], [2, 10]]);
        let (ts, _) = stats_pair(&tiny, &tiny);
        let alg = reg
            .auto_set_join_costed(
                &tiny,
                &tiny,
                SetPredicate::Contains,
                1,
                Some((&ts, &ts)),
                &model,
            )
            .unwrap();
        assert_eq!(alg.name(), "nested-loop");
        // Dedicated (quasi)linear algorithms keep their predicates.
        let alg = reg
            .auto_set_join_costed(
                &big,
                &big,
                SetPredicate::Equals,
                1,
                Some((&rs, &ss)),
                &model,
            )
            .unwrap();
        assert_eq!(alg.name(), "hash-set-equality");
        let alg = reg
            .auto_set_join_costed(
                &big,
                &big,
                SetPredicate::IntersectsNonempty,
                1,
                Some((&rs, &ss)),
                &model,
            )
            .unwrap();
        assert_eq!(alg.name(), "equijoin-intersect");
    }

    #[test]
    fn costed_auto_never_picks_unsupported_and_prices_unknown_by_class() {
        struct Custom;
        impl SetJoinAlgorithm for Custom {
            fn name(&self) -> &'static str {
                "custom-linear"
            }
            fn supports(&self, p: SetPredicate) -> bool {
                p == SetPredicate::Contains
            }
            fn complexity(&self, _p: SetPredicate) -> ComplexityClass {
                ComplexityClass::Linear
            }
            fn run(&self, r: &Relation, _s: &Relation, _p: SetPredicate) -> Relation {
                r.clone()
            }
        }
        let mut reg = Registry::standard().clone();
        reg.register_set_join(Arc::new(Custom));
        let model = CostModel::default();
        let rows: Vec<[i64; 2]> = (0..4000).map(|i| [i / 4, i % 16]).collect();
        let big = pairs(&rows);
        let st = TableStats::analyze(&big);
        // A (claimed) linear algorithm beats every quadratic formula at
        // scale: the generic class fallback prices it competitively.
        let alg = reg
            .auto_set_join_costed(
                &big,
                &big,
                SetPredicate::Contains,
                1,
                Some((&st, &st)),
                &model,
            )
            .unwrap();
        assert_eq!(alg.name(), "custom-linear");
        // Unsupported predicates never see it.
        let alg = reg
            .auto_set_join_costed(
                &big,
                &big,
                SetPredicate::Equals,
                1,
                Some((&st, &st)),
                &model,
            )
            .unwrap();
        assert!(alg.supports(SetPredicate::Equals), "{}", alg.name());
    }

    #[test]
    fn thresholds_are_exposed_and_used() {
        // The constants are public so tests can sit exactly on the
        // boundary: one tuple past SMALL_INPUT flips the division pick.
        use super::thresholds::*;
        let divisor = Relation::from_int_rows(&[&[0]]);
        let at: Vec<[i64; 2]> = (0..SMALL_INPUT as i64 - 1).map(|i| [i, 0]).collect();
        let over: Vec<[i64; 2]> = (0..SMALL_INPUT as i64).map(|i| [i, 0]).collect();
        let reg = Registry::standard();
        assert_eq!(
            reg.auto_division(&pairs(&at), &divisor, DivisionSemantics::Containment)
                .unwrap()
                .name(),
            "sort-merge"
        );
        assert_eq!(
            reg.auto_division(&pairs(&over), &divisor, DivisionSemantics::Containment)
                .unwrap()
                .name(),
            "hash"
        );
        const { assert!(WIDE_SET_THRESHOLD > 0) };
        const { assert!(PARALLEL_SETJOIN_INPUT < PARALLEL_DIVISION_INPUT) };
    }

    #[test]
    fn complexity_classes_render() {
        assert_eq!(ComplexityClass::Linear.to_string(), "O(n)");
        assert_eq!(ComplexityClass::Quasilinear.to_string(), "O(n log n)");
        assert_eq!(ComplexityClass::Quadratic.to_string(), "O(n²)");
        assert!(ComplexityClass::Linear < ComplexityClass::Quadratic);
    }
}
