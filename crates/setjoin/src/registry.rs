//! The set-join / division **algorithm registry**: every algorithm of this
//! crate behind one trait object, with one cost-based selector per
//! operator.
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
//! * [`Registry::auto_set_join`] / [`Registry::auto_division`] — price
//!   every registered algorithm on the operands' [`TableStats`]
//!   ([`set_join_cost`] / [`division_cost`]) and pick the cheapest.
//!   Statistics are an input, not a mode: a caller without a catalog
//!   runs [`TableStats::analyze`] on the operands first.
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
/// with a deterministic cost-based selector per operator.
#[derive(Clone, Default)]
pub struct Registry {
    set_joins: Vec<Arc<dyn SetJoinAlgorithm>>,
    divisions: Vec<Arc<dyn DivisionAlgorithm>>,
}

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

    /// Pick the division algorithm [`division_cost`] prices cheapest on
    /// operands with the given statistics, under `workers` threads.
    ///
    /// Deterministic: identical statistics produce identical picks; on
    /// exact cost ties the latest registration of a name wins (matching
    /// the [`Registry::find_division`] shadowing rule). Returns `None`
    /// only for an empty registry.
    pub fn auto_division(
        &self,
        r: &TableStats,
        s: &TableStats,
        sem: DivisionSemantics,
        workers: usize,
        model: &CostModel,
    ) -> Option<Arc<dyn DivisionAlgorithm>> {
        let mut best: Option<(f64, Arc<dyn DivisionAlgorithm>)> = None;
        let mut seen: Vec<&str> = Vec::new();
        for alg in self.divisions.iter().rev() {
            if seen.contains(&alg.name()) {
                continue; // shadowed by a later registration
            }
            seen.push(alg.name());
            let cost = division_cost(model, alg.as_ref(), r, s, sem, workers);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, alg.clone()));
            }
        }
        best.map(|(_, a)| a)
    }

    /// Pick the cheapest set-join algorithm among those supporting
    /// `pred` (see [`Registry::auto_division`]; prices come from
    /// [`set_join_cost`]). Returns `None` only when the registry lacks
    /// an algorithm for the predicate (never for [`Registry::standard`]).
    pub fn auto_set_join(
        &self,
        r: &TableStats,
        s: &TableStats,
        pred: SetPredicate,
        workers: usize,
        model: &CostModel,
    ) -> Option<Arc<dyn SetJoinAlgorithm>> {
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
            let cost = set_join_cost(model, alg.as_ref(), r, s, pred, workers);
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

    #[test]
    fn auto_division_picks_by_scale_and_workers() {
        let reg = Registry::standard();
        let model = CostModel::default();
        // A divisor comfortably larger than the mean set size: per-group
        // divisor merges (sort-merge's cost) outweigh per-tuple hashing.
        let drows: Vec<[i64; 1]> = (0..8).map(|i| [i]).collect();
        let divisor = Relation::from_tuples(1, drows.iter().map(|r| Tuple::from_ints(r))).unwrap();
        let ss = TableStats::analyze(&divisor);
        let pick = |r: &Relation, sem, workers| {
            reg.auto_division(&TableStats::analyze(r), &ss, sem, workers, &model)
                .unwrap()
                .name()
        };
        // Tiny input: the allocation-free merge wins on setup cost, at
        // any worker count.
        let small = pairs(&[[1, 0], [1, 1], [2, 0]]);
        assert_eq!(
            pick(&small, DivisionSemantics::Containment, 1),
            "sort-merge"
        );
        assert_eq!(
            pick(&small, DivisionSemantics::Containment, 8),
            "sort-merge"
        );
        // Fig-scale input: the one-pass counting division wins serial,
        // under both semantics…
        let rows: Vec<[i64; 2]> = (0..60_000).map(|i| [i / 4, i % 4]).collect();
        let big = pairs(&rows);
        assert_eq!(pick(&big, DivisionSemantics::Containment, 1), "counting");
        assert_eq!(pick(&big, DivisionSemantics::Equality, 1), "counting");
        // …and the partitioned variant wins once workers amortize the
        // spawn cost.
        assert_eq!(
            pick(&big, DivisionSemantics::Containment, 4),
            "parallel-hash"
        );
    }

    #[test]
    fn auto_set_join_prices_the_anchor_pruning() {
        let reg = Registry::standard();
        let model = CostModel::default();
        let pick = |r: &Relation, pred| {
            let st = TableStats::analyze(r);
            reg.auto_set_join(&st, &st, pred, 1, &model).unwrap().name()
        };
        // Many groups over a small element domain — the regime where
        // anchor partitioning prunes the pair space and the
        // partition-based join wins even single-threaded.
        let rows: Vec<[i64; 2]> = (0..2000)
            .flat_map(|g| (0..6).map(move |v| [g, (g * 7 + v) % 64]))
            .collect();
        let big = pairs(&rows);
        assert_eq!(pick(&big, SetPredicate::Contains), "parallel-signature");
        // Small group counts: signatures win (spawn/partition overhead
        // dominates), and tiny inputs fall back to nested loops.
        let mid_rows: Vec<[i64; 2]> = (0..128)
            .flat_map(|g| (0..6).map(move |v| [g, (g * 7 + v) % 64]))
            .collect();
        assert_eq!(
            pick(&pairs(&mid_rows), SetPredicate::Contains),
            "signature64"
        );
        let tiny = pairs(&[[1, 10], [1, 11], [2, 10]]);
        assert_eq!(pick(&tiny, SetPredicate::Contains), "nested-loop");
        // Dedicated (quasi)linear algorithms keep their predicates.
        assert_eq!(pick(&big, SetPredicate::Equals), "hash-set-equality");
        assert_eq!(
            pick(&big, SetPredicate::IntersectsNonempty),
            "equijoin-intersect"
        );
    }

    #[test]
    fn auto_never_picks_unsupported_and_prices_unknown_by_class() {
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
        let st = TableStats::analyze(&pairs(&rows));
        // A (claimed) linear algorithm beats every quadratic formula at
        // scale: the generic class fallback prices it competitively.
        let alg = reg
            .auto_set_join(&st, &st, SetPredicate::Contains, 1, &model)
            .unwrap();
        assert_eq!(alg.name(), "custom-linear");
        // Unsupported predicates never see it, at scale or on one tuple.
        let one = TableStats::analyze(&pairs(&[[1, 10]]));
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
            SetPredicate::IntersectsNonempty,
        ] {
            for stats in [&st, &one] {
                let alg = reg.auto_set_join(stats, stats, pred, 1, &model).unwrap();
                assert!(alg.supports(pred), "{} vs {pred:?}", alg.name());
            }
        }
    }

    #[test]
    fn complexity_classes_render() {
        assert_eq!(ComplexityClass::Linear.to_string(), "O(n)");
        assert_eq!(ComplexityClass::Quasilinear.to_string(), "O(n log n)");
        assert_eq!(ComplexityClass::Quadratic.to_string(), "O(n²)");
        assert!(ComplexityClass::Linear < ComplexityClass::Quadratic);
    }
}
