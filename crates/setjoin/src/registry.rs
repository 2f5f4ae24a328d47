//! The set-join / division **algorithm table**: every algorithm of this
//! crate declared exactly once, with one cost-based selector per
//! operator.
//!
//! The paper's dichotomy is ultimately a statement about *which algorithm a
//! query processor is allowed to pick*: inside plain RA every division plan
//! is quadratic (Proposition 26), while the direct operators of this crate
//! are linear or quasilinear. The table makes that choice a first-class,
//! inspectable object instead of a hard-wired function call:
//!
//! * [`SetJoinAlgorithm`] / [`DivisionAlgorithm`] — plain structs: name,
//!   supported predicates, complexity class per Definition 16, the cost
//!   formula and the `run` function.
//! * `SET_JOIN_ALGORITHMS` / `DIVISION_ALGORITHMS` — the two `static`
//!   arrays that are the *only* place an algorithm is named; the names
//!   are also metric names in `/BENCHMARK.json`
//!   (`setjoin.setjoin_ms.*`, `setjoin.division_ms.*`).
//! * [`Registry::standard`] — a view of the arrays: iteration, lookup by
//!   name, and [`Registry::auto_set_join`] / [`Registry::auto_division`],
//!   which price every entry on the operands' [`TableStats`] and pick the
//!   cheapest. Statistics are an input, not a mode: a caller without a
//!   catalog runs [`TableStats::analyze`] on the operands first.
//!
//! `sj-eval`'s `Engine` routes its division and set-join entry points
//! through this table, so swapping algorithms in an experiment is a
//! one-line configuration change.

use crate::division::{
    counting_division, hash_division, nested_loop_division, sort_merge_division, DivisionSemantics,
};
use crate::inverted::inverted_index_set_join;
use crate::parallel::{parallel_hash_division, parallel_signature_set_join};
use crate::setjoin::{
    hash_set_equality_join, intersect_join_via_equijoin, nested_loop_set_join, SetPredicate,
};
use crate::wide_signature::wide_signature_set_join;
use sj_stats::{containment_selectivity, CostModel, TableStats};
use sj_storage::Relation;

// `ComplexityClass` (Definition 16's running-time classes) lives in
// `sj-stats` — the bottom of the crate graph; this re-export keeps the
// historical `sj_setjoin::registry::ComplexityClass` path working.
pub use sj_stats::ComplexityClass;

/// A set-join algorithm `R(A,B) ⋈_{B θ D} S(C,D)`: one entry of the
/// set-join table ([`Registry::set_join_algorithms`]). Every entry
/// agrees with [`nested_loop_set_join`] on every predicate it supports
/// (property-tested over the table in this crate's `lib.rs`).
pub struct SetJoinAlgorithm {
    name: &'static str,
    supports: &'static [SetPredicate],
    class: ComplexityClass,
    cost: fn(&CostModel, &SetJoinShape, SetPredicate, f64) -> f64,
    run: fn(&Relation, &Relation, SetPredicate, usize) -> Relation,
}

impl SetJoinAlgorithm {
    /// Stable name used for lookup, reports and benchmark metric names.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Does the algorithm implement this predicate?
    pub fn supports(&self, pred: SetPredicate) -> bool {
        self.supports.contains(&pred)
    }

    /// Worst-case complexity class over inputs.
    pub fn complexity(&self) -> ComplexityClass {
        self.class
    }

    /// Estimated cost, in [`CostModel`] units, of running on inputs with
    /// the given statistics under `workers` threads (constants hand-set;
    /// the selector they drive is checked by the benchmark's
    /// `setjoin.auto_regret.setjoin-*`).
    ///
    /// The quadratic algorithms are priced on the **group-pair space**
    /// `G_R · G_S` with the expected exact-verification work derived from
    /// [`containment_selectivity`] and the signature false-positive rate
    /// from the sets' signature-bit saturation at the entry's own width;
    /// the partition-based join additionally gets the anchor-element
    /// pruning factor `mean-set / distinct-elements` — the same quantity
    /// that makes it win even single-threaded on selective workloads.
    pub fn cost(
        &self,
        model: &CostModel,
        r: &TableStats,
        s: &TableStats,
        pred: SetPredicate,
        workers: usize,
    ) -> f64 {
        let shape = SetJoinShape::of(model, r, s, pred);
        (self.cost)(model, &shape, pred, workers.max(1) as f64)
    }

    /// Execute the set join with a worker-count hint: the
    /// partition-parallel entry fans out over `workers` threads (`0` =
    /// one per CPU), the serial ones ignore it. Results are
    /// byte-identical for every worker count.
    ///
    /// Callers check [`Self::supports`] first — the selectors filter on
    /// it — so no entry checks `pred` again: a single-predicate entry
    /// asked for another predicate answers its own.
    pub fn run(&self, r: &Relation, s: &Relation, pred: SetPredicate, workers: usize) -> Relation {
        (self.run)(r, s, pred, workers)
    }
}

/// A division algorithm `R(A,B) ÷ S(B)` (both semantics): one entry of
/// the division table ([`Registry::division_algorithms`]). Every entry
/// agrees with the brute-force oracle on both [`DivisionSemantics`]
/// variants (property-tested over the table in this crate's `lib.rs`).
pub struct DivisionAlgorithm {
    name: &'static str,
    class: ComplexityClass,
    cost: fn(&CostModel, &TableStats, &TableStats, f64) -> f64,
    run: fn(&Relation, &Relation, DivisionSemantics, usize) -> Relation,
}

impl DivisionAlgorithm {
    /// Stable name used for lookup, reports and benchmark metric names.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Worst-case complexity class over inputs.
    pub fn complexity(&self) -> ComplexityClass {
        self.class
    }

    /// Estimated cost, in [`CostModel`] units, of dividing inputs with
    /// the given statistics under `workers` threads (constants hand-set;
    /// the benchmark's `setjoin.auto_regret.div-direct` checks the
    /// selector they drive against `setjoin.division_ms.*`).
    pub fn cost(&self, model: &CostModel, r: &TableStats, s: &TableStats, workers: usize) -> f64 {
        (self.cost)(model, r, s, workers.max(1) as f64)
    }

    /// Execute the division with a worker-count hint (see
    /// [`SetJoinAlgorithm::run`]; serial entries ignore it).
    pub fn run(
        &self,
        r: &Relation,
        s: &Relation,
        sem: DivisionSemantics,
        workers: usize,
    ) -> Relation {
        (self.run)(r, s, sem, workers)
    }
}

/// Run a division algorithm under a `setjoin.division` tracing span
/// carrying the algorithm name, operand sizes, worker hint, and output
/// cardinality — the single traced choke point for table-routed
/// divisions (the engine's `divide` goes through here).
pub fn run_division_traced(
    alg: &DivisionAlgorithm,
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
    let out = alg.run(r, s, sem, workers);
    span.attr("out_rows", out.len());
    out
}

/// Run a set-join algorithm under a `setjoin.setjoin` tracing span (see
/// [`run_division_traced`]).
pub fn run_set_join_traced(
    alg: &SetJoinAlgorithm,
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
    let out = alg.run(r, s, pred, workers);
    span.attr("out_rows", out.len());
    out
}

// ---------------------------------------------------------------------------
// The set-join table
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
/// allocates a candidate list per contained group) — dominant at
/// small group counts, where the measured medians sit well above the
/// pure postings-scan cost.
const INV_GROUP: f64 = 100.0;

/// Per-candidate anchor-postings probe cost of the partition-based set
/// join, on top of the signature test.
const PSJ_PROBE: f64 = 0.2;

/// What the set-join cost formulas read off the operands' statistics.
struct SetJoinShape {
    /// Total input tuples.
    n: f64,
    /// `G_R + G_S`.
    groups: f64,
    /// `G_R · G_S`, the candidate pair space.
    pairs: f64,
    /// Rows of the side whose sets must cover the other's, and of the
    /// other side.
    containing_rows: f64,
    contained_rows: f64,
    contained_groups: f64,
    /// Mean set sizes of the two sides.
    mean_b: f64,
    mean_d: f64,
    /// Distinct elements on the containing side.
    d_elems: f64,
    /// Probability a candidate pair passes the exact test; drives the
    /// verification work that survives a signature filter.
    sel: f64,
    /// Exact verification of one pair (merges both sorted sets).
    verify_pair: f64,
}

impl SetJoinShape {
    fn of(model: &CostModel, r: &TableStats, s: &TableStats, pred: SetPredicate) -> Self {
        let (containing, contained) = match pred {
            SetPredicate::ContainedIn => (s, r),
            _ => (r, s),
        };
        let (mean_b, mean_d) = (containing.mean_set(), contained.mean_set());
        SetJoinShape {
            n: r.rows as f64 + s.rows as f64,
            groups: r.groups() as f64 + s.groups() as f64,
            pairs: r.groups() as f64 * s.groups() as f64,
            containing_rows: containing.rows as f64,
            contained_rows: contained.rows as f64,
            contained_groups: contained.groups() as f64,
            mean_b,
            mean_d,
            d_elems: containing.distinct(1).max(1) as f64,
            sel: match pred {
                SetPredicate::Contains | SetPredicate::ContainedIn => {
                    containment_selectivity(containing, contained)
                }
                // Equality is containment with a size match on top.
                SetPredicate::Equals => 0.5 * containment_selectivity(containing, contained),
                // Any shared element qualifies — selective only on tiny sets.
                SetPredicate::IntersectsNonempty => 0.5,
            },
            verify_pair: model.verify * (mean_b + mean_d) / 2.0,
        }
    }

    /// Signature false-positive rate at a given width: the probability
    /// that all of the contained set's signature bits land inside the
    /// containing set's occupied bits.
    fn fp(&self, bits: f64) -> f64 {
        let occ = 1.0 - (-self.mean_b / bits).exp();
        occ.powf(self.mean_d.clamp(1.0, bits))
    }
}

/// The all-pairs signature join at `words` 64-bit words: the signature
/// pass touches `words` words per tuple, the per-pair test costs `test`
/// single-word tests, and the false-positive rate is the width's own.
fn signature_cost(m: &CostModel, x: &SetJoinShape, words: f64, test: f64) -> f64 {
    m.setup
        + words * m.tuple_pass * x.n
        + x.pairs * (test * m.sig_test + (x.sel + x.fp(64.0 * words)) * x.verify_pair)
}

const CONTAINMENT_AND_EQUALITY: &[SetPredicate] = &[
    SetPredicate::Contains,
    SetPredicate::ContainedIn,
    SetPredicate::Equals,
];

/// Every set-join algorithm this crate implements — the one place each
/// is named.
static SET_JOIN_ALGORITHMS: [&SetJoinAlgorithm; 7] = [
    // Every group pair verified exactly, on `Value`s: the oracle.
    &SetJoinAlgorithm {
        name: "nested-loop",
        supports: &SetPredicate::ALL,
        class: ComplexityClass::Quadratic,
        cost: |m, x, _, _| m.tuple_pass * x.n + NL_PAIR * m.verify * x.pairs,
        run: |r, s, pred, _| nested_loop_set_join(r, s, pred),
    },
    // 64-bit Bloom signatures prune pairs before the exact merge
    // verification. Same worst case as nested loops; the filter is a
    // constant factor.
    &SetJoinAlgorithm {
        name: "signature64",
        supports: &SetPredicate::ALL,
        class: ComplexityClass::Quadratic,
        cost: |m, x, _, _| signature_cost(m, x, 1.0, 1.0),
        run: |r, s, pred, _| wide_signature_set_join(r, s, pred, 1),
    },
    // The same join at four words (a four-word test measured ≈ 2.2
    // single-word tests).
    &SetJoinAlgorithm {
        name: "signature256",
        supports: CONTAINMENT_AND_EQUALITY,
        class: ComplexityClass::Quadratic,
        cost: |m, x, _, _| signature_cost(m, x, 4.0, 2.2),
        run: |r, s, pred, _| wide_signature_set_join(r, s, pred, 4),
    },
    // Per-element postings intersection; only `B ⊇ D`. Postings over
    // the containing side; every element of every contained set scans
    // its postings list (average length `rows / distinct-elements`),
    // with a per-group candidate list on top.
    &SetJoinAlgorithm {
        name: "inverted-index",
        supports: &[SetPredicate::Contains],
        class: ComplexityClass::Quadratic,
        cost: |m, x, _, _| {
            m.setup
                + 1.5 * m.tuple_pass * x.containing_rows
                + INV_GROUP * x.contained_groups
                + INV_SCAN * x.contained_rows * (x.containing_rows / x.d_elems)
        },
        run: |r, s, _, _| inverted_index_set_join(r, s),
    },
    // Hash each group's canonical element slice; `=` only.
    &SetJoinAlgorithm {
        name: "hash-set-equality",
        supports: &[SetPredicate::Equals],
        class: ComplexityClass::Quasilinear,
        cost: |m, x, _, _| m.setup + m.hash_op * x.n + m.tuple_pass * x.groups,
        run: |r, s, _, _| hash_set_equality_join(r, s),
    },
    // `∩ ≠ ∅` as an ordinary equijoin — the paper's remark made
    // executable.
    &SetJoinAlgorithm {
        name: "equijoin-intersect",
        supports: &[SetPredicate::IntersectsNonempty],
        class: ComplexityClass::Linear,
        cost: |m, x, _, _| m.setup + m.hash_op * x.n,
        run: |r, s, _, _| intersect_join_via_equijoin(r, s),
    },
    // Groups partitioned by anchor element, signature-filtered exact
    // tests per partition, fanned out over scoped worker threads. All
    // groups can share one anchor partition in the worst case, but the
    // partitioning prunes the candidate pair space even at one worker.
    // (`∩ ≠ ∅` has no anchor element; it is an equijoin anyway.)
    &SetJoinAlgorithm {
        name: "parallel-signature",
        supports: CONTAINMENT_AND_EQUALITY,
        class: ComplexityClass::Quadratic,
        cost: |m, x, pred, w| {
            let base = m.partition_setup + 2.0 * m.tuple_pass * x.n + m.spawn * w;
            match pred {
                // Set-hash partitioning: candidate pairs collapse to
                // the hash collisions, dominated by the group hashing
                // itself.
                SetPredicate::Equals => base + m.hash_op * x.groups / w,
                _ => {
                    // Anchor pruning: a contained group is only tested
                    // against groups holding its anchor element.
                    let pruned = x.pairs * (x.mean_b / x.d_elems).min(1.0);
                    base + (pruned * (m.sig_test + PSJ_PROBE) + x.pairs * x.sel * x.verify_pair) / w
                }
            }
        },
        run: parallel_signature_set_join,
    },
];

// ---------------------------------------------------------------------------
// The division table
// ---------------------------------------------------------------------------

/// The pass every linear division entry makes before its body: the
/// dividend's column-0 runs (its groups) and its element column coded
/// jointly with the divisor, one `tuple_pass` per row and per group.
fn dividend_pass(m: &CostModel, r: &TableStats) -> f64 {
    m.tuple_pass * (r.rows as f64 + r.groups() as f64)
}

/// Every division algorithm this crate implements — the one place each
/// is named.
static DIVISION_ALGORITHMS: [&DivisionAlgorithm; 5] = [
    // The deliberate quadratic baseline: each (group, divisor value)
    // probe scans half the group.
    &DivisionAlgorithm {
        name: "nested-loop",
        class: ComplexityClass::Quadratic,
        cost: |m, r, s, _| {
            m.tuple_pass * r.groups() as f64 * s.rows as f64 * (1.0 + r.mean_set() / 2.0)
        },
        run: |r, s, sem, _| nested_loop_division(r, s, sem),
    },
    // Every linear entry reads the dense dividend (`crate::columnar`):
    // one pass groups its column ([`dividend_pass`]), and only then does
    // the body run. The sort-merge body is the cheapest per row: a
    // group smaller than the divisor is rejected by its size, and a
    // merge stops at the first divisor value a group lacks, so no row
    // is touched twice and none is hashed.
    &DivisionAlgorithm {
        name: "sort-merge",
        class: ComplexityClass::Linear,
        cost: |m, r, _, _| dividend_pass(m, r) + 0.5 * m.tuple_pass * r.rows as f64,
        run: |r, s, sem, _| sort_merge_division(r, s, sem),
    },
    // Graefe's bitmap division: build the divisor table, one hash probe
    // and one bitmap update per dividend row.
    &DivisionAlgorithm {
        name: "hash",
        class: ComplexityClass::Linear,
        cost: |m, r, s, _| {
            m.setup
                + m.hash_op * s.rows as f64
                + dividend_pass(m, r)
                + 2.0 * m.hash_op * r.rows as f64
        },
        run: |r, s, sem, _| hash_division(r, s, sem),
    },
    // The Section 5 grouping/counting strategy: the same probes with a
    // leaner per-row operation (a counter bump, no bitmap).
    &DivisionAlgorithm {
        name: "counting",
        class: ComplexityClass::Linear,
        cost: |m, r, s, _| {
            m.setup
                + m.hash_op * s.rows as f64
                + dividend_pass(m, r)
                + 1.5 * m.hash_op * r.rows as f64
        },
        run: |r, s, sem, _| counting_division(r, s, sem),
    },
    // The counting probes on group-aligned ranges of the column, one
    // per worker: the probes shard, the grouping pass and the spawns do
    // not. It beats the serial merge only once enough workers share
    // enough rows.
    &DivisionAlgorithm {
        name: "parallel-hash",
        class: ComplexityClass::Linear,
        cost: |m, r, s, w| {
            m.setup
                + m.partition_setup
                + m.spawn * w
                + m.hash_op * s.rows as f64
                + dividend_pass(m, r)
                + 1.5 * m.hash_op * r.rows as f64 / w
        },
        run: parallel_hash_division,
    },
];

// ---------------------------------------------------------------------------
// The registry view
// ---------------------------------------------------------------------------

/// The algorithm tables as one object: iteration, lookup by name, and a
/// deterministic cost-based selector per operator.
#[derive(Debug)]
pub struct Registry(());

/// The cheapest entry under `cost`; the latest entry wins exact ties.
fn cheapest<A>(
    algs: impl DoubleEndedIterator<Item = &'static A>,
    cost: impl Fn(&A) -> f64,
) -> &'static A {
    algs.rev()
        .map(|a| (cost(a), a))
        .reduce(|best, next| if next.0 < best.0 { next } else { best })
        .expect("every operator and predicate has a table entry")
        .1
}

impl Registry {
    /// The standard registry: every algorithm this crate implements.
    ///
    /// Set joins: `nested-loop`, `signature64`, `signature256`,
    /// `inverted-index`, `hash-set-equality`, `equijoin-intersect`,
    /// `parallel-signature`.
    /// Divisions: `nested-loop`, `sort-merge`, `hash`, `counting`,
    /// `parallel-hash`.
    pub fn standard() -> &'static Registry {
        static STANDARD: Registry = Registry(());
        &STANDARD
    }

    /// All set-join algorithms, in table order.
    pub fn set_join_algorithms(&self) -> &'static [&'static SetJoinAlgorithm] {
        &SET_JOIN_ALGORITHMS
    }

    /// All division algorithms, in table order.
    pub fn division_algorithms(&self) -> &'static [&'static DivisionAlgorithm] {
        &DIVISION_ALGORITHMS
    }

    /// Look up a set-join algorithm by name.
    pub fn find_set_join(&self, name: &str) -> Option<&'static SetJoinAlgorithm> {
        SET_JOIN_ALGORITHMS.iter().copied().find(|a| a.name == name)
    }

    /// Look up a division algorithm by name.
    pub fn find_division(&self, name: &str) -> Option<&'static DivisionAlgorithm> {
        DIVISION_ALGORITHMS.iter().copied().find(|a| a.name == name)
    }

    /// Pick the division algorithm whose [`DivisionAlgorithm::cost`] is
    /// lowest on operands with the given statistics, under `workers`
    /// threads. Deterministic: identical statistics produce identical
    /// picks.
    pub fn auto_division(
        &self,
        r: &TableStats,
        s: &TableStats,
        workers: usize,
        model: &CostModel,
    ) -> &'static DivisionAlgorithm {
        cheapest(DIVISION_ALGORITHMS.iter().copied(), |a| {
            a.cost(model, r, s, workers)
        })
    }

    /// Pick the cheapest set-join algorithm among those supporting
    /// `pred` (see [`Registry::auto_division`]; prices come from
    /// [`SetJoinAlgorithm::cost`]).
    pub fn auto_set_join(
        &self,
        r: &TableStats,
        s: &TableStats,
        pred: SetPredicate,
        workers: usize,
        model: &CostModel,
    ) -> &'static SetJoinAlgorithm {
        let supporting = SET_JOIN_ALGORITHMS
            .iter()
            .copied()
            .filter(|a| a.supports(pred));
        cheapest(supporting, |a| a.cost(model, r, s, pred, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::{Relation, Tuple};

    fn pairs(rows: &[[i64; 2]]) -> Relation {
        Relation::from_tuples(2, rows.iter().map(|r| Tuple::from_ints(r))).unwrap()
    }

    /// `groups` six-element sets over a 64-element domain — the operands
    /// of the selector tests below.
    fn sets(groups: i64) -> Relation {
        let rows: Vec<[i64; 2]> = (0..groups)
            .flat_map(|g| (0..6).map(move |v| [g, (g * 7 + v) % 64]))
            .collect();
        pairs(&rows)
    }

    /// Names, `supports` sets and classes are the benchmark's metric
    /// names and the selector's search space: pinned as a whole.
    #[test]
    fn the_tables_list_every_algorithm() {
        use ComplexityClass::*;
        use SetPredicate::*;
        let reg = Registry::standard();
        let set_joins: Vec<_> = reg
            .set_join_algorithms()
            .iter()
            .map(|a| {
                let supported: Vec<_> = SetPredicate::ALL
                    .into_iter()
                    .filter(|p| a.supports(*p))
                    .collect();
                (a.name(), supported, a.complexity())
            })
            .collect();
        let all = SetPredicate::ALL.to_vec();
        let three = vec![Contains, ContainedIn, Equals];
        assert_eq!(
            set_joins,
            vec![
                ("nested-loop", all.clone(), Quadratic),
                ("signature64", all, Quadratic),
                ("signature256", three.clone(), Quadratic),
                ("inverted-index", vec![Contains], Quadratic),
                ("hash-set-equality", vec![Equals], Quasilinear),
                ("equijoin-intersect", vec![IntersectsNonempty], Linear),
                ("parallel-signature", three, Quadratic),
            ]
        );
        let divisions: Vec<_> = reg
            .division_algorithms()
            .iter()
            .map(|a| (a.name(), a.complexity()))
            .collect();
        assert_eq!(
            divisions,
            vec![
                ("nested-loop", Quadratic),
                ("sort-merge", Linear),
                ("hash", Linear),
                ("counting", Linear),
                ("parallel-hash", Linear),
            ]
        );
        for a in reg.set_join_algorithms() {
            assert!(std::ptr::eq(reg.find_set_join(a.name()).unwrap(), *a));
        }
        for a in reg.division_algorithms() {
            assert!(std::ptr::eq(reg.find_division(a.name()).unwrap(), *a));
        }
        assert!(reg.find_set_join("no-such").is_none());
        assert!(reg.find_division("no-such").is_none());
    }

    /// Statistics of a dividend of `rows` tuples in `groups` groups and
    /// of a divisor of `divisor` values: the inputs the division
    /// formulas read, at any scale without generating it. The group
    /// count is the leading column's distinct count.
    fn division_shape(rows: usize, groups: usize, divisor: usize) -> (TableStats, TableStats) {
        let mut r = TableStats::analyze(&pairs(&[[1, 1], [2, 1]]));
        r.rows = rows;
        r.columns[0].distinct = groups;
        assert_eq!(r.groups(), groups);
        assert_eq!(r.mean_set(), rows as f64 / groups as f64);
        let mut s = TableStats::analyze(&Relation::from_int_rows(&[&[1]]));
        s.rows = divisor;
        (r, s)
    }

    /// The pick follows the bodies that run: the sort-merge body touches
    /// each dividend row once and hashes nothing, so it wins at every
    /// serial scale — at both benchmark shapes, the serving pool's
    /// `Divide` node (48 549 × 32, one worker) and the batch suite's
    /// direct division (742 497 × 128 at two workers). Only many workers
    /// on a large dividend amortize the spawns and the serial grouping
    /// pass of the partitioned probes.
    #[test]
    fn auto_division_picks_by_scale_and_workers() {
        let reg = Registry::standard();
        let model = CostModel::default();
        let pick = |(r, s): (TableStats, TableStats), workers| {
            reg.auto_division(&r, &s, workers, &model).name()
        };
        let tiny = || {
            let rows = pairs(&[[1, 0], [1, 1], [2, 0]]);
            let divisor = Relation::from_int_rows(&[&[0], &[1]]);
            (TableStats::analyze(&rows), TableStats::analyze(&divisor))
        };
        assert_eq!(pick(tiny(), 1), "sort-merge");
        assert_eq!(pick(tiny(), 8), "sort-merge");
        assert_eq!(pick(division_shape(48_549, 2_048, 32), 1), "sort-merge");
        assert_eq!(pick(division_shape(742_497, 8_192, 128), 1), "sort-merge");
        assert_eq!(pick(division_shape(742_497, 8_192, 128), 2), "sort-merge");
        assert_eq!(
            pick(division_shape(742_497, 8_192, 128), 8),
            "parallel-hash"
        );
        assert_eq!(pick(division_shape(48_549, 2_048, 32), 8), "sort-merge");
    }

    #[test]
    fn auto_set_join_prices_the_anchor_pruning() {
        let reg = Registry::standard();
        let model = CostModel::default();
        let pick = |r: &Relation, pred| {
            let st = TableStats::analyze(r);
            reg.auto_set_join(&st, &st, pred, 1, &model).name()
        };
        // Many groups over a small element domain — the regime where
        // anchor partitioning prunes the pair space and the
        // partition-based join wins even single-threaded.
        let big = sets(2000);
        assert_eq!(pick(&big, SetPredicate::Contains), "parallel-signature");
        // Small group counts: signatures win (spawn/partition overhead
        // dominates), and tiny inputs fall back to nested loops.
        assert_eq!(pick(&sets(128), SetPredicate::Contains), "signature64");
        let tiny = pairs(&[[1, 10], [1, 11], [2, 10]]);
        assert_eq!(pick(&tiny, SetPredicate::Contains), "nested-loop");
        // Dedicated (quasi)linear algorithms keep their predicates.
        assert_eq!(pick(&big, SetPredicate::Equals), "hash-set-equality");
        assert_eq!(
            pick(&big, SetPredicate::IntersectsNonempty),
            "equijoin-intersect"
        );
    }

    /// The pick for every predicate at one and two workers on one fixed
    /// operand pair (128 groups against 2000), as recorded before the
    /// algorithms became table entries.
    #[test]
    fn auto_set_join_picks_per_predicate_and_worker_count() {
        let (r, s) = (
            TableStats::analyze(&sets(128)),
            TableStats::analyze(&sets(2000)),
        );
        let model = CostModel::default();
        for workers in [1, 2] {
            let picks = SetPredicate::ALL.map(|pred| {
                Registry::standard()
                    .auto_set_join(&r, &s, pred, workers, &model)
                    .name()
            });
            assert_eq!(
                picks,
                [
                    "parallel-signature",
                    "parallel-signature",
                    "hash-set-equality",
                    "equijoin-intersect"
                ],
                "{workers} workers"
            );
        }
    }

    /// A wide signature is priced at its own width. Only 256 bits is
    /// registered, so its price — and with it every pick — is
    /// bit-for-bit what it was when every width was priced at 256.
    #[test]
    fn signature_cost_takes_the_entrys_own_width() {
        let model = CostModel::default();
        let alg = Registry::standard().find_set_join("signature256").unwrap();
        for (groups, bits) in [(2000, 0x4143886c26291171u64), (128, 0x40d00d2716a51690)] {
            let st = TableStats::analyze(&sets(groups));
            let cost = alg.cost(&model, &st, &st, SetPredicate::Contains, 1);
            assert_eq!(cost.to_bits(), bits, "{groups} groups: {cost}");
        }
        // Saturated 64-bit signatures let more false positives through
        // than 256-bit ones, and the formula says so.
        let st = TableStats::analyze(&sets(2000));
        let shape = SetJoinShape::of(&model, &st, &st, SetPredicate::Contains);
        assert!(shape.fp(64.0) > shape.fp(256.0));
    }

    #[test]
    fn auto_never_picks_unsupported() {
        let model = CostModel::default();
        let rows: Vec<[i64; 2]> = (0..4000).map(|i| [i / 4, i % 16]).collect();
        let st = TableStats::analyze(&pairs(&rows));
        let one = TableStats::analyze(&pairs(&[[1, 10]]));
        for pred in SetPredicate::ALL {
            for stats in [&st, &one] {
                for workers in [1, 4] {
                    let alg =
                        Registry::standard().auto_set_join(stats, stats, pred, workers, &model);
                    assert!(alg.supports(pred), "{} vs {pred:?}", alg.name());
                }
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
