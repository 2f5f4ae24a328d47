//! The kernel layer: the one home of hash join, hash semijoin, merge
//! join and merge semijoin on the planned path, each written **once**
//! over a selection of its operands' rows (`Rows`), and of the planned
//! path's projection, grouping and tagging ([`project`],
//! [`group_count`], [`tag`]).
//!
//! **Prefix consumers.** A canonical relation is sorted by every prefix
//! `1..k` of its columns, and a ⋉ or σ emits ascending row ids of its
//! left input. So `π[1..k]` over either is one pass over those ids that
//! keeps the first row of each run of equal prefixes
//! ([`project_semijoin`], [`project_merge_semijoin`],
//! [`crate::ops_vec::project_select`]), and `γ[1..k; count](r₁ ⋈θ r₂)`
//! sums partner counts over the same runs ([`group_join`]): tuples are
//! built for the distinct keys only, never for the rows the consumer
//! would discard.
//!
//! A kernel call cuts its two operands into partition pairs and runs the
//! operator body on every pair:
//!
//! * `workers ≤ 1` is the degenerate partitioning: one pair covering
//!   `0..len` of both operands as plain ranges. No index list is built,
//!   no thread or `kernel.partition` span is opened, and no
//!   [`PartitionStat`] is reported — a serial node has no partitions.
//! * `workers > 1` places every row by a hash of its key (`hash %
//!   workers`) into ascending index lists, so equal keys co-locate, and
//!   fans the pairs out over scoped worker threads; the same body runs
//!   per pair and one [`PartitionStat`] per pair is collected.
//!
//! **Key codes.** A hash kernel reads its equality columns in the joint,
//! order-preserving code space of [`sj_storage::column::joint_codes`]:
//! each left key column is coded together with its right partner, so a
//! key is a row of `i64`s and key equality across the two relations is
//! integer equality — zero-copy for integer columns, one remap per call
//! for two dictionaries. The codes place the rows, key the build table,
//! and confirm every candidate pair; no key cell is read as a `Value`.
//! The merge variants compare key prefixes through
//! [`sj_storage::Columns::cell_cmp`] (an `i64` or dictionary-code compare
//! on typed columns) and place rows by the value-based
//! [`sj_storage::Columns::key_hashes`]. No input tuple is cloned into a
//! partition — partitions are 4-byte row indices into the shared
//! operands.
//!
//! **Runs.** Under a prefix consumer the left operand's rows come in
//! runs of equal `k`-prefix, found by typed passes over its columns
//! ([`sj_storage::Columns::run_starts`]). A fused `π[1..k](⋉)` probes a
//! run only up to its first survivor, the group-join sums partner counts
//! per run, and the gather that builds the output reads the key cells of
//! one row per run from the columns.
//!
//! Every selection is ascending, so every body emits in canonical
//! order: join bodies yield sorted tuples, semijoin bodies yield
//! ascending left row ids. One partition's output therefore *is* the
//! result; several partitions are merged by ordering `u32` row ids and
//! gathering once (⋉), or by one canonicalization pass over the
//! key-disjoint concatenation (⋈). Either way the result goes through
//! [`Relation::from_sorted_tuples`], whose linear order check is the
//! safety net behind the "already sorted" claims.
//!
//! A θ with no equality atom has no key to hash: the filtered nested
//! loop runs over the left operand cut into at most `workers` contiguous
//! ranges, each seeing the whole right operand (one range when serial).
//! Operands beyond the `u32` row capacity are an input condition, not a
//! panic: one gate at every entry point, for every worker count, hands
//! them to the row operators [`ops::join`] / [`ops::semijoin`] (a merge
//! call on its rebuilt condition `1=1 ∧ … ∧ k=k ∧ residual`; a prefix
//! consumer applies [`project`] / [`group_count`] to that result).
//!
//! Output is byte-identical to [`crate::ops`] for every worker count —
//! `tests/vectorized.rs` holds the kernels to the row operators and to a
//! brute-force nested loop on every θ shape and operand kind.

use crate::exec::Execution;
use crate::ops::{self, split_condition};
use crate::ops_vec::gather;
use sj_algebra::Condition;
use sj_setjoin::parallel::fan_out;
use sj_storage::column::{hash_int_cell, joint_codes};
use sj_storage::{ensure_u32_indexable, Columns, FxHashMap, Relation, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Execution record of one partition of a partition-parallel operator,
/// surfaced through [`crate::NodeStat::partitions`] so instrumented runs
/// expose the per-partition build/probe timings and the skew between
/// partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStat {
    /// Partition index (stable: a pure function of the tuple key hash).
    pub partition: usize,
    /// Left-operand tuples routed to this partition.
    pub left_rows: usize,
    /// Right-operand tuples routed to this partition.
    pub right_rows: usize,
    /// Rows this partition's body emitted: output tuples of a ⋈; left
    /// rows with a partner of a ⋉ (under a fused `π[1..k]`, the first
    /// survivor of each run of equal `k`-prefix); runs of equal key
    /// prefix with a partner of a group-join.
    pub out_rows: usize,
    /// Wall-clock time of this partition's build + probe.
    pub elapsed: Duration,
}

// ---------------------------------------------------------------------------
// Row selections and the partition driver
// ---------------------------------------------------------------------------

/// An ascending selection of one operand's rows — what one partition of
/// a kernel call sees of that operand.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// The contiguous rows `start..end`: the whole operand of a serial
    /// run, or one chunk of the split used when θ has no equality atom.
    Range(usize, usize),
    /// One hash partition: the listed rows, ascending.
    List(&'a [u32]),
}

impl Rows<'_> {
    /// Every row of `r`.
    fn all(r: &Relation) -> Rows<'static> {
        Rows::Range(0, r.len())
    }

    #[inline]
    fn len(self) -> usize {
        match self {
            Rows::Range(start, end) => end - start,
            Rows::List(rows) => rows.len(),
        }
    }

    /// The absolute row index of the selection's `k`-th row.
    #[inline(always)]
    fn at(self, k: usize) -> usize {
        match self {
            Rows::Range(start, _) => start + k,
            Rows::List(rows) => rows[k] as usize,
        }
    }

    /// Where the runs of equal `k`-prefix of `r` begin among the
    /// selected rows ([`Columns::run_starts`]).
    fn run_starts(self, r: &Relation, k: usize) -> Vec<usize> {
        let cols = r.columns();
        match self {
            Rows::Range(start, end) => cols.run_starts(k, end - start, |p| start + p),
            Rows::List(rows) => cols.run_starts(k, rows.len(), |p| rows[p] as usize),
        }
    }

    /// The first selected row at `positions` that `accept`s — the
    /// selection's kind matched once, not per row.
    #[inline]
    fn find(self, positions: Range<usize>, accept: impl Fn(usize) -> bool) -> Option<usize> {
        match self {
            Rows::Range(start, _) => {
                (start + positions.start..start + positions.end).find(|&i| accept(i))
            }
            Rows::List(rows) => rows[positions]
                .iter()
                .map(|&i| i as usize)
                .find(|&i| accept(i)),
        }
    }
}

/// True when both operands fit the `u32` row ids the kernels store in
/// partition lists, hash-table postings and semijoin survivor lists.
/// Beyond that the row operators of [`crate::ops`] take over: capacity
/// is an input condition, not a panic.
fn fits_row_ids(left_rows: usize, right_rows: usize) -> bool {
    ensure_u32_indexable(left_rows).is_ok() && ensure_u32_indexable(right_rows).is_ok()
}

/// Place rows `0..len` into `n` ascending index lists by
/// `hash(row) % n`. Every caller sits behind the [`fits_row_ids`] gate,
/// so `i as u32` is exact.
fn place(len: usize, n: usize, hash: impl Fn(usize) -> u64) -> Vec<Vec<u32>> {
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..len {
        lists[(hash(i) % n as u64) as usize].push(i as u32);
    }
    lists
}

/// Where a keyed kernel call placed its operands' rows: one ascending
/// index list per partition and operand. A serial run places nothing.
#[derive(Default)]
struct Placement {
    left: Vec<Vec<u32>>,
    right: Vec<Vec<u32>>,
}

impl Placement {
    /// Place both operands' `(rows, key hash)` so matching keys meet in
    /// the same partition. A serial run hashes nothing.
    fn by_hash(
        (left_rows, left_hash): (usize, impl Fn(usize) -> u64),
        (right_rows, right_hash): (usize, impl Fn(usize) -> u64),
        workers: usize,
    ) -> Placement {
        if workers <= 1 {
            return Placement::default();
        }
        Placement {
            left: place(left_rows, workers, left_hash),
            right: place(right_rows, workers, right_hash),
        }
    }

    /// [`Placement::by_hash`] on the aligned key prefix `0..k` of a merge
    /// kernel (partitions stay key-sorted — they are subsequences).
    fn by_prefix(r1: &Relation, r2: &Relation, k: usize, workers: usize) -> Placement {
        if workers <= 1 {
            return Placement::default();
        }
        let cols: Vec<usize> = (0..k).collect();
        let (lh, rh) = (
            r1.columns().key_hashes(&cols),
            r2.columns().key_hashes(&cols),
        );
        Placement::by_hash((lh.len(), |i| lh[i]), (rh.len(), |j| rh[j]), workers)
    }

    /// The partition pairs: the placed lists, or — nothing placed — the
    /// one pair covering every row of both operands.
    fn pairs(&self, r1: &Relation, r2: &Relation) -> Vec<(Rows<'_>, Rows<'_>)> {
        if self.left.is_empty() {
            return vec![(Rows::all(r1), Rows::all(r2))];
        }
        self.left
            .iter()
            .zip(&self.right)
            .map(|(l, r)| (Rows::List(l), Rows::List(r)))
            .collect()
    }
}

/// Split `0..len` into at most `n` contiguous ranges — the partitioning
/// used when there is no key to hash on. No rows, no chunks.
fn chunk_rows(len: usize, n: usize) -> Vec<Rows<'static>> {
    let per = len.div_ceil(n.max(1)).max(1);
    (0..len)
        .step_by(per)
        .map(|start| Rows::Range(start, (start + per).min(len)))
        .collect()
}

/// The partition pairs of a kernel call whose θ has no equality atom:
/// the left operand in contiguous chunks, each seeing the whole right
/// operand.
fn chunk_pairs(
    r1: &Relation,
    r2: &Relation,
    workers: usize,
) -> Vec<(Rows<'static>, Rows<'static>)> {
    chunk_rows(r1.len(), workers)
        .into_iter()
        .map(|chunk| (chunk, Rows::all(r2)))
        .collect()
}

/// Run `body` on every partition pair. A serial run (`workers ≤ 1`) is
/// the one-partition view: the body runs inline and reports nothing.
/// Otherwise the pairs fan out over `workers` scoped threads, each under
/// a `kernel.partition` span, and one [`PartitionStat`] per pair comes
/// back with the outputs (in partition order).
fn run_pairs<O: Send>(
    pairs: Vec<(Rows<'_>, Rows<'_>)>,
    workers: usize,
    body: impl Fn(Rows<'_>, Rows<'_>) -> Vec<O> + Sync,
) -> (Vec<Vec<O>>, Vec<PartitionStat>) {
    if workers <= 1 {
        let outs = pairs.into_iter().map(|(l, r)| body(l, r)).collect();
        return (outs, Vec::new());
    }
    let parent = sj_obs::current_span();
    let pairs: Vec<_> = pairs.into_iter().enumerate().collect();
    fan_out(pairs, workers, |(partition, (l, r))| {
        sj_obs::with_parent(parent, || {
            let mut span = sj_obs::span!(
                "kernel.partition",
                partition = partition,
                left = l.len(),
                right = r.len()
            );
            let start = Instant::now();
            let out = body(l, r);
            let elapsed = start.elapsed();
            span.attr("out_rows", out.len());
            let stat = PartitionStat {
                partition,
                left_rows: l.len(),
                right_rows: r.len(),
                out_rows: out.len(),
                elapsed,
            };
            (out, stat)
        })
    })
    .into_iter()
    .unzip()
}

/// The result of a ⋈-shaped kernel call from its partitions' outputs.
/// Each output is in canonical order, so a single partition passes the
/// order check untouched. Hash partitions are key-disjoint, so their
/// concatenation holds no duplicates and is a sequence of sorted runs:
/// the stable sort merges runs instead of re-sorting what is already
/// sorted (the in-order chunks of the no-equality split are one run).
fn union_outputs(arity: usize, mut outs: Vec<Vec<Tuple>>) -> Relation {
    let tuples = if outs.len() == 1 {
        outs.pop().expect("one partition")
    } else {
        let mut all: Vec<Tuple> = outs.into_iter().flatten().collect();
        all.sort();
        all
    };
    Relation::from_sorted_tuples(arity, tuples)
}

/// The result of a ⋉-shaped kernel call from its partitions' surviving
/// left row ids: each list is ascending and the lists are disjoint, so
/// merging the `u32` runs (the stable sort detects them) restores
/// canonical order and the tuples — or, under a fused `π[1..k]`, their
/// distinct `k`-prefixes — are gathered exactly once.
fn gather_outputs(r1: &Relation, outs: Vec<Vec<u32>>, k: usize) -> Relation {
    let keep = merge_ids(outs, |&id| id);
    gather(r1, k, keep.len(), |p| keep[p] as usize)
}

/// One ascending list from per-partition lists that are each ascending
/// in `id` and pairwise disjoint in it.
fn merge_ids<T: Copy>(mut outs: Vec<Vec<T>>, id: impl Fn(&T) -> u32) -> Vec<T> {
    if outs.len() == 1 {
        return outs.pop().expect("one partition");
    }
    let mut all = outs.concat();
    all.sort_by_key(id);
    all
}

/// The shell every binary kernel shares: the `kernel.*` span with its
/// operand sizes, and the capacity gate that hands oversized operands to
/// the row operator `fallback` for every worker count.
fn kernel_call(
    name: &'static str,
    r1: &Relation,
    r2: &Relation,
    workers: usize,
    fallback: impl FnOnce() -> Relation,
    run: impl FnOnce() -> (Relation, Vec<PartitionStat>),
) -> (Relation, Vec<PartitionStat>) {
    let mut span = sj_obs::span!(
        name,
        left = r1.len(),
        right = r2.len(),
        workers = workers.max(1)
    );
    let (rel, stats) = if fits_row_ids(r1.len(), r2.len()) {
        run()
    } else {
        (fallback(), Vec::new())
    };
    span.attr("out_rows", rel.len());
    (rel, stats)
}

// ---------------------------------------------------------------------------
// Operator entry points
// ---------------------------------------------------------------------------

/// Both operands' equality keys on the pairs `eq` (0-based): each left
/// key column coded jointly with its right partner ([`joint_codes`]), so
/// a key is a row of `i64`s and equal keys of the two relations are
/// equal codes.
type KeyCodes<'a> = (Vec<Cow<'a, [i64]>>, Vec<Cow<'a, [i64]>>);

fn key_codes<'a>(r1: &'a Relation, r2: &'a Relation, eq: &[(usize, usize)]) -> KeyCodes<'a> {
    let (c1, c2) = (r1.columns(), r2.columns());
    eq.iter()
        .map(|&(lc, rc)| joint_codes((c1, lc), (c2, rc)))
        .unzip()
}

/// One operand's key: its code columns, read a row at a time. This and
/// the few helpers the probe loops call per row are `inline(always)`:
/// across codegen units they otherwise stay calls, which costs the
/// group-join a fifth of its time.
#[derive(Clone, Copy)]
struct Key<'a>(&'a [&'a [i64]]);

impl Key<'_> {
    /// Row `i`'s key hash: its codes' cell hashes, mixed a column at a
    /// time. It places the row and buckets it in a build table.
    #[inline(always)]
    fn hash(self, i: usize) -> u64 {
        self.0
            .iter()
            .fold(0, |h, codes| h.rotate_left(23) ^ hash_int_cell(codes[i]))
    }

    /// Does row `i` carry the key of row `j` of `other`?
    #[inline(always)]
    fn eq(self, i: usize, other: Key<'_>, j: usize) -> bool {
        self.0.iter().zip(other.0).all(|(a, b)| a[i] == b[j])
    }
}

/// One operand of a hash kernel: the relation, its key (indexed by
/// absolute row, coded once for the whole call), and the rows this
/// partition sees.
#[derive(Clone, Copy)]
struct Keyed<'a> {
    rel: &'a Relation,
    key: Key<'a>,
    rows: Rows<'a>,
}

/// Run a hash kernel `body` over the partition pairs of `r₁ ⋈/⋉ r₂` on
/// the equality pairs `eq`: both operands' keys are coded once, and the
/// same codes place the rows, bucket the partitions' tables and confirm
/// their matches.
fn run_hashed<O: Send>(
    r1: &Relation,
    r2: &Relation,
    eq: &[(usize, usize)],
    workers: usize,
    body: impl Fn(Keyed<'_>, Keyed<'_>) -> Vec<O> + Sync,
) -> (Vec<Vec<O>>, Vec<PartitionStat>) {
    let (lk, rk) = key_codes(r1, r2, eq);
    let (lk, rk): (Vec<&[i64]>, Vec<&[i64]>) = (
        lk.iter().map(|c| c.as_ref()).collect(),
        rk.iter().map(|c| c.as_ref()).collect(),
    );
    let (lk, rk) = (Key(&lk), Key(&rk));
    let placed = Placement::by_hash(
        (r1.len(), |i| lk.hash(i)),
        (r2.len(), |j| rk.hash(j)),
        workers,
    );
    run_pairs(placed.pairs(r1, r2), workers, |l, r| {
        let left = Keyed {
            rel: r1,
            key: lk,
            rows: l,
        };
        let right = Keyed {
            rel: r2,
            key: rk,
            rows: r,
        };
        body(left, right)
    })
}

/// `r₁ ⋈θ r₂` at the given worker count. Serial (`workers ≤ 1`) runs
/// report no partitions; partitioned runs report one [`PartitionStat`]
/// per partition. `_exec` is accepted and ignored (see
/// [`crate::exec`]).
pub fn join(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    _exec: Execution,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let fallback = || ops::join(r1, r2, theta);
    kernel_call("kernel.join", r1, r2, workers, fallback, || {
        let (eq, residual) = split_condition(theta);
        let (outs, stats) = if eq.is_empty() {
            run_pairs(chunk_pairs(r1, r2, workers), workers, |l, r| {
                nested_loop_join(r1, r2, l, r, theta)
            })
        } else {
            run_hashed(r1, r2, &eq, workers, |l, r| hash_join(l, r, &residual))
        };
        (union_outputs(r1.arity() + r2.arity(), outs), stats)
    })
}

/// `r₁ ⋉θ r₂` at the given worker count (see [`join`]).
pub fn semijoin(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    _exec: Execution,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    project_semijoin(r1, r2, theta, r1.arity(), workers)
}

/// `π[1..k](r₁ ⋉θ r₂)` for `k ≤ arity(r₁)` at the given worker count:
/// the [`semijoin`] bodies, with the surviving rows gathered as distinct
/// `k`-prefixes. For `k < arity(r₁)` a body stops probing a run of equal
/// `k`-prefix at its first survivor. `k = arity(r₁)` is [`semijoin`]
/// itself. Partition stats count the survivors each body emitted.
pub fn project_semijoin(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    k: usize,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let fallback = || project(&ops::semijoin(r1, r2, theta), &prefix_cols(k));
    kernel_call("kernel.semijoin", r1, r2, workers, fallback, || {
        let (eq, residual) = split_condition(theta);
        let (outs, stats) = if eq.is_empty() {
            run_pairs(chunk_pairs(r1, r2, workers), workers, |l, r| {
                nested_loop_semijoin(r1, r2, l, r, theta, k)
            })
        } else {
            run_hashed(r1, r2, &eq, workers, |l, r| {
                hash_semijoin(l, r, &residual, k)
            })
        };
        (gather_outputs(r1, outs, k), stats)
    })
}

/// `γ[1..k; count](r₁ ⋈θ r₂)` for `1 ≤ k ≤ arity(r₁)` at the given worker
/// count, without building a join row: for every left row the body
/// counts its θ-partners — a hash probe confirmed on the key codes and
/// the residual, or a filtered nested loop when θ has no equality atom —
/// and sums the counts over runs of equal `k`-prefix, which a canonical
/// `r₁` holds adjacent; a partition reports one `(first row, total)`
/// per run with partners, never a row on its own. The rows are
/// partitioned as by [`join`] (by θ's equality key, or in left chunks),
/// so a run may be split across partitions: the per-partition totals
/// merge by row id and the final pass sums the runs again. Partition
/// stats count runs with at least one partner.
///
/// # Panics
///
/// When `k` is 0 or exceeds `arity(r₁)`: `γ[]` counts `{(0)}` on an
/// empty join, which no left row can report.
pub fn group_join(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    k: usize,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    assert!(
        (1..=r1.arity()).contains(&k),
        "group-join keys are a non-empty prefix of the left operand"
    );
    let fallback = || group_count(&ops::join(r1, r2, theta), &prefix_cols(k));
    kernel_call("kernel.group_join", r1, r2, workers, fallback, || {
        let (eq, residual) = split_condition(theta);
        let (outs, stats) = if eq.is_empty() {
            run_pairs(chunk_pairs(r1, r2, workers), workers, |l, r| {
                nested_loop_counts(r1, r2, l, r, theta, k)
            })
        } else {
            run_hashed(r1, r2, &eq, workers, |l, r| hash_counts(l, r, &residual, k))
        };
        let runs = merge_ids(outs, |&(id, _)| id);
        let grouped = sum_runs(r1, k, runs.len(), |p| runs[p].0 as usize, |p| runs[p].1);
        (grouped, stats)
    })
}

/// `(1..=k)`: the 1-based column list of a `k`-prefix.
pub(crate) fn prefix_cols(k: usize) -> Vec<usize> {
    (1..=k).collect()
}

/// `Some(k)` when the 1-based `cols` are the prefix `1, 2, …, k` of the
/// input's columns (`k = 0` for the empty list) — the column lists a
/// canonical relation is already sorted by.
pub(crate) fn prefix_len(cols: &[usize]) -> Option<usize> {
    cols.iter()
        .enumerate()
        .all(|(i, &c)| c == i + 1)
        .then_some(cols.len())
}

/// The θ a merge kernel call on the aligned prefix `0..k` computes,
/// `1=1 ∧ … ∧ k=k ∧ residual` — what its capacity fallback hands to the
/// row operators.
fn prefix_condition(k: usize, residual: &Condition) -> Condition {
    let prefix = Condition::eq_pairs((1..=k).map(|c| (c, c)));
    Condition::new(prefix.atoms().iter().chain(residual.atoms()).copied())
}

/// Merge equi-join on an aligned key prefix of length `k` (see
/// [`ops::merge_prefix_len`]) at the given worker count.
pub fn merge_join(
    r1: &Relation,
    r2: &Relation,
    k: usize,
    residual: &Condition,
    _exec: Execution,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let fallback = || ops::join(r1, r2, &prefix_condition(k, residual));
    kernel_call("kernel.merge_join", r1, r2, workers, fallback, || {
        let placed = Placement::by_prefix(r1, r2, k, workers);
        let (outs, stats) = run_pairs(placed.pairs(r1, r2), workers, |l, r| {
            merge_join_rows(r1, r2, l, r, k, residual)
        });
        (union_outputs(r1.arity() + r2.arity(), outs), stats)
    })
}

/// Merge equi-semijoin on an aligned key prefix of length `k` at the
/// given worker count.
pub fn merge_semijoin(
    r1: &Relation,
    r2: &Relation,
    k: usize,
    residual: &Condition,
    _exec: Execution,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    project_merge_semijoin(r1, r2, k, residual, r1.arity(), workers)
}

/// `π[1..keep](r₁ ⋉ r₂)` on the aligned key prefix of length `k`: the
/// [`merge_semijoin`] body with its survivors gathered as distinct
/// `keep`-prefixes (see [`project_semijoin`]).
pub fn project_merge_semijoin(
    r1: &Relation,
    r2: &Relation,
    k: usize,
    residual: &Condition,
    keep: usize,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let fallback = || {
        let semi = ops::semijoin(r1, r2, &prefix_condition(k, residual));
        project(&semi, &prefix_cols(keep))
    };
    kernel_call("kernel.merge_semijoin", r1, r2, workers, fallback, || {
        let placed = Placement::by_prefix(r1, r2, k, workers);
        let (outs, stats) = run_pairs(placed.pairs(r1, r2), workers, |l, r| {
            merge_semijoin_rows(r1, r2, l, r, k, residual)
        });
        (gather_outputs(r1, outs, keep), stats)
    })
}

// ---------------------------------------------------------------------------
// Operator bodies: one per operator, over row selections
// ---------------------------------------------------------------------------

/// The build side's hash table: the selected rows bucketed by key hash
/// in one counting sort — flat, no list per key, every bucket listing
/// its rows ascending, each beside its full hash — with the side's key
/// to confirm candidates on.
struct Table<'a> {
    key: Key<'a>,
    mask: usize,
    /// Bucket `b` holds `entries[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    /// `(hash, row)`: a candidate whose hash differs is rejected without
    /// reading its key.
    entries: Vec<(u64, u32)>,
}

impl<'a> Table<'a> {
    fn build(side: Keyed<'a>) -> Self {
        let n = side.rows.len();
        let mask = (2 * n).next_power_of_two() - 1;
        let hashed: Vec<(u64, u32)> = (0..n)
            .map(|p| {
                let j = side.rows.at(p);
                (side.key.hash(j), j as u32)
            })
            .collect();
        let mut starts = vec![0u32; mask + 2];
        for &(h, _) in &hashed {
            starts[Self::bucket(h, mask) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut fill = starts.clone();
        let mut entries = vec![(0u64, 0u32); n];
        for entry in hashed {
            let b = Self::bucket(entry.0, mask);
            entries[fill[b] as usize] = entry;
            fill[b] += 1;
        }
        Table {
            key: side.key,
            mask,
            starts,
            entries,
        }
    }

    /// A hash's bucket, from its high half: partition placement reads
    /// the low bits, which all rows of one partition may share.
    #[inline(always)]
    fn bucket(hash: u64, mask: usize) -> usize {
        hash.rotate_left(32) as usize & mask
    }

    /// The build rows whose key codes equal row `i`'s of `probe`,
    /// ascending.
    #[inline(always)]
    fn partners(&self, probe: Key<'a>, i: usize) -> impl Iterator<Item = usize> + '_ {
        let h = probe.hash(i);
        let b = Self::bucket(h, self.mask);
        self.entries[self.starts[b] as usize..self.starts[b + 1] as usize]
            .iter()
            .filter(move |&&(eh, j)| eh == h && probe.eq(i, self.key, j as usize))
            .map(|&(_, j)| j as usize)
    }
}

/// Hash join of one partition pair: build on the right selection, probe
/// from the left, confirm on the key codes, filter by the residual.
/// Output is in canonical order (left rows ascending, postings
/// ascending).
fn hash_join(left: Keyed<'_>, right: Keyed<'_>, residual: &Condition) -> Vec<Tuple> {
    let table = Table::build(right);
    let (a, b) = (left.rel.tuples(), right.rel.tuples());
    // Hoisted: the empty residual is the common case, and `Condition`
    // lives in another crate — one call per call, not per pair.
    let unfiltered = residual.is_empty();
    let mut out: Vec<Tuple> = Vec::new();
    for k in 0..left.rows.len() {
        let i = left.rows.at(k);
        let t1 = &a[i];
        for j in table.partners(left.key, i) {
            let t2 = &b[j];
            if unfiltered || residual.eval(t1.values(), t2.values()) {
                out.push(t1.concat(t2));
            }
        }
    }
    out
}

/// The ascending ids of the selected rows of `r` that `survives`. Under
/// a fused `π[1..k]` (`k < arity(r)`) each run of rows sharing their
/// `k`-prefix is probed only up to its first survivor: that prefix is in
/// the output already.
fn survivors(r: &Relation, rows: Rows<'_>, k: usize, survives: impl Fn(usize) -> bool) -> Vec<u32> {
    let keep = |run: &[usize]| rows.find(run[0]..run[1], &survives).map(|i| i as u32);
    if k == r.arity() {
        (0..rows.len()).filter_map(|p| keep(&[p, p + 1])).collect()
    } else {
        rows.run_starts(r, k).windows(2).filter_map(keep).collect()
    }
}

/// Hash semijoin of one partition pair (see [`hash_join`]) under a
/// consumer keeping the `k`-prefix: the ascending ids of the left rows
/// with a partner, one per run under a fused projection
/// ([`survivors`]).
fn hash_semijoin(left: Keyed<'_>, right: Keyed<'_>, residual: &Condition, k: usize) -> Vec<u32> {
    let table = Table::build(right);
    let (a, b) = (left.rel.tuples(), right.rel.tuples());
    // The residual is tested once, not per candidate (see `hash_join`).
    if residual.is_empty() {
        return survivors(left.rel, left.rows, k, |i| {
            table.partners(left.key, i).next().is_some()
        });
    }
    survivors(left.rel, left.rows, k, |i| {
        table
            .partners(left.key, i)
            .any(|j| residual.eval(a[i].values(), b[j].values()))
    })
}

/// A group-join partition's runs: `(first row, Σ partners)` for every
/// run of equal `k`-prefix among its left rows with at least one
/// partner, in row order — never a row on its own.
fn partner_runs(
    r: &Relation,
    rows: Rows<'_>,
    k: usize,
    partners: impl Fn(usize) -> usize,
) -> Vec<(u32, u64)> {
    fn sums(
        starts: &[usize],
        row: impl Fn(usize) -> usize,
        partners: impl Fn(usize) -> usize,
    ) -> Vec<(u32, u64)> {
        let runs = starts.windows(2).map(|run| (run[0], run[1]));
        runs.filter_map(|(first, end)| {
            let total: u64 = (first..end).map(|p| partners(row(p)) as u64).sum();
            (total > 0).then(|| (row(first) as u32, total))
        })
        .collect()
    }
    // The selection's kind is matched once, not per row.
    let starts = rows.run_starts(r, k);
    match rows {
        Rows::Range(start, _) => sums(&starts, |p| start + p, partners),
        Rows::List(ids) => sums(&starts, |p| ids[p] as usize, partners),
    }
}

/// The group-join probe of one partition pair (see [`hash_semijoin`]):
/// partner counts summed per run of equal `k`-prefix.
fn hash_counts(
    left: Keyed<'_>,
    right: Keyed<'_>,
    residual: &Condition,
    k: usize,
) -> Vec<(u32, u64)> {
    let table = Table::build(right);
    let (a, b) = (left.rel.tuples(), right.rel.tuples());
    // Two bodies of one closure shape: testing the residual per
    // candidate is a call into another crate (see `hash_join`).
    if residual.is_empty() {
        return partner_runs(left.rel, left.rows, k, |i| {
            table.partners(left.key, i).count()
        });
    }
    partner_runs(left.rel, left.rows, k, |i| {
        table
            .partners(left.key, i)
            .filter(|&j| residual.eval(a[i].values(), b[j].values()))
            .count()
    })
}

/// Compare the first `k` columns of row `i` of `ca` and row `j` of `cb`
/// through the typed cell comparator.
#[inline]
fn cmp_prefix(ca: &Columns, i: usize, cb: &Columns, j: usize, k: usize) -> Ordering {
    for c in 0..k {
        match ca.cell_cmp(c, i, cb, c, j) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// End (as a position in `rows`) of the run of selected rows sharing the
/// first `k` column values of the row at position `start`.
#[inline]
fn run_end(cols: &Columns, rows: Rows<'_>, start: usize, k: usize) -> usize {
    let first = rows.at(start);
    let mut end = start + 1;
    while end < rows.len() && cmp_prefix(cols, rows.at(end), cols, first, k) == Ordering::Equal {
        end += 1;
    }
    end
}

/// Visit every pair of key-equal runs of two key-sorted selections: the
/// merge walk both merge kernels share. `on_match` receives the position
/// ranges (into `l` and `r`) of one left run and the right run with the
/// same `k`-column key; a non-matching side skips its whole run at once.
fn merge_runs(
    (ca, l): (&Columns, Rows<'_>),
    (cb, r): (&Columns, Rows<'_>),
    k: usize,
    mut on_match: impl FnMut(Range<usize>, Range<usize>),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        match cmp_prefix(ca, l.at(i), cb, r.at(j), k) {
            Ordering::Less => i = run_end(ca, l, i, k),
            Ordering::Greater => j = run_end(cb, r, j, k),
            Ordering::Equal => {
                let (i_end, j_end) = (run_end(ca, l, i, k), run_end(cb, r, j, k));
                on_match(i..i_end, j..j_end);
                i = i_end;
                j = j_end;
            }
        }
    }
}

/// Merge join of one partition pair on the aligned key prefix `0..k`:
/// both selections are ascending, hence key-sorted, and the output is
/// emitted in canonical order.
fn merge_join_rows(
    r1: &Relation,
    r2: &Relation,
    l: Rows<'_>,
    r: Rows<'_>,
    k: usize,
    residual: &Condition,
) -> Vec<Tuple> {
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut out: Vec<Tuple> = Vec::new();
    merge_runs((r1.columns(), l), (r2.columns(), r), k, |lrun, rrun| {
        for ii in lrun {
            let t1 = &a[l.at(ii)];
            for jj in rrun.clone() {
                let t2 = &b[r.at(jj)];
                if residual.eval(t1.values(), t2.values()) {
                    out.push(t1.concat(t2));
                }
            }
        }
    });
    out
}

/// Merge semijoin of one partition pair (see [`merge_join_rows`]): the
/// ascending ids of the left rows whose key run on the right holds a
/// tuple passing `residual`.
fn merge_semijoin_rows(
    r1: &Relation,
    r2: &Relation,
    l: Rows<'_>,
    r: Rows<'_>,
    k: usize,
    residual: &Condition,
) -> Vec<u32> {
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut keep: Vec<u32> = Vec::new();
    merge_runs((r1.columns(), l), (r2.columns(), r), k, |lrun, rrun| {
        for ii in lrun {
            let i = l.at(ii);
            if residual.is_empty()
                || rrun
                    .clone()
                    .any(|jj| residual.eval(a[i].values(), b[r.at(jj)].values()))
            {
                keep.push(i as u32);
            }
        }
    });
    keep
}

/// Filtered nested-loop join of one left chunk against the whole right
/// operand, for a θ with no equality atom. Output is in canonical order.
fn nested_loop_join(
    r1: &Relation,
    r2: &Relation,
    l: Rows<'_>,
    r: Rows<'_>,
    theta: &Condition,
) -> Vec<Tuple> {
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut out: Vec<Tuple> = Vec::new();
    for t1 in (0..l.len()).map(|k| &a[l.at(k)]) {
        for t2 in (0..r.len()).map(|k| &b[r.at(k)]) {
            if theta.eval(t1.values(), t2.values()) {
                out.push(t1.concat(t2));
            }
        }
    }
    out
}

/// Nested-loop semijoin of one left chunk against the whole right
/// operand, for a θ with no equality atom: the ascending ids of the left
/// rows with a partner (one per run under a fused `π[1..k]`, see
/// [`survivors`]).
fn nested_loop_semijoin(
    r1: &Relation,
    r2: &Relation,
    l: Rows<'_>,
    r: Rows<'_>,
    theta: &Condition,
    k: usize,
) -> Vec<u32> {
    let (a, b) = (r1.tuples(), r2.tuples());
    survivors(r1, l, k, |i| {
        (0..r.len()).any(|p| theta.eval(a[i].values(), b[r.at(p)].values()))
    })
}

/// The group-join count of one left chunk against the whole right
/// operand, for a θ with no equality atom (see [`hash_counts`]).
fn nested_loop_counts(
    r1: &Relation,
    r2: &Relation,
    l: Rows<'_>,
    r: Rows<'_>,
    theta: &Condition,
    k: usize,
) -> Vec<(u32, u64)> {
    let (a, b) = (r1.tuples(), r2.tuples());
    partner_runs(r1, l, k, |i| {
        (0..r.len())
            .filter(|&p| theta.eval(a[i].values(), b[r.at(p)].values()))
            .count()
    })
}

// ---------------------------------------------------------------------------
// Single-operand bodies: projection, grouping, tagging
// ---------------------------------------------------------------------------

/// `π_cols(r)` (1-based columns, may repeat and reorder). On a column
/// prefix `1..k` the canonical input is already sorted by the key, so
/// one pass keeps the first row of every run of equal prefixes and
/// builds tuples only for those; any other column list projects every
/// row and sorts.
pub fn project(r: &Relation, cols: &[usize]) -> Relation {
    if let Some(k) = prefix_len(cols) {
        return gather(r, k, r.len(), |p| p);
    }
    let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
    Relation::from_tuples(cols.len(), r.iter().map(|t| t.project(&zero_based)))
        .expect("projection preserves arity")
}

/// `γ_{cols; count}(r)` (Section 5): every group of the 1-based `cols`
/// with its cardinality appended. With `cols` empty the result is the one
/// tuple `(|r|)` — `{(0)}` on empty input, as SQL's `COUNT(*)`. On a
/// column prefix `1..k` the groups are the runs of the canonical input,
/// counted in one pass; any other column list hashes each row's key and
/// sorts the groups.
pub fn group_count(r: &Relation, cols: &[usize]) -> Relation {
    match prefix_len(cols) {
        Some(0) => Relation::unary([Value::int(r.len() as i64)]),
        Some(k) => sum_runs(r, k, r.len(), |p| p, |_| 1),
        None => {
            let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
            let mut groups: FxHashMap<Tuple, i64> = FxHashMap::default();
            for t in r {
                *groups.entry(t.project(&zero_based)).or_insert(0) += 1;
            }
            let rows = groups.into_iter().map(|(key, n)| key.tag(Value::int(n)));
            Relation::from_tuples(cols.len() + 1, rows).expect("group arity is k+1")
        }
    }
}

/// `τ_c(r)`: `c` appended to every tuple. Appending one constant keeps
/// the canonical order, so nothing is re-sorted.
pub fn tag(r: &Relation, c: &Value) -> Relation {
    Relation::from_sorted_tuples(r.arity() + 1, r.iter().map(|t| t.tag(c.clone())).collect())
}

/// `(prefix, Σ count)` for every run of equal `k`-prefix among the rows
/// `row(0), …, row(len − 1)` of canonical `r` (ascending), each counted
/// `count(p)` times — the step [`group_join`] and [`group_count`]
/// share. The key cells of each run's first row are read from the
/// columns; the runs come in key order, so the output is canonical as
/// built.
fn sum_runs(
    r: &Relation,
    k: usize,
    len: usize,
    row: impl Fn(usize) -> usize,
    count: impl Fn(usize) -> u64,
) -> Relation {
    let cols = r.columns();
    let starts = cols.run_starts(k, len, &row);
    let out = starts
        .windows(2)
        .map(|w| {
            let total: u64 = (w[0]..w[1]).map(&count).sum();
            (0..k)
                .map(|c| cols.value_at(c, row(w[0])))
                .chain([Value::int(total as i64)])
                .collect()
        })
        .collect();
    Relation::from_sorted_tuples(k + 1, out)
}

// ---------------------------------------------------------------------------
// Worst-case-optimal multiway join (generic join on a cycle)
// ---------------------------------------------------------------------------

/// One position of a [`MultiwaySpec`] cycle: at cycle position `p`,
/// child `child`'s column `var_col` (0-based) carries the cycle
/// variable `v_p` and column `next_col` carries `v_{p+1 (mod k)}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiwayLeaf {
    /// Index into the operator's children (each child appears exactly
    /// once in the cycle).
    pub child: usize,
    /// 0-based column bound to this position's variable.
    pub var_col: usize,
    /// 0-based column bound to the next position's variable.
    pub next_col: usize,
}

/// The plan-time description of a [`multiway_join`]: a Hamiltonian
/// cycle over binary children, produced by the planner's join-graph
/// cycle detection (`sj_algebra::JoinGraph::hamiltonian_cycle`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiwaySpec {
    /// The cycle positions in cycle order.
    pub cycle: Vec<MultiwayLeaf>,
}

/// Worst-case-optimal join of `k ≥ 3` binary relations forming one
/// equality cycle `R₀(v₀,v₁) ⋈ R₁(v₁,v₂) ⋈ … ⋈ R_{k−1}(v_{k−1},v₀)` —
/// the generic-join algorithm (Ngo–Porat–Ré) specialized to simple
/// cycles:
///
/// 1. Per cycle position, index the relation as a forward map
///    `v_p → sorted [v_{p+1}]` (its posting lists).
/// 2. Start from the **globally least-frequent variable** — the
///    position whose candidate set (values occurring on both adjacent
///    sides) is smallest; the cycle is rotated so iteration begins
///    there.
/// 3. Bind variables around the cycle through the forward lists; the
///    **last** variable is bound by intersecting two sorted posting
///    lists (the forward list of its predecessor and the backward list
///    of the closing relation), never enumerated blindly.
///
/// Every binding writes one output tuple assembled in the children's
/// original column order, so the output equals the pairwise join chain
/// the planner replaced — no projection needed. Runtime is bounded by
/// the AGM fractional-cover bound `∏ |Rᵢ|^{1/2}` (plus the linear
/// indexing passes), which is exactly the regime where every pairwise
/// order materializes a larger intermediate.
///
/// `workers > 1` splits the start variable's candidate list into
/// contiguous chunks fanned out over scoped threads (one
/// [`PartitionStat`] per chunk, `right_rows = 0` — there is no probe
/// side); the canonicalizing merge keeps the output byte-identical for
/// every worker count. `_exec` is accepted and ignored (see
/// [`crate::exec`]).
pub fn multiway_join(
    children: &[&Relation],
    spec: &MultiwaySpec,
    _exec: Execution,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let k = spec.cycle.len();
    let mut span = sj_obs::span!(
        "kernel.multiway",
        children = children.len(),
        rows = children.iter().map(|r| r.len()).sum::<usize>(),
        workers = workers.max(1)
    );
    debug_assert!(k >= 3, "a multiway cycle has at least 3 positions");
    debug_assert!(spec.cycle.iter().all(|p| children[p.child].arity() == 2));
    let out_arity: usize = children.iter().map(|r| r.arity()).sum();
    let offsets: Vec<usize> = children
        .iter()
        .scan(0usize, |acc, r| {
            let o = *acc;
            *acc += r.arity();
            Some(o)
        })
        .collect();
    // Forward posting lists per cycle position: v_p → sorted [v_{p+1}].
    let fwd: Vec<FxHashMap<Value, Vec<Value>>> = spec
        .cycle
        .iter()
        .map(|pos| {
            let mut m: FxHashMap<Value, Vec<Value>> = FxHashMap::default();
            for t in children[pos.child].tuples() {
                m.entry(t[pos.var_col].clone())
                    .or_default()
                    .push(t[pos.next_col].clone());
            }
            for list in m.values_mut() {
                list.sort_unstable();
            }
            m
        })
        .collect();
    // Candidate list per position: values that occur as position p's
    // variable AND as position p−1's next value. The start position is
    // the globally least-frequent variable — the smallest such list.
    let nexts: Vec<Vec<Value>> = fwd
        .iter()
        .map(|m| {
            let mut vals: Vec<Value> = m.values().flatten().cloned().collect();
            vals.sort_unstable();
            vals.dedup();
            vals
        })
        .collect();
    let candidates: Vec<Vec<Value>> = (0..k)
        .map(|p| {
            let prev = &nexts[(p + k - 1) % k];
            let mut vals: Vec<Value> = fwd[p]
                .keys()
                .filter(|v| prev.binary_search(v).is_ok())
                .cloned()
                .collect();
            vals.sort_unstable();
            vals
        })
        .collect();
    let start = (0..k)
        .min_by_key(|&p| (candidates[p].len(), p))
        .expect("k >= 3");
    let rot = |i: usize| (start + i) % k;
    let cands = &candidates[start];
    // Backward posting lists of the closing relation (rotated position
    // k−1): v_0 → sorted [v_{k−1}] — the second list of the final
    // intersection.
    let closing = &spec.cycle[rot(k - 1)];
    let mut bwd: FxHashMap<Value, Vec<Value>> = FxHashMap::default();
    for t in children[closing.child].tuples() {
        bwd.entry(t[closing.next_col].clone())
            .or_default()
            .push(t[closing.var_col].clone());
    }
    for list in bwd.values_mut() {
        list.sort_unstable();
    }

    // Emit the output tuple of one complete binding (rotated order).
    let emit = |binding: &[Value], out: &mut Vec<Tuple>| {
        let mut cells = vec![Value::int(0); out_arity];
        for (i, v) in binding.iter().enumerate() {
            let pos = &spec.cycle[rot(i)];
            let base = offsets[pos.child];
            cells[base + pos.var_col] = v.clone();
            cells[base + pos.next_col] = binding[(i + 1) % k].clone();
        }
        out.push(Tuple::new(cells));
    };
    // Depth-first bind v_1..v_{k−1} given v_0 = `binding[0]`; `fwd` is
    // already in rotated cycle order (index = depth of the variable the
    // map extends *from*).
    fn search(
        depth: usize,
        k: usize,
        fwd: &[&FxHashMap<Value, Vec<Value>>],
        bwd: &FxHashMap<Value, Vec<Value>>,
        binding: &mut Vec<Value>,
        emit: &dyn Fn(&[Value], &mut Vec<Tuple>),
        out: &mut Vec<Tuple>,
    ) {
        let Some(reachable) = fwd[depth - 1].get(&binding[depth - 1]) else {
            return;
        };
        if depth == k - 1 {
            // Close the cycle: v_{k−1} must extend v_{k−2} forward AND
            // reach v_0 through the closing relation — a sorted
            // intersection of the two posting lists.
            let Some(back) = bwd.get(&binding[0]) else {
                return;
            };
            let (mut i, mut j) = (0usize, 0usize);
            while i < reachable.len() && j < back.len() {
                match reachable[i].cmp(&back[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        binding.push(reachable[i].clone());
                        emit(binding, out);
                        binding.pop();
                        i += 1;
                        j += 1;
                    }
                }
            }
            return;
        }
        for v in reachable.clone() {
            binding.push(v);
            search(depth + 1, k, fwd, bwd, binding, emit, out);
            binding.pop();
        }
    }
    let rot_fwd: Vec<&FxHashMap<Value, Vec<Value>>> = (0..k).map(|i| &fwd[rot(i)]).collect();
    let run = |chunk: Rows<'_>| {
        let mut out: Vec<Tuple> = Vec::new();
        let mut binding: Vec<Value> = Vec::with_capacity(k);
        for ci in 0..chunk.len() {
            binding.clear();
            binding.push(cands[chunk.at(ci)].clone());
            search(1, k, &rot_fwd, &bwd, &mut binding, &emit, &mut out);
        }
        out
    };

    // Chunks of the start candidates play the left operand; there is no
    // right one.
    let pairs = chunk_rows(cands.len(), workers)
        .into_iter()
        .map(|chunk| (chunk, Rows::Range(0, 0)))
        .collect();
    let (outs, stats) = run_pairs(pairs, workers, |chunk, _| run(chunk));
    // Chunks partition the start candidates, and a binding determines
    // its tuple, so the concatenation is duplicate-free; one
    // canonicalization pass restores the global order.
    let tuples: Vec<Tuple> = outs.into_iter().flatten().collect();
    let merged = Relation::from_tuples(out_arity, tuples).expect("assembled arity");
    span.attr("out_rows", merged.len());
    (merged, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_algebra::{Atom, CompOp};
    use sj_storage::tuple;

    fn r(rows: &[&[i64]]) -> Relation {
        Relation::from_int_rows(rows)
    }

    fn operands() -> Vec<(&'static str, Relation, Relation)> {
        let lrows: Vec<Vec<i64>> = (0..300).map(|i| vec![i % 23, i]).collect();
        let lrefs: Vec<&[i64]> = lrows.iter().map(|r| r.as_slice()).collect();
        let rrows: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 23, i % 17]).collect();
        let rrefs: Vec<&[i64]> = rrows.iter().map(|r| r.as_slice()).collect();
        vec![
            ("ints", r(&lrefs), r(&rrefs)),
            (
                "strings",
                Relation::from_str_rows(&[
                    &["an", "headache"],
                    &["an", "sore throat"],
                    &["bob", "headache"],
                    &["bob", "memory loss"],
                ]),
                Relation::from_str_rows(&[&["an", "headache"], &["flu", "sore throat"]]),
            ),
            (
                "mixed-variants",
                Relation::from_tuples(
                    2,
                    vec![tuple![1, "x"], tuple![1, 7], tuple![2, "y"], tuple![3, 7]],
                )
                .unwrap(),
                Relation::from_tuples(2, vec![tuple![1, 7], tuple![2, "x"], tuple![9, "y"]])
                    .unwrap(),
            ),
            ("empty-left", Relation::empty(2), r(&rrefs)),
            ("empty-right", r(&lrefs), Relation::empty(2)),
        ]
    }

    /// Every worker count is byte-identical to the row operators, for
    /// joins and semijoins on every theta shape and operand type. (The
    /// full matrix, with a brute-force oracle, is `tests/vectorized.rs`.)
    #[test]
    fn kernel_join_and_semijoin_match_serial_reference() {
        let thetas = [
            Condition::eq(1, 1),
            Condition::eq(2, 1),
            Condition::eq(1, 1).and(2, CompOp::Lt, 2),
            Condition::lt(1, 1),
            Condition::always(),
        ];
        for (name, a, b) in operands() {
            for theta in &thetas {
                let want_join = ops::join(&a, &b, theta);
                let want_semi = ops::semijoin(&a, &b, theta);
                for workers in [1usize, 2, 4, 8] {
                    let (j, jstats) = join(&a, &b, theta, Execution::Vectorized, workers);
                    assert_eq!(j, want_join, "join {theta} on {name} @{workers}");
                    let (s, _) = semijoin(&a, &b, theta, Execution::Vectorized, workers);
                    assert_eq!(s, want_semi, "semijoin {theta} on {name} @{workers}");
                    if workers <= 1 {
                        assert!(jstats.is_empty(), "serial runs report no partitions");
                    } else {
                        // The no-equality split of an empty left side
                        // has no chunks; every other partitioned run
                        // reports partitions.
                        let chunked_empty = split_condition(theta).0.is_empty() && a.is_empty();
                        assert!(!jstats.is_empty() || chunked_empty);
                        assert_eq!(
                            jstats.iter().map(|p| p.out_rows).sum::<usize>(),
                            j.len(),
                            "partition stats account for every output tuple"
                        );
                    }
                }
            }
        }
    }

    /// Merge variants: every worker count equals the row operators on
    /// the rebuilt condition — the call the capacity fallback makes.
    #[test]
    fn kernel_merge_variants_match_serial_reference() {
        let residuals = [
            Condition::always(),
            Condition::new([Atom {
                left: 2,
                op: CompOp::Neq,
                right: 2,
            }]),
        ];
        for (name, a, b) in operands() {
            for residual in &residuals {
                let theta = prefix_condition(1, residual);
                let want_join = ops::join(&a, &b, &theta);
                let want_semi = ops::semijoin(&a, &b, &theta);
                for workers in [1usize, 3, 4, 8] {
                    let (j, jstats) =
                        merge_join(&a, &b, 1, residual, Execution::Vectorized, workers);
                    assert_eq!(j, want_join, "merge join on {name} @{workers}");
                    assert_eq!(jstats.len(), if workers > 1 { workers } else { 0 });
                    let (s, _) =
                        merge_semijoin(&a, &b, 1, residual, Execution::Vectorized, workers);
                    assert_eq!(s, want_semi, "merge semijoin on {name} @{workers}");
                }
            }
        }
    }

    /// Hash placement sends every row to exactly one of `n` ascending
    /// lists and equal keys to the same one; the no-equality split chunks
    /// the left side and shows every chunk the whole right side.
    #[test]
    fn partitions_cover_every_row_exactly_once() {
        let lrows: Vec<Vec<i64>> = (0..100).map(|i| vec![i % 11, i]).collect();
        let lrefs: Vec<&[i64]> = lrows.iter().map(|r| r.as_slice()).collect();
        let a = r(&lrefs);
        let b = r(&[&[1, 5], &[2, 9], &[3, 1]]);
        let exec = Execution::Vectorized;
        let (out, stats) = join(&a, &b, &Condition::eq(1, 1), exec, 4);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.left_rows).sum::<usize>(), a.len());
        assert_eq!(stats.iter().map(|s| s.right_rows).sum::<usize>(), b.len());
        assert_eq!(stats.iter().map(|s| s.out_rows).sum::<usize>(), out.len());
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.partition, i);
        }
        let (_, nl_stats) = join(&a, &b, &Condition::always(), exec, 4);
        assert!(nl_stats.iter().all(|s| s.right_rows == b.len()));
        assert_eq!(nl_stats.iter().map(|s| s.left_rows).sum::<usize>(), a.len());

        let hashes = a.columns().key_hashes(&[0]);
        for n in [2usize, 3, 8] {
            let lists = place(hashes.len(), n, |i| hashes[i]);
            assert_eq!(lists.len(), n);
            assert!(lists.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
            assert_eq!(lists.iter().map(|l| l.len()).sum::<usize>(), a.len());
            for key in 0..11i64 {
                let holding = lists
                    .iter()
                    .filter(|l| {
                        l.iter()
                            .any(|&i| a.tuples()[i as usize][0] == Value::int(key))
                    })
                    .count();
                assert_eq!(holding, 1, "key {key} spans partitions at n = {n}");
            }
        }
    }

    /// Chunks are contiguous, in order, cover `0..len`, and never
    /// outnumber the rows or the workers.
    #[test]
    fn chunk_rows_cover_the_range_in_order() {
        for len in [0usize, 1, 3, 4, 5, 100] {
            for n in [0usize, 1, 2, 4, 7] {
                let chunks = chunk_rows(len, n);
                assert!(chunks.len() <= n.max(1).min(len.max(1)), "{len} / {n}");
                let mut next = 0;
                for c in &chunks {
                    let Rows::Range(start, end) = *c else {
                        panic!("chunks are ranges")
                    };
                    assert_eq!(start, next);
                    assert!(end > start);
                    next = end;
                }
                assert_eq!(next, len, "{len} / {n}");
            }
        }
    }

    /// The capacity gate is a predicate on row counts: `u32::MAX` rows on
    /// either side still index, one more falls back to the row operators
    /// — at every worker count, because the gate sits at the kernel entry
    /// before any partitioning.
    #[test]
    fn capacity_gate_is_a_predicate_on_counts() {
        let max = u32::MAX as usize;
        assert!(fits_row_ids(0, 0));
        assert!(fits_row_ids(max, max));
        assert!(!fits_row_ids(max + 1, 0));
        assert!(!fits_row_ids(0, max + 1));
        assert!(!fits_row_ids(usize::MAX, usize::MAX));
    }

    /// A small directed graph with a hub, a matching, and some chain
    /// edges — enough structure for non-trivial triangles and 4-cycles.
    fn edge_relation() -> Relation {
        let mut rows: Vec<Vec<i64>> = Vec::new();
        for i in 0..8 {
            rows.push(vec![0, i]); // hub out-edges
            rows.push(vec![i, 0]); // hub in-edges
            rows.push(vec![i, (i + 1) % 8]); // ring
        }
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        r(&refs)
    }

    /// The standard cycle spec over `k` binary children in chain
    /// orientation: child p holds (v_p, v_{p+1 mod k}).
    fn cycle_spec(k: usize) -> MultiwaySpec {
        MultiwaySpec {
            cycle: (0..k)
                .map(|p| MultiwayLeaf {
                    child: p,
                    var_col: 0,
                    next_col: 1,
                })
                .collect(),
        }
    }

    /// The multiway kernel equals the pairwise join chain on triangles
    /// and 4-cycles, byte-identical at every worker count, with
    /// partition stats accounting for every output tuple.
    #[test]
    fn multiway_join_matches_pairwise_chain() {
        let e = edge_relation();

        // Triangle reference: (E ⋈₂₌₁ E) ⋈_{4=1 ∧ 1=2} E.
        let tri_ref = ops::join(
            &ops::join(&e, &e, &Condition::eq(2, 1)),
            &e,
            &Condition::eq_pairs([(4, 1), (1, 2)]),
        );
        assert!(!tri_ref.is_empty(), "the graph has triangles");
        // 4-cycle reference: ((E ⋈₂₌₁ E) ⋈₄₌₁ E) ⋈_{6=1 ∧ 1=2} E.
        let quad_ref = ops::join(
            &ops::join(
                &ops::join(&e, &e, &Condition::eq(2, 1)),
                &e,
                &Condition::eq(4, 1),
            ),
            &e,
            &Condition::eq_pairs([(6, 1), (1, 2)]),
        );
        assert!(!quad_ref.is_empty(), "the graph has 4-cycles");

        for (k, want) in [(3usize, &tri_ref), (4, &quad_ref)] {
            let children: Vec<&Relation> = vec![&e; k];
            let spec = cycle_spec(k);
            for workers in [1usize, 2, 4, 8] {
                let (got, stats) = multiway_join(&children, &spec, Execution::Vectorized, workers);
                assert_eq!(got, *want, "k={k} @{workers}");
                if workers <= 1 {
                    assert!(stats.is_empty(), "serial runs report no partitions");
                } else {
                    assert_eq!(
                        stats.iter().map(|p| p.out_rows).sum::<usize>(),
                        got.len(),
                        "partition stats account for every output tuple"
                    );
                }
            }
        }
    }

    /// Degenerate multiway inputs: an empty child annihilates the
    /// output, and a relation with no closing edges produces nothing.
    #[test]
    fn multiway_join_empty_and_closed_cases() {
        let e = edge_relation();
        let empty = Relation::empty(2);
        let spec = cycle_spec(3);
        for workers in [1usize, 4] {
            let (got, _) = multiway_join(&[&e, &empty, &e], &spec, Execution::Vectorized, workers);
            assert!(got.is_empty(), "empty child @{workers}");
            assert_eq!(got.arity(), 6);
        }
        // An acyclic edge set (a DAG chain 0→1→2→…) has no triangles.
        let chain_rows: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i + 1]).collect();
        let chain_refs: Vec<&[i64]> = chain_rows.iter().map(|r| r.as_slice()).collect();
        let dag = r(&chain_refs);
        let (got, _) = multiway_join(&[&dag, &dag, &dag], &spec, Execution::Vectorized, 2);
        assert!(got.is_empty(), "a DAG has no directed triangles");
    }
}
