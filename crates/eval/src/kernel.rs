//! The kernel layer: the one home of join and semijoin on the planned
//! path, each written **once** over its two whole operands — a hash body
//! on θ's equality atoms, a filtered nested loop when there are none —
//! and of the planned path's projection, grouping and tagging
//! ([`project`], [`group_count`], [`tag`]).
//!
//! **Prefix consumers.** A canonical relation is sorted by every prefix
//! `1..k` of its columns, and a ⋉ or σ emits ascending row ids of its
//! left input. So `π[1..k]` over either is one pass over those ids that
//! keeps the first row of each run of equal prefixes
//! ([`project_semijoin`], [`crate::ops_vec::project_select`]), and
//! `γ[1..k; count](r₁ ⋈θ r₂)` sums partner counts over the same runs
//! ([`group_join`]): tuples are built for the distinct keys only, never
//! for the rows the consumer would discard.
//!
//! **Key codes.** A hash kernel reads its equality columns in the joint,
//! order-preserving code space of [`sj_storage::column::joint_codes`]:
//! each left key column is coded together with its right partner, so a
//! key is a row of `i64`s and key equality across the two relations is
//! integer equality — zero-copy for integer columns, one remap per call
//! for two dictionaries. The codes key the build table and confirm every
//! candidate pair; no key cell is read as a `Value`. An aligned key
//! (`1=1 ∧ … ∧ k=k`) is hashed like any other: both canonical operands
//! are sorted by it, but a probe of dense codes costs what a merge walk
//! does. No input tuple is cloned into a build table — postings are
//! 4-byte row indices into the shared operands.
//!
//! **Runs.** Under a prefix consumer the left operand's rows come in
//! runs of equal `k`-prefix, found by typed passes over its columns
//! ([`sj_storage::Columns::run_starts`]). A fused `π[1..k](⋉)` probes a
//! run only up to its first survivor, the group-join sums partner counts
//! per run, and the gather that builds the output reads the key cells of
//! one row per run from the columns.
//!
//! Every body walks its left operand in row order, so every body emits
//! in canonical order: join bodies yield sorted tuples, semijoin bodies
//! yield ascending left row ids, gathered once. Either way the result
//! goes through [`Relation::from_sorted_tuples`], whose linear order
//! check is the safety net behind the "already sorted" claims.
//!
//! A θ with no equality atom has no key to hash: a filtered nested loop
//! runs instead. Operands beyond the `u32` row capacity are an input
//! condition, not a panic: one gate at every entry point hands them to
//! the row operators [`ops::join`] / [`ops::semijoin`] (a prefix
//! consumer applies [`project`] / [`group_count`] to that result).
//!
//! Every kernel runs on the calling thread. The `workers` argument of
//! [`join`], [`semijoin`], [`merge_join`] and [`multiway_join`] is
//! accepted and ignored, like their `_exec` (see [`crate::exec`]):
//! `benchmark/` still spells both, and calls the [`merge_join`] shim.
//!
//! Output is byte-identical to [`crate::ops`] — `tests/vectorized.rs`
//! holds the kernels to the row operators and to a brute-force nested
//! loop on every θ shape and operand kind.

use crate::exec::Execution;
use crate::ops::{self, split_condition};
use crate::ops_vec::gather;
use sj_algebra::Condition;
use sj_storage::column::{hash_int_cell, joint_codes};
use sj_storage::{ensure_u32_indexable, FxHashMap, Relation, Tuple, Value};
use std::borrow::Cow;

/// True when both operands fit the `u32` row ids the kernels store in
/// hash-table postings and semijoin survivor lists. Beyond that the row
/// operators of [`crate::ops`] take over: capacity is an input
/// condition, not a panic.
fn fits_row_ids(left_rows: usize, right_rows: usize) -> bool {
    ensure_u32_indexable(left_rows).is_ok() && ensure_u32_indexable(right_rows).is_ok()
}

/// The shell every binary kernel shares: the `kernel.*` span with its
/// operand sizes, and the capacity gate that hands oversized operands to
/// the row operator `fallback`.
fn kernel_call(
    name: &'static str,
    r1: &Relation,
    r2: &Relation,
    fallback: impl FnOnce() -> Relation,
    run: impl FnOnce() -> Relation,
) -> Relation {
    let mut span = sj_obs::span!(name, left = r1.len(), right = r2.len());
    let rel = if fits_row_ids(r1.len(), r2.len()) {
        run()
    } else {
        fallback()
    };
    span.attr("out_rows", rel.len());
    rel
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
    /// time. It buckets the row in a build table.
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

/// One operand of a hash kernel: the relation and its key (indexed by
/// row, coded once for the whole call).
#[derive(Clone, Copy)]
struct Keyed<'a> {
    rel: &'a Relation,
    key: Key<'a>,
}

/// Run a hash kernel `body` on `r₁ ⋈/⋉ r₂` over the equality pairs `eq`:
/// both operands' keys are coded once, and the same codes bucket the
/// build table and confirm its matches.
fn run_hashed<O>(
    r1: &Relation,
    r2: &Relation,
    eq: &[(usize, usize)],
    body: impl FnOnce(Keyed<'_>, Keyed<'_>) -> O,
) -> O {
    let (lk, rk) = key_codes(r1, r2, eq);
    let (lk, rk): (Vec<&[i64]>, Vec<&[i64]>) = (
        lk.iter().map(|c| c.as_ref()).collect(),
        rk.iter().map(|c| c.as_ref()).collect(),
    );
    let left = Keyed {
        rel: r1,
        key: Key(&lk),
    };
    let right = Keyed {
        rel: r2,
        key: Key(&rk),
    };
    body(left, right)
}

/// `r₁ ⋈θ r₂`. `_exec` and `_workers` are accepted and ignored (see the
/// module docs).
pub fn join(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    _exec: Execution,
    _workers: usize,
) -> Relation {
    let fallback = || ops::join(r1, r2, theta);
    kernel_call("kernel.join", r1, r2, fallback, || {
        let (eq, residual) = split_condition(theta);
        let tuples = if eq.is_empty() {
            nested_loop_join(r1, r2, theta)
        } else {
            run_hashed(r1, r2, &eq, |l, r| hash_join(l, r, &residual))
        };
        Relation::from_sorted_tuples(r1.arity() + r2.arity(), tuples)
    })
}

/// `r₁ ⋉θ r₂` (see [`join`]).
pub fn semijoin(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    _exec: Execution,
    _workers: usize,
) -> Relation {
    project_semijoin(r1, r2, theta, r1.arity())
}

/// `π[1..k](r₁ ⋉θ r₂)` for `k ≤ arity(r₁)`: the [`semijoin`] bodies, with
/// the surviving rows gathered as distinct `k`-prefixes. For
/// `k < arity(r₁)` a body stops probing a run of equal `k`-prefix at its
/// first survivor. `k = arity(r₁)` is [`semijoin`] itself.
pub fn project_semijoin(r1: &Relation, r2: &Relation, theta: &Condition, k: usize) -> Relation {
    let fallback = || project(&ops::semijoin(r1, r2, theta), &prefix_cols(k));
    kernel_call("kernel.semijoin", r1, r2, fallback, || {
        let (eq, residual) = split_condition(theta);
        let keep = if eq.is_empty() {
            nested_loop_semijoin(r1, r2, theta, k)
        } else {
            run_hashed(r1, r2, &eq, |l, r| hash_semijoin(l, r, &residual, k))
        };
        gather(r1, k, keep.len(), |p| keep[p] as usize)
    })
}

/// `γ[1..k; count](r₁ ⋈θ r₂)` for `1 ≤ k ≤ arity(r₁)`, without building a
/// join row: for every left row the body counts its θ-partners — a hash
/// probe confirmed on the key codes and the residual, or a filtered
/// nested loop when θ has no equality atom — and sums the counts over
/// runs of equal `k`-prefix, which a canonical `r₁` holds adjacent. A
/// run without partners has no join row and so no group.
///
/// # Panics
///
/// When `k` is 0 or exceeds `arity(r₁)`: `γ[]` counts `{(0)}` on an
/// empty join, which no left row can report.
pub fn group_join(r1: &Relation, r2: &Relation, theta: &Condition, k: usize) -> Relation {
    assert!(
        (1..=r1.arity()).contains(&k),
        "group-join keys are a non-empty prefix of the left operand"
    );
    let fallback = || group_count(&ops::join(r1, r2, theta), &prefix_cols(k));
    kernel_call("kernel.group_join", r1, r2, fallback, || {
        let (eq, residual) = split_condition(theta);
        if eq.is_empty() {
            nested_loop_counts(r1, r2, theta, k)
        } else {
            run_hashed(r1, r2, &eq, |l, r| hash_counts(l, r, &residual, k))
        }
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

/// Accepted shim: the equi-join on the aligned key prefix `1..k` with
/// `residual`, which is [`join`] on `1=1 ∧ … ∧ k=k ∧ residual`.
/// `benchmark/` still calls it by this name.
pub fn merge_join(
    r1: &Relation,
    r2: &Relation,
    k: usize,
    residual: &Condition,
    exec: Execution,
    workers: usize,
) -> Relation {
    let prefix = Condition::eq_pairs((1..=k).map(|c| (c, c)));
    let theta = Condition::new(prefix.atoms().iter().chain(residual.atoms()).copied());
    join(r1, r2, &theta, exec, workers)
}

// ---------------------------------------------------------------------------
// Operator bodies: one per operator, over whole operands
// ---------------------------------------------------------------------------

/// The build side's hash table: its rows bucketed by key hash in one
/// counting sort — flat, no list per key, every bucket listing its rows
/// ascending, each beside its full hash — with the side's key to confirm
/// candidates on.
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
        let n = side.rel.len();
        let mask = (2 * n).next_power_of_two() - 1;
        let hashed: Vec<(u64, u32)> = (0..n).map(|j| (side.key.hash(j), j as u32)).collect();
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

    /// A hash's bucket, from its high half.
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

/// Hash join: build on the right operand, probe from the left, confirm
/// on the key codes, filter by the residual. Output is in canonical
/// order (left rows ascending, postings ascending).
fn hash_join(left: Keyed<'_>, right: Keyed<'_>, residual: &Condition) -> Vec<Tuple> {
    let table = Table::build(right);
    let b = right.rel.tuples();
    // Hoisted: the empty residual is the common case, and `Condition`
    // lives in another crate — one call per call, not per pair.
    let unfiltered = residual.is_empty();
    let mut out: Vec<Tuple> = Vec::new();
    for (i, t1) in left.rel.tuples().iter().enumerate() {
        for j in table.partners(left.key, i) {
            let t2 = &b[j];
            if unfiltered || residual.eval(t1.values(), t2.values()) {
                out.push(t1.concat(t2));
            }
        }
    }
    out
}

/// The ascending ids of the rows of `r` that `survives`. Under a fused
/// `π[1..k]` (`k < arity(r)`) each run of rows sharing their `k`-prefix
/// is probed only up to its first survivor: that prefix is in the output
/// already.
fn survivors(r: &Relation, k: usize, survives: impl Fn(usize) -> bool) -> Vec<u32> {
    if k == r.arity() {
        return (0..r.len())
            .filter(|&i| survives(i))
            .map(|i| i as u32)
            .collect();
    }
    let starts = r.columns().run_starts(k, r.len(), |i| i);
    starts
        .windows(2)
        .filter_map(|run| (run[0]..run[1]).find(|&i| survives(i)).map(|i| i as u32))
        .collect()
}

/// Hash semijoin (see [`hash_join`]) under a consumer keeping the
/// `k`-prefix: the ascending ids of the left rows with a partner, one per
/// run under a fused projection ([`survivors`]).
fn hash_semijoin(left: Keyed<'_>, right: Keyed<'_>, residual: &Condition, k: usize) -> Vec<u32> {
    let table = Table::build(right);
    let (a, b) = (left.rel.tuples(), right.rel.tuples());
    // The residual is tested once, not per candidate (see `hash_join`).
    if residual.is_empty() {
        return survivors(left.rel, k, |i| {
            table.partners(left.key, i).next().is_some()
        });
    }
    survivors(left.rel, k, |i| {
        table
            .partners(left.key, i)
            .any(|j| residual.eval(a[i].values(), b[j].values()))
    })
}

/// The group-join probe (see [`hash_semijoin`]): partner counts summed
/// per run of equal `k`-prefix ([`sum_runs`]).
fn hash_counts(left: Keyed<'_>, right: Keyed<'_>, residual: &Condition, k: usize) -> Relation {
    let table = Table::build(right);
    let (a, b) = (left.rel.tuples(), right.rel.tuples());
    // Two bodies of one closure shape: testing the residual per
    // candidate is a call into another crate (see `hash_join`).
    if residual.is_empty() {
        return sum_runs(left.rel, k, |i| table.partners(left.key, i).count());
    }
    sum_runs(left.rel, k, |i| {
        table
            .partners(left.key, i)
            .filter(|&j| residual.eval(a[i].values(), b[j].values()))
            .count()
    })
}

/// Filtered nested-loop join, for a θ with no equality atom. Output is
/// in canonical order.
fn nested_loop_join(r1: &Relation, r2: &Relation, theta: &Condition) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = Vec::new();
    for t1 in r1.tuples() {
        for t2 in r2.tuples() {
            if theta.eval(t1.values(), t2.values()) {
                out.push(t1.concat(t2));
            }
        }
    }
    out
}

/// Nested-loop semijoin, for a θ with no equality atom: the ascending
/// ids of the left rows with a partner (one per run under a fused
/// `π[1..k]`, see [`survivors`]).
fn nested_loop_semijoin(r1: &Relation, r2: &Relation, theta: &Condition, k: usize) -> Vec<u32> {
    let (a, b) = (r1.tuples(), r2.tuples());
    survivors(r1, k, |i| {
        b.iter().any(|t2| theta.eval(a[i].values(), t2.values()))
    })
}

/// The group-join count for a θ with no equality atom (see
/// [`hash_counts`]).
fn nested_loop_counts(r1: &Relation, r2: &Relation, theta: &Condition, k: usize) -> Relation {
    let (a, b) = (r1.tuples(), r2.tuples());
    sum_runs(r1, k, |i| {
        b.iter()
            .filter(|t2| theta.eval(a[i].values(), t2.values()))
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
        Some(k) => sum_runs(r, k, |_| 1),
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

/// `(prefix, Σ count)` for every run of equal `k`-prefix of canonical
/// `r` whose sum is positive, row `i` counted `count(i)` times — the
/// step [`group_join`] (a left row's partners; a run without any has no
/// join row) and [`group_count`] (every row once) share. The key cells
/// of each run's first row are read from the columns; the runs come in
/// key order, so the output is canonical as built.
fn sum_runs(r: &Relation, k: usize, count: impl Fn(usize) -> usize) -> Relation {
    let cols = r.columns();
    let starts = cols.run_starts(k, r.len(), |i| i);
    let out = starts
        .windows(2)
        .filter_map(|run| {
            let total: u64 = (run[0]..run[1]).map(|i| count(i) as u64).sum();
            (total > 0).then(|| {
                (0..k)
                    .map(|c| cols.value_at(c, run[0]))
                    .chain([Value::int(total as i64)])
                    .collect()
            })
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
/// `_exec` and `_workers` are accepted and ignored (see the module
/// docs).
pub fn multiway_join(
    children: &[&Relation],
    spec: &MultiwaySpec,
    _exec: Execution,
    _workers: usize,
) -> Relation {
    let k = spec.cycle.len();
    let mut span = sj_obs::span!(
        "kernel.multiway",
        children = children.len(),
        rows = children.iter().map(|r| r.len()).sum::<usize>()
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
    let mut out: Vec<Tuple> = Vec::new();
    let mut binding: Vec<Value> = Vec::with_capacity(k);
    for start_value in cands {
        binding.clear();
        binding.push(start_value.clone());
        search(1, k, &rot_fwd, &bwd, &mut binding, &emit, &mut out);
    }
    // A binding determines its tuple, so the bindings are
    // duplicate-free; one canonicalization pass restores the global
    // order.
    let merged = Relation::from_tuples(out_arity, out).expect("assembled arity");
    span.attr("out_rows", merged.len());
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_algebra::CompOp;
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

    /// The kernels are byte-identical to the row operators, for joins
    /// and semijoins on every theta shape and operand type. (The full
    /// matrix, with a brute-force oracle, is `tests/vectorized.rs`.)
    #[test]
    fn kernel_join_and_semijoin_match_serial_reference() {
        let thetas = [
            Condition::eq(1, 1),
            Condition::eq(2, 1),
            Condition::eq(1, 1).and(2, CompOp::Lt, 2),
            Condition::lt(1, 1),
            Condition::always(),
        ];
        let exec = Execution::Vectorized;
        for (name, a, b) in operands() {
            for theta in &thetas {
                let join_out = join(&a, &b, theta, exec, 1);
                assert_eq!(join_out, ops::join(&a, &b, theta), "join {theta} on {name}");
                let semi_out = semijoin(&a, &b, theta, exec, 1);
                assert_eq!(
                    semi_out,
                    ops::semijoin(&a, &b, theta),
                    "semijoin {theta} on {name}"
                );
            }
        }
    }

    /// The capacity gate is a predicate on row counts: `u32::MAX` rows on
    /// either side still index, one more falls back to the row
    /// operators.
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
    /// and 4-cycles.
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
            let got = multiway_join(&children, &cycle_spec(k), Execution::Vectorized, 1);
            assert_eq!(got, *want, "k={k}");
        }
    }

    /// Degenerate multiway inputs: an empty child annihilates the
    /// output, and a relation with no closing edges produces nothing.
    #[test]
    fn multiway_join_empty_and_closed_cases() {
        let e = edge_relation();
        let empty = Relation::empty(2);
        let spec = cycle_spec(3);
        let got = multiway_join(&[&e, &empty, &e], &spec, Execution::Vectorized, 1);
        assert!(got.is_empty(), "an empty child annihilates the cycle");
        assert_eq!(got.arity(), 6);
        // An acyclic edge set (a DAG chain 0→1→2→…) has no triangles.
        let chain_rows: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i + 1]).collect();
        let chain_refs: Vec<&[i64]> = chain_rows.iter().map(|r| r.as_slice()).collect();
        let dag = r(&chain_refs);
        let got = multiway_join(&[&dag, &dag, &dag], &spec, Execution::Vectorized, 1);
        assert!(got.is_empty(), "a DAG has no directed triangles");
    }
}
