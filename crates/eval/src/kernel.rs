//! The kernel layer: the one home of join and semijoin on the planned
//! path, each written **once** over its two whole operands — one hash
//! body keyed on θ's equality atoms, with the rest of θ as a residual
//! filter — and of the planned path's projection, grouping and tagging
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
//! A θ with no equality atom keys on zero columns: every build row lands
//! in one bucket, every probe reads all of it in order, and the residual
//! (all of θ) filters each pair — the filtered nested loop, with the
//! same body and the cost the node name `nested-loop-*` reports. The
//! binary kernels store `u32` row ids, so their operands must fit them
//! ([`sj_storage::ensure_u32_indexable`]): beyond that the planner
//! answers [`crate::EvalError::Storage`] before it calls one.
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
use crate::ops::split_condition;
use crate::ops_vec::gather;
use sj_algebra::Condition;
use sj_storage::column::{hash_int_cell, joint_codes};
use sj_storage::{FxHashMap, Relation, Tuple, Value};
use std::borrow::Cow;

/// The shell every binary kernel shares: the `kernel.*` span with its
/// operand sizes. Both operands must fit the `u32` row ids the kernels
/// store in hash-table postings and semijoin survivor lists.
fn kernel_call(
    name: &'static str,
    r1: &Relation,
    r2: &Relation,
    run: impl FnOnce() -> Relation,
) -> Relation {
    let mut span = sj_obs::span!(name, left = r1.len(), right = r2.len());
    let rel = run();
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

/// Run a hash kernel `body` on `r₁ ⋈/⋉ r₂` over θ's equality pairs, with
/// the rest of θ as its residual: both operands' keys are coded once,
/// and the same codes bucket the build table and confirm its matches.
/// With no equality pair the key has zero columns.
fn run_hashed<O>(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    body: impl FnOnce(Keyed<'_>, Keyed<'_>, &Condition) -> O,
) -> O {
    let (eq, residual) = split_condition(theta);
    let (lk, rk) = key_codes(r1, r2, &eq);
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
    body(left, right, &residual)
}

/// `r₁ ⋈θ r₂`. `_exec` and `_workers` are accepted and ignored (see the
/// module docs). Both operands must fit `u32` row ids
/// ([`sj_storage::ensure_u32_indexable`]), as for every binary kernel.
pub fn join(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    _exec: Execution,
    _workers: usize,
) -> Relation {
    kernel_call("kernel.join", r1, r2, || {
        let tuples = run_hashed(r1, r2, theta, hash_join);
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

/// `π[1..k](r₁ ⋉θ r₂)` for `k ≤ arity(r₁)`: the [`semijoin`] body, with
/// the surviving rows gathered as distinct `k`-prefixes. For
/// `k < arity(r₁)` it stops probing a run of equal `k`-prefix at its
/// first survivor. `k = arity(r₁)` is [`semijoin`] itself. Both operands
/// must fit `u32` row ids, as for [`join`].
pub fn project_semijoin(r1: &Relation, r2: &Relation, theta: &Condition, k: usize) -> Relation {
    kernel_call("kernel.semijoin", r1, r2, || {
        let keep = run_hashed(r1, r2, theta, |l, r, residual| {
            hash_semijoin(l, r, residual, k)
        });
        gather(r1, k, keep.len(), |p| keep[p] as usize)
    })
}

/// `γ[1..k; count](r₁ ⋈θ r₂)` for `1 ≤ k ≤ arity(r₁)`, without building a
/// join row: for every left row the body counts its θ-partners — a hash
/// probe confirmed on the key codes and the residual — and sums the
/// counts over runs of equal `k`-prefix, which a canonical `r₁` holds
/// adjacent. A run without partners has no join row and so no group.
/// Both operands must fit `u32` row ids, as for [`join`].
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
    kernel_call("kernel.group_join", r1, r2, || {
        run_hashed(r1, r2, theta, |l, r, residual| {
            hash_counts(l, r, residual, k)
        })
    })
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
/// candidates on. An empty key hashes every row alike: one bucket.
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
        let mask = if side.key.0.is_empty() {
            0
        } else {
            (2 * n).next_power_of_two() - 1
        };
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
/// order (left rows ascending, postings ascending). The matches are
/// gathered as row-id pairs first, so the output rows are built into one
/// allocation of the exact size: no rows moved by a growing buffer, and
/// no spare capacity held by the result.
fn hash_join(left: Keyed<'_>, right: Keyed<'_>, residual: &Condition) -> Vec<Tuple> {
    let table = Table::build(right);
    let b = right.rel.tuples();
    // Hoisted: the empty residual is the common case, and `Condition`
    // lives in another crate — one call per call, not per pair.
    let unfiltered = residual.is_empty();
    let a = left.rel.tuples();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (i, t1) in a.iter().enumerate() {
        for j in table.partners(left.key, i) {
            if unfiltered || residual.eval(t1.values(), b[j].values()) {
                pairs.push((i as u32, j as u32));
            }
        }
    }
    pairs
        .into_iter()
        .map(|(i, j)| a[i as usize].concat(&b[j as usize]))
        .collect()
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
/// the generic-join algorithm (Ngo–Porat–Ré) over the children's
/// canonical order, specialized to simple cycles:
///
/// 1. Position `p` reads its child as a relation over `(v_p, v_{p+1})`:
///    the child itself when `var_col` is 0, its swap `π₂,₁` otherwise.
///    Canonical order makes the partners of a value of `v_p` one run of
///    rows, found by binary search ([`Relation::key_range`]).
/// 2. The cycle is rotated to start at the position with the fewest
///    distinct values, and the variables are bound around it through
///    those runs.
/// 3. The **last** variable must extend its predecessor's run and reach
///    `v₀` through the closing relation read backwards: the shorter of
///    the two runs is walked and each of its values binary-searched in
///    the longer, never enumerated blindly.
///
/// Every binding writes one output tuple assembled in the children's
/// original column order, so the output equals the pairwise join chain
/// the planner replaced — no projection needed. On a triangle, the
/// cycle the planner collapses, each binding of `(v₀, v₁)` costs the
/// smaller of the two runs it intersects, so the runtime is within the
/// AGM fractional-cover bound `∏ |Rᵢ|^{1/2}` up to a logarithmic factor
/// (plus one sorting pass per swapped child) — exactly the regime where
/// every pairwise order materializes a larger intermediate.
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
    debug_assert!(children.len() == k && children.iter().all(|r| r.arity() == 2));
    // Position `pos`'s child with column `first` (0-based) read first.
    let oriented = |pos: &MultiwayLeaf, first: usize| match first {
        0 => Cow::Borrowed(children[pos.child]),
        _ => Cow::Owned(project(children[pos.child], &[2, 1])),
    };
    let views: Vec<Cow<'_, Relation>> = spec
        .cycle
        .iter()
        .map(|pos| oriented(pos, pos.var_col))
        .collect();
    let runs = |r: &Relation| r.tuples().chunk_by(|a, b| a[0] == b[0]).count();
    let start = (0..k)
        .min_by_key(|&p| (runs(&views[p]), p))
        .expect("k >= 3");
    let rot = |i: usize| (start + i) % k;
    let fwd: Vec<&Relation> = (0..k - 1).map(|i| views[rot(i)].as_ref()).collect();
    let closing = &spec.cycle[rot(k - 1)];
    let back = oriented(closing, closing.next_col);

    let mut out: Vec<Tuple> = Vec::new();
    // Emit the output tuple of one complete binding (rotated order).
    let mut emit = |binding: &[&Value]| {
        let mut cells = vec![Value::int(0); 2 * k];
        for (i, v) in binding.iter().enumerate() {
            let pos = &spec.cycle[rot(i)];
            cells[2 * pos.child + pos.var_col] = (*v).clone();
            cells[2 * pos.child + pos.next_col] = binding[(i + 1) % k].clone();
        }
        out.push(Tuple::new(cells));
    };
    // Bind the variables after `binding` (v₀ … v_{d−1}, rotated), given
    // `partners`, the rows (v_{d−1}, v_d) of `fwd[d − 1]`, and `back`,
    // the rows (v₀, v_{k−1}) of the closing relation.
    fn extend<'a>(
        fwd: &[&'a Relation],
        back: &'a [Tuple],
        partners: &'a [Tuple],
        binding: &mut Vec<&'a Value>,
        emit: &mut dyn FnMut(&[&Value]),
    ) {
        let d = binding.len();
        if d == fwd.len() {
            // Close the cycle: v_{k−1} is a second value of both runs.
            let (short, long) = if partners.len() <= back.len() {
                (partners, back)
            } else {
                (back, partners)
            };
            for t in short {
                if long.binary_search_by(|u| u[1].cmp(&t[1])).is_ok() {
                    binding.push(&t[1]);
                    emit(binding);
                    binding.pop();
                }
            }
            return;
        }
        for t in partners {
            let run = &fwd[d].tuples()[fwd[d].key_range(&t[1])];
            if !run.is_empty() {
                binding.push(&t[1]);
                extend(fwd, back, run, binding, emit);
                binding.pop();
            }
        }
    }
    let mut binding: Vec<&Value> = Vec::with_capacity(k);
    for run in fwd[0].tuples().chunk_by(|a, b| a[0] == b[0]) {
        let v0 = &run[0][0];
        let closes = &back.tuples()[back.key_range(v0)];
        if !closes.is_empty() {
            binding.push(v0);
            extend(&fwd, closes, run, &mut binding, &mut emit);
            binding.pop();
        }
    }
    // A binding determines its tuple, so the bindings are
    // duplicate-free; one canonicalization pass restores the global
    // order.
    let merged = Relation::from_tuples(2 * k, out).expect("assembled arity");
    span.attr("out_rows", merged.len());
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
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

    /// `E0 ⋈[2=2] E1ᵀ ⋈[3=1 ∧ 1=2] E2` by pairwise joins, where `E1ᵀ`
    /// stores its edges as (head, tail).
    fn reversed_middle_chain(e0: &Relation, e1t: &Relation, e2: &Relation) -> Relation {
        ops::join(
            &ops::join(e0, e1t, &Condition::eq(2, 2)),
            e2,
            &Condition::eq_pairs([(3, 1), (1, 2)]),
        )
    }

    /// A triangle whose middle child is read against its stored column
    /// order (`var_col: 1`) equals the pairwise chain, on integer and on
    /// string cells.
    #[test]
    fn multiway_join_reads_a_reversed_child() {
        let mut spec = cycle_spec(3);
        spec.cycle[1] = MultiwayLeaf {
            child: 1,
            var_col: 1,
            next_col: 0,
        };
        let e = edge_relation();
        let swap = |r: &Relation| ops::project(r, &[2, 1]);
        let name = |t: &Tuple| -> Tuple {
            t.iter()
                .map(|v| Value::str(format!("v{}", v.as_int().unwrap())))
                .collect()
        };
        let s = Relation::from_tuples(2, e.iter().map(name)).unwrap();
        for (cells, rel) in [("ints", &e), ("strings", &s)] {
            let rev = swap(rel);
            let want = reversed_middle_chain(rel, &rev, rel);
            assert!(!want.is_empty(), "{cells}: the graph has triangles");
            let got = multiway_join(&[rel, &rev, rel], &spec, Execution::Vectorized, 1);
            assert_eq!(got, want, "{cells}");
        }
    }

    /// The hub triangle `E0 = {(i,0)}`, `E1 = {(0,j)}`, `E2 = {(j,j)}`:
    /// one hub whose partners the closing step must not walk per binding.
    #[test]
    fn multiway_join_on_a_hub_triangle() {
        let n = 50;
        let e0 = Relation::from_tuples(2, (1..=n).map(|i| tuple![i, 0])).unwrap();
        let e1 = Relation::from_tuples(2, (1..=n).map(|j| tuple![0, j])).unwrap();
        let e2 = Relation::from_tuples(2, (1..=n).map(|j| tuple![j, j])).unwrap();
        let want = ops::join(
            &ops::join(&e0, &e1, &Condition::eq(2, 1)),
            &e2,
            &Condition::eq_pairs([(4, 1), (1, 2)]),
        );
        assert_eq!(want.len(), n as usize, "one triangle (i, 0, i) per i");
        let got = multiway_join(&[&e0, &e1, &e2], &cycle_spec(3), Execution::Vectorized, 1);
        assert_eq!(got, want);
    }
}
