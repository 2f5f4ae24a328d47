//! Partition-parallel division and set joins.
//!
//! The serial algorithms of [`crate::division`] and [`crate::setjoin`]
//! each run as one pass over monolithic inputs. This module re-expresses
//! them as **partitioned build/probe**: the build side becomes one
//! shared read-only index, the probe side is split into disjoint
//! partitions that fan out over `std::thread::scope` workers, and the
//! per-partition outputs merge back in canonical order. Partitions are
//! *views* (slices and index lists) — no tuple is ever cloned into a
//! partition, so the partitioned pass costs no more than the serial one
//! even at one worker. Two distinct wins follow:
//!
//! * **Concurrency.** Partitions are independent, so `w` workers give up
//!   to `w`-fold wall-clock scaling on multi-core hosts.
//! * **Pair pruning (set joins).** The containment join partitions the
//!   contained side by an **anchor element** — its globally least
//!   frequent element, the "most selective" trick of the
//!   partition-based set joins of Ramasamy et al. (VLDB 2000) and
//!   Helmer–Moerkotte. A group is only ever compared against the groups
//!   whose sets contain its anchor, shrinking the quadratic candidate
//!   pair space even at one worker.
//! * **Vectorized partition kernels (set joins).** When the element
//!   columns are dense (all-`i64` or dictionary strings), the
//!   per-partition signature tests and verification merges run over the
//!   columnar group ranges of [`crate::columnar`] — the parallelism and
//!   the vectorization compound instead of excluding each other, the
//!   same composition `sj-eval`'s kernel layer gives the planned query
//!   path.
//!
//! Determinism: partition placement is a pure function of the input,
//! workers only produce their own partition's output, and every merge
//! re-establishes the canonical order — so for any worker count the
//! output is byte-identical to the serial algorithms (property-tested in
//! `tests/parallel.rs`).

use crate::columnar::{dense_signature, group_ranges, joint_codes, predicate_on, remap};
use crate::division::{hash_division, DivisionSemantics};
use crate::setjoin::{group_sets, predicate_holds_public, signature, SetPredicate};
use sj_storage::hash::fx_hash_one;
use sj_storage::{ColumnData, Columns, FxHashMap, FxHashSet, Relation, Tuple, Value};

/// Hard ceiling on worker threads, whatever the caller asks for: the
/// operators spawn one OS thread per worker, so an absurd request
/// (`Threads(100_000)`) must degrade to a clamp, not a failed spawn.
pub const MAX_WORKERS: usize = 64;

/// Resolve a configured worker count — the single source of truth for
/// every layer (`sj-eval`'s `Parallelism` delegates here): `0` means
/// "one worker per available CPU" (capped at 8 — beyond that the merge
/// step dominates at this workspace's scales), explicit counts are
/// clamped to `1..=`[`MAX_WORKERS`].
pub fn resolve_workers(configured: usize) -> usize {
    let w = if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        configured
    };
    w.clamp(1, MAX_WORKERS)
}

/// Run `f` over `parts` with at most `workers` scoped threads, returning
/// one output per partition **in partition order** (worker scheduling
/// never influences result order). A single worker runs inline — no
/// thread is ever spawned for the degenerate case. Shared by this
/// module's operators and `sj-eval`'s partition-parallel join/semijoin.
pub fn fan_out<T, I, F>(parts: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    I: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = workers.max(1).min(parts.len().max(1));
    if workers <= 1 {
        return parts.into_iter().map(f).collect();
    }
    // Hand each worker every `workers`-th partition (round-robin), so a
    // skewed partition doesn't serialize the whole batch behind one
    // thread.
    let mut lanes: Vec<Vec<(usize, I)>> = Vec::new();
    lanes.resize_with(workers, Vec::new);
    for (i, p) in parts.into_iter().enumerate() {
        lanes[i % workers].push((i, p));
    }
    let f = &f;
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                s.spawn(move || {
                    lane.into_iter()
                        .map(|(i, p)| (i, f(p)))
                        .collect::<Vec<(usize, T)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("partition worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// Split canonically sorted tuples into at most `n` contiguous,
/// **group-aligned** ranges: a cut never separates two tuples sharing
/// the first column, so every A-group lives wholly in one partition.
/// Zero-copy — partitions are subslices.
fn group_aligned_chunks(tuples: &[Tuple], n: usize) -> Vec<&[Tuple]> {
    if tuples.is_empty() {
        return Vec::new();
    }
    let n = n.max(1).min(tuples.len());
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 1..=n {
        if start >= tuples.len() {
            break;
        }
        let mut end = (tuples.len() * i / n).max(start + 1);
        // Snap forward to the next group boundary.
        while end < tuples.len() && tuples[end][0] == tuples[end - 1][0] {
            end += 1;
        }
        chunks.push(&tuples[start..end]);
        start = end;
    }
    chunks
}

/// Partition-parallel hash-division. The divisor becomes one shared hash
/// index (the build side, built once); the canonically sorted dividend
/// is split into group-aligned contiguous partitions (zero-copy slices)
/// whose probe passes fan out over the workers. Each worker counts, per
/// A-run, the B-values hitting the divisor index — Graefe's
/// hash-division with the bitmap replaced by a per-run counter, which
/// the sorted run makes sufficient (set semantics: no B repeats within a
/// group). Per-partition quotients are already in A-order and A-ranges
/// are disjoint and increasing, so the merge is a concatenation.
pub fn parallel_hash_division(
    r: &Relation,
    s: &Relation,
    sem: DivisionSemantics,
    workers: usize,
) -> Relation {
    assert_eq!(r.arity(), 2, "dividend must be binary R(A,B)");
    assert_eq!(s.arity(), 1, "divisor must be unary S(B)");
    let workers = resolve_workers(workers);
    if workers <= 1 {
        return hash_division(r, s, sem);
    }
    let divisor: FxHashSet<&Value> = s.iter().map(|t| &t[0]).collect();
    let need = divisor.len();
    let chunks = group_aligned_chunks(r.tuples(), workers);
    let outputs = fan_out(chunks, workers, |chunk| {
        let mut out: Vec<Tuple> = Vec::new();
        let mut i = 0usize;
        while i < chunk.len() {
            let a = &chunk[i][0];
            let mut matched = 0usize;
            let mut j = i;
            while j < chunk.len() && &chunk[j][0] == a {
                if divisor.contains(&chunk[j][1]) {
                    matched += 1;
                }
                j += 1;
            }
            let qualifies = match sem {
                DivisionSemantics::Containment => matched == need,
                DivisionSemantics::Equality => matched == need && j - i == need,
            };
            if qualifies {
                out.push(Tuple::new(vec![a.clone()]));
            }
            i = j;
        }
        out
    });
    Relation::from_sorted_tuples(1, outputs.into_iter().flatten().collect())
}

/// How many probe partitions the partition-based set join fans a worker
/// count out to. More partitions smooth out anchor skew across the
/// round-robin worker lanes; 16 per worker keeps the per-partition merge
/// negligible.
const PSJ_FANOUT: usize = 16;

/// Partition-based signature set join (`⊇`, `⊆`, `=`).
///
/// The hash-partitioning that makes equi-joins parallel does not apply
/// directly to set predicates — a qualifying pair shares *set contents*,
/// not a key. The classical fix (partition-based set joins): every
/// group of the **containing** side enters a shared postings index
/// (element → groups holding it, the build side); every group of the
/// **contained** side picks one **anchor element** — its globally least
/// frequent element, i.e. the shortest postings list — and is
/// partitioned by the anchor's hash. If `D ⊆ B` then every element of
/// `D`, in particular its anchor, lies in `B`: probing just the
/// anchor's postings list finds every qualifying pair exactly once,
/// and candidates are signature-filtered before the exact merge test.
/// For `=` both sides partition by a hash of their full value list
/// (equal sets collide by construction) and nothing is replicated.
///
/// `∩ ≠ ∅` has no anchor element (any shared element qualifies) and is
/// already an ordinary equijoin; use
/// [`crate::intersect_join_via_equijoin`].
///
/// Like the serial [`crate::signature_set_join`], the per-partition work
/// is **vectorized when the element columns are dense**: both all-`i64`
/// or both dictionary-encoded strings run on zero-copy columnar group
/// ranges ([`group_ranges`]) with dense signature folds and
/// `i64`/joint-code verification merges ([`joint_codes`]) — no `Value`
/// is cloned or hash-dispatched in the partition loops. Mixed-variant
/// element columns fall back to the row-wise
/// `parallel_signature_set_join_rowwise`. Output is byte-identical
/// either way, at every worker count.
///
/// # Panics
///
/// On [`SetPredicate::IntersectsNonempty`] — callers go through
/// [`crate::registry::SetJoinAlgorithm::supports`].
pub fn parallel_signature_set_join(
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
    workers: usize,
) -> Relation {
    assert!(
        pred != SetPredicate::IntersectsNonempty,
        "partition-based set join: ∩≠∅ has no anchor element; use the equijoin reduction"
    );
    assert_eq!(r.arity(), 2, "set-join operands must be binary");
    assert_eq!(s.arity(), 2, "set-join operands must be binary");
    let workers = resolve_workers(workers);
    let (rc, sc) = (r.columns(), s.columns());
    match (rc.col(1), sc.col(1)) {
        (ColumnData::Int(b), ColumnData::Int(d)) => {
            parallel_columnar_set_join(rc, sc, b, d, pred, workers)
        }
        (ColumnData::Str(b), ColumnData::Str(d)) => {
            let (mb, md) = joint_codes(rc.dict(), sc.dict());
            parallel_columnar_set_join(rc, sc, &remap(b, &mb), &remap(d, &md), pred, workers)
        }
        // Mixed-variant (or cross-variant) element columns: row path.
        _ => parallel_signature_set_join_rowwise(r, s, pred, workers),
    }
}

/// One set-join operand in columnar form: the group ranges of its key
/// column, one dense signature per group, and the (dense) element
/// column the ranges slice into.
struct ColumnarSide<'a, T> {
    ranges: Vec<(u32, u32)>,
    sigs: Vec<u64>,
    elems: &'a [T],
    cols: &'a Columns,
}

impl<'a, T: Copy + Ord + Into<i64>> ColumnarSide<'a, T> {
    fn new(cols: &'a Columns, elems: &'a [T]) -> Self {
        let ranges = group_ranges(cols);
        let sigs = ranges
            .iter()
            .map(|&(a, b)| dense_signature(&elems[a as usize..b as usize]))
            .collect();
        ColumnarSide {
            ranges,
            sigs,
            elems,
            cols,
        }
    }

    /// Group `g`'s element set: a zero-copy, strictly increasing slice
    /// of the element column.
    fn set(&self, g: usize) -> &'a [T] {
        let (a, b) = self.ranges[g];
        &self.elems[a as usize..b as usize]
    }

    /// Group `g`'s key value (only materialized for output tuples).
    fn key(&self, g: usize) -> Value {
        self.cols.value_at(0, self.ranges[g].0 as usize)
    }
}

/// The partition-based set join over dense columnar operands: the same
/// anchor-element partitioning as the row path, with every per-partition
/// signature test and verification merge running on dense `i64`s or
/// joint dictionary codes.
fn parallel_columnar_set_join<T>(
    rc: &Columns,
    sc: &Columns,
    relems: &[T],
    selems: &[T],
    pred: SetPredicate,
    workers: usize,
) -> Relation
where
    T: Copy + Ord + std::hash::Hash + Into<i64> + Sync,
{
    let rside = ColumnarSide::new(rc, relems);
    let sside = ColumnarSide::new(sc, selems);
    let parts = (workers * PSJ_FANOUT).min(rside.ranges.len().max(sside.ranges.len()).max(1));
    // As in the row path: `probe_left` says whether the partitioned
    // probe side is R (⊆) or S (⊇ and =); output column order is fixed.
    let run = |probe: &ColumnarSide<T>,
               build: &ColumnarSide<T>,
               probe_parts: Vec<Vec<u32>>,
               candidates: &(dyn Fn(usize) -> Vec<u32> + Sync),
               probe_left: bool| {
        let outputs = fan_out(probe_parts, workers, |ids| {
            let mut out: Vec<Tuple> = Vec::new();
            for pi in ids {
                let pset = probe.set(pi as usize);
                let psig = probe.sigs[pi as usize];
                for bi in candidates(pi as usize) {
                    let bset = build.set(bi as usize);
                    let bsig = build.sigs[bi as usize];
                    let may = match pred {
                        SetPredicate::Equals => psig == bsig,
                        _ => psig & !bsig == 0,
                    };
                    let holds = may
                        && if probe_left {
                            predicate_on(pred, pset, bset)
                        } else {
                            predicate_on(pred, bset, pset)
                        };
                    if holds {
                        let (a, c) = if probe_left {
                            (probe.key(pi as usize), build.key(bi as usize))
                        } else {
                            (build.key(bi as usize), probe.key(pi as usize))
                        };
                        out.push(Tuple::new(vec![a, c]));
                    }
                }
            }
            out
        });
        Relation::from_tuples(2, outputs.into_iter().flatten()).expect("binary output")
    };
    match pred {
        SetPredicate::Equals => {
            let part_of = |set: &[T]| (fx_hash_one(&set) % parts as u64) as usize;
            let mut s_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for g in 0..sside.ranges.len() {
                s_parts[part_of(sside.set(g))].push(g as u32);
            }
            let mut r_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for g in 0..rside.ranges.len() {
                r_parts[part_of(rside.set(g))].push(g as u32);
            }
            let candidates = |si: usize| r_parts[part_of(sside.set(si))].clone();
            run(&sside, &rside, s_parts, &candidates, false)
        }
        SetPredicate::Contains | SetPredicate::ContainedIn => {
            let (contained, containing, probe_left) = if pred == SetPredicate::Contains {
                (&sside, &rside, false)
            } else {
                (&rside, &sside, true)
            };
            // Postings over the containing side's dense elements; each
            // group's slice is strictly increasing, so no dedup needed.
            let mut postings: FxHashMap<T, Vec<u32>> = FxHashMap::default();
            for g in 0..containing.ranges.len() {
                for &v in containing.set(g) {
                    postings.entry(v).or_default().push(g as u32);
                }
            }
            let freq = |v: T| postings.get(&v).map_or(0, |p| p.len());
            let anchors: Vec<T> = (0..contained.ranges.len())
                .map(|g| {
                    contained
                        .set(g)
                        .iter()
                        .copied()
                        .min_by_key(|&v| (freq(v), v))
                        .expect("groups are nonempty")
                })
                .collect();
            let mut probe_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for (ix, &anchor) in anchors.iter().enumerate() {
                let p = (fx_hash_one(&anchor) % parts as u64) as usize;
                probe_parts[p].push(ix as u32);
            }
            let candidates = |pi: usize| postings.get(&anchors[pi]).cloned().unwrap_or_default();
            run(contained, containing, probe_parts, &candidates, probe_left)
        }
        SetPredicate::IntersectsNonempty => unreachable!("rejected by the dispatcher"),
    }
}

/// The row-wise partition-based set join: groups materialized as
/// `(key, Vec<Value>)`, signatures hashed per `Value` — the fallback
/// for mixed-variant element columns and the in-crate differential
/// baseline of the columnar path.
///
/// # Panics
///
/// On [`SetPredicate::IntersectsNonempty`], like the dispatching
/// [`parallel_signature_set_join`].
pub(crate) fn parallel_signature_set_join_rowwise(
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
    workers: usize,
) -> Relation {
    assert!(
        pred != SetPredicate::IntersectsNonempty,
        "partition-based set join: ∩≠∅ has no anchor element; use the equijoin reduction"
    );
    let workers = resolve_workers(workers);
    let rg = group_sets(r);
    let sg = group_sets(s);
    let rsig: Vec<u64> = rg.iter().map(|(_, vs)| signature(vs)).collect();
    let ssig: Vec<u64> = sg.iter().map(|(_, vs)| signature(vs)).collect();
    let parts = (workers * PSJ_FANOUT).min(rg.len().max(sg.len()).max(1));
    // Emit one output relation per partition; `(a, c)` column order is
    // fixed, so `probe_left` distinguishes whether the partitioned probe
    // side is R (⊆: R anchors into S's postings) or S (⊇ and =).
    let run = |probe: &[(Value, Vec<Value>)],
               probe_sigs: &[u64],
               probe_parts: Vec<Vec<u32>>,
               candidates: &(dyn Fn(usize) -> Vec<u32> + Sync),
               build: &[(Value, Vec<Value>)],
               build_sigs: &[u64],
               probe_left: bool| {
        let outputs = fan_out(probe_parts, workers, |ids| {
            let mut out: Vec<Tuple> = Vec::new();
            for pi in ids {
                let (pkey, pset) = &probe[pi as usize];
                let psig = probe_sigs[pi as usize];
                for bi in candidates(pi as usize) {
                    let (bkey, bset) = &build[bi as usize];
                    let bsig = build_sigs[bi as usize];
                    // The probe side is always the *contained* side for
                    // ⊇/⊆; for `=` the signatures must coincide.
                    let may = match pred {
                        SetPredicate::Equals => psig == bsig,
                        _ => psig & !bsig == 0,
                    };
                    let holds = may
                        && if probe_left {
                            predicate_holds_public(pred, pset, bset)
                        } else {
                            predicate_holds_public(pred, bset, pset)
                        };
                    if holds {
                        let (a, c) = if probe_left {
                            (pkey, bkey)
                        } else {
                            (bkey, pkey)
                        };
                        out.push(Tuple::new(vec![a.clone(), c.clone()]));
                    }
                }
            }
            out
        });
        // Each qualifying pair is found exactly once (a probe group
        // lives in one partition and probes one postings list), so the
        // merge is a flatten plus one canonicalization pass.
        Relation::from_tuples(2, outputs.into_iter().flatten()).expect("binary output")
    };
    match pred {
        SetPredicate::Equals => {
            // Partition both sides by a hash of the full (canonical)
            // value list: equal sets collide by construction.
            let part_of = |set: &[Value]| (fx_hash_one(&set) % parts as u64) as usize;
            let mut s_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for (ix, (_, set)) in sg.iter().enumerate() {
                s_parts[part_of(set)].push(ix as u32);
            }
            let mut r_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for (ix, (_, set)) in rg.iter().enumerate() {
                r_parts[part_of(set)].push(ix as u32);
            }
            let candidates = |si: usize| r_parts[part_of(&sg[si].1)].clone();
            run(&sg, &ssig, s_parts, &candidates, &rg, &rsig, false)
        }
        SetPredicate::Contains | SetPredicate::ContainedIn => {
            // Postings over the containing side; the contained side
            // probes with its least-frequent element as anchor.
            let (contained, contained_sigs, containing, containing_sigs, probe_left) =
                if pred == SetPredicate::Contains {
                    (&sg, &ssig, &rg, &rsig, false)
                } else {
                    (&rg, &rsig, &sg, &ssig, true)
                };
            let mut postings: FxHashMap<&Value, Vec<u32>> = FxHashMap::default();
            for (ix, (_, set)) in containing.iter().enumerate() {
                for v in set {
                    postings.entry(v).or_default().push(ix as u32);
                }
            }
            let freq = |v: &Value| postings.get(v).map_or(0, |p| p.len());
            // Anchor per probe group: its least frequent element; ties
            // break on the value itself (sets are sorted), keeping the
            // choice deterministic.
            let anchors: Vec<&Value> = contained
                .iter()
                .map(|(_, set)| {
                    set.iter()
                        .min_by_key(|v| (freq(v), *v))
                        .expect("groups are nonempty")
                })
                .collect();
            let mut probe_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for (ix, anchor) in anchors.iter().enumerate() {
                let p = (fx_hash_one(anchor) % parts as u64) as usize;
                probe_parts[p].push(ix as u32);
            }
            let candidates = |pi: usize| postings.get(anchors[pi]).cloned().unwrap_or_default();
            run(
                contained,
                contained_sigs,
                probe_parts,
                &candidates,
                containing,
                containing_sigs,
                probe_left,
            )
        }
        SetPredicate::IntersectsNonempty => unreachable!("rejected above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::division::{divide, nested_loop_division};
    use crate::setjoin::nested_loop_set_join;
    use sj_storage::Relation;

    fn workload() -> (Relation, Relation) {
        // 40 groups of 1–5 elements over a small domain: plenty of
        // containments, every partition populated.
        let rows: Vec<Vec<i64>> = (0..40)
            .flat_map(|g| (0..=(g % 5)).map(move |v| vec![g, (g * 7 + v * 3) % 11]))
            .collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let r = Relation::from_int_rows(&refs);
        let srows: Vec<Vec<i64>> = (0..30)
            .flat_map(|g| (0..=(g % 3)).map(move |v| vec![100 + g, (g * 5 + v) % 11]))
            .collect();
        let srefs: Vec<&[i64]> = srows.iter().map(|r| r.as_slice()).collect();
        (r, Relation::from_int_rows(&srefs))
    }

    #[test]
    fn parallel_division_matches_serial_at_every_worker_count() {
        let (r, _) = workload();
        let s = Relation::from_int_rows(&[&[0], &[3], &[7]]);
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let want = divide(&r, &s, sem);
            assert_eq!(want, nested_loop_division(&r, &s, sem), "oracle {sem:?}");
            for workers in [1, 2, 3, 4, 8] {
                assert_eq!(
                    parallel_hash_division(&r, &s, sem, workers),
                    want,
                    "{sem:?} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_set_join_matches_nested_loop_at_every_worker_count() {
        let (r, s) = workload();
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
        ] {
            let want = nested_loop_set_join(&r, &s, pred);
            for workers in [1, 2, 3, 4, 8] {
                assert_eq!(
                    parallel_signature_set_join(&r, &s, pred, workers),
                    want,
                    "{pred:?} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn columnar_parallel_matches_rowwise_on_every_column_shape() {
        // Int elements (columnar), string elements (joint-code
        // columnar), and mixed-variant elements (row fallback) — the
        // dispatcher must agree with the row-wise implementation and
        // the serial oracle on all of them, at every worker count.
        let (ints_r, ints_s) = workload();
        let strs_r = Relation::from_str_rows(&[
            &["An", "headache"],
            &["An", "sore throat"],
            &["Bob", "headache"],
            &["Bob", "memory loss"],
            &["Bob", "sore throat"],
            &["Carol", "headache"],
        ]);
        let strs_s = Relation::from_str_rows(&[
            &["flu", "headache"],
            &["flu", "sore throat"],
            &["Lyme", "headache"],
            &["Lyme", "memory loss"],
            &["Lyme", "sore throat"],
        ]);
        let mixed_r = Relation::from_tuples(
            2,
            vec![
                sj_storage::tuple![1, 7],
                sj_storage::tuple![1, "x"],
                sj_storage::tuple![2, 7],
                sj_storage::tuple![3, "x"],
            ],
        )
        .unwrap();
        let mixed_s = Relation::from_tuples(
            2,
            vec![
                sj_storage::tuple![10, 7],
                sj_storage::tuple![10, "x"],
                sj_storage::tuple![11, 7],
            ],
        )
        .unwrap();
        for (name, r, s) in [
            ("ints", &ints_r, &ints_s),
            ("strings", &strs_r, &strs_s),
            ("mixed", &mixed_r, &mixed_s),
        ] {
            for pred in [
                SetPredicate::Contains,
                SetPredicate::ContainedIn,
                SetPredicate::Equals,
            ] {
                let want = nested_loop_set_join(r, s, pred);
                for workers in [1, 2, 4, 8] {
                    assert_eq!(
                        parallel_signature_set_join(r, s, pred, workers),
                        want,
                        "{name} {pred:?} at {workers} workers"
                    );
                    assert_eq!(
                        parallel_signature_set_join_rowwise(r, s, pred, workers),
                        want,
                        "rowwise {name} {pred:?} at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_operators_handle_empty_inputs() {
        let e = Relation::empty(2);
        let s1 = Relation::empty(1);
        assert!(parallel_hash_division(&e, &s1, DivisionSemantics::Containment, 4).is_empty());
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
        ] {
            assert!(parallel_signature_set_join(&e, &e, pred, 4).is_empty());
            let (r, s) = workload();
            assert_eq!(
                parallel_signature_set_join(&r, &e, pred, 4),
                nested_loop_set_join(&r, &e, pred)
            );
            assert_eq!(
                parallel_signature_set_join(&e, &s, pred, 4),
                nested_loop_set_join(&e, &s, pred)
            );
        }
        // Empty divisor: R ÷ ∅ = π_A(R) under containment.
        let r = Relation::from_int_rows(&[&[1, 7], &[2, 8]]);
        assert_eq!(
            parallel_hash_division(&r, &s1, DivisionSemantics::Containment, 4),
            divide(&r, &s1, DivisionSemantics::Containment)
        );
    }

    #[test]
    #[should_panic(expected = "no anchor element")]
    fn parallel_set_join_rejects_intersection() {
        let (r, s) = workload();
        parallel_signature_set_join(&r, &s, SetPredicate::IntersectsNonempty, 2);
    }

    #[test]
    fn group_aligned_chunks_never_split_a_group() {
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i % 9, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let r = Relation::from_int_rows(&refs);
        for n in [1usize, 2, 3, 4, 8, 200] {
            let chunks = group_aligned_chunks(r.tuples(), n);
            assert!(chunks.len() <= n.max(1));
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, r.len(), "chunks cover the input at n = {n}");
            for w in chunks.windows(2) {
                assert_ne!(
                    w[0].last().unwrap()[0],
                    w[1].first().unwrap()[0],
                    "group split across chunks at n = {n}"
                );
            }
        }
        assert!(group_aligned_chunks(&[], 4).is_empty());
    }

    #[test]
    fn fan_out_preserves_partition_order() {
        let parts: Vec<usize> = (0..37).collect();
        for workers in [1, 2, 5, 8] {
            let out = fan_out(parts.clone(), workers, |i| i * 10);
            assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn resolve_workers_zero_means_host_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
        // Absurd explicit counts clamp instead of exploding into an
        // equal number of OS threads.
        assert_eq!(resolve_workers(100_000), MAX_WORKERS);
    }
}
