//! Partition-parallel division and set joins.
//!
//! The serial algorithms of [`crate::division`] and [`crate::setjoin`]
//! each run as one pass over monolithic inputs. This module re-expresses
//! them as **partitioned build/probe**: the build side becomes one
//! shared read-only index, the probe side is split into disjoint
//! partitions that fan out over `std::thread::scope` workers, and the
//! per-partition outputs merge back in canonical order. Both operators
//! read the dense operand view of [`crate::columnar`], and a partition is
//! a list of its group indices — a division cuts group-aligned ranges of
//! the dividend's column, a set join lists the probe groups of one
//! anchor hash — so no tuple is ever cloned into a partition and the
//! partitioned pass costs no more than the serial one even at one
//! worker. Three distinct wins follow:
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
//! * **Dense partition kernels.** The per-partition divisor probes,
//!   signature tests and verification merges run over integer slices
//!   whatever the cells hold — so the parallelism and the vectorization compound instead of
//!   excluding each other, the same composition `sj-eval`'s kernel layer
//!   gives the planned query path.
//!
//! Determinism: partition placement is a pure function of the input,
//! workers only produce their own partition's output, and every merge
//! re-establishes the canonical order — so for any worker count the
//! output is byte-identical to the serial algorithms (property-tested in
//! `tests/parallel.rs`).

use crate::columnar::{emit, Operand, Signed};
use crate::division::{counted, hash_division, DivisionSemantics};
use crate::setjoin::{intersect_join_via_equijoin, SetPredicate};
use sj_storage::hash::fx_hash_one;
use sj_storage::{FxHashMap, FxHashSet, Relation};

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

/// Partition-parallel hash-division. The divisor becomes one shared
/// hash set of codes (the build side, built once); the dividend's groups
/// are cut into group-aligned contiguous ranges of its column
/// (`Operand::chunks`) whose probe passes fan out over the workers.
/// Each worker counts, per A-group, the B-values hitting the divisor —
/// Graefe's hash-division with the bitmap replaced by a per-group
/// counter, which set semantics make sufficient (no B repeats within a
/// group). Per-range quotients are ascending group indices and the
/// ranges are disjoint and increasing, so the merge is a concatenation.
/// One worker runs [`hash_division`].
pub fn parallel_hash_division(
    r: &Relation,
    s: &Relation,
    sem: DivisionSemantics,
    workers: usize,
) -> Relation {
    let workers = resolve_workers(workers);
    if workers <= 1 {
        return hash_division(r, s, sem);
    }
    let (dividend, divisor) = Operand::dividend(r, s);
    let divisor: FxHashSet<i64> = divisor.iter().copied().collect();
    let outputs = fan_out(dividend.chunks(workers), workers, |groups| {
        groups
            .filter(|&g| counted(dividend.set(g), &divisor, sem))
            .collect::<Vec<usize>>()
    });
    dividend.quotient(outputs.into_iter().flatten())
}

/// How many probe partitions the partition-based set join fans a worker
/// count out to. More partitions smooth out anchor skew across the
/// round-robin worker lanes; 16 per worker keeps the per-partition merge
/// negligible.
const PSJ_FANOUT: usize = 16;

/// Partition-based signature set join.
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
/// For `=` the key is a hash of the group's full element slice instead
/// (equal sets collide by construction) and nothing is replicated.
///
/// `∩ ≠ ∅` has no anchor element (any shared element qualifies) and is
/// already an ordinary equijoin, so it is answered by
/// [`intersect_join_via_equijoin`] on the same operand view — the
/// function is total over [`SetPredicate`]. (The registry entry still
/// declares `⊇ / ⊆ / =` only: for `∩ ≠ ∅` this *is* `equijoin-intersect`.)
///
/// Output is byte-identical to the serial algorithms at every worker
/// count.
pub fn parallel_signature_set_join(
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
    workers: usize,
) -> Relation {
    if pred == SetPredicate::IntersectsNonempty {
        return intersect_join_via_equijoin(r, s);
    }
    let workers = resolve_workers(workers);
    let x = Signed::new(r, s, pred, 1);
    // The partitioned probe side is the contained one: R for ⊆, S for ⊇
    // (and, by convention, for =).
    let probe_left = pred == SetPredicate::ContainedIn;
    let (probe, build) = if probe_left {
        (&x.r, &x.s)
    } else {
        (&x.s, &x.r)
    };
    // One key per probe group, and the build groups filed under each
    // key: a probe group's candidates are exactly `table[its key]`.
    let (keys, table): (Vec<i64>, FxHashMap<i64, Vec<u32>>) = if pred == SetPredicate::Equals {
        let key = |set: &[i64]| fx_hash_one(&set) as i64;
        let mut table: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
        for g in 0..build.len() {
            table.entry(key(build.set(g))).or_default().push(g as u32);
        }
        ((0..probe.len()).map(|g| key(probe.set(g))).collect(), table)
    } else {
        // Anchor per probe group: its least frequent element in the
        // build side's postings; ties break on the element itself,
        // keeping the choice deterministic.
        let postings = build.postings();
        let freq = |v: i64| postings.get(&v).map_or(0, |p| p.len());
        let anchors = (0..probe.len())
            .map(|g| {
                let set = probe.set(g).iter().copied();
                set.min_by_key(|&v| (freq(v), v))
                    .expect("groups are nonempty")
            })
            .collect();
        (anchors, postings)
    };
    let parts = (workers * PSJ_FANOUT).min(probe.len().max(build.len()).max(1));
    let mut probe_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (g, key) in keys.iter().enumerate() {
        probe_parts[(fx_hash_one(key) % parts as u64) as usize].push(g as u32);
    }
    let outputs = fan_out(probe_parts, workers, |ids| {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for p in ids {
            for &b in table.get(&keys[p as usize]).map_or(&[][..], Vec::as_slice) {
                let (gr, gs) = if probe_left { (p, b) } else { (b, p) };
                if x.holds(gr as usize, gs as usize) {
                    out.push((gr, gs));
                }
            }
        }
        out
    });
    // Each qualifying pair is found exactly once (a probe group lives in
    // one partition and probes one candidate list).
    emit(&x.r, &x.s, outputs.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::division::nested_loop_division;
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
            let want = hash_division(&r, &s, sem);
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
            nested_loop_division(&r, &s1, DivisionSemantics::Containment)
        );
    }

    /// `∩ ≠ ∅` has no anchor element; the function answers it by the
    /// equijoin reduction instead of panicking.
    #[test]
    fn parallel_set_join_is_total_over_the_predicates() {
        let (r, s) = workload();
        let want = nested_loop_set_join(&r, &s, SetPredicate::IntersectsNonempty);
        assert!(!want.is_empty());
        for workers in [1, 2, 3] {
            assert_eq!(
                parallel_signature_set_join(&r, &s, SetPredicate::IntersectsNonempty, workers),
                want,
                "{workers} workers"
            );
        }
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
