//! The bucketed expression cache underlying the serving cache.
//!
//! Entries are keyed by [`Expr::structural_hash`] and confirmed with a
//! **full-expression equality check**: two distinct expressions that
//! land in one hash bucket coexist as separate slots, so a hash
//! collision degrades to an ordinary miss — it can never surface a
//! wrong entry. The hash function is pluggable
//! ([`ExprCache::with_hasher`]) precisely so tests can force every
//! expression into a single bucket and pin that property.
//!
//! Eviction is least-recently-used: when the cache is at capacity, the
//! slot with the oldest access tick makes room. The scan is linear in
//! the entry count, which is bounded by the (small) configured
//! capacity.

use sj_algebra::Expr;
use sj_storage::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The keying function: maps an expression to its bucket.
pub type ExprHashFn = fn(&Expr) -> u64;

fn structural_hash(expr: &Expr) -> u64 {
    expr.structural_hash()
}

struct Slot<V> {
    expr: Expr,
    value: V,
    last_used: u64,
}

/// A thread-safe expression-keyed cache (see the module docs). `V` is
/// the cached payload: the server keeps one shared entry per
/// expression, holding its plan and its answer.
pub struct ExprCache<V> {
    buckets: Mutex<FxHashMap<u64, Vec<Slot<V>>>>,
    hasher: ExprHashFn,
    capacity: usize,
    tick: AtomicU64,
}

impl<V: Clone> ExprCache<V> {
    /// A cache holding at most `capacity` entries, keyed by
    /// [`Expr::structural_hash`].
    pub fn new(capacity: usize) -> ExprCache<V> {
        ExprCache::with_hasher(capacity, structural_hash)
    }

    /// A cache with a custom bucket function — the test hook for
    /// forcing hash collisions (e.g. `|_| 0` puts every expression in
    /// one bucket).
    pub fn with_hasher(capacity: usize, hasher: ExprHashFn) -> ExprCache<V> {
        ExprCache {
            buckets: Mutex::new(FxHashMap::default()),
            hasher,
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
        }
    }

    /// The cached value for `expr`, if present. A bucket hit is
    /// confirmed by full `Expr` equality before anything is returned.
    pub fn get(&self, expr: &Expr) -> Option<V> {
        let hash = (self.hasher)(expr);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut buckets = self.buckets.lock().expect("cache poisoned");
        let slot = buckets
            .get_mut(&hash)?
            .iter_mut()
            .find(|s| &s.expr == expr)?;
        slot.last_used = tick;
        Some(slot.value.clone())
    }

    /// Insert (or replace) the entry for `expr`, evicting the
    /// least-recently-used slot when at capacity.
    pub fn insert(&self, expr: Expr, value: V) {
        let hash = (self.hasher)(&expr);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut buckets = self.buckets.lock().expect("cache poisoned");
        if let Some(slot) = buckets
            .get_mut(&hash)
            .and_then(|b| b.iter_mut().find(|s| s.expr == expr))
        {
            slot.value = value;
            slot.last_used = tick;
            return;
        }
        let len: usize = buckets.values().map(Vec::len).sum();
        if len >= self.capacity {
            // Evict the least-recently-used slot across all buckets.
            if let Some((&h, _)) = buckets
                .iter()
                .filter(|(_, b)| !b.is_empty())
                .min_by_key(|(_, b)| b.iter().map(|s| s.last_used).min().unwrap_or(u64::MAX))
            {
                let bucket = buckets.get_mut(&h).expect("bucket exists");
                let oldest = bucket
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(i, _)| i)
                    .expect("non-empty bucket");
                bucket.swap_remove(oldest);
                if bucket.is_empty() {
                    buckets.remove(&h);
                }
            }
        }
        buckets.entry(hash).or_default().push(Slot {
            expr,
            value,
            last_used: tick,
        });
    }

    /// Drop every entry for which `keep` returns false — the eager
    /// per-relation sweep after a write. `keep` may update the entries it
    /// keeps (the server marks the answers an insert leaves
    /// patchable).
    pub fn retain(&self, mut keep: impl FnMut(&Expr, &mut V) -> bool) {
        let mut buckets = self.buckets.lock().expect("cache poisoned");
        for bucket in buckets.values_mut() {
            bucket.retain_mut(|s| keep(&s.expr, &mut s.value));
        }
        buckets.retain(|_, b| !b.is_empty());
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.buckets
            .lock()
            .expect("cache poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// True iff the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.buckets.lock().expect("cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exprs() -> (Expr, Expr, Expr) {
        (
            Expr::rel("R").project([1]),
            Expr::rel("S").project([2]),
            Expr::rel("T"),
        )
    }

    #[test]
    fn hit_requires_full_equality() {
        let cache: ExprCache<i32> = ExprCache::new(8);
        let (a, b, c) = exprs();
        cache.insert(a.clone(), 1);
        assert_eq!(cache.get(&a), Some(1));
        assert_eq!(cache.get(&b), None);
        assert_eq!(cache.get(&c), None);
    }

    /// The regression pinned by the hardening satellite: two distinct
    /// expressions forced into one bucket must behave exactly like two
    /// entries under different hashes — never cross-contaminate, never
    /// produce each other's values. A genuine `structural_hash`
    /// collision therefore degrades to a miss, not a wrong result.
    #[test]
    fn forced_hash_collisions_degrade_to_misses_never_wrong_entries() {
        let cache: ExprCache<&str> = ExprCache::with_hasher(8, |_| 42);
        let (a, b, c) = exprs();
        cache.insert(a.clone(), "a-result");
        cache.insert(b.clone(), "b-result");
        // Same bucket, disambiguated by full equality.
        assert_eq!(cache.get(&a), Some("a-result"));
        assert_eq!(cache.get(&b), Some("b-result"));
        // A third expression hashing into the same bucket is a miss.
        assert_eq!(cache.get(&c), None);
        // Replacement targets exactly the equal expression.
        cache.insert(a.clone(), "a-new");
        assert_eq!(cache.get(&a), Some("a-new"));
        assert_eq!(cache.get(&b), Some("b-result"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache: ExprCache<i32> = ExprCache::new(2);
        let (a, b, c) = exprs();
        cache.insert(a.clone(), 1);
        cache.insert(b.clone(), 2);
        // Touch `a` so `b` is the least recently used.
        assert_eq!(cache.get(&a), Some(1));
        cache.insert(c.clone(), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&a), Some(1), "recently used survives");
        assert_eq!(cache.get(&b), None, "LRU slot evicted");
        assert_eq!(cache.get(&c), Some(3));
    }

    #[test]
    fn retain_sweeps_matching_entries() {
        let cache: ExprCache<i32> = ExprCache::with_hasher(8, |_| 7);
        let (a, b, c) = exprs();
        cache.insert(a.clone(), 1);
        cache.insert(b.clone(), 2);
        cache.insert(c.clone(), 3);
        cache.retain(|_, v| *v != 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&b), None);
        assert_eq!(cache.get(&a), Some(1));
        cache.clear();
        assert!(cache.is_empty());
    }
}
