//! Set-semantics relations.

use crate::column::Columns;
use crate::error::StorageError;
use crate::hash::FxHasher;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A finite **set** of tuples of a fixed arity.
///
/// The paper's relations are sets (its Definition 15 measures size as
/// *cardinality*), so `Relation` maintains a canonical representation:
/// tuples are kept sorted and deduplicated at all times. Consequently
///
/// * structural equality (`==`) is set equality,
/// * membership is a binary search,
/// * iteration order is deterministic (lexicographic),
/// * the set operators union / difference / intersection are linear merges.
///
/// An arity-0 relation is either empty (`{}`, "false") or contains the empty
/// tuple (`{()}`, "true"); both are representable and behave correctly under
/// the set operations.
///
/// Alongside the canonical row representation the relation carries a
/// lazily built, cached **columnar view** ([`Relation::columns`]) used by
/// the vectorized operators in `sj-eval`; the cache is derived state — it
/// never participates in equality or hashing and is invalidated by the
/// mutating operations.
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    /// Sorted, deduplicated.
    tuples: Vec<Tuple>,
    /// Columnar image of `tuples`, built on first use. Derived state:
    /// excluded from `PartialEq`/`Hash`, reset by `insert`/`remove`.
    cols: OnceLock<Arc<Columns>>,
}

/// Set equality on (arity, tuples); the columnar cache is derived state.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl Hash for Relation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.arity.hash(state);
        self.tuples.hash(state);
    }
}

impl Relation {
    /// Internal constructor for tuples already known to be canonical.
    #[inline]
    fn raw(arity: usize, tuples: Vec<Tuple>) -> Self {
        Relation {
            arity,
            tuples,
            cols: OnceLock::new(),
        }
    }

    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation::raw(arity, Vec::new())
    }

    /// Build a relation from tuples, canonicalizing (sort + dedup).
    ///
    /// Returns an error if some tuple has the wrong arity.
    pub fn from_tuples(
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> crate::Result<Self> {
        // Collected in place where the source allows it (a `Vec<Tuple>`,
        // or a map over one), and otherwise sized from the iterator's
        // hint, so the rows are not copied into a second, doubling buffer.
        let mut v: Vec<Tuple> = tuples.into_iter().collect();
        if let Some(t) = v.iter().find(|t| t.arity() != arity) {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                found: t.arity(),
            });
        }
        v.sort_unstable();
        v.dedup();
        // Dedup can leave most of the buffer unused (a projection of n
        // rows onto a few distinct keys), every page of it touched; a
        // relation that outlives its query — a served or cached answer —
        // would pin all of it.
        v.shrink_to_fit();
        Ok(Relation::raw(arity, v))
    }

    /// Build a relation from tuples **already in canonical order**
    /// (strictly increasing, hence deduplicated) without re-sorting.
    ///
    /// The physical operators in `sj-eval` produce their output in
    /// canonical order; this constructor lets them skip the
    /// `O(n log n)` canonicalization of [`Relation::from_tuples`]. The
    /// order claim is verified with a linear scan: input that is *not*
    /// strictly increasing is canonicalized (sorted + deduplicated)
    /// instead of silently breaking the representation invariant — the
    /// constructor is total, misuse merely forfeits the fast path. Arity
    /// agreement is debug-checked like the other trusted paths.
    pub fn from_sorted_tuples(arity: usize, mut tuples: Vec<Tuple>) -> Self {
        debug_assert!(
            tuples.iter().all(|t| t.arity() == arity),
            "from_sorted_tuples: arity mismatch"
        );
        if !tuples.windows(2).all(|w| w[0] < w[1]) {
            tuples.sort_unstable();
            tuples.dedup();
        }
        Relation::raw(arity, tuples)
    }

    /// Build from rows of integers; arity inferred from the first row
    /// (0 rows ⇒ use [`Relation::empty`]). Panics on ragged rows — intended
    /// for tests and the paper-figure constants.
    pub fn from_int_rows(rows: &[&[i64]]) -> Self {
        let arity = rows.first().map_or(0, |r| r.len());
        Relation::from_tuples(arity, rows.iter().map(|r| Tuple::from_ints(r)))
            .expect("ragged integer rows")
    }

    /// Build from rows of strings; arity inferred from the first row.
    /// Panics on ragged rows — intended for tests and paper-figure constants.
    pub fn from_str_rows(rows: &[&[&str]]) -> Self {
        let arity = rows.first().map_or(0, |r| r.len());
        Relation::from_tuples(arity, rows.iter().map(|r| Tuple::from_strs(r)))
            .expect("ragged string rows")
    }

    /// Build an arity-1 relation out of single values.
    pub fn unary(values: impl IntoIterator<Item = Value>) -> Self {
        Relation::from_tuples(1, values.into_iter().map(|v| Tuple::from([v])))
            .expect("unary tuples always have arity 1")
    }

    /// The relation's arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Cardinality — the paper's notion of relation *size* (Definition 15).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Set membership (binary search over the canonical order).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.binary_search(t).is_ok()
    }

    /// The rows keyed by `key` — first column equal to it — as a range of
    /// [`Relation::tuples`]: they are contiguous in the canonical order,
    /// found by binary search. The one "rows keyed by v" lookup: the
    /// keyed splices below and the multiway join's runs share it. The
    /// relation must have a first column.
    pub fn key_range(&self, key: &Value) -> std::ops::Range<usize> {
        debug_assert!(self.arity >= 1, "key_range: no first column");
        let start = self.tuples.partition_point(|t| t[0] < *key);
        let len = self.tuples[start..].partition_point(|t| t[0] == *key);
        start..start + len
    }

    /// The rows whose first column is one of `keys` (sorted,
    /// deduplicated): `σ₁∈keys(self)`, one binary search per key, in
    /// canonical order without re-sorting. The relation must have a
    /// first column.
    pub fn keyed_rows(&self, keys: &[Value]) -> Relation {
        debug_assert!(self.arity >= 1, "keyed_rows: no first column");
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not sorted");
        let mut out = Vec::new();
        for key in keys {
            out.extend_from_slice(&self.tuples[self.key_range(key)]);
        }
        Relation::raw(self.arity, out)
    }

    /// `self` with the rows keyed by `keys` (sorted, deduplicated)
    /// replaced by `rows`, whose first columns must all lie in `keys`:
    /// `(self − σ₁∈keys(self)) ∪ rows` in one linear pass: each key's
    /// new rows take the place of its old ones in the canonical order.
    /// When the keyed rows already are `rows`, nothing is copied and the
    /// result is `self`'s own `Arc`.
    pub fn splice_keyed(self: &Arc<Self>, keys: &[Value], rows: &Relation) -> Arc<Relation> {
        debug_assert_eq!(self.arity, rows.arity, "splice_keyed: arity mismatch");
        debug_assert!(
            rows.iter().all(|t| keys.binary_search(&t[0]).is_ok()),
            "splice_keyed: a row outside the keys"
        );
        let ranges: Vec<_> = keys.iter().map(|k| self.key_range(k)).collect();
        let replaced = ranges.iter().flat_map(|r| &self.tuples[r.clone()]);
        if replaced.eq(rows.iter()) {
            return self.clone();
        }
        let mut out = Vec::with_capacity(self.len() + rows.len());
        let (mut from, mut new) = (0, rows.tuples.as_slice());
        for (key, r) in keys.iter().zip(&ranges) {
            out.extend_from_slice(&self.tuples[from..r.start]);
            let n = new.partition_point(|t| t[0] == *key);
            out.extend_from_slice(&new[..n]);
            new = &new[n..];
            from = r.end;
        }
        out.extend_from_slice(&self.tuples[from..]);
        Arc::new(Relation::raw(self.arity, out))
    }

    /// Insert a tuple, keeping the canonical order. Returns `true` if the
    /// tuple was new. Errors on arity mismatch.
    pub fn insert(&mut self, t: Tuple) -> crate::Result<bool> {
        if t.arity() != self.arity {
            return Err(StorageError::ArityMismatch {
                expected: self.arity,
                found: t.arity(),
            });
        }
        match self.tuples.binary_search(&t) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.tuples.insert(pos, t);
                self.cols.take();
                Ok(true)
            }
        }
    }

    /// Remove a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        match self.tuples.binary_search(t) {
            Ok(pos) => {
                self.tuples.remove(pos);
                self.cols.take();
                true
            }
            Err(_) => false,
        }
    }

    /// The columnar view of the relation (see [`crate::column`]): typed
    /// per-column vectors over the same rows, in the same canonical
    /// order. Built lazily on first use and cached; `insert`/`remove`
    /// invalidate the cache. Row `i` of the columns is tuple `i` of
    /// [`Relation::tuples`]. A clone of the relation shares the built
    /// view.
    #[inline]
    pub fn columns(&self) -> &Columns {
        self.cols
            .get_or_init(|| Arc::new(Columns::from_tuples(self.arity, &self.tuples)))
    }

    /// Iterate tuples in canonical (sorted) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The tuples as a slice (sorted, deduplicated).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Take the tuples out, in canonical order, without copying them.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Set union (arity must match). Linear merge of the two sorted runs.
    pub fn union(&self, other: &Relation) -> crate::Result<Relation> {
        self.check_same_arity(other)?;
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.tuples.len() && j < other.tuples.len() {
            match self.tuples[i].cmp(&other.tuples[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.tuples[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.tuples[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.tuples[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.tuples[i..]);
        out.extend_from_slice(&other.tuples[j..]);
        Ok(Relation::raw(self.arity, out))
    }

    /// Set difference `self − other` (arity must match).
    pub fn difference(&self, other: &Relation) -> crate::Result<Relation> {
        self.check_same_arity(other)?;
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.tuples.len() {
            if j >= other.tuples.len() {
                out.extend_from_slice(&self.tuples[i..]);
                break;
            }
            match self.tuples[i].cmp(&other.tuples[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.tuples[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok(Relation::raw(self.arity, out))
    }

    /// Set intersection (arity must match).
    pub fn intersection(&self, other: &Relation) -> crate::Result<Relation> {
        self.check_same_arity(other)?;
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.tuples.len() && j < other.tuples.len() {
            match self.tuples[i].cmp(&other.tuples[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.tuples[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok(Relation::raw(self.arity, out))
    }

    /// The hash-partition index of a tuple under a key of 0-based
    /// `cols` and `n` partitions — the single source of truth for
    /// [`Relation::partition_by_hash`], exposed so operators and tests
    /// can predict placement. With `cols` empty every tuple lands in
    /// partition 0. `n = 0` is treated as one partition.
    pub fn partition_of(t: &Tuple, cols: &[usize], n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let mut h = FxHasher::default();
        for &c in cols {
            t[c].hash(&mut h);
        }
        (h.finish() % n as u64) as usize
    }

    /// Split the relation into `n` disjoint hash partitions keyed on the
    /// 0-based `cols`: every tuple goes to exactly one partition
    /// ([`Relation::partition_of`]), so equal keys always co-locate and
    /// the union of the partitions round-trips to the input.
    ///
    /// Tuples are visited in canonical order, so each partition is a
    /// strictly increasing subsequence and inherits the canonical
    /// representation without re-sorting. Per-partition results can be
    /// merged back without global re-deduplication (keys never span
    /// partitions). No engine path calls this: `sj-eval`'s kernels run
    /// each operator over its whole operands on the calling thread.
    pub fn partition_by_hash(&self, cols: &[usize], n: usize) -> Vec<Relation> {
        let n = n.max(1);
        debug_assert!(
            cols.iter().all(|&c| c < self.arity),
            "partition_by_hash: key column out of range"
        );
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        if n > 1 {
            for t in &self.tuples {
                parts[Self::partition_of(t, cols, n)].push(t.clone());
            }
        } else {
            parts[0] = self.tuples.clone();
        }
        parts
            .into_iter()
            .map(|p| Relation::raw(self.arity, p))
            .collect()
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.tuples.iter().all(|t| other.contains(t))
    }

    /// All values occurring anywhere in the relation, sorted, deduplicated.
    pub fn active_domain(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self.tuples.iter().flat_map(|t| t.iter().cloned()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn check_same_arity(&self, other: &Relation) -> crate::Result<()> {
        if self.arity != other.arity {
            return Err(StorageError::ArityMismatch {
                expected: self.arity,
                found: other.arity,
            });
        }
        Ok(())
    }
}

/// The boundary check behind every `u32` row index (hash-partition index
/// lists, hash-table postings, semijoin survivor lists). A relation of
/// `rows` tuples uses positions `0..rows`, and bookkeeping also stores
/// `rows` itself as a `u32`, so the safe capacity is `u32::MAX` **rows** —
/// not the `u32::MAX + 1` that position indexing alone would allow.
/// Anything larger gets a typed [`StorageError::RelationTooLarge`], which
/// callers return as an input condition (the `sj-eval` planner does,
/// before it runs a plan) rather than truncating with `as u32`.
pub fn ensure_u32_indexable(rows: usize) -> crate::Result<()> {
    if rows > u32::MAX as usize {
        return Err(StorageError::RelationTooLarge { rows });
    }
    Ok(())
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(arity={}, {{", self.arity)?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, "}})")
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r(rows: &[&[i64]]) -> Relation {
        Relation::from_int_rows(rows)
    }

    #[test]
    fn canonicalization_dedups_and_sorts() {
        let a = r(&[&[2, 1], &[1, 2], &[2, 1]]);
        assert_eq!(a.len(), 2);
        let tuples: Vec<_> = a.iter().cloned().collect();
        assert_eq!(
            tuples,
            vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[2, 1])]
        );
    }

    #[test]
    fn set_equality_ignores_input_order() {
        assert_eq!(r(&[&[1], &[2]]), r(&[&[2], &[1]]));
    }

    #[test]
    fn from_tuples_drops_the_capacity_dedup_freed() {
        let r = Relation::from_tuples(1, (0..4096).map(|i| Tuple::from_ints(&[i % 4]))).unwrap();
        assert_eq!(r.len(), 4);
        assert!(r.tuples.capacity() < 64, "{}", r.tuples.capacity());
    }

    #[test]
    fn from_sorted_tuples_trusts_sorted_and_repairs_unsorted() {
        let sorted = vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[2, 1])];
        let a = Relation::from_sorted_tuples(2, sorted);
        assert_eq!(a, r(&[&[1, 2], &[2, 1]]));
        // Unsorted / duplicated input is canonicalized, not trusted.
        let unsorted = vec![
            Tuple::from_ints(&[2, 1]),
            Tuple::from_ints(&[1, 2]),
            Tuple::from_ints(&[2, 1]),
        ];
        let b = Relation::from_sorted_tuples(2, unsorted);
        assert_eq!(b, a);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn arity_checked_on_build_and_insert() {
        let e = Relation::from_tuples(2, vec![Tuple::from_ints(&[1])]);
        assert!(matches!(
            e,
            Err(StorageError::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
        let mut a = Relation::empty(1);
        assert!(a.insert(Tuple::from_ints(&[1, 2])).is_err());
    }

    #[test]
    fn insert_remove_contains() {
        let mut a = Relation::empty(2);
        assert!(a.insert(tuple![1, 2]).unwrap());
        assert!(!a.insert(tuple![1, 2]).unwrap());
        assert!(a.contains(&tuple![1, 2]));
        assert!(!a.contains(&tuple![2, 1]));
        assert!(a.remove(&tuple![1, 2]));
        assert!(!a.remove(&tuple![1, 2]));
        assert!(a.is_empty());
    }

    #[test]
    fn union_difference_intersection() {
        let a = r(&[&[1], &[2], &[3]]);
        let b = r(&[&[2], &[4]]);
        assert_eq!(a.union(&b).unwrap(), r(&[&[1], &[2], &[3], &[4]]));
        assert_eq!(a.difference(&b).unwrap(), r(&[&[1], &[3]]));
        assert_eq!(a.intersection(&b).unwrap(), r(&[&[2]]));
        assert_eq!(b.difference(&a).unwrap(), r(&[&[4]]));
    }

    #[test]
    fn set_ops_reject_arity_mismatch() {
        let a = Relation::empty(1);
        let b = Relation::empty(2);
        assert!(a.union(&b).is_err());
        assert!(a.difference(&b).is_err());
        assert!(a.intersection(&b).is_err());
    }

    #[test]
    fn subset() {
        let a = r(&[&[1], &[2]]);
        let b = r(&[&[1], &[2], &[3]]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(Relation::empty(1).is_subset_of(&a));
        assert!(!Relation::empty(2).is_subset_of(&a));
    }

    #[test]
    fn nullary_relations() {
        let f = Relation::empty(0);
        let t = Relation::from_tuples(0, vec![Tuple::empty()]).unwrap();
        assert_eq!(f.len(), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.union(&f).unwrap(), t);
        assert_eq!(t.difference(&t).unwrap(), f);
    }

    #[test]
    fn active_domain_sorted() {
        let a = r(&[&[3, 1], &[2, 3]]);
        assert_eq!(
            a.active_domain(),
            vec![Value::int(1), Value::int(2), Value::int(3)]
        );
    }

    #[test]
    fn unary_builder() {
        let a = Relation::unary(vec![Value::int(7), Value::int(8), Value::int(7)]);
        assert_eq!(a, r(&[&[7], &[8]]));
    }

    #[test]
    fn partition_by_hash_is_a_disjoint_cover() {
        let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 37, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Relation::from_int_rows(&refs);
        for n in [1usize, 2, 3, 4, 8] {
            let parts = a.partition_by_hash(&[0], n);
            assert_eq!(parts.len(), n);
            // Arity preserved, disjoint, union round-trips to the input.
            let mut union = Relation::empty(a.arity());
            let mut total = 0;
            for p in &parts {
                assert_eq!(p.arity(), a.arity());
                assert!(p.intersection(&union).unwrap().is_empty(), "n = {n}");
                union = union.union(p).unwrap();
                total += p.len();
            }
            assert_eq!(total, a.len(), "partitions are disjoint at n = {n}");
            assert_eq!(union, a, "partitions cover the input at n = {n}");
        }
    }

    #[test]
    fn partition_by_hash_keeps_equal_keys_together() {
        let rows: Vec<Vec<i64>> = (0..120).map(|i| vec![i % 10, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Relation::from_int_rows(&refs);
        let n = 4;
        let parts = a.partition_by_hash(&[0], n);
        for (pi, p) in parts.iter().enumerate() {
            for t in p {
                assert_eq!(
                    Relation::partition_of(t, &[0], n),
                    pi,
                    "tuple {t:?} in the wrong partition"
                );
            }
        }
        // Same key ⇒ same partition: each of the 10 keys appears in
        // exactly one partition.
        for key in 0..10i64 {
            let holding = parts
                .iter()
                .filter(|p| p.iter().any(|t| t[0] == Value::int(key)))
                .count();
            assert_eq!(holding, 1, "key {key} spans partitions");
        }
        // Each partition is itself canonical (strictly increasing).
        for p in &parts {
            assert!(p.tuples().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn partition_by_hash_empty_key_and_empty_input() {
        let a = r(&[&[1, 2], &[3, 4]]);
        // Empty key: every tuple hashes alike — all land in partition 0.
        let parts = a.partition_by_hash(&[], 3);
        assert_eq!(parts[0], a);
        assert!(parts[1].is_empty() && parts[2].is_empty());
        // Empty input: n empty partitions of the right arity.
        let parts = Relation::empty(2).partition_by_hash(&[0, 1], 4);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.is_empty() && p.arity() == 2));
    }

    #[test]
    fn str_rows() {
        let a = Relation::from_str_rows(&[&["an", "headache"], &["bob", "sore throat"]]);
        assert_eq!(a.arity(), 2);
        assert!(a.contains(&tuple!["an", "headache"]));
    }

    #[test]
    fn u32_index_boundary_arithmetic() {
        // The capacity is u32::MAX rows exactly: the largest admissible
        // relation has positions 0..u32::MAX (last position u32::MAX − 1)
        // and a representable `len as u32`.
        assert!(ensure_u32_indexable(0).is_ok());
        assert!(ensure_u32_indexable(u32::MAX as usize).is_ok());
        assert_eq!(
            ensure_u32_indexable(u32::MAX as usize + 1),
            Err(StorageError::RelationTooLarge {
                rows: u32::MAX as usize + 1
            })
        );
        assert!(ensure_u32_indexable(usize::MAX).is_err());
    }

    #[test]
    fn columnar_cache_tracks_mutation() {
        let mut a = r(&[&[1, 2], &[3, 4]]);
        assert_eq!(a.columns().len(), 2);
        assert_eq!(a.columns().col(0).as_ints(), Some(&[1i64, 3][..]));
        // Insert invalidates the cached view.
        a.insert(tuple![2, 9]).unwrap();
        assert_eq!(a.columns().len(), 3);
        assert_eq!(a.columns().col(0).as_ints(), Some(&[1i64, 2, 3][..]));
        // Remove does too.
        a.remove(&tuple![1, 2]);
        assert_eq!(a.columns().col(0).as_ints(), Some(&[2i64, 3][..]));
        // A failed insert (duplicate) leaves the view untouched but
        // correct either way.
        assert!(!a.insert(tuple![2, 9]).unwrap());
        assert_eq!(a.columns().len(), 2);
    }

    #[test]
    fn keyed_rows_slice_the_groups_of_sorted_keys() {
        let a = r(&[&[1, 7], &[1, 8], &[2, 7], &[3, 8], &[3, 9]]);
        let keys = |ks: &[i64]| ks.iter().map(|&k| Value::int(k)).collect::<Vec<_>>();
        assert_eq!(
            a.keyed_rows(&keys(&[1, 3])),
            r(&[&[1, 7], &[1, 8], &[3, 8], &[3, 9]])
        );
        assert_eq!(a.keyed_rows(&keys(&[2])), r(&[&[2, 7]]));
        assert!(a.keyed_rows(&keys(&[0, 4])).is_empty());
        assert_eq!(a.keyed_rows(&keys(&[0, 4])).arity(), 2);
        assert!(a.keyed_rows(&[]).is_empty());
    }

    #[test]
    fn splice_keyed_replaces_exactly_the_keyed_groups() {
        let a = Arc::new(r(&[&[1, 7], &[2, 7], &[2, 8], &[4, 1]]));
        let keys = |ks: &[i64]| ks.iter().map(|&k| Value::int(k)).collect::<Vec<_>>();
        // Same rows for the touched groups: the very same allocation.
        let same = a.splice_keyed(&keys(&[2, 3]), &r(&[&[2, 7], &[2, 8]]));
        assert!(Arc::ptr_eq(&same, &a));
        // A group shrinks, one appears, one untouched group stays.
        let patched = a.splice_keyed(&keys(&[2, 3]), &r(&[&[2, 9], &[3, 0]]));
        assert_eq!(*patched, r(&[&[1, 7], &[2, 9], &[3, 0], &[4, 1]]));
        // A group empties out.
        let gone = a.splice_keyed(&keys(&[1, 4]), &Relation::empty(2));
        assert_eq!(*gone, r(&[&[2, 7], &[2, 8]]));
        // Every splice equals the set expression it stands for.
        let ks = keys(&[1, 2]);
        let rows = r(&[&[1, 1], &[2, 2]]);
        let want = a
            .difference(&a.keyed_rows(&ks))
            .unwrap()
            .union(&rows)
            .unwrap();
        assert_eq!(*a.splice_keyed(&ks, &rows), want);
    }

    #[test]
    fn equality_and_hash_ignore_the_columnar_cache() {
        use std::collections::hash_map::DefaultHasher;
        let a = r(&[&[1], &[2]]);
        let b = r(&[&[2], &[1]]);
        let _ = a.columns(); // build a's cache only
        assert_eq!(a, b);
        let h = |x: &Relation| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
        // Clones share the set identity regardless of cache state.
        let c = a.clone();
        assert_eq!(c, a);
        assert_eq!(c.columns().len(), 2);
    }
}
