//! Hash indexes on column subsets of a relation.

use crate::hash::FxHashMap;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// A hash index mapping the values of a fixed column subset (the *key
/// columns*, 0-based) to the row positions of a [`Relation`] holding those
/// values.
///
/// Used by the row operators' hash equi-join and equi-semijoin
/// (`sj-eval`'s `ops`, which the tree walker runs).
///
/// ```
/// use sj_storage::{HashIndex, Relation};
/// let r = Relation::from_int_rows(&[&[1, 10], &[1, 20], &[2, 10]]);
/// let ix = HashIndex::build(&r, &[0]);
/// assert_eq!(ix.probe(&[1.into()]).len(), 2);
/// assert_eq!(ix.probe(&[3.into()]).len(), 0);
/// ```
pub struct HashIndex {
    key_cols: Vec<usize>,
    buckets: FxHashMap<Vec<Value>, Vec<usize>>,
}

impl HashIndex {
    /// Build an index over `rel` keyed on `key_cols` (0-based positions;
    /// may be empty, in which case all rows share one bucket).
    ///
    /// Panics if a key column is out of range for the relation's arity —
    /// callers (the evaluators) validate column references first.
    pub fn build(rel: &Relation, key_cols: &[usize]) -> Self {
        // No up-front `reserve(rel.len())`: the number of buckets is the
        // number of *distinct keys*, which on low-cardinality keys is far
        // below the row count — pre-sizing to the row count wasted memory
        // proportional to |rel| per index. Amortized growth is cheap.
        let mut buckets: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
        let mut scratch: Vec<Value> = Vec::with_capacity(key_cols.len());
        for (pos, t) in rel.iter().enumerate() {
            scratch.clear();
            scratch.extend(key_cols.iter().map(|&c| t[c].clone()));
            // Probe with the reused scratch buffer; only materialize an
            // owned key for the first row of each distinct key.
            match buckets.get_mut(scratch.as_slice()) {
                Some(rows) => rows.push(pos),
                None => {
                    buckets.insert(scratch.clone(), vec![pos]);
                }
            }
        }
        HashIndex {
            key_cols: key_cols.to_vec(),
            buckets,
        }
    }

    /// Row positions whose key columns equal `key` (empty slice if none).
    pub fn probe(&self, key: &[Value]) -> &[usize] {
        self.buckets.get(key).map_or(&[], |v| v.as_slice())
    }

    /// True iff some row matches `key`.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.buckets.contains_key(key)
    }

    /// Probe with the key extracted from `probe_tuple` at `probe_cols`
    /// (0-based columns of the *probing* tuple, matched positionally
    /// against this index's key columns).
    pub fn probe_tuple(&self, probe_tuple: &Tuple, probe_cols: &[usize]) -> &[usize] {
        debug_assert_eq!(probe_cols.len(), self.key_cols.len());
        let key: Vec<Value> = probe_cols.iter().map(|&c| probe_tuple[c].clone()).collect();
        self.buckets.get(&key).map_or(&[], |v| v.as_slice())
    }

    /// The key columns this index was built on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn build_and_probe() {
        let r = Relation::from_int_rows(&[&[1, 10], &[1, 20], &[2, 10], &[3, 30]]);
        let ix = HashIndex::build(&r, &[0]);
        assert_eq!(ix.probe(&[Value::int(1)]).len(), 2);
        assert_eq!(ix.probe(&[Value::int(2)]).len(), 1);
        assert_eq!(ix.probe(&[Value::int(9)]).len(), 0);
        assert_eq!(ix.distinct_keys(), 3);
        assert!(ix.contains_key(&[Value::int(3)]));
    }

    #[test]
    fn positions_point_into_canonical_order() {
        let r = Relation::from_int_rows(&[&[2, 1], &[1, 1]]);
        let ix = HashIndex::build(&r, &[1]);
        let pos = ix.probe(&[Value::int(1)]);
        assert_eq!(pos.len(), 2);
        // canonical order: (1,1) then (2,1)
        assert_eq!(r.tuples()[pos[0]], tuple![1, 1]);
        assert_eq!(r.tuples()[pos[1]], tuple![2, 1]);
    }

    #[test]
    fn composite_key() {
        let r = Relation::from_int_rows(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 3]]);
        let ix = HashIndex::build(&r, &[0, 1]);
        assert_eq!(ix.probe(&[Value::int(1), Value::int(2)]).len(), 2);
        assert_eq!(ix.probe(&[Value::int(1), Value::int(3)]).len(), 1);
    }

    #[test]
    fn empty_key_buckets_everything_together() {
        let r = Relation::from_int_rows(&[&[1], &[2]]);
        let ix = HashIndex::build(&r, &[]);
        assert_eq!(ix.probe(&[]).len(), 2);
    }

    #[test]
    fn probe_tuple_extracts_columns() {
        let r = Relation::from_int_rows(&[&[5, 6], &[7, 8]]);
        let ix = HashIndex::build(&r, &[0]);
        // probing tuple (9, 5): its column 1 should match key column 0 = 5
        let hits = ix.probe_tuple(&tuple![9, 5], &[1]);
        assert_eq!(hits.len(), 1);
        assert_eq!(r.tuples()[hits[0]], tuple![5, 6]);
    }
}
