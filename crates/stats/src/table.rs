//! Per-relation statistics: `ANALYZE` for canonical set-semantics
//! relations.
//!
//! A statistic is kept only if a decision reads it: the join order and
//! the multiway collapse (distinct counts, `max_freq`), the registry's
//! algorithm pick (rows, distinct counts and the group count and mean
//! set size derived from them), and the q-error alarm, which compares
//! every plan node's estimate with its actual (the integer histogram
//! behind constant selections).
//!
//! [`TableStats::analyze`] runs directly on the relation's columnar
//! view ([`sj_storage::Columns`]): each column gets fused dense scans
//! matched to its physical representation —
//!
//! * **integer columns** — one `i64` scan for distinct, max frequency
//!   and the value range, one counting scan for the [`Histogram`] (the
//!   range gates the bucket layout, so counting cannot start earlier);
//! * **coded columns** (strings, or integers and strings mixed) — a
//!   *single* scan over the dictionary codes: a per-code count gives the
//!   exact distinct count and max frequency, and the counts of the
//!   dictionary's integer entries give the [`Histogram`].
//!
//! The output feeds the cost model and the cardinality estimator:
//!
//! * per-column distinct count, max frequency and an equi-width
//!   [`Histogram`] over integer values ([`ColumnStats`]);
//! * for binary relations, the smallest and largest set of the grouping
//!   on the first column ([`GroupStats`]); the group count and the mean
//!   set size are [`TableStats::groups`] and [`TableStats::mean_set`],
//!   derived from the leading column's distinct count.
//!
//! A relation that takes inserts need not be scanned again after each
//! one. For an all-integer relation, [`TableStats::analyze_tallied`]
//! also returns, from the same scans, the exact aggregates every field
//! above is a function of — per-value counts of each column and the
//! number of groups of each set size, a [`Tally`] — and
//! [`TableStats::with_insert`] derives the statistics of the relation
//! plus one fresh tuple from them, equal field for field to a fresh
//! `analyze`: in `O(arity)`, or `O(distinct)` when the tuple moves a
//! column's range and the histogram is rebuilt from the counts.

use crate::histogram::{Histogram, DEFAULT_BUCKETS};
use sj_storage::{ColumnData, Dict, FxHashMap, Relation, Tuple, Value};
use std::collections::BTreeMap;

/// Statistics for one column of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Exact number of distinct values.
    pub distinct: usize,
    /// Exact count of the column's most frequent value — the skew
    /// statistic. Uniform columns have `max_freq ≈ rows / distinct`;
    /// a hub value (the regime where pairwise join plans blow past the
    /// AGM bound and the multiway join pays off) shows up here while
    /// the equi-width histogram smears it across a bucket.
    pub max_freq: usize,
    /// Equi-width histogram over the column's integer values (empty for
    /// a column without any); its range is the column's integer range.
    pub histogram: Histogram,
}

/// The set-join view of a binary relation `R(A, B)`: the extreme set
/// sizes of the grouping `A ↦ {B : (A,B) ∈ R}`. Their one reader is
/// [`crate::division_rows`], meant to become the estimate of a plan's
/// division node; until it is, no plan, pick or alarm reads them.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// Smallest set size (0 for an empty relation).
    pub min_set: usize,
    /// Largest set size.
    pub max_set: usize,
}

/// The exact aggregates of an all-integer relation that
/// [`TableStats::with_insert`] updates: each column's per-value row
/// counts and, for a binary relation, how many groups have each set
/// size. [`TableStats::analyze_tallied`] builds it from the maps its
/// integer scans count anyway; the statistics catalog keeps a tally
/// only for relations that take inserts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Per column, the number of rows holding each value. Column 0's
    /// counts are the group sizes.
    counts: Vec<FxHashMap<i64, u32>>,
    /// Binary relations only: the number of groups of each set size,
    /// ordered so the smallest and largest sizes are the ends.
    sizes: BTreeMap<usize, usize>,
}

impl Tally {
    /// The tally of a relation of these per-column counts.
    fn from_counts(counts: Vec<FxHashMap<i64, u32>>) -> Tally {
        let mut tally = Tally {
            counts,
            ..Tally::default()
        };
        if tally.counts.len() == 2 {
            let sizes: Vec<u32> = tally.counts[0].values().copied().collect();
            for size in sizes {
                tally.resize_group(0, size as usize);
            }
        }
        tally
    }

    /// A group of `from` elements (0: a new group) now has `to`.
    fn resize_group(&mut self, from: usize, to: usize) {
        if from > 0 {
            let n = self.sizes.get_mut(&from).expect("a group of that size");
            *n -= 1;
            if *n == 0 {
                self.sizes.remove(&from);
            }
        }
        *self.sizes.entry(to).or_insert(0) += 1;
    }
}

/// Statistics for one relation, produced by [`TableStats::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Cardinality (the paper's Definition 15 size).
    pub rows: usize,
    /// Per-column statistics, one entry per column (0-based): as many
    /// as the analyzed relation's arity.
    pub columns: Vec<ColumnStats>,
    /// Set-join view, present iff the relation is binary.
    pub group: Option<GroupStats>,
}

impl TableStats {
    /// Analyze a relation through its columnar view: fused dense scans
    /// per column (see the module docs for the per-representation
    /// breakdown) plus the group scan over column 0's run lengths. The
    /// catalog runs this on the first query that touches a relation
    /// version it has no entry for — a version an absorbed insert
    /// produced needs none ([`TableStats::with_insert`]) — so the scan
    /// count is cold-query latency; the `stats.analyze` span is where a
    /// trace shows it.
    ///
    /// Canonical storage order makes the leading column's distinct
    /// count and the group boundaries allocation-free run counts; only
    /// the non-leading distinct counts need a hash map (integers) or a
    /// per-code count (coded columns).
    pub fn analyze(r: &Relation) -> TableStats {
        Self::analyze_tallied(r, false).0
    }

    /// [`TableStats::analyze`], and with `keep_tally` also the
    /// relation's [`Tally`] for [`TableStats::with_insert`], from the
    /// same scans: `None` unless every column holds integers only (an
    /// empty relation qualifies).
    pub fn analyze_tallied(r: &Relation, keep_tally: bool) -> (TableStats, Option<Tally>) {
        let arity = r.arity();
        let _span = sj_obs::span!("stats.analyze", rows = r.len(), arity = arity);
        let view = r.columns();
        let mut columns = Vec::with_capacity(arity);
        let mut counts = keep_tally.then(|| Vec::with_capacity(arity));
        for c in 0..arity {
            let (column, column_counts) = match view.col(c) {
                ColumnData::Int(v) => Self::analyze_int(v, c == 0, counts.is_some()),
                ColumnData::Coded(codes) => (Self::analyze_coded(codes, view.dict()), None),
            };
            columns.push(column);
            counts = counts
                .zip(column_counts)
                .map(|(mut counts, column_counts)| {
                    counts.push(column_counts);
                    counts
                });
        }
        let group = (arity == 2).then(|| Self::group_scan(r));
        let stats = TableStats {
            rows: r.len(),
            columns,
            group,
        };
        (stats, counts.map(Tally::from_counts))
    }

    /// The statistics of the relation these describe plus the tuple
    /// `t`, which must be new to it, equal field for field to
    /// [`TableStats::analyze`] of that relation; `tally` is this
    /// relation's [`Tally`] and becomes the new one's. `None`, with
    /// `tally` untouched, when `t` holds a string: the relation is no
    /// longer all-integer, so it has to be analyzed again.
    ///
    /// Counts only grow, so `distinct`, `max_freq` and an in-range
    /// histogram bucket update in place; a value outside the range of a
    /// column's histogram rebuilds it from the column's counts over the
    /// widened range (`O(distinct)`, bit-equal: the counts are
    /// integers). The extreme set sizes are the ends of the set-size
    /// counts.
    pub fn with_insert(&self, tally: &mut Tally, t: &Tuple) -> Option<TableStats> {
        debug_assert_eq!(t.arity(), self.columns.len(), "with_insert: arity mismatch");
        let ints: Vec<i64> = t
            .values()
            .iter()
            .map(Value::as_int)
            .collect::<Option<_>>()?;
        let mut next = self.clone();
        next.rows += 1;
        for ((col, counts), &x) in next.columns.iter_mut().zip(&mut tally.counts).zip(&ints) {
            let rows = counts.entry(x).or_insert(0);
            *rows += 1;
            if *rows == 1 {
                col.distinct += 1;
            }
            col.max_freq = col.max_freq.max(*rows as usize);
            if !col.histogram.add(x) {
                // A tallied column holds integers only: its histogram's
                // range is the column's, and no range means empty.
                let (lo, hi) = col
                    .histogram
                    .range()
                    .map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x)));
                let counts = counts.iter().map(|(&v, &rows)| (v, rows));
                col.histogram = Histogram::from_counts(counts, lo, hi, DEFAULT_BUCKETS);
            }
        }
        if let Some(g) = next.group.as_mut() {
            let size = tally.counts[0][&ints[0]] as usize;
            tally.resize_group(size - 1, size);
            g.min_set = *tally.sizes.keys().next().expect("a group");
            g.max_set = *tally.sizes.keys().next_back().expect("a group");
        }
        Some(next)
    }

    /// Integer column: fused distinct/max-frequency/range scan over the
    /// dense `i64` slice, then one counting scan for the histogram.
    /// A non-leading column counts every value to find its distinct
    /// count; with `keep_counts` those counts are returned, and a
    /// leading column records each run's length as its value's count.
    fn analyze_int(
        v: &[i64],
        leading: bool,
        keep_counts: bool,
    ) -> (ColumnStats, Option<FxHashMap<i64, u32>>) {
        let mut counts: FxHashMap<i64, u32> = FxHashMap::default();
        let Some((&first, rest)) = v.split_first() else {
            return (Self::empty_column(), keep_counts.then_some(counts));
        };
        let (mut lo, mut hi) = (first, first);
        let mut distinct = 1usize;
        let mut max_freq = 1usize;
        let mut run = 1usize;
        let mut prev = first;
        if !leading {
            counts.reserve(v.len());
            counts.insert(first, 1);
        }
        for &x in rest {
            lo = lo.min(x);
            hi = hi.max(x);
            if leading {
                // Sorted order: distinct = run count, max frequency =
                // longest run.
                if x != prev {
                    if keep_counts {
                        counts.insert(prev, run as u32);
                    }
                    distinct += 1;
                    prev = x;
                    run = 1;
                } else {
                    run += 1;
                    max_freq = max_freq.max(run);
                }
            } else {
                *counts.entry(x).or_insert(0) += 1;
            }
        }
        if leading && keep_counts {
            counts.insert(prev, run as u32);
        }
        if !leading {
            distinct = counts.len();
            max_freq = counts.values().copied().max().unwrap_or(1) as usize;
        }
        let column = ColumnStats {
            distinct,
            max_freq,
            histogram: Histogram::build_range(v.iter().copied(), lo, hi, DEFAULT_BUCKETS),
        };
        (column, keep_counts.then_some(counts))
    }

    /// Coded column: one scan over the codes, counting each entry of
    /// the dictionary. The dictionary's integer entries come first and in
    /// order, so the ones this column holds, with their counts, are the
    /// histogram's input and their ends its range; the dictionary is
    /// shared across columns, so entries this column lacks are skipped.
    fn analyze_coded(codes: &[u32], dict: &Dict) -> ColumnStats {
        let mut counts = vec![0u32; dict.len()];
        for &x in codes {
            counts[x as usize] += 1;
        }
        let ints: Vec<(i64, u32)> = dict
            .values()
            .iter()
            .zip(&counts)
            .filter(|&(_, &rows)| rows > 0)
            .map_while(|(v, &rows)| Some((v.as_int()?, rows)))
            .collect();
        let histogram = match (ints.first(), ints.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => {
                Histogram::from_counts(ints.iter().copied(), lo, hi, DEFAULT_BUCKETS)
            }
            _ => Histogram::empty(),
        };
        ColumnStats {
            distinct: counts.iter().filter(|&&rows| rows > 0).count(),
            max_freq: counts.iter().copied().max().unwrap_or(0) as usize,
            histogram,
        }
    }

    fn empty_column() -> ColumnStats {
        ColumnStats {
            distinct: 0,
            max_freq: 0,
            histogram: Histogram::empty(),
        }
    }

    /// The extreme set sizes from column 0's run lengths — a dense scan
    /// over the physical column, no `Value` comparisons for typed
    /// columns.
    fn group_scan(r: &Relation) -> GroupStats {
        let (mut min_set, mut max_set) = (usize::MAX, 0usize);
        let mut close = |run: usize| {
            min_set = min_set.min(run);
            max_set = max_set.max(run);
        };
        fn runs<T: PartialEq>(v: &[T], close: &mut impl FnMut(usize)) {
            let mut run = 0usize;
            for i in 0..v.len() {
                if run > 0 && v[i] == v[i - 1] {
                    run += 1;
                } else {
                    if run > 0 {
                        close(run);
                    }
                    run = 1;
                }
            }
            if run > 0 {
                close(run);
            }
        }
        match r.columns().col(0) {
            ColumnData::Int(v) => runs(v, &mut close),
            ColumnData::Coded(v) => runs(v, &mut close),
        }
        GroupStats {
            min_set: if max_set == 0 { 0 } else { min_set },
            max_set,
        }
    }

    /// Distinct count of a column, 0 when out of range — the estimator's
    /// total-function accessor.
    pub fn distinct(&self, col: usize) -> usize {
        self.columns.get(col).map_or(0, |c| c.distinct)
    }

    /// The group count of the set-join view: the leading column's
    /// distinct count (0 for arity 0), whatever the arity.
    pub fn groups(&self) -> usize {
        self.distinct(0)
    }

    /// Mean set size of the set-join view, `rows / groups` (0 when not
    /// binary or empty).
    pub fn mean_set(&self) -> f64 {
        let groups = self.groups();
        if self.group.is_some() && groups > 0 {
            self.rows as f64 / groups as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(rows: &[[i64; 2]]) -> Relation {
        Relation::from_tuples(2, rows.iter().map(|r| sj_storage::Tuple::from_ints(r))).unwrap()
    }

    #[test]
    fn analyze_empty_relation() {
        let s = TableStats::analyze(&Relation::empty(2));
        assert_eq!(s.rows, 0);
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.distinct(0), 0);
        assert_eq!(s.columns[0].histogram.range(), None);
        assert_eq!(s.columns[0].histogram.count(), 0);
        let g = s.group.as_ref().unwrap();
        assert_eq!((s.groups(), g.min_set, g.max_set), (0, 0, 0));
        assert_eq!(s.mean_set(), 0.0);
        assert_eq!(s.groups(), 0);
    }

    #[test]
    fn analyze_counts_columns_and_groups() {
        let r = pairs(&[[1, 10], [1, 11], [1, 12], [2, 10], [3, 10], [3, 13]]);
        let s = TableStats::analyze(&r);
        assert_eq!(s.rows, 6);
        assert_eq!(s.distinct(0), 3);
        assert_eq!(s.distinct(1), 4);
        assert_eq!(s.columns[0].histogram.range(), Some((1, 3)));
        assert_eq!(s.columns[1].histogram.range(), Some((10, 13)));
        // Max frequency: column 0 from runs (leading), column 1 from
        // the count map (value 10 occurs three times).
        assert_eq!(s.columns[0].max_freq, 3);
        assert_eq!(s.columns[1].max_freq, 3);
        let g = s.group.as_ref().unwrap();
        assert_eq!(s.groups(), 3);
        assert_eq!(g.min_set, 1);
        assert_eq!(g.max_set, 3);
        assert_eq!(s.mean_set(), 2.0);
    }

    #[test]
    fn analyze_single_group_and_all_distinct() {
        // Single value everywhere.
        let one = pairs(&[[5, 9]]);
        let s = TableStats::analyze(&one);
        assert_eq!((s.distinct(0), s.distinct(1)), (1, 1));
        assert_eq!(s.groups(), 1);
        assert_eq!(s.columns[1].histogram.estimate_eq(&Value::int(9)), 1.0);
        // All-distinct keys: every group is a singleton.
        let rows: Vec<[i64; 2]> = (0..50).map(|i| [i, 7]).collect();
        let s = TableStats::analyze(&pairs(&rows));
        let g = s.group.as_ref().unwrap();
        assert_eq!(s.groups(), 50);
        assert_eq!((g.min_set, g.max_set), (1, 1));
        assert_eq!(s.mean_set(), 1.0);
        assert_eq!(s.distinct(1), 1);
        // A constant column is one hub; an all-distinct column has none.
        assert_eq!(s.columns[0].max_freq, 1);
        assert_eq!(s.columns[1].max_freq, 50);
    }

    #[test]
    fn analyze_unary_and_string_relations() {
        let u = Relation::unary((0..20).map(Value::int));
        let s = TableStats::analyze(&u);
        assert_eq!(s.columns.len(), 1);
        assert!(s.group.is_none());
        assert_eq!(s.groups(), 20, "distinct(0)");
        assert_eq!(s.mean_set(), 0.0, "not binary");
        let names = Relation::from_str_rows(&[&["an", "bob"], &["an", "carol"]]);
        let s = TableStats::analyze(&names);
        assert_eq!(s.distinct(0), 1);
        assert_eq!(s.distinct(1), 2);
        assert_eq!(s.columns[0].histogram.count(), 0, "no integer bins");
        assert_eq!(s.columns[0].histogram.range(), None);
        assert_eq!((s.columns[0].max_freq, s.columns[1].max_freq), (2, 1));
    }

    #[test]
    fn columnar_analyze_matches_on_mixed_columns() {
        // A column holding both variants is coded; its integer entries
        // still make the histogram.
        let r = Relation::from_tuples(
            2,
            vec![
                sj_storage::tuple![1, 5],
                sj_storage::tuple![1, "x"],
                sj_storage::tuple![2, 5],
                sj_storage::tuple![3, 9],
            ],
        )
        .unwrap();
        let s = TableStats::analyze(&r);
        assert_eq!(s.distinct(0), 3);
        assert_eq!(s.distinct(1), 3);
        assert_eq!(s.columns[1].max_freq, 2);
        assert_eq!(s.columns[1].histogram.range(), Some((5, 9)));
        assert_eq!(s.columns[1].histogram.count(), 3, "integer subset binned");
        let g = s.group.as_ref().unwrap();
        assert_eq!((s.groups(), g.min_set, g.max_set), (3, 1, 2));
    }

    #[test]
    fn distinct_out_of_range_is_zero() {
        let s = TableStats::analyze(&pairs(&[[1, 2]]));
        assert_eq!(s.distinct(5), 0);
    }
}
