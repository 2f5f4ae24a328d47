//! `TableStats::analyze` against a brute-force reading of the relation:
//! over random relations of arity 1–3 with integer, string and mixed
//! columns (empty relations, narrow and wide integer ranges, the `i64`
//! extremes), every statistic equals what a scan of `Relation::iter()`
//! with ordered maps gives — the row count; per column the distinct
//! count, the largest value frequency and the integer histogram (its
//! count, its bucket count and `estimate_eq` at every integer cell and
//! one past each end of the range); and the extreme group sizes of a
//! binary relation.

mod common;

use common::{Gen, Kind};
use proptest::prelude::*;
use sj_stats::histogram::DEFAULT_BUCKETS;
use sj_stats::{Histogram, TableStats};
use sj_storage::{Relation, Tuple, Value};
use sj_workload::SplitMix64;
use std::collections::BTreeMap;

/// A random relation: its arity, its column kinds and its tuples.
fn relation(seed: u64) -> (Relation, Vec<Kind>) {
    let mut rng = SplitMix64::new(seed);
    let arity = 1 + rng.below(3) as usize;
    let kinds: Vec<Kind> = (0..arity)
        .map(|_| [Kind::Int, Kind::Str, Kind::Mixed][rng.below(3) as usize])
        .collect();
    let width = [3, 40, 5_000][rng.below(3) as usize];
    let rows = if rng.below(4) == 0 { 0 } else { rng.below(120) };
    let mut g = Gen { rng, width };
    let tuples: Vec<Tuple> = (0..rows).map(|_| g.tuple(&kinds)).collect();
    (Relation::from_tuples(arity, tuples).unwrap(), kinds)
}

/// The histogram a column's integer cells give, checked through its
/// observations: the integer count, the bucket count (one bucket per
/// possible value up to the budget) and the point estimates, which the
/// reference histogram over the brute-force range gives and which are
/// exact counts when every value has its own bucket.
fn check_histogram(h: &Histogram, cells: &[i64], what: &str) {
    assert_eq!(h.count(), cells.len(), "{what}: histogram count");
    let (Some(&lo), Some(&hi)) = (cells.iter().min(), cells.iter().max()) else {
        assert_eq!(h.bucket_count(), 0, "{what}: no integers, no buckets");
        assert_eq!(h.estimate_eq(&Value::int(0)), 0.0, "{what}: empty estimate");
        return;
    };
    let span = (hi as i128 - lo as i128) as u128 + 1;
    let buckets = (DEFAULT_BUCKETS as u128).min(span) as usize;
    assert_eq!(h.bucket_count(), buckets, "{what}: bucket count");
    let reference = Histogram::build_range(cells.iter().copied(), lo, hi, DEFAULT_BUCKETS);
    for &x in cells {
        let got = h.estimate_eq(&Value::int(x));
        let want = reference.estimate_eq(&Value::int(x));
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: estimate_eq({x})");
        if span <= DEFAULT_BUCKETS as u128 {
            let rows = cells.iter().filter(|&&y| y == x).count();
            assert_eq!(got, rows as f64, "{what}: exact estimate_eq({x})");
        }
    }
    for outside in [lo.checked_sub(1), hi.checked_add(1)].into_iter().flatten() {
        assert_eq!(
            h.estimate_eq(&Value::int(outside)),
            0.0,
            "{what}: estimate_eq({outside}) past the range"
        );
    }
}

/// One random relation, `analyze`d and read by brute force. Returns
/// how many non-integer columns had integer cells to histogram.
fn check(seed: u64) -> usize {
    let (r, kinds) = relation(seed);
    let what = |c: usize| format!("seed {seed}, column {c} ({:?})", kinds[c]);
    let stats = TableStats::analyze(&r);
    assert_eq!(stats.rows, r.iter().count(), "seed {seed}: rows");
    assert_eq!(stats.columns.len(), r.arity(), "seed {seed}: arity");
    let mut mixed_histograms = 0;
    let mut leading = BTreeMap::new();
    for (c, col) in stats.columns.iter().enumerate() {
        let mut counts: BTreeMap<&Value, usize> = BTreeMap::new();
        for t in r.iter() {
            *counts.entry(&t[c]).or_insert(0) += 1;
        }
        assert_eq!(col.distinct, counts.len(), "{}: distinct", what(c));
        let max_freq = counts.values().copied().max().unwrap_or(0);
        assert_eq!(col.max_freq, max_freq, "{}: max_freq", what(c));
        let ints: Vec<i64> = r.iter().filter_map(|t| t[c].as_int()).collect();
        check_histogram(&col.histogram, &ints, &what(c));
        if !matches!(kinds[c], Kind::Int) && !ints.is_empty() {
            mixed_histograms += 1;
        }
        if c == 0 {
            leading = counts;
        }
    }
    match &stats.group {
        Some(g) => {
            assert_eq!(r.arity(), 2, "seed {seed}: a group view means binary");
            let sizes = leading.values().copied();
            assert_eq!(
                g.min_set,
                sizes.clone().min().unwrap_or(0),
                "seed {seed}: min_set"
            );
            assert_eq!(g.max_set, sizes.max().unwrap_or(0), "seed {seed}: max_set");
        }
        None => assert_ne!(
            r.arity(),
            2,
            "seed {seed}: a binary relation has a group view"
        ),
    }
    assert_eq!(stats.groups(), leading.len(), "seed {seed}: groups");
    mixed_histograms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn analyze_equals_a_brute_force_reading(seed in any::<u64>()) {
        check(seed);
    }
}

/// The property above is not vacuous: across a fixed batch of seeds,
/// mixed columns hand their integer cells to a histogram many times.
#[test]
fn the_property_histograms_mixed_columns() {
    let mixed: usize = (0..64).map(check).sum();
    assert!(mixed > 20, "only {mixed} mixed columns with integers");
}

/// The corner cases by name: an empty relation of each arity, a column
/// of one extreme, and a column holding both extremes.
#[test]
fn empty_relations_and_the_extremes() {
    for arity in 1..=3 {
        let s = TableStats::analyze(&Relation::empty(arity));
        assert_eq!((s.rows, s.columns.len()), (0, arity));
        assert!(s.columns.iter().all(|c| c.distinct == 0 && c.max_freq == 0));
        check_histogram(&s.columns[0].histogram, &[], "empty");
    }
    let r = Relation::from_tuples(
        2,
        vec![
            sj_storage::tuple![i64::MIN, i64::MAX],
            sj_storage::tuple![i64::MIN, "x"],
            sj_storage::tuple![i64::MAX, i64::MIN],
        ],
    )
    .unwrap();
    let s = TableStats::analyze(&r);
    check_histogram(
        &s.columns[0].histogram,
        &[i64::MIN, i64::MIN, i64::MAX],
        "extremes",
    );
    check_histogram(
        &s.columns[1].histogram,
        &[i64::MAX, i64::MIN],
        "mixed extremes",
    );
    let g = s.group.as_ref().unwrap();
    assert_eq!((g.min_set, g.max_set), (1, 2));
}
