//! `TableStats::with_insert` is exact: over random insert sequences into
//! random relations, the statistics it derives from a `Tally` equal a
//! fresh `TableStats::analyze` of the grown relation, field by field,
//! and the tally it leaves equals the one `TableStats::analyze_tallied`
//! builds for that relation, whose statistics equal `analyze`'s. Covers
//! arity 1–3; integer, string and mixed columns; empty starts; narrow
//! and wide value ranges (histograms with one bucket per value and with
//! shared buckets) and the `i64` extremes; and inserts below a column's
//! minimum and above its maximum, which rebuild its histogram over the
//! range read from the old one.

mod common;

use common::{Gen, Kind};
use proptest::prelude::*;
use sj_stats::TableStats;
use sj_storage::{Relation, Tuple, Value};
use sj_workload::SplitMix64;

/// Field-by-field equality, so a failure names the field.
fn assert_same(derived: &TableStats, analyzed: &TableStats, step: usize) {
    assert_eq!(derived.rows, analyzed.rows, "rows, step {step}");
    assert_eq!(
        derived.columns.len(),
        analyzed.columns.len(),
        "arity, step {step}"
    );
    for (c, (d, a)) in derived.columns.iter().zip(&analyzed.columns).enumerate() {
        assert_eq!(d.distinct, a.distinct, "column {c} distinct, step {step}");
        assert_eq!(d.max_freq, a.max_freq, "column {c} max_freq, step {step}");
        assert_eq!(
            d.histogram, a.histogram,
            "column {c} histogram, step {step}"
        );
    }
    match (&derived.group, &analyzed.group) {
        (Some(d), Some(a)) => {
            assert_eq!(d.min_set, a.min_set, "min_set, step {step}");
            assert_eq!(d.max_set, a.max_set, "max_set, step {step}");
        }
        (d, a) => assert_eq!(d, a, "group view, step {step}"),
    }
    // What the registry reads, derived from the fields above.
    assert_eq!(derived.groups(), analyzed.groups(), "groups, step {step}");
    assert_eq!(
        derived.mean_set().to_bits(),
        analyzed.mean_set().to_bits(),
        "mean_set, step {step}"
    );
    assert_eq!(derived, analyzed, "step {step}");
}

/// One random relation and insert sequence, checked after every insert.
/// Returns how many inserts `with_insert` took.
fn check(seed: u64) -> usize {
    let mut rng = SplitMix64::new(seed);
    let arity = 1 + rng.below(3) as usize;
    // Mostly integer columns — the case the catalog keeps a tally for —
    // with string and mixed ones often enough to cover the refusals.
    let kinds: Vec<Kind> = (0..arity)
        .map(|_| match rng.below(8) {
            0 => Kind::Str,
            1 => Kind::Mixed,
            _ => Kind::Int,
        })
        .collect();
    let width = [3, 40, 5_000][rng.below(3) as usize];
    let start_rows = if rng.below(4) == 0 { 0 } else { rng.below(60) };
    let inserts = rng.below(80) as usize;
    let mut g = Gen { rng, width };
    // The start draws integers from the inner half of the range only,
    // so later inserts land below its minimum and above its maximum.
    let inner = (g.width / 2).max(1);
    let start: Vec<Tuple> = (0..start_rows)
        .map(|_| {
            Tuple::new(
                kinds
                    .iter()
                    .map(|&k| match g.value(k) {
                        Value::Int(x) => Value::int(x.clamp(-inner, inner)),
                        v => v,
                    })
                    .collect(),
            )
        })
        .collect();
    let mut relation = Relation::from_tuples(arity, start).unwrap();
    let (mut stats, mut tally) = TableStats::analyze_tallied(&relation, true);
    let mut absorbed = 0;
    for step in 0..inserts {
        // Inserts are all-integer most of the time, whatever the start.
        let t = if g.rng.below(6) == 0 {
            g.tuple(&kinds)
        } else {
            g.tuple(&vec![Kind::Int; arity])
        };
        if relation.contains(&t) {
            continue;
        }
        let derived = tally.as_mut().map(|tally| {
            let untouched = tally.clone();
            let next = stats.with_insert(tally, &t);
            if next.is_none() {
                assert_eq!(*tally, untouched, "a refused insert leaves the tally");
            }
            next
        });
        assert!(relation.insert(t.clone()).unwrap());
        let analyzed = TableStats::analyze(&relation);
        let (tallied, fresh_tally) = TableStats::analyze_tallied(&relation, true);
        assert_same(&tallied, &analyzed, step);
        let has_string = t.values().iter().any(|v| v.as_int().is_none());
        match derived {
            Some(Some(next)) => {
                assert!(!has_string, "with_insert took a string at step {step}");
                assert_same(&next, &analyzed, step);
                assert_eq!(tally, fresh_tally, "tally, step {step}");
                absorbed += 1;
            }
            Some(None) => {
                assert!(has_string, "with_insert refused integers at step {step}");
                tally = fresh_tally;
                assert!(tally.is_none(), "a relation holding strings has no tally");
            }
            None => {
                let all_ints = relation
                    .iter()
                    .all(|t| t.values().iter().all(|v| v.as_int().is_some()));
                assert!(!all_ints, "an all-integer relation always has a tally");
            }
        }
        stats = analyzed;
    }
    absorbed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn with_insert_equals_a_fresh_analyze(seed in any::<u64>()) {
        check(seed);
    }
}

/// The property above is not vacuous: across a fixed batch of seeds,
/// `with_insert` takes thousands of inserts.
#[test]
fn the_property_exercises_the_insert_path() {
    let absorbed: usize = (0..64).map(check).sum();
    assert!(absorbed > 1_000, "only {absorbed} inserts absorbed");
}

#[test]
fn an_empty_start_takes_its_first_rows_exactly() {
    for arity in 1..=3 {
        let mut relation = Relation::empty(arity);
        let (mut stats, tally) = TableStats::analyze_tallied(&relation, true);
        let mut tally = tally.expect("an empty relation is all-integer");
        for (step, x) in [5i64, -3, 5, 40, -90, 5].into_iter().enumerate() {
            let row: Vec<i64> = (0..arity as i64).map(|c| x + c * step as i64).collect();
            let t = Tuple::from_ints(&row);
            if relation.contains(&t) {
                continue;
            }
            stats = stats.with_insert(&mut tally, &t).unwrap();
            relation.insert(t).unwrap();
            assert_same(&stats, &TableStats::analyze(&relation), step);
        }
    }
}
