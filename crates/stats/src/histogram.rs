//! Equi-width histograms over integer column values.
//!
//! The estimator's selectivity primitives need a distribution summary
//! that is cheap to build (one pass after min/max), cheap to store
//! (a handful of bucket counters), and deterministic. Equi-width
//! buckets over the `i64` payload of [`Value::Int`] are exactly that.
//! String columns get the same treatment through their dictionary
//! encoding: [`StringHistogram`] bins the dictionary *codes* (code
//! order equals string order within one dictionary, so equi-width code
//! buckets are order-respecting) and resolves constants through
//! [`StrDict::code_of`] — a constant absent from the dictionary is
//! **provably absent** from the relation and estimates exactly zero,
//! instead of the distinct-count uniform fallback.

use sj_storage::{StrDict, Value};
use std::sync::Arc;

/// Default number of buckets for [`Histogram::build`]. Narrow enough to
/// keep [`crate::TableStats`] a few cache lines per column, wide enough
/// that equality estimates on the synthetic workloads stay within a
/// small q-error (pinned by the accuracy tests).
pub const DEFAULT_BUCKETS: usize = 32;

/// An equi-width histogram over the integer values of one column.
///
/// Invariants: `buckets` is empty iff no integer value was observed;
/// otherwise `lo ≤ hi` and every counted value lies in `lo..=hi`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: i64,
    hi: i64,
    buckets: Vec<u32>,
    /// Integer values counted into the buckets.
    ints: usize,
}

impl Histogram {
    /// A histogram of nothing (empty column, or no integer values).
    pub fn empty() -> Histogram {
        Histogram {
            lo: 0,
            hi: 0,
            buckets: Vec::new(),
            ints: 0,
        }
    }

    /// Build from a column of values with at most [`DEFAULT_BUCKETS`]
    /// buckets. Non-integer values are ignored (callers estimate string
    /// equality from the distinct count instead).
    pub fn build(values: impl Iterator<Item = i64> + Clone) -> Histogram {
        Self::build_with(values, DEFAULT_BUCKETS)
    }

    /// [`Histogram::build`] with an explicit bucket budget (`≥ 1`).
    pub fn build_with(values: impl Iterator<Item = i64> + Clone, max_buckets: usize) -> Histogram {
        let Some((lo, hi)) = values
            .clone()
            .fold(None, |acc: Option<(i64, i64)>, v| match acc {
                None => Some((v, v)),
                Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
            })
        else {
            return Histogram::empty();
        };
        Self::build_range(values, lo, hi, max_buckets)
    }

    /// Build with a caller-supplied value range `lo..=hi` (every yielded
    /// value must lie inside it), skipping the min/max fold — the path
    /// `TableStats::analyze` uses, having already computed the range in
    /// its fused column scan.
    pub fn build_range(
        values: impl Iterator<Item = i64>,
        lo: i64,
        hi: i64,
        max_buckets: usize,
    ) -> Histogram {
        Self::from_counts(values.map(|v| (v, 1)), lo, hi, max_buckets)
    }

    /// [`Histogram::build_range`] over `(value, rows)` pairs: each value
    /// counted `rows` times, in any order. Integer counts make the result
    /// equal to `build_range` over the same multiset, in `O(distinct)`.
    pub(crate) fn from_counts(
        counts: impl Iterator<Item = (i64, u32)>,
        lo: i64,
        hi: i64,
        max_buckets: usize,
    ) -> Histogram {
        debug_assert!(lo <= hi, "from_counts: empty range");
        // One bucket per distinct *possible* value when the range is
        // narrower than the budget — a single value gets exactly one
        // bucket, so its estimate is exact.
        let span = (hi as i128 - lo as i128) as u128 + 1;
        let n = (max_buckets.max(1) as u128).min(span) as usize;
        let mut h = Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            ints: 0,
        };
        for (v, rows) in counts {
            let b = h.bucket_of(v);
            h.buckets[b] += rows;
            h.ints += rows as usize;
        }
        h
    }

    /// Count one more occurrence of `v` in place, when `v` lies inside
    /// the bucket range `lo..=hi` — the layout depends on the range
    /// alone, so the result equals a rebuild. `false` (and no change)
    /// when it does not, or the histogram is empty.
    pub(crate) fn add(&mut self, v: i64) -> bool {
        if self.buckets.is_empty() || v < self.lo || v > self.hi {
            return false;
        }
        let b = self.bucket_of(v);
        self.buckets[b] += 1;
        self.ints += 1;
        true
    }

    /// The number of distinct values in `lo..=hi` (i128 arithmetic:
    /// the full `i64` range must not overflow).
    fn span(&self) -> u128 {
        (self.hi as i128 - self.lo as i128) as u128 + 1
    }

    /// Bucket index of a value inside `lo..=hi` (callers guarantee the
    /// range; build-time values always satisfy it).
    fn bucket_of(&self, v: i64) -> usize {
        let n = self.buckets.len() as u128;
        let off = (v as i128 - self.lo as i128) as u128;
        ((off * n) / self.span()) as usize
    }

    /// Number of distinct values a bucket's sub-range can hold.
    fn bucket_width(&self, b: usize) -> u128 {
        let n = self.buckets.len() as u128;
        let span = self.span();
        // Bucket b covers offsets [ceil(b·span/n), ceil((b+1)·span/n)).
        let start = (b as u128 * span).div_ceil(n);
        let end = ((b as u128 + 1) * span).div_ceil(n);
        (end - start).max(1)
    }

    /// Total integer values counted.
    pub fn count(&self) -> usize {
        self.ints
    }

    /// Number of buckets (0 for [`Histogram::empty`]).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Estimated number of rows whose column equals `v`: the containing
    /// bucket's count spread uniformly over the bucket's value range.
    /// String values and out-of-range integers estimate 0 — out of the
    /// observed range means the value cannot occur (the histogram has
    /// exact bounds).
    pub fn estimate_eq(&self, v: &Value) -> f64 {
        let Some(v) = v.as_int() else { return 0.0 };
        if self.buckets.is_empty() || v < self.lo || v > self.hi {
            return 0.0;
        }
        let b = self.bucket_of(v);
        self.buckets[b] as f64 / self.bucket_width(b) as f64
    }

    /// Estimated number of rows with column value strictly below `v`
    /// (integer values only; the whole count when `v` exceeds the range).
    pub fn estimate_lt(&self, v: i64) -> f64 {
        if self.buckets.is_empty() || v <= self.lo {
            return 0.0;
        }
        if v > self.hi {
            return self.ints as f64;
        }
        let b = self.bucket_of(v);
        let below: u32 = self.buckets[..b].iter().sum();
        // Fraction of the containing bucket assumed below v.
        let n = self.buckets.len() as u128;
        let start = (b as u128 * self.span()).div_ceil(n);
        let off = (v as i128 - self.lo as i128) as u128;
        let frac = (off - start) as f64 / self.bucket_width(b) as f64;
        below as f64 + self.buckets[b] as f64 * frac.clamp(0.0, 1.0)
    }
}

/// An equi-width histogram over a dictionary-encoded string column:
/// bucket counts over the column's dictionary codes, plus the shared
/// dictionary to resolve constant strings to codes.
///
/// Built in the same fused `ANALYZE` scan as the integer statistics
/// (the code range `0..dict.len()` is known before the scan starts, so
/// counting needs no separate min/max pass). Estimates are exact-zero
/// for strings outside the dictionary — the dictionary is a perfect
/// membership index over the *whole relation's* string values.
#[derive(Debug, Clone, PartialEq)]
pub struct StringHistogram {
    dict: Arc<StrDict>,
    hist: Histogram,
}

impl StringHistogram {
    /// Build from a column of dictionary codes and the relation's
    /// shared dictionary (every code must be `< dict.len()`).
    pub fn build(dict: Arc<StrDict>, codes: &[u32]) -> StringHistogram {
        let hist = if dict.is_empty() || codes.is_empty() {
            Histogram::empty()
        } else {
            Histogram::build_range(
                codes.iter().map(|&c| c as i64),
                0,
                dict.len() as i64 - 1,
                DEFAULT_BUCKETS,
            )
        };
        StringHistogram { dict, hist }
    }

    /// Total string values counted.
    pub fn count(&self) -> usize {
        self.hist.count()
    }

    /// Estimated number of rows whose column equals the string `s`.
    /// Exactly zero when `s` is not in the dictionary.
    pub fn estimate_eq(&self, s: &str) -> f64 {
        match self.dict.code_of(s) {
            Some(code) => self.hist.estimate_eq(&Value::int(code as i64)),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_estimates_zero() {
        let h = Histogram::build(std::iter::empty());
        assert_eq!(h, Histogram::empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.bucket_count(), 0);
        assert_eq!(h.estimate_eq(&Value::int(5)), 0.0);
        assert_eq!(h.estimate_lt(100), 0.0);
    }

    #[test]
    fn single_value_is_exact() {
        let h = Histogram::build([7i64; 40].into_iter());
        assert_eq!(h.bucket_count(), 1);
        assert_eq!(h.estimate_eq(&Value::int(7)), 40.0);
        assert_eq!(h.estimate_eq(&Value::int(8)), 0.0);
        assert_eq!(h.estimate_lt(7), 0.0);
        assert_eq!(h.estimate_lt(8), 40.0);
    }

    #[test]
    fn narrow_range_gets_one_bucket_per_value() {
        // 10 distinct values < 32 buckets: every estimate is exact.
        let vals: Vec<i64> = (0..100).map(|i| i % 10).collect();
        let h = Histogram::build(vals.into_iter());
        assert_eq!(h.bucket_count(), 10);
        for v in 0..10 {
            assert_eq!(h.estimate_eq(&Value::int(v)), 10.0, "value {v}");
        }
        assert_eq!(h.estimate_lt(5), 50.0);
    }

    #[test]
    fn wide_uniform_range_estimates_within_bucket_resolution() {
        let vals: Vec<i64> = (0..1000).collect();
        let h = Histogram::build(vals.into_iter());
        assert_eq!(h.bucket_count(), DEFAULT_BUCKETS);
        assert_eq!(h.count(), 1000);
        // Uniform data: each point estimate ≈ 1.
        for v in [0i64, 123, 555, 999] {
            let est = h.estimate_eq(&Value::int(v));
            assert!((0.5..=2.0).contains(&est), "estimate_eq({v}) = {est}");
        }
        let lt = h.estimate_lt(500);
        assert!((450.0..=550.0).contains(&lt), "estimate_lt(500) = {lt}");
    }

    #[test]
    fn out_of_range_and_string_values() {
        let h = Histogram::build(0..10i64);
        assert_eq!(h.estimate_eq(&Value::int(-1)), 0.0);
        assert_eq!(h.estimate_eq(&Value::int(10)), 0.0);
        assert_eq!(h.estimate_eq(&Value::str("x")), 0.0);
        assert_eq!(h.estimate_lt(i64::MAX), 10.0);
    }

    #[test]
    fn extreme_range_does_not_overflow() {
        let h = Histogram::build([i64::MIN, 0, i64::MAX].into_iter());
        assert_eq!(h.count(), 3);
        assert!(h.estimate_eq(&Value::int(0)) >= 0.0);
        assert!(h.estimate_lt(i64::MAX) >= 2.0);
    }

    #[test]
    fn string_histogram_estimates() {
        let dict = Arc::new(StrDict::from_strings(["ague", "flu", "pox"].map(Arc::from)));
        // Column: ague ×1, flu ×3 (codes 0, 1, 1, 1).
        let h = StringHistogram::build(dict, &[0, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.estimate_eq("flu"), 3.0, "narrow dict: exact");
        assert_eq!(h.estimate_eq("ague"), 1.0);
        assert_eq!(h.estimate_eq("pox"), 0.0, "in dict, not in column");
        assert_eq!(h.estimate_eq("absent"), 0.0, "outside the dictionary");
    }

    #[test]
    fn string_histogram_empty_cases() {
        let dict = Arc::new(StrDict::from_strings(["x"].map(Arc::from)));
        assert_eq!(StringHistogram::build(dict, &[]).estimate_eq("x"), 0.0);
        let none = StringHistogram::build(Arc::new(StrDict::default()), &[]);
        assert_eq!(none.count(), 0);
    }
}
