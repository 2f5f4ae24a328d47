//! Equi-width histograms over integer column values.
//!
//! The estimator prices a constant equality `σ[i=c]` on a column from
//! its histogram: a distribution summary that is cheap to build (one
//! pass once the range is known), cheap to store (a handful of bucket
//! counters), and deterministic. Equi-width buckets over the `i64`
//! payload of [`Value::Int`] are exactly that. Its one consumer is
//! [`Histogram::estimate_eq`]; the q-error alarm is the decision that
//! reads it (without it, constant selections on the serving pool's `R`
//! estimate `1/distinct` and miss their actuals past the budget). String
//! columns have no histogram: their constants estimate `1/distinct`.

use sj_storage::Value;

/// Default number of buckets of a column's histogram. Narrow enough to
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

    /// Build over the value range `lo..=hi` (every yielded value must
    /// lie inside it) with at most `max_buckets` buckets (`≥ 1`):
    /// `TableStats::analyze` computes the range in its fused column
    /// scan first.
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

    /// The bucket range `lo..=hi`, which `TableStats` builds as the
    /// column's integer range; `None` for an empty histogram.
    pub(crate) fn range(&self) -> Option<(i64, i64)> {
        (!self.buckets.is_empty()).then_some((self.lo, self.hi))
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

    /// The offsets from `lo` a bucket covers: `[ceil(b·span/n),
    /// ceil((b+1)·span/n))`.
    fn bucket_offsets(&self, b: usize) -> (u128, u128) {
        let n = self.buckets.len() as u128;
        let span = self.span();
        let start = (b as u128 * span).div_ceil(n);
        let end = ((b as u128 + 1) * span).div_ceil(n);
        (start, end)
    }

    /// Number of distinct values a bucket's sub-range can hold.
    fn bucket_width(&self, b: usize) -> u128 {
        let (start, end) = self.bucket_offsets(b);
        (end - start).max(1)
    }

    /// The buckets that hold values, each as its value range `lo..=hi`
    /// and its count.
    fn filled(&self) -> impl Iterator<Item = ((i128, i128), f64)> + '_ {
        (0..self.buckets.len())
            .filter(|&b| self.buckets[b] > 0)
            .map(|b| {
                let (start, end) = self.bucket_offsets(b);
                let lo = self.lo as i128 + start as i128;
                (
                    (lo, lo + (end - start).max(1) as i128 - 1),
                    self.buckets[b] as f64,
                )
            })
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

    /// Estimated `P(X < Y)` for `X` drawn from this histogram's values
    /// and `Y` from `other`'s, independently, each uniform over the
    /// integers of its bucket; `None` when either counts nothing.
    /// Disjoint ranges give exactly 0 or 1.
    pub fn fraction_lt(&self, other: &Histogram) -> Option<f64> {
        if self.ints == 0 || other.ints == 0 {
            return None;
        }
        let mut lt = 0.0;
        for ((a0, a1), ca) in self.filled() {
            for ((b0, b1), cb) in other.filled() {
                let (nx, ny) = ((a1 - a0 + 1) as f64, (b1 - b0 + 1) as f64);
                // Pairs (x, y), x < y: every y for an x below b0, and
                // b1 − x of them for an x in b0..=b1.
                let below = (a1.min(b0 - 1) - a0 + 1).max(0) as f64 * ny;
                let (l, h) = (a0.max(b0), a1.min(b1));
                let inside = if l <= h {
                    let n = (h - l + 1) as f64;
                    n * (b1 - h) as f64 + n * (n - 1.0) / 2.0
                } else {
                    0.0
                };
                lt += ca * cb * (below + inside) / (nx * ny);
            }
        }
        Some(lt / (self.ints as f64 * other.ints as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(values: &[i64], lo: i64, hi: i64) -> Histogram {
        Histogram::build_range(values.iter().copied(), lo, hi, DEFAULT_BUCKETS)
    }

    #[test]
    fn empty_histogram_estimates_zero() {
        let h = Histogram::empty();
        assert_eq!(h.count(), 0);
        assert_eq!(h.bucket_count(), 0);
        assert_eq!(h.range(), None);
        assert_eq!(h.estimate_eq(&Value::int(5)), 0.0);
    }

    #[test]
    fn single_value_is_exact() {
        let h = build(&[7i64; 40], 7, 7);
        assert_eq!(h.bucket_count(), 1);
        assert_eq!(h.range(), Some((7, 7)));
        assert_eq!(h.estimate_eq(&Value::int(7)), 40.0);
        assert_eq!(h.estimate_eq(&Value::int(8)), 0.0);
    }

    #[test]
    fn narrow_range_gets_one_bucket_per_value() {
        // 10 distinct values < 32 buckets: every estimate is exact.
        let vals: Vec<i64> = (0..100).map(|i| i % 10).collect();
        let h = build(&vals, 0, 9);
        assert_eq!(h.bucket_count(), 10);
        for v in 0..10 {
            assert_eq!(h.estimate_eq(&Value::int(v)), 10.0, "value {v}");
        }
    }

    #[test]
    fn wide_uniform_range_estimates_within_bucket_resolution() {
        let vals: Vec<i64> = (0..1000).collect();
        let h = build(&vals, 0, 999);
        assert_eq!(h.bucket_count(), DEFAULT_BUCKETS);
        assert_eq!(h.count(), 1000);
        // Uniform data: each point estimate ≈ 1.
        for v in [0i64, 123, 555, 999] {
            let est = h.estimate_eq(&Value::int(v));
            assert!((0.5..=2.0).contains(&est), "estimate_eq({v}) = {est}");
        }
    }

    #[test]
    fn out_of_range_and_string_values() {
        let vals: Vec<i64> = (0..10).collect();
        let h = build(&vals, 0, 9);
        assert_eq!(h.estimate_eq(&Value::int(-1)), 0.0);
        assert_eq!(h.estimate_eq(&Value::int(10)), 0.0);
        assert_eq!(h.estimate_eq(&Value::str("x")), 0.0);
    }

    #[test]
    fn extreme_range_does_not_overflow() {
        let h = build(&[i64::MIN, 0, i64::MAX], i64::MIN, i64::MAX);
        assert_eq!(h.count(), 3);
        assert!(h.estimate_eq(&Value::int(0)) >= 0.0);
    }

    #[test]
    fn fraction_lt_of_disjoint_ranges_is_certain() {
        let low = build(&[1, 2, 3, 9], 1, 9);
        let high = build(&[10, 50, 70], 10, 70);
        assert_eq!(low.fraction_lt(&high), Some(1.0));
        assert_eq!(high.fraction_lt(&low), Some(0.0));
        // Touching ranges: 9 < 9 is false, so no value of `low` exceeds 9.
        let nine = build(&[9], 9, 9);
        assert_eq!(nine.fraction_lt(&low), Some(0.0));
        assert_eq!(Histogram::empty().fraction_lt(&low), None);
        assert_eq!(low.fraction_lt(&Histogram::empty()), None);
        let wide = build(&[i64::MIN, i64::MAX], i64::MIN, i64::MAX);
        let inner = build(&[0], 0, 0);
        assert_eq!(inner.fraction_lt(&wide), Some(0.5));
    }

    #[test]
    fn fraction_lt_of_equal_uniform_columns_is_about_a_half() {
        // Narrow (a bucket per value) and wide (shared buckets) ranges:
        // P(X < Y) for two independent uniform draws is (1 − 1/n) / 2.
        for n in [10i64, 1000] {
            let vals: Vec<i64> = (0..n).collect();
            let h = build(&vals, 0, n - 1);
            let p = h.fraction_lt(&h).unwrap();
            let exact = (1.0 - 1.0 / n as f64) / 2.0;
            assert!((p - exact).abs() < 1e-9, "n = {n}: {p} vs {exact}");
        }
    }

    #[test]
    fn adding_in_range_equals_a_rebuild() {
        let mut h = build(&[1, 5, 9], 1, 9);
        assert!(h.add(5));
        assert_eq!(h, build(&[1, 5, 5, 9], 1, 9));
        assert!(!h.add(10), "out of range");
        assert!(!Histogram::empty().add(0), "no range");
        assert_eq!(h.count(), 4);
    }
}
