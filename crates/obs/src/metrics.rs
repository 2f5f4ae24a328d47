//! The metrics registry: named counters, gauges, running maxima, and
//! fixed-bucket latency histograms with Prometheus-style text
//! exposition.
//!
//! Series are identified by `(name, sorted labels)`. Handles are
//! `Arc`-shared atomics — register once (one short-lived registry lock),
//! then update lock-free from any thread. [`Metrics::expose`] renders
//! every series in deterministic order (names and label sets sort
//! lexicographically), which is what makes the exposition
//! snapshot-testable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A running maximum over positive finite `f64` observations.
///
/// Stored as the IEEE-754 bit pattern: positive f64 bit patterns order
/// identically to the values, so one integer `fetch_max` keeps the
/// maximum lock-free. NaN, infinities, and non-positive values are
/// **ignored** — NaN's bit pattern compares greater than every finite
/// value's, so one junk observation would otherwise poison the maximum
/// forever (the regression `max_gauge_ignores_nan` pins this).
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Fold `v` into the maximum; junk values (NaN, ±∞, ≤ 0) are
    /// dropped.
    pub fn observe(&self, v: f64) {
        if v.is_finite() && v > 0.0 {
            self.0.fetch_max(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The maximum seen, `None` before the first valid observation.
    pub fn get(&self) -> Option<f64> {
        let bits = self.0.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }
}

/// Default latency bucket upper bounds, in seconds: 10µs … 10s,
/// roughly ×2.5 per step. Covers cache hits (microseconds) through
/// cold heavy queries.
pub fn default_latency_buckets() -> Vec<f64> {
    vec![
        10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
        100e-3, 250e-3, 500e-3, 1.0, 2.5, 5.0, 10.0,
    ]
}

/// A fixed-bucket histogram. Buckets are cumulative at exposition time
/// (Prometheus `le` semantics); quantiles are derived by linear
/// interpolation within the bucket that crosses the rank.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds, ascending; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    counts: Vec<AtomicU64>,
    /// Sum of observations, accumulated in nanounits to stay atomic.
    sum_nano: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum_nano: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// A histogram with the [`default_latency_buckets`].
    pub fn latency() -> Histogram {
        Histogram::new(default_latency_buckets())
    }

    /// Record one observation (for latency series: seconds).
    pub fn observe(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nano.fetch_add((v * 1e9) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duration, in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum_nano.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The `q`-quantile (0 < q ≤ 1) estimated from the buckets: linear
    /// interpolation within the crossing bucket, the last finite bound
    /// for ranks landing in the overflow bucket. `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if seen + c >= rank {
                if i >= self.bounds.len() {
                    return Some(*self.bounds.last()?);
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let within = if c == 0 {
                    0.0
                } else {
                    (rank - seen) as f64 / c as f64
                };
                return Some(lo + (hi - lo) * within);
            }
            seen += c;
        }
        self.bounds.last().copied()
    }

    /// Median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// `(upper bound, cumulative count)` pairs, ending with `+Inf`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut acc = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// `(name, sorted label pairs)` — the identity of one series.
type SeriesKey = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

/// The registry: a named collection of series. Cheap to share
/// (`Arc<Metrics>`); series handles are themselves `Arc`s, so hot paths
/// register once and update without touching the registry again.
#[derive(Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<SeriesKey, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<SeriesKey, Arc<Gauge>>>,
    maxes: RwLock<BTreeMap<SeriesKey, Arc<MaxGauge>>>,
    histograms: RwLock<BTreeMap<SeriesKey, Arc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counter `name` (no labels), registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let k = key(name, labels);
        if let Some(c) = self.counters.read().expect("metrics poisoned").get(&k) {
            return c.clone();
        }
        self.counters
            .write()
            .expect("metrics poisoned")
            .entry(k)
            .or_default()
            .clone()
    }

    /// Expose `counter`, a handle its owner already counts on, as the
    /// series `name` (no labels), replacing any series of that name —
    /// for a component that counts whether or not a registry exists.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        self.counters
            .write()
            .expect("metrics poisoned")
            .insert(key(name, &[]), counter);
    }

    /// The gauge `name` (no labels).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge `name` with `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let k = key(name, labels);
        if let Some(g) = self.gauges.read().expect("metrics poisoned").get(&k) {
            return g.clone();
        }
        self.gauges
            .write()
            .expect("metrics poisoned")
            .entry(k)
            .or_default()
            .clone()
    }

    /// The running-maximum gauge `name` (no labels).
    pub fn max_gauge(&self, name: &str) -> Arc<MaxGauge> {
        let k = key(name, &[]);
        if let Some(m) = self.maxes.read().expect("metrics poisoned").get(&k) {
            return m.clone();
        }
        self.maxes
            .write()
            .expect("metrics poisoned")
            .entry(k)
            .or_default()
            .clone()
    }

    /// The latency histogram `name` (no labels, default buckets).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The latency histogram `name` with `labels` (default buckets).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let k = key(name, labels);
        if let Some(h) = self.histograms.read().expect("metrics poisoned").get(&k) {
            return h.clone();
        }
        self.histograms
            .write()
            .expect("metrics poisoned")
            .entry(k)
            .or_insert_with(|| Arc::new(Histogram::latency()))
            .clone()
    }

    /// Prometheus-style text exposition: counters, gauges, maxima
    /// (rendered as gauges), then histograms, each series sorted by
    /// `(name, labels)`. Deterministic for deterministic updates, which
    /// is what makes it snapshot-testable.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for ((name, labels), c) in self.counters.read().expect("metrics poisoned").iter() {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name}{} {}\n", render_labels(labels), c.get()));
        }
        for ((name, labels), g) in self.gauges.read().expect("metrics poisoned").iter() {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name}{} {}\n", render_labels(labels), g.get()));
        }
        for ((name, labels), m) in self.maxes.read().expect("metrics poisoned").iter() {
            type_line(&mut out, name, "gauge");
            let v = m
                .get()
                .map(|v| format!("{v:.6}"))
                .unwrap_or_else(|| "0".to_string());
            out.push_str(&format!("{name}{} {v}\n", render_labels(labels), v = v));
        }
        for ((name, labels), h) in self.histograms.read().expect("metrics poisoned").iter() {
            type_line(&mut out, name, "histogram");
            for (bound, cum) in h.cumulative_buckets() {
                let le = if bound.is_infinite() {
                    "+Inf".to_string()
                } else {
                    format!("{bound}")
                };
                let mut labels = labels.clone();
                labels.push(("le".to_string(), le));
                out.push_str(&format!("{name}_bucket{} {cum}\n", render_labels(&labels)));
            }
            out.push_str(&format!(
                "{name}_sum{} {:.6}\n",
                render_labels(labels),
                h.sum()
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                render_labels(labels),
                h.count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let m = Metrics::new();
        m.counter("sj_q_total").add(3);
        m.counter("sj_q_total").inc();
        assert_eq!(m.counter("sj_q_total").get(), 4);
        m.gauge("sj_depth").set(7);
        m.gauge("sj_depth").add(-2);
        assert_eq!(m.gauge("sj_depth").get(), 5);
        m.counter_with("sj_q_total", &[("class", "join")]).inc();
        assert_eq!(m.counter_with("sj_q_total", &[("class", "join")]).get(), 1);
        // The unlabeled series is distinct from the labeled one.
        assert_eq!(m.counter("sj_q_total").get(), 4);
    }

    #[test]
    fn max_gauge_ignores_nan() {
        let g = MaxGauge::default();
        assert_eq!(g.get(), None);
        g.observe(2.5);
        g.observe(17.0);
        g.observe(1.0);
        assert_eq!(g.get(), Some(17.0));
        // Junk must not poison the maximum: NaN's bit pattern compares
        // greater than every finite value's.
        g.observe(f64::NAN);
        g.observe(f64::INFINITY);
        g.observe(f64::NEG_INFINITY);
        g.observe(-3.0);
        g.observe(0.0);
        assert_eq!(g.get(), Some(17.0));
        g.observe(21.0);
        assert_eq!(g.get(), Some(21.0));
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0, 8.0, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert!((h.sum() - 32.0).abs() < 1e-6);
        // rank 5 = 50th pct falls in the (2,4] bucket.
        let p50 = h.p50().unwrap();
        assert!((2.0..=4.0).contains(&p50), "{p50}");
        // Overflow-bucket quantiles report the last finite bound.
        assert_eq!(h.p99(), Some(4.0));
        // Junk ignored.
        h.observe(f64::NAN);
        h.observe(-1.0);
        assert_eq!(h.count(), 10);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[3], (f64::INFINITY, 10));
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "cumulative");
    }

    #[test]
    fn exposition_is_deterministic_and_complete() {
        let m = Metrics::new();
        m.counter_with("sj_queries_total", &[("class", "join")])
            .add(2);
        m.counter_with("sj_queries_total", &[("class", "division")])
            .add(5);
        m.gauge("sj_sessions").set(3);
        m.max_gauge("sj_max_q_error").observe(4.5);
        let h = m.histogram("sj_query_seconds");
        h.observe(0.0001);
        h.observe(0.003);
        let text = m.expose();
        let again = m.expose();
        assert_eq!(text, again, "deterministic");
        assert!(text.contains("# TYPE sj_queries_total counter"));
        assert!(text.contains("sj_queries_total{class=\"division\"} 5"));
        assert!(text.contains("sj_queries_total{class=\"join\"} 2"));
        assert!(text.contains("sj_sessions 3"));
        assert!(text.contains("sj_max_q_error 4.500000"));
        assert!(text.contains("sj_query_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sj_query_seconds_count 2"));
        // Division sorts before join: label sets are ordered.
        let d = text.find("class=\"division\"").unwrap();
        let j = text.find("class=\"join\"").unwrap();
        assert!(d < j);
    }
}
