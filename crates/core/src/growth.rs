//! Empirical growth-exponent estimation.
//!
//! The paper's complexity statements are asymptotic; the reproduction
//! measures them. For an expression `E` and a scaling series of databases
//! `D₁, D₂, …`, the instrumented evaluator yields the maximum intermediate
//! size at each scale; the slope of the least-squares line through the
//! log-log points is the measured growth exponent. Theorem 17 predicts the
//! exponents over RA cluster at ≤ 1 and 2 with nothing in between — the
//! `dichotomy` experiment plots exactly this.

use sj_algebra::Expr;
use sj_eval::{evaluate_instrumented, EvalError};
use sj_storage::Database;

/// Least-squares slope of `log y` against `log x`. Points with `x ≤ 0` or
/// `y ≤ 0` are dropped (log undefined); fewer than two usable points give
/// slope 0.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// One point of a growth measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthPoint {
    /// Database size `|D|` (Definition 15).
    pub db_size: usize,
    /// Maximum intermediate cardinality over all subexpressions.
    pub max_intermediate: usize,
    /// Output cardinality.
    pub output: usize,
}

/// The result of measuring an expression across a scaling series.
#[derive(Debug, Clone)]
pub struct GrowthReport {
    /// One point per database, in input order.
    pub points: Vec<GrowthPoint>,
    /// Fitted exponent of `max_intermediate` vs `|D|`.
    pub exponent: f64,
}

impl GrowthReport {
    /// Classification thresholds used across the experiments: ≥ 1.7 is
    /// reported as quadratic-like, ≤ 1.3 as linear-like. Theorem 17 says
    /// RA expressions never land in between asymptotically; measured
    /// values on finite ranges cluster well inside these bands.
    pub fn classification(&self) -> &'static str {
        if self.exponent >= 1.7 {
            "quadratic-like"
        } else if self.exponent <= 1.3 {
            "linear-like"
        } else {
            "intermediate (increase the range!)"
        }
    }
}

/// Evaluate `e` on each database of the series and fit the growth
/// exponent of the maximum intermediate size.
pub fn measure_growth(e: &Expr, series: &[Database]) -> Result<GrowthReport, EvalError> {
    let mut points = Vec::with_capacity(series.len());
    for db in series {
        let (_, report) = evaluate_instrumented(e, db)?;
        points.push(GrowthPoint {
            db_size: report.db_size,
            max_intermediate: report.max_intermediate(),
            output: report.output_rows,
        });
    }
    let xy: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.db_size as f64, p.max_intermediate as f64))
        .collect();
    Ok(GrowthReport {
        points,
        exponent: log_log_slope(&xy),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_algebra::{division, Condition};
    use sj_storage::{Relation, Value};

    /// Division workload: `groups` A-values each related to all of
    /// `divisor` B-values (so the product node is maximal).
    fn division_series(sizes: &[i64]) -> Vec<Database> {
        sizes
            .iter()
            .map(|&k| {
                let mut rows = Vec::new();
                for a in 1..=k {
                    for b in 1..=k {
                        rows.push([a, 1000 + b]);
                    }
                }
                let slices: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
                let mut db = Database::new();
                db.set("R", Relation::from_int_rows(&slices));
                db.set("S", Relation::unary((1..=k).map(|b| Value::int(1000 + b))));
                db
            })
            .collect()
    }

    #[test]
    fn slope_of_exact_powers() {
        let lin: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&lin) - 1.0).abs() < 1e-9);
        let quad: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&quad) - 2.0).abs() < 1e-9);
        let nlogn: Vec<(f64, f64)> = (2..=12)
            .map(|i| {
                let n = (1 << i) as f64;
                (n, n * n.ln())
            })
            .collect();
        let s = log_log_slope(&nlogn);
        assert!(s > 1.0 && s < 1.35, "n log n slope ≈ 1.1–1.3, got {s}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(log_log_slope(&[]), 0.0);
        assert_eq!(log_log_slope(&[(1.0, 1.0)]), 0.0);
        assert_eq!(log_log_slope(&[(0.0, 5.0), (1.0, 1.0)]), 0.0);
        // identical x values: vertical line, slope undefined → 0
        assert_eq!(log_log_slope(&[(2.0, 1.0), (2.0, 9.0)]), 0.0);
    }

    #[test]
    fn division_plan_measures_superlinear() {
        // The dividend itself is k², so |D| ≈ k² + k and the product node
        // is ~k² ≈ |D|: this family alone doesn't separate. Use the
        // sparse family below instead; here just check the report's shape.
        let series = division_series(&[4, 8, 16]);
        let e = division::division_double_difference("R", "S");
        let report = measure_growth(&e, &series).unwrap();
        assert_eq!(report.points.len(), 3);
        assert!(report.exponent > 0.5);
    }

    /// Sparse division family: each A-value has exactly ONE B, divisor has
    /// k values ⇒ |D| = Θ(k) but the product node is Θ(k²).
    fn sparse_series(sizes: &[i64]) -> Vec<Database> {
        sizes
            .iter()
            .map(|&k| {
                let rows: Vec<[i64; 2]> = (1..=k).map(|a| [a, 1000 + (a % k)]).collect();
                let slices: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
                let mut db = Database::new();
                db.set("R", Relation::from_int_rows(&slices));
                db.set("S", Relation::unary((0..k).map(|b| Value::int(1000 + b))));
                db
            })
            .collect()
    }

    #[test]
    fn dichotomy_separates_on_sparse_family() {
        let series = sparse_series(&[8, 16, 32, 64]);
        // Quadratic plan: exponent near 2.
        let quad = division::division_double_difference("R", "S");
        let rq = measure_growth(&quad, &series).unwrap();
        assert!(rq.exponent > 1.7, "got {}", rq.exponent);
        assert_eq!(rq.classification(), "quadratic-like");
        // Linear expression: a semijoin-based filter; exponent near 1.
        let lin = Expr::rel("R")
            .semijoin(Condition::eq(2, 1), Expr::rel("S"))
            .project([1]);
        let rl = measure_growth(&lin, &series).unwrap();
        assert!(rl.exponent < 1.3, "got {}", rl.exponent);
        assert_eq!(rl.classification(), "linear-like");
    }
}
