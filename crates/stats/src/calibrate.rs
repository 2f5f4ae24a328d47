//! Cost-model calibration: refit the [`CostModel`] unit constants from
//! measured runtimes — the feedback loop that keeps cost-based
//! algorithm selection honest.
//!
//! Every cost formula in the `sj-setjoin` registry (and the analytic
//! kernel formulas below) is **linear** in the seven unit constants:
//! `cost(m) = Σᵢ mᵢ · φᵢ` for a feature vector `φ` determined by the
//! workload (input sizes, worker counts). That makes refitting a
//! weighted linear least-squares problem:
//!
//! 1. Collect observations — a feature vector per run plus its
//!    measured runtime. Features come either from evaluating a cost
//!    closure at basis models ([`Calibrator::observe_cost`]: set one
//!    constant to 1, the rest to 0 — linearity makes this exact) or
//!    from recorded kernel spans ([`Calibrator::observe_trace`]).
//! 2. Solve the normal equations with weights `1/t²` — minimizing
//!    **relative** error, so microsecond cache-hit-scale runs and
//!    hundred-millisecond scans pull equally on the fit; this is the
//!    property that preserves cost *rankings* across scales.
//! 3. Clamp negative constants to zero and re-solve without them
//!    (costs are physical: no primitive has negative unit cost), then
//!    rescale so `tuple_pass` stays the 1.0 numéraire; constants the
//!    observations never exercised keep their fallback values.

use crate::cost::{CostModel, COST_PARAMS};

/// One calibration data point: the per-constant work counts of a run
/// and its measured runtime.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Work attributable to each unit constant, in
    /// [`CostModel::to_array`] order.
    pub features: [f64; COST_PARAMS],
    /// Measured runtime (any fixed unit; the fit is scale-invariant up
    /// to the final renormalization).
    pub measured: f64,
}

/// Accumulates [`Observation`]s and refits a [`CostModel`] by weighted
/// least squares. See the module docs for the method.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    observations: Vec<Observation>,
}

impl Calibrator {
    /// An empty calibrator.
    pub fn new() -> Calibrator {
        Calibrator::default()
    }

    /// Number of observations collected.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Record one raw observation. Non-finite or non-positive
    /// measurements are dropped (a zero-time run carries no signal and
    /// would blow up the relative-error weights).
    pub fn observe(&mut self, features: [f64; COST_PARAMS], measured: f64) {
        if measured.is_finite() && measured > 0.0 && features.iter().all(|f| f.is_finite()) {
            self.observations.push(Observation { features, measured });
        }
    }

    /// Record an observation by **evaluating a cost formula at basis
    /// models**: the formulas are linear in the constants, so
    /// `cost(eᵢ)` (constant `i` = 1, the rest 0) *is* the `i`-th
    /// feature, exactly. This is how a caller feeds the registry's own
    /// `division_cost` / `set_join_cost` closures in without
    /// re-deriving any formula.
    pub fn observe_cost(&mut self, cost: impl Fn(&CostModel) -> f64, measured: f64) {
        let mut features = [0.0; COST_PARAMS];
        for (i, f) in features.iter_mut().enumerate() {
            let mut basis = [0.0; COST_PARAMS];
            basis[i] = 1.0;
            *f = cost(&CostModel::from_array(basis));
        }
        self.observe(features, measured);
    }

    /// Refit the constants. Constants with no support in the
    /// observations (zero feature everywhere) keep their `fallback`
    /// values; with no usable observations at all the fallback is
    /// returned unchanged.
    pub fn fit(&self, fallback: &CostModel) -> CostModel {
        if self.observations.is_empty() {
            return fallback.clone();
        }
        let supported: Vec<usize> = (0..COST_PARAMS)
            .filter(|&i| self.observations.iter().any(|o| o.features[i] != 0.0))
            .collect();
        if supported.is_empty() {
            return fallback.clone();
        }
        // Iterative non-negativity: solve, pin negative constants to
        // zero, re-solve over the survivors.
        let mut active = supported.clone();
        let mut solution = [0.0; COST_PARAMS];
        loop {
            let Some(x) = self.solve_weighted(&active) else {
                return fallback.clone();
            };
            let negative: Vec<usize> = active
                .iter()
                .enumerate()
                .filter(|&(k, _)| x[k] < 0.0)
                .map(|(_, &p)| p)
                .collect();
            for (k, &p) in active.iter().enumerate() {
                solution[p] = x[k].max(0.0);
            }
            if negative.is_empty() {
                break;
            }
            active.retain(|p| !negative.contains(p));
            if active.is_empty() {
                return fallback.clone();
            }
        }
        let fb = fallback.to_array();
        let mut out = fb;
        // Keep tuple_pass as the numéraire so calibrated constants stay
        // comparable to the hand-calibrated ones (which sit in
        // tuple-operation units, while the fit is in measured-time
        // units). Pure rescaling of the *fitted* constants — the cost
        // ranking between any two algorithms is unchanged, and
        // constants kept from the fallback are already in tuple units.
        let scale = if supported.contains(&0) && solution[0] > 0.0 && fb[0] > 0.0 {
            fb[0] / solution[0]
        } else {
            1.0
        };
        for &p in &supported {
            out[p] = solution[p] * scale;
        }
        CostModel::from_array(out)
    }

    /// Weighted normal equations over the `active` parameter subset;
    /// `None` if the system is singular.
    fn solve_weighted(&self, active: &[usize]) -> Option<Vec<f64>> {
        let k = active.len();
        let mut a = vec![vec![0.0f64; k]; k];
        let mut b = vec![0.0f64; k];
        for o in &self.observations {
            let w = 1.0 / (o.measured * o.measured);
            for (r, &pr) in active.iter().enumerate() {
                let fr = o.features[pr];
                if fr == 0.0 {
                    continue;
                }
                b[r] += w * fr * o.measured;
                for (c, &pc) in active.iter().enumerate() {
                    a[r][c] += w * fr * o.features[pc];
                }
            }
        }
        // Jacobi equilibration: rescale so every diagonal entry is 1.
        // The raw normal equations mix feature magnitudes spanning many
        // orders (row counts vs fixed setup indicators), which wrecks
        // Gaussian elimination's accuracy; after equilibration the
        // ridge below is relative by construction.
        let d: Vec<f64> = (0..k).map(|i| a[i][i].sqrt()).collect();
        if !d.iter().all(|&x| x > 0.0) {
            return None;
        }
        for (r, row) in a.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v /= d[r] * d[c];
            }
            b[r] /= d[r];
        }
        // Tikhonov nudge keeps near-collinear feature sets (setup vs
        // partition_setup on same-shape workloads) solvable without
        // visibly moving well-conditioned fits.
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += 1e-9;
        }
        let y = gaussian_solve(a, b)?;
        Some(y.iter().zip(&d).map(|(yi, di)| yi / di).collect())
    }

    /// Feed recorded kernel spans from a trace. Each closed
    /// `kernel.join` / `kernel.semijoin` / `kernel.merge_join` /
    /// `kernel.merge_semijoin` / `kernel.multiway` span contributes one
    /// observation with analytic features derived from its recorded
    /// operand sizes, output rows, and worker count; runtimes are the
    /// span durations in microseconds.
    pub fn observe_trace(&mut self, log: &sj_obs::TraceLog) {
        for r in &log.records {
            let Some(duration) = r.duration() else {
                continue;
            };
            let measured = duration.as_nanos() as f64 / 1_000.0;
            let out = r.attr_u64("out_rows").unwrap_or(0) as f64;
            let workers = r.attr_u64("workers").unwrap_or(1).max(1) as f64;
            let l = r.attr_u64("left").unwrap_or(0) as f64;
            let rr = r.attr_u64("right").unwrap_or(0) as f64;
            let rows = r.attr_u64("rows").unwrap_or(0) as f64;
            // Per-constant work counts, in to_array order:
            // [tuple_pass, hash_op, setup, partition_setup, spawn,
            //  sig_test, verify].
            let mut f = [0.0; COST_PARAMS];
            match r.name {
                "kernel.join" | "kernel.semijoin" => {
                    f[2] = 1.0;
                    f[1] = (l + rr) / workers;
                    f[0] = (l + rr + out) / workers;
                }
                "kernel.merge_join" | "kernel.merge_semijoin" => {
                    f[2] = 1.0;
                    f[0] = (l + rr + out) / workers;
                }
                "kernel.multiway" => {
                    f[2] = 1.0;
                    f[1] = rows / workers;
                    f[0] = (rows + out) / workers;
                }
                _ => continue,
            }
            if workers > 1.0 {
                // Parallel runs pay partition bookkeeping, one
                // partitioning pass over both inputs, and the spawns.
                f[3] = 1.0;
                f[4] = workers;
                f[0] += l + rr + rows;
            }
            self.observe(f, measured);
        }
    }
}

/// Solve `a · x = b` by Gaussian elimination with partial pivoting.
fn gaussian_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite")
        })?;
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col].clone();
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for (av, &pv) in a[row].iter_mut().zip(&pivot_row).skip(col) {
                *av -= factor * pv;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for c in row + 1..n {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_linear_data_is_recovered() {
        // Synthesize runtimes from a known model; the fit must recover
        // it (up to the tuple_pass renormalization, which is identity
        // here because the ground truth already has tuple_pass = 1).
        let truth = CostModel {
            tuple_pass: 1.0,
            hash_op: 2.5,
            setup: 150.0,
            partition_setup: 300.0,
            spawn: 2000.0,
            sig_test: 0.4,
            verify: 0.9,
        };
        let mut cal = Calibrator::new();
        // Shapes chosen to decorrelate the constants: varying
        // tuple:hash ratios, varying worker counts, sig:verify ratios.
        let shapes: Vec<[f64; COST_PARAMS]> = vec![
            [1000.0, 300.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [5000.0, 4000.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [20000.0, 5000.0, 1.0, 1.0, 4.0, 0.0, 0.0],
            [80000.0, 60000.0, 1.0, 1.0, 8.0, 0.0, 0.0],
            [3000.0, 0.0, 1.0, 0.0, 0.0, 9000.0, 700.0],
            [12000.0, 0.0, 1.0, 0.0, 0.0, 20000.0, 9000.0],
            [500.0, 250.0, 1.0, 0.0, 0.0, 1000.0, 50.0],
            [60000.0, 100.0, 1.0, 1.0, 2.0, 0.0, 0.0],
            [40000.0, 10000.0, 1.0, 1.0, 16.0, 0.0, 0.0],
            [700.0, 100.0, 1.0, 0.0, 0.0, 500.0, 2000.0],
        ];
        let t = truth.to_array();
        for f in &shapes {
            let measured: f64 = f.iter().zip(&t).map(|(a, b)| a * b).sum();
            cal.observe(*f, measured);
        }
        let fitted = cal.fit(&CostModel::default()).to_array();
        for (i, (&got, &want)) in fitted.iter().zip(&t).enumerate() {
            assert!(
                (got - want).abs() <= 1e-3 * want.max(1.0),
                "param {i}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn observe_cost_extracts_features_via_basis_models() {
        let mut cal = Calibrator::new();
        // A toy linear cost: 3 tuple passes + 2 hash ops + setup.
        cal.observe_cost(|m| 3.0 * m.tuple_pass + 2.0 * m.hash_op + m.setup, 42.0);
        assert_eq!(cal.len(), 1);
        let o = &cal.observations[0];
        assert_eq!(o.features[0], 3.0);
        assert_eq!(o.features[1], 2.0);
        assert_eq!(o.features[2], 1.0);
        assert_eq!(o.features[3..], [0.0; 4]);
    }

    #[test]
    fn unsupported_constants_keep_fallback_and_junk_is_dropped() {
        let mut cal = Calibrator::new();
        cal.observe([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], f64::NAN);
        cal.observe([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.0);
        assert!(cal.is_empty());
        // Only tuple_pass is exercised.
        cal.observe([100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 200.0);
        cal.observe([400.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 800.0);
        let fallback = CostModel::default();
        let fitted = cal.fit(&fallback);
        // tuple_pass renormalized to the numéraire; everything else
        // untouched.
        assert_eq!(fitted.tuple_pass, fallback.tuple_pass);
        assert_eq!(fitted.spawn, fallback.spawn);
        assert_eq!(fitted.sig_test, fallback.sig_test);
    }

    #[test]
    fn negative_solutions_are_clamped() {
        let mut cal = Calibrator::new();
        // Data that would push hash_op negative in an unconstrained
        // fit: runtime *decreases* as the hash share grows.
        cal.observe([1000.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1000.0);
        cal.observe([1000.0, 500.0, 1.0, 0.0, 0.0, 0.0, 0.0], 800.0);
        cal.observe([1000.0, 1000.0, 1.0, 0.0, 0.0, 0.0, 0.0], 600.0);
        let fitted = cal.fit(&CostModel::default());
        assert!(fitted.hash_op >= 0.0);
        assert!(fitted.tuple_pass > 0.0);
    }

    #[test]
    fn empty_calibrator_returns_fallback() {
        let fallback = CostModel::default();
        assert_eq!(Calibrator::new().fit(&fallback), fallback);
    }

    #[test]
    fn fit_is_invariant_to_the_measurement_unit() {
        // The same runs expressed in nanoseconds and in milliseconds
        // must calibrate to the same model: 1/t² weighting makes the
        // objective scale-free and the tuple_pass numéraire removes
        // the remaining global factor.
        let shapes: [[f64; COST_PARAMS]; 4] = [
            [1000.0, 300.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [5000.0, 4000.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [60000.0, 100.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [800.0, 700.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        ];
        let truth = [1.0, 2.2, 180.0];
        let measure = |f: &[f64; COST_PARAMS]| f[0] * truth[0] + f[1] * truth[1] + f[2] * truth[2];
        let mut ns = Calibrator::new();
        let mut ms = Calibrator::new();
        for f in &shapes {
            ns.observe(*f, measure(f) * 1e6);
            ms.observe(*f, measure(f) * 1e-3);
        }
        let a = ns.fit(&CostModel::default()).to_array();
        let b = ms.fit(&CostModel::default()).to_array();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0), "{x} vs {y}");
        }
        assert!(
            (a[1] - truth[1]).abs() < 1e-3,
            "hash_op recovered: {}",
            a[1]
        );
    }
}
