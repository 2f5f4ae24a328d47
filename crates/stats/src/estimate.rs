//! Cardinality estimation for algebra expressions and the direct set
//! operators.
//!
//! The estimator walks an [`Expr`] bottom-up, carrying per-column
//! distinct counts (and, where available, histograms) through the
//! operators:
//!
//! * **selection** selectivity comes from the column histogram for
//!   constant predicates and the distinct-count uniform assumption for
//!   column-column predicates;
//! * **join** cardinality uses the classical
//!   `|R|·|S| / max(d_R(a), d_S(b))` distinct-count formula per
//!   equality atom, capped by the `|R|·|S|` product — the binary
//!   special case of the AGM output bound (*Size bounds and query
//!   plans for relational joins*, Atserias–Grohe–Marx), which keeps
//!   a join estimate from ever exceeding what the join can produce;
//! * **division** output is estimated from the dividend's group
//!   statistics: each group qualifies with probability
//!   `p^|S|` where `p` is the per-element coverage probability
//!   ([`division_rows`]).
//!
//! Estimates are deliberately *upper-leaning*: their consumers rank
//! alternatives by cost (join orders, the multiway collapse, the
//! registry's algorithm pick), where an overestimate merely forfeits a
//! cheaper alternative while an underestimate would rank a plan with a
//! huge intermediate first. No estimate selects an operator body — the
//! planner picks hash or nested loop from θ alone.

use crate::catalog::StatsSource;
use crate::histogram::{Histogram, StringHistogram};
use crate::table::TableStats;
use sj_algebra::{CompOp, Condition, Expr, Selection};

/// Default selectivity of a `<` / `>` atom (the System R convention).
const RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity of a `≠` atom.
const NEQ_SEL: f64 = 0.9;

/// Estimated shape of one column of an intermediate result.
#[derive(Debug, Clone)]
pub struct ColEst {
    /// Estimated distinct values.
    pub distinct: f64,
    /// Estimated count of the column's most frequent value — the skew
    /// statistic behind [`eq_join_rows_skewed`]. `0.0` means unknown;
    /// consumers fall back to the uniform `rows / distinct`. Exact for
    /// base-table columns ([`TableStats`]' `max_freq`), inherited under
    /// the same structural-copy rule as [`ColEst::histogram`], and
    /// upper-leaning through filters (a selection can only shrink a
    /// value's count).
    pub max_freq: f64,
    /// Histogram inherited from the base relation, when the column is
    /// a structural copy of a base column (selections and reorderings
    /// preserve it; unions, differences and aggregates drop it).
    pub histogram: Option<Histogram>,
    /// Dictionary-code histogram of a string base column, inherited
    /// under the same structural-copy rule as [`ColEst::histogram`].
    pub strings: Option<StringHistogram>,
}

/// Estimated shape of an intermediate result.
#[derive(Debug, Clone)]
pub struct CardEst {
    /// Estimated output cardinality.
    pub rows: f64,
    /// **Guaranteed** upper bound on the output cardinality, derived
    /// without any selectivity assumption (selections and semijoins
    /// cannot grow their input, a join cannot exceed the operand
    /// product, a union cannot exceed the operand sum). Unlike
    /// [`CardEst::rows`] this can never under-estimate. Its consumer
    /// is the estimator itself: every [`CardEst::rows`] is clamped by
    /// it, so the values cost ranking reads (join order, the multiway
    /// choice) never exceed what the operator can produce.
    pub upper: f64,
    /// Per-column estimates (length = output arity).
    pub cols: Vec<ColEst>,
}

impl CardEst {
    /// Output arity of the estimated expression.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Clamp the row estimate by the guaranteed upper bound and every
    /// per-column distinct estimate by the row estimate (distinct
    /// values can never exceed rows).
    fn clamped(mut self) -> CardEst {
        self.rows = self.rows.min(self.upper);
        for c in &mut self.cols {
            c.distinct = c.distinct.min(self.rows).max(0.0);
            c.max_freq = c.max_freq.min(self.rows).max(0.0);
        }
        self
    }
}

/// The expression cardinality estimator over a [`StatsSource`].
pub struct Estimator<'a> {
    src: &'a dyn StatsSource,
}

impl<'a> Estimator<'a> {
    /// An estimator reading base-relation statistics from `src`.
    pub fn new(src: &'a dyn StatsSource) -> Estimator<'a> {
        Estimator { src }
    }

    /// Estimate the output shape of `expr`; `None` when statistics for
    /// some leaf relation are unavailable.
    pub fn estimate(&self, expr: &Expr) -> Option<CardEst> {
        Some(match expr {
            Expr::Rel(name) => {
                let t = self.src.table_stats(name)?;
                CardEst {
                    rows: t.rows as f64,
                    upper: t.rows as f64,
                    cols: t
                        .columns
                        .iter()
                        .map(|c| ColEst {
                            distinct: c.distinct as f64,
                            max_freq: c.max_freq as f64,
                            histogram: Some(c.histogram.clone()),
                            strings: c.strings.clone(),
                        })
                        .collect(),
                }
            }
            Expr::Union(a, b) => {
                let (a, b) = (self.estimate(a)?, self.estimate(b)?);
                CardEst {
                    rows: a.rows + b.rows,
                    upper: a.upper + b.upper,
                    cols: a
                        .cols
                        .iter()
                        .zip(&b.cols)
                        .map(|(x, y)| ColEst {
                            distinct: x.distinct + y.distinct,
                            max_freq: x.max_freq + y.max_freq,
                            histogram: None,
                            strings: None,
                        })
                        .collect(),
                }
                .clamped()
            }
            Expr::Diff(a, b) => {
                // Upper bound: the difference never outgrows the left
                // operand (estimating the overlap would need value-level
                // correlation the statistics don't carry).
                let a = self.estimate(a)?;
                let _ = self.estimate(b)?;
                a
            }
            Expr::Project(cols, a) => {
                let a = self.estimate(a)?;
                let kept: Vec<ColEst> = cols.iter().map(|&c| a.cols[c - 1].clone()).collect();
                // Set semantics dedups: output rows are bounded by the
                // joint distinct count of the kept columns.
                let joint: f64 = kept.iter().map(|c| c.distinct.max(1.0)).product();
                CardEst {
                    rows: a.rows.min(joint),
                    upper: a.upper,
                    cols: kept,
                }
                .clamped()
            }
            Expr::Select(sel, a) => {
                let a = self.estimate(a)?;
                let s = selection_selectivity(sel, &a);
                CardEst {
                    rows: a.rows * s,
                    // No selectivity assumption: a filter passes at
                    // worst everything.
                    upper: a.upper,
                    cols: a.cols,
                }
                .clamped()
            }
            Expr::ConstTag(_, a) => {
                let mut a = self.estimate(a)?;
                a.cols.push(ColEst {
                    distinct: 1.0,
                    // Every row carries the constant.
                    max_freq: a.rows,
                    histogram: None,
                    strings: None,
                });
                a
            }
            Expr::Join(theta, a, b) => {
                let (a, b) = (self.estimate(a)?, self.estimate(b)?);
                join_est(theta, &a, &b)
            }
            Expr::Semijoin(theta, a, b) => {
                let (a, b) = (self.estimate(a)?, self.estimate(b)?);
                let rows = a.rows * semijoin_selectivity(theta, &a, &b);
                CardEst {
                    rows,
                    upper: a.upper,
                    cols: a.cols,
                }
                .clamped()
            }
            Expr::GroupCount(cols, a) => {
                let a = self.estimate(a)?;
                let kept: Vec<ColEst> = cols
                    .iter()
                    .map(|&c| ColEst {
                        distinct: a.cols[c - 1].distinct,
                        max_freq: 0.0,
                        histogram: None,
                        strings: None,
                    })
                    .collect();
                let joint: f64 = kept.iter().map(|c| c.distinct.max(1.0)).product();
                let rows = if cols.is_empty() {
                    1.0
                } else {
                    a.rows.min(joint)
                };
                let count_col = ColEst {
                    distinct: rows.sqrt().max(1.0),
                    max_freq: 0.0,
                    histogram: None,
                    strings: None,
                };
                CardEst {
                    rows,
                    // γ emits at most one row per input row (plus the
                    // global-count row on empty input).
                    upper: a.upper.max(1.0),
                    cols: kept.into_iter().chain([count_col]).collect(),
                }
                .clamped()
            }
        })
    }
}

/// Selectivity of one selection predicate against an input estimate.
fn selection_selectivity(sel: &Selection, input: &CardEst) -> f64 {
    match sel {
        Selection::Eq(i, j) => {
            let (di, dj) = (input.cols[i - 1].distinct, input.cols[j - 1].distinct);
            1.0 / di.max(dj).max(1.0)
        }
        Selection::Lt(_, _) => RANGE_SEL,
        Selection::EqConst(i, c) => {
            let col = &input.cols[i - 1];
            // A string constant against a dictionary-encoded column:
            // the code histogram answers directly, and a constant
            // outside the dictionary selects exactly nothing.
            if let (Some(s), Some(sh)) = (c.as_str(), col.strings.as_ref()) {
                if sh.count() > 0 {
                    return (sh.estimate_eq(s) / sh.count() as f64).clamp(0.0, 1.0);
                }
            }
            match &col.histogram {
                Some(h) if h.count() > 0 => (h.estimate_eq(c) / h.count() as f64).clamp(0.0, 1.0),
                _ => 1.0 / col.distinct.max(1.0),
            }
        }
    }
}

/// Pairwise join estimate — the **order-costing primitive**: the
/// estimated shape of `a ⋈θ b` from the operand estimates alone. This
/// is the same combination rule [`Estimator::estimate`] applies to
/// join nodes, exposed so a join-order search can cost candidate
/// (partial) orders by folding it over operand estimates without
/// materializing a candidate expression tree per order. `rows` is
/// capped by the operand product (the binary AGM bound); `upper` stays
/// the guaranteed product bound.
pub fn join_est(theta: &Condition, a: &CardEst, b: &CardEst) -> CardEst {
    let rows = join_rows(theta, a, b);
    let upper = a.upper * b.upper;
    let cols = a.cols.iter().chain(&b.cols).cloned().collect();
    CardEst { rows, upper, cols }.clamped()
}

/// The AGM output bound of a **simple cycle** of binary relations
/// `R₁(x₁,x₂) ⋈ R₂(x₂,x₃) ⋈ … ⋈ Rₖ(xₖ,x₁)`: assigning fractional
/// edge-cover weight ½ to every edge covers each vertex exactly once,
/// so the bound is `∏ |Rᵢ|^½` (Atserias–Grohe–Marx). Any pairwise join
/// order must materialize an open path first, whose estimate can exceed
/// this — the trigger for the worst-case-optimal multiway join.
pub fn cycle_agm_bound(rel_rows: impl IntoIterator<Item = f64>) -> f64 {
    rel_rows
        .into_iter()
        .map(|r| r.max(1.0).sqrt())
        .product::<f64>()
}

/// Skew-aware estimate of the equality join `a.col_a = b.col_b`
/// (1-based columns): the true output is `Σ_v cntₐ(v)·cnt_b(v)`, which
/// is at most `min(|a|·m_b, |b|·m_a)` where `m` is the
/// most-frequent-value count ([`ColEst::max_freq`]) — tight exactly
/// when the heavy values align. Under uniform frequencies
/// (`m = rows/distinct`) this reduces to the classical
/// `|a|·|b| / max(d_a, d_b)` formula of [`join_est`], so it strictly
/// generalizes it; on hub-skewed columns it grows with the hub degree,
/// which the uniform formula averages away.
///
/// This is the **multiway-join trigger's** costing primitive: with
/// consistent uniform statistics (`rows ≤ ∏ distinct` per relation)
/// the classical pairwise estimates over a cycle can *never* exceed
/// the cycle's AGM output bound — their product telescopes to at most
/// `∏|Rᵢ|` — so only a skew statistic can detect the regime where
/// every pairwise order materializes a super-AGM intermediate.
pub fn eq_join_rows_skewed(a: &CardEst, a_col: usize, b: &CardEst, b_col: usize) -> f64 {
    let freq = |e: &CardEst, col: usize| {
        let c = &e.cols[col - 1];
        if c.max_freq > 0.0 {
            c.max_freq
        } else {
            e.rows / c.distinct.max(1.0)
        }
    };
    (a.rows * freq(b, b_col))
        .min(b.rows * freq(a, a_col))
        .min(a.rows * b.rows)
}

/// Estimated join output: the distinct-count formula per equality
/// atom, default selectivities for the inequality atoms, capped by the
/// AGM product bound.
fn join_rows(theta: &Condition, a: &CardEst, b: &CardEst) -> f64 {
    let product = a.rows * b.rows;
    let mut rows = product;
    for atom in theta.atoms() {
        let (da, db) = (
            a.cols[atom.left - 1].distinct,
            b.cols[atom.right - 1].distinct,
        );
        rows *= match atom.op {
            CompOp::Eq => 1.0 / da.max(db).max(1.0),
            CompOp::Neq => NEQ_SEL,
            CompOp::Lt | CompOp::Gt => RANGE_SEL,
        };
    }
    rows.min(product)
}

/// Estimated fraction of left tuples surviving `a ⋉θ b`: per equality
/// atom, the probability the left key value occurs on the right under
/// the domain-containment assumption.
fn semijoin_selectivity(theta: &Condition, a: &CardEst, b: &CardEst) -> f64 {
    if theta.is_empty() {
        // Unconditional semijoin = emptiness test on the right side.
        return if b.rows >= 0.5 { 1.0 } else { 0.0 };
    }
    let mut sel = 1.0;
    for atom in theta.atoms() {
        let (da, db) = (
            a.cols[atom.left - 1].distinct,
            b.cols[atom.right - 1].distinct,
        );
        sel *= match atom.op {
            CompOp::Eq => (db / da.max(1.0)).min(1.0),
            CompOp::Neq => 1.0,
            CompOp::Lt | CompOp::Gt => 1.0 - RANGE_SEL * 0.5,
        };
    }
    sel.clamp(0.0, 1.0)
}

/// Estimated division output `R(A,B) ÷ S(B)` from the dividend's group
/// statistics: under the uniform-coverage assumption each group holds
/// a given divisor element with probability
/// `p = min(1, mean_set / distinct_B)`, so a group contains all of `S`
/// with probability `p^|S|` — and only groups at least as large as the
/// divisor can qualify at all. The equality semantics additionally
/// requires the exact size match, modeled as one draw from the
/// observed set-size range.
pub fn division_rows(r: &TableStats, s_rows: usize, equality: bool) -> f64 {
    let Some(g) = &r.group else { return 0.0 };
    if g.groups == 0 {
        return 0.0;
    }
    if s_rows == 0 {
        // R ÷ ∅: every group qualifies under containment; equality
        // requires an empty set, which set semantics cannot store.
        return if equality { 0.0 } else { g.groups as f64 };
    }
    if g.max_set < s_rows {
        return 0.0;
    }
    let p_elem = (g.mean_set / r.distinct(1).max(1) as f64).min(1.0);
    // `p_elem > 0` whenever `groups > 0` (every group holds ≥ 1 row),
    // so the estimate is floored strictly above 0.0: `powi` used to
    // underflow to exactly 0 for divisors in the thousands, and a hard
    // 0 reads as "provably empty" to whatever ranks costs downstream.
    // See [`prob_pow`].
    let mut est = g.groups as f64 * prob_pow(p_elem, s_rows as f64);
    if equality {
        let size_span = (g.max_set - g.min_set + 1) as f64;
        est /= size_span;
    }
    est.clamp(f64::MIN_POSITIVE, g.groups as f64)
}

/// Estimated selectivity of `B-set ⊇ D-set` over group pairs: the
/// probability that one `containing` group covers one `contained`
/// group, under the same uniform-coverage assumption as
/// [`division_rows`]. Used by the cost model to price the exact
/// verification work behind a signature filter.
pub fn containment_selectivity(containing: &TableStats, contained: &TableStats) -> f64 {
    let (Some(cg), Some(dg)) = (&containing.group, &contained.group) else {
        return 0.0;
    };
    if cg.groups == 0 || dg.groups == 0 {
        return 0.0;
    }
    let p_elem = (cg.mean_set / containing.distinct(1).max(1) as f64).min(1.0);
    prob_pow(p_elem, dg.mean_set.max(1.0)).clamp(0.0, 1.0)
}

/// `p^n` for a probability `p ∈ [0, 1]`, computed in log-space and
/// floored at the smallest positive double. A strictly positive base
/// must never collapse to exactly 0.0: an estimate of 0 reads as
/// "provably empty" to cost ranking (a free plan always ranks first),
/// and `powi`/`powf` underflow to hard 0 once the exponent
/// reaches the low thousands. The log-space form keeps the result
/// positive and monotone in `n` all the way down.
fn prob_pow(p: f64, n: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else if p >= 1.0 || n <= 0.0 {
        1.0
    } else {
        (n * p.ln()).exp().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::{FxHashMap, Relation, Tuple, Value};
    use std::sync::Arc;

    fn pairs(rows: &[[i64; 2]]) -> Relation {
        Relation::from_tuples(2, rows.iter().map(|r| Tuple::from_ints(r))).unwrap()
    }

    fn source(rels: &[(&str, &Relation)]) -> FxHashMap<String, Arc<TableStats>> {
        rels.iter()
            .map(|(n, r)| (n.to_string(), Arc::new(TableStats::analyze(r))))
            .collect()
    }

    #[test]
    fn skewed_join_estimate_generalizes_the_uniform_formula() {
        // Uniform columns: the skew-aware bound collapses to the
        // classical |a|·|b| / max(d_a, d_b).
        let uni_rows: Vec<[i64; 2]> = (0..100).map(|i| [i % 10, i]).collect();
        let uni = pairs(&uni_rows);
        let src = source(&[("U", &uni)]);
        let e = Estimator::new(&src).estimate(&Expr::rel("U")).unwrap();
        let skewed = eq_join_rows_skewed(&e, 1, &e, 1);
        let uniform = join_rows(&Condition::eq(1, 1), &e, &e);
        assert_eq!(skewed, uniform, "uniform data: both formulas agree");

        // Hub column: value 0 occurs 100× among 199 rows. The uniform
        // formula averages the hub away; the skew-aware bound sees it.
        let mut hub_rows: Vec<[i64; 2]> = (0..100).map(|i| [0, i]).collect();
        hub_rows.extend((1..100).map(|i| [i, 0]));
        let hub = pairs(&hub_rows);
        let src = source(&[("H", &hub)]);
        let h = Estimator::new(&src).estimate(&Expr::rel("H")).unwrap();
        assert_eq!(h.cols[0].max_freq, 100.0);
        let skewed = eq_join_rows_skewed(&h, 1, &h, 1);
        let uniform = join_rows(&Condition::eq(1, 1), &h, &h);
        assert!(
            skewed > 5.0 * uniform,
            "hub blowup detected: skewed {skewed} vs uniform {uniform}"
        );
        // …and it is still a sound upper-style estimate, never above
        // the operand product.
        assert!(skewed <= h.rows * h.rows);
    }

    #[test]
    fn leaf_estimate_matches_stats() {
        let r = pairs(&[[1, 10], [1, 11], [2, 10]]);
        let src = source(&[("R", &r)]);
        let est = Estimator::new(&src).estimate(&Expr::rel("R")).unwrap();
        assert_eq!(est.rows, 3.0);
        assert_eq!(est.arity(), 2);
        assert_eq!(est.cols[0].distinct, 2.0);
        assert_eq!(est.cols[1].distinct, 2.0);
        assert!(Estimator::new(&src)
            .estimate(&Expr::rel("missing"))
            .is_none());
    }

    #[test]
    fn selection_and_projection_estimates() {
        let rows: Vec<[i64; 2]> = (0..100).map(|i| [i % 10, i]).collect();
        let r = pairs(&rows);
        let src = source(&[("R", &r)]);
        let e = Estimator::new(&src);
        // σ₁₌c: 10 rows per key, histogram-exact (narrow range).
        let sel = e
            .estimate(&Expr::rel("R").select_const(1, Value::int(3)))
            .unwrap();
        assert!((sel.rows - 10.0).abs() < 2.0, "rows = {}", sel.rows);
        // π₁ dedups to the 10 keys.
        let proj = e.estimate(&Expr::rel("R").project([1])).unwrap();
        assert!((proj.rows - 10.0).abs() < 1e-9);
        // Tag appends a constant column.
        let tag = e.estimate(&Expr::rel("R").tag(Value::int(9))).unwrap();
        assert_eq!(tag.arity(), 3);
        assert_eq!(tag.rows, 100.0);
    }

    #[test]
    fn join_estimate_uses_distinct_counts_and_caps_at_product() {
        let rows: Vec<[i64; 2]> = (0..100).map(|i| [i % 10, i]).collect();
        let r = pairs(&rows);
        let src = source(&[("R", &r)]);
        let e = Estimator::new(&src);
        // Self-join on the key: 100·100/10 = 1000 (actual: 10 keys ×
        // 10×10 pairs = 1000 — exact on this uniform input).
        let j = e
            .estimate(&Expr::rel("R").join(sj_algebra::Condition::eq(1, 1), Expr::rel("R")))
            .unwrap();
        assert!((j.rows - 1000.0).abs() < 1e-9);
        assert_eq!(j.arity(), 4);
        // The cartesian product is the AGM cap.
        let x = e
            .estimate(&Expr::rel("R").join(sj_algebra::Condition::always(), Expr::rel("R")))
            .unwrap();
        assert!((x.rows - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn semijoin_estimate_never_exceeds_left() {
        let rows: Vec<[i64; 2]> = (0..60).map(|i| [i % 6, i]).collect();
        let r = pairs(&rows);
        let s = pairs(&[[0, 1], [1, 2], [2, 3]]);
        let src = source(&[("R", &r), ("S", &s)]);
        let e = Estimator::new(&src);
        let sj = e
            .estimate(&Expr::rel("R").semijoin(sj_algebra::Condition::eq(1, 1), Expr::rel("S")))
            .unwrap();
        assert!(sj.rows <= 60.0);
        // 3 of 6 keys survive: 30 rows.
        assert!((sj.rows - 30.0).abs() < 1e-9);
    }

    #[test]
    fn division_rows_estimates() {
        // 20 groups over a 10-element domain, each group ~5 elements:
        // p = 0.5, |S| = 2 ⇒ about a quarter of the groups qualify.
        let rows: Vec<[i64; 2]> = (0..20)
            .flat_map(|g| (0..5).map(move |v| [g, (g * 3 + v * 2) % 10]))
            .collect();
        let r = TableStats::analyze(&pairs(&rows));
        let est = division_rows(&r, 2, false);
        assert!((3.0..8.0).contains(&est), "est = {est}");
        // Empty divisor: every group qualifies (containment).
        assert_eq!(division_rows(&r, 0, false), 20.0);
        assert_eq!(division_rows(&r, 0, true), 0.0);
        // Divisor larger than the largest set: impossible.
        assert_eq!(division_rows(&r, 50, false), 0.0);
        // Equality semantics is strictly more selective.
        assert!(division_rows(&r, 2, true) <= est);
    }

    #[test]
    fn division_estimate_never_underflows_to_zero_on_huge_divisors() {
        // Regression: `p_elem.powi(s_rows)` underflowed to exactly 0.0
        // once the divisor reached the low thousands (0.525^2000 ≈
        // 1e-560, far below the smallest denormal), and est_rows = 0
        // reads as "provably empty" — the registry's cost ranking
        // (which prices output and verification work from this
        // selectivity) then sees them as free, on precisely the inputs
        // where the choice matters most.
        //
        // One group with 2000 distinct elements and one with 100:
        // distinct(B) = 2000, mean_set = 1050, p_elem = 0.525 < 1,
        // max_set = 2000 so a 2000-element divisor passes the guards.
        let mut rows: Vec<[i64; 2]> = (0..2000).map(|v| [1, v]).collect();
        rows.extend((0..100).map(|v| [2, v]));
        let r = TableStats::analyze(&pairs(&rows));
        let at_boundary = division_rows(&r, 2000, false);
        assert!(
            at_boundary > 0.0,
            "underflow boundary must stay positive, got {at_boundary}"
        );
        // Equality semantics divides by the size span but must not
        // collapse to 0 either.
        assert!(division_rows(&r, 2000, true) > 0.0);
        // Still monotone: a bigger divisor is never *more* likely
        // to be contained.
        assert!(division_rows(&r, 2000, false) <= division_rows(&r, 500, false));
        // And the provably-empty guards still return hard zeros.
        assert_eq!(division_rows(&r, 2001, false), 0.0, "divisor > max_set");
    }

    #[test]
    fn containment_selectivity_never_underflows_on_huge_mean_sets() {
        // Same underflow through the powf path: one group of 5000
        // elements out of a 10000-element domain gives p = 0.5 and
        // mean_set = 5000 ⇒ 0.5^5000 underflows without log-space.
        let rows: Vec<[i64; 2]> = (0..5000).map(|v| [1, v * 2]).collect();
        let t = TableStats::analyze(&pairs(&rows));
        let sel = containment_selectivity(&t, &t);
        assert!(sel > 0.0, "powf underflow must be floored, got {sel}");
        assert!(sel <= 1.0);
    }

    #[test]
    fn join_est_matches_the_estimator_join_rule() {
        let r = pairs(&[[1, 10], [1, 11], [2, 10], [3, 12]]);
        let s = pairs(&[[10, 7], [11, 7], [12, 8]]);
        let src = source(&[("R", &r), ("S", &s)]);
        let e = Estimator::new(&src);
        let theta = sj_algebra::Condition::eq(2, 1);
        let via_expr = e
            .estimate(&Expr::rel("R").join(theta.clone(), Expr::rel("S")))
            .unwrap();
        let (er, es) = (
            e.estimate(&Expr::rel("R")).unwrap(),
            e.estimate(&Expr::rel("S")).unwrap(),
        );
        let via_fold = join_est(&theta, &er, &es);
        assert_eq!(via_fold.rows, via_expr.rows);
        assert_eq!(via_fold.upper, via_expr.upper);
        assert_eq!(via_fold.arity(), via_expr.arity());
        // AGM cap: never above the operand product.
        assert!(via_fold.rows <= er.rows * es.rows);
    }

    #[test]
    fn cycle_agm_bound_is_the_sqrt_product() {
        // Triangle of 100-row binary relations: bound = 100^(3/2) = 1000,
        // far below any pairwise intermediate product of 10_000.
        let b = cycle_agm_bound([100.0, 100.0, 100.0]);
        assert!((b - 1000.0).abs() < 1e-6, "bound = {b}");
        // Empty input: the empty product is 1 (the empty join's row).
        assert_eq!(cycle_agm_bound([]), 1.0);
        // Zero-row relations clamp to 1 so the bound stays usable.
        assert!(cycle_agm_bound([0.0, 4.0]) >= 1.0);
    }

    #[test]
    fn containment_selectivity_bounds() {
        let rows: Vec<[i64; 2]> = (0..30)
            .flat_map(|g| (0..4).map(move |v| [g, (g + v) % 8]))
            .collect();
        let t = TableStats::analyze(&pairs(&rows));
        let sel = containment_selectivity(&t, &t);
        assert!((0.0..=1.0).contains(&sel));
        assert!(sel > 0.0);
        let empty = TableStats::analyze(&Relation::empty(2));
        assert_eq!(containment_selectivity(&empty, &t), 0.0);
    }

    #[test]
    fn string_constant_selection_uses_the_code_histogram() {
        // 3 rows of "flu", 1 of "ague"; "pox" never occurs.
        let r = Relation::from_str_rows(&[
            &["an", "flu"],
            &["bob", "flu"],
            &["cal", "flu"],
            &["dee", "ague"],
        ]);
        let src = source(&[("R", &r)]);
        let e = Estimator::new(&src);
        let est = |s: &str| {
            e.estimate(&Expr::rel("R").select_const(2, Value::str(s)))
                .unwrap()
                .rows
        };
        assert!((est("flu") - 3.0).abs() < 1e-9, "flu = {}", est("flu"));
        assert!((est("ague") - 1.0).abs() < 1e-9);
        assert_eq!(est("pox"), 0.0, "outside the dictionary: provably empty");
        // Before the code histogram this fell back to 1/distinct = 2 rows.
    }

    #[test]
    fn union_and_diff_estimates_are_safe_upper_bounds() {
        let a = pairs(&[[1, 1], [2, 2]]);
        let b = pairs(&[[1, 1], [3, 3]]);
        let src = source(&[("A", &a), ("B", &b)]);
        let e = Estimator::new(&src);
        let u = e.estimate(&Expr::rel("A").union(Expr::rel("B"))).unwrap();
        assert!(u.rows >= 3.0, "union actual is 3, estimate {}", u.rows);
        let d = e.estimate(&Expr::rel("A").diff(Expr::rel("B"))).unwrap();
        assert_eq!(d.rows, 2.0, "difference upper bound = |A|");
    }

    #[test]
    fn group_count_estimate() {
        let rows: Vec<[i64; 2]> = (0..40).map(|i| [i % 4, i]).collect();
        let r = pairs(&rows);
        let src = source(&[("R", &r)]);
        let e = Estimator::new(&src);
        let g = e.estimate(&Expr::rel("R").group_count([1])).unwrap();
        assert!((g.rows - 4.0).abs() < 1e-9);
        assert_eq!(g.arity(), 2);
        let global = e.estimate(&Expr::rel("R").group_count([])).unwrap();
        assert_eq!(global.rows, 1.0);
    }
}
