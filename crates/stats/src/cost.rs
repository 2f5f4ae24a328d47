//! The cost model: complexity classes, and the seven unit costs that
//! rank algorithms inside one class.
//!
//! Definition 16 of the paper classifies expressions by the asymptotic
//! growth of their largest intermediate; [`ComplexityClass`] carries
//! that classification for the direct algorithms (it lives here, at the
//! bottom of the dependency graph, so both the `sj-setjoin` registry
//! and the planner can speak it). A complexity class alone cannot rank
//! two linear algorithms, so [`CostModel`] supplies the unit costs the
//! registry's per-algorithm formulas combine into a scalar
//! **estimated cost** in abstract *tuple-operation units*: one unit ≈
//! touching one tuple in a tight merge scan (a handful of nanoseconds
//! on current hardware).
//!
//! A constant exists only for a decision execution honours: the
//! registry's `auto` selectors are its one reader (plan nodes run on the
//! caller's thread, so nothing else is priced per worker).
//! [`CostModel::default`] is the one statement of the seven values;
//! they are hand-set, and nothing in the workspace refits them. What
//! checks them is the benchmark (`benchmark/`, metric names in
//! `/BENCHMARK.json`): `setjoin.auto_regret.*` is the registry
//! selector's pick ÷ the fastest registered algorithm — a refit is an
//! edit of `Default` measured there.

use std::fmt;

/// Asymptotic running-time class of an algorithm, in the spirit of
/// Definition 16 of the paper (which classifies *expressions* by the
/// growth of their largest intermediate; for direct algorithms the
/// analogous measure is total work in the input size `n`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum ComplexityClass {
    /// `O(n)` (possibly expected, for hash-based algorithms) plus output.
    Linear,
    /// `O(n log n)` plus output — the "sorting or counting tricks" of the
    /// paper's footnote 1.
    Quasilinear,
    /// `Ω(n²)` worst case — the class Proposition 26 proves unavoidable
    /// for division *inside* RA, and the best known bound for
    /// set-containment joins.
    Quadratic,
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComplexityClass::Linear => write!(f, "O(n)"),
            ComplexityClass::Quasilinear => write!(f, "O(n log n)"),
            ComplexityClass::Quadratic => write!(f, "O(n²)"),
        }
    }
}

/// Unit costs for the primitive operations the algorithms are built
/// from, in tuple-operation units (see the module docs). All fields are
/// public so a caller of the registry can ablate single constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Touching one tuple in a tight sequential scan or merge.
    pub tuple_pass: f64,
    /// Hashing a value and touching a hash-table slot (build or probe).
    pub hash_op: f64,
    /// Fixed cost of setting up per-operator hash machinery
    /// (allocating tables, signatures).
    pub setup: f64,
    /// Fixed cost of partition bookkeeping (postings index, partition
    /// vectors, result merge) beyond the per-tuple passes.
    pub partition_setup: f64,
    /// Spawning and joining one scoped worker thread. Dominant for
    /// small inputs — tens of microseconds, i.e. thousands of tuple
    /// units — which is what makes parallel variants lose at low scale.
    pub spawn: f64,
    /// One 64-bit signature containment/equality test on a candidate
    /// pair.
    pub sig_test: f64,
    /// Comparing one element during exact set-predicate verification.
    pub verify: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            tuple_pass: 1.0,
            hash_op: 1.8,
            setup: 200.0,
            partition_setup: 500.0,
            spawn: 4000.0,
            sig_test: 0.28,
            verify: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexity_classes_render_and_order() {
        assert_eq!(ComplexityClass::Linear.to_string(), "O(n)");
        assert_eq!(ComplexityClass::Quasilinear.to_string(), "O(n log n)");
        assert_eq!(ComplexityClass::Quadratic.to_string(), "O(n²)");
        assert!(ComplexityClass::Linear < ComplexityClass::Quasilinear);
        assert!(ComplexityClass::Quasilinear < ComplexityClass::Quadratic);
    }
}
