//! The one-valued types the frozen `benchmark/` surface still passes.
//!
//! [`Execution`] used to select between row-at-a-time and vectorized
//! operator bodies, [`StatsMode`] between threshold rules and the cost
//! model, [`JoinOrder`] between the written join association and the
//! cost-based search. No caller chose the other fork, so all three are
//! gone: the planned path has one body per operator ([`crate::kernel`],
//! plus [`crate::ops_vec::select`] for σ), every plan and every
//! algorithm pick is costed from the engine's statistics catalog, and
//! every plan's join chains are ordered by [`crate::joinorder`]. What is
//! left here are one-variant types that `Engine::execution`,
//! `Engine::stats`, `Engine::join_order`, `ServerConfig::execution`,
//! `PhysicalPlan::execute_with_execution`, the order argument of
//! `PhysicalPlan::of_costed_with_order` and the `kernel::*` entry
//! points accept and ignore, because `benchmark/` compiles against those
//! signatures and only a benchmark-purpose PR may edit it; that PR drops
//! the arguments and these types with them (and, in `sj-algebra`, the
//! identity `OptimizeLevel::pipeline`). The test below fails, naming
//! the shim, as soon as `benchmark/` stops calling one.

/// The planned executor's operator implementations. One value: not an
/// option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Execution {
    /// Columnar kernels over [`sj_storage::Columns`] ([`crate::kernel`]).
    #[default]
    Vectorized,
}

/// Where the engine's statistics come from. One value: not an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StatsMode {
    /// Analyze each relation on first use and cache the result in the
    /// engine's shared [`sj_stats::StatsCatalog`], which re-analyzes
    /// whenever the stored relation was replaced or mutated.
    #[default]
    Cached,
}

/// How the planner associates join chains. One value: not an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinOrder {
    /// Exhaustive bushy dynamic programming up to
    /// [`crate::DP_MAX_RELATIONS`] relations (greedy pair-merging
    /// beyond), plus the worst-case-optimal multiway collapse for
    /// AGM-bound-beating cyclic chains ([`crate::joinorder`]).
    #[default]
    Dp,
}

#[cfg(test)]
mod tests {
    /// A shim may not outlive its caller: every accepted-and-ignored
    /// item exists only because `benchmark/src` still spells its call
    /// form. When a benchmark-purpose PR drops one, this names the shim
    /// to delete with it.
    #[test]
    fn every_shim_still_has_its_benchmark_caller() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/src");
        let mut source = String::new();
        for entry in std::fs::read_dir(dir).expect("benchmark/src is part of the checkout") {
            let path = entry.expect("readable directory entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                source += &std::fs::read_to_string(&path).expect("readable source file");
            }
        }
        for (call, shim) in [
            (
                "Execution::Vectorized",
                "sj_eval::Execution (with ServerConfig::execution and the kernels' `exec` argument)",
            ),
            (".execution(", "Engine::execution"),
            ("StatsMode::Cached", "sj_eval::StatsMode"),
            (".stats(StatsMode", "Engine::stats"),
            (
                "execute_with_execution",
                "PhysicalPlan::execute_with_execution",
            ),
            (".pipeline()", "sj_algebra::OptimizeLevel::pipeline"),
            (
                "JoinOrder::Dp",
                "sj_eval::JoinOrder (with PhysicalPlan::of_costed_with_order's order argument)",
            ),
            (".join_order(", "Engine::join_order"),
        ] {
            assert!(
                source.contains(call),
                "benchmark/src no longer contains `{call}`: delete the shim {shim}"
            );
        }
    }
}
