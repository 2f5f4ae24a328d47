//! The execution-mode type: one value, kept for the callers that still
//! pass it.
//!
//! [`Execution`] used to select between row-at-a-time and vectorized
//! operator bodies. The row fork served no workload and won no
//! measurement, so it is gone: the planned path has one body per
//! operator ([`crate::kernel`], plus [`crate::ops_vec::select`] for σ),
//! and the tuple operators of [`crate::ops`] remain only as the
//! [`crate::engine::Strategy::Naive`] evaluator and the kernels'
//! fallback. What is left here is a one-variant type that
//! `Engine::execution`, `ServerConfig::execution`,
//! `PhysicalPlan::execute_with_execution` and the `kernel::*` entry
//! points accept and ignore, because `benchmark/` compiles against those
//! signatures and only a benchmark-purpose PR may edit it; that PR drops
//! the argument and this type with it.

/// The planned executor's operator implementations. One value: not an
/// option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Execution {
    /// Columnar kernels over [`sj_storage::Columns`] ([`crate::kernel`]).
    #[default]
    Vectorized,
}
