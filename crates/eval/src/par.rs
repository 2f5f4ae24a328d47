//! The parallelism knob: how many worker threads the registry's
//! partition-parallel set operators may fan out to.
//!
//! The `Engine` builder stores it, and [`crate::Engine::divide`] /
//! [`crate::Engine::set_join`] hand its worker count to the registry's
//! `auto` selectors, which price the `parallel-hash` and
//! `parallel-signature` variants at it (they win on large set joins).
//! Plans do not read it: a [`crate::PhysicalPlan`] runs on the caller's
//! thread, one node after another, and every kernel runs one body over
//! whole operands. Splitting plan nodes into partitions or running
//! independent nodes on their own threads lost on every planned workload
//! measured (serial ÷ threaded below 1 at two cores), and the paper's
//! plans are linear or quadratic by their intermediates, whatever the
//! thread count.
//!
//! Parallel execution is **semantically invisible**: partition placement
//! is deterministic, workers never share mutable state, and every merge
//! re-establishes the canonical relation order, so any `Parallelism`
//! value produces byte-identical results (property-tested in
//! `tests/parallel.rs`). [`Parallelism::Serial`] is the default.

use std::fmt;

/// Worker-thread budget of the registry's set operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Parallelism {
    /// Single-threaded execution on the caller's thread — the default,
    /// and the behavior of every evaluator before the knob existed.
    #[default]
    Serial,
    /// Let the registry's partition-parallel set operators fan out over
    /// this many scoped worker threads. `Threads(0)` means "one worker
    /// per available CPU" (capped at 8). `Threads(1)` resolves to one
    /// worker ([`Parallelism::workers`]) and runs byte-for-byte what
    /// `Serial` runs.
    Threads(usize),
}

impl Parallelism {
    /// The effective worker count: `Serial` ⇒ 1, `Threads(0)` ⇒ one per
    /// available CPU (capped at 8), `Threads(n)` ⇒ `n` clamped to
    /// [`sj_setjoin::parallel::MAX_WORKERS`]. Delegates to
    /// [`sj_setjoin::parallel::resolve_workers`] — the one resolution
    /// rule shared with the registry's partition-parallel algorithms, so
    /// the engine and the set operators can never disagree on the
    /// budget.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => sj_setjoin::parallel::resolve_workers(n),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Threads(0) => write!(f, "threads(auto={})", self.workers()),
            Parallelism::Threads(n) => write!(f, "threads({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(1).workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert!(Parallelism::Threads(0).workers() >= 1);
        assert_eq!(
            Parallelism::Threads(usize::MAX).workers(),
            sj_setjoin::parallel::MAX_WORKERS
        );
    }

    #[test]
    fn default_is_serial() {
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Parallelism::Serial.to_string(), "serial");
        assert_eq!(Parallelism::Threads(4).to_string(), "threads(4)");
        assert!(Parallelism::Threads(0)
            .to_string()
            .starts_with("threads(auto="));
    }
}
