//! Shared by the root differential suites (`mod common;`).

/// Worker counts every suite runs its `Parallelism::Threads(n)` /
/// server-worker axis over: serial through the parallel code path, the
/// smallest real fan-out, and two counts past this workspace's typical
/// CI core count.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
