//! Shared by the root differential suites (`mod common;`).
// Each suite compiles its own copy and uses a different part of it.
#![allow(dead_code)]

use setjoins::eval::Strategy;
use setjoins::prelude::*;

/// Worker counts every suite runs its `Parallelism::Threads(n)` /
/// server-worker axis over: one worker, the smallest real fan-out, and
/// two counts past this workspace's typical CI core count. Plans ignore
/// `Parallelism`; the axis exercises the registry's partition-parallel
/// set operators and the server's worker pool.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The configuration matrix, stated once: one labelled engine over `db`
/// per value of every live axis — 8 engines. `Strategy` 2 ×
/// `OptimizeLevel` 2 × `Instrument` 2. `Parallelism` is not an axis: no
/// plan reads it. Suites compare each against `evaluate_reference`, the
/// oracle no engine runs.
pub fn engines(db: &Database) -> Vec<(String, Engine)> {
    let mut out = Vec::new();
    for strategy in [Strategy::Planned, Strategy::Naive] {
        for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
            for instrument in [Instrument::Off, Instrument::Cardinalities] {
                let engine = Engine::new(db.clone())
                    .strategy(strategy)
                    .optimize(level)
                    .instrument(instrument);
                out.push((format!("{strategy}/{level}/{instrument:?}"), engine));
            }
        }
    }
    out
}
