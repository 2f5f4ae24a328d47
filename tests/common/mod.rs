//! Shared by the root differential suites (`mod common;`).
// Each suite compiles its own copy and uses a different part of it.
#![allow(dead_code)]

use setjoins::eval::Strategy;
use setjoins::prelude::*;

/// Worker counts every suite runs its `Parallelism::Threads(n)` /
/// server-worker axis over: one worker (which resolves to the same
/// one-partition path as `Parallelism::Serial`, byte for byte), the
/// smallest real fan-out, and two counts past this workspace's typical
/// CI core count.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The configuration matrix, stated once: one labelled engine over `db`
/// per value of every live axis — 20 engines. `Strategy::Planned` ×
/// `OptimizeLevel` 2 × `Instrument` 2 × [`WORKER_COUNTS`] (16), plus
/// `Strategy::Naive` × `OptimizeLevel` 2 × `Instrument` 2 (4), which
/// always runs serially. Suites compare each against
/// `evaluate_reference`, the oracle no engine runs.
pub fn engines(db: &Database) -> Vec<(String, Engine)> {
    let mut out = Vec::new();
    for strategy in [Strategy::Planned, Strategy::Naive] {
        for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
            for instrument in [Instrument::Off, Instrument::Cardinalities] {
                let label = format!("{strategy}/{level}/{instrument:?}");
                let engine = Engine::new(db.clone())
                    .strategy(strategy)
                    .optimize(level)
                    .instrument(instrument);
                if strategy == Strategy::Naive {
                    out.push((label, engine));
                    continue;
                }
                for workers in WORKER_COUNTS {
                    out.push((
                        format!("{label}/{workers}w"),
                        engine.clone().parallelism(Parallelism::Threads(workers)),
                    ));
                }
            }
        }
    }
    out
}
