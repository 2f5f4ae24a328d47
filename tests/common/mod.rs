//! Shared by the root differential suites (`mod common;`).
// Each suite compiles its own copy and uses a different part of it.
#![allow(dead_code)]

use setjoins::eval::Strategy;
use setjoins::prelude::*;

/// Worker counts every suite runs its `Parallelism::Threads(n)` /
/// server-worker axis over: serial through the parallel code path, the
/// smallest real fan-out, and two counts past this workspace's typical
/// CI core count.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The configuration matrix, stated once: one labelled engine over `db`
/// per surviving value of every live axis — `Strategy` 3 ×
/// `OptimizeLevel` 3 × `Instrument` 2, and under `Strategy::Planned`
/// (the only strategy that reads them) also `JoinOrder` 2 ×
/// [`WORKER_COUNTS`].
pub fn engines(db: &Database) -> Vec<(String, Engine)> {
    let mut out = Vec::new();
    for strategy in [Strategy::Planned, Strategy::Naive, Strategy::Reference] {
        for level in [
            OptimizeLevel::Off,
            OptimizeLevel::Structural,
            OptimizeLevel::Full,
        ] {
            for instrument in [Instrument::Off, Instrument::Cardinalities] {
                let label = format!("{strategy}/{level}/{instrument:?}");
                let engine = Engine::new(db.clone())
                    .strategy(strategy)
                    .optimize(level)
                    .instrument(instrument);
                if strategy != Strategy::Planned {
                    out.push((label, engine));
                    continue;
                }
                for order in [JoinOrder::AsWritten, JoinOrder::Dp] {
                    for workers in WORKER_COUNTS {
                        out.push((
                            format!("{label}/{order}/{workers}w"),
                            engine
                                .clone()
                                .join_order(order)
                                .parallelism(Parallelism::Threads(workers)),
                        ));
                    }
                }
            }
        }
    }
    out
}
