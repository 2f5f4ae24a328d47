//! One run of one workload: repeated set-up, warm-up, timed rounds, answer
//! verification, and the reduction to the end-to-end metrics.
//!
//! Work is fixed by op count per round (so counts repeat exactly) and
//! rounds repeat until `--seconds` of timed work is done. Per-round values
//! are reduced by their median across rounds.

use crate::batch;
use crate::gen::{self, Scale};
use crate::serve::{self, Kind, Oracle, Params, Runner, Served, Verifier};
use crate::stats::{median, percentile};

/// A full set-up is timed this many times before the rounds (the last one
/// is kept for the run) and as many times again after them, on the same
/// inputs; `setup_s` is the median of all of them. A single 0.1 s set-up
/// does not repeat within a tenth, and samples at both ends of the run keep
/// a slow spell of the host at either end to half of them.
pub const SETUPS_EACH_END: usize = 5;

/// Passes per `batch-paper` round: 26 × 8 classes = 208 ops, the fewest
/// with ten beyond their p95.
pub fn batch_passes(scale: Scale) -> usize {
    scale.pick(26, 3)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Serve(Kind),
    Batch,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve-hot" => Workload::Serve(Kind::Hot),
            "serve-cold" => Workload::Serve(Kind::Cold),
            "serve-churn" => Workload::Serve(Kind::Churn),
            "batch-paper" => Workload::Batch,
            _ => return None,
        })
    }
}

pub struct Config {
    pub workload: Workload,
    pub name: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub nproc: usize,
}

/// One timed round, reduced to what the metrics need (the latencies
/// themselves are dropped, so they do not sit in the peak memory).
#[derive(Clone, Copy)]
pub struct RoundSummary {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-op latency at p50 and p95.
    pub latency_ms: [f64; 2],
}

impl RoundSummary {
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

pub struct Measured {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<RoundSummary>,
    /// Facts for the result stamp: op counts, database sizes.
    pub facts: Vec<(String, String)>,
}

/// Keep running rounds until the timed total is as close to `seconds` as
/// whole rounds get.
fn timed_rounds(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<RoundSummary, String>,
) -> Result<Vec<RoundSummary>, String> {
    let mut rounds: Vec<RoundSummary> = Vec::new();
    let mut timed = 0.0;
    loop {
        let r = round(rounds.len() + 1)?;
        timed += r.wall_s;
        let last = r.wall_s;
        rounds.push(r);
        if timed + last / 2.0 >= seconds {
            return Ok(rounds);
        }
    }
}

/// Set up `SETUPS_EACH_END` times, pushing each one's seconds onto `times`;
/// the last set-up is returned.
fn repeat_set_up<T>(times: &mut Vec<f64>, mut set_up: impl FnMut() -> T) -> T {
    let mut kept = None;
    for _ in 0..SETUPS_EACH_END {
        // Tear the previous one down first: its teardown is not set-up,
        // and two live copies would double the peak memory.
        drop(kept.take());
        let started = std::time::Instant::now();
        kept = Some(set_up());
        times.push(started.elapsed().as_secs_f64());
    }
    kept.expect("SETUPS_EACH_END > 0")
}

/// p50 and p95 of a round's latencies. `Err` when the round has fewer than
/// ten samples beyond a percentile — except at the smoke-test scale, where
/// the number is not for use, only its presence.
fn round_percentiles(latencies_ms: &[f64], scale: Scale) -> Result<[f64; 2], String> {
    let at = |p: f64| match percentile(latencies_ms, p) {
        Some(value) => Ok(value),
        None if scale == Scale::Quick => Ok(latencies_ms.iter().copied().fold(f64::MIN, f64::max)),
        None => Err(format!(
            "p{p} needs ten samples beyond it; a round of {} ops is too short",
            latencies_ms.len()
        )),
    };
    Ok([at(50.0)?, at(95.0)?])
}

/// Reduce a serving round, checking the answers it kept.
pub fn summarize(
    verifier: &mut Verifier<'_>,
    mut round: serve::Round,
    scale: Scale,
) -> Result<RoundSummary, String> {
    let failed = round.failed(verifier);
    let latencies_ms: Vec<f64> = round
        .clients
        .into_iter()
        .flat_map(|c| c.latencies_ms)
        .collect();
    Ok(RoundSummary {
        wall_s: round.wall_s,
        attempted: latencies_ms.len() as u64,
        failed,
        latency_ms: round_percentiles(&latencies_ms, scale)?,
    })
}

/// Reduce a `batch-paper` round.
pub fn summarize_batch(round: &batch::Round, scale: Scale) -> Result<RoundSummary, String> {
    Ok(RoundSummary {
        wall_s: round.wall_s,
        attempted: round.latencies_ms.len() as u64,
        failed: round.failed,
        latency_ms: round_percentiles(&round.latencies_ms, scale)?,
    })
}

fn serve_facts(served: &Served, params: &Params, stream: &[gen::Op]) -> Vec<(String, String)> {
    let db = &served.inputs.db;
    let mut facts = vec![
        (
            "stream_fingerprint_client0_round1".to_string(),
            format!("{:016x}", gen::stream_fingerprint(stream)),
        ),
        ("clients".to_string(), params.clients.to_string()),
        ("workers".to_string(), params.workers.to_string()),
        ("ops_per_client_round".to_string(), params.ops.to_string()),
        ("inserts_per_round".to_string(), params.inserts.to_string()),
        (
            "analyzes_per_round".to_string(),
            params.analyzes.to_string(),
        ),
        (
            "pool_queries".to_string(),
            served.inputs.pool.len().to_string(),
        ),
        ("database_tuples".to_string(), db.size().to_string()),
    ];
    facts.extend(
        db.iter()
            .map(|(n, r)| (format!("rows.{n}"), r.len().to_string())),
    );
    facts
}

pub fn measure(cfg: &Config) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(2 * SETUPS_EACH_END);
    let (rounds, facts) = match cfg.workload {
        Workload::Serve(kind) => {
            let params = Params::of(kind, cfg.nproc, cfg.scale);
            let set_up = || serve::set_up(cfg.seed, cfg.scale, &params);
            let served = repeat_set_up(&mut setup_s, set_up);
            let run = {
                let oracle = Oracle::new(&served.inputs);
                let mut runner = Runner::new(&served, &oracle, params, cfg.seed);
                let mut verifier = Verifier::new(&served, &oracle);
                // Warm-up: fills both cache tiers, wakes the pool, faults pages in.
                summarize(&mut verifier, runner.round(0, false, false), cfg.scale)?;
                let rounds = timed_rounds(cfg.seconds, |i| {
                    summarize(&mut verifier, runner.round(i, false, false), cfg.scale)
                })?;
                (rounds, serve_facts(&served, &params, &runner.stream(0, 1)))
            };
            drop(served);
            drop(repeat_set_up(&mut setup_s, set_up));
            run
        }
        Workload::Batch => {
            let set_up = || batch::set_up(cfg.seed, cfg.scale, cfg.nproc);
            let batch = repeat_set_up(&mut setup_s, set_up);
            let expected = batch::oracle(&batch);
            let passes = batch_passes(cfg.scale);
            batch::round(&batch, &expected, passes, false);
            let rounds = timed_rounds(cfg.seconds, |_| {
                summarize_batch(&batch::round(&batch, &expected, passes, false), cfg.scale)
            })?;
            let db = &batch.inputs.db;
            let mut facts = vec![
                ("passes_per_round".to_string(), passes.to_string()),
                ("threads".to_string(), cfg.nproc.to_string()),
                ("database_tuples".to_string(), db.size().to_string()),
            ];
            facts.extend(
                db.iter()
                    .map(|(n, r)| (format!("rows.{n}"), r.len().to_string())),
            );
            drop(batch);
            drop(repeat_set_up(&mut setup_s, set_up));
            (rounds, facts)
        }
    };
    Ok(Measured {
        setup_s,
        rounds,
        facts,
    })
}

/// `VmHWM` of this process in MB: the peak resident set.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median across `rounds` of a per-round value.
pub fn across(rounds: &[RoundSummary], value: impl Fn(&RoundSummary) -> f64) -> f64 {
    median(&rounds.iter().map(value).collect::<Vec<_>>())
}

/// The end-to-end metrics, in `metrics::END_TO_END` order.
pub fn end_to_end(m: &Measured) -> [f64; 3] {
    [
        across(&m.rounds, RoundSummary::throughput),
        peak_rss_mb(),
        median(&m.setup_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use setjoins::storage::Relation;
    use std::sync::Arc;

    /// What the gated run reports comes through `summarize`: a failure a
    /// client saw and a kept answer that is wrong must both arrive there.
    #[test]
    fn failed_ops_reach_the_round_summary() {
        let params = Params::of(Kind::Hot, 2, Scale::Quick);
        let served = serve::set_up(3, Scale::Quick, &params);
        let oracle = Oracle::new(&served.inputs);
        let mut runner = Runner::new(&served, &oracle, params, 3);
        let mut verifier = Verifier::new(&served, &oracle);
        let ops = (params.clients * params.ops) as u64;

        let clean = summarize(&mut verifier, runner.round(0, false, false), Scale::Quick).unwrap();
        assert_eq!((clean.attempted, clean.failed), (ops, 0));

        let mut forged = runner.round(1, false, false);
        forged.clients[0].failed += 1;
        forged.clients[1].samples[0].relation = Arc::new(Relation::from_int_rows(&[&[-1]]));
        let summary = summarize(&mut verifier, forged, Scale::Quick).unwrap();
        assert_eq!((summary.attempted, summary.failed), (ops, 2));
        assert!(summary.throughput() < ops as f64 / summary.wall_s);
    }
}
