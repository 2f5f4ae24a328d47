//! The three serving workloads: closed-loop clients against `sj-server`.
//!
//! * `serve-hot` — `4 × nproc` clients, both cache tiers, read-only: every
//!   op after warm-up is a result-cache hit. With that many clients the
//!   workers never park, so the futex wake-up that makes one or two clients
//!   swing between two speeds is off the critical path.
//! * `serve-cold` — `nproc` clients, caching off: every op pays snapshot →
//!   optimize → plan → kernels.
//! * `serve-churn` — 1 client, both tiers, 5 % inserts and 1 % ANALYZE
//!   among the same reads: invalidation sweeps, copy-on-write under live
//!   snapshots, plan-tier hits that re-execute. One client, so its hit,
//!   miss, write and ANALYZE counts repeat exactly.

use crate::gen::{self, Op, Scale, ServingInputs};
use crate::spans::SpanLog;
use setjoins::algebra::{division, Expr};
use setjoins::eval::evaluate;
use setjoins::server::{
    CacheMode, Provenance, QueryResponse, Server, ServerConfig, Session, StatsSnapshot, WriteOp,
};
use setjoins::storage::{Database, Relation, Tuple};
use setjoins::Execution;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Hot,
    Cold,
    Churn,
}

/// Shape of one serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub clients: usize,
    pub workers: usize,
    pub cache: CacheMode,
    /// Ops each client issues per round.
    pub ops: usize,
    pub inserts: usize,
    pub analyzes: usize,
}

impl Params {
    /// The workload as benchmarked. Rounds are ≈ 1 s on the commit that
    /// introduced the benchmark (2 cores): short enough that a run holds
    /// twenty of them and the median across rounds shrugs off the seconds-
    /// long slow spells of a shared host.
    pub fn of(kind: Kind, nproc: usize, scale: Scale) -> Params {
        match kind {
            Kind::Hot => Params {
                clients: 4 * nproc,
                workers: nproc,
                cache: CacheMode::PlanAndResult,
                ops: scale.pick(14_000, 400),
                inserts: 0,
                analyzes: 0,
            },
            Kind::Cold => Params {
                clients: nproc,
                workers: nproc,
                cache: CacheMode::Off,
                ops: scale.pick(140, 40),
                inserts: 0,
                analyzes: 0,
            },
            Kind::Churn => {
                let ops = scale.pick(400, 100);
                Params {
                    clients: 1,
                    workers: nproc,
                    cache: CacheMode::PlanAndResult,
                    ops,
                    inserts: ops / 20,
                    analyzes: ops / 100,
                }
            }
        }
    }

    /// The same workload with rounds `1/divisor` as long.
    pub fn shortened(self, divisor: usize) -> Params {
        let ops = (self.ops / divisor).max(20);
        Params {
            ops,
            inserts: if self.inserts > 0 { ops / 20 } else { 0 },
            analyzes: if self.analyzes > 0 {
                (ops / 100).max(1)
            } else {
                0
            },
            ..self
        }
    }
}

/// One full set-up: the running server and the inputs it was loaded with.
pub struct Served {
    pub server: Server,
    pub inputs: ServingInputs,
    /// `Database::epoch` of the loaded database, before any write.
    pub base_epoch: u64,
}

/// Generate → load → ANALYZE → `Server::start` → first touch of every
/// distinct query. This is what `setup_s` times.
pub fn set_up(seed: u64, scale: Scale, params: &Params) -> Served {
    let inputs = gen::serving_inputs(seed, scale);
    let base_epoch = inputs.db.epoch();
    let server = Server::start(
        inputs.db.clone(),
        ServerConfig {
            workers: params.workers,
            cores: params.workers,
            cache: params.cache,
            execution: Execution::Vectorized,
            ..ServerConfig::default()
        },
    );
    server
        .write(WriteOp::Analyze)
        .expect("ANALYZE on a loaded database");
    let session = server.session();
    for expr in &inputs.pool {
        session
            .query(expr.clone())
            .expect("pool query on its own database");
    }
    Served {
        server,
        inputs,
        base_epoch,
    }
}

/// Expected answers, computed once per run by the plain tree-walking
/// evaluator: no optimizer, no planner, no vectorized kernel — none of the
/// code the served path runs. (`evaluate_reference` needs 19 s for this
/// pool's double-difference plan; the crate's tests check the two
/// evaluators against each other on the quick scale.)
pub struct Oracle {
    pub expected: Vec<Relation>,
    /// Pool index of the canary `σ₂<₁(R)`: exactly the inserted tuples.
    pub canary: usize,
    /// Groups an insert may touch without changing any pool answer.
    pub safe_groups: Vec<i64>,
}

impl Oracle {
    pub fn new(inputs: &ServingInputs) -> Oracle {
        let answer = |e: &Expr| evaluate(e, &inputs.db).expect("pool query on its own database");
        // A noise element added to a group whose set equals S would change
        // the equality division; every other pool answer ignores noise.
        let equal_groups = answer(&division::division_equality("R", "S"));
        let safe_groups = (1..=inputs.workload.groups as i64)
            .filter(|g| !equal_groups.contains(&Tuple::from_ints(&[*g])))
            .collect();
        Oracle {
            expected: inputs.pool.iter().map(answer).collect(),
            canary: inputs.canary,
            safe_groups,
        }
    }
}

/// A response kept for a full equality check after the round.
pub struct Sample {
    pub query: u16,
    pub relation: Arc<Relation>,
    pub epoch: u64,
}

/// Per-op detail, recorded only on request (the per-layer run).
#[derive(Clone, Copy)]
pub struct Detail {
    /// `None` for writes.
    pub provenance: Option<Provenance>,
    pub is_analyze: bool,
    pub latency_ns: u64,
    /// `QueryResponse::elapsed`: service time on the worker.
    pub elapsed_ns: u64,
}

/// What one client brings back from a round.
pub struct ClientOut {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// `(epoch the write returned, tuple)` for every insert, in order.
    pub inserts: Vec<(u64, Tuple)>,
    pub details: Vec<Detail>,
    pub log: SpanLog,
}

pub struct Round {
    pub wall_s: f64,
    pub clients: Vec<ClientOut>,
    /// `Server::stats()` after minus before.
    pub stats: StatsSnapshot,
}

impl Round {
    pub fn attempted(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.latencies_ms.len() as u64)
            .sum()
    }

    /// Failed ops of the round: those the clients saw fail plus the kept
    /// answers `verifier` finds wrong (which it consumes, with the round's
    /// insert log).
    pub fn failed(&mut self, verifier: &mut Verifier<'_>) -> u64 {
        let (mut samples, mut inserts) = (Vec::new(), Vec::new());
        for c in &mut self.clients {
            samples.append(&mut c.samples);
            inserts.append(&mut c.inserts);
        }
        let seen: u64 = self.clients.iter().map(|c| c.failed).sum();
        (seen + verifier.wrong(samples, inserts)).min(self.attempted())
    }
}

/// Every `SAMPLE_EVERY`-th op of a round (and each query's first of the
/// run) keeps its answer.
pub const SAMPLE_EVERY: usize = 64;

/// State a client carries across rounds of a run.
pub struct ClientState {
    session: Session,
    /// Epoch of the database as loaded: every insert adds one.
    base_epoch: u64,
    /// Newest epoch this client has seen, from its own writes and reads.
    /// No later read may report an older one.
    epoch: u64,
    /// Queries whose answer was already kept once for a full check.
    seen: Vec<bool>,
}

pub struct Runner<'a> {
    served: &'a Served,
    oracle: &'a Oracle,
    pub params: Params,
    seed: u64,
    states: Vec<ClientState>,
}

impl<'a> Runner<'a> {
    pub fn new(served: &'a Served, oracle: &'a Oracle, params: Params, seed: u64) -> Runner<'a> {
        let states = (0..params.clients)
            .map(|_| ClientState {
                session: served.server.session(),
                base_epoch: served.base_epoch,
                epoch: served.base_epoch,
                seen: vec![false; served.inputs.pool.len()],
            })
            .collect();
        Runner {
            served,
            oracle,
            params,
            seed,
            states,
        }
    }

    pub fn stream(&self, client: usize, round: usize) -> Vec<Op> {
        gen::mixed_stream(
            self.seed,
            client,
            round,
            self.served.inputs.pool.len(),
            self.params.ops,
            self.params.inserts,
            self.params.analyzes,
            &self.oracle.safe_groups,
        )
    }

    /// Run one round: every client issues its stream in a closed loop.
    /// `traced` turns the benchmark's spans on, `detailed` the per-op
    /// provenance record.
    pub fn round(&mut self, round: usize, traced: bool, detailed: bool) -> Round {
        let streams: Vec<Vec<Op>> = (0..self.params.clients)
            .map(|c| self.stream(c, round))
            .collect();
        let before = self.served.server.stats();
        let pool = &self.served.inputs.pool;
        let oracle = self.oracle;
        let origin = Instant::now();
        let clients: Vec<ClientOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .states
                .iter_mut()
                .zip(&streams)
                .map(|(state, ops)| {
                    scope.spawn(move || {
                        let log = if traced {
                            SpanLog::recording(origin, ops.len() * 3)
                        } else {
                            SpanLog::disabled()
                        };
                        run_client(state, ops, pool, oracle, log, detailed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = origin.elapsed().as_secs_f64();
        let after = self.served.server.stats();
        Round {
            wall_s,
            clients,
            stats: StatsSnapshot {
                queries: after.queries - before.queries,
                plan_hits: after.plan_hits - before.plan_hits,
                result_hits: after.result_hits - before.result_hits,
                writes: after.writes - before.writes,
                analyzes: after.analyzes - before.analyzes,
                rejected: after.rejected - before.rejected,
                max_q_error_seen: after.max_q_error_seen,
            },
        }
    }
}

fn run_client(
    state: &mut ClientState,
    ops: &[Op],
    pool: &[Expr],
    oracle: &Oracle,
    log: SpanLog,
    detailed: bool,
) -> ClientOut {
    let mut out = ClientOut {
        latencies_ms: Vec::with_capacity(ops.len()),
        failed: 0,
        samples: Vec::with_capacity(ops.len() / SAMPLE_EVERY + pool.len() + 1),
        inserts: Vec::new(),
        details: Vec::with_capacity(if detailed { ops.len() } else { 0 }),
        log,
    };
    for (i, op) in ops.iter().enumerate() {
        let id = i as u32;
        out.log.enter("client.op", id);
        let (latency, answer): (_, Option<QueryResponse>) = match op {
            Op::Query(q) => {
                let expr = pool[*q as usize].clone();
                let sent = Instant::now();
                let reply = out
                    .log
                    .span("server.query", id, || state.session.query(expr));
                (sent.elapsed(), reply.ok())
            }
            Op::Insert(tuple) => {
                let write = WriteOp::Insert {
                    relation: "R".into(),
                    tuple: tuple.clone(),
                };
                let sent = Instant::now();
                let reply = out
                    .log
                    .span("server.write", id, || state.session.write(write));
                let latency = sent.elapsed();
                match reply {
                    Ok(epoch) => {
                        state.epoch = state.epoch.max(epoch);
                        out.inserts.push((epoch, tuple.clone()));
                    }
                    Err(_) => out.failed += 1,
                }
                (latency, None)
            }
            Op::Analyze => {
                let sent = Instant::now();
                let reply = out
                    .log
                    .span("server.write", id, || state.session.write(WriteOp::Analyze));
                let latency = sent.elapsed();
                out.failed += reply.is_err() as u64;
                (latency, None)
            }
        };
        out.latencies_ms.push(latency.as_secs_f64() * 1e3);
        out.log.enter("client.check", id);
        if let Op::Query(q) = op {
            let q = *q as usize;
            match &answer {
                Some(resp) => {
                    // The canary's answer is the tuples inserted up to the
                    // answer's epoch, whichever client inserted them.
                    let grown = if q == oracle.canary {
                        (resp.epoch - state.base_epoch) as usize
                    } else {
                        0
                    };
                    let right = resp.relation.len() == oracle.expected[q].len() + grown
                        && resp.epoch >= state.epoch;
                    state.epoch = state.epoch.max(resp.epoch);
                    out.failed += !right as u64;
                    if !state.seen[q] || i % SAMPLE_EVERY == 0 {
                        state.seen[q] = true;
                        out.samples.push(Sample {
                            query: q as u16,
                            relation: resp.relation.clone(),
                            epoch: resp.epoch,
                        });
                    }
                }
                None => out.failed += 1,
            }
        }
        if detailed {
            out.details.push(Detail {
                provenance: answer.as_ref().map(|r| r.provenance),
                is_analyze: matches!(op, Op::Analyze),
                latency_ns: latency.as_nanos() as u64,
                elapsed_ns: answer.map_or(0, |r| r.elapsed.as_nanos() as u64),
            });
        }
        out.log.exit();
        out.log.exit();
    }
    out
}

/// Full equality check of the answers a round kept. The write log is
/// replayed onto a shadow database and each sample is compared with the
/// plain evaluator's answer *at its epoch*, so a stale cached result or a
/// snapshot that saw a later write is a wrong answer. Checking round by
/// round keeps the samples out of the peak memory.
pub struct Verifier<'a> {
    pool: &'a [Expr],
    oracle: &'a Oracle,
    base_epoch: u64,
    shadow: Database,
}

impl<'a> Verifier<'a> {
    pub fn new(served: &'a Served, oracle: &'a Oracle) -> Verifier<'a> {
        Verifier {
            pool: &served.inputs.pool,
            oracle,
            base_epoch: served.base_epoch,
            shadow: served.inputs.db.clone(),
        }
    }

    /// How many of `samples` are wrong. `inserts` are the round's accepted
    /// inserts of all clients; rounds must be checked in the order they ran.
    pub fn wrong(&mut self, mut samples: Vec<Sample>, mut inserts: Vec<(u64, Tuple)>) -> u64 {
        samples.sort_by_key(|s| s.epoch);
        inserts.sort_by_key(|i| i.0);
        let mut applied = 0;
        let mut wrong = 0;
        // Answers already proven right at the current epoch, by allocation:
        // cache hits hand out the same `Arc`.
        let mut proven: Vec<Option<Arc<Relation>>> = vec![None; self.pool.len()];
        for s in samples {
            while applied < inserts.len() && inserts[applied].0 <= s.epoch {
                self.shadow
                    .insert("R", inserts[applied].1.clone())
                    .expect("shadow replay of an accepted insert");
                applied += 1;
                proven.iter_mut().for_each(|p| *p = None);
            }
            let q = s.query as usize;
            if proven[q]
                .as_ref()
                .is_some_and(|p| Arc::ptr_eq(p, &s.relation))
            {
                continue;
            }
            let right = if self.shadow.epoch() != s.epoch {
                false
            } else if s.epoch == self.base_epoch {
                *s.relation == self.oracle.expected[q]
            } else {
                evaluate(&self.pool[q], &self.shadow).is_ok_and(|truth| truth == *s.relation)
            };
            if right {
                proven[q] = Some(s.relation);
            } else {
                wrong += 1;
            }
        }
        // A round's trailing inserts belong to the next round's epochs.
        for (_, tuple) in &inserts[applied..] {
            self.shadow
                .insert("R", tuple.clone())
                .expect("shadow replay of an accepted insert");
        }
        wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setjoins::eval::evaluate_reference;

    /// The oracle is the plain evaluator because the reference evaluator is
    /// too slow at full scale; at quick scale the two must agree.
    #[test]
    fn oracle_agrees_with_the_reference_evaluator() {
        let inputs = gen::serving_inputs(3, Scale::Quick);
        let oracle = Oracle::new(&inputs);
        for (expr, expected) in inputs.pool.iter().zip(&oracle.expected) {
            assert_eq!(&evaluate_reference(expr, &inputs.db).unwrap(), expected);
        }
        assert!(oracle.expected[oracle.canary].is_empty());
        assert!(!oracle.safe_groups.is_empty());
    }

    /// A short churn run end to end: row counts, the canary, epochs and the
    /// shadow replay all hold, and a corrupted sample is caught.
    #[test]
    fn churn_round_verifies_and_a_wrong_answer_is_caught() {
        let params = Params::of(Kind::Churn, 2, Scale::Quick);
        let served = set_up(3, Scale::Quick, &params);
        let oracle = Oracle::new(&served.inputs);
        let mut runner = Runner::new(&served, &oracle, params, 3);
        let mut verifier = Verifier::new(&served, &oracle);
        let mut last = None;
        for round in 0..3 {
            let mut r = runner.round(round, false, false);
            assert_eq!(r.stats.writes as usize, params.inserts);
            assert_eq!(r.clients[0].inserts.len(), params.inserts);
            last = r.clients[0].samples.last().map(|s| (s.query, s.epoch));
            assert_eq!(r.failed(&mut verifier), 0);
        }
        let (query, epoch) = last.expect("a round keeps samples");
        let forged = Sample {
            query,
            relation: Arc::new(Relation::from_int_rows(&[&[-1, -1, -1]])),
            epoch,
        };
        assert_eq!(verifier.wrong(vec![forged], Vec::new()), 1);
    }
}
