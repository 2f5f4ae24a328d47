//! The traced run: per-layer numbers, all timed from outside.
//!
//! Part 1 runs the workload itself for `--seconds`, its rounds alternately
//! without and with the benchmark's spans: the span file, the exact cache
//! counts, the client-side latency percentiles and the tracing overhead
//! come from there. Part 2 is the layer suite,
//! the same whatever the workload: stand-alone calls into every layer's
//! public functions on operands generated from the seed, short segments
//! of the three serving workloads with per-op provenance, and a
//! *decomposed replay* of the cold stream in which the harness itself
//! calls snapshot → optimize → plan → execute per op.

use crate::batch::{self, Batch, SET_JOINS};
use crate::gen::{self, Op, Scale, ServingInputs, CLASSES};
use crate::harness::{self, batch_passes, Config, RoundSummary, Workload};
use crate::metrics::SET_OPERATOR_CLASSES;
use crate::out_dir;
use crate::serve::{self, Detail, Kind, Oracle, Params, Runner, Verifier};
use crate::spans::{self, SpanLog};
use crate::stats::median;
use setjoins::algebra::{Condition, Expr, OptimizeLevel};
use setjoins::eval::{kernel, Instrument, MultiwayLeaf, MultiwaySpec, PhysicalPlan};
use setjoins::obs::{Metrics, RingCollector};
use setjoins::server::{CacheMode, ExprCache, Provenance};
use setjoins::setjoin::{run_division_traced, run_set_join_traced, DivisionSemantics, Registry};
use setjoins::stats::{CatalogSource, CostModel, StatsCatalog};
use setjoins::storage::{Database, Relation, Tuple};
use setjoins::{Execution, JoinOrder, Parallelism, TableStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
pub struct Traced {
    pub values: Vec<(String, f64)>,
    /// Human-readable context: bases of ratios, shares, chosen algorithms.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }
}

pub fn trace_run(cfg: &Config) -> Result<Traced, String> {
    let mut t = Traced::default();
    let mut logs = in_situ(cfg, &mut t)?;
    logs.push(suite(cfg, &mut t));
    let path = out_dir().join(format!("trace-{}.json", cfg.name));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            spans::write_json(&mut out, &cfg.name, &logs)?;
            std::io::Write::flush(&mut out)
        });
    written.map_err(|e| format!("writing {}: {e}", path.display()))?;
    t.notes.push(format!("spans: {}", path.display()));
    Ok(t)
}

// ---------------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------------

/// Median over `reps` of one call's time in ms; the result is dropped
/// outside the timed window.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            let out = black_box(f());
            let elapsed = started.elapsed();
            drop(out);
            elapsed.as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Median over `samples` of the per-call time in ns of `batch` calls.
fn per_call_ns(batch: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&times)
}

/// Plan an optimized expression the way the engine does under
/// `StatsMode::Cached` and `JoinOrder::Dp`.
fn plan_dp(expr: &Expr, db: &Database, catalog: &StatsCatalog) -> PhysicalPlan {
    PhysicalPlan::of_costed_with_order(
        expr,
        &db.schema(),
        &CatalogSource::new(catalog, db),
        &CostModel::default(),
        JoinOrder::Dp,
    )
    .expect("plannable")
}

// ---------------------------------------------------------------------------
// Part 1: the workload itself, untraced against traced
// ---------------------------------------------------------------------------

/// One round of the workload itself.
struct Pass {
    summary: RoundSummary,
    /// One log per client thread (empty logs on untraced rounds).
    logs: Vec<SpanLog>,
    /// `[queries, result hits, plan hits, cold runs, writes, analyzes]`.
    counts: [u64; 6],
}

fn in_situ(cfg: &Config, t: &mut Traced) -> Result<Vec<SpanLog>, String> {
    let first_traced = match cfg.workload {
        Workload::Serve(kind) => {
            let params = Params::of(kind, cfg.nproc, cfg.scale);
            let served = serve::set_up(cfg.seed, cfg.scale, &params);
            let oracle = Oracle::new(&served.inputs);
            let mut runner = Runner::new(&served, &oracle, params, cfg.seed);
            let mut verifier = Verifier::new(&served, &oracle);
            alternate(cfg, t, |round, traced| {
                let mut r = runner.round(round, traced, false);
                let s = &r.stats;
                let counts = [
                    s.queries,
                    s.result_hits,
                    s.plan_hits,
                    s.cold(),
                    s.writes,
                    s.analyzes,
                ];
                let logs = r
                    .clients
                    .iter_mut()
                    .map(|c| std::mem::replace(&mut c.log, SpanLog::disabled()))
                    .collect();
                Ok(Pass {
                    summary: harness::summarize(&mut verifier, r, cfg.scale)?,
                    logs,
                    counts,
                })
            })?
        }
        Workload::Batch => {
            let batch = batch::set_up(cfg.seed, cfg.scale, cfg.nproc);
            let expected = batch::oracle(&batch);
            let passes = batch_passes(cfg.scale);
            alternate(cfg, t, |_, traced| {
                let r = batch::round(&batch, &expected, passes, traced);
                Ok(Pass {
                    summary: harness::summarize_batch(&r, cfg.scale)?,
                    logs: vec![r.log],
                    // No server: no query reaches one, no cache is consulted.
                    counts: [0; 6],
                })
            })?
        }
    };
    let [queries, result_hits, plan_hits, cold, writes, analyzes] = first_traced.counts;
    let ratio = |hits: u64| {
        if queries > 0 {
            hits as f64 / queries as f64
        } else {
            0.0
        }
    };
    t.put("server.result_hit_ratio", ratio(result_hits));
    t.put("server.plan_hit_ratio", ratio(plan_hits));
    t.put("server.result_hits", result_hits as f64);
    t.put("server.plan_hits", plan_hits as f64);
    t.put("server.cold_runs", cold as f64);
    t.put("server.writes", writes as f64);
    t.put("server.analyzes", analyzes as f64);
    let mut self_ms: Vec<(&str, f64)> = Vec::new();
    for log in &first_traced.logs {
        for (name, own) in spans::self_time_by_name(log.spans()) {
            match self_ms.iter_mut().find(|(n, _)| *n == name) {
                Some((_, ms)) => *ms += own as f64 / 1e6,
                None => self_ms.push((name, own as f64 / 1e6)),
            }
        }
    }
    let self_ms: Vec<String> = self_ms
        .iter()
        .map(|(n, ms)| format!("{n} {ms:.3}"))
        .collect();
    t.notes.push(format!(
        "self time in the first traced round, all client threads (ms): {}",
        self_ms.join(", ")
    ));
    if cfg.scale == Scale::Full {
        match cfg.workload {
            Workload::Serve(Kind::Hot) if ratio(result_hits) < 0.99 => {
                return Err(format!(
                    "serve-hot result-hit ratio {} < 0.99",
                    ratio(result_hits)
                ))
            }
            Workload::Serve(Kind::Cold) if result_hits + plan_hits > 0 => {
                return Err("serve-cold saw cache hits with caching off".into())
            }
            _ => {}
        }
    }
    Ok(first_traced.logs)
}

/// A warm-up round, then (untraced round, traced round) pairs until
/// `--seconds` of rounds have run. Records the client-side latencies of
/// the untraced rounds and the tracing overhead, and returns the first
/// traced round.
fn alternate(
    cfg: &Config,
    t: &mut Traced,
    mut round: impl FnMut(usize, bool) -> Result<Pass, String>,
) -> Result<Pass, String> {
    round(0, false)?;
    let mut rounds: [Vec<RoundSummary>; 2] = [Vec::new(), Vec::new()];
    let mut first_traced = None;
    let mut timed_s = 0.0;
    while first_traced.is_none() || timed_s < cfg.seconds {
        for traced in [false, true] {
            let pass = round(1 + rounds[0].len() + rounds[1].len(), traced)?;
            t.attempted += pass.summary.attempted;
            t.failed += pass.summary.failed;
            timed_s += pass.summary.wall_s;
            rounds[traced as usize].push(pass.summary);
            if traced && first_traced.is_none() {
                first_traced = Some(pass);
            }
        }
    }
    let [plain, traced] = rounds;
    t.put("lat_p50_ms", harness::across(&plain, |r| r.latency_ms[0]));
    t.put("lat_p95_ms", harness::across(&plain, |r| r.latency_ms[1]));
    let ops_s =
        |rounds: &[RoundSummary]| harness::across(rounds, |r| r.attempted as f64 / r.wall_s);
    t.put(
        "bench.trace_overhead_share",
        1.0 - ops_s(&traced) / ops_s(&plain),
    );
    t.notes.push(format!(
        "{}: {:.1} ops/s untraced (base), {:.1} ops/s with the benchmark's spans on, {} rounds each",
        cfg.name,
        ops_s(&plain),
        ops_s(&traced),
        plain.len()
    ));
    Ok(first_traced.expect("the loop runs until a traced round exists"))
}

// ---------------------------------------------------------------------------
// Part 2: the layer suite
// ---------------------------------------------------------------------------

fn suite(cfg: &Config, t: &mut Traced) -> SpanLog {
    let (seed, scale, nproc) = (cfg.seed, cfg.scale, cfg.nproc);
    let started = Instant::now();
    let serving = gen::serving_inputs(seed, scale);
    let operands = gen::batch_inputs(seed, scale);
    t.put(
        "workload.generate_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let batch = batch::load(operands, nproc);
    storage_algebra_stats(t, &serving, &batch.inputs, nproc);
    kernels(t, &batch.inputs, nproc);
    classes(t, &batch, nproc);
    set_operators(t, &batch, nproc);
    cache_and_obs(t, &serving);
    serving_segments(cfg, t, &serving)
}

fn storage_algebra_stats(
    t: &mut Traced,
    serving: &ServingInputs,
    operands: &gen::BatchInputs,
    nproc: usize,
) {
    let db = &serving.db;
    t.put(
        "storage.snapshot_us",
        per_call_ns(1000, 21, || drop(black_box(db.snapshot()))) / 1e3,
    );
    // Copy-on-write: a live snapshot shares R, so the insert must copy it.
    let mut master = db.clone();
    let cow: Vec<f64> = (0..31i64)
        .map(|i| {
            let reader = master.snapshot();
            let tuple = Tuple::from_ints(&[1, i64::MIN / 2 + i]);
            let started = Instant::now();
            master.insert("R", tuple).expect("R exists");
            let elapsed = started.elapsed();
            drop(reader);
            elapsed.as_secs_f64() * 1e6
        })
        .collect();
    t.put("storage.insert_cow_us", median(&cow));
    let dividend = operands.db.get("DR").expect("generated");
    t.put(
        "storage.partition_ms",
        median_ms(7, || dividend.partition_by_hash(&[0], nproc)),
    );

    let pool = &serving.pool;
    let schema = db.schema();
    let pipeline = OptimizeLevel::Full.pipeline();
    let per_query_us = |pass_ms: f64| pass_ms * 1e3 / pool.len() as f64;
    t.put(
        "algebra.optimize_us",
        per_query_us(median_ms(21, || {
            pool.iter()
                .map(|e| pipeline.run(e, &schema).expect("pool query"))
                .collect::<Vec<_>>()
        })),
    );
    t.put(
        "algebra.hash_ns",
        per_call_ns(200, 21, || {
            for e in pool {
                black_box(e.structural_hash());
            }
        }) / pool.len() as f64,
    );

    let r = db.get("R").expect("generated");
    t.put("stats.analyze_ms", median_ms(7, || TableStats::analyze(r)));
    let catalog = StatsCatalog::new();
    batch::analyze_all(&catalog, db);
    t.put(
        "stats.catalog_hit_ns",
        per_call_ns(10_000, 21, || drop(black_box(catalog.stats_for(db, "R")))),
    );

    let optimized: Vec<Expr> = pool
        .iter()
        .map(|e| pipeline.run(e, &schema).expect("pool query"))
        .collect();
    t.put(
        "eval.plan_us",
        per_query_us(median_ms(11, || {
            optimized
                .iter()
                .map(|e| plan_dp(e, db, &catalog))
                .collect::<Vec<_>>()
        })),
    );
    let chain = gen::class_expr("join-chain-dp", operands).expect("an RA class");
    let chain = pipeline
        .run(&chain, &operands.db.schema())
        .expect("chain query");
    let chain_catalog = StatsCatalog::new();
    plan_dp(&chain, &operands.db, &chain_catalog);
    t.put(
        "eval.plan_chain_us",
        median_ms(21, || plan_dp(&chain, &operands.db, &chain_catalog)) * 1e3,
    );
}

/// `kernel::*` at `workers = 1` (rates) and serial ÷ `workers = nproc`
/// (ratios) on the direct-division operands and the triangle.
fn kernels(t: &mut Traced, operands: &gen::BatchInputs, nproc: usize) {
    let rel = |name: &str| operands.db.get(name).expect("generated");
    let (dividend, divisor) = (rel("DR"), rel("DS"));
    let on_element = Condition::eq(2, 1);
    let exec = Execution::Vectorized;
    let mrows = |left: &Relation, right: &Relation, ms: f64| {
        (left.len() + right.len()) as f64 / 1e6 / (ms / 1e3)
    };

    let join_1 = median_ms(5, || kernel::join(dividend, divisor, &on_element, exec, 1));
    let join_n = median_ms(5, || {
        kernel::join(dividend, divisor, &on_element, exec, nproc)
    });
    t.put("eval.kernel.join_mrows_s", mrows(dividend, divisor, join_1));
    t.put("eval.kernel.join_par_ratio", join_1 / join_n);
    let semi_1 = median_ms(5, || {
        kernel::semijoin(dividend, divisor, &on_element, exec, 1)
    });
    let semi_n = median_ms(5, || {
        kernel::semijoin(dividend, divisor, &on_element, exec, nproc)
    });
    t.put(
        "eval.kernel.semijoin_mrows_s",
        mrows(dividend, divisor, semi_1),
    );
    t.put("eval.kernel.semijoin_par_ratio", semi_1 / semi_n);
    t.notes.push(format!(
        "kernel par ratios = serial ms / {nproc}-worker ms; serial bases: join {join_1:.3} ms, semijoin {semi_1:.3} ms"
    ));

    // Both sorted on the group key: the merge join's aligned prefix.
    let groups =
        Relation::from_tuples(1, dividend.iter().map(|row| row.project(&[0]))).expect("unary rows");
    let merge = median_ms(5, || {
        kernel::merge_join(dividend, &groups, 1, &Condition::always(), exec, 1)
    });
    t.put(
        "eval.kernel.merge_join_mrows_s",
        mrows(dividend, &groups, merge),
    );

    let edges = [rel("E0"), rel("E1"), rel("E2")];
    let cycle = (0..3)
        .map(|child| MultiwayLeaf {
            child,
            var_col: 0,
            next_col: 1,
        })
        .collect();
    let spec = MultiwaySpec { cycle };
    t.put(
        "eval.kernel.multiway_ms",
        median_ms(11, || kernel::multiway_join(&edges, &spec, exec, 1)),
    );
}

/// Each suite class under the batch engine (`Threads(nproc)`) and under
/// the same engine at `Serial`.
fn classes(t: &mut Traced, batch: &Batch, nproc: usize) {
    let serial = batch::engine(&batch.inputs, Parallelism::Serial);
    batch::analyze_all(serial.catalog(), serial.db());
    let mut bases = Vec::new();
    for (class, name) in CLASSES.iter().enumerate() {
        batch.run_class(&serial, class);
        let threads_ms = median_ms(7, || batch.run_class(&batch.engine, class));
        let serial_ms = median_ms(7, || batch.run_class(&serial, class));
        t.put(format!("eval.class_ms.{name}"), threads_ms);
        t.put(
            format!("eval.class_par_ratio.{name}"),
            serial_ms / threads_ms,
        );
        bases.push(format!("{name} {serial_ms:.3}"));
    }
    t.notes.push(format!(
        "class par ratios = serial ms / Threads({nproc}) ms; serial bases (ms): {}",
        bases.join(", ")
    ));
    // The paper's invariant: the RA plan's intermediates are quadratic,
    // the counting plan's linear. Exact counts.
    let counted = serial.clone().instrument(Instrument::Cardinalities);
    for class in ["div-ra-plan", "div-counting-plan"] {
        let expr = gen::class_expr(class, &batch.inputs).expect("an RA class");
        let rows = counted
            .query(expr)
            .run()
            .ok()
            .and_then(|out| out.report)
            .map_or(f64::NAN, |report| report.max_intermediate() as f64);
        t.put(format!("eval.max_intermediate_rows.{class}"), rows);
    }
}

/// Every registered algorithm (bar the nested-loop oracles) on the
/// operands of the four set-operator classes, and how much slower than
/// the best one `AlgorithmChoice::Auto`'s pick is.
fn set_operators(t: &mut Traced, batch: &Batch, nproc: usize) {
    let registry = Registry::standard();
    let rel = |name: &str| batch.inputs.db.get(name).expect("generated");
    for class in SET_OPERATOR_CLASSES {
        let index = CLASSES.iter().position(|c| *c == class).expect("a class");
        let picked = batch.run_class(&batch.engine, index).1;
        let timed: Vec<(&str, f64)> = match SET_JOINS.iter().find(|(c, ..)| *c == class) {
            Some((_, left, right, pred)) => registry
                .set_join_algorithms()
                .iter()
                .filter(|a| a.supports(*pred) && a.name() != "nested-loop")
                .map(|a| {
                    let ms = median_ms(5, || {
                        run_set_join_traced(&**a, rel(left), rel(right), *pred, nproc)
                    });
                    (a.name(), ms)
                })
                .collect(),
            None => registry
                .division_algorithms()
                .iter()
                .filter(|a| a.name() != "nested-loop")
                .map(|a| {
                    let ms = median_ms(5, || {
                        run_division_traced(
                            &**a,
                            rel("DR"),
                            rel("DS"),
                            DivisionSemantics::Containment,
                            nproc,
                        )
                    });
                    (a.name(), ms)
                })
                .collect(),
        };
        let group = match class {
            "div-direct" => Some("setjoin.division_ms"),
            "setjoin-contain-uniform" => Some("setjoin.setjoin_ms"),
            _ => None,
        };
        if let Some(group) = group {
            for (name, ms) in &timed {
                t.put(format!("{group}.{name}"), *ms);
            }
        }
        let best = timed.iter().map(|x| x.1).fold(f64::INFINITY, f64::min);
        let pick_ms = timed
            .iter()
            .find(|x| x.0 == picked)
            .map_or(f64::NAN, |x| x.1);
        t.put(format!("setjoin.auto_regret.{class}"), pick_ms / best);
        let table: Vec<String> = timed.iter().map(|(n, ms)| format!("{n} {ms:.3}")).collect();
        t.notes.push(format!(
            "{class}: Auto picked {picked}; best {best:.3} ms (base); all (ms): {}",
            table.join(", ")
        ));
    }
}

fn cache_and_obs(t: &mut Traced, serving: &ServingInputs) {
    let pool = &serving.pool;
    let cache: ExprCache<Arc<Relation>> = ExprCache::new(1024);
    let value = Arc::new(Relation::empty(1));
    for e in pool {
        cache.insert(e.clone(), value.clone());
    }
    let per_entry = |ns: f64| ns / pool.len() as f64;
    t.put(
        "server.cache_get_ns",
        per_entry(per_call_ns(200, 21, || {
            for e in pool {
                black_box(cache.get(e));
            }
        })),
    );
    t.put(
        "server.cache_insert_ns",
        per_entry(per_call_ns(200, 21, || {
            for e in pool {
                cache.insert(e.clone(), value.clone());
            }
        })),
    );
    t.put(
        "server.cache_retain_us",
        per_call_ns(1000, 21, || cache.retain(|_, _| true)) / 1e3,
    );

    let site = || drop(setjoins::obs::span!("bench.site", rows = 1u64));
    t.put("obs.span_off_ns", per_call_ns(100_000, 11, site));
    let collector = Arc::new(RingCollector::new(4096));
    t.put(
        "obs.span_on_ns",
        setjoins::obs::trace::with_collector(collector, || per_call_ns(10_000, 11, site)),
    );
    let registry = Metrics::new();
    t.put(
        "obs.counter_with_ns",
        per_call_ns(10_000, 11, || {
            registry
                .counter_with("bench_queries_by_class_total", &[("class", "join")])
                .inc()
        }),
    );
}

/// One detailed round of a serving workload on a fresh server.
struct Segment {
    details: Vec<Detail>,
    throughput: f64,
    queue_wait_us: [f64; 2],
}

fn segment(cfg: &Config, t: &mut Traced, oracle: &Oracle, params: Params) -> Segment {
    let served = serve::set_up(cfg.seed, cfg.scale, &params);
    let mut runner = Runner::new(&served, oracle, params.shortened(4), cfg.seed);
    let mut verifier = Verifier::new(&served, oracle);
    let mut warm_up = runner.round(0, false, false);
    t.attempted += warm_up.attempted();
    t.failed += warm_up.failed(&mut verifier);
    runner.params = params;
    let mut r = runner.round(1, false, true);
    t.attempted += r.attempted();
    t.failed += r.failed(&mut verifier);
    let throughput = r.attempted() as f64 / r.wall_s;
    let details = r.clients.into_iter().flat_map(|c| c.details).collect();
    // Cumulative since server start, so the 19 first touches and the
    // warm-up are in it too; the round is > 90 % of the samples.
    let waits = served
        .server
        .metrics()
        .histogram("sj_server_queue_wait_seconds");
    let quantile = |q| waits.quantile(q).unwrap_or(f64::NAN) * 1e6;
    Segment {
        details,
        throughput,
        queue_wait_us: [quantile(0.5), quantile(0.95)],
    }
}

fn median_of(
    details: &[Detail],
    keep: impl Fn(&Detail) -> bool,
    value: impl Fn(&Detail) -> f64,
) -> f64 {
    let values: Vec<f64> = details.iter().filter(|d| keep(d)).map(value).collect();
    if values.is_empty() {
        f64::NAN
    } else {
        median(&values)
    }
}

fn serving_segments(cfg: &Config, t: &mut Traced, serving: &ServingInputs) -> SpanLog {
    let oracle = Oracle::new(serving);
    let from = |p: Provenance| move |d: &Detail| d.provenance == Some(p);
    let handoff_us = |d: &Detail| (d.latency_ns as f64 - d.elapsed_ns as f64) / 1e3;
    let elapsed = |d: &Detail| d.elapsed_ns as f64;

    let hot = segment(cfg, t, &oracle, Params::of(Kind::Hot, cfg.nproc, cfg.scale));
    t.put(
        "server.handoff_us",
        median_of(&hot.details, from(Provenance::ResultCache), handoff_us),
    );
    t.put(
        "server.service_hit_us",
        median_of(&hot.details, from(Provenance::ResultCache), elapsed) / 1e3,
    );

    let cold_params = Params::of(Kind::Cold, cfg.nproc, cfg.scale);
    let cold = segment(cfg, t, &oracle, cold_params);
    t.put(
        "server.handoff_cold_us",
        median_of(&cold.details, from(Provenance::Cold), handoff_us),
    );
    t.put(
        "server.service_cold_ms",
        median_of(&cold.details, from(Provenance::Cold), elapsed) / 1e6,
    );
    t.put("server.queue_wait_p50_us", cold.queue_wait_us[0]);
    t.put("server.queue_wait_p95_us", cold.queue_wait_us[1]);
    let solo_params = Params {
        clients: 1,
        workers: 1,
        ..cold_params
    };
    let (log, solo_throughput) = replay(cfg, t, serving, &oracle, solo_params);
    t.put("server.scaling_ratio", cold.throughput / solo_throughput);
    t.notes.push(format!(
        "scaling ratio = {n} workers x {n} clients / 1 x 1 cold ops/s; base {solo_throughput:.1} ops/s",
        n = cfg.nproc
    ));

    let churn = segment(
        cfg,
        t,
        &oracle,
        Params::of(Kind::Churn, cfg.nproc, cfg.scale),
    );
    t.put(
        "server.service_plan_hit_ms",
        median_of(&churn.details, from(Provenance::PlanCache), elapsed) / 1e6,
    );
    t.put(
        "server.hit_path_p50_us",
        median_of(&churn.details, from(Provenance::ResultCache), |d| {
            d.latency_ns as f64
        }) / 1e3,
    );
    let is_insert = |d: &Detail| d.provenance.is_none() && !d.is_analyze;
    t.put(
        "server.write_insert_us",
        median_of(&churn.details, is_insert, |d| d.latency_ns as f64) / 1e3,
    );
    t.put(
        "server.write_analyze_ms",
        median_of(&churn.details, |d| d.is_analyze, |d| d.latency_ns as f64) / 1e6,
    );

    log
}

/// The decomposed replay, interleaved op by op with the served path: a
/// 1-worker, 1-client, cache-off server answers a query, then the harness
/// itself calls each step for the same query. Alternating keeps both sides
/// under the same machine state, so their difference is the program's:
/// what the served `elapsed` holds beyond the four steps is the residual no
/// layer above owns. Returns the spans and the served ops/s.
fn replay(
    cfg: &Config,
    t: &mut Traced,
    serving: &ServingInputs,
    oracle: &Oracle,
    params: Params,
) -> (SpanLog, f64) {
    debug_assert_eq!(params.cache, CacheMode::Off);
    let pool = &serving.pool;
    let served = serve::set_up(cfg.seed, cfg.scale, &params);
    let session = served.server.session();
    let master = &serving.db;
    let catalog = StatsCatalog::new();
    batch::analyze_all(&catalog, master);
    let pipeline = OptimizeLevel::Full.pipeline();
    let warm_up = params.ops / 8;
    let stream = gen::mixed_stream(cfg.seed, 0, 1, pool.len(), warm_up + params.ops, 0, 0, &[]);
    let mut log = SpanLog::disabled();
    let (mut served_ns, mut latency_ns) = (0.0, 0.0);
    for (i, op) in stream.iter().enumerate() {
        let Op::Query(q) = op else { continue };
        if i == warm_up {
            log = SpanLog::recording(Instant::now(), params.ops * 6);
        }
        let expr = &pool[*q as usize];
        let id = i as u32;
        log.enter("replay.op", id);
        let request = expr.clone();
        let sent = Instant::now();
        let reply = log.span("server.query", id, || session.query(request));
        let latency = sent.elapsed();
        let snap = log.span("storage.snapshot", id, || master.snapshot());
        let db = snap.db();
        let optimized = log.span("algebra.optimize", id, || {
            pipeline.run(expr, &db.schema()).expect("pool query")
        });
        let plan = log.span("eval.plan", id, || plan_dp(&optimized, db, &catalog));
        let answer = log.span("eval.execute", id, || {
            plan.execute_with_execution(db, Parallelism::Serial, Execution::Vectorized)
        });
        log.exit();
        if i < warm_up {
            continue;
        }
        let rows = oracle.expected[*q as usize].len();
        let right = reply.as_ref().is_ok_and(|r| r.relation.len() == rows)
            && answer.is_ok_and(|a| a.len() == rows);
        t.attempted += 1;
        t.failed += !right as u64;
        served_ns += reply.map_or(0.0, |r| r.elapsed.as_nanos() as f64);
        latency_ns += latency.as_nanos() as f64;
    }
    let ops = params.ops as f64;
    let total = |name: &str| log.durations(name).iter().sum::<f64>();
    let steps = [
        "storage.snapshot",
        "algebra.optimize",
        "eval.plan",
        "eval.execute",
    ];
    let shares: Vec<f64> = steps.iter().map(|s| total(s) / served_ns).collect();
    let residual = 1.0 - shares.iter().sum::<f64>();
    t.put("eval.execute_ms", total("eval.execute") / ops / 1e6);
    t.put("eval.execute_share", shares[3]);
    t.put("server.residual_share", residual);
    t.notes.push(format!(
        "cold op, served elapsed {:.3} ms/op (base) = snapshot {:.2} % + optimize {:.2} % + plan {:.2} % + execute {:.2} % + residual {:.2} % = 100 %",
        served_ns / ops / 1e6,
        shares[0] * 100.0,
        shares[1] * 100.0,
        shares[2] * 100.0,
        shares[3] * 100.0,
        residual * 100.0
    ));
    (log, ops / (latency_ns / 1e9))
}
