//! Reporting and the multi-run modes: the result line of a single run, and
//! `run` / `trace` / `calibrate`, which spawn one child process per
//! workload so every workload gets its own peak-memory reading.

use crate::harness::{self, Config};
use crate::json::{self, quote, Json};
use crate::stats::{iqr_share, max_deviation, median, quartiles};
use crate::{crate_dir, layers, metrics, out_dir, Options, SCRUBBED_ENV};
use std::process::{Command, Stdio};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
fn stamp(seed: u64, seconds: f64, quick: bool) -> String {
    let dir = out_dir();
    let dir = dir
        .parent()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    format!(
        "\"nproc\": {}, \"git_commit\": {}, \"rustc\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"quick\": {quick}",
        crate::nproc(),
        quote(&command_line("git", &["-C", &dir, "rev-parse", "HEAD"])),
        quote(&command_line("rustc", &["-V"])),
    )
}

fn write_out(file: &str, contents: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(file), contents))
        .map_err(|e| format!("writing {}: {e}", dir.join(file).display()))
}

/// The one-line JSON result of a run. A run with a failed op is not correct.
fn result_line(attempted: u64, failed: u64, values: &[(String, &str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Print the metrics by name and, last, the one-line JSON result.
fn emit(
    cfg: &Config,
    suffix: &str,
    attempted: u64,
    failed: u64,
    values: &[(String, &str, f64)],
    facts: &[(String, String)],
) -> Result<(), String> {
    for (name, unit, value) in values {
        if !value.is_finite() {
            return Err(format!("{name} was not measured ({value})"));
        }
        println!("{}/{name} {value} {unit}", cfg.name);
    }
    let result = result_line(attempted, failed, values);
    let facts_json: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    write_out(
        &format!("result-{}{suffix}.json", cfg.name),
        &format!(
            "{{\"workload\": {}, {}, \"facts\": {{{}}}, \"result\": {result}}}\n",
            quote(&cfg.name),
            stamp(cfg.seed, cfg.seconds, cfg.scale == crate::gen::Scale::Quick),
            facts_json.join(", ")
        ),
    )?;
    println!("{result}");
    Ok(())
}

pub fn report_run(cfg: &Config) -> Result<(), String> {
    let measured = harness::measure(cfg)?;
    let values: Vec<(String, &str, f64)> = metrics::END_TO_END
        .iter()
        .zip(harness::end_to_end(&measured))
        .map(|((name, unit), value)| (name.to_string(), *unit, value))
        .collect();
    let attempted = measured.rounds.iter().map(|r| r.attempted).sum();
    let failed = measured.rounds.iter().map(|r| r.failed).sum();
    let mut facts = measured.facts;
    facts.push(("timed_rounds".into(), measured.rounds.len().to_string()));
    let per_round = |f: &dyn Fn(&harness::RoundSummary) -> f64| {
        let v: Vec<String> = measured
            .rounds
            .iter()
            .map(|r| format!("{:.4}", f(r)))
            .collect();
        v.join(" ")
    };
    facts.push(("round_wall_s".into(), per_round(&|r| r.wall_s)));
    facts.push((
        "round_throughput_ops_s".into(),
        per_round(&|r| r.throughput()),
    ));
    facts.push(("round_lat_p50_ms".into(), per_round(&|r| r.latency_ms[0])));
    facts.push(("round_lat_p95_ms".into(), per_round(&|r| r.latency_ms[1])));
    let setups: Vec<String> = measured.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    facts.push(("setup_s_samples".into(), setups.join(" ")));
    emit(cfg, "", attempted, failed, &values, &facts)
}

pub fn report_trace(cfg: &Config) -> Result<(), String> {
    let traced = layers::trace_run(cfg)?;
    for line in &traced.notes {
        println!("# {line}");
    }
    // Every metric of the table, in table order, exactly once.
    let values: Vec<(String, &str, f64)> = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = traced
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("{name} was not measured"))?;
            Ok((name, unit, value))
        })
        .collect::<Result<_, String>>()?;
    emit(cfg, "-trace", traced.attempted, traced.failed, &values, &[])
}

/// One run as a child process; its parsed result line.
fn child(workload: &str, seed: u64, o: &Options, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(last).map_err(|e| format!("{workload} result line: {e}"))
}

fn metric_values(result: &Json) -> Vec<(String, f64, String)> {
    match result.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(name, v)| {
                Some((
                    name.clone(),
                    v.get("value")?.as_f64()?,
                    v.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `run` / `trace`: all four workloads, printed as `workload/metric value unit`.
pub fn all_workloads(o: &Options, trace: bool) -> Result<(), String> {
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in metrics::WORKLOADS {
        let result = child(workload, o.seed, o, trace)?;
        let correct = result.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct;
        let mut entries = Vec::new();
        // Table order, not the parsed map's alphabetical order.
        let values = metric_values(&result);
        let order: Vec<String> = if trace {
            metrics::per_layer().into_iter().map(|m| m.0).collect()
        } else {
            metrics::END_TO_END.map(|m| m.0.to_string()).to_vec()
        };
        for name in order {
            if let Some((_, value, unit)) = values.iter().find(|v| v.0 == name) {
                println!("{workload}/{name} {value} {unit}");
                entries.push(format!("{}: {value}", quote(&name)));
            }
        }
        let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{workload}/failed_share {} ratio   ({} of {} ops{})",
            count("failed") / count("attempted").max(1.0),
            count("failed"),
            count("attempted"),
            if correct { "" } else { "; INCORRECT" }
        );
        results.push(format!(
            "{}: {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            quote(workload),
            count("attempted"),
            count("failed"),
            entries.join(", ")
        ));
    }
    let file = if trace { "trace.json" } else { "result.json" };
    write_out(
        file,
        &format!(
            "{{{}, \"workloads\": {{{}}}}}\n",
            stamp(o.seed, o.seconds, o.quick),
            results.join(", ")
        ),
    )?;
    println!("# wrote {}", out_dir().join(file).display());
    if all_correct {
        Ok(())
    } else {
        Err("some answers were wrong".into())
    }
}

/// Runs per set in `calibrate`, each on another seed: what the acceptance
/// rule takes its quartiles over.
const CALIBRATION_SEEDS: u64 = 10;

/// The gated metrics as `/BENCHMARK.json` lists them: `(name, lower is
/// better, bound)`.
fn gates() -> Result<Vec<(String, bool, f64)>, String> {
    let path = crate_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(listed)) = manifest.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    listed
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
}

/// `calibrate`: the acceptance procedure. Two back-to-back sets of ten runs
/// per workload, each run on another seed (the same seeds in both sets);
/// per metric × workload the quartile spread of each set as a share of its
/// median, and how much worse the second set's median is than the first's,
/// against the bounds in `/BENCHMARK.json`. Prints a markdown table.
pub fn calibrate(o: &Options) -> Result<(), String> {
    let gates = gates()?;
    let seeds: Vec<u64> = (0..CALIBRATION_SEEDS).map(|i| o.seed + i).collect();
    // table[workload][set][metric] -> one value per seed
    let mut table: Vec<(&str, Vec<Vec<Vec<f64>>>)> = Vec::new();
    for workload in metrics::WORKLOADS {
        let mut sets = Vec::new();
        for set in 0..2 {
            let mut by_metric = vec![Vec::new(); gates.len()];
            for &seed in &seeds {
                let result = child(workload, seed, o, false)?;
                if result.get("correct") != Some(&Json::Bool(true)) {
                    return Err(format!("{workload} seed {seed}: wrong answers"));
                }
                let values = metric_values(&result);
                for (slot, (name, ..)) in by_metric.iter_mut().zip(&gates) {
                    let value = values
                        .iter()
                        .find(|v| v.0 == *name)
                        .ok_or_else(|| format!("{workload}: no {name}"))?;
                    slot.push(value.1);
                }
                eprintln!("calibrate: {workload} set {} seed {seed} done", set + 1);
            }
            sets.push(by_metric);
        }
        table.push((workload, sets));
    }
    println!(
        "Host: nproc {}, {}; seeds {}..={}, {} s per run.\n",
        crate::nproc(),
        command_line("rustc", &["-V"]),
        seeds[0],
        seeds[seeds.len() - 1],
        o.seconds
    );
    println!("| workload | metric | median 1 | q1 | q3 | spread 1 | max dev 1 | median 2 | spread 2 | 2 worse by | bound |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut exceeded = Vec::new();
    for (workload, sets) in &table {
        for (m, (name, lower_is_better, bound)) in gates.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let [q1, _, q3] = quartiles(a);
            let (m1, m2) = (median(a), median(b));
            let worse = if *lower_is_better {
                m2 / m1 - 1.0
            } else {
                1.0 - m2 / m1
            };
            let (s1, s2) = (iqr_share(a), iqr_share(b));
            println!(
                "| {workload} | {name} | {m1:.5} | {q1:.5} | {q3:.5} | {s1:.4} | {:.4} | {m2:.5} | {s2:.4} | {worse:+.4} | {bound} |",
                max_deviation(a)
            );
            if s1.max(s2).max(worse) > *bound {
                exceeded.push(format!("{workload}/{name}"));
            }
        }
    }
    println!("\nEvery value, in seed order (set 1 | set 2):\n");
    for (workload, sets) in &table {
        for (m, (name, ..)) in gates.iter().enumerate() {
            let row = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.5}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "- `{workload}/{name}`: {} | {}",
                row(&sets[0][m]),
                row(&sets[1][m])
            );
        }
    }
    if exceeded.is_empty() {
        println!("\nEvery spread and every drift is within its bound.");
        Ok(())
    } else {
        Err(format!("outside their bound: {}", exceeded.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_op_makes_the_result_line_incorrect() {
        let values = [("throughput_ops_s".to_string(), "1/s", 12.5)];
        let clean = json::parse(&result_line(40, 0, &values)).unwrap();
        assert_eq!(clean.get("correct"), Some(&Json::Bool(true)));
        let value = clean.get("metrics").and_then(|m| m.get("throughput_ops_s"));
        assert_eq!(
            value.and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(12.5)
        );
        let failed = json::parse(&result_line(40, 1, &values)).unwrap();
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(failed.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
