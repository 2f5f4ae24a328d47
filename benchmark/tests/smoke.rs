//! Drives the real binary on the quick scale: one tiny run of every
//! workload, untraced and traced, with the output validated against the
//! committed `BENCHMARK.json`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::Command;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        // Must be scrubbed by the binary itself, not by the caller.
        .env("SETJOINS_EXECUTION", "row")
        .output()
        .expect("spawn bench")
}

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn items(list: &Json) -> &[Json] {
    match list {
        Json::Arr(items) => items,
        _ => panic!("not an array"),
    }
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    items(list)
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload on the quick scale and check the result line's shape
/// against the manifest's metric list.
fn check_run(workload: &str, trace: &str, expected: &[(String, String)]) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--quick",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let Json::Obj(top) = &result else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        top["correct"],
        Json::Bool(true),
        "{workload}: wrong answers"
    );
    assert_eq!(top["failed"].as_f64(), Some(0.0));
    assert!(top["attempted"].as_f64().expect("a count") >= 1.0);
    let Json::Obj(metrics) = &top["metrics"] else {
        panic!("metrics is not an object")
    };
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{workload} --trace {trace}: metric count"
    );
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} --trace {trace}: no metric {name}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m.get("value").and_then(Json::as_f64).expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
    }
    // Every metric is also printed by name with its unit.
    for (name, unit) in expected {
        let prefix = format!("{workload}/{name} ");
        let line = stdout.lines().find(|l| l.starts_with(&prefix));
        assert!(
            line.is_some_and(|l| l.ends_with(unit)),
            "no line for {name}"
        );
    }
}

#[test]
fn quick_smoke_of_every_workload_matches_the_manifest() {
    let manifest = manifest();
    let end_to_end = names_and_units(manifest.get("end_to_end").expect("end_to_end"));
    let per_layer = names_and_units(manifest.get("per_layer").expect("per_layer"));
    let workloads = items(manifest.get("workloads").expect("workloads"));
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("a name");
        check_run(name, "0", &end_to_end);
        check_run(name, "1", &per_layer);
        let spans =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{name}.json"));
        let text = std::fs::read_to_string(&spans).expect("a span file per workload");
        assert!(
            json::parse(&text).is_ok(),
            "{} is not JSON",
            spans.display()
        );
    }
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload", "--quick"][..],
        &["--workload", "serve-hot", "--trace", "2"],
        &["--workload", "serve-hot", "--seconds", "0"],
        &[],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    if cfg!(debug_assertions) {
        let out = bench(&[
            "--workload",
            "serve-hot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert!(
            !out.status.success(),
            "a debug build must refuse to measure"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
    }
}
