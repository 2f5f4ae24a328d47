//! The setjoins benchmark. Every layer is measured from outside, by timing
//! calls into its public functions; see `README.md` in this directory.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! bench run       [--seed n] [--seconds s]    all four workloads, one child process each
//! bench trace     [--seed n] [--seconds s]    the per-layer table and the span files
//! bench calibrate [--seed n] [--seconds s]    two sets of ten seeds per workload, against the bounds
//! ```

mod batch;
mod gen;
mod harness;
mod json;
mod layers;
mod metrics;
mod orchestrate;
mod serve;
mod spans;
mod stats;

use gen::Scale;
use harness::{Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Environment toggles of the program under test that would silently
/// change what is measured.
pub const SCRUBBED_ENV: [&str; 3] = [
    "SETJOINS_EXECUTION",
    "SETJOINS_TEST_CHUNK",
    "SETJOINS_TEST_THREADS",
];

/// Command-line options shared by every mode.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: metrics::DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// The `benchmark/` directory: as run by Cargo, else as built.
pub fn crate_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir)
}

/// `benchmark/out`, where span files and result stamps go (git-ignored).
pub fn out_dir() -> PathBuf {
    crate_dir().join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn single_run(o: &Options) -> Result<(), String> {
    let name = o.workload.clone().expect("checked by the caller");
    let workload = Workload::parse(&name).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; known: {}",
            metrics::WORKLOADS.join(", ")
        )
    })?;
    if cfg!(debug_assertions) && !o.quick {
        return Err(
            "refusing to measure a debug build: use --release (or --quick to smoke-test)".into(),
        );
    }
    let cfg = Config {
        workload,
        name,
        seed: o.seed,
        seconds: o.seconds,
        scale: if o.quick { Scale::Quick } else { Scale::Full },
        nproc: nproc(),
    };
    if o.trace {
        orchestrate::report_trace(&cfg)
    } else {
        orchestrate::report_run(&cfg)
    }
}

fn main() -> ExitCode {
    // Before any thread exists and before the program reads them.
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "calibrate")) => (m, &args[1..]),
        _ => ("single", &args[..]),
    };
    let outcome = parse_options(rest).and_then(|o| match mode {
        "run" => orchestrate::all_workloads(&o, false),
        "trace" => orchestrate::all_workloads(&o, true),
        "calibrate" => orchestrate::calibrate(&o),
        _ if o.workload.is_some() => single_run(&o),
        _ => Err("usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       \
                  bench run|trace|calibrate [--seed n] [--seconds s] [--quick]"
            .into()),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
