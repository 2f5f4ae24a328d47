//! Regenerate every table and figure of the reproduction.
//!
//! ```bash
//! cargo run -p sj-bench --release --bin experiments            # everything
//! cargo run -p sj-bench --release --bin experiments -- fig5    # one experiment
//! ```
//!
//! Output: human-readable tables on stdout plus the CSV files under
//! `results/`. The experiments themselves are
//! [`sj_bench::experiments`]; nothing here or there reads a clock, so a
//! rerun leaves `git diff results/` empty unless behaviour changed.

use sj_bench::experiments::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let all = which == "all";
    let mut ran = false;
    for (name, run) in EXPERIMENTS {
        if all || which == *name {
            println!("\n################ experiment: {name} ################");
            if let Some(csv) = run() {
                let path = csv.finish().expect("results/ is writable");
                println!("→ {}", path.display());
            }
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown experiment {which:?}; available:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
}
