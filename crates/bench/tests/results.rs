//! The committed artifacts cannot drift: every experiment's table is
//! rendered in memory and compared byte for byte with its committed
//! `results/*.csv`. A behaviour change that moves a cardinality, an
//! exponent or a survivor count fails here until the regenerated CSV
//! (`cargo run -p sj-bench --release --bin experiments`) is committed
//! with it. Nothing under `results/` is written by this test.

use sj_bench::experiments::EXPERIMENTS;
use std::path::PathBuf;

#[test]
fn committed_csvs_are_exactly_what_the_experiments_render() {
    let mut rendered: Vec<PathBuf> = Vec::new();
    for (name, run) in EXPERIMENTS {
        let Some(csv) = run() else { continue };
        let path = csv.path();
        let committed =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            csv.render(),
            committed,
            "{} drifted from `experiments -- {name}`",
            path.display()
        );
        rendered.push(path.to_path_buf());
    }
    // A deleted experiment leaves no stale table behind.
    let dir = rendered[0].parent().expect("results/").to_path_buf();
    let mut on_disk: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    on_disk.sort();
    rendered.sort();
    assert_eq!(on_disk, rendered);
}
