//! # sj-bench — the paper's deterministic artifacts
//!
//! The [`experiments`] (run by the `experiments` binary,
//! `src/bin/experiments.rs`) regenerate every table and figure of the
//! reproduction as text and CSV (under `results/`), plus the workloads
//! and the CSV plumbing they share. Every number is a tuple count, an
//! exponent or a verdict, so the committed CSVs are byte-reproducible.
//! Nothing in this crate reads a clock: wall-clock measurement is
//! `benchmark/` (see `/BENCHMARK.json`).

pub mod experiments;

use sj_storage::Database;
use std::path::{Path, PathBuf};

/// The standard scale points used across the experiments.
pub const SCALES: [usize; 5] = [16, 32, 64, 128, 256];

/// The adversarial division series at the standard scales.
pub fn standard_adversarial_series() -> Vec<Database> {
    sj_workload::adversarial_division_series(&SCALES, 0xC0FFEE)
}

/// A beer-drinkers workload (Visits/Serves/Likes over k drinkers/bars/
/// beers) with a sparse cyclic like-pattern, used by the semijoin
/// experiments; `|D| ≈ 4k`.
pub fn beer_database(k: i64, seed: u64) -> Database {
    use sj_storage::{Relation, Tuple};
    let mut rng = sj_workload::SplitMix64::new(seed);
    let mut db = Database::new();
    let visits: Vec<Tuple> = (0..k)
        .map(|i| Tuple::from_ints(&[i, 1000 + rng.range_i64(0, k - 1)]))
        .collect();
    let serves: Vec<Tuple> = (0..k)
        .flat_map(|i| {
            [
                Tuple::from_ints(&[1000 + i, 2000 + i]),
                Tuple::from_ints(&[1000 + i, 2000 + (i + 1) % k]),
            ]
        })
        .collect();
    let likes: Vec<Tuple> = (0..k)
        .map(|i| Tuple::from_ints(&[i, 2000 + rng.range_i64(0, k - 1)]))
        .collect();
    db.set("Visits", Relation::from_tuples(2, visits).unwrap());
    db.set("Serves", Relation::from_tuples(2, serves).unwrap());
    db.set("Likes", Relation::from_tuples(2, likes).unwrap());
    db
}

/// The adversarial beer workload for the cyclic query of Section 4.1:
/// every drinker visits the same bar, which serves `k` beers — the
/// `Visits ⋈ Serves` intermediate is forced to `k²` while `|D| = 3k`.
/// The lousy-bar query (in SA=) stays linear even here.
pub fn beer_database_adversarial(k: i64) -> Database {
    use sj_storage::{Relation, Tuple};
    let mut db = Database::new();
    let visits: Vec<Tuple> = (0..k).map(|i| Tuple::from_ints(&[i, 1000])).collect();
    let serves: Vec<Tuple> = (0..k)
        .map(|j| Tuple::from_ints(&[1000, 2000 + j]))
        .collect();
    let likes: Vec<Tuple> = (0..k)
        .map(|i| Tuple::from_ints(&[i, 2000 + (i + 7) % k]))
        .collect();
    db.set("Visits", Relation::from_tuples(2, visits).unwrap());
    db.set("Serves", Relation::from_tuples(2, serves).unwrap());
    db.set("Likes", Relation::from_tuples(2, likes).unwrap());
    db
}

/// One CSV table, destined for `results/<name>.csv` at the workspace
/// root.
pub struct CsvSink {
    path: PathBuf,
    rows: Vec<String>,
}

impl CsvSink {
    /// Start a CSV with a header row.
    pub fn new(name: &str, header: &[&str]) -> Self {
        let dir = workspace_results_dir();
        CsvSink {
            path: dir.join(format!("{name}.csv")),
            rows: vec![header.join(",")],
        }
    }

    /// Append one row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.join(","));
    }

    /// The file's exact contents: one line per row, each
    /// newline-terminated.
    pub fn render(&self) -> String {
        self.rows.join("\n") + "\n"
    }

    /// Where [`CsvSink::finish`] writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write [`CsvSink::render`] to [`CsvSink::path`] (creating
    /// `results/` if needed); returns the path.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&self.path, self.render())?;
        Ok(self.path)
    }
}

fn workspace_results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beer_database_shape() {
        let db = beer_database(50, 1);
        assert_eq!(db.get("Serves").unwrap().len(), 100);
        assert!(db.get("Visits").unwrap().len() <= 50);
        assert_eq!(db.schema().arity_of("Likes"), Some(2));
        // Deterministic.
        assert_eq!(db, beer_database(50, 1));
        assert_ne!(db, beer_database(50, 2));
    }

    #[test]
    fn series_builders() {
        let s = standard_adversarial_series();
        assert_eq!(s.len(), SCALES.len());
        assert!(s[0].size() < s[4].size());
    }

    #[test]
    fn csv_sink_renders() {
        let mut sink = CsvSink::new("test_sink", &["a", "b"]);
        assert_eq!(sink.render(), "a,b\n");
        sink.row(&["1".into(), "2".into()]);
        assert_eq!(sink.render(), "a,b\n1,2\n");
        assert!(sink.path().ends_with("results/test_sink.csv"));
    }
}
