//! The statistics catalog: cached `ANALYZE` results over a
//! [`Database`], invalidated copy-on-write.
//!
//! [`Database`] stores relations behind [`Arc`]s and mutates them
//! copy-on-write through `Arc::make_mut`. Each catalog entry keeps a
//! strong handle to the relation it analyzed, which makes the
//! allocation identity an **airtight fingerprint**: while the catalog
//! holds its handle the relation is reader-shared, so *any* later
//! mutation — `Database::set`, `insert`, a write through `get_mut` — replaces or
//! copies the stored `Arc`, and [`StatsCatalog::stats_for`] detects
//! the new allocation with one `Arc::ptr_eq` and re-analyzes. Stale
//! statistics are therefore impossible; the price is that a replaced
//! relation's old allocation lives until its catalog entry is
//! refreshed or [`StatsCatalog::clear`]ed.
//!
//! The catalog itself sits behind a lock and is shared across engine
//! clones via `Arc<StatsCatalog>`; entries are replaced, never mutated,
//! so readers get consistent `Arc<TableStats>` snapshots.

use crate::table::TableStats;
use sj_storage::{Database, FxHashMap, Relation};
use std::sync::{Arc, Mutex};

/// A source of per-relation statistics keyed by relation name — what
/// the cardinality estimator and the planner consume. Implemented by
/// [`CatalogSource`] (a [`StatsCatalog`] bound to a database).
pub trait StatsSource {
    /// Statistics for the named relation, or `None` when unknown.
    fn table_stats(&self, name: &str) -> Option<Arc<TableStats>>;
}

/// Blanket map source, convenient for tests and one-off estimation.
impl StatsSource for FxHashMap<String, Arc<TableStats>> {
    fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.get(name).cloned()
    }
}

#[derive(Clone)]
struct Entry {
    /// The relation as analyzed. Holding the handle keeps the stored
    /// `Arc` reader-shared, so any mutation copies-on-write to a new
    /// allocation — pointer equality is then a complete freshness
    /// check.
    rel: Arc<Relation>,
    stats: Arc<TableStats>,
}

/// A cache of [`TableStats`] per relation name with copy-on-write
/// invalidation (see the module docs).
#[derive(Default)]
pub struct StatsCatalog {
    entries: Mutex<FxHashMap<String, Entry>>,
}

impl std::fmt::Debug for StatsCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsCatalog")
            .field("entries", &self.len())
            .finish()
    }
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> StatsCatalog {
        StatsCatalog::default()
    }

    /// Statistics for `db`'s relation `name`, analyzing and caching on
    /// the first request and whenever the stored relation was replaced
    /// since the cached analysis.
    pub fn stats_for(&self, db: &Database, name: &str) -> Option<Arc<TableStats>> {
        let rel = db.get_shared(name)?;
        {
            let entries = self.entries.lock().expect("stats catalog poisoned");
            if let Some(e) = entries.get(name) {
                if Arc::ptr_eq(&e.rel, &rel) {
                    return Some(e.stats.clone());
                }
            }
        }
        // Analyze outside the lock: concurrent misses may race to
        // analyze the same relation, but both compute identical stats
        // and the last write wins — correctness over duplicate work.
        let stats = Arc::new(TableStats::analyze(&rel));
        self.entries.lock().expect("stats catalog poisoned").insert(
            name.to_string(),
            Entry {
                rel,
                stats: stats.clone(),
            },
        );
        Some(stats)
    }

    /// Number of cached entries (test and introspection hook).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("stats catalog poisoned").len()
    }

    /// True iff nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached entry.
    pub fn clear(&self) {
        self.entries.lock().expect("stats catalog poisoned").clear();
    }
}

/// A [`StatsSource`] view of a catalog bound to a database.
pub struct CatalogSource<'a> {
    catalog: &'a StatsCatalog,
    db: &'a Database,
}

impl<'a> CatalogSource<'a> {
    /// Bind `catalog` to `db` for estimator consumption.
    pub fn new(catalog: &'a StatsCatalog, db: &'a Database) -> CatalogSource<'a> {
        CatalogSource { catalog, db }
    }
}

impl StatsSource for CatalogSource<'_> {
    fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.catalog.stats_for(self.db, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::tuple;

    fn db() -> Database {
        let mut d = Database::new();
        d.set("R", Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7]]));
        d.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        d
    }

    #[test]
    fn caches_and_shares_entries() {
        let cat = StatsCatalog::new();
        let d = db();
        assert!(cat.is_empty());
        let a = cat.stats_for(&d, "R").unwrap();
        let b = cat.stats_for(&d, "R").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(cat.len(), 1);
        assert_eq!(a.rows, 3);
        assert!(cat.stats_for(&d, "missing").is_none());
    }

    #[test]
    fn replacement_invalidates() {
        let cat = StatsCatalog::new();
        let mut d = db();
        let before = cat.stats_for(&d, "R").unwrap();
        d.set("R", Relation::from_int_rows(&[&[9, 9]]));
        let after = cat.stats_for(&d, "R").unwrap();
        assert_eq!(before.rows, 3);
        assert_eq!(after.rows, 1, "replaced relation must be re-analyzed");
    }

    #[test]
    fn in_place_mutation_invalidates() {
        let cat = StatsCatalog::new();
        let mut d = db();
        let before = cat.stats_for(&d, "S").unwrap();
        assert_eq!(before.rows, 2);
        // The catalog's entry keeps the Arc reader-shared, so this
        // insert copies-on-write to a fresh allocation — which is
        // exactly what the ptr_eq freshness check detects.
        d.insert("S", tuple![9]).unwrap();
        let after = cat.stats_for(&d, "S").unwrap();
        assert_eq!(after.rows, 3);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cat = StatsCatalog::new();
        let d = db();
        cat.stats_for(&d, "R");
        cat.stats_for(&d, "S");
        assert_eq!(cat.len(), 2);
        cat.clear();
        assert!(cat.is_empty());
    }

    #[test]
    fn catalog_source_delegates() {
        let cat = StatsCatalog::new();
        let d = db();
        let src = CatalogSource::new(&cat, &d);
        let a = src.table_stats("R").unwrap();
        let b = src.table_stats("R").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
