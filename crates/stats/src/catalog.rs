//! The statistics catalog: cached `ANALYZE` results over a
//! [`Database`], invalidated by version.
//!
//! Storage stamps every binding of a name with a
//! [`Database::version_of`] that changes whenever the contents can
//! have — `Database::set`, `insert`, a write through `get_mut` — and
//! is never reused in the process. Each catalog entry records the
//! version it analyzed, and [`StatsCatalog::stats_for`] serves it only
//! to a database whose relation of that name still carries that
//! version: equal versions mean equal contents, so stale statistics
//! are impossible, across every database (snapshot, fork, unrelated)
//! that shares the catalog. The catalog holds no handle on the
//! relation itself: a writer with no live reader mutates in place, and
//! a replaced or removed relation is freed at once.
//!
//! The catalog itself sits behind a lock and is shared across engine
//! clones via `Arc<StatsCatalog>`; entries are replaced, never mutated,
//! so readers get consistent `Arc<TableStats>` snapshots.

use crate::table::TableStats;
use sj_storage::{Database, FxHashMap};
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

struct Entry {
    /// [`Database::version_of`] the relation as analyzed.
    version: u64,
    stats: Arc<TableStats>,
}

/// A cache of [`TableStats`] per relation name, invalidated by version
/// (see the module docs).
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
    /// the first request and whenever `db` holds another version of the
    /// relation than the cached analysis saw.
    pub fn stats_for(&self, db: &Database, name: &str) -> Option<Arc<TableStats>> {
        let version = db.version_of(name)?;
        {
            let entries = self.entries.lock().expect("stats catalog poisoned");
            if let Some(e) = entries.get(name).filter(|e| e.version == version) {
                return Some(e.stats.clone());
            }
        }
        // Analyze outside the lock: concurrent misses may race to
        // analyze the same relation, but equal versions compute
        // identical stats and the last write wins — correctness over
        // duplicate work.
        let stats = Arc::new(TableStats::analyze(db.get(name)?));
        let entry = Entry {
            version,
            stats: stats.clone(),
        };
        self.entries
            .lock()
            .expect("stats catalog poisoned")
            .insert(name.to_string(), entry);
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
    use sj_storage::{tuple, Relation};

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
        // Nothing else holds S, so this insert mutates the stored
        // allocation in place — same pointer, new version, which is
        // what the freshness check reads.
        d.insert("S", tuple![9]).unwrap();
        let after = cat.stats_for(&d, "S").unwrap();
        assert_eq!(after.rows, 3);
    }

    #[test]
    fn the_catalog_keeps_no_relation_alive() {
        let cat = StatsCatalog::new();
        let mut d = db();
        let analyzed = Arc::downgrade(&d.get_shared("R").unwrap());
        let before = cat.stats_for(&d, "R").unwrap();
        // The database holds the only strong handle, so the write takes
        // the allocation over instead of copying it and leaving the
        // analyzed state behind…
        d.insert("R", tuple![9, 9]).unwrap();
        assert!(analyzed.upgrade().is_none());
        let after = cat.stats_for(&d, "R").unwrap();
        assert_eq!((before.rows, after.rows), (3, 4), "…and still re-analyzes");
        // A replaced relation is gone the moment the database lets go
        // of it, entry or no entry.
        let analyzed = Arc::downgrade(&d.get_shared("R").unwrap());
        d.set("R", Relation::from_int_rows(&[&[1, 1]]));
        assert!(analyzed.upgrade().is_none());
    }

    #[test]
    fn one_catalog_serves_unrelated_databases() {
        // Built the same way, step for step, with different contents:
        // versions counted per database would collide here.
        let cat = StatsCatalog::new();
        let a = db();
        let mut b = Database::new();
        b.set("R", Relation::from_int_rows(&[&[9, 9]]));
        assert_eq!(cat.stats_for(&a, "R").unwrap().rows, 3);
        assert_eq!(cat.stats_for(&b, "R").unwrap().rows, 1);
        // A snapshot holds its source's contents, so it shares the entry.
        let first = cat.stats_for(&a, "R").unwrap();
        let again = cat.stats_for(&a.snapshot(), "R").unwrap();
        assert!(Arc::ptr_eq(&first, &again));
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
