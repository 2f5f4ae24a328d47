//! The statistics catalog: cached `ANALYZE` results over a
//! [`Database`], invalidated by version and carried across inserts.
//!
//! Storage stamps every binding of a name with a
//! [`Database::version_of`] that changes whenever the contents can
//! have — `Database::set`, `insert`, a write through `get_mut` — and
//! is never reused in the process. Each catalog entry records the
//! version its statistics describe, and [`StatsCatalog::stats_for`]
//! serves it only to a database whose relation of that name still
//! carries that version: equal versions mean equal contents, so stale
//! statistics are impossible, across every database (snapshot, fork,
//! unrelated) that shares the catalog. The catalog holds no handle on
//! the relation itself: a writer with no live reader mutates in place,
//! and a replaced or removed relation is freed at once.
//!
//! A writer that knows what it inserted can keep an entry current
//! without a scan: [`StatsCatalog::absorb_insert`] moves an entry
//! stamped with the pre-insert version to the post-insert one, through
//! [`TableStats::with_insert`], which is exact. That needs the entry's
//! [`Tally`], which costs memory, so only relations that take inserts
//! keep one: the first insert into a relation marks its name, and its
//! next analysis keeps the tally. Read-only relations pay nothing. A
//! string insert, or a relation with a string column, has no tally;
//! its next read analyzes as before.
//!
//! The catalog itself sits behind a lock and is shared across engine
//! clones via `Arc<StatsCatalog>`; entries are replaced, never mutated,
//! so readers get consistent `Arc<TableStats>` snapshots. Two counters
//! show the work: [`StatsCatalog::analyses`] and
//! [`StatsCatalog::inserts_absorbed`].

use crate::table::{TableStats, Tally};
use sj_obs::Counter;
use sj_storage::{Database, FxHashMap, FxHashSet, Tuple};
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
    /// [`Database::version_of`] the relation these statistics describe.
    version: u64,
    stats: Arc<TableStats>,
    /// Kept for relations that take inserts (see the module docs).
    tally: Option<Tally>,
}

#[derive(Default)]
struct Entries {
    by_name: FxHashMap<String, Entry>,
    /// Names an insert was reported for: their analyses keep a tally.
    written: FxHashSet<String>,
}

/// A cache of [`TableStats`] per relation name, invalidated by version
/// (see the module docs).
#[derive(Default)]
pub struct StatsCatalog {
    entries: Mutex<Entries>,
    analyses: Arc<Counter>,
    absorbed: Arc<Counter>,
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

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().expect("stats catalog poisoned")
    }

    /// Statistics for `db`'s relation `name`, analyzing and caching on
    /// the first request and whenever `db` holds another version of the
    /// relation than the cached entry describes.
    pub fn stats_for(&self, db: &Database, name: &str) -> Option<Arc<TableStats>> {
        let version = db.version_of(name)?;
        let keep_tally = {
            let entries = self.lock();
            if let Some(e) = entries.by_name.get(name).filter(|e| e.version == version) {
                return Some(e.stats.clone());
            }
            entries.written.contains(name)
        };
        // Analyze outside the lock: concurrent misses may race to
        // analyze the same relation, but equal versions compute
        // identical stats and the last write wins — correctness over
        // duplicate work.
        let relation = db.get(name)?;
        let (stats, tally) = TableStats::analyze_tallied(relation, keep_tally);
        let stats = Arc::new(stats);
        self.analyses.inc();
        let entry = Entry {
            version,
            stats: stats.clone(),
            tally,
        };
        self.lock().by_name.insert(name.to_string(), entry);
        Some(stats)
    }

    /// Report that `t`, new to it, was inserted into relation `name`,
    /// moving its version from `before` to `after`. An entry stamped
    /// `before` that keeps a tally takes the insert exactly
    /// ([`TableStats::with_insert`]) and is re-stamped `after`; `true`
    /// then. Otherwise nothing is served stale, since versions still
    /// decide: an entry at another version is left alone (a reader got
    /// there first, or an earlier insert was not absorbed), an entry
    /// without a tally waits for the next read to analyze, and a string
    /// insert drops the entry. Every call marks `name` as written, so
    /// its next analysis keeps a tally.
    pub fn absorb_insert(&self, name: &str, before: u64, after: u64, t: &Tuple) -> bool {
        let mut entries = self.lock();
        let Entries { by_name, written } = &mut *entries;
        if !written.contains(name) {
            written.insert(name.to_string());
        }
        let Some(entry) = by_name.get_mut(name).filter(|e| e.version == before) else {
            return false;
        };
        let Some(tally) = entry.tally.as_mut() else {
            return false;
        };
        match entry.stats.with_insert(tally, t) {
            Some(stats) => {
                entry.stats = Arc::new(stats);
                entry.version = after;
                self.absorbed.inc();
                true
            }
            None => {
                by_name.remove(name);
                false
            }
        }
    }

    /// Relations analyzed so far (`sj_stats_analyses_total` in a
    /// server's exposition).
    pub fn analyses(&self) -> &Arc<Counter> {
        &self.analyses
    }

    /// Inserts [`StatsCatalog::absorb_insert`] applied so far
    /// (`sj_stats_inserts_absorbed_total`).
    pub fn inserts_absorbed(&self) -> &Arc<Counter> {
        &self.absorbed
    }

    /// Number of cached entries (test and introspection hook).
    pub fn len(&self) -> usize {
        self.lock().by_name.len()
    }

    /// True iff nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached entry, and forget which relations took inserts.
    pub fn clear(&self) {
        *self.lock() = Entries::default();
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

    /// Insert `t` into `d`'s relation `name` and report it to `cat`, as
    /// a writer does; the absorb's verdict.
    fn insert_and_absorb(cat: &StatsCatalog, d: &mut Database, name: &str, t: Tuple) -> bool {
        let before = d.version_of(name).unwrap();
        assert!(d.insert(name, t.clone()).unwrap(), "a fresh tuple");
        let after = d.version_of(name).unwrap();
        cat.absorb_insert(name, before, after, &t)
    }

    #[test]
    fn a_relation_gets_a_tally_on_its_first_insert() {
        let cat = StatsCatalog::new();
        let mut d = db();
        cat.stats_for(&d, "R").unwrap();
        // Read-only so far: no tally, so the first insert cannot be
        // absorbed, only noted…
        assert!(!insert_and_absorb(&cat, &mut d, "R", tuple![3, 7]));
        assert_eq!(cat.analyses().get(), 1);
        // …and the next read analyzes with a tally, which every later
        // insert updates without another analysis.
        cat.stats_for(&d, "R").unwrap();
        assert_eq!(cat.analyses().get(), 2);
        for t in [tuple![3, 9], tuple![0, -4], tuple![8, 8]] {
            assert!(insert_and_absorb(&cat, &mut d, "R", t));
        }
        let served = cat.stats_for(&d, "R").unwrap();
        assert_eq!(cat.analyses().get(), 2, "absorbed inserts analyze nothing");
        assert_eq!(cat.inserts_absorbed().get(), 3);
        assert_eq!(*served, TableStats::analyze(d.get("R").unwrap()));
        // S never took an insert: its analysis keeps no tally.
        cat.stats_for(&d, "S").unwrap();
        assert!(cat.lock().by_name["S"].tally.is_none());
        assert!(cat.lock().by_name["R"].tally.is_some());
    }

    #[test]
    fn an_absorb_at_the_wrong_version_is_a_no_op() {
        let cat = StatsCatalog::new();
        let mut d = db();
        insert_and_absorb(&cat, &mut d, "R", tuple![3, 7]);
        let first = cat.stats_for(&d, "R").unwrap();
        let version = d.version_of("R").unwrap();
        // Two inserts, reported out of order: the second one's
        // pre-version is not the entry's, so it changes nothing.
        let v1 = d.version_of("R").unwrap();
        d.insert("R", tuple![4, 4]).unwrap();
        let v2 = d.version_of("R").unwrap();
        d.insert("R", tuple![5, 5]).unwrap();
        let v3 = d.version_of("R").unwrap();
        assert!(!cat.absorb_insert("R", v2, v3, &tuple![5, 5]));
        let entries = cat.lock();
        assert_eq!(entries.by_name["R"].version, version);
        assert!(Arc::ptr_eq(&entries.by_name["R"].stats, &first));
        drop(entries);
        // The first one still applies; the entry then trails the
        // relation by one insert and the next read re-analyzes.
        assert!(cat.absorb_insert("R", v1, v2, &tuple![4, 4]));
        let analyses = cat.analyses().get();
        let stats = cat.stats_for(&d, "R").unwrap();
        assert_eq!(cat.analyses().get(), analyses + 1);
        assert_eq!(*stats, TableStats::analyze(d.get("R").unwrap()));
        assert_eq!(stats.rows, 6);
    }

    #[test]
    fn a_string_insert_drops_the_entry() {
        let cat = StatsCatalog::new();
        let mut d = db();
        insert_and_absorb(&cat, &mut d, "R", tuple![3, 7]);
        cat.stats_for(&d, "R").unwrap();
        assert_eq!(cat.len(), 1);
        assert!(!insert_and_absorb(&cat, &mut d, "R", tuple![3, "x"]));
        assert_eq!(cat.len(), 0, "no entry describes a mixed R");
        // The next read analyzes as before, and no tally is possible.
        let stats = cat.stats_for(&d, "R").unwrap();
        assert_eq!(*stats, TableStats::analyze(d.get("R").unwrap()));
        assert!(cat.lock().by_name["R"].tally.is_none());
        assert!(!insert_and_absorb(&cat, &mut d, "R", tuple![9, 9]));
        assert_eq!(cat.stats_for(&d, "R").unwrap().rows, 6);
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
