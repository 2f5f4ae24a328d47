//! Databases: assignments of relations to relation names.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The next [`Database::version_of`] stamp: one counter for the whole
/// process, so a stamp is never handed out twice — not even to two
/// unrelated databases.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    // Relaxed: the stamp only has to be unique, which the atomic
    // increment gives under any ordering. It publishes nothing — the
    // contents it names travel with the `Database` itself.
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// What a name is bound to: the relation, and the version of that
/// binding's contents (see [`Database::version_of`]).
#[derive(Clone)]
struct Binding {
    rel: Arc<Relation>,
    version: u64,
}

impl Binding {
    fn new(rel: Arc<Relation>) -> Binding {
        Binding {
            rel,
            version: next_version(),
        }
    }
}

/// A database `D` over a schema `S`: an assignment of a finite relation
/// `D(R)` to each relation name `R ∈ S` (Section 2 of the paper).
///
/// Relation names are kept sorted so that iteration, display, and hashing
/// are deterministic.
///
/// Relations are stored behind [`Arc`] so that evaluators can take
/// zero-copy handles to leaf relations ([`Database::get_shared`]) instead
/// of deep-cloning them per scan; mutation goes through
/// [`Arc::make_mut`] (copy-on-write), so the plain `&Relation` /
/// `&mut Relation` API is unchanged.
///
/// Every mutation also bumps a monotonic [`Database::epoch`] counter
/// and re-stamps the binding it touched ([`Database::version_of`]), and
/// [`Database::snapshot`] captures a cheap immutable handle (one `Arc`
/// clone per relation, zero tuple clones) — together these are the
/// substrate for snapshot-isolated serving (`sj-server`): readers keep
/// their snapshot while writers copy-on-write underneath them. The
/// epoch *orders* the states of one database; a version *identifies*
/// the contents of one binding, whichever database holds it.
///
/// ```
/// use sj_storage::{Database, Relation};
/// let mut d = Database::new();
/// d.set("R", Relation::from_int_rows(&[&[1, 2], &[2, 3]]));
/// d.set("S", Relation::from_int_rows(&[&[1, 2]]));
/// assert_eq!(d.size(), 3); // Definition 15: sum of cardinalities
/// ```
#[derive(Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Binding>,
    /// Mutation counter; see [`Database::epoch`]. Not part of equality:
    /// two databases with the same contents compare equal regardless of
    /// their mutation histories.
    epoch: u64,
}

/// Contents-only equality — the epoch and the versions record history,
/// not data.
impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Database {}

impl Database {
    /// The empty database (no relation names at all).
    pub fn new() -> Self {
        Database::default()
    }

    /// Build a database from `(name, relation)` pairs.
    pub fn from_relations<N: Into<String>>(rels: impl IntoIterator<Item = (N, Relation)>) -> Self {
        Database {
            relations: rels
                .into_iter()
                .map(|(n, r)| (n.into(), Binding::new(Arc::new(r))))
                .collect(),
            epoch: 0,
        }
    }

    /// A database over `schema` with every relation empty.
    pub fn empty_over(schema: &Schema) -> Self {
        Database {
            relations: schema
                .iter()
                .map(|(n, a)| (n.to_string(), Binding::new(Arc::new(Relation::empty(a)))))
                .collect(),
            epoch: 0,
        }
    }

    /// Assign `rel` to `name`, replacing any previous assignment.
    pub fn set(&mut self, name: impl Into<String>, rel: Relation) {
        self.set_shared(name, Arc::new(rel));
    }

    /// Assign an already-shared relation to `name` without copying it.
    pub fn set_shared(&mut self, name: impl Into<String>, rel: Arc<Relation>) {
        self.relations.insert(name.into(), Binding::new(rel));
        self.epoch += 1;
    }

    /// Remove the relation assigned to `name`, returning its handle.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Relation>> {
        let removed = self.relations.remove(name)?;
        self.epoch += 1;
        Some(removed.rel)
    }

    /// The database's **mutation epoch**: a monotonic counter bumped by
    /// every mutating operation ([`Database::set`],
    /// [`Database::set_shared`], [`Database::remove`],
    /// [`Database::insert`], and writes through
    /// [`Database::get_mut`]). Two reads of the same epoch are
    /// guaranteed to see identical contents; caches (plans, results,
    /// statistics) use it as a cheap freshness stamp.
    ///
    /// Handing out a [`RelationMut`] guard via [`Database::get_mut`]
    /// does **not** count as a mutation by itself: the guard bumps the
    /// epoch only when it is actually dereferenced mutably. A
    /// read-only pass through `get_mut` therefore leaves the epoch —
    /// and every cache keyed on it — untouched, while contents can
    /// still never change without the epoch advancing.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The **version** of the contents bound to `name`, `None` when
    /// nothing is: the one answer to "did this relation change since I
    /// last looked?". A binding is stamped when it is created or
    /// replaced (the constructors, [`Database::set`],
    /// [`Database::set_shared`]) and re-stamped by the first write
    /// through a [`RelationMut`] guard — the moments the epoch
    /// advances for that name. [`Clone`] and [`Database::snapshot`]
    /// copy the stamp with the contents; reads never move it.
    ///
    /// Stamps come from one process-wide counter, so **equal versions
    /// mean equal contents in any two databases of the process** —
    /// snapshots of one evolving master, or databases built apart. That
    /// is what lets a cache shared across databases (`sj-stats`'
    /// catalog, `sj-server`'s cached answers) key on it. The converse does
    /// not hold: replacing a relation by an equal one is a new version.
    /// Like the epoch, versions are history and not part of equality.
    pub fn version_of(&self, name: &str) -> Option<u64> {
        self.relations.get(name).map(|b| b.version)
    }

    /// A cheap immutable [`Snapshot`] of the database: one `Arc` clone
    /// per relation name, **zero tuple clones**. The snapshot keeps
    /// reading the relations as they are now; later writers mutate
    /// copy-on-write (see [`Database::get_mut`]) and never disturb it.
    pub fn snapshot(&self) -> Snapshot {
        let _span = sj_obs::span!(
            "storage.snapshot",
            relations = self.relations.len(),
            epoch = self.epoch
        );
        Snapshot { db: self.clone() }
    }

    /// The relation assigned to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|b| b.rel.as_ref())
    }

    /// A shared, zero-copy handle to the relation assigned to `name`.
    /// This is how the planned evaluator scans leaves: bumping the
    /// reference count instead of deep-cloning the tuple vector.
    pub fn get_shared(&self, name: &str) -> Option<Arc<Relation>> {
        self.relations.get(name).map(|b| b.rel.clone())
    }

    /// The relation assigned to `name`, as an error-producing lookup.
    pub fn require(&self, name: &str) -> crate::Result<&Relation> {
        self.get(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a relation, as a write-tracking [`RelationMut`]
    /// guard. Copy-on-write via [`Arc::make_mut`]: when the `Arc` is
    /// uniquely held (no evaluator holds a [`Database::get_shared`]
    /// handle) the stored allocation is mutated in place — **no clone**
    /// — and only a relation still shared with a reader is copied
    /// before mutation.
    ///
    /// The copy-on-write, the [`Database::epoch`] bump and the new
    /// [`Database::version_of`] stamp are all deferred to the guard's
    /// first *mutable* dereference: merely obtaining (or reading
    /// through) the guard mutates nothing, advances no epoch, and
    /// invalidates no cache.
    pub fn get_mut(&mut self, name: &str) -> Option<RelationMut<'_>> {
        let binding = self.relations.get_mut(name)?;
        Some(RelationMut {
            binding,
            epoch: &mut self.epoch,
            wrote: false,
        })
    }

    /// Insert a tuple into relation `name` (which must exist). Returns
    /// `true` if the tuple was new; a tuple already present is not a
    /// mutation — no epoch, no version, no copy-on-write.
    pub fn insert(&mut self, name: &str, t: Tuple) -> crate::Result<bool> {
        let mut rel = self
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))?;
        // Membership through the guard's immutable deref. A tuple of
        // the wrong arity is never a member, so it still reaches
        // `Relation::insert` and its `ArityMismatch`.
        if rel.contains(&t) {
            return Ok(false);
        }
        rel.insert(t)
    }

    /// Iterate `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations
            .iter()
            .map(|(n, b)| (n.as_str(), b.rel.as_ref()))
    }

    /// Relation names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|n| n.as_str())
    }

    /// The schema induced by the stored relations.
    pub fn schema(&self) -> Schema {
        Schema::new(self.iter().map(|(n, r)| (n, r.arity())))
    }

    /// **Definition 15**: the size `|D|` of the database — the sum of the
    /// cardinalities of its relations.
    pub fn size(&self) -> usize {
        self.iter().map(|(_, r)| r.len()).sum()
    }

    /// The active domain: all values occurring in any relation, sorted and
    /// deduplicated. GF formulas are interpreted over this set.
    pub fn active_domain(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self
            .iter()
            .flat_map(|(_, r)| r.iter().flat_map(|t| t.iter().cloned()))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// **Definition 25**: the tuple space `T_D` — the union of all relations
    /// of the database, as a list of `(relation name, tuple)` pairs in
    /// deterministic order. The same tuple may appear under several names;
    /// both views are useful, see [`Database::tuple_space_set`].
    pub fn tuple_space(&self) -> Vec<(&str, &Tuple)> {
        let mut v = Vec::with_capacity(self.size());
        for (n, r) in self.iter() {
            for t in r {
                v.push((n, t));
            }
        }
        v
    }

    /// The tuple space as a deduplicated set of tuples (the paper's
    /// `T_D = ⋃ {D(R) | R ∈ S}` — a set union, so duplicates across
    /// relations collapse). Tuples of different arities coexist.
    pub fn tuple_space_set(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().flat_map(|(_, r)| r.iter().cloned()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// **Definition 9**: the guarded sets of the database — sets of the form
    /// `{d₁, …, dₙ}` for `(d₁, …, dₙ) ∈ D(R)`, each returned as a sorted,
    /// deduplicated vector of values; the list itself is deduplicated.
    pub fn guarded_sets(&self) -> Vec<Vec<Value>> {
        let mut v: Vec<Vec<Value>> = self
            .iter()
            .flat_map(|(_, r)| r.iter().map(Tuple::value_set))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Apply a value renaming to every tuple of every relation, producing a
    /// new database. Used to build isomorphic copies (the re-spacing step in
    /// the Lemma 24 pump construction).
    pub fn map_values(&self, mut f: impl FnMut(&Value) -> Value) -> Database {
        Database::from_relations(self.iter().map(|(n, r)| {
            let tuples = r.iter().map(|t| t.iter().map(&mut f).collect::<Tuple>());
            let mapped =
                Relation::from_tuples(r.arity(), tuples).expect("map_values preserves arity");
            (n, mapped)
        }))
    }
}

/// A write-tracking mutable guard over one relation, handed out by
/// [`Database::get_mut`].
///
/// Dereferencing it immutably reads the stored relation in place — no
/// copy, no epoch bump, no new version. The first **mutable**
/// dereference is the moment the access becomes a mutation: the guard
/// then bumps [`Database::epoch`] and re-stamps the binding's
/// [`Database::version_of`] (each exactly once per guard) and performs
/// the copy-on-write `Arc::make_mut`, cloning the relation only if a
/// [`Database::get_shared`] handle or a [`Snapshot`] still aliases it.
///
/// This keeps both stamps honest in both directions: contents can never
/// change without the epoch and the version advancing, and a read-only
/// pass through `get_mut` advances neither (so it invalidates no
/// `sj-server` result-cache entry and no `sj-stats` catalog entry).
pub struct RelationMut<'a> {
    binding: &'a mut Binding,
    epoch: &'a mut u64,
    wrote: bool,
}

impl std::ops::Deref for RelationMut<'_> {
    type Target = Relation;

    fn deref(&self) -> &Relation {
        &self.binding.rel
    }
}

impl std::ops::DerefMut for RelationMut<'_> {
    fn deref_mut(&mut self) -> &mut Relation {
        if !self.wrote {
            self.wrote = true;
            *self.epoch += 1;
            self.binding.version = next_version();
        }
        Arc::make_mut(&mut self.binding.rel)
    }
}

impl fmt::Debug for RelationMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// An immutable snapshot of a [`Database`], captured by
/// [`Database::snapshot`].
///
/// Capture cost is one `Arc` clone per relation name (the tuple vectors
/// themselves are shared, never copied). The snapshot is **stable**: a
/// writer mutating the source database afterwards goes through
/// copy-on-write (`Arc::make_mut`), so this handle keeps reading exactly
/// the state it captured. [`Snapshot::epoch`] records which mutation
/// epoch that was, and [`Database::version_of`] on the snapshot keeps
/// answering with the versions captured — comparing one against the
/// source's current version tells whether that relation moved on.
///
/// Derefs to [`Database`], so every read-only query API works on it
/// directly; [`Snapshot::into_db`] yields an owned `Database` (e.g. to
/// seed an engine) without any further copying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    db: Database,
}

impl Snapshot {
    /// The source database's [`Database::epoch`] at capture time.
    pub fn epoch(&self) -> u64 {
        self.db.epoch
    }

    /// The captured state as a database reference.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Unwrap into an owned [`Database`] (still zero tuple copies — the
    /// relations stay shared `Arc`s).
    pub fn into_db(self) -> Database {
        self.db
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Database");
        for (n, r) in self.iter() {
            s.field(n, r);
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    /// The database of Fig. 2 of the paper: R, S ternary; T binary.
    fn fig2() -> Database {
        let mut d = Database::new();
        d.set(
            "R",
            Relation::from_str_rows(&[&["a", "b", "c"], &["d", "e", "f"]]),
        );
        d.set("S", Relation::from_str_rows(&[&["d", "a", "b"]]));
        d.set("T", Relation::from_str_rows(&[&["e", "a"], &["f", "c"]]));
        d
    }

    #[test]
    fn size_is_sum_of_cardinalities() {
        assert_eq!(fig2().size(), 5);
    }

    #[test]
    fn schema_induced() {
        let s = fig2().schema();
        assert_eq!(s.arity_of("R"), Some(3));
        assert_eq!(s.arity_of("T"), Some(2));
    }

    #[test]
    fn active_domain() {
        let dom = fig2().active_domain();
        let expect: Vec<Value> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(Value::str)
            .collect();
        assert_eq!(dom, expect);
    }

    #[test]
    fn tuple_space_has_every_stored_tuple() {
        let d = fig2();
        let ts = d.tuple_space();
        assert_eq!(ts.len(), 5);
        assert!(ts.contains(&("T", &tuple!["e", "a"])));
        let set = d.tuple_space_set();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn guarded_sets_are_value_sets_of_tuples() {
        let d = fig2();
        let gs = d.guarded_sets();
        // {a,b,c}, {d,e,f}, {a,b,d}, {a,e}, {c,f}
        assert_eq!(gs.len(), 5);
        assert!(gs.contains(&vec![Value::str("a"), Value::str("e")]));
        assert!(gs.contains(&vec![Value::str("a"), Value::str("b"), Value::str("c")]));
    }

    #[test]
    fn empty_over_schema() {
        let s = Schema::new([("R", 2), ("S", 1)]);
        let d = Database::empty_over(&s);
        assert_eq!(d.size(), 0);
        assert_eq!(d.get("R").unwrap().arity(), 2);
        assert_eq!(d.get("S").unwrap().arity(), 1);
    }

    #[test]
    fn insert_and_require() {
        let mut d = Database::empty_over(&Schema::new([("R", 2)]));
        assert!(d.insert("R", tuple![1, 2]).unwrap());
        assert!(!d.insert("R", tuple![1, 2]).unwrap());
        assert!(d.insert("Q", tuple![1]).is_err());
        assert!(d.require("R").is_ok());
        assert!(d.require("Q").is_err());
    }

    #[test]
    fn map_values_renames() {
        let d = fig2();
        let e = d.map_values(|v| Value::str(format!("{}'", v.as_str().unwrap())));
        assert!(e.get("S").unwrap().contains(&tuple!["d'", "a'", "b'"]));
        assert_eq!(d.size(), e.size());
    }

    #[test]
    fn shared_handles_are_zero_copy_and_cow() {
        let mut d = fig2();
        let shared = d.get_shared("R").unwrap();
        // The handle aliases the stored relation, not a copy.
        assert!(std::ptr::eq(shared.as_ref(), d.get("R").unwrap()));
        // Mutation while shared copies on write: the handle keeps the old
        // contents, the database sees the new ones.
        d.insert("R", tuple!["x", "y", "z"]).unwrap();
        assert_eq!(shared.len(), 2);
        assert_eq!(d.get("R").unwrap().len(), 3);
        assert!(!std::ptr::eq(shared.as_ref(), d.get("R").unwrap()));
        // set_shared stores without copying.
        let mut e = Database::new();
        e.set_shared("R2", shared.clone());
        assert!(std::ptr::eq(shared.as_ref(), e.get("R2").unwrap()));
    }

    #[test]
    fn get_mut_on_unique_handle_does_not_clone() {
        let mut d = fig2();
        // No outstanding shared handle: the Arc is uniquely held, so
        // Arc::make_mut must hand back the stored allocation itself.
        let before = d.get("R").unwrap() as *const Relation;
        let via_mut = &mut *d.get_mut("R").unwrap() as *mut Relation as *const Relation;
        assert_eq!(before, via_mut, "unique handle must be mutated in place");
        assert_eq!(d.get("R").unwrap() as *const Relation, before);
        // Mutation through get_mut keeps the allocation too.
        d.insert("R", tuple!["x", "y", "z"]).unwrap();
        assert_eq!(d.get("R").unwrap() as *const Relation, before);
        assert_eq!(d.get("R").unwrap().len(), 3);
    }

    #[test]
    fn get_mut_on_shared_handle_copies_once() {
        let mut d = fig2();
        let shared = d.get_shared("R").unwrap();
        // Shared with a reader: a mutable deref must copy on write...
        let cow = &mut *d.get_mut("R").unwrap() as *mut Relation as *const Relation;
        assert!(!std::ptr::eq(cow, shared.as_ref() as *const Relation));
        drop(shared);
        // ...and once the handle is gone, the copy is unique again.
        let again = &mut *d.get_mut("R").unwrap() as *mut Relation as *const Relation;
        assert_eq!(cow, again, "second get_mut must not clone again");
    }

    #[test]
    fn epoch_advances_on_every_mutation_and_only_then() {
        let mut d = fig2();
        let e0 = d.epoch();
        // Reads leave the epoch alone.
        d.get("R");
        d.get_shared("R");
        let _ = d.snapshot();
        assert_eq!(d.epoch(), e0);
        // Every mutating entry point bumps it, monotonically.
        d.set("X", Relation::from_int_rows(&[&[1]]));
        assert_eq!(d.epoch(), e0 + 1);
        d.insert("X", tuple![2]).unwrap();
        assert_eq!(d.epoch(), e0 + 2);
        d.get_mut("X").unwrap();
        assert_eq!(d.epoch(), e0 + 2, "an unused guard is not a mutation");
        d.get_mut("X").unwrap().insert(tuple![3]).unwrap();
        assert_eq!(d.epoch(), e0 + 3, "a write through the guard counts");
        {
            let mut guard = d.get_mut("X").unwrap();
            guard.remove(&tuple![3]);
            guard.insert(tuple![4]).unwrap();
        }
        assert_eq!(d.epoch(), e0 + 4, "one guard bumps at most once");
        let shared = d.get_shared("X").unwrap();
        d.set_shared("Y", shared);
        assert_eq!(d.epoch(), e0 + 5);
        d.remove("Y").unwrap();
        assert_eq!(d.epoch(), e0 + 6);
        assert!(d.remove("no-such").is_none());
        assert_eq!(d.epoch(), e0 + 6, "failed remove is not a mutation");
        // Epoch is not part of equality: same contents, different history.
        let again = fig2();
        let mut mutated = fig2();
        mutated.insert("R", tuple!["x", "y", "z"]).unwrap();
        assert_eq!(fig2(), again);
        assert_ne!(mutated.epoch(), again.epoch());
        assert_ne!(mutated, again, "contents differ");
    }

    #[test]
    fn version_changes_with_the_contents_and_only_then() {
        let mut d = fig2();
        let v0 = d.version_of("R").unwrap();
        assert_eq!(d.version_of("no-such"), None);
        // Reads, copies and unused or read-only guards keep the stamp.
        d.get("R");
        d.get_shared("R");
        assert_eq!(d.snapshot().version_of("R"), Some(v0));
        assert_eq!(d.clone().version_of("R"), Some(v0));
        d.get_mut("R").unwrap();
        assert_eq!(d.get_mut("R").unwrap().len(), 2);
        assert_eq!(d.version_of("R"), Some(v0));
        // One new stamp per writing guard, however often it writes —
        // and none for its neighbours.
        let s0 = d.version_of("S");
        let snap = d.snapshot();
        {
            let mut guard = d.get_mut("R").unwrap();
            guard.insert(tuple!["x", "y", "z"]).unwrap();
            let v1 = guard.binding.version;
            guard.remove(&tuple!["x", "y", "z"]);
            assert_eq!(guard.binding.version, v1);
            assert_ne!(v1, v0);
        }
        let v1 = d.version_of("R").unwrap();
        assert_eq!(d.version_of("S"), s0);
        assert_eq!(
            snap.version_of("R"),
            Some(v0),
            "a snapshot keeps its stamps"
        );
        // Equal contents are still a new binding: set, set_shared and
        // remove-then-set each re-stamp.
        let mut seen = vec![v0, v1];
        let same = d.get_shared("R").unwrap();
        d.set("R", (*same).clone());
        seen.push(d.version_of("R").unwrap());
        d.set_shared("R", same.clone());
        seen.push(d.version_of("R").unwrap());
        d.remove("R").unwrap();
        assert_eq!(d.version_of("R"), None);
        d.set_shared("R", same);
        seen.push(d.version_of("R").unwrap());
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5, "every binding got a stamp of its own");
        assert_eq!(d, fig2(), "versions are not part of equality");
        // Databases built apart never share a stamp, name by name or
        // across names — one catalog may serve them all.
        let (a, b) = (fig2(), fig2().map_values(Value::clone));
        let mut all: Vec<u64> = [&a, &b, &Database::empty_over(&a.schema())]
            .iter()
            .flat_map(|db| db.names().map(|n| db.version_of(n).unwrap()))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn duplicate_insert_is_not_a_mutation() {
        let mut d = fig2();
        let shared = d.get_shared("S").unwrap();
        let (e0, v0) = (d.epoch(), d.version_of("S"));
        assert!(!d.insert("S", tuple!["d", "a", "b"]).unwrap());
        assert_eq!((d.epoch(), d.version_of("S")), (e0, v0));
        assert!(
            std::ptr::eq(shared.as_ref(), d.get("S").unwrap()),
            "nothing was copied"
        );
        // The wrong arity is still an error, not a silent `false`.
        assert!(matches!(
            d.insert("S", tuple!["d", "a"]),
            Err(StorageError::ArityMismatch {
                expected: 3,
                found: 2
            })
        ));
        // And a fresh tuple is still a mutation.
        let e1 = d.epoch();
        assert!(d.insert("S", tuple!["x", "y", "z"]).unwrap());
        assert_eq!(d.epoch(), e1 + 1);
        assert_ne!(d.version_of("S"), v0);
    }

    #[test]
    fn get_mut_without_write_leaves_epoch_and_sharing_alone() {
        // Regression: get_mut used to bump the epoch on access, so any
        // read-through-get_mut path spuriously invalidated epoch-stamped
        // caches (sj-server result entries). The guard defers the bump
        // to the first mutable dereference.
        let mut d = fig2();
        let shared = d.get_shared("R").unwrap();
        let e0 = d.epoch();
        {
            let guard = d.get_mut("R").unwrap();
            // Read-only uses of the guard: immutable deref only.
            assert_eq!(guard.len(), 2);
            assert_eq!(guard.arity(), 3);
        }
        assert_eq!(d.epoch(), e0, "no write ⇒ no epoch bump");
        // No copy-on-write happened either: the shared handle still
        // aliases the stored relation.
        assert!(std::ptr::eq(shared.as_ref(), d.get("R").unwrap()));
        // A snapshot taken before such an access stays provably fresh.
        let snap = d.snapshot();
        d.get_mut("R").unwrap();
        assert_eq!(snap.epoch(), d.epoch(), "cached results stay valid");
        // An actual write through the guard still does both.
        d.get_mut("R")
            .unwrap()
            .insert(tuple!["x", "y", "z"])
            .unwrap();
        assert_eq!(d.epoch(), e0 + 1);
        assert!(!std::ptr::eq(shared.as_ref(), d.get("R").unwrap()));
        assert_eq!(shared.len(), 2);
        assert_eq!(d.get("R").unwrap().len(), 3);
    }

    #[test]
    fn snapshot_is_stable_across_writes_and_costs_no_tuple_clones() {
        let mut d = fig2();
        let snap = d.snapshot();
        assert_eq!(snap.epoch(), d.epoch());
        // Zero-copy capture: the snapshot's relations are the very same
        // allocations the database stores.
        for (name, rel) in snap.db().iter() {
            assert!(
                std::ptr::eq(rel, d.get(name).unwrap()),
                "snapshot must alias, not copy, {name}"
            );
        }
        // A write after capture goes copy-on-write: the snapshot still
        // reads the old relation, the database sees the new one.
        d.insert("R", tuple!["x", "y", "z"]).unwrap();
        d.set("T", Relation::from_str_rows(&[&["q", "r"]]));
        assert_eq!(snap.get("R").unwrap().len(), 2);
        assert_eq!(d.get("R").unwrap().len(), 3);
        assert_eq!(snap.get("T").unwrap().len(), 2);
        assert_eq!(d.get("T").unwrap().len(), 1);
        assert!(snap.epoch() < d.epoch());
        // Unmutated relations stay shared between snapshot and database.
        assert!(std::ptr::eq(snap.get("S").unwrap(), d.get("S").unwrap()));
        // into_db keeps the aliasing too.
        let owned = snap.clone().into_db();
        assert!(std::ptr::eq(
            owned.get("S").unwrap(),
            snap.get("S").unwrap()
        ));
        // Deref gives the whole read API.
        assert_eq!(snap.size(), 5);
        assert_eq!(snap.schema(), owned.schema());
    }

    #[test]
    fn duplicate_tuples_across_relations_collapse_in_tuple_space_set() {
        let mut d = Database::new();
        d.set("A", Relation::from_int_rows(&[&[1, 2]]));
        d.set("B", Relation::from_int_rows(&[&[1, 2]]));
        assert_eq!(d.size(), 2);
        assert_eq!(d.tuple_space_set().len(), 1);
    }
}
