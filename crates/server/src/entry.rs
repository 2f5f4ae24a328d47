//! One query's cache entry and every rule of its life cycle.
//!
//! An entry holds the query's **plan**, stamped with the statistics
//! epoch and the arity of every relation it reads (a physical plan is
//! correct for any contents of those arities, so data writes leave it
//! and `ANALYZE` retires it), and its **answer**, stamped with the
//! snapshot epoch and the version ([`Database::version_of`]) of every
//! relation it read: the answer for exactly those versions. An insert
//! of `t` into `R` keeps the answer when the expression is local to
//! `R`'s groups ([`Expr::local_to_groups_of`]); only its rows keyed
//! `t[1]` can change, so it is marked with that key ([`Pending`]) and a
//! later read re-runs the plan on the marked groups ([`execute`]).
//!
//! [`Entry::serve`] is what a read does with an entry, [`Entry::after`]
//! what a write does to it and [`Entry::store`] what a finished run
//! leaves in it; the server applies them under its locks, and nothing
//! here locks, counts or logs. Stamps are compared for equality with
//! the database a read sees, so an entry a race left behind is never
//! served for a database it does not describe.

use sj_algebra::Expr;
use sj_eval::{EvalError, PhysicalPlan, Report};
use sj_storage::{Database, Relation, Schema, Value};
use std::sync::Arc;

/// What the server keeps for one expression (see the module docs).
#[derive(Clone, Default)]
pub(crate) struct Entry {
    plan: Option<Plan>,
    answer: Option<Answer>,
}

#[derive(Clone)]
struct Plan {
    plan: Arc<PhysicalPlan>,
    stats_epoch: u64,
    /// `(relation, arity)` of every relation the expression reads.
    arities: Vec<(String, usize)>,
}

#[derive(Clone)]
struct Answer {
    relation: Arc<Relation>,
    /// [`Database::epoch`] of the snapshot the answer was computed on.
    epoch: u64,
    /// [`Database::version_of`] every relation the expression reads, in
    /// that snapshot.
    versions: Vec<(String, Option<u64>)>,
    pending: Option<Pending>,
}

/// Inserts into one relation since an answer was computed, which the
/// answer absorbs by re-running their groups.
#[derive(Clone, Default)]
struct Pending {
    relation: String,
    /// The relation's version once the inserts are in.
    version: u64,
    /// The inserted tuples' first columns — the groups the inserts
    /// touched — sorted and deduplicated.
    keys: Vec<Value>,
}

/// What a read does with its entry ([`Entry::serve`]).
pub(crate) enum Serve<'e> {
    /// The cached answer is the answer.
    Hit(&'e Arc<Relation>),
    /// Execute a plan — the cached one, or compile cold on `None` — on
    /// the whole database, or with a patch on just the pending groups.
    Run(Option<&'e Arc<PhysicalPlan>>, Option<Patch<'e>>),
}

/// A cached answer whose only news are pending inserts into groups it
/// is local to.
pub(crate) struct Patch<'e>(&'e Arc<Relation>, &'e Pending);

/// The answer for `db` by `plan`: the plan run on all of `db`, or —
/// with a patch — on `db` with the inserted-into relation rebound to its
/// rows in the pending groups, spliced over the cached answer's rows for
/// those keys (the report counts them in [`Report::patched_groups`]).
pub(crate) fn execute(
    plan: &PhysicalPlan,
    db: &Database,
    patch: Option<Patch>,
) -> Result<(Arc<Relation>, Report), EvalError> {
    let Some(Patch(answer, Pending { relation, keys, .. })) = patch else {
        let (relation, report) = plan.execute_reported(db)?;
        return Ok((Arc::new(relation), report));
    };
    let mut groups = db.clone();
    let rows = db
        .get(relation)
        .expect("serve saw the pending version in db")
        .keyed_rows(keys);
    groups.set(relation.clone(), rows);
    let (fresh, mut report) = plan.execute_reported(&groups)?;
    report.patched_groups = Some(keys.len());
    Ok((answer.splice_keyed(keys, &fresh), report))
}

/// A write, as [`Entry::after`] sees it.
#[derive(Clone, Copy)]
pub(crate) enum Write<'a> {
    /// A fresh insert of a tuple whose first value is `key` (`None`: a
    /// nullary tuple) moved `relation` from version `before` to `after`.
    Insert {
        relation: &'a str,
        key: Option<&'a Value>,
        before: u64,
        after: u64,
        schema: &'a Schema,
    },
    /// `relation` was replaced or removed: its arity may have changed.
    Replace(&'a str),
    /// The statistics epoch moved on.
    Analyze,
}

impl Answer {
    /// Does `db` hold every relation the answer read at its stamp —
    /// `pending`'s relation at the pending version instead?
    fn current_in(&self, db: &Database, pending: Option<&Pending>) -> bool {
        self.versions.iter().all(|(name, version)| {
            let want = match pending {
                Some(p) if p.relation == *name => Some(p.version),
                _ => *version,
            };
            db.version_of(name) == want
        })
    }

    fn reads(&self, relation: &str) -> bool {
        self.versions.iter().any(|(n, _)| n == relation)
    }

    /// The version of `relation` this answer is, or can be patched to
    /// be, correct at; `None` while inserts into another relation are
    /// pending.
    fn version_seen(&self, relation: &str) -> Option<u64> {
        let stamp = self.versions.iter().find(|(n, _)| n == relation);
        self.pending
            .as_ref()
            .map_or(stamp.and_then(|(_, v)| *v), |p| {
                (p.relation == relation).then_some(p.version)
            })
    }
}

impl Entry {
    /// How to answer a read of a database `db` at statistics epoch
    /// `stats_epoch`: the cached answer when `db` holds what it read; a
    /// patch when the only news are pending inserts; the cached plan
    /// when it was compiled under `stats_epoch` over `db`'s arities.
    pub(crate) fn serve(&self, db: &Database, stats_epoch: u64) -> Serve<'_> {
        let answer = self.answer.as_ref();
        if let Some(a) = answer.filter(|a| a.current_in(db, None)) {
            return Serve::Hit(&a.relation);
        }
        let plan = self.plan.as_ref().filter(|p| {
            p.stats_epoch == stats_epoch
                && p.arities
                    .iter()
                    .all(|(n, a)| db.get(n).map(Relation::arity) == Some(*a))
        });
        let patch = answer.and_then(|a| {
            let pending = a.pending.as_ref()?;
            a.current_in(db, Some(pending))
                .then_some(Patch(&a.relation, pending))
        });
        Serve::Run(plan.map(|p| &p.plan), patch)
    }

    /// Apply one write to the entry of `expr`, copying it only when the
    /// write changes it; returns whether the write dropped its answer.
    /// An insert keeps an answer it can patch: one whose answer is (or
    /// is pending to be) the one at the insert's pre-version, of an
    /// expression local to the relation's groups, with no insert into
    /// another relation pending. A write that another write overtook
    /// finds no answer at its pre-version and drops, so writes applied
    /// late cost patches, never correctness.
    pub(crate) fn after(entry: &mut Arc<Entry>, expr: &Expr, write: &Write) -> bool {
        // What the write retires: the plan, the answer.
        let (plan, answer) = match *write {
            Write::Insert {
                relation,
                key,
                before,
                after,
                schema,
            } => {
                let Some(answer) = entry.answer.as_ref().filter(|a| a.reads(relation)) else {
                    return false;
                };
                let key = key.filter(|_| {
                    answer.version_seen(relation) == Some(before)
                        && expr.local_to_groups_of(relation, schema)
                });
                if let Some(key) = key {
                    let answer = Arc::make_mut(entry).answer.as_mut().expect("read above");
                    let pending = answer.pending.get_or_insert_with(Pending::default);
                    (pending.relation, pending.version) = (relation.to_string(), after);
                    if let Err(at) = pending.keys.binary_search(key) {
                        pending.keys.insert(at, key.clone());
                    }
                    return false;
                }
                (false, true)
            }
            Write::Replace(relation) => (
                entry
                    .plan
                    .as_ref()
                    .is_some_and(|p| p.arities.iter().any(|(n, _)| n == relation)),
                entry.answer.as_ref().is_some_and(|a| a.reads(relation)),
            ),
            Write::Analyze => (entry.plan.is_some(), false),
        };
        if plan || answer {
            let entry = Arc::make_mut(entry);
            entry.plan = entry.plan.take().filter(|_| !plan);
            entry.answer = entry.answer.take().filter(|_| !answer);
        }
        answer
    }

    /// The entry of `expr` with a run folded in: `plan`, read at
    /// `stats_epoch`, answered `relation` on `db`. Of two plans it keeps
    /// the one compiled under the later statistics epoch, of two answers
    /// the one computed on the later snapshot, the run's on a tie — so a
    /// transaction pinned in the past never replaces what a live read
    /// left.
    pub(crate) fn store(
        &self,
        expr: &Expr,
        db: &Database,
        stats_epoch: u64,
        plan: Arc<PhysicalPlan>,
        relation: Arc<Relation>,
    ) -> Entry {
        let names = expr.relation_names();
        let plan = match &self.plan {
            Some(kept) if kept.stats_epoch > stats_epoch => kept.clone(),
            _ => Plan {
                plan,
                stats_epoch,
                arities: names
                    .iter()
                    .filter_map(|&n| Some((n.to_string(), db.get(n)?.arity())))
                    .collect(),
            },
        };
        let answer = match &self.answer {
            Some(kept) if kept.epoch > db.epoch() => kept.clone(),
            _ => Answer {
                relation,
                epoch: db.epoch(),
                versions: names
                    .iter()
                    .map(|&n| (n.to_string(), db.version_of(n)))
                    .collect(),
                pending: None,
            },
        };
        Entry {
            plan: Some(plan),
            answer: Some(answer),
        }
    }

    /// True when the entry holds neither a plan nor an answer.
    pub(crate) fn is_empty(&self) -> bool {
        self.plan.is_none() && self.answer.is_none()
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive life-cycle explorer. A script is an ordering of
    //! writes and of reads split into *capture* (snapshot, statistics
    //! epoch, one cache lookup — what `Shared::run_query` does before it
    //! executes) and *finish* (serve, execute, store), so a write can
    //! land in between. Every ordering of two small scripts runs for
    //! three queries, from a warm entry, through the same `serve`,
    //! `after` and `store` the server calls, mirroring how
    //! `Shared::apply_write` turns a write into a [`Write`]. Every read
    //! must equal the reference evaluator on its snapshot, and the
    //! newest answer and plan stored must stay served until a write
    //! retires them. Test-local wrappers break one rule each; each must
    //! fail some script.

    use super::*;
    use sj_algebra::division;
    use sj_eval::{evaluate_reference, Engine};
    use sj_storage::{tuple, Tuple};

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Step {
        /// `R += (2, 8)`: completes group 2.
        InsertR,
        /// `R += (1, 7)`, already there.
        InsertDuplicate,
        /// `S += 9`.
        InsertS,
        Analyze,
        /// `R := …`, groups 1 and 4, a new element 10.
        SetR,
        /// Begin a transaction.
        Pin,
        LiveCapture,
        LiveFinish,
        PinnedCapture,
        PinnedFinish,
    }
    use Step::*;

    /// The rule a wrapper breaks.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Mutant {
        None,
        /// `after` absorbs an insert whatever its pre-version.
        IgnorePreVersion,
        /// `store` drops the first dependency stamp.
        DropStamp,
        /// `after` sees a `Set` as an insert keyed by its first row.
        SetAsInsert,
        /// `store` keeps the run's plan and answer, whatever their age.
        RunAlwaysWins,
    }

    fn database() -> Database {
        let mut db = Database::new();
        let r = [[1, 7], [1, 8], [2, 7], [3, 8], [3, 9]];
        db.set("R", Relation::from_int_rows(&r.each_ref().map(|t| &t[..])));
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        db
    }

    /// A snapshot and the statistics epoch read with it (`QueryCtx`).
    #[derive(Clone)]
    struct Ctx {
        db: Database,
        stats_epoch: u64,
    }

    struct Explorer<'q> {
        expr: &'q Expr,
        /// Compiled once: a plan is correct for any contents.
        plan: &'q Arc<PhysicalPlan>,
        mutant: Mutant,
        db: Database,
        stats_epoch: u64,
        cache: Option<Arc<Entry>>,
        pin: Option<Ctx>,
        live: Option<(Ctx, Option<Arc<Entry>>)>,
        pinned: Option<(Ctx, Option<Arc<Entry>>)>,
        /// A store ran on the master as it is now / a plan was stored
        /// under the current statistics epoch and arities.
        fresh_answer: bool,
        fresh_plan: bool,
    }

    impl Explorer<'_> {
        fn capture(&self, pinned: Option<&Ctx>) -> (Ctx, Option<Arc<Entry>>) {
            let ctx = pinned.cloned().unwrap_or_else(|| Ctx {
                db: self.db.clone(),
                stats_epoch: self.stats_epoch,
            });
            (ctx, self.cache.clone())
        }

        fn finish(&mut self, (ctx, entry): (Ctx, Option<Arc<Entry>>)) -> Result<(), String> {
            let db = &ctx.db;
            let served = entry
                .as_deref()
                .map_or(Serve::Run(None, None), |e| e.serve(db, ctx.stats_epoch));
            let (relation, stored) = match served {
                Serve::Hit(relation) => (relation.clone(), false),
                Serve::Run(plan, patch) => {
                    let plan = plan.unwrap_or(self.plan).clone();
                    let relation = execute(&plan, db, patch).map_err(|e| e.to_string())?.0;
                    let current = match self.mutant {
                        Mutant::RunAlwaysWins => None,
                        _ => self.cache.clone(),
                    };
                    let (se, answer) = (ctx.stats_epoch, relation.clone());
                    let mut stored = current
                        .unwrap_or_default()
                        .store(self.expr, db, se, plan, answer);
                    if self.mutant == Mutant::DropStamp {
                        stored.answer.as_mut().expect("stored").versions.remove(0);
                    }
                    self.cache = Some(Arc::new(stored));
                    self.fresh_answer |= db.epoch() == self.db.epoch();
                    self.fresh_plan |= ctx.stats_epoch == self.stats_epoch;
                    (relation, true)
                }
            };
            let expected = evaluate_reference(self.expr, db).map_err(|e| e.to_string())?;
            if *relation != expected {
                return Err(format!(
                    "read {relation:?} at epoch {}, want {expected:?}",
                    db.epoch()
                ));
            }
            if stored {
                self.check_fresh()?;
            }
            Ok(())
        }

        /// The newest answer and plan stored are still served.
        fn check_fresh(&self) -> Result<(), String> {
            let empty = Entry::default();
            let entry = self.cache.as_deref().unwrap_or(&empty);
            let hit = matches!(entry.serve(&self.db, self.stats_epoch), Serve::Hit(_));
            if self.fresh_answer && !hit {
                return Err("the newest answer is not a hit".into());
            }
            let planned = entry
                .plan
                .as_ref()
                .is_some_and(|p| p.stats_epoch == self.stats_epoch);
            if self.fresh_plan && !planned {
                return Err("the newest plan is gone".into());
            }
            Ok(())
        }

        /// What `Shared::apply_write` does, through the mutant's wrapper.
        fn write(&mut self, step: Step) {
            let (relation, tuple): (&str, Tuple) = match step {
                InsertR => ("R", tuple![2, 8]),
                InsertDuplicate => ("R", tuple![1, 7]),
                InsertS => ("S", tuple![9]),
                Analyze => {
                    self.stats_epoch += 1;
                    self.fresh_plan = false;
                    return self.after(Write::Analyze);
                }
                SetR => {
                    let rows = [[1, 7], [1, 8], [1, 9], [4, 7], [4, 8], [4, 10]];
                    let rows = Relation::from_int_rows(&rows.each_ref().map(|t| &t[..]));
                    let key = rows.iter().next().expect("rows").get(0).cloned();
                    let before = self.db.version_of("R").expect("R");
                    self.db.set("R", rows);
                    (self.fresh_answer, self.fresh_plan) = (false, false);
                    let after = self.db.version_of("R").expect("R");
                    let schema = self.db.schema();
                    return self.after(match self.mutant {
                        Mutant::SetAsInsert => Write::Insert {
                            relation: "R",
                            key: key.as_ref(),
                            before,
                            after,
                            schema: &schema,
                        },
                        _ => Write::Replace("R"),
                    });
                }
                _ => unreachable!("{step:?} is a read"),
            };
            let key = tuple.get(0).cloned();
            let before = self.db.version_of(relation).expect("stored");
            if self.db.insert(relation, tuple).expect("arity") {
                self.fresh_answer = false;
                let after = self.db.version_of(relation).expect("stored");
                let schema = self.db.schema();
                let key = key.as_ref();
                let write = Write::Insert {
                    relation,
                    key,
                    before,
                    after,
                    schema: &schema,
                };
                self.after(write);
            }
        }

        fn after(&mut self, write: Write) {
            let Some(entry) = self.cache.as_mut() else {
                return;
            };
            let write = match (self.mutant, write) {
                (
                    Mutant::IgnorePreVersion,
                    Write::Insert {
                        relation,
                        key,
                        after,
                        schema,
                        ..
                    },
                ) => {
                    let seen = entry.answer.as_ref().and_then(|a| a.version_seen(relation));
                    let before = seen.unwrap_or(after);
                    Write::Insert {
                        relation,
                        key,
                        before,
                        after,
                        schema,
                    }
                }
                _ => write,
            };
            Entry::after(entry, self.expr, &write);
            if entry.is_empty() {
                self.cache = None;
            }
        }

        fn step(&mut self, step: Step) -> Result<(), String> {
            match step {
                Pin => self.pin = Some(self.capture(None).0),
                LiveCapture => self.live = Some(self.capture(None)),
                PinnedCapture => self.pinned = Some(self.capture(self.pin.as_ref())),
                LiveFinish => {
                    let read = self.live.take().expect("captured");
                    return self.finish(read);
                }
                PinnedFinish => {
                    let read = self.pinned.take().expect("captured");
                    return self.finish(read);
                }
                write => self.write(write),
            }
            Ok(())
        }
    }

    /// Every ordering of `steps` in which each read captures before it
    /// finishes and the transaction pins before its read.
    fn orderings(steps: &[Step]) -> Vec<Vec<Step>> {
        let after = |s: Step| match s {
            LiveFinish => Some(LiveCapture),
            PinnedCapture => Some(Pin),
            PinnedFinish => Some(PinnedCapture),
            _ => None,
        };
        let mut out = Vec::new();
        let mut stack = vec![(Vec::new(), steps.to_vec())];
        while let Some((done, left)) = stack.pop() {
            if left.is_empty() {
                out.push(done);
                continue;
            }
            for (i, &s) in left.iter().enumerate() {
                if after(s).is_none_or(|p| done.contains(&p)) {
                    let (mut done, mut left) = (done.clone(), left.clone());
                    done.push(s);
                    left.remove(i);
                    stack.push((done, left));
                }
            }
        }
        out
    }

    /// Runs every script under `mutant`; the first failure, or the
    /// number of scripts run.
    fn explore(mutant: Mutant) -> Result<usize, String> {
        let reads = [Pin, LiveCapture, LiveFinish, PinnedCapture, PinnedFinish];
        let scripts: Vec<Vec<Step>> = [
            [InsertR, InsertDuplicate, InsertS],
            [InsertR, Analyze, SetR],
        ]
        .iter()
        .flat_map(|writes| orderings(&[&writes[..], &reads].concat()))
        .collect();
        let queries = [
            division::division_double_difference("R", "S"),
            Expr::rel("R").project([2]),
            Expr::rel("S").semijoin_eq([(1, 2)], Expr::rel("R")),
        ];
        let db = database();
        let schema = db.schema();
        assert!(queries[0].local_to_groups_of("R", &schema));
        assert!(!queries[1].local_to_groups_of("R", &schema));
        assert!(queries[2].local_to_groups_of("S", &schema));
        let mut runs = 0;
        for expr in &queries {
            let plan = Arc::new(Engine::new(db.clone()).query(expr.clone()).plan().unwrap());
            for script in &scripts {
                let mut explorer = Explorer {
                    expr,
                    plan: &plan,
                    mutant,
                    db: db.clone(),
                    stats_epoch: 0,
                    cache: None,
                    pin: None,
                    live: None,
                    pinned: None,
                    fresh_answer: false,
                    fresh_plan: false,
                };
                let warm = explorer.capture(None);
                explorer.finish(warm)?;
                for &step in script {
                    explorer
                        .step(step)
                        .map_err(|e| format!("{expr} after {script:?}: {e}"))?;
                }
                let last = explorer.capture(None);
                explorer
                    .finish(last)
                    .map_err(|e| format!("{expr}, last read after {script:?}: {e}"))?;
                runs += 1;
            }
        }
        Ok(runs)
    }

    #[test]
    fn every_ordering_of_reads_and_writes_serves_the_reference_answer() {
        let runs = explore(Mutant::None).unwrap_or_else(|e| panic!("{e}"));
        // 2 scripts × 8!/(2!·3!) orderings × 3 queries.
        assert_eq!(runs, 2 * 3360 * 3);
        println!("life-cycle explorer: {runs} scripts");
        for mutant in [
            Mutant::IgnorePreVersion,
            Mutant::DropStamp,
            Mutant::SetAsInsert,
            Mutant::RunAlwaysWins,
        ] {
            assert!(explore(mutant).is_err(), "{mutant:?} survived every script");
        }
    }
}
