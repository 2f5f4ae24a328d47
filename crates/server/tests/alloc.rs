//! A result-cache hit is served on the caller's thread without
//! touching the heap: no reply channel, no job, no snapshot, no stamp
//! vector, no metric-label formatting. That is the hit path's cost as
//! an invariant rather than a measurement, pinned with a counting
//! global allocator — which is why it lives in its own
//! integration-test binary. The count is per thread: a hit never
//! leaves the thread that asked, so "inside the call" is "on the
//! calling thread", and whatever the test harness or a parked worker
//! does meanwhile is not the call's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sj_algebra::{division, Expr};
use sj_server::{Provenance, QueryResponse, Server, ServerConfig, ServerError, WriteOp};
use sj_storage::{Database, Relation, Tuple};

struct Counting;

thread_local! {
    /// Allocations made by this thread. Const-initialized and without
    /// a destructor, so reading it from the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only
// addition is a thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const HITS: usize = 1_000;

/// Allocations this thread performs inside `HITS` calls of `query`,
/// each of which must be a result-cache hit. The expressions are cloned
/// beforehand: building the argument is the caller's business, not the
/// call's.
fn allocations_in_hits(
    e: &Expr,
    query: impl Fn(Expr) -> Result<QueryResponse, ServerError>,
) -> u64 {
    let exprs: Vec<Expr> = (0..HITS).map(|_| e.clone()).collect();
    let mut hits = 0;
    let before = ALLOCS.get();
    for e in exprs {
        if matches!(query(e), Ok(r) if r.provenance == Provenance::ResultCache) {
            hits += 1;
        }
    }
    let after = ALLOCS.get();
    assert_eq!(hits, HITS, "every measured call was a result-cache hit");
    after - before
}

#[test]
fn result_cache_hits_allocate_nothing() {
    let mut db = Database::new();
    db.set(
        "R",
        Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 8], &[3, 9]]),
    );
    db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
    let server = Server::start(
        db,
        ServerConfig {
            workers: 1,
            cores: 1,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    // A write first, so the stamps under comparison are not all the
    // implicit epoch 0 of never-written relations.
    session
        .write(WriteOp::Insert {
            relation: "R".into(),
            tuple: Tuple::from_ints(&[2, 8]),
        })
        .unwrap();
    let e = division::division_double_difference("R", "S");
    let txn = session.begin();
    // Warm-up: the cold execution that fills the cache, then a few
    // hits on both paths so anything lazy is initialized.
    assert_eq!(
        session.query(e.clone()).unwrap().provenance,
        Provenance::Cold
    );
    for _ in 0..8 {
        session.query(e.clone()).unwrap();
        txn.query(e.clone()).unwrap();
    }

    let live = allocations_in_hits(&e, |e| session.query(e));
    assert_eq!(live, 0, "{HITS} live-session hits allocated {live} times");
    let pinned = allocations_in_hits(&e, |e| txn.query(e));
    assert_eq!(pinned, 0, "{HITS} ReadTxn hits allocated {pinned} times");
    assert_eq!(server.stats().result_hits, (16 + 2 * HITS) as u64);
}
