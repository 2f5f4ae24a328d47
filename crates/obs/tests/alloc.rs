//! The null tracing path must not allocate: with no collector
//! installed, a `span!` — including one with attribute expressions —
//! is one relaxed atomic load and a no-op guard. This test pins that
//! with a counting global allocator, which is why it lives in its own
//! integration-test binary. The count is per thread: the spans run on
//! the test's own thread, and whatever the test harness's other threads
//! allocate meanwhile (its output capture, a sibling test) is not
//! theirs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sj_obs::span;

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

#[test]
fn disabled_spans_allocate_nothing() {
    assert!(!sj_obs::enabled(), "no collector installed in this binary");
    // Warm up: let any lazy thread-local or formatting machinery
    // initialize outside the measured window.
    for i in 0..8u64 {
        let mut g = span!("warmup.span", index = i);
        g.attr("rows", i * 2);
    }
    let before = ALLOCS.get();
    for i in 0..100_000u64 {
        let mut g = span!("kernel.join", left = i, right = i * 3, workers = 4usize);
        g.attr("out_rows", i);
        drop(g);
        let _plain = span!("plan.node");
    }
    let after = ALLOCS.get();
    assert_eq!(
        after - before,
        0,
        "null tracing path allocated {} times",
        after - before
    );
}
