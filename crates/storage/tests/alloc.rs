//! A row of arity ≤ 2 is stored inline in its `Tuple`, so building,
//! canonicalizing and cloning the paper's binary and unary relations
//! costs a constant number of heap allocations, not one per row. That
//! is pinned as an allocation count rather than a time, with a counting
//! global allocator — which is why it lives in its own integration-test
//! binary. The count is per thread, so whatever the test harness does
//! on other threads meanwhile is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sj_storage::{tuple, Relation, Tuple, Value};

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

/// `f`'s result and the allocations this thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

/// Distinct binary rows, deliberately out of canonical order.
fn pairs(n: i64) -> Vec<Tuple> {
    (0..n)
        .rev()
        .map(|i| Tuple::from_ints(&[i % 97, i]))
        .collect()
}

#[test]
fn small_tuples_allocate_nothing() {
    let (a, b) = (Value::int(i64::MIN), Value::int(7));
    let made = [
        counted(Tuple::empty),
        counted(|| Tuple::from_ints(&[])),
        counted(|| Tuple::from_ints(&[1])),
        counted(|| Tuple::from_ints(&[1, 2])),
        counted(|| Tuple::from([a.clone()])),
        counted(|| Tuple::from([a.clone(), b.clone()])),
        counted(|| tuple![1]),
        counted(|| tuple![1, 2]),
        counted(|| [a.clone(), b.clone()].into_iter().collect::<Tuple>()),
        counted(|| (0..2).map(Value::int).collect::<Tuple>()),
    ];
    for (i, (t, allocs)) in made.iter().enumerate() {
        assert!(t.arity() <= 2);
        assert_eq!(*allocs, 0, "constructor {i} allocated for {t:?}");
    }
    // A clone, a projection and a concatenation that stay within arity
    // 2 allocate nothing either.
    let t = Tuple::from_ints(&[1, 2]);
    assert_eq!(counted(|| t.clone()).1, 0);
    assert_eq!(counted(|| t.project(&[1])).1, 0);
    assert_eq!(counted(|| t.project(&[1]).concat(&t.project(&[0]))).1, 0);
    // Arity 3 holds one boxed slice.
    assert_eq!(counted(|| Tuple::from_ints(&[1, 2, 3])).1, 1);
    assert_eq!(counted(|| t.tag(Value::int(3))).1, 1);
}

#[test]
fn building_and_cloning_a_binary_relation_allocates_per_relation_not_per_row() {
    let mut builds = Vec::new();
    let mut clones = Vec::new();
    for n in [100, 10_000] {
        let rows = pairs(n);
        let (r, allocs) = counted(|| Relation::from_tuples(2, rows).unwrap());
        assert_eq!(r.len(), n as usize);
        builds.push(allocs);
        let (copy, allocs) = counted(|| r.clone());
        assert_eq!(copy, r);
        clones.push(allocs);
    }
    assert_eq!(builds[0], builds[1], "from_tuples: {builds:?}");
    assert_eq!(clones[0], clones[1], "clone: {clones:?}");
    assert!(builds[0] <= 1, "from_tuples: {builds:?}");
    assert!(clones[0] <= 1, "clone: {clones:?}");
}

#[test]
fn a_unary_relation_allocates_per_relation_not_per_value() {
    let mut counts = Vec::new();
    for n in [100, 10_000] {
        let values: Vec<Value> = (0..n).rev().map(Value::int).collect();
        let (s, allocs) = counted(|| Relation::unary(values));
        assert_eq!(s.len(), n as usize);
        counts.push(allocs);
    }
    assert_eq!(counts[0], counts[1], "{counts:?}");
    assert!(counts[0] <= 2, "{counts:?}");
}
