//! The bounded submission queue between sessions and the worker pool.
//!
//! One `Mutex<VecDeque<T>>` and two condvars: producers wait on
//! *not-full* (backpressure), consumers on *not-empty*. The queue owns
//! the whole life cycle — capacity, blocking vs rejecting admission,
//! and close-and-drain — so nobody polls: a worker parks in
//! [`Queue::pop`] until there is work or the queue closes, and
//! [`Queue::close`] wakes both sides at once.

use sj_obs::Gauge;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Why a push did not enqueue; the item comes back to the caller.
#[derive(Debug)]
pub(crate) enum PushError<T> {
    /// [`Queue::try_push`] found the queue at capacity.
    Full(T),
    /// The queue is closed.
    Closed(T),
}

/// A bounded multi-producer multi-consumer FIFO (see the module docs).
pub(crate) struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Written only under the `items` lock — so a waiter that checked
    /// it and went to sleep cannot miss the wake-up — and read
    /// lock-free by [`Queue::is_closed`].
    closed: AtomicBool,
    /// Mirrors `items.len()` (`sj_server_queue_depth`).
    depth: Arc<Gauge>,
}

impl<T> Queue<T> {
    /// An open queue holding at most `capacity` (≥ 1) items, reporting
    /// its length through `depth`.
    pub(crate) fn new(capacity: usize, depth: Arc<Gauge>) -> Queue<T> {
        Queue {
            items: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            depth,
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        // No code path panics while holding the lock (items are only
        // moved in and out), so poisoning would be a bug here.
        self.items.lock().expect("job queue poisoned")
    }

    fn enqueue(&self, mut items: MutexGuard<'_, VecDeque<T>>, item: T) {
        items.push_back(item);
        self.depth.set(items.len() as i64);
        drop(items);
        self.not_empty.notify_one();
    }

    /// Enqueue `item`, blocking while the queue is full. Fails only
    /// when the queue is (or becomes, while waiting) closed.
    pub(crate) fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut items = self.lock();
        loop {
            if self.is_closed() {
                return Err(PushError::Closed(item));
            }
            if items.len() < self.capacity {
                self.enqueue(items, item);
                return Ok(());
            }
            items = self.not_full.wait(items).expect("job queue poisoned");
        }
    }

    /// Enqueue `item` if there is room right now.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let items = self.lock();
        if self.is_closed() {
            return Err(PushError::Closed(item));
        }
        if items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        self.enqueue(items, item);
        Ok(())
    }

    /// Dequeue the oldest item, blocking while the queue is empty and
    /// open. `None` once the queue is closed **and drained**: items
    /// accepted before the close are still handed out.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut items = self.lock();
        loop {
            if let Some(item) = items.pop_front() {
                self.depth.set(items.len() as i64);
                drop(items);
                self.not_full.notify_one();
                return Some(item);
            }
            if self.is_closed() {
                return None;
            }
            items = self.not_empty.wait(items).expect("job queue poisoned");
        }
    }

    /// Refuse further pushes and wake every waiter on both sides.
    pub(crate) fn close(&self) {
        let items = self.lock();
        self.closed.store(true, Ordering::Release);
        drop(items);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Has [`Queue::close`] been called? One atomic load, no lock.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn queue(capacity: usize) -> (Queue<u32>, Arc<Gauge>) {
        let depth = Arc::new(Gauge::default());
        (Queue::new(capacity, depth.clone()), depth)
    }

    #[test]
    fn pops_in_push_order_and_tracks_depth() {
        let (q, depth) = queue(4);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert_eq!(depth.get(), 3);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(depth.get(), 1);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(depth.get(), 0);
    }

    #[test]
    fn capacity_rejects_try_push_and_blocks_push_until_a_pop() {
        let (q, _) = queue(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        let (pushed_tx, pushed_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                q.push(3).unwrap();
                pushed_tx.send(()).unwrap();
            });
            // The producer cannot have got through: the queue is full
            // and this thread is the only consumer.
            assert!(pushed_rx.try_recv().is_err());
            assert_eq!(q.pop(), Some(1));
            pushed_rx.recv().unwrap();
        });
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_wakes_both_sides_and_drains() {
        // Consumers parked on an empty queue return `None` on close —
        // `scope` joins them, so a missed wake-up would hang the test.
        let (empty, _) = queue(1);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| assert_eq!(empty.pop(), None));
            }
            empty.close();
        });

        // A producer parked on a full queue gets its item back; what
        // was accepted before the close still drains, in order.
        let (full, depth) = queue(1);
        full.push(1).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(matches!(full.push(2), Err(PushError::Closed(2)))));
            full.close();
        });
        assert!(full.is_closed());
        assert!(matches!(full.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(full.pop(), Some(1));
        assert_eq!(depth.get(), 0);
        assert_eq!(full.pop(), None);
    }
}
