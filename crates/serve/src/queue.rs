//! A bounded multi-producer/multi-consumer request queue.
//!
//! The std library ships no bounded MPMC channel and the workspace vendors no
//! lock-free one, so this is the classic two-condvar bounded buffer: one
//! mutex-guarded `VecDeque`, a `not_empty` condvar for consumers and a
//! `not_full` condvar for producers. At serving granularity (one MAC query
//! per item, each costing far more than a mutex handoff) the contention on
//! the queue lock is irrelevant; what matters is the behavior at the edges —
//! a bounded [`push`](BoundedQueue::push) provides natural back-pressure, a
//! non-blocking [`try_push`](BoundedQueue::try_push) lets an open-loop caller
//! shed load instead, and [`close`](BoundedQueue::close) drains: consumers
//! keep receiving queued items after a close and only see `None` once the
//! queue is empty, so every accepted request is served before shutdown
//! completes.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a non-blocking [`try_push`](BoundedQueue::try_push) did not enqueue;
/// both variants hand the item back to the caller.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue was at capacity (open-loop callers count this as shed load).
    Full(T),
    /// The queue was closed.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking bounded MPMC queue with drain-on-close semantics.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Locks the state, recovering from a poisoned mutex: the queue holds
    /// plain data (no invariants a panicking thread could tear), so serving
    /// continues after a worker panic rather than cascading poison.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) was called.
    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues an item, blocking while the queue is full (back-pressure).
    /// Returns the item when the queue was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Enqueues an item without blocking, handing it back when the queue is
    /// full or closed.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty and open.
    /// Returns `None` only when the queue is closed **and** drained, so no
    /// accepted item is ever dropped.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: producers fail from now on, consumers drain the
    /// remaining items and then see `None`. Idempotent.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_is_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_sheds_when_full_and_close_drains() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(TryPushError::Full(3))));
        q.close();
        assert!(matches!(q.try_push(4), Err(TryPushError::Closed(4))));
        assert!(q.push(5).is_err());
        // Items accepted before the close still drain in order.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.push(7).unwrap();
        q.close();
        let mut got: Vec<_> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }

    #[test]
    fn full_queue_backpressures_until_a_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        // The producer blocks until this pop frees a slot.
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }
}
