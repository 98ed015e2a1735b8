//! The bounded outage buffer.
//!
//! A member's result that has no acked id to travel under — the
//! dispatcher is away, or the member's re-registration is not acked yet —
//! waits here and is replayed right after that ack. A long partition
//! under a busy block must cap relay memory, so the buffer is bounded in
//! *frames* (results are small and uniform): at the high-water mark the
//! **oldest** frame is dropped to admit the newest, and the caller counts
//! the drop (`jets_relay_upqueue_dropped_total`). A dropped result is
//! harmless for the reason replay is: the dispatcher requeued the attempt
//! when the session died, or requeues it when no claim arrives.
//!
//! A plain FIFO owned by [`crate::core::RelayCore`]: no lock, nobody to
//! wake.

use std::collections::VecDeque;

/// A bounded FIFO with a drop-oldest overflow policy.
pub struct UpQueue<T> {
    q: VecDeque<T>,
    limit: usize,
}

impl<T> UpQueue<T> {
    /// Create a queue that holds at most `limit` frames (min 1).
    pub fn new(limit: usize) -> UpQueue<T> {
        UpQueue {
            q: VecDeque::new(),
            limit: limit.max(1),
        }
    }

    /// Enqueue `item`, evicting the oldest frame if the queue is at its
    /// high-water mark. Returns `true` if an eviction happened, so the
    /// caller can count it.
    pub fn push(&mut self, item: T) -> bool {
        let evicted = self.q.len() >= self.limit;
        if evicted {
            self.q.pop_front();
        }
        self.q.push_back(item);
        evicted
    }

    /// Remove and return every frame `pred` selects, oldest first; the
    /// rest keep their order.
    pub fn extract(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut out = Vec::new();
        for item in std::mem::take(&mut self.q) {
            if pred(&item) {
                out.push(item);
            } else {
                self.q.push_back(item);
            }
        }
        out
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all<T>(q: &mut UpQueue<T>) -> Vec<T> {
        q.extract(|_| true)
    }

    #[test]
    fn fifo_order_within_limit() {
        let mut q = UpQueue::new(8);
        for i in 0..5 {
            assert!(!q.push(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.extract(|i| i % 2 == 1), vec![1, 3]);
        assert_eq!(all(&mut q), vec![0, 2, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut q = UpQueue::new(3);
        assert!(!q.push(1));
        assert!(!q.push(2));
        assert!(!q.push(3));
        assert!(q.push(4)); // evicts 1
        assert!(q.push(5)); // evicts 2
        assert_eq!(q.len(), 3);
        assert_eq!(all(&mut q), vec![3, 4, 5]);
    }

    #[test]
    fn limit_floor_is_one() {
        let mut q = UpQueue::new(0);
        assert!(!q.push(1));
        assert!(q.push(2));
        assert_eq!(all(&mut q), vec![2]);
    }
}
