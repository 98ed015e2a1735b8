//! Bounded upstream replay queue.
//!
//! While the dispatcher is away, every frame a relay would have sent
//! upstream queues here so it can be replayed on reconnect. The old
//! implementation used an unbounded channel for this — a long partition
//! under a busy block grew process memory without limit. This queue is
//! capped: at the high-water mark the **oldest** frame is dropped to
//! admit the newest, on the theory that stale `Request`/`Flush` traffic
//! is superseded by later frames anyway, and the re-register pass on
//! reconnect rebuilds registration state regardless of what was shed.
//!
//! Drops are counted so `jets_relay_upqueue_dropped_total` can surface
//! a partition that actually overflowed the buffer.

use jets_ring::stdx::{wait_for, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Condvar;
use std::time::Duration;

/// A bounded MPSC queue with a drop-oldest overflow policy.
///
/// Producers [`push`](UpQueue::push) without ever blocking; the single
/// consumer parks in [`pop_ready`](UpQueue::pop_ready). The cap is
/// in *frames*, not bytes: upstream frames are small and uniform, so a
/// frame count is an honest memory bound.
pub struct UpQueue<T> {
    inner: Mutex<VecDeque<T>>,
    cv: Condvar,
    limit: usize,
    dropped: AtomicU64,
}

impl<T> UpQueue<T> {
    /// Create a queue that holds at most `limit` frames (min 1).
    pub fn new(limit: usize) -> UpQueue<T> {
        UpQueue {
            inner: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            limit: limit.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Enqueue `item`, evicting the oldest frame if the queue is at its
    /// high-water mark. Returns `true` if an eviction happened, so the
    /// caller can count it.
    pub fn push(&self, item: T) -> bool {
        let mut q = self.inner.lock();
        let mut evicted = false;
        if q.len() >= self.limit {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            evicted = true;
        }
        q.push_back(item);
        drop(q);
        self.cv.notify_one();
        evicted
    }

    /// Move up to `max` queued frames, oldest first, onto the end of
    /// `out`, waiting up to `timeout` for the first to arrive. Only
    /// what is already queued is taken — the consumer never waits for a
    /// batch to fill — and `out` is left as it was if the wait timed
    /// out with the queue empty.
    pub fn pop_ready(&self, timeout: Duration, max: usize, out: &mut Vec<T>) {
        let mut q = self.inner.lock();
        if q.is_empty() {
            q = wait_for(&self.cv, q, timeout).0;
        }
        let n = q.len().min(max);
        out.extend(q.drain(..n));
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Total frames evicted by the drop-oldest policy since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    fn pop_all<T>(q: &UpQueue<T>) -> Vec<T> {
        let mut out = Vec::new();
        q.pop_ready(Duration::from_millis(1), usize::MAX, &mut out);
        out
    }

    #[test]
    fn fifo_order_within_limit() {
        let q = UpQueue::new(8);
        for i in 0..5 {
            assert!(!q.push(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(pop_all(&q), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest() {
        let q = UpQueue::new(3);
        assert!(!q.push(1));
        assert!(!q.push(2));
        assert!(!q.push(3));
        assert!(q.push(4)); // evicts 1
        assert!(q.push(5)); // evicts 2
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(pop_all(&q), vec![3, 4, 5]);
    }

    #[test]
    fn pop_takes_what_is_ready_up_to_the_cap_and_appends() {
        let q = UpQueue::new(8);
        for i in 0..5 {
            q.push(i);
        }
        let mut out = vec![99];
        q.pop_ready(Duration::from_secs(5), 2, &mut out);
        assert_eq!(out, vec![99, 0, 1], "capped, oldest first, appended");
        let start = Instant::now();
        q.pop_ready(Duration::from_secs(5), 8, &mut out);
        assert_eq!(out, vec![99, 0, 1, 2, 3, 4]);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a non-empty queue is never waited on"
        );
    }

    #[test]
    fn pop_times_out_when_empty() {
        let q: UpQueue<u32> = UpQueue::new(4);
        let start = Instant::now();
        let mut out = Vec::new();
        q.pop_ready(Duration::from_millis(30), 4, &mut out);
        assert!(out.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn push_wakes_a_parked_consumer() {
        let q = Arc::new(UpQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.pop_ready(Duration::from_secs(5), 4, &mut out);
            out
        });
        std::thread::sleep(Duration::from_millis(20));
        q.push(42u32);
        assert_eq!(consumer.join().unwrap(), vec![42]);
    }

    #[test]
    fn limit_floor_is_one() {
        let q = UpQueue::new(0);
        assert!(!q.push(1));
        assert!(q.push(2));
        assert_eq!(pop_all(&q), vec![2]);
    }
}
