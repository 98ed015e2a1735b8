//! The dispatcher's ready list: workers parked on a `Request`.
//!
//! The seed implementation kept a plain `Vec<WorkerId>` and paid
//! `O(ready)` per scheduling decision: a full rebuild of a candidate
//! vector (with cloned location `String`s) plus an `O(n)` `Vec::remove`
//! per chosen worker. [`ReadyList`] replaces it with a `VecDeque` of
//! `(WorkerId, LocId)` entries — locations interned, see
//! [`crate::group::LocationInterner`] — and a membership set, giving:
//!
//! * **O(log n) park** with duplicate suppression (a worker that somehow
//!   issues two `Request`s cannot be scheduled twice);
//! * **O(chosen · log n) dequeue** for the FCFS fast path ([`ReadyList::take_front`]);
//! * **one O(n) sweep per job** — not per worker — for arbitrary index
//!   selections ([`ReadyList::take_indices`]);
//! * **O(n) removal** on worker death, preserving order.
//!
//! Invariants (exercised by `tests/ready_proptest.rs`):
//!
//! * every parked worker appears in the deque exactly once;
//! * take/remove never report a worker that is still parked, so a worker
//!   can never be double-assigned;
//! * FCFS order is arrival order: `take_front` always yields the
//!   longest-parked workers first.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::group::LocId;
use crate::spec::WorkerId;
use std::collections::{BTreeSet, VecDeque};

/// Parked `Request`s, oldest first, with interned locations.
#[derive(Debug, Default)]
pub struct ReadyList {
    /// Parked workers in arrival order.
    entries: VecDeque<(WorkerId, LocId)>,
    /// Exactly the workers present in `entries`.
    parked: BTreeSet<WorkerId>,
}

impl ReadyList {
    /// An empty ready list.
    pub fn new() -> Self {
        ReadyList::default()
    }

    /// Number of parked workers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no worker is parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when `worker` is parked.
    pub fn contains(&self, worker: WorkerId) -> bool {
        self.parked.contains(&worker)
    }

    /// Park a worker at the back. Returns `false` (and changes nothing)
    /// if it is already parked — duplicate `Request`s must not create a
    /// second schedulable entry.
    pub fn park(&mut self, worker: WorkerId, loc: LocId) -> bool {
        if !self.parked.insert(worker) {
            return false;
        }
        self.entries.push_back((worker, loc));
        true
    }

    /// Remove a worker wherever it is parked (worker death). Returns
    /// `true` if it was present.
    pub fn remove(&mut self, worker: WorkerId) -> bool {
        if !self.parked.remove(&worker) {
            return false;
        }
        self.entries.retain(|&(w, _)| w != worker);
        true
    }

    /// The parked entries, oldest first, as one contiguous slice (for
    /// group selection over `(worker, loc)` pairs).
    pub fn entries(&mut self) -> &[(WorkerId, LocId)] {
        self.entries.make_contiguous()
    }

    /// Dequeue the `n` longest-parked workers into `out` (appended,
    /// oldest first). The FCFS fast path: no candidate vector, no index
    /// juggling. Panics if fewer than `n` workers are parked.
    #[expect(clippy::expect_used, reason = "the assert above bounds `n`")]
    pub fn take_front(&mut self, n: usize, out: &mut Vec<WorkerId>) {
        assert!(n <= self.entries.len(), "take_front past the ready list");
        for _ in 0..n {
            let (w, _) = self.entries.pop_front().expect("length checked");
            self.parked.remove(&w);
            out.push(w);
        }
    }

    /// Dequeue the workers at `indices` (which must be strictly
    /// ascending and in range) into `out`, appended oldest-first, with a
    /// single sweep over the deque.
    pub fn take_indices(&mut self, indices: &[usize], out: &mut Vec<WorkerId>) {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        let ReadyList { entries, parked } = self;
        let mut next = 0usize; // cursor into `indices`
        let mut idx = 0usize; // current entry index
        entries.retain(|&(w, _)| {
            let chosen = next < indices.len() && indices[next] == idx;
            if chosen {
                next += 1;
                parked.remove(&w);
                out.push(w);
            }
            idx += 1;
            !chosen
        });
        assert!(
            next == indices.len(),
            "take_indices index out of range: matched {next} of {}",
            indices.len()
        );
    }

    /// Iterate the parked workers, oldest first (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.entries.iter().map(|&(w, _)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_is_fifo_and_deduplicates() {
        let mut r = ReadyList::new();
        assert!(r.park(1, 0));
        assert!(r.park(2, 1));
        assert!(!r.park(1, 0), "double park must be refused");
        assert_eq!(r.len(), 2);
        assert!(r.contains(1));
        let mut out = Vec::new();
        r.take_front(2, &mut out);
        assert_eq!(out, vec![1, 2]);
        assert!(r.is_empty());
        assert!(!r.contains(1));
    }

    #[test]
    fn reparking_after_take_works() {
        let mut r = ReadyList::new();
        r.park(5, 0);
        let mut out = Vec::new();
        r.take_front(1, &mut out);
        assert!(r.park(5, 0), "taken worker may park again");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_unparks_and_preserves_order() {
        let mut r = ReadyList::new();
        for w in 1..=4 {
            r.park(w, 0);
        }
        assert!(r.remove(2));
        assert!(!r.remove(2));
        let mut out = Vec::new();
        r.take_front(3, &mut out);
        assert_eq!(out, vec![1, 3, 4]);
    }

    #[test]
    fn take_indices_sweeps_once_in_order() {
        let mut r = ReadyList::new();
        for w in 10..20 {
            r.park(w, (w % 3) as LocId);
        }
        let mut out = Vec::new();
        r.take_indices(&[0, 3, 4, 9], &mut out);
        assert_eq!(out, vec![10, 13, 14, 19]);
        assert_eq!(r.len(), 6);
        let remaining: Vec<WorkerId> = r.iter().collect();
        assert_eq!(remaining, vec![11, 12, 15, 16, 17, 18]);
        for w in &out {
            assert!(!r.contains(*w));
        }
    }

    #[test]
    fn entries_expose_locations() {
        let mut r = ReadyList::new();
        r.park(1, 7);
        r.park(2, 9);
        assert_eq!(r.entries(), &[(1, 7), (2, 9)]);
    }
}
