//! The dispatcher's job queue.
//!
//! JETS "operates at high speed in part because it uses a simple FIFO
//! queuing approach" (paper, Section 7); the same section plans
//! priority-based scheduling and backfill as future work. Both policies
//! are implemented here so the trade-off can be measured
//! (`bench/ablation_queue`):
//!
//! * [`QueuePolicy::Fifo`] — strict arrival order. A job that does not
//!   fit the currently-free workers blocks everything behind it
//!   (head-of-line blocking), but dequeue is O(1) and starvation-free.
//! * [`QueuePolicy::PriorityBackfill`] — jobs are ordered by priority
//!   (stable within a priority level), and the scheduler may reach past a
//!   job that cannot start yet to *backfill* smaller jobs onto idle
//!   workers.
//!
//! A pending job costs the queue a 24-byte [`QueueEntry`] plus its
//! encoded bytes; a [`QueuedJob`] (224 bytes with the spec inline, before
//! the spec's own strings) exists only on the way in and out. The entry
//! holds what ordering and fitting read: the job's id, its node count,
//! its priority, and where the rest starts in one byte arena the queue
//! owns. The arena is laid out as the job table's is: wire-codec fields
//! ending in the codec's [`END`], which no encoded byte is, so an entry's
//! extent needs no length field. An entry is the job's specification in
//! the bytes the job table and the journal's `Submitted` record carry it
//! in, then its attempts, trace id and excluded workers, then its two
//! instants as signed nanoseconds from an anchor — the first instant the
//! queue was handed after it was last empty — so every `Instant`
//! round-trips exactly, a virtual one included.
//! [`JobQueue::push`] encodes a job, [`JobQueue::pick`] decodes the one it
//! returns.
//!
//! A picked job's bytes stay behind, dead, until they outnumber the live
//! ones; then the live entries are copied, in queue order, into a fresh
//! arena, so a pick costs amortized O(1) bytes moved. An empty queue
//! clears its arena.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::protocol::{get_spec, put_spec};
use crate::spec::{JobId, JobSpec, WorkerId};
use jets_ring::codec::{Get, Put, END};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Queue discipline for pending jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Strict first-in-first-out (the paper's default).
    #[default]
    Fifo,
    /// Priority order with backfill past blocked jobs.
    PriorityBackfill,
}

/// A job waiting to be scheduled, as [`JobQueue::push`] takes it and
/// [`JobQueue::pick`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// The job's identifier.
    pub id: JobId,
    /// Its specification.
    pub spec: JobSpec,
    /// Retries already consumed (set when a job is requeued after a
    /// worker failure).
    pub attempts: u32,
    /// Workers the previous attempt blames (died mid-gang, reported a
    /// nonzero exit, or went unreachable). The scheduler avoids them for
    /// exactly one attempt — best effort, never blocking: if avoiding
    /// them would leave the job unschedulable, they are used anyway.
    pub excluded: Vec<WorkerId>,
    /// When the job was first submitted: the span epoch for the
    /// end-to-end (`total`) phase, carried unchanged across requeues.
    pub submitted_at: Instant,
    /// When this attempt entered the queue: the span epoch for the
    /// queue-wait phase, reset on every requeue.
    pub enqueued_at: Instant,
    /// The job's trace id, minted at submission and carried unchanged
    /// across requeues: the correlation key for cross-process span
    /// tracing (see `docs/observability.md`).
    pub trace: u64,
}

/// One pending job as the queue orders it. The rest of the job is its
/// entry in the queue's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEntry {
    /// The job's identifier.
    pub id: JobId,
    /// Where its entry starts in the arena.
    at: u64,
    /// Workers it needs: what [`JobQueue::pick`] tests for fit.
    nodes: u32,
    /// Its priority: what [`JobQueue::push`] orders by under
    /// [`QueuePolicy::PriorityBackfill`].
    priority: i32,
}

/// Pending-job queue under a [`QueuePolicy`].
#[derive(Debug, Default)]
pub struct JobQueue {
    policy: QueuePolicy,
    jobs: VecDeque<QueueEntry>,
    /// Every entry's encoded bytes, live and dead.
    arena: Vec<u8>,
    /// Bytes of `arena` that belong to picked jobs.
    dead: usize,
    /// What the entries' instants are offsets from; `None` exactly when
    /// the queue is empty.
    anchor: Option<Instant>,
}

impl JobQueue {
    /// An empty queue with the given policy.
    pub fn new(policy: QueuePolicy) -> Self {
        JobQueue {
            policy,
            ..JobQueue::default()
        }
    }

    /// The queue's policy.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are pending.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Enqueue a job. Under FIFO it goes to the back; under
    /// priority/backfill it is inserted behind the last job of priority
    /// ≥ its own (stable priority order). The queue is sorted by
    /// descending priority, so the slot is a binary search: a batch of
    /// `n` costs O(n log n) comparisons, not O(n²).
    pub fn push(&mut self, job: QueuedJob) {
        let entry = self.store(&job);
        match self.policy {
            QueuePolicy::Fifo => self.jobs.push_back(entry),
            QueuePolicy::PriorityBackfill => {
                let pos = self.jobs.partition_point(|j| j.priority >= entry.priority);
                self.jobs.insert(pos, entry);
            }
        }
    }

    /// Requeue a failed job at the *front* of its class so a transient
    /// worker failure does not send the job to the back of a long batch.
    ///
    /// Under FIFO that is the literal queue front. Under
    /// priority/backfill a blind `push_front` would break the
    /// sorted-by-priority invariant that [`JobQueue::push`]'s insertion
    /// scan relies on (a low-priority requeue parked at the head would
    /// make later high-priority pushes land behind it), so the requeue is
    /// inserted *ahead of equal-priority peers* but still behind strictly
    /// higher priorities — found by binary search, as in `push`.
    pub fn push_front(&mut self, job: QueuedJob) {
        let entry = self.store(&job);
        match self.policy {
            QueuePolicy::Fifo => self.jobs.push_front(entry),
            QueuePolicy::PriorityBackfill => {
                let pos = self.jobs.partition_point(|j| j.priority > entry.priority);
                self.jobs.insert(pos, entry);
            }
        }
    }

    /// Select the next runnable job given `free_workers` currently-idle
    /// workers, removing and returning it.
    ///
    /// FIFO considers only the head; priority/backfill scans forward for
    /// the first job that fits.
    pub fn pick(&mut self, free_workers: usize) -> Option<QueuedJob> {
        let anchor = self.anchor?;
        let fits = |j: &QueueEntry| j.nodes as usize <= free_workers;
        let pos = match self.policy {
            QueuePolicy::Fifo => self.jobs.front().is_some_and(fits).then_some(0)?,
            QueuePolicy::PriorityBackfill => self.jobs.iter().position(fits)?,
        };
        let entry = self.jobs.remove(pos)?;
        let bytes = extent(&self.arena, entry.at);
        let (job, len) = (decode(entry.id, anchor, bytes), bytes.len() + 1);
        if self.jobs.is_empty() {
            self.arena.clear();
            (self.dead, self.anchor) = (0, None);
        } else {
            self.dead += len;
            if self.dead > self.arena.len() - self.dead {
                self.compact();
            }
        }
        Some(job)
    }

    /// The pending jobs in scheduling order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.jobs.iter()
    }

    /// What the queue holds in memory, spare capacity included.
    pub fn bytes(&self) -> usize {
        self.jobs.capacity() * std::mem::size_of::<QueueEntry>() + self.arena.capacity()
    }

    /// Write `job`'s entry at the arena's end.
    fn store(&mut self, job: &QueuedJob) -> QueueEntry {
        let anchor = *self.anchor.get_or_insert(job.enqueued_at);
        let at = self.arena.len() as u64;
        let p = &mut Put(&mut self.arena);
        put_spec(p, &job.spec);
        p.var(job.attempts.into());
        p.u64le(job.trace);
        p.count(job.excluded.len());
        job.excluded.iter().for_each(|&w| p.var(w));
        p.zig(offset(anchor, job.submitted_at));
        p.zig(offset(anchor, job.enqueued_at));
        self.arena.push(END);
        QueueEntry {
            id: job.id,
            at,
            nodes: job.spec.nodes,
            priority: job.spec.priority,
        }
    }

    /// Copy the live entries, in queue order, into a fresh arena.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.dead);
        for job in &mut self.jobs {
            let bytes = extent(&self.arena, job.at);
            job.at = arena.len() as u64;
            arena.extend_from_slice(bytes);
            arena.push(END);
        }
        (self.arena, self.dead) = (arena, 0);
    }
}

/// The entry starting at `at`, without its `END`.
fn extent(arena: &[u8], at: u64) -> &[u8] {
    let rest = &arena[at as usize..];
    &rest[..rest.iter().position(|&b| b == END).unwrap_or(rest.len())]
}

/// Read job `id` back out of the entry [`JobQueue::store`] wrote.
fn decode(id: JobId, anchor: Instant, bytes: &[u8]) -> QueuedJob {
    let mut g = Get::new(bytes);
    let job = QueuedJob {
        id,
        spec: get_spec(&mut g),
        attempts: g.var_u32(),
        trace: g.u64le(),
        excluded: g.list(Get::var),
        submitted_at: instant(anchor, g.zig()),
        enqueued_at: instant(anchor, g.zig()),
    };
    debug_assert!(g.end().is_ok(), "job {id}: its queue entry does not decode");
    job
}

/// `t` as signed nanoseconds from `anchor`.
fn offset(anchor: Instant, t: Instant) -> i64 {
    match t.checked_duration_since(anchor) {
        Some(after) => nanos(after),
        None => -nanos(anchor - t),
    }
}

#[expect(
    clippy::expect_used,
    reason = "a queued job's instants lie within 292 years of each other"
)]
fn nanos(d: Duration) -> i64 {
    i64::try_from(d.as_nanos()).expect("an instant 292 years from the queue's anchor")
}

/// The instant [`offset`] turned into `n`.
fn instant(anchor: Instant, n: i64) -> Instant {
    let d = Duration::from_nanos(n.unsigned_abs());
    match n < 0 {
        true => anchor - d,
        false => anchor + d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CommandSpec;

    fn job(id: JobId, nodes: u32, priority: i32) -> QueuedJob {
        QueuedJob {
            id,
            spec: JobSpec::mpi(nodes, CommandSpec::builtin("x", vec![])).with_priority(priority),
            attempts: 0,
            excluded: Vec::new(),
            submitted_at: Instant::now(),
            enqueued_at: Instant::now(),
            trace: 0,
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = JobQueue::new(QueuePolicy::Fifo);
        q.push(job(1, 1, 0));
        q.push(job(2, 1, 9)); // priority ignored by FIFO
        q.push(job(3, 1, 0));
        assert_eq!(q.pick(8).unwrap().id, 1);
        assert_eq!(q.pick(8).unwrap().id, 2);
        assert_eq!(q.pick(8).unwrap().id, 3);
        assert!(q.pick(8).is_none());
    }

    #[test]
    fn fifo_blocks_behind_oversized_head() {
        let mut q = JobQueue::new(QueuePolicy::Fifo);
        q.push(job(1, 16, 0));
        q.push(job(2, 1, 0));
        // Only 4 workers free: the 16-node head blocks the 1-node job.
        assert!(q.pick(4).is_none());
        assert_eq!(q.len(), 2);
        // Once enough workers free up, the head goes first.
        assert_eq!(q.pick(16).unwrap().id, 1);
        assert_eq!(q.pick(16).unwrap().id, 2);
    }

    #[test]
    fn backfill_reaches_past_blocked_head() {
        let mut q = JobQueue::new(QueuePolicy::PriorityBackfill);
        q.push(job(1, 16, 0));
        q.push(job(2, 2, 0));
        q.push(job(3, 1, 0));
        assert_eq!(q.pick(4).unwrap().id, 2);
        assert_eq!(q.pick(1).unwrap().id, 3);
        assert!(q.pick(4).is_none());
        assert_eq!(q.pick(16).unwrap().id, 1);
    }

    #[test]
    fn priority_orders_jobs_stably() {
        let mut q = JobQueue::new(QueuePolicy::PriorityBackfill);
        q.push(job(1, 1, 0));
        q.push(job(2, 1, 5));
        q.push(job(3, 1, 5));
        q.push(job(4, 1, 10));
        let order: Vec<JobId> = std::iter::from_fn(|| q.pick(8).map(|j| j.id)).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
    }

    #[test]
    fn push_front_requeues_ahead_of_everything() {
        let mut q = JobQueue::new(QueuePolicy::Fifo);
        q.push(job(1, 1, 0));
        q.push_front(job(9, 1, 0));
        assert_eq!(q.pick(8).unwrap().id, 9);
    }

    /// Regression: under PriorityBackfill a requeued job must not jump
    /// ahead of strictly higher-priority work, but must still beat its
    /// equal-priority peers — and the queue must stay priority-sorted so
    /// subsequent `push`es land correctly.
    #[test]
    fn push_front_respects_priority_order() {
        let mut q = JobQueue::new(QueuePolicy::PriorityBackfill);
        q.push(job(1, 1, 10));
        q.push(job(2, 1, 5));
        q.push(job(3, 1, 5));
        q.push(job(4, 1, 0));
        // Requeue a priority-5 job: behind the 10, ahead of both 5s.
        q.push_front(job(9, 1, 5));
        // The sorted invariant must still hold for later pushes.
        q.push(job(5, 1, 7));
        let order: Vec<JobId> = std::iter::from_fn(|| q.pick(8).map(|j| j.id)).collect();
        assert_eq!(order, vec![1, 5, 9, 2, 3, 4]);
    }

    /// Regression: a requeued low-priority job must not block the head.
    #[test]
    fn push_front_low_priority_requeue_does_not_park_at_head() {
        let mut q = JobQueue::new(QueuePolicy::PriorityBackfill);
        q.push(job(1, 1, 0));
        q.push_front(job(9, 1, -3));
        q.push(job(2, 1, 8));
        let order: Vec<JobId> = std::iter::from_fn(|| q.pick(8).map(|j| j.id)).collect();
        assert_eq!(order, vec![2, 1, 9]);
    }

    #[test]
    fn an_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<QueueEntry>(), 24);
    }

    /// Picked entries are dead bytes until they outnumber the live ones;
    /// the live ones then move, in queue order, to a fresh arena, and an
    /// empty queue keeps no bytes at all.
    #[test]
    fn dead_bytes_are_compacted_and_an_empty_queue_clears_its_arena() {
        let mut q = JobQueue::new(QueuePolicy::PriorityBackfill);
        let jobs: Vec<QueuedJob> = (0..64).map(|id| job(id, 1 + id as u32 % 3, 0)).collect();
        jobs.iter().cloned().for_each(|j| q.push(j));
        let full = q.arena.len();
        // Two free workers: a backfill pick reaches past every 3-node job.
        let mut picked = vec![q.pick(2).unwrap()];
        while q.dead > 0 {
            assert_eq!(q.arena.len(), full);
            assert!(q.dead <= full / 2 + 1, "{} dead of {full}", q.dead);
            picked.push(q.pick(2).unwrap());
        }
        assert!(!q.is_empty() && q.arena.len() < full / 2, "compacted");
        let ats: Vec<u64> = q.iter().map(|e| e.at).collect();
        assert!(ats.windows(2).all(|w| w[0] < w[1]), "queue order: {ats:?}");
        picked.extend(std::iter::from_fn(|| q.pick(8)));
        for got in picked {
            assert_eq!(got, jobs[got.id as usize]);
        }
        assert!(q.is_empty() && q.arena.is_empty() && q.anchor.is_none());
    }

    #[test]
    fn empty_queue_reports_empty() {
        let mut q = JobQueue::new(QueuePolicy::Fifo);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pick(100).is_none());
    }
}
