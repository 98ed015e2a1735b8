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

use crate::spec::{JobId, JobSpec, WorkerId};
use std::collections::VecDeque;
use std::time::Instant;

/// Queue discipline for pending jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Strict first-in-first-out (the paper's default).
    #[default]
    Fifo,
    /// Priority order with backfill past blocked jobs.
    PriorityBackfill,
}

/// A job waiting to be scheduled.
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

/// Pending-job queue under a [`QueuePolicy`].
#[derive(Debug, Default)]
pub struct JobQueue {
    policy: QueuePolicy,
    jobs: VecDeque<QueuedJob>,
}

impl JobQueue {
    /// An empty queue with the given policy.
    pub fn new(policy: QueuePolicy) -> Self {
        JobQueue {
            policy,
            jobs: VecDeque::new(),
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
        match self.policy {
            QueuePolicy::Fifo => self.jobs.push_back(job),
            QueuePolicy::PriorityBackfill => {
                let priority = job.spec.priority;
                let pos = self.jobs.partition_point(|j| j.spec.priority >= priority);
                self.jobs.insert(pos, job);
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
        match self.policy {
            QueuePolicy::Fifo => self.jobs.push_front(job),
            QueuePolicy::PriorityBackfill => {
                let priority = job.spec.priority;
                let pos = self.jobs.partition_point(|j| j.spec.priority > priority);
                self.jobs.insert(pos, job);
            }
        }
    }

    /// Select the next runnable job given `free_workers` currently-idle
    /// workers, removing and returning it.
    ///
    /// FIFO considers only the head; priority/backfill scans forward for
    /// the first job that fits.
    pub fn pick(&mut self, free_workers: usize) -> Option<QueuedJob> {
        match self.policy {
            QueuePolicy::Fifo => {
                if self
                    .jobs
                    .front()
                    .is_some_and(|j| j.spec.nodes as usize <= free_workers)
                {
                    self.jobs.pop_front()
                } else {
                    None
                }
            }
            QueuePolicy::PriorityBackfill => {
                let pos = self
                    .jobs
                    .iter()
                    .position(|j| j.spec.nodes as usize <= free_workers)?;
                self.jobs.remove(pos)
            }
        }
    }

    /// Peek at the pending jobs in scheduling order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.jobs.iter()
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
    fn empty_queue_reports_empty() {
        let mut q = JobQueue::new(QueuePolicy::Fifo);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pick(100).is_none());
    }
}
