//! The pilot's decision procedure, and nothing else.
//!
//! [`PilotCore`] is everything a pilot job decides: what a session opens
//! with, the one task in flight and who runs it, what `Cancel` and
//! `Shutdown` mean right now, which results missed the wire and must be
//! replayed, when a canceled task is given up on, when a heartbeat is
//! owed, how many connection attempts in a row have failed. It is
//! single-threaded and owns no resource: every entry point is one input,
//! taking the caller's `now` where the decision depends on it, and all it
//! causes leaves through the caller's [`Effects`].
//!
//! What this file may not contain (the shell's `the_core_is_pure` test
//! fails if it does): a clock read, a lock, a shared counter, a spawned
//! worker, a socket, a file, the event ring or a cancel token. The shell
//! in [`crate::agent`] owns those; what blocks there comes back as an
//! input. The fake behind the interface is in `cluster_sim::des`, which
//! drives this same core against the real dispatcher, relay and PMI cores
//! under seeded faults.
//!
//! Three rules carry the guarantees. The in-flight task leaves through
//! one function (`leave`) that closes its span and counters on every
//! path. Every accepted assignment yields exactly one `Done` — on the
//! wire, or stashed and replayed once — except a canceled one that misses
//! the wire: nobody waits for it. And `Request` goes out only with
//! nothing in flight, in the same write as the `Done` that made it so.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::executor::TaskOutcome;
use jets_core::events::{EventKind, SpanKind, WriterRole};
use jets_core::protocol::{TaskAssignment, TaskKind, WorkerMsg, EXIT_CANCELED};
use jets_core::spec::{JobId, TaskId};
use std::time::{Duration, Instant};

/// Exit code reported when node-local staging fails before the task runs.
pub const EXIT_STAGING_FAILED: i32 = 13;

/// Everything the core can cause. The caller applies each call as it is
/// made: frames leave in call order.
pub trait Effects {
    /// Write `msg` on the session's wire. False with no wire or a failed
    /// write, which ends the session: `session_down` follows.
    fn send(&mut self, msg: &WorkerMsg) -> bool;
    /// Both in one write — one wake-up at the dispatcher — or neither.
    fn send_pair(&mut self, done: &WorkerMsg, request: &WorkerMsg) -> bool;
    /// Hand the task just accepted to `runner`, which answers `finished`.
    /// `fresh`: it does not exist yet (the last one was given up on).
    fn run(&mut self, runner: u64, fresh: bool);
    /// Tell in-flight `task` to stand down.
    fn trip(&mut self, task: TaskId);
    /// `Goodbye` is out: wake the session's reader, there is no more.
    fn hang_up_read(&mut self);
    /// One flight record or counter update, emitted once.
    fn fact(&mut self, fact: Fact);
}

/// What the shell's flight recorder and metric surface learn.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// A record for the pilot's own flight lane.
    Event(EventKind),
    /// A session registered.
    SessionUp,
    /// A registered session ended in connection loss.
    SessionLost,
    /// A task went to its runner.
    TaskBegan,
    /// The in-flight task left the pilot: milliseconds since it began
    /// (any outage included), exit code, whether a `Cancel` had named it.
    TaskLeft(u64, i32, bool),
    /// An assignment's files could not be staged.
    StagingFailed,
}

/// What names a task in frames and flight lanes: trace id, job, task.
pub type Id = (u64, JobId, TaskId);

/// One edge of a task's `kind` span on a worker lane.
pub fn span(kind: SpanKind, end: bool, (trace, job, task): Id) -> Fact {
    let role = WriterRole::Worker;
    Fact::Event(match end {
        false => EventKind::SpanStart {
            trace,
            kind,
            role,
            job,
            task,
        },
        true => EventKind::SpanEnd {
            trace,
            kind,
            role,
            job,
            task,
        },
    })
}

fn done(id: Id, exit_code: i32, wall_ms: u64, output: Option<String>) -> WorkerMsg {
    WorkerMsg::Done {
        task_id: id.2,
        exit_code,
        wall_ms,
        output,
        trace: id.0,
    }
}

/// The task handed to a runner and not yet out of the pilot. It outlives
/// a lost session: the runner runs on, the next session claims it.
struct Running {
    id: Id,
    ranks: u32,
    /// The runner executing it; a result from any other runner is late.
    runner: u64,
    started: Instant,
    /// Set by the `Cancel` that named it: when it is given up on.
    give_up: Option<Instant>,
}

/// Pilot state and the transitions over it. See the module docs.
#[derive(Default)]
pub struct PilotCore {
    cancel_grace: Duration,
    heartbeat: Option<Duration>,
    /// The id under the current (or last) session.
    worker_id: u64,
    /// Between `session_up` and the end of that session.
    up: bool,
    /// `Goodbye` is out. Nothing follows it.
    gone: bool,
    /// Attempts in a row that ended without a `session_up`.
    failed: u32,
    /// `Some` while `up`, if heartbeats are wanted.
    beat_due: Option<Instant>,
    task: Option<Running>,
    /// `Shutdown` was read while the task ran: its report ends the pilot.
    stopping: bool,
    /// `Done`s that missed the wire, oldest first.
    stash: Vec<WorkerMsg>,
    tasks_done: u64,
    /// `None` before the first task and after one was given up on.
    runner: Option<u64>,
    runners_started: u64,
}

impl PilotCore {
    /// A pilot with no session. A task still running `cancel_grace` after
    /// its `Cancel` is given up on; one `Heartbeat` per `heartbeat`.
    pub fn new(cancel_grace: Duration, heartbeat: Option<Duration>) -> PilotCore {
        PilotCore {
            cancel_grace,
            heartbeat,
            ..PilotCore::default()
        }
    }

    /// Results that reached a wire.
    pub fn tasks_done(&self) -> u64 {
        self.tasks_done
    }

    /// The task in flight and its job.
    pub fn running(&self) -> Option<(TaskId, JobId)> {
        self.task.as_ref().map(|t| (t.id.2, t.id.1))
    }

    /// When the canceled in-flight task is given up on: the one timeout
    /// the shell's socket read needs. A `tick` at or after it acts.
    pub fn deadline(&self) -> Option<Instant> {
        self.task.as_ref()?.give_up
    }

    /// When the next `Heartbeat` is owed; `None` with no session up.
    pub fn heartbeat_due(&self) -> Option<Instant> {
        self.beat_due
    }

    /// The registration was acked as `worker_id`; the wire is writable.
    /// Recovery handshake first: the claim on a task carried from the last
    /// session, so that a restarted dispatcher re-adopts its gang inside
    /// the reconciliation window (an established one answers an unknown
    /// claim with `Cancel`); then the stash, oldest first, the rest kept
    /// if this wire dies too; then the first `Request`, unless the carried
    /// task still runs — its report asks.
    pub fn session_up<E: Effects>(&mut self, now: Instant, worker_id: u64, fx: &mut E) {
        (self.up, self.worker_id, self.failed) = (true, worker_id, 0);
        self.beat_due = self.heartbeat.map(|period| now + period);
        fx.fact(Fact::SessionUp);
        fx.fact(Fact::Event(EventKind::WorkerUp { worker: worker_id }));
        if self.task.is_some() || !self.stash.is_empty() {
            let running = self.running();
            if !fx.send(&WorkerMsg::SessionState { running }) {
                return;
            }
            while let Some(done) = self.stash.first() {
                if !fx.send(done) {
                    return;
                }
                self.stash.remove(0);
                self.tasks_done += 1;
            }
        }
        if self.task.is_none() {
            fx.send(&WorkerMsg::Request);
        }
    }

    /// The session is over — or the attempt at one: a refused connect, a
    /// peer that closed before its ack. `None` once the pilot has said
    /// `Goodbye`; otherwise how many attempts in a row have now ended (1
    /// after a session that had registered), for the caller's backoff and
    /// give-up. The task is carried into the next session, unless already
    /// canceled: discounted everywhere, that one is dropped here.
    pub fn session_down<E: Effects>(&mut self, now: Instant, fx: &mut E) -> Option<u32> {
        if self.gone {
            return None;
        }
        if self.up {
            self.close(fx);
            fx.fact(Fact::SessionLost);
        }
        (self.failed, self.stopping) = (self.failed + 1, false);
        if self.deadline().is_some() {
            // Its report goes nowhere: no wire, and not worth keeping.
            self.leave(now, None, fx);
        }
        Some(self.failed)
    }

    /// An `Assign` arrived and its files were `staged`, or could not be.
    /// A stray one while a task is in flight is ignored.
    pub fn assign<E: Effects>(
        &mut self,
        now: Instant,
        a: &TaskAssignment,
        staged: bool,
        fx: &mut E,
    ) {
        if self.task.is_some() || self.gone {
            return;
        }
        let id = (a.trace, a.job_id, a.task_id);
        if !staged {
            fx.fact(Fact::StagingFailed);
            return self.report(done(id, EXIT_STAGING_FAILED, 0, None), true, fx);
        }
        let fresh = self.runner.is_none();
        self.runners_started += fresh as u64;
        let runner = *self.runner.insert(self.runners_started);
        let ranks = match &a.kind {
            TaskKind::Sequential { .. } => 1,
            TaskKind::MpiProxy { ranks, .. } => ranks.len() as u32,
        };
        fx.fact(Fact::Event(EventKind::TaskStarted {
            task: a.task_id,
            job: a.job_id,
            worker: self.worker_id,
            ranks,
        }));
        fx.fact(span(SpanKind::Exec, false, id));
        fx.fact(Fact::TaskBegan);
        // In flight before the runner has it: `finished` may beat `run`'s
        // return.
        self.task = Some(Running {
            id,
            ranks,
            runner,
            started: now,
            give_up: None,
        });
        fx.run(runner, fresh);
    }

    /// A `Cancel` arrived — gang teardown, a deadline, a rejected claim.
    /// The first to name the in-flight task starts its grace; others are stale.
    pub fn cancel<E: Effects>(&mut self, now: Instant, task_id: TaskId, fx: &mut E) {
        let named = |t: &&mut Running| t.id.2 == task_id && t.give_up.is_none();
        if let Some(t) = self.task.as_mut().filter(named) {
            t.give_up = Some(now + self.cancel_grace);
            fx.trip(task_id);
        }
    }

    /// `Shutdown` arrived. With a task in flight its report is awaited,
    /// and goes out without a `Request`.
    pub fn shutdown<E: Effects>(&mut self, fx: &mut E) {
        self.stopping = self.task.is_some();
        if !self.stopping {
            self.goodbye(fx);
        }
    }

    /// `runner` finished the task it was handed. False when that runner
    /// was given up on: its late result is discarded, and it should end.
    pub fn finished<E: Effects>(
        &mut self,
        now: Instant,
        runner: u64,
        outcome: TaskOutcome,
        fx: &mut E,
    ) -> bool {
        let current = self.task.as_ref().is_some_and(|t| t.runner == runner);
        if current {
            self.leave(now, Some(outcome), fx);
        }
        current
    }

    /// Time passed: a canceled task past its grace is reported
    /// `EXIT_CANCELED`, its runner given up on; a due heartbeat goes out.
    pub fn tick<E: Effects>(&mut self, now: Instant, fx: &mut E) {
        if self.deadline().is_some_and(|at| at <= now) {
            self.leave(now, None, fx);
        }
        if self.beat_due.is_some_and(|at| at <= now) {
            fx.send(&WorkerMsg::Heartbeat);
            self.beat_due = self.heartbeat.map(|period| now + period);
        }
    }

    /// The in-flight task leaves the pilot, with its runner's `outcome`
    /// or — `None` — its runner given up on: the one place that closes
    /// its span and counters. A canceled task always reads
    /// `EXIT_CANCELED`: the dispatcher has discounted it, the report only
    /// recycles this worker (the stale-`Done` path) and is not replayed.
    fn leave<E: Effects>(&mut self, now: Instant, outcome: Option<TaskOutcome>, fx: &mut E) {
        let Some(t) = self.task.take() else {
            return;
        };
        if outcome.is_none() {
            self.runner = None;
        }
        let canceled = t.give_up.is_some();
        let (exit_code, output) = match outcome {
            Some(o) if !canceled => (o.exit_code, o.output),
            given_up_or_canceled => (EXIT_CANCELED, given_up_or_canceled.and_then(|o| o.output)),
        };
        // For a carried task this closes the span the original session
        // opened; the outage is inside it, which is the truth.
        let wall_ms = now.saturating_duration_since(t.started).as_millis() as u64;
        fx.fact(span(SpanKind::Exec, true, t.id));
        fx.fact(Fact::Event(EventKind::TaskEnded {
            task: t.id.2,
            job: t.id.1,
            worker: self.worker_id,
            ranks: t.ranks,
            exit_code,
            trace: t.id.0,
        }));
        fx.fact(Fact::TaskLeft(wall_ms, exit_code, canceled));
        self.report(done(t.id, exit_code, wall_ms, output), !canceled, fx);
    }

    /// `Done` and, in the same write, the `Request` for the next task; a
    /// pilot that is stopping reports without asking and says `Goodbye`.
    /// A report that misses the wire is stashed, if worth a `keep`.
    fn report<E: Effects>(&mut self, done: WorkerMsg, keep: bool, fx: &mut E) {
        let sent = match self.stopping {
            true => fx.send(&done),
            false => fx.send_pair(&done, &WorkerMsg::Request),
        };
        if sent {
            self.tasks_done += 1;
        } else if keep {
            self.stash.push(done);
        }
        if sent && self.stopping {
            self.goodbye(fx);
        }
    }

    fn goodbye<E: Effects>(&mut self, fx: &mut E) {
        fx.send(&WorkerMsg::Goodbye);
        self.gone = true;
        self.close(fx);
        fx.hang_up_read();
    }

    /// However the registered session ends: one `WorkerDown` per `WorkerUp`.
    fn close<E: Effects>(&mut self, fx: &mut E) {
        (self.up, self.beat_due) = (false, None);
        let worker = self.worker_id;
        fx.fact(Fact::Event(EventKind::WorkerDown { worker }));
    }
}
