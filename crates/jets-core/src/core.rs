//! The dispatcher's decision procedure, and nothing else.
//!
//! [`Core`] is the paper's scheduler (§5, Figs. 3–5): match queued jobs
//! to parked pilots, ship, collect, requeue on failure. It is single-
//! threaded and owns no resource. Every entry point takes the caller's
//! `now` plus one input — a submitted batch, one frame off a connection,
//! a closed connection, a released fence, a tick, a replayed write-ahead
//! log — and everything it causes leaves through the [`Effects`] the
//! caller passes in: frames to pilots, the per-gang PMI service, and one
//! [`Fact`] per lifecycle fact, emitted exactly once at the transition
//! that makes it true.
//! A frame becomes an input here: [`Core::peer_frame`] is the protocol
//! of one connection, over the [`Peer`] the shell keeps for it.
//!
//! What this file may not contain (the shell's `the_core_is_pure` test
//! fails if it does): a clock read, a lock, a thread, a socket, a file,
//! the write-ahead log, the event ring or a PMI server. The shell in
//! [`crate::dispatcher`] owns all of those and turns each `Fact` into ring
//! records, a log record, counters and the client-visible job table in one
//! `match`. `cluster_sim::des` drives the same `Core` beside the real
//! relay, pilot and PMI cores under one virtual clock and a seeded fault
//! schedule, which is what the one interface here is for.
//!
//! Every sweep iterates in id order (`BTreeMap`, rank-ordered gang
//! lists), so equal inputs give an equal effect trace, bit for bit.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::events::{EventKind, SpanKind};
use crate::group::{select_group_ids, GroupScratch, GroupingPolicy};
use crate::journal::{Recovered, RecoveredJob, RecoveredPhase};
use crate::protocol::{
    DispatcherMsg, TaskAssignment, TaskKind, WorkerMsg, EXIT_CANCELED, EXIT_DEADLINE,
    EXIT_UNDELIVERABLE, EXIT_WORKER_LOST,
};
use crate::queue::{JobQueue, QueuePolicy, QueuedJob};
use crate::ready::ReadyList;
use crate::registry::{QuarantinePolicy, Registry, WorkerState};
use crate::spec::{JobId, JobSpec, TaskId, WorkerId};
use jets_pmi::{ManualLauncher, RankLayout};
use jets_ring::stdx::splitmix64;
use jets_ring::WriterRole;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::{Duration, Instant};

/// Everything the core can cause. The caller applies each call as it is
/// made: sends in particular happen in call order, so a pilot never sees
/// a `Cancel` ahead of the `Assign` it cancels.
pub trait Effects {
    /// Ship `assignment` to `worker`; false if it cannot be delivered
    /// (connection gone, outbox overflowed).
    fn send_assign(&mut self, worker: WorkerId, assignment: TaskAssignment) -> bool;
    /// Tell `worker` to kill `task`; false if it cannot be delivered.
    fn send_cancel(&mut self, worker: WorkerId, task: TaskId) -> bool;
    /// Answer on the connection the current frame was read from: a
    /// handshake's ack, or the `Cancel` of a refused claim.
    fn reply(&mut self, msg: DispatcherMsg);
    /// Start the PMI service for `job`'s gang of `size` ranks under
    /// `jobid`; returns the address its ranks connect to.
    fn pmi_start(&mut self, job: JobId, jobid: &str, size: u32) -> io::Result<String>;
    /// Abort `job`'s PMI service so ranks blocked at a fence unblock.
    fn pmi_abort(&mut self, job: JobId, reason: &str);
    /// Drop `job`'s PMI service; returns when its first fence released,
    /// if it ever did.
    fn pmi_stop(&mut self, job: JobId) -> Option<Instant>;
    /// One lifecycle fact, emitted once.
    fn fact(&mut self, fact: Fact<'_>);
}

/// A lifecycle fact. Each is true from the moment it is emitted and is
/// emitted by exactly one transition.
#[derive(Debug)]
pub enum Fact<'a> {
    /// A fact the event vocabulary already has the word for, carrying no
    /// more than the event does: span edges, `JobSubmitted`,
    /// `TaskStarted`, `TaskEnded` (reported, lost with its worker,
    /// cancelled with its gang, or never delivered), `JobCompleted` (an
    /// attempt is over, every member accounted for, either way),
    /// `JobPhases`, `DeadlineExceeded`, `WorkerQuarantined`, `RelayUp`,
    /// `RelayDown` (its members follow as `WorkerDown`), `GangReadopted`.
    /// `RelayUp` names the connection the current frame was read from.
    Event(EventKind),
    /// A batch was accepted; the jobs are about to enter the queue. Ids
    /// are dense from `first`, in `specs` order, and each job's trace is
    /// minted from its id: the caller's specs, borrowed before each moves
    /// into the queue, are the batch's only copy.
    Submitted {
        /// The first job's id.
        first: JobId,
        /// The accepted specifications.
        specs: &'a [JobSpec],
    },
    /// The replayed log's non-terminal jobs exist again, queued or with
    /// an attempt still in flight (`RecoveredPhase::Active`); what the
    /// restore decides for each follows as its own facts.
    Restored {
        /// The jobs, in submission order.
        jobs: &'a [RecoveredJob],
    },
    /// A worker registered on the connection the current frame was read
    /// from — its own, or its relay's.
    WorkerUp {
        /// Its id.
        worker: WorkerId,
        /// It is reached through a relay.
        relayed: bool,
        /// Its name has registered before.
        reconnect: bool,
    },
    /// A worker is gone (closed, hung, or its relay died).
    WorkerDown {
        /// Its id.
        worker: WorkerId,
        /// Its name, when dying mid-gang earned it a strike.
        strike: Option<&'a str>,
    },
    /// Workers were chosen for an attempt of `job`.
    JobStarted {
        /// The job.
        job: JobId,
        /// Attempt number, this launch included.
        attempt: u32,
        /// Node count.
        nodes: u32,
    },
    /// The attempt's gang is fixed; nothing has reached a wire yet.
    Assigned {
        /// The job.
        job: JobId,
        /// Attempt number, this launch included.
        attempt: u32,
        /// The gang, in rank order.
        tasks: &'a [(WorkerId, TaskAssignment)],
    },
    /// A worker's own report ended `task` (its `TaskEnded` was just
    /// emitted), with the output it captured.
    Reported {
        /// The task's job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Its captured standard output, if any.
        output: Option<&'a str>,
    },
    /// The job went back to the queue front.
    JobRequeued {
        /// The job.
        job: JobId,
        /// Attempts charged so far (a dispatcher crash refunds its own).
        attempts: u32,
        /// The failed attempt's wall time, if it ran here.
        wall: Option<Duration>,
        /// The failed attempt's exit codes.
        exit_codes: Vec<i32>,
        /// The failed attempt's captured output.
        outputs: Vec<String>,
    },
    /// The job reached its terminal state.
    JobFinished {
        /// The job.
        job: JobId,
        /// Every task of the final attempt exited zero.
        success: bool,
        /// The final attempt's wall time, if it ran here.
        wall: Option<Duration>,
        /// The final attempt's exit codes.
        exit_codes: Vec<i32>,
        /// The final attempt's captured output.
        outputs: Vec<String>,
    },
    /// A benched worker's penalty expired.
    QuarantineReleased {
        /// Its name.
        name: &'a str,
    },
}

impl Fact<'_> {
    /// Append this fact's write-ahead frames to `out` and return how many
    /// records they hold. A pure projection, shared by the shell (which
    /// appends the bytes to the log file) and the model check (whose
    /// journal is those bytes), so the two cannot drift; each record is
    /// encoded from the data the fact borrows, by the encoder
    /// `Record::put` uses. A record over the frame cap refuses the fact
    /// with `InvalidData` and leaves `out` as it was.
    pub fn wal(&self, out: &mut Vec<u8>) -> io::Result<usize> {
        let start = out.len();
        self.frames(out).inspect_err(|_| out.truncate(start))
    }

    fn frames(&self, out: &mut Vec<u8>) -> io::Result<usize> {
        use crate::journal::{self as j, put_frame as frame};
        match *self {
            Fact::Submitted { first, specs } => {
                for (job, spec) in (first..).zip(specs) {
                    frame(out, |p| j::put_submitted(p, job, spec))?;
                    frame(out, |p| j::put_enqueued(p, job, 0))?;
                }
                return Ok(2 * specs.len());
            }
            Fact::Assigned {
                job,
                attempt,
                tasks,
            } => {
                let gang = tasks.iter().map(|(w, a)| (*w, a.task_id));
                frame(out, |p| j::put_assigned(p, job, attempt, gang))?;
            }
            Fact::Event(EventKind::TaskEnded {
                job,
                task,
                exit_code,
                ..
            }) => frame(out, |p| j::put_task_ended(p, job, task, exit_code))?,
            Fact::JobRequeued { job, attempts, .. } => {
                frame(out, |p| j::put_requeued(p, job, attempts))?
            }
            Fact::JobFinished { job, success, .. } => {
                frame(out, |p| j::put_finished(p, job, success))?
            }
            Fact::Event(EventKind::DeadlineExceeded { job }) => {
                frame(out, |p| j::put_deadline(p, job))?
            }
            Fact::WorkerDown {
                strike: Some(name), ..
            } => frame(out, |p| j::put_strike(p, name))?,
            Fact::QuarantineReleased { name } => frame(out, |p| j::put_release(p, name))?,
            Fact::Event(_)
            | Fact::Restored { .. }
            | Fact::WorkerUp { .. }
            | Fact::WorkerDown { strike: None, .. }
            | Fact::JobStarted { .. }
            | Fact::Reported { .. } => return Ok(0),
        }
        Ok(1)
    }
}

/// What one connection has proven itself to be. The first frame decides:
/// `Register` makes the peer a direct worker, `RelayHello` a relay
/// fronting a block of workers.
#[derive(Debug, Default)]
pub enum Peer {
    /// No handshake frame yet.
    #[default]
    Handshake,
    /// A direct worker's connection.
    Direct(WorkerId),
    /// A relay's connection, with the members it registered: a frame
    /// routed for anyone else is ignored.
    Relay(WorkerId, BTreeSet<WorkerId>),
}

/// The policies a [`Core`] decides under (a subset of
/// `DispatcherConfig`, plus the seed its trace ids are minted from).
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Pending-job queue discipline.
    pub queue_policy: QueuePolicy,
    /// Worker-group selection policy.
    pub grouping: GroupingPolicy,
    /// Bench policy for names that keep killing gangs.
    pub quarantine: Option<QuarantinePolicy>,
    /// Silence after which a worker is declared hung.
    pub heartbeat_timeout: Option<Duration>,
    /// Patience for surviving workers to claim orphaned tasks.
    pub reconcile_window: Duration,
    /// Mixed into every trace id, so incarnations cannot collide.
    pub trace_seed: u64,
}

struct ActiveJob {
    spec: JobSpec,
    attempts: u32,
    /// Members that have not yet reported (or died), with the task each
    /// one runs — the id a gang cancel names and a dead worker's
    /// `TaskEnded` records.
    pending: Vec<(WorkerId, TaskId)>,
    exit_codes: Vec<i32>,
    outputs: Vec<String>,
    any_failure: bool,
    /// Workers this attempt blames (died mid-gang, nonzero exit, or
    /// unreachable); becomes the requeue's `excluded` hint.
    failed_workers: Vec<WorkerId>,
    /// When the group was assembled and shipped.
    started: Instant,
    /// Wall-clock cutoff derived from the spec's `deadline_ms`.
    deadline: Option<Instant>,
    submitted_at: Instant,
    enqueued_at: Instant,
    trace: u64,
    /// True while the `pmi-barrier` span is open: set when an MPI gang
    /// ships, cleared by [`Core::fence_released`] or, failing that, when
    /// the attempt ends.
    pmi_span_open: bool,
    /// When the gang's first fence released, once known.
    barrier_at: Option<Instant>,
}

/// The bounded window a restored core spends reconciling the log's
/// in-flight attempts against live workers before scheduling resumes.
struct Recovery {
    /// When unclaimed orphans are given up on.
    until: Instant,
    /// Per orphaned job, the task ids no surviving worker has claimed.
    /// Task ids are the stable key: worker ids restart with the process.
    orphans: BTreeMap<JobId, Vec<TaskId>>,
}

/// Scheduling state and the transitions over it. See the module docs.
///
/// Invariant: every worker in `ready` is `Idle` in `registry` — death
/// removes it, assignment and claims take it out before `mark_busy`.
pub struct Core {
    config: CoreConfig,
    queue: JobQueue,
    registry: Registry,
    ready: ReadyList,
    active: BTreeMap<JobId, ActiveJob>,
    /// Maps in-flight tasks to their jobs.
    tasks: BTreeMap<TaskId, JobId>,
    /// Reusable group-selection scratch and chosen-workers buffer:
    /// steady-state passes allocate nothing.
    scratch: GroupScratch,
    chosen: Vec<WorkerId>,
    /// Benched workers whose `Request` is held until their release.
    quarantined_ready: Vec<WorkerId>,
    /// `Some` while the post-restore reconciliation window is open and
    /// scheduling is paused.
    recovery: Option<Recovery>,
    next_worker: WorkerId,
    next_job: JobId,
    next_task: TaskId,
}

const ROLE: WriterRole = WriterRole::Dispatcher;

fn span_open<E: Effects>(fx: &mut E, kind: SpanKind, job: JobId, trace: u64) {
    let (role, task) = (ROLE, 0);
    fx.fact(Fact::Event(EventKind::SpanStart {
        trace,
        kind,
        role,
        job,
        task,
    }));
}

fn span_close<E: Effects>(fx: &mut E, kind: SpanKind, job: JobId, trace: u64) {
    let (role, task) = (ROLE, 0);
    fx.fact(Fact::Event(EventKind::SpanEnd {
        trace,
        kind,
        role,
        job,
        task,
    }));
}

/// An attempt of `job` is over (every member accounted for), either way.
fn attempt_ended<E: Effects>(fx: &mut E, job: JobId, (nodes, ppn): (u32, u32), success: bool) {
    fx.fact(Fact::Event(EventKind::JobCompleted {
        job,
        nodes,
        ppn,
        success,
    }));
}

fn job_finished<E: Effects>(
    fx: &mut E,
    job: JobId,
    success: bool,
    wall: Option<Duration>,
    exit_codes: Vec<i32>,
    outputs: Vec<String>,
) {
    fx.fact(Fact::JobFinished {
        job,
        success,
        wall,
        exit_codes,
        outputs,
    });
}

/// Microseconds from `a` to `b`, zero if `b` is earlier.
fn micros(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_micros() as u64
}

impl Core {
    /// An empty core whose liveness and quarantine clocks count from
    /// `epoch`.
    pub fn new(config: CoreConfig, epoch: Instant) -> Core {
        Core {
            queue: JobQueue::new(config.queue_policy),
            registry: Registry::new(epoch, config.quarantine.clone()),
            ready: ReadyList::new(),
            active: BTreeMap::new(),
            tasks: BTreeMap::new(),
            scratch: GroupScratch::new(),
            chosen: Vec::new(),
            quarantined_ready: Vec::new(),
            recovery: None,
            next_worker: 1,
            next_job: 1,
            next_task: 1,
            config,
        }
    }

    /// The worker table.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The pending-job queue.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// The parked workers.
    pub fn ready(&self) -> &ReadyList {
        &self.ready
    }

    /// Running attempts: job, attempt number and the members still out.
    pub fn active(&self) -> impl Iterator<Item = (JobId, u32, &[(WorkerId, TaskId)])> {
        self.active
            .iter()
            .map(|(&id, a)| (id, a.attempts, a.pending.as_slice()))
    }

    /// Number of running attempts.
    pub fn running(&self) -> usize {
        self.active.len()
    }

    /// True while the reconciliation window is open (no scheduling).
    pub fn recovering(&self) -> bool {
        self.recovery.is_some()
    }

    /// A job's 64-bit trace id: the job id mixed with the configured seed
    /// through a splitmix64 finalizer. Unique within an incarnation
    /// (distinct job ids), collision-resistant across incarnations (the
    /// seed differs), and never zero — zero is the "untraced" sentinel.
    fn mint_trace(&self, job: JobId) -> u64 {
        splitmix64(self.config.trace_seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
    }

    /// Accept a batch: ids and traces are assigned, the whole batch is
    /// queued and one scheduling pass runs. Each spec moves from `specs`
    /// into its queue entry; nothing else holds a copy of the batch.
    pub fn submit<E: Effects>(
        &mut self,
        now: Instant,
        specs: Vec<JobSpec>,
        fx: &mut E,
    ) -> Vec<JobId> {
        let first = self.next_job;
        self.next_job += specs.len() as u64;
        for (job, spec) in (first..).zip(&specs) {
            let (nodes, ppn) = (spec.nodes, spec.ppn);
            fx.fact(Fact::Event(EventKind::JobSubmitted { job, nodes, ppn }));
            span_open(fx, SpanKind::Submit, job, self.mint_trace(job));
        }
        fx.fact(Fact::Submitted {
            first,
            specs: &specs,
        });
        for (id, spec) in (first..).zip(specs) {
            let trace = self.mint_trace(id);
            span_close(fx, SpanKind::Submit, id, trace);
            span_open(fx, SpanKind::Queue, id, trace);
            self.queue.push(QueuedJob {
                id,
                spec,
                attempts: 0,
                excluded: Vec::new(),
                submitted_at: now,
                enqueued_at: now,
                trace,
            });
        }
        self.schedule(now, fx);
        (first..self.next_job).collect()
    }

    /// One frame read off `peer`'s connection, as one input. False: sever
    /// the connection — a protocol violation, a `Goodbye`, or a frame from
    /// a direct worker already declared dead (it must reconnect to be used
    /// again); [`Core::peer_closed`] then unwinds what the peer was.
    pub fn peer_frame<E: Effects>(
        &mut self,
        now: Instant,
        peer: &mut Peer,
        msg: WorkerMsg,
        fx: &mut E,
    ) -> bool {
        match peer {
            Peer::Direct(worker) => self.direct(now, *worker, msg, fx),
            Peer::Relay(relay, members) => self.relayed(now, *relay, members, msg, fx),
            Peer::Handshake => match self.handshake(now, msg, fx) {
                Some(handshaken) => {
                    *peer = handshaken;
                    true
                }
                None => false,
            },
        }
    }

    /// `peer`'s connection closed (end-of-file, an error, an overflowed
    /// outbox, `Goodbye` or a sever, once): a direct worker dies, a relay
    /// takes every worker it still fronted with it.
    pub fn peer_closed<E: Effects>(&mut self, now: Instant, peer: Peer, fx: &mut E) {
        match peer {
            Peer::Handshake => return,
            Peer::Direct(worker) => self.down(now, worker, fx),
            Peer::Relay(relay, _) => {
                fx.fact(Fact::Event(EventKind::RelayDown { relay }));
                for worker in self.registry.relayed_by(relay) {
                    self.down(now, worker, fx);
                }
            }
        }
        self.schedule(now, fx);
    }

    /// The first frame decides what the peer is, and is acked; any other
    /// first frame is a violation.
    fn handshake<E: Effects>(&mut self, now: Instant, msg: WorkerMsg, fx: &mut E) -> Option<Peer> {
        let (worker_id, peer) = match msg {
            WorkerMsg::Register {
                name,
                cores,
                location,
            } => {
                let worker = self.register(now, (name, cores, location), None, fx);
                (worker, Peer::Direct(worker))
            }
            // The name is diagnostics only (the wire carries it for
            // operators).
            WorkerMsg::RelayHello { .. } => {
                let relay = self.next_worker;
                self.next_worker += 1;
                fx.fact(Fact::Event(EventKind::RelayUp { relay }));
                (relay, Peer::Relay(relay, BTreeSet::new()))
            }
            WorkerMsg::Request
            | WorkerMsg::Done { .. }
            | WorkerMsg::Heartbeat
            | WorkerMsg::Goodbye
            | WorkerMsg::SessionState { .. }
            | WorkerMsg::RelayRegister { .. }
            | WorkerMsg::RelayRequest { .. }
            | WorkerMsg::RelayDone { .. }
            | WorkerMsg::BatchedHeartbeat { .. }
            | WorkerMsg::RelayWorkerGone { .. }
            | WorkerMsg::RelayMemberState { .. } => return None,
        };
        fx.reply(DispatcherMsg::Registered { worker_id });
        Some(peer)
    }

    /// A frame from a registered direct worker. One declared dead (hung)
    /// is severed, so that it reconnects: its requests would be dropped.
    fn direct<E: Effects>(
        &mut self,
        now: Instant,
        worker: WorkerId,
        msg: WorkerMsg,
        fx: &mut E,
    ) -> bool {
        if self.dead(worker) {
            return false;
        }
        match msg {
            WorkerMsg::Request => self.request(now, worker, fx),
            WorkerMsg::Done {
                task_id,
                exit_code,
                output,
                ..
            } => self.done(now, worker, task_id, exit_code, output, fx),
            WorkerMsg::Heartbeat => self.registry.touch(worker, now),
            // Reconciliation: a surviving worker reports the task it is
            // still running from the previous incarnation. A valid claim
            // re-adopts it in place; anything else earns a `Cancel` so the
            // worker kills the zombie and rejoins the pool cleanly.
            WorkerMsg::SessionState { running } => {
                if let Some((task_id, _)) = running.filter(|&r| !self.claim(now, worker, r, fx)) {
                    fx.reply(DispatcherMsg::Cancel { task_id });
                }
            }
            // `Goodbye` closes, as end-of-file would; re-registration or
            // relay-scoped frames are violations.
            WorkerMsg::Goodbye
            | WorkerMsg::Register { .. }
            | WorkerMsg::RelayHello { .. }
            | WorkerMsg::RelayRegister { .. }
            | WorkerMsg::RelayRequest { .. }
            | WorkerMsg::RelayDone { .. }
            | WorkerMsg::BatchedHeartbeat { .. }
            | WorkerMsg::RelayWorkerGone { .. }
            | WorkerMsg::RelayMemberState { .. } => return false,
        }
        true
    }

    /// A frame from a registered relay: one socket carrying a whole
    /// block's registrations, requests, results and batched liveness. A
    /// frame routed for a worker this relay never registered is ignored.
    fn relayed<E: Effects>(
        &mut self,
        now: Instant,
        relay: WorkerId,
        members: &mut BTreeSet<WorkerId>,
        msg: WorkerMsg,
        fx: &mut E,
    ) -> bool {
        match msg {
            WorkerMsg::RelayRegister {
                local,
                name,
                cores,
                location,
            } => {
                let worker_id = self.register(now, (name, cores, location), Some(relay), fx);
                members.insert(worker_id);
                fx.reply(DispatcherMsg::RelayRegistered { local, worker_id });
            }
            WorkerMsg::RelayRequest { worker } if members.contains(&worker) => {
                self.request(now, worker, fx)
            }
            WorkerMsg::RelayDone {
                worker,
                task_id,
                exit_code,
                output,
                ..
            } if members.contains(&worker) => {
                self.done(now, worker, task_id, exit_code, output, fx)
            }
            // Batched liveness: one frame, one input for the whole block;
            // nothing is decided until the next tick.
            WorkerMsg::BatchedHeartbeat { workers } => {
                let ours = workers.into_iter().filter(|w| members.contains(w));
                ours.for_each(|worker| self.registry.touch(worker, now));
            }
            WorkerMsg::RelayWorkerGone { worker } => {
                if members.remove(&worker) {
                    self.down(now, worker, fx);
                    self.schedule(now, fx);
                }
            }
            // Reconciliation, relayed: the same adopt-or-cancel decision
            // as a direct worker's `SessionState`.
            WorkerMsg::RelayMemberState {
                worker,
                task_id,
                job_id,
            } => {
                if members.contains(&worker) && !self.claim(now, worker, (task_id, job_id), fx) {
                    fx.reply(DispatcherMsg::RelayCancel { worker, task_id });
                }
            }
            // An unknown member's frame; the relay's own keepalive.
            WorkerMsg::RelayRequest { .. } | WorkerMsg::RelayDone { .. } | WorkerMsg::Heartbeat => {
            }
            // `Goodbye` closes, taking the block down as end-of-file
            // would; direct-worker frames are violations.
            WorkerMsg::Goodbye
            | WorkerMsg::Register { .. }
            | WorkerMsg::Request
            | WorkerMsg::Done { .. }
            | WorkerMsg::RelayHello { .. }
            | WorkerMsg::SessionState { .. } => return false,
        }
        true
    }

    /// Register a worker reachable directly (`relay: None`) or through a
    /// relay; returns its id. A name with too many recent gang-kills is
    /// admitted benched.
    fn register<E: Effects>(
        &mut self,
        now: Instant,
        (name, cores, location): (String, u32, String),
        relay: Option<WorkerId>,
        fx: &mut E,
    ) -> WorkerId {
        let worker = self.next_worker;
        self.next_worker += 1;
        let reconnect = self.registry.known_name(&name);
        self.registry
            .insert(worker, name, cores, location, relay, now);
        let relayed = relay.is_some();
        fx.fact(Fact::WorkerUp {
            worker,
            relayed,
            reconnect,
        });
        if let Some(WorkerState::Quarantined { until_ms }) =
            self.registry.get(worker).map(|w| w.state)
        {
            let strikes = self.registry.strikes(worker);
            fx.fact(Fact::Event(EventKind::WorkerQuarantined {
                worker,
                strikes,
                until_ms,
            }));
        }
        worker
    }

    /// `worker` asked for work: it parks and a scheduling pass runs. Only
    /// an idle worker enters the ready list (a duplicate is suppressed);
    /// a dead or busy one's request is dropped, and a benched worker's is
    /// *held* — [`Core::tick`] replays it when the bench expires, so it
    /// never has to re-request.
    fn request<E: Effects>(&mut self, now: Instant, worker: WorkerId, fx: &mut E) {
        self.registry.touch(worker, now);
        match self.registry.get(worker).map(|w| (w.state, w.loc)) {
            Some((WorkerState::Idle, loc)) => {
                self.ready.park(worker, loc);
            }
            Some((WorkerState::Quarantined { .. }, _)) => {
                if !self.quarantined_ready.contains(&worker) {
                    self.quarantined_ready.push(worker);
                }
            }
            Some((WorkerState::Busy(_) | WorkerState::Dead, _)) | None => {}
        }
        self.schedule(now, fx);
    }

    /// Match queued jobs against parked workers until nothing fits.
    fn schedule<E: Effects>(&mut self, now: Instant, fx: &mut E) {
        // Reconciliation window: no new launches until surviving workers
        // have claimed their in-flight tasks (or the window expires).
        if self.recovery.is_some() {
            return;
        }
        let mut chosen = std::mem::take(&mut self.chosen);
        while let Some(job) = self.queue.pick(self.ready.len()) {
            chosen.clear();
            let need = job.spec.nodes as usize;
            // A requeued job first tries a group avoiding the workers its
            // last attempt blames. Best effort: if the pool minus those is
            // too small, the hint is waived and normal selection runs.
            let avoided = !job.excluded.is_empty()
                && take_excluding(&mut self.ready, &job.excluded, need, &mut chosen);
            if !avoided {
                match self.config.grouping {
                    // FCFS fast path: dequeue the longest-parked workers.
                    GroupingPolicy::Fcfs => self.ready.take_front(need, &mut chosen),
                    GroupingPolicy::LocationAware => {
                        let entries = self.ready.entries();
                        let policy = GroupingPolicy::LocationAware;
                        let found = select_group_ids(policy, entries, need, &mut self.scratch);
                        assert!(found, "queue.pick guaranteed enough ready workers");
                        self.ready
                            .take_indices(self.scratch.selected(), &mut chosen);
                    }
                }
            }
            // `chosen` is oldest-request-first == rank order.
            self.start_job(now, job, &chosen, fx);
        }
        self.chosen = chosen;
    }

    /// Ship a job's tasks to its chosen workers.
    fn start_job<E: Effects>(
        &mut self,
        now: Instant,
        job: QueuedJob,
        workers: &[WorkerId],
        fx: &mut E,
    ) {
        let QueuedJob {
            id,
            spec,
            attempts,
            submitted_at,
            enqueued_at,
            trace,
            ..
        } = job;
        let (nodes, ppn, attempt) = (spec.nodes, spec.ppn, attempts + 1);
        fx.fact(Fact::JobStarted {
            job: id,
            attempt,
            nodes,
        });
        // Queue wait is over; group assembly and assignment construction
        // run inside the `sched` span.
        span_close(fx, SpanKind::Queue, id, trace);
        span_open(fx, SpanKind::Sched, id, trace);
        let mut assign = |worker: WorkerId, kind: TaskKind| {
            let task_id = self.next_task;
            self.next_task += 1;
            let (job_id, stage) = (id, spec.stage.clone());
            (
                worker,
                TaskAssignment {
                    task_id,
                    job_id,
                    kind,
                    stage,
                    trace,
                },
            )
        };
        let assignments: Vec<(WorkerId, TaskAssignment)> = if spec.is_mpi() {
            // One PMI job per attempt: a straggler rank of an earlier
            // attempt names a job that is closed, not the retry's.
            let jobid = format!("jets-job-{id}.{attempt}");
            let addr = match fx.pmi_start(id, &jobid, spec.size()) {
                Ok(addr) => addr,
                Err(_) => {
                    // No PMI service: fail the job outright and put the
                    // workers back (nothing shipped, all still idle).
                    for &w in workers {
                        let loc = self.registry.get(w).map_or(0, |i| i.loc);
                        self.ready.park(w, loc);
                    }
                    span_close(fx, SpanKind::Sched, id, trace);
                    attempt_ended(fx, id, (nodes, ppn), false);
                    job_finished(fx, id, false, None, Vec::new(), Vec::new());
                    return;
                }
            };
            let proxies = ManualLauncher.proxy_commands(&jobid, RankLayout { nodes, ppn }, &addr);
            let gang = workers.iter().zip(proxies);
            gang.map(|(&w, proxy)| {
                let kind = TaskKind::MpiProxy {
                    cmd: spec.cmd.clone(),
                    ranks: proxy.ranks,
                    size: proxy.size,
                    pmi_addr: proxy.pmi_addr,
                    pmi_jobid: proxy.jobid,
                };
                assign(w, kind)
            })
            .collect()
        } else {
            let cmd = spec.cmd.clone();
            vec![assign(workers[0], TaskKind::Sequential { cmd })]
        };
        // The attempt is a fact before any assignment reaches a wire: a
        // crash after this replays with the full gang as orphans.
        fx.fact(Fact::Assigned {
            job: id,
            attempt,
            tasks: &assignments,
        });
        let mut active = ActiveJob {
            attempts: attempt,
            pending: Vec::with_capacity(assignments.len()),
            exit_codes: Vec::new(),
            outputs: Vec::new(),
            any_failure: false,
            failed_workers: Vec::new(),
            started: now,
            deadline: spec.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            submitted_at,
            enqueued_at,
            trace,
            pmi_span_open: false,
            barrier_at: None,
            spec,
        };
        // Assignments built: `sched` ends and `ship` covers the sends.
        span_close(fx, SpanKind::Sched, id, trace);
        span_open(fx, SpanKind::Ship, id, trace);
        for (worker, assignment) in assignments {
            let task = assignment.task_id;
            self.tasks.insert(task, id);
            self.registry.mark_busy(worker, id, now);
            active.pending.push((worker, task));
            let (job, ranks) = (id, ppn);
            fx.fact(Fact::Event(EventKind::TaskStarted {
                task,
                job,
                worker,
                ranks,
            }));
            if !fx.send_assign(worker, assignment) {
                // The worker vanished between parking and assignment:
                // its task has failed already.
                active.pending.pop();
                active.failed_workers.push(worker);
                self.end_task(&mut active, id, (worker, task), EXIT_UNDELIVERABLE, fx);
            }
        }
        span_close(fx, SpanKind::Ship, id, trace);
        // MPI gangs converge on the first PMI fence (`pmi-barrier`,
        // closed when the fence releases); the rest go straight to `run`.
        active.pmi_span_open = active.spec.is_mpi();
        if active.pmi_span_open {
            span_open(fx, SpanKind::PmiBarrier, id, trace);
        } else {
            span_open(fx, SpanKind::Run, id, trace);
        }
        if active.pending.is_empty() {
            self.finish_job(now, id, active, fx); // nothing was delivered
        } else if active.any_failure {
            // Part of the gang is unreachable. The delivered members
            // would block at the fence until its timeout: tear the gang
            // down now; the failure requeues through the retry path.
            let why = "peer assignment undeliverable";
            self.cancel_gang(now, id, active, EXIT_CANCELED, why, fx);
        } else {
            self.active.insert(id, active);
        }
    }

    /// The one place a task ends: its fact, its exit code, its failure.
    fn end_task<E: Effects>(
        &mut self,
        active: &mut ActiveJob,
        job: JobId,
        (worker, task): (WorkerId, TaskId),
        exit_code: i32,
        fx: &mut E,
    ) {
        self.tasks.remove(&task);
        let (ranks, trace) = (active.spec.ppn, active.trace);
        fx.fact(Fact::Event(EventKind::TaskEnded {
            task,
            job,
            worker,
            ranks,
            exit_code,
            trace,
        }));
        active.exit_codes.push(exit_code);
        active.any_failure |= exit_code != 0;
    }

    /// A worker reported a task result. A stale report (its job already
    /// failed) only returns the worker to `Idle`.
    fn done<E: Effects>(
        &mut self,
        now: Instant,
        worker: WorkerId,
        task: TaskId,
        exit_code: i32,
        output: Option<String>,
        fx: &mut E,
    ) {
        self.registry.touch(worker, now);
        self.registry.mark_idle(worker);
        let Some(&job) = self.tasks.get(&task) else {
            return;
        };
        let Some(mut active) = self.active.remove(&job) else {
            return;
        };
        // An orphan reported by a worker that never claimed it is still
        // listed under the dead incarnation's worker id: match by task
        // id, the stable key.
        active.pending.retain(|&(_, t)| t != task);
        self.end_task(&mut active, job, (worker, task), exit_code, fx);
        let text = output.as_deref();
        fx.fact(Fact::Reported {
            job,
            task,
            output: text,
        });
        active.outputs.extend(output);
        if exit_code != 0 {
            active.failed_workers.push(worker);
        }
        if active.pending.is_empty() {
            self.finish_job(now, job, active, fx);
            self.schedule(now, fx);
        } else {
            self.active.insert(job, active);
        }
    }

    /// A worker is gone: its connection (or its relay's) closed, its
    /// relay reported it, or it was declared hung. Idempotent: the reader
    /// and the hang detector can both report it.
    fn down<E: Effects>(&mut self, now: Instant, worker: WorkerId, fx: &mut E) {
        if self.dead(worker) {
            return;
        }
        let inflight = self.registry.mark_dead(worker);
        self.ready.remove(worker);
        self.quarantined_ready.retain(|&w| w != worker);
        // Dying mid-gang is a strike; enough strikes and the name's next
        // registration is admitted quarantined.
        let struck = inflight.is_some() && self.registry.record_fault(worker, now).is_some();
        let name = self.registry.get(worker).map(|w| w.name.as_str());
        let strike = name.filter(|_| struck);
        fx.fact(Fact::WorkerDown { worker, strike });
        let Some((job, mut active)) = inflight.and_then(|j| Some((j, self.active.remove(&j)?)))
        else {
            return;
        };
        active.failed_workers.push(worker);
        if let Some(pos) = active.pending.iter().position(|&(w, _)| w == worker) {
            let member = active.pending.swap_remove(pos);
            self.end_task(&mut active, job, member, EXIT_WORKER_LOST, fx);
        }
        active.any_failure = true;
        if active.pending.is_empty() {
            self.finish_job(now, job, active, fx);
        } else {
            // Survivors would hang at the fence until its timeout: tear
            // the whole gang down so the job requeues promptly.
            let why = format!("worker {worker} died");
            self.cancel_gang(now, job, active, EXIT_CANCELED, &why, fx);
        }
    }

    /// Declared dead, or never registered.
    fn dead(&self, worker: WorkerId) -> bool {
        let state = self.registry.get(worker).map(|w| w.state);
        state.is_none_or(|s| s == WorkerState::Dead)
    }

    /// Tear down a running gang: abort its PMI service (unblocking ranks
    /// stuck at a fence), `Cancel` every member still out, and end the
    /// attempt as failed — which requeues it if retry budget remains.
    ///
    /// Survivors are *not* blamed: only the worker that triggered the
    /// teardown (dead, unreachable, nonzero exit) is, and a deadline
    /// blames nobody. Each survivor's eventual `Done` arrives stale, so
    /// cancelled workers rejoin the pool on their next `Request`.
    fn cancel_gang<E: Effects>(
        &mut self,
        now: Instant,
        job: JobId,
        mut active: ActiveJob,
        exit_code: i32,
        reason: &str,
        fx: &mut E,
    ) {
        if active.spec.is_mpi() {
            fx.pmi_abort(job, reason);
        }
        for (worker, task) in std::mem::take(&mut active.pending) {
            fx.send_cancel(worker, task);
            self.end_task(&mut active, job, (worker, task), exit_code, fx);
        }
        active.any_failure = true;
        self.finish_job(now, job, active, fx);
    }

    /// An attempt is over (every member accounted for): requeue or finish.
    fn finish_job<E: Effects>(
        &mut self,
        now: Instant,
        job: JobId,
        mut active: ActiveJob,
        fx: &mut E,
    ) {
        let success = !active.any_failure;
        let (trace, nodes, ppn) = (active.trace, active.spec.nodes, active.spec.ppn);
        // An orphan that ends inside the reconciliation window is resolved
        // — its worker finished the work and replayed the result, or a
        // deadline or its claimant's death ended it: a later claim must be
        // refused, and the window may close early.
        if let Some(rs) = self.recovery.as_mut() {
            rs.orphans.remove(&job);
        }
        // A gang torn down before its first fence released still has
        // `pmi-barrier` open: close it with a zero-length `run`, so every
        // attempt's span chain terminates.
        if active.pmi_span_open {
            span_close(fx, SpanKind::PmiBarrier, job, trace);
            span_open(fx, SpanKind::Run, job, trace);
        }
        span_close(fx, SpanKind::Run, job, trace);
        if active.spec.is_mpi() {
            if !success {
                fx.pmi_abort(job, "job failed"); // lingering ranks unblock
            }
            active.barrier_at = fx.pmi_stop(job).or(active.barrier_at);
        }
        attempt_ended(fx, job, (nodes, ppn), success);
        let wall = Some(now.saturating_duration_since(active.started));
        let (exit_codes, outputs) = (active.exit_codes, active.outputs);
        if !success && active.attempts <= active.spec.max_retries {
            fx.fact(Fact::JobRequeued {
                job,
                attempts: active.attempts,
                wall,
                exit_codes,
                outputs,
            });
            let mut excluded = active.failed_workers;
            excluded.sort_unstable();
            excluded.dedup();
            // The trace and the end-to-end epoch survive the requeue; the
            // queue-wait epoch and the queue span restart now.
            span_open(fx, SpanKind::Queue, job, trace);
            self.queue.push_front(QueuedJob {
                id: job,
                spec: active.spec,
                attempts: active.attempts,
                excluded,
                submitted_at: active.submitted_at,
                enqueued_at: now,
                trace,
            });
        } else {
            span_open(fx, SpanKind::Report, job, trace);
            // The final attempt's breakdown, on this clock (one pass is
            // one instant: `launch_us` is zero here, and the `sched` and
            // `ship` spans carry the real microseconds). `enqueued_at` →
            // `started` (group assembled and shipped) → first fence (MPI
            // only) → now; `total` alone predates requeues.
            let barrier = active.barrier_at;
            fx.fact(Fact::Event(EventKind::JobPhases {
                job,
                nodes,
                queue_us: micros(active.enqueued_at, active.started),
                launch_us: 0,
                pmi_us: barrier.map(|b| micros(active.started, b)),
                run_us: micros(barrier.unwrap_or(active.started), now),
                total_us: micros(active.submitted_at, now),
            }));
            job_finished(fx, job, success, wall, exit_codes, outputs);
            span_close(fx, SpanKind::Report, job, trace);
        }
    }

    /// `job`'s first PMI fence released at `at`: the `pmi-barrier` →
    /// `run` boundary. Ignored unless that span is open.
    pub fn fence_released<E: Effects>(&mut self, job: JobId, at: Instant, fx: &mut E) {
        if let Some(active) = self.active.get_mut(&job).filter(|a| a.pmi_span_open) {
            active.pmi_span_open = false;
            active.barrier_at = Some(at);
            span_close(fx, SpanKind::PmiBarrier, job, active.trace);
            span_open(fx, SpanKind::Run, job, active.trace);
        }
    }

    /// The periodic duties: hang detection, the reconciliation window's
    /// close, per-attempt deadlines, quarantine release.
    pub fn tick<E: Effects>(&mut self, now: Instant, fx: &mut E) {
        if let Some(timeout) = self.config.heartbeat_timeout {
            for worker in self.registry.stale(now, timeout) {
                self.down(now, worker, fx);
            }
        }
        // Close the window once every orphaned gang is resolved — or the
        // patience budget runs out, whichever is first.
        let closing = |rs: &Recovery| rs.orphans.is_empty() || now >= rs.until;
        if self.recovery.as_ref().is_some_and(closing) {
            self.reconcile_finish(now, fx);
        }
        // Cancel the whole gang of any attempt that blew its wall-time
        // budget; the failure consumes a retry.
        let late =
            |(&id, a): (&JobId, &ActiveJob)| a.deadline.is_some_and(|d| now >= d).then_some(id);
        for job in self.active.iter().filter_map(late).collect::<Vec<_>>() {
            fx.fact(Fact::Event(EventKind::DeadlineExceeded { job }));
            if let Some(active) = self.active.remove(&job) {
                self.cancel_gang(now, job, active, EXIT_DEADLINE, "deadline exceeded", fx);
            }
        }
        // Benched workers whose penalty expired get their held `Request`
        // replayed through the normal park path.
        for worker in self.registry.release_expired(now) {
            let Some(info) = self.registry.get(worker) else {
                continue;
            };
            fx.fact(Fact::QuarantineReleased { name: &info.name });
            if let Some(pos) = self.quarantined_ready.iter().position(|&w| w == worker) {
                self.quarantined_ready.swap_remove(pos);
                self.ready.park(worker, info.loc);
            }
        }
        self.schedule(now, fx);
    }

    /// Rebuild state from a replayed log, before the first connection.
    ///
    /// Queued jobs go straight back on the queue. An in-flight
    /// *sequential* gang becomes an orphan: listed under the dead
    /// incarnation's worker ids, for the reconciliation window to decide
    /// whether surviving workers re-claim the tasks (matched by task id)
    /// or the job is cancelled and requeued. An in-flight *MPI* gang is
    /// requeued at once: its PMI service died with the old process. A
    /// gang whose every member had reported success is finished in place
    /// — the crash merely ate the terminal record — and anything else is
    /// requeued with the crashed attempt refunded (the dispatcher failed,
    /// not the job). Each restored job opens the span its successor
    /// closes: `queue` when queued, `run` when orphaned.
    pub fn restore<E: Effects>(&mut self, now: Instant, rec: Recovered, fx: &mut E) {
        self.next_job = rec.next_job;
        self.next_task = rec.next_task;
        for (name, strikes) in &rec.strikes {
            self.registry.seed_strikes(name, *strikes, now);
        }
        let mut orphans = BTreeMap::new();
        fx.fact(Fact::Restored { jobs: &rec.jobs });
        for job in rec.jobs {
            let (id, spec) = (job.id, job.spec);
            let (tasks, ended) = match job.phase {
                RecoveredPhase::Queued => (Vec::new(), None),
                RecoveredPhase::Active { tasks, ended } => (tasks, Some(ended)),
            };
            // Traces are not logged; a restored job gets a fresh id for
            // the successor's span chain.
            let mut queued = QueuedJob {
                id,
                attempts: job.attempts,
                excluded: Vec::new(),
                submitted_at: now,
                enqueued_at: now,
                trace: self.mint_trace(id),
                spec,
            };
            let Some(exit_codes) = ended else {
                span_open(fx, SpanKind::Queue, id, queued.trace);
                self.queue.push(queued);
                continue;
            };
            if tasks.is_empty() && !exit_codes.is_empty() && exit_codes.iter().all(|&c| c == 0) {
                // The crash fell between the last report and the
                // terminal record: finish, don't re-run.
                job_finished(fx, id, true, None, exit_codes, Vec::new());
            } else if tasks.is_empty() || queued.spec.is_mpi() {
                queued.attempts = job.attempts.saturating_sub(1);
                self.requeue_refunded(queued, fx);
            } else {
                for &(_, t) in &tasks {
                    self.tasks.insert(t, id);
                }
                orphans.insert(id, tasks.iter().map(|&(_, t)| t).collect());
                span_open(fx, SpanKind::Run, id, queued.trace);
                let deadline = queued.spec.deadline_ms;
                self.active.insert(
                    id,
                    ActiveJob {
                        attempts: job.attempts,
                        pending: tasks,
                        any_failure: exit_codes.iter().any(|&c| c != 0),
                        exit_codes,
                        outputs: Vec::new(),
                        failed_workers: Vec::new(),
                        started: now,
                        deadline: deadline.map(|ms| now + Duration::from_millis(ms)),
                        submitted_at: now,
                        enqueued_at: now,
                        trace: queued.trace,
                        pmi_span_open: false,
                        barrier_at: None,
                        spec: queued.spec,
                    },
                );
            }
        }
        if !orphans.is_empty() {
            let until = now + self.config.reconcile_window;
            self.recovery = Some(Recovery { until, orphans });
        }
    }

    /// Put `job` back at the queue front with the crashed attempt already
    /// refunded: the dispatcher failed, the job did nothing wrong, so no
    /// retry budget is charged and no attempt is recorded as ended.
    fn requeue_refunded<E: Effects>(&mut self, job: QueuedJob, fx: &mut E) {
        fx.fact(Fact::JobRequeued {
            job: job.id,
            attempts: job.attempts,
            wall: None,
            exit_codes: Vec::new(),
            outputs: Vec::new(),
        });
        span_open(fx, SpanKind::Queue, job.id, job.trace);
        self.queue.push_front(job);
    }

    /// A surviving worker claims the in-flight task it kept running
    /// across the restart. A valid claim re-keys the orphaned gang entry
    /// from the dead incarnation's worker id to the live one and marks
    /// the worker busy; the gang is re-adopted once its last member
    /// claims. False when there is nothing to claim (unknown task, window
    /// closed, no restart) — the router answers with a `Cancel` so the
    /// worker kills the zombie.
    fn claim<E: Effects>(
        &mut self,
        now: Instant,
        worker: WorkerId,
        (task, job): (TaskId, JobId),
        fx: &mut E,
    ) -> bool {
        self.registry.touch(worker, now);
        let Some(rs) = self.recovery.as_mut() else {
            return false;
        };
        let Some(tasks) = rs.orphans.get_mut(&job) else {
            return false;
        };
        let Some(pos) = tasks.iter().position(|&t| t == task) else {
            return false;
        };
        tasks.swap_remove(pos);
        let adopted = tasks.is_empty();
        if adopted {
            rs.orphans.remove(&job);
        }
        let all_resolved = rs.orphans.is_empty();
        if let Some(member) = self
            .active
            .get_mut(&job)
            .and_then(|a| a.pending.iter_mut().find(|(_, t)| *t == task))
        {
            member.0 = worker;
        }
        self.ready.remove(worker);
        self.registry.mark_busy(worker, job, now);
        if adopted {
            fx.fact(Fact::Event(EventKind::GangReadopted { job }));
            if all_resolved {
                self.reconcile_finish(now, fx); // close early and resume
            }
        }
        true
    }

    /// Close the reconciliation window: cancel and requeue every orphaned
    /// gang that went unclaimed (or only partly claimed), then resume.
    fn reconcile_finish<E: Effects>(&mut self, now: Instant, fx: &mut E) {
        let Some(rs) = self.recovery.take() else {
            return;
        };
        for job in rs.orphans.into_keys() {
            let Some(active) = self.active.remove(&job) else {
                continue;
            };
            // Cancel whatever members did claim (the others' ids belong
            // to the dead incarnation and reach nobody).
            for &(worker, task) in &active.pending {
                self.tasks.remove(&task);
                fx.send_cancel(worker, task);
            }
            span_close(fx, SpanKind::Run, job, active.trace);
            let queued = QueuedJob {
                id: job,
                attempts: active.attempts.saturating_sub(1),
                excluded: Vec::new(),
                submitted_at: active.submitted_at,
                enqueued_at: now,
                trace: active.trace,
                spec: active.spec,
            };
            self.requeue_refunded(queued, fx);
        }
        self.schedule(now, fx);
    }
}

/// Dequeue `need` ready workers, oldest first, skipping `excluded`.
/// False — taking nothing — when the non-excluded pool is too small (the
/// caller falls back to normal selection).
fn take_excluding(
    ready: &mut ReadyList,
    excluded: &[WorkerId],
    need: usize,
    out: &mut Vec<WorkerId>,
) -> bool {
    let free = |&(_, &(w, _)): &(usize, &(WorkerId, _))| !excluded.contains(&w);
    let entries = ready.entries().iter().enumerate();
    let idxs: Vec<usize> = entries.filter(free).map(|(i, _)| i).take(need).collect();
    if idxs.len() < need {
        return false;
    }
    ready.take_indices(&idxs, out);
    true
}
