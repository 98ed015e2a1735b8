//! The dispatcher's side of the world: [`Fx`], the fake behind the real
//! [`Core`](jets_core::core::Core)'s `Effects`, with the real
//! [`PmiService`] behind `pmi_start` / `pmi_abort` / `pmi_stop`, and the
//! dispatcher's end of every connection — the [`Peer`] the core's router
//! reads each frame over.
//!
//! Every [`Fact`] is checked against the job's lifecycle as it is emitted
//! (finished once, a gang is `nodes` tasks or none, a worker holds one
//! task, attempts within budget) before it updates the job table a client
//! would see. Its write-ahead frames ([`Fact::wal`], the bytes the shell
//! journals) are the journal file's bytes, so a crash is the
//! restart path: `journal::scan_bytes`, `journal::recover`,
//! `Core::restore`. `PmiWire` checks what the PMI service says.

use jets_core::core::{Effects, Fact, Peer};
use jets_core::events::{Event, EventKind};
use jets_core::journal::{self, Record, Recovered, RecoveredPhase};
use jets_core::protocol::{DispatcherMsg, TaskAssignment};
use jets_core::spec::{JobId, JobSpec, TaskId, WorkerId};
use jets_core::JobStatus as Status;
use jets_pmi::service::{ConnId, Effects as PmiEffects};
use jets_pmi::{JobOutcome, Message, PmiService};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::{Duration, Instant};

/// How long a rank may wait in a fence before its job aborts.
pub(crate) const FENCE_TIMEOUT: Duration = Duration::from_millis(15);

/// Where a job stands in its lifecycle, as the facts so far allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Queued,
    /// An attempt is out: tasks started and ended so far, and whether it
    /// began in an incarnation whose facts died with it.
    Running(u32, u32, bool),
    /// Every member accounted for; requeue or finish comes next.
    AttemptOver,
    Finished,
}

/// One job: the record a client would see, and the lifecycle audit.
pub struct Job {
    /// What was submitted.
    pub spec: JobSpec,
    /// Its status, as a client would read it.
    pub status: Status,
    /// Attempts charged.
    pub attempts: u32,
    /// The last attempt's exit codes.
    pub exit_codes: Vec<i32>,
    stage: Stage,
}

/// A task the facts say is running: its job, since when, and whether it
/// started before the last crash — the successor may end it (a reconciled
/// orphan's `Done`) or abandon it with a refunded requeue.
pub(crate) struct OpenTask {
    pub(crate) job: JobId,
    since: u64,
    pub(crate) orphan: bool,
}

/// The dispatcher's effects and the job ledger. See the module docs.
pub struct Fx {
    /// The epoch `now` counts from.
    pub t0: Instant,
    /// The virtual clock, µs since `t0`.
    pub now: u64,
    /// Frames sent, in order, each on its connection (a relay's, if relayed).
    pub sent: Vec<(u64, DispatcherMsg)>,
    /// Each reachable worker's connection and whether it is a relay's.
    pub conns: BTreeMap<WorkerId, (u64, bool)>,
    /// The dispatcher's end of each open connection.
    pub peers: BTreeMap<u64, Peer>,
    /// The connection the current frame was read from.
    pub from: u64,
    /// The next `pmi_start` fails, as a bind would with no port left.
    pub pmi_fail: bool,
    /// PMI jobs open, by job.
    pub pmi_jobs: BTreeMap<JobId, String>,
    /// Workers declared down since the last look.
    pub downs: Vec<WorkerId>,
    /// Every job submitted, by id.
    pub jobs: BTreeMap<JobId, Job>,
    /// Jobs not yet finished.
    pub unfinished: BTreeSet<JobId>,
    /// Requeues so far.
    pub requeues: u64,
    /// Spans open, by job and kind.
    pub spans: BTreeSet<(JobId, u8)>,
    /// Every fact, effect and frame, one line each, when `Some`.
    pub trace: Option<Vec<String>>,
    pub(crate) pmi: PmiService,
    pub(crate) wire: PmiWire,
    pub(crate) open: BTreeMap<TaskId, OpenTask>,
    /// The attempt each task was assigned in.
    pub(crate) attempts: BTreeMap<TaskId, u32>,
    /// The journal file's bytes, across incarnations.
    wal: Vec<u8>,
    holding: BTreeMap<WorkerId, TaskId>,
    /// Busy µs, by this fake's own account of the facts.
    busy: u64,
    /// `TaskStarted` / `TaskEnded` on the virtual clock, for Eq. (1).
    tasks: Vec<Event>,
    /// A crash has happened: some jobs' spans began in a lost ring.
    restarted: bool,
}

impl Fx {
    /// A fresh dispatcher process and an empty journal, at `t0`.
    pub fn new(t0: Instant) -> Fx {
        Fx {
            t0,
            now: 0,
            sent: Vec::new(),
            conns: BTreeMap::new(),
            peers: BTreeMap::new(),
            from: 0,
            pmi_fail: false,
            pmi_jobs: BTreeMap::new(),
            downs: Vec::new(),
            jobs: BTreeMap::new(),
            unfinished: BTreeSet::new(),
            requeues: 0,
            spans: BTreeSet::new(),
            trace: None,
            pmi: PmiService::default(),
            wire: PmiWire::at("pmi@0".into()),
            open: BTreeMap::new(),
            attempts: BTreeMap::new(),
            wal: journal::MAGIC.to_vec(),
            holding: BTreeMap::new(),
            busy: 0,
            tasks: Vec::new(),
            restarted: false,
        }
    }

    /// `now` on the cores' clock.
    pub fn at(&self) -> Instant {
        self.t0 + Duration::from_micros(self.now)
    }

    /// Add a line to the trace, if one is kept.
    pub(crate) fn note(&mut self, line: impl FnOnce() -> String) {
        if let Some(trace) = &mut self.trace {
            trace.push(line());
        }
    }

    /// Every record the journal's bytes hold, read back as a restart
    /// reads them: all of them, or the encoding lost one.
    pub fn records(&self) -> Vec<Record> {
        let scanned = journal::scan_bytes(&self.wal).expect("a journal");
        assert_eq!(scanned.dropped_bytes(), 0, "a record did not decode");
        scanned.records
    }

    /// The dispatcher process died: what lived in its memory is gone, the
    /// journal is what its successor restores. Ranks told of the dead
    /// incarnation's PMI address cannot reach its successor's.
    pub fn crash(&mut self) -> Recovered {
        self.sent.clear();
        self.downs.clear();
        self.conns.clear();
        self.peers.clear();
        self.pmi_jobs.clear();
        self.holding.clear();
        self.spans.clear();
        self.pmi = PmiService::default();
        self.wire = PmiWire::at(format!("pmi@{}", self.wal.len()));
        (self.pmi_fail, self.restarted) = (false, true);
        self.open.values_mut().for_each(|task| task.orphan = true);
        let recovered = journal::recover(&self.records());
        let restarted = journal::append_frames(&mut self.wal, &[Record::Restarted]);
        restarted.expect("a restart marker fits a frame");
        recovered
    }

    /// Once everything has drained: every job finished once, nothing left
    /// open, and Eq. (1) conserved — the estimator over the emitted events
    /// agrees with the busy time the facts were charged as they came.
    pub(crate) fn drained(&self, pilots: usize) {
        assert!(self.unfinished.is_empty(), "stuck: {:?}", self.unfinished);
        assert!(self.jobs.values().all(|j| j.stage == Stage::Finished));
        assert!(self.pmi_jobs.is_empty(), "a PMI job outlived its attempt");
        let abandoned = self.open.values().filter(|t| !t.orphan).count();
        assert_eq!(abandoned, 0, "tasks left open after the last job finished");
        let t = |e: &Event| e.t.as_micros() as u64;
        let ended = |e: &&Event| matches!(e.kind, EventKind::TaskEnded { .. });
        let last = self.tasks.iter().filter(ended).map(t).max();
        if let (Some(first), Some(last)) = (self.tasks.first().map(t), last) {
            let expected = self.busy as f64 / (pilots as f64 * (last - first).max(1) as f64);
            let measured = jets_core::stats::measured_utilization(&self.tasks, pilots);
            let conserved = (measured - expected).abs() < 1e-9 || last == first;
            assert!(conserved, "{measured} vs {expected}");
        }
    }

    fn job(&mut self, id: JobId) -> &mut Job {
        self.jobs.get_mut(&id).expect("a fact about an unknown job")
    }

    fn send(&mut self, worker: WorkerId, direct: DispatcherMsg, relayed: DispatcherMsg) -> bool {
        let conn = self.conns.get(&worker).copied();
        let sent = conn.is_some();
        self.note(|| {
            let DispatcherMsg::Assign(a) = &direct else {
                return format!("{direct:?} w{worker} -> {sent}");
            };
            format!("assign w{worker} t{} j{} -> {sent}", a.task_id, a.job_id)
        });
        if let Some((link, relay)) = conn {
            self.sent.push((link, if relay { relayed } else { direct }));
        }
        sent
    }

    /// `job` left the running state by requeue or finish: none of its
    /// tasks may still be open, unless the crash orphaned them.
    fn settle_tasks(&mut self, job: JobId) {
        let leaked = self.open.values().any(|t| t.job == job && !t.orphan);
        assert!(!leaked, "job {job} left a task open");
        self.open.retain(|_, t| t.job != job);
    }

    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the world checks spans, tasks and attempts; other kinds carry no invariant"
    )]
    fn event(&mut self, kind: &EventKind) {
        let t = Duration::from_micros(self.now);
        match *kind {
            EventKind::SpanStart { kind, job, .. } => {
                let fresh = self.spans.insert((job, kind.code()));
                assert!(fresh, "{kind:?} of job {job} opened twice");
            }
            // A restored job's successor opens no span for the state it
            // was restored in.
            EventKind::SpanEnd { kind, job, .. } => {
                let was_open = self.spans.remove(&(job, kind.code())) || self.restarted;
                assert!(was_open, "{kind:?} of job {job} closed unopened");
            }
            EventKind::TaskStarted {
                task, job, worker, ..
            } => {
                let held = self.holding.insert(worker, task);
                assert_eq!(held, None, "worker {worker} handed a second task");
                let since = self.now;
                let orphan = false;
                self.open.insert(task, OpenTask { job, since, orphan });
                self.attempts.insert(task, self.jobs[&job].attempts);
                let Stage::Running(started, ..) = &mut self.job(job).stage else {
                    panic!("task {task} started for a job that is not running");
                };
                *started += 1;
                self.tasks.push(Event {
                    t,
                    kind: kind.clone(),
                });
            }
            EventKind::TaskEnded {
                task,
                job,
                worker,
                exit_code,
                ..
            } => {
                let open = self
                    .open
                    .remove(&task)
                    .expect("a task ended that was not open");
                assert_eq!(open.job, job);
                self.busy += self.now - open.since;
                if self.holding.get(&worker) == Some(&task) {
                    self.holding.remove(&worker);
                }
                let j = self.job(job);
                j.exit_codes.push(exit_code);
                let Stage::Running(_, ended, _) = &mut j.stage else {
                    panic!("task {task} ended for a job that is not running");
                };
                *ended += 1;
                self.tasks.push(Event {
                    t,
                    kind: kind.clone(),
                });
            }
            // An attempt is over: every member it started has ended, and
            // it started all of them or (no PMI service) none.
            EventKind::JobCompleted { job, nodes, .. } => {
                let j = self.job(job);
                let Stage::Running(started, ended, restored) = j.stage else {
                    panic!("an attempt of job {job} ended that never began");
                };
                assert_eq!(nodes, j.spec.nodes);
                let all_or_none = started == ended && (started == nodes || started == 0);
                assert!(
                    restored || all_or_none,
                    "job {job}: {started}/{ended} of {nodes}"
                );
                j.stage = Stage::AttemptOver;
            }
            _ => {}
        }
    }
}

impl Effects for Fx {
    fn send_assign(&mut self, worker: WorkerId, assignment: TaskAssignment) -> bool {
        let relayed = DispatcherMsg::RelayAssign {
            worker,
            assignment: assignment.clone(),
        };
        self.send(worker, DispatcherMsg::Assign(assignment), relayed)
    }

    fn send_cancel(&mut self, worker: WorkerId, task_id: TaskId) -> bool {
        let relayed = DispatcherMsg::RelayCancel { worker, task_id };
        self.send(worker, DispatcherMsg::Cancel { task_id }, relayed)
    }

    fn reply(&mut self, msg: DispatcherMsg) {
        let from = self.from;
        self.note(|| format!("reply {msg:?} -> {from}"));
        self.sent.push((self.from, msg));
    }

    fn pmi_start(&mut self, job: JobId, jobid: &str, size: u32) -> io::Result<String> {
        let attempt = self.jobs[&job].attempts;
        assert_eq!(jobid, format!("jets-job-{job}.{attempt}"));
        assert_eq!(size, self.jobs[&job].spec.size());
        let fail = std::mem::take(&mut self.pmi_fail);
        self.note(|| format!("pmi_start j{job}: {}", !fail));
        if fail {
            return Err(io::Error::other("no port left"));
        }
        let opened = self.pmi.open_job(jobid, job, size, FENCE_TIMEOUT);
        assert!(opened, "job {job} has two PMI jobs");
        self.pmi_jobs.insert(job, jobid.to_string());
        Ok(self.wire.addr.clone())
    }

    fn pmi_abort(&mut self, job: JobId, reason: &str) {
        let jobid = self.pmi_jobs.get(&job).expect("no such PMI job");
        self.pmi.abort_job(jobid, reason, &mut self.wire);
    }

    fn pmi_stop(&mut self, job: JobId) -> Option<Instant> {
        let jobid = self.pmi_jobs.remove(&job).expect("no such PMI job");
        let released = self.pmi.close_job(&jobid, &mut self.wire);
        let left = self.wire.open.iter().find(|c| c.1 .0 == job).map(|c| *c.0);
        assert_eq!(left, None, "job {job}'s rank is still connected");
        released
    }

    fn fact(&mut self, fact: Fact<'_>) {
        // The journal's bytes, as the shell's `Journal` writes them.
        fact.wal(&mut self.wal).expect("records fit a frame");
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "every other fact is noted as it prints"
        )]
        self.note(|| match &fact {
            Fact::Event(kind) => format!("{kind:?}"),
            Fact::Submitted { first, specs } => format!("Submitted j{first} x{}", specs.len()),
            other => format!("{other:?}"),
        });
        match fact {
            Fact::Event(kind) => self.event(&kind),
            Fact::Submitted { first, specs } => {
                for (id, spec) in (first..).zip(specs) {
                    let (spec, status, exit_codes) = (spec.clone(), Status::Pending, Vec::new());
                    let (attempts, stage) = (0, Stage::Queued);
                    let job = Job {
                        spec,
                        status,
                        attempts,
                        exit_codes,
                        stage,
                    };
                    let fresh = self.jobs.insert(id, job).is_none();
                    assert!(fresh, "job id {id} reused");
                    self.unfinished.insert(id);
                }
            }
            Fact::Restored { jobs } => {
                for restored in jobs {
                    let id = restored.id;
                    let known = self.unfinished.contains(&id);
                    assert!(known, "job {id} restored from nowhere");
                    let j = self.job(id);
                    assert_eq!(j.spec, restored.spec);
                    j.attempts = restored.attempts;
                    (j.status, j.stage) = match restored.phase {
                        RecoveredPhase::Active { .. } => {
                            (Status::Running, Stage::Running(0, 0, true))
                        }
                        RecoveredPhase::Queued => (Status::Pending, Stage::Queued),
                    };
                }
            }
            // The shell binds the worker to the connection being read.
            Fact::WorkerUp {
                worker, relayed, ..
            } => _ = self.conns.insert(worker, (self.from, relayed)),
            Fact::Reported { .. } | Fact::QuarantineReleased { .. } => {}
            // The shell forgets the connection with the worker.
            Fact::WorkerDown { worker, .. } => {
                self.holding.remove(&worker);
                self.conns.remove(&worker);
                self.downs.push(worker);
            }
            Fact::JobStarted {
                job,
                attempt,
                nodes,
                ..
            } => {
                let j = self.job(job);
                assert_eq!(j.stage, Stage::Queued, "job {job} started while not queued");
                let within = attempt <= j.spec.max_retries + 1;
                assert!(within, "job {job}: attempt {attempt} is over budget");
                assert_eq!(nodes, j.spec.nodes);
                (j.status, j.attempts) = (Status::Running, attempt);
                (j.stage, j.exit_codes) = (Stage::Running(0, 0, false), Vec::new());
            }
            // All or nothing: the gang is `nodes` distinct workers.
            Fact::Assigned { job, tasks, .. } => {
                let workers: BTreeSet<WorkerId> = tasks.iter().map(|(w, _)| *w).collect();
                assert_eq!(workers.len() as u32, self.jobs[&job].spec.nodes);
                assert_eq!(tasks.len(), workers.len());
            }
            Fact::JobRequeued { job, attempts, .. } => {
                self.requeues += 1;
                self.settle_tasks(job);
                let j = self.job(job);
                let refund = matches!(j.stage, Stage::Running(.., true));
                let over = refund || j.stage == Stage::AttemptOver;
                assert!(over, "job {job} requeued mid-attempt");
                let left = attempts <= j.spec.max_retries;
                assert!(left, "job {job} requeued with no budget left");
                assert_eq!(attempts, j.attempts - refund as u32);
                (j.status, j.attempts, j.stage) = (Status::Pending, attempts, Stage::Queued);
            }
            Fact::JobFinished {
                job,
                success,
                exit_codes,
                ..
            } => {
                self.settle_tasks(job);
                let j = self.job(job);
                let all_reported = matches!(j.stage, Stage::Running(.., true)) && success;
                let over = all_reported || j.stage == Stage::AttemptOver;
                assert!(over, "job {job} finished twice or mid-attempt");
                let status = [Status::Failed, Status::Succeeded][success as usize];
                (j.status, j.stage, j.exit_codes) = (status, Stage::Finished, exit_codes);
                assert!(self.unfinished.remove(&job));
            }
        }
    }
}

/// The PMI service's replies and closes, in order, each checked as it is
/// made: a fence releases only with every rank of the job parked in it,
/// and every rank parked in an aborted job's fence is answered `abort`.
#[derive(Default)]
pub(crate) struct PmiWire {
    /// Where ranks connect: one address per incarnation.
    pub(crate) addr: String,
    /// Replies and closes (`None`), in order, by connection.
    pub(crate) out: Vec<(ConnId, Option<Message>)>,
    /// Every rank connection of this incarnation: job, rank, world size.
    pub(crate) ranks: BTreeMap<ConnId, (JobId, u32, u32)>,
    /// Connections the service accepted and has not closed.
    pub(crate) open: BTreeMap<ConnId, (JobId, u32, u32)>,
    /// Ranks whose `fence` reached the service, unanswered.
    parked: BTreeSet<ConnId>,
    /// Connections the service closed: what their ranks still send is lost.
    pub(crate) closed: BTreeSet<ConnId>,
}

impl PmiWire {
    fn at(addr: String) -> PmiWire {
        PmiWire {
            addr,
            ..PmiWire::default()
        }
    }

    /// `conn`'s `fence` is about to reach the service.
    pub(crate) fn fencing(&mut self, conn: ConnId) {
        if self.open.contains_key(&conn) {
            self.parked.insert(conn);
        }
    }

    /// `conn` is about to hang up: nobody is left to answer.
    pub(crate) fn gone(&mut self, conn: ConnId) {
        self.parked.remove(&conn);
        self.open.remove(&conn);
    }

    /// After every input to the service: no rank waits in the fence of a
    /// job that has aborted.
    pub(crate) fn audit(&self, pmi: &PmiService, jobids: &BTreeMap<JobId, String>) {
        for conn in &self.parked {
            let jobid = &jobids[&self.open[conn].0];
            let aborted = matches!(pmi.outcome(jobid), Some(JobOutcome::Aborted(_)));
            assert!(!aborted, "rank on conn {conn} parked in aborted {jobid}");
        }
    }
}

impl PmiEffects for PmiWire {
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "only these replies open, release or abort a rank"
    )]
    fn send(&mut self, to: &[ConnId], msg: &Message) {
        match msg {
            Message::InitAck => _ = self.open.insert(to[0], self.ranks[&to[0]]),
            Message::FenceAck { .. } => {
                let ranks: BTreeSet<u32> = to.iter().map(|c| self.open[c].1).collect();
                let all = ranks.len() as u32 == self.open[&to[0]].2;
                let parked = to.iter().all(|c| self.parked.remove(c));
                assert!(
                    all && parked,
                    "a fence released with ranks {ranks:?} of {to:?}"
                );
            }
            Message::Abort { .. } => to.iter().for_each(|c| _ = self.parked.remove(c)),
            _ => {}
        }
        self.out.extend(to.iter().map(|&c| (c, Some(msg.clone()))));
    }

    fn close(&mut self, conn: ConnId) {
        let parked = self.parked.contains(&conn);
        assert!(!parked, "rank on conn {conn} closed in a fence, unanswered");
        self.open.remove(&conn);
        self.closed.insert(conn);
        self.out.push((conn, None));
    }
}
