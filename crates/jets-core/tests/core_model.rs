//! The dispatcher core under a virtual clock: a model check over seeded
//! fault schedules, and one zero-sleep test per time-driven decision.
//!
//! Nothing here owns a thread, a socket or a sleep. [`Fx`] is the fake
//! behind [`Effects`]: sends land in a list the virtual pilots read,
//! the PMI service is a map, and every [`Fact`] is checked against the
//! job's lifecycle the moment it is emitted (a job is finished once,
//! a gang is `nodes` tasks or none, a worker holds one task, an attempt
//! number never exceeds the retry budget) before it updates the job
//! table a client would see. Its write-ahead records come from
//! [`Fact::wal`] — the projection the shell appends to the journal file —
//! and are kept as the file's bytes, so a crash here is `journal::scan`
//! of those bytes, `journal::recover` and [`Core::restore`], the path a
//! restarted dispatcher takes.
//!
//! [`World`] adds the pilots: state machines that answer `Assign` with a
//! `Done` after a seeded duration, obey `Cancel`, keep running across a
//! dispatcher crash and claim or replay on the next registration, the way
//! `jets-worker`'s agent does. After *every* input [`World::audit`]
//! checks what only the whole system can show: no job lost, `ready ⊆
//! Idle`, no pilot still running a task the dispatcher has ended.
//!
//! A failure names seed and case (`stdx::check`); `SplitMix64::new(SEED +
//! case)` replays that one schedule bit for bit.

use jets_core::core::{Core, CoreConfig, Effects, Fact};
use jets_core::events::{Event, EventKind};
use jets_core::journal::{self, Record};
use jets_core::protocol::{
    TaskAssignment, EXIT_CANCELED, EXIT_DEADLINE, EXIT_UNDELIVERABLE, EXIT_WORKER_LOST,
};
use jets_core::registry::{QuarantinePolicy, WorkerState};
use jets_core::spec::{CommandSpec, JobId, JobSpec, TaskId, WorkerId};
use jets_core::stats::measured_utilization;
use jets_core::{GroupingPolicy, QueuePolicy};
use jets_ring::stdx::{check, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::{Duration, Instant};

const SEED: u64 = 0x5EED_C04E;
const HEARTBEAT_TIMEOUT_MS: u64 = 100;
const RECONCILE_WINDOW_MS: u64 = 80;

fn config() -> CoreConfig {
    CoreConfig {
        queue_policy: QueuePolicy::Fifo,
        grouping: GroupingPolicy::Fcfs,
        quarantine: Some(QuarantinePolicy {
            threshold: 2,
            penalty: Duration::from_millis(30),
            decay: Duration::from_millis(400),
            max_penalty: Duration::from_millis(120),
        }),
        heartbeat_timeout: Some(Duration::from_millis(HEARTBEAT_TIMEOUT_MS)),
        reconcile_window: Duration::from_millis(RECONCILE_WINDOW_MS),
        trace_seed: 7,
    }
}

// ---------------------------------------------------------------------------
// The fake behind `Effects`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sent {
    Assign {
        worker: WorkerId,
        task: TaskId,
        job: JobId,
    },
    Cancel {
        worker: WorkerId,
        task: TaskId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pending,
    Running,
    Succeeded,
    Failed,
}

/// Where a job stands in its lifecycle, as the facts so far allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Queued,
    /// An attempt is out: tasks started and ended so far. `restored`
    /// attempts began in an incarnation whose facts died with it.
    Running {
        started: u32,
        ended: u32,
        restored: bool,
    },
    /// Every member accounted for; requeue or finish comes next.
    AttemptOver,
    Finished,
}

/// One job: the record a client would see, and the lifecycle audit.
struct Job {
    spec: JobSpec,
    status: Status,
    attempts: u32,
    exit_codes: Vec<i32>,
    stage: Stage,
}

struct OpenTask {
    job: JobId,
    since_ms: u64,
    /// Started before the last crash: the successor may end it (a
    /// reconciled orphan's `Done`) or abandon it with a refunded requeue.
    orphan: bool,
}

struct Fx {
    t0: Instant,
    now_ms: u64,
    /// Frames for the pilots, in send order.
    sent: Vec<Sent>,
    /// Workers the core still believes in whose connection is gone.
    ghosts: BTreeSet<WorkerId>,
    pmi_fail: bool,
    /// Live PMI services and when each one's first fence releases.
    pmi: BTreeMap<JobId, u64>,
    /// The journal file's bytes: everything journaled so far, across
    /// incarnations.
    wal: Vec<u8>,
    /// Workers declared down since the world last looked.
    downs: Vec<WorkerId>,
    jobs: BTreeMap<JobId, Job>,
    unfinished: BTreeSet<JobId>,
    open: BTreeMap<TaskId, OpenTask>,
    holding: BTreeMap<WorkerId, TaskId>,
    spans: BTreeSet<(JobId, u8)>,
    /// Busy milliseconds, by this fake's own account of the facts.
    busy_ms: u64,
    /// `TaskStarted` / `TaskEnded` on the virtual clock, for Eq. (1).
    tasks: Vec<Event>,
    requeues: u64,
    /// A crash has happened: some jobs' spans began in a lost ring.
    restarted: bool,
    /// Every fact and effect, one line each, when `Some`.
    trace: Option<Vec<String>>,
}

impl Fx {
    fn new(t0: Instant) -> Fx {
        Fx {
            t0,
            now_ms: 0,
            sent: Vec::new(),
            ghosts: BTreeSet::new(),
            pmi_fail: false,
            pmi: BTreeMap::new(),
            wal: journal::MAGIC.to_vec(),
            downs: Vec::new(),
            jobs: BTreeMap::new(),
            unfinished: BTreeSet::new(),
            open: BTreeMap::new(),
            holding: BTreeMap::new(),
            spans: BTreeSet::new(),
            busy_ms: 0,
            tasks: Vec::new(),
            requeues: 0,
            restarted: false,
            trace: None,
        }
    }

    fn note(&mut self, line: impl FnOnce() -> String) {
        if let Some(trace) = &mut self.trace {
            trace.push(line());
        }
    }

    fn job(&mut self, id: JobId) -> &mut Job {
        self.jobs.get_mut(&id).expect("a fact about an unknown job")
    }

    /// Append records to the journal's bytes, framed as the shell's
    /// `Journal` writes them.
    fn journal(&mut self, recs: &[Record]) {
        journal::append_frames(&mut self.wal, recs).expect("records fit a frame");
    }

    /// Every record the journal's bytes hold, read back as a restart
    /// reads them: all of them, or the encoding lost one.
    fn records(&self) -> Vec<Record> {
        let scanned = journal::scan_bytes(&self.wal).expect("a journal");
        assert_eq!(scanned.dropped_bytes(), 0, "a record did not decode");
        scanned.records
    }

    /// The dispatcher process died: what lived in its memory is gone.
    fn crash(&mut self) {
        self.sent.clear();
        self.downs.clear();
        self.ghosts.clear();
        self.pmi.clear();
        self.holding.clear();
        self.spans.clear();
        (self.pmi_fail, self.restarted) = (false, true);
        for task in self.open.values_mut() {
            task.orphan = true;
        }
    }

    /// `job` left the running state by requeue or finish: none of its
    /// tasks may still be open, unless the crash orphaned them.
    fn settle_tasks(&mut self, job: JobId) {
        let leaked = |t: &OpenTask| t.job == job && !t.orphan;
        assert!(
            !self.open.values().any(leaked),
            "job {job} left a task open"
        );
        self.open.retain(|_, t| t.job != job);
    }

    fn event(&mut self, kind: &EventKind) {
        let t = Duration::from_millis(self.now_ms);
        match *kind {
            EventKind::SpanStart { kind, job, .. } => {
                assert!(
                    self.spans.insert((job, kind.code())),
                    "{kind:?} of job {job} opened twice"
                );
            }
            EventKind::SpanEnd { kind, job, .. } => {
                // A restored job's successor opens no span for the state
                // it was restored in.
                let restored = self.restarted;
                let was_open = self.spans.remove(&(job, kind.code()));
                assert!(
                    was_open || restored,
                    "{kind:?} of job {job} closed unopened"
                );
            }
            EventKind::TaskStarted {
                task, job, worker, ..
            } => {
                let held = self.holding.insert(worker, task);
                assert_eq!(held, None, "worker {worker} handed a second task");
                let since_ms = self.now_ms;
                let orphan = false;
                self.open.insert(
                    task,
                    OpenTask {
                        job,
                        since_ms,
                        orphan,
                    },
                );
                let Stage::Running { started, .. } = &mut self.job(job).stage else {
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
                self.busy_ms += self.now_ms - open.since_ms;
                if self.holding.get(&worker) == Some(&task) {
                    self.holding.remove(&worker);
                }
                let j = self.job(job);
                j.exit_codes.push(exit_code);
                let Stage::Running { ended, .. } = &mut j.stage else {
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
                let Stage::Running {
                    started,
                    ended,
                    restored,
                } = j.stage
                else {
                    panic!("an attempt of job {job} ended that never began");
                };
                assert_eq!(nodes, j.spec.nodes);
                assert!(
                    restored || (started == ended && (started == nodes || started == 0)),
                    "job {job}: {started} started, {ended} ended, {nodes} nodes"
                );
                j.stage = Stage::AttemptOver;
            }
            _ => {}
        }
    }
}

impl Effects for Fx {
    fn send_assign(&mut self, worker: WorkerId, a: TaskAssignment) -> bool {
        let delivered = !self.ghosts.contains(&worker);
        self.note(|| {
            format!(
                "assign w{worker} t{} j{} -> {delivered}",
                a.task_id, a.job_id
            )
        });
        if delivered {
            let (task, job) = (a.task_id, a.job_id);
            self.sent.push(Sent::Assign { worker, task, job });
        }
        delivered
    }

    fn send_cancel(&mut self, worker: WorkerId, task: TaskId) -> bool {
        let delivered = !self.ghosts.contains(&worker);
        self.note(|| format!("cancel w{worker} t{task} -> {delivered}"));
        if delivered {
            self.sent.push(Sent::Cancel { worker, task });
        }
        delivered
    }

    fn pmi_start(&mut self, job: JobId, jobid: &str, size: u32) -> io::Result<String> {
        assert_eq!(jobid, format!("jets-job-{job}"));
        assert_eq!(size, self.jobs[&job].spec.size());
        if std::mem::take(&mut self.pmi_fail) {
            return Err(io::Error::other("no port left"));
        }
        // The gang's first fence releases a millisecond after it ships.
        let clash = self.pmi.insert(job, self.now_ms + 1);
        assert_eq!(clash, None, "job {job} has two PMI services");
        Ok(format!("127.0.0.1:{}", 40_000 + job))
    }

    fn pmi_abort(&mut self, job: JobId, _reason: &str) {
        assert!(
            self.pmi.contains_key(&job),
            "abort of a PMI service job {job} does not have"
        );
    }

    fn pmi_stop(&mut self, job: JobId) -> Option<Instant> {
        let at = self
            .pmi
            .remove(&job)
            .expect("stop of a PMI service that never started");
        (at <= self.now_ms).then(|| self.t0 + Duration::from_millis(at))
    }

    fn fact(&mut self, fact: Fact<'_>) {
        let mut recs = Vec::new();
        fact.wal(&mut recs);
        self.journal(&recs);
        match &fact {
            Fact::Event(kind) => self.note(|| format!("{kind:?}")),
            Fact::Submitted { jobs } => self.note(|| format!("Submitted x{}", jobs.len())),
            Fact::Assigned {
                job,
                attempt,
                tasks,
            } => self.note(|| format!("Assigned j{job} #{attempt} x{}", tasks.len())),
            other => self.note(|| format!("{other:?}")),
        }
        match fact {
            Fact::Event(kind) => self.event(&kind),
            Fact::Submitted { jobs } => {
                for j in jobs {
                    let job = Job {
                        spec: j.spec.clone(),
                        status: Status::Pending,
                        attempts: 0,
                        exit_codes: Vec::new(),
                        stage: Stage::Queued,
                    };
                    assert!(
                        self.jobs.insert(j.id, job).is_none(),
                        "job id {} reused",
                        j.id
                    );
                    self.unfinished.insert(j.id);
                }
            }
            Fact::Restored {
                job,
                spec,
                attempts,
                running,
            } => {
                assert!(
                    self.unfinished.contains(&job),
                    "job {job} restored from nowhere"
                );
                let j = self.job(job);
                assert_eq!(&j.spec, spec);
                j.attempts = attempts;
                (j.status, j.stage) = match running {
                    true => (
                        Status::Running,
                        Stage::Running {
                            started: 0,
                            ended: 0,
                            restored: true,
                        },
                    ),
                    false => (Status::Pending, Stage::Queued),
                };
            }
            Fact::WorkerUp { .. } => {}
            Fact::WorkerDown { worker, .. } => {
                self.holding.remove(&worker);
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
                assert!(
                    attempt <= j.spec.max_retries + 1,
                    "job {job}: attempt {attempt} is over budget"
                );
                assert_eq!(nodes, j.spec.nodes);
                j.stage = Stage::Running {
                    started: 0,
                    ended: 0,
                    restored: false,
                };
                (j.status, j.attempts) = (Status::Running, attempt);
                j.exit_codes.clear();
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
                let refund = matches!(j.stage, Stage::Running { restored: true, .. });
                assert!(
                    refund || j.stage == Stage::AttemptOver,
                    "job {job} requeued mid-attempt"
                );
                assert!(
                    attempts <= j.spec.max_retries,
                    "job {job} requeued with no budget left"
                );
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
                let all_reported =
                    matches!(j.stage, Stage::Running { restored: true, .. }) && success;
                assert!(
                    all_reported || j.stage == Stage::AttemptOver,
                    "job {job} finished twice or mid-attempt"
                );
                j.stage = Stage::Finished;
                j.status = if success {
                    Status::Succeeded
                } else {
                    Status::Failed
                };
                j.exit_codes = exit_codes;
                assert!(self.unfinished.remove(&job));
            }
            Fact::QuarantineReleased { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Scripted driving: the decisions, one at a time.

/// A core, its fake and a virtual clock.
struct Bench {
    core: Core,
    fx: Fx,
}

impl Bench {
    fn new() -> Bench {
        let t0 = Instant::now();
        Bench {
            core: Core::new(config(), t0),
            fx: Fx::new(t0),
        }
    }

    fn now(&self) -> Instant {
        self.fx.t0 + Duration::from_millis(self.fx.now_ms)
    }

    fn advance(&mut self, ms: u64) {
        self.fx.now_ms += ms;
    }

    /// Register a direct worker and park its first `Request`.
    fn worker(&mut self, name: &str) -> WorkerId {
        let now = self.now();
        let who = (name.to_string(), 1, "rack".to_string());
        let id = self.core.register(now, who, None, &mut self.fx);
        self.request(id);
        id
    }

    fn request(&mut self, worker: WorkerId) {
        self.core.request(self.now(), worker, &mut self.fx);
    }

    /// A heartbeat from each of `workers`, as one input (a relay's batch).
    fn heard(&mut self, workers: &[WorkerId]) {
        self.core.heard(self.now(), workers);
    }

    fn submit(&mut self, spec: JobSpec) -> JobId {
        self.core.submit(self.now(), vec![spec], &mut self.fx)[0]
    }

    fn done(&mut self, worker: WorkerId, task: TaskId, exit_code: i32) {
        self.core
            .done(self.now(), worker, task, exit_code, None, &mut self.fx);
    }

    fn tick(&mut self) {
        self.core.tick(self.now(), &mut self.fx);
    }

    /// Kill the dispatcher and start its successor from the journal.
    fn crash(&mut self) {
        self.fx.crash();
        let recovered = journal::recover(&self.fx.records());
        self.fx.journal(&[Record::Restarted]);
        self.core = Core::new(config(), self.fx.t0);
        self.core.restore(self.now(), recovered, &mut self.fx);
    }

    /// The frames sent since the last call.
    fn sent(&mut self) -> Vec<Sent> {
        std::mem::take(&mut self.fx.sent)
    }

    /// The one assignment among the frames sent since the last call.
    fn assigned(&mut self) -> (WorkerId, TaskId) {
        match self.sent()[..] {
            [Sent::Assign { worker, task, .. }] => (worker, task),
            ref other => panic!("expected one assignment, got {other:?}"),
        }
    }

    fn job(&self, id: JobId) -> (Status, u32, &[i32]) {
        let j = &self.fx.jobs[&id];
        (j.status, j.attempts, &j.exit_codes)
    }

    fn state(&self, worker: WorkerId) -> WorkerState {
        self.core.registry().get(worker).unwrap().state
    }
}

fn seq() -> JobSpec {
    JobSpec::sequential(CommandSpec::builtin("ok", vec![]))
}

fn gang(nodes: u32) -> JobSpec {
    JobSpec::mpi(nodes, CommandSpec::builtin("mpi", vec![]))
}

#[test]
fn a_nonzero_exit_without_retry_budget_fails_the_job() {
    let mut b = Bench::new();
    let w = b.worker("a");
    let id = b.submit(seq());
    let (_, task) = b.assigned();
    b.done(w, task, 1);
    assert_eq!(b.job(id), (Status::Failed, 1, &[1][..]));
    assert_eq!(b.state(w), WorkerState::Idle);
    assert_eq!(b.fx.requeues, 0);
}

#[test]
fn a_job_larger_than_the_pool_waits_until_workers_arrive() {
    let mut b = Bench::new();
    let id = b.submit(gang(2));
    b.worker("a");
    assert_eq!(b.job(id).0, Status::Pending);
    assert!(b.sent().is_empty(), "nothing can run yet");
    b.worker("b");
    assert_eq!(b.job(id).0, Status::Running);
    assert_eq!(b.sent().len(), 2, "the whole gang ships at once");
}

#[test]
fn a_failed_attempt_requeues_with_budget_and_steers_away_from_the_blamed_worker() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let id = b.submit(gang(2).with_retries(1));
    let c = b.worker("c");
    let shipped = b.sent();
    let d = b.worker("d");
    // `a` reports a failure, its peer `c` a success: the attempt fails
    // when the last member is in, and only `a` is blamed.
    let [Sent::Assign { task, .. }, Sent::Assign { task: peer, .. }] = shipped[..] else {
        panic!("{shipped:?}");
    };
    b.done(a, task, 9);
    assert_eq!(
        b.job(id).0,
        Status::Running,
        "a gang waits for every member"
    );
    // The blamed `a` asks again at once and `e` registers after it, so
    // when the attempt fails the ready list is [d, a, e]: oldest-first
    // would hand the retry to `a`.
    b.request(a);
    let e = b.worker("e");
    b.done(c, peer, 0);
    assert_eq!(b.fx.requeues, 1);
    let workers = |sent: Vec<Sent>| -> Vec<WorkerId> {
        let worker = |s: &Sent| match *s {
            Sent::Assign { worker, .. } => worker,
            other => panic!("{other:?}"),
        };
        sent.iter().map(worker).collect()
    };
    assert_eq!(workers(b.sent()), [d, e], "excluded hint honoured");
    assert_eq!(b.job(id).1, 2);
    assert!(b.core.ready().contains(a), "the blamed worker stays parked");
    // The hint is best effort: with only the blamed worker left, it runs.
    let lone = b.submit(seq().with_retries(1));
    let (w, task) = b.assigned();
    assert_eq!(w, a);
    b.done(a, task, 3);
    b.request(a);
    assert_eq!(
        b.assigned().0,
        a,
        "hint waived rather than starving the job"
    );
    assert_eq!(b.job(lone).1, 2);
}

#[test]
fn worker_death_fails_the_job_without_budget_and_requeues_it_with() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let doomed = b.submit(seq());
    b.core.worker_down(b.now(), a, &mut b.fx);
    assert_eq!(b.job(doomed), (Status::Failed, 1, &[EXIT_WORKER_LOST][..]));
    assert_eq!(b.state(a), WorkerState::Dead);
    // Idempotent: the hang detector may report the same death again.
    b.core.worker_down(b.now(), a, &mut b.fx);
    let c = b.worker("c");
    let lucky = b.submit(seq().with_retries(2));
    b.sent();
    b.core.worker_down(b.now(), c, &mut b.fx);
    assert_eq!(b.job(lucky), (Status::Pending, 1, &[EXIT_WORKER_LOST][..]));
    let e = b.worker("e");
    let (w, task) = b.assigned();
    assert_eq!(w, e);
    b.done(e, task, 0);
    assert_eq!(b.job(lucky), (Status::Succeeded, 2, &[0][..]));
}

#[test]
fn an_undeliverable_assignment_tears_the_gang_down_and_requeues() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let c = b.worker("c");
    b.fx.ghosts.insert(c);
    let id = b.submit(gang(2).with_retries(1));
    let sent = b.sent();
    let [Sent::Assign { worker, task, .. }, Sent::Cancel {
        worker: w2,
        task: t2,
    }] = sent[..]
    else {
        panic!("{sent:?}");
    };
    assert_eq!((worker, w2, task), (a, a, t2));
    assert_eq!(
        b.job(id),
        (Status::Pending, 1, &[EXIT_UNDELIVERABLE, EXIT_CANCELED][..])
    );
    assert!(b.fx.pmi.is_empty(), "the gang's PMI service went with it");
}

#[test]
fn a_pmi_service_that_cannot_start_fails_the_job_and_frees_the_workers() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let c = b.worker("c");
    b.fx.pmi_fail = true;
    let id = b.submit(gang(2).with_retries(3));
    assert_eq!(b.job(id), (Status::Failed, 1, &[][..]));
    assert!(b.sent().is_empty());
    assert!(b.core.ready().contains(a) && b.core.ready().contains(c));
}

#[test]
fn relay_death_downs_every_member_and_only_its_members() {
    let mut b = Bench::new();
    let relay = b.core.relay_up(&mut b.fx);
    let mut members = Vec::new();
    for name in ["m0", "m1", "m2"] {
        let who = (name.to_string(), 1, "rack".to_string());
        members.push(b.core.register(b.now(), who, Some(relay), &mut b.fx));
    }
    let direct = b.worker("direct");
    b.sent();
    b.request(members[0]);
    let id = b.submit(seq());
    b.submit(seq());
    b.sent();
    b.core.relay_down(b.now(), relay, &mut b.fx);
    assert_eq!(std::mem::take(&mut b.fx.downs), members);
    assert!(members.iter().all(|&m| b.state(m) == WorkerState::Dead));
    assert_ne!(b.state(direct), WorkerState::Dead);
    // The job that was on a member is lost with it; the one on the
    // direct worker is untouched.
    let lost =
        b.fx.jobs
            .values()
            .filter(|j| j.status == Status::Failed)
            .count();
    assert_eq!(lost, 1);
    assert!(b.job(id).2.contains(&EXIT_WORKER_LOST) || b.job(id).0 == Status::Running);
}

#[test]
fn a_deadline_ends_the_attempt_with_exit_deadline_and_charges_one_retry() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let id = b.submit(
        seq()
            .with_deadline(Duration::from_millis(50))
            .with_retries(1),
    );
    let (_, task) = b.assigned();
    b.advance(49);
    b.tick();
    assert_eq!(b.job(id).0, Status::Running, "one millisecond early");
    b.advance(1);
    b.tick();
    assert_eq!(b.sent(), [Sent::Cancel { worker: a, task }]);
    assert_eq!(b.job(id), (Status::Pending, 1, &[EXIT_DEADLINE][..]));
    assert!(b
        .fx
        .records()
        .contains(&Record::DeadlineExceeded { job: id }));
    // The cancelled worker's late report is stale: it frees the worker
    // and changes nothing else. A deadline blames nobody, so the retry
    // may land on the same worker — and the second expiry is final.
    b.done(a, task, EXIT_CANCELED);
    b.request(a);
    let (w, retry) = b.assigned();
    assert_eq!((w, b.job(id).1), (a, 2));
    b.advance(50);
    b.tick();
    assert_eq!(b.job(id), (Status::Failed, 2, &[EXIT_DEADLINE][..]));
    assert_eq!(
        b.sent(),
        [Sent::Cancel {
            worker: a,
            task: retry
        }]
    );
}

#[test]
fn quarantine_holds_a_request_and_replays_it_when_the_bench_expires() {
    let mut b = Bench::new();
    // Two deaths mid-task earn the name two strikes.
    for _ in 0..2 {
        let w = b.worker("flaky");
        b.submit(seq());
        b.core.worker_down(b.now(), w, &mut b.fx);
    }
    let strikes =
        b.fx.records()
            .iter()
            .filter(|r| matches!(r, Record::QuarantineStrike { .. }))
            .count();
    assert_eq!(strikes, 2);
    // The third registration is benched for penalty × strikes = 60 ms:
    // its Request is held, and a queued job waits.
    b.sent();
    let w = b.worker("flaky");
    assert_eq!(b.state(w), WorkerState::Quarantined { until_ms: 60 });
    let id = b.submit(seq());
    b.advance(59);
    b.tick();
    assert_eq!(b.job(id).0, Status::Pending);
    assert!(b.sent().is_empty());
    // At expiry the held request is replayed: no second Request needed.
    b.advance(1);
    b.tick();
    assert_eq!(b.assigned().0, w);
    assert!(b.fx.records().contains(&Record::QuarantineRelease {
        name: "flaky".into()
    }));
}

#[test]
fn heartbeat_silence_downs_the_worker_and_cancels_its_gang() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let c = b.worker("c");
    let id = b.submit(gang(2).with_retries(1));
    let sent = b.sent();
    let Sent::Assign { task: task_a, .. } = sent[0] else {
        panic!()
    };
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&[a]);
    b.tick();
    assert_eq!(
        b.state(c),
        WorkerState::Busy(id),
        "silent for exactly the timeout: not yet"
    );
    b.advance(1);
    b.heard(&[a]);
    b.tick();
    assert_eq!(b.state(c), WorkerState::Dead);
    assert_eq!(
        b.sent(),
        [Sent::Cancel {
            worker: a,
            task: task_a
        }]
    );
    assert_eq!(
        b.job(id),
        (Status::Pending, 1, &[EXIT_WORKER_LOST, EXIT_CANCELED][..])
    );
    // A report from the dead does not resurrect it.
    let Sent::Assign { task: task_c, .. } = sent[1] else {
        panic!()
    };
    b.done(c, task_c, 0);
    assert_eq!(b.state(c), WorkerState::Dead);
}

/// Liveness is an input like any other: a worker that does nothing but
/// beat outlives the timeout many times over, busy or idle.
#[test]
fn a_worker_heard_only_through_heartbeats_stays_alive_past_the_timeout() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let idle = b.worker("idle");
    let id = b.submit(seq());
    assert_eq!(b.assigned().0, a);
    for _ in 0..10 {
        b.advance(HEARTBEAT_TIMEOUT_MS / 2);
        b.heard(&[a]);
        b.heard(&[idle]);
        b.tick();
    }
    assert_eq!(b.fx.now_ms, 5 * HEARTBEAT_TIMEOUT_MS);
    assert!(b.fx.downs.is_empty(), "downed {:?}", b.fx.downs);
    assert_eq!(b.state(a), WorkerState::Busy(id));
    assert_eq!(b.state(idle), WorkerState::Idle);
    assert!(b.core.ready().contains(idle));
}

/// A silent worker is downed on the first tick past the timeout — not
/// one millisecond earlier — and only once, however many ticks follow.
#[test]
fn a_silent_worker_is_downed_exactly_once_on_the_first_tick_past_the_timeout() {
    let mut b = Bench::new();
    let loud = b.worker("loud");
    b.advance(10);
    let silent = b.worker("silent");
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&[loud]);
    b.tick();
    assert!(b.fx.downs.is_empty(), "silent for exactly the timeout");
    b.advance(1);
    b.tick();
    assert_eq!(std::mem::take(&mut b.fx.downs), [silent]);
    assert_eq!(b.state(silent), WorkerState::Dead);
    assert!(!b.core.ready().contains(silent));
    for _ in 0..5 {
        b.advance(HEARTBEAT_TIMEOUT_MS);
        b.heard(&[loud]);
        b.tick();
    }
    assert!(b.fx.downs.is_empty(), "downed again: {:?}", b.fx.downs);
    // A heartbeat from the dead does not resurrect it.
    b.heard(&[silent]);
    b.tick();
    assert_eq!(b.state(silent), WorkerState::Dead);
    assert_eq!(b.state(loud), WorkerState::Idle);
}

/// A relay's members are heard through its batches alone, under the
/// same rules: one batch keeps every member it names alive, and a member
/// the batches stop naming is downed once, on the first tick past the
/// timeout, its gang with it.
#[test]
fn a_relayed_member_kept_alive_only_by_batched_heartbeats_follows_the_same_rules() {
    let mut b = Bench::new();
    let relay = b.core.relay_up(&mut b.fx);
    let members: Vec<WorkerId> = ["m0", "m1", "m2"]
        .iter()
        .map(|name| {
            let who = (name.to_string(), 1, "rack".to_string());
            let id = b.core.register(b.now(), who, Some(relay), &mut b.fx);
            b.request(id);
            id
        })
        .collect();
    let id = b.submit(gang(2).with_retries(1));
    assert_eq!(b.sent().len(), 2, "m0 and m1 run the gang");
    for _ in 0..4 {
        b.advance(HEARTBEAT_TIMEOUT_MS / 2);
        b.heard(&members);
        b.tick();
    }
    assert!(b.fx.downs.is_empty(), "downed {:?}", b.fx.downs);
    // The relay stops vouching for m1.
    let batch = [members[0], members[2]];
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&batch);
    b.tick();
    assert!(b.fx.downs.is_empty(), "silent for exactly the timeout");
    b.advance(1);
    b.heard(&batch);
    b.tick();
    assert_eq!(std::mem::take(&mut b.fx.downs), [members[1]]);
    assert_eq!(b.job(id).0, Status::Pending, "the gang went down with it");
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&batch);
    b.tick();
    assert!(b.fx.downs.is_empty(), "downed again: {:?}", b.fx.downs);
    assert_ne!(b.state(members[0]), WorkerState::Dead);
    assert_ne!(b.state(members[2]), WorkerState::Dead);
}

/// Five jobs on two workers, crashed with two in flight.
fn crashed_mid_run() -> (Bench, Vec<JobId>) {
    let mut b = Bench::new();
    b.worker("a");
    b.worker("c");
    let specs = (0..5).map(|_| seq().with_retries(0)).collect();
    let ids = b.core.submit(b.now(), specs, &mut b.fx);
    b.advance(10);
    b.crash();
    (b, ids)
}

#[test]
fn queued_jobs_replay_and_a_clean_finish_leaves_nothing_to_replay() {
    let (mut b, ids) = crashed_mid_run();
    assert!(b.core.recovering(), "two orphans to reconcile");
    let queued: Vec<JobId> = b.core.queue().iter().map(|j| j.id).collect();
    assert_eq!(queued, ids[2..], "the queue comes back in submission order");
    assert_eq!(b.job(ids[0]).0, Status::Running);
    assert_eq!(b.job(ids[4]), (Status::Pending, 0, &[][..]));
    // New ids start past everything journaled.
    b.advance(RECONCILE_WINDOW_MS);
    b.tick();
    assert_eq!(
        b.sent().len(),
        2,
        "a Cancel per unclaimed orphan, to ids nobody holds"
    );
    let w = b.worker("n");
    let fresh = b.submit(seq());
    assert!(fresh > ids[4]);
    // Drain everything; the journal then proves every job terminal.
    let mut ran = 0;
    while let [Sent::Assign { worker, task, .. }] = b.sent()[..] {
        assert_eq!(worker, w);
        b.done(w, task, 0);
        b.request(w);
        ran += 1;
    }
    assert_eq!(ran, 6);
    assert!(b.fx.unfinished.is_empty());
    let rec = journal::recover(&b.fx.records());
    assert!(rec.jobs.is_empty());
    assert_eq!(rec.finished, 6);
}

#[test]
fn the_reconcile_window_expires_into_a_requeue_with_the_attempt_refunded() {
    let (mut b, ids) = crashed_mid_run();
    // No retry budget, and the crashed attempt was attempt 1: only a
    // refund lets these two run again.
    b.advance(RECONCILE_WINDOW_MS - 1);
    b.tick();
    assert!(b.core.recovering());
    let w = b.worker("late");
    assert!(b.sent().is_empty(), "no launches while the window is open");
    b.advance(1);
    b.tick();
    assert!(!b.core.recovering());
    assert_eq!(b.fx.requeues, 2);
    // The orphans go to the queue front, attempts back at zero — so the
    // parked worker gets one of them at once, as attempt 1 again.
    assert_eq!(b.job(ids[0]), (Status::Pending, 0, &[][..]));
    assert_eq!(b.job(ids[1]), (Status::Running, 1, &[][..]));
    let sent = b.sent();
    let Some(&Sent::Assign { task, .. }) = sent.last() else {
        panic!("{sent:?}");
    };
    b.done(w, task, 0);
    assert_eq!(b.job(ids[1]), (Status::Succeeded, 1, &[0][..]));
}

#[test]
fn the_window_closes_early_once_every_orphan_is_claimed_or_reported() {
    let (mut b, ids) = crashed_mid_run();
    let orphans: Vec<(JobId, TaskId)> = b.core.active().map(|(j, _, p)| (j, p[0].1)).collect();
    assert_eq!(orphans.len(), 2);
    // One survivor re-registers and claims its task; a wrong claim is
    // refused (the caller answers with a Cancel).
    let who = ("a".to_string(), 1, "rack".to_string());
    let a = b.core.register(b.now(), who, None, &mut b.fx);
    let (job, task) = orphans[0];
    assert!(!b.core.claim(b.now(), a, (task, job + 100), &mut b.fx));
    assert!(b.core.claim(b.now(), a, (task, job), &mut b.fx));
    assert_eq!(b.state(a), WorkerState::Busy(job));
    assert!(b.core.recovering(), "one orphan still out");
    // The other finished during the outage and replays its result.
    let who = ("c".to_string(), 1, "rack".to_string());
    let c = b.core.register(b.now(), who, None, &mut b.fx);
    let (job2, task2) = orphans[1];
    b.done(c, task2, 0);
    assert_eq!(b.job(job2), (Status::Succeeded, 1, &[0][..]));
    b.tick();
    assert!(!b.core.recovering(), "closed well before the deadline");
    assert_eq!(b.fx.requeues, 0);
    // Re-adopted, not relaunched: the claimed task's report finishes it.
    b.done(a, task, 0);
    assert_eq!(b.job(job), (Status::Succeeded, 1, &[0][..]));
    assert!(ids.contains(&job) && !b.core.claim(b.now(), a, (task, job), &mut b.fx));
}

#[test]
fn the_facts_tell_the_story_in_order() {
    let mut b = Bench::new();
    b.fx.trace = Some(Vec::new());
    let w = b.worker("a");
    b.submit(seq());
    let (_, task) = b.assigned();
    b.done(w, task, 0);
    let trace = b.fx.trace.take().unwrap();
    let story: Vec<&str> = trace
        .iter()
        .map(|l| l.split([' ', '(']).next().unwrap())
        .collect();
    #[rustfmt::skip]
    assert_eq!(story, [
        "WorkerUp", "JobSubmitted", "SpanStart", "Submitted", "SpanEnd", "SpanStart",
        "JobStarted", "SpanEnd", "SpanStart", "Assigned", "SpanEnd", "SpanStart",
        "TaskStarted", "assign", "SpanEnd", "SpanStart",
        "TaskEnded", "SpanEnd", "JobCompleted", "SpanStart", "JobPhases", "JobFinished", "SpanEnd",
    ]);
    // 18 ring records per sequential job, 7 spans, all closed.
    let ring = story
        .iter()
        .filter(|s| {
            ![
                "WorkerUp",
                "Submitted",
                "JobStarted",
                "Assigned",
                "assign",
                "JobFinished",
            ]
            .contains(s)
        })
        .count();
    assert_eq!(ring + 1, 18, "JobStarted is the eighteenth");
    assert!(b.fx.spans.is_empty());
    assert_eq!(
        b.fx.records().len(),
        5,
        "Submitted, Enqueued, Assigned, TaskEnded, Finished"
    );
}

// ---------------------------------------------------------------------------
// The model: virtual pilots, a seeded fault schedule, every invariant
// after every input.

struct Run {
    task: TaskId,
    job: JobId,
    since_ms: u64,
    ends_ms: u64,
    exit_code: i32,
}

struct Pilot {
    name: String,
    /// The relay it sits behind, if any.
    relay: Option<usize>,
    /// This session's id; `None` while disconnected.
    link: Option<WorkerId>,
    running: Option<Run>,
    /// Results that found no wire to go out on: replayed after the next
    /// registration, like the agent's stash.
    stashed: Vec<(TaskId, i32)>,
    alive: bool,
    /// Stopped beating and reporting (its task never ends).
    hung: bool,
}

struct World {
    b: Bench,
    rng: SplitMix64,
    pilots: Vec<Pilot>,
    /// Each relay's id while it is connected.
    relays: [Option<WorkerId>; 2],
    inputs: u64,
    crashes: u64,
}

const PILOTS: usize = 7;

impl World {
    fn new(seed_rng: &mut SplitMix64) -> World {
        let rng = SplitMix64::new(seed_rng.next_u64());
        let pilot = |i: usize| Pilot {
            name: format!("p{i}"),
            relay: (i >= 4).then_some(i % 2),
            link: None,
            running: None,
            stashed: Vec::new(),
            alive: true,
            hung: false,
        };
        let pilots = (0..PILOTS).map(pilot).collect();
        World {
            b: Bench::new(),
            rng,
            pilots,
            relays: [None; 2],
            inputs: 0,
            crashes: 0,
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n as u64) as usize
    }

    fn pilot_of(&self, worker: WorkerId) -> Option<usize> {
        self.pilots.iter().position(|p| p.link == Some(worker))
    }

    /// One input went into the core: let the pilots react to what it
    /// sent (which feeds further inputs), then check every invariant.
    fn settle(&mut self) {
        self.inputs += 1;
        loop {
            for worker in std::mem::take(&mut self.b.fx.downs) {
                // The dispatcher gave up on this session; the process
                // lives on and will be back.
                self.b.fx.ghosts.remove(&worker);
                if let Some(p) = self.pilot_of(worker) {
                    self.pilots[p].link = None;
                }
            }
            // Every frame of the batch arrives before anyone answers.
            let cancelled: Vec<_> = self
                .b
                .sent()
                .into_iter()
                .filter_map(|f| self.deliver(f))
                .collect();
            for &(worker, task) in &cancelled {
                self.b.done(worker, task, EXIT_CANCELED);
                self.b.request(worker);
                self.inputs += 2;
            }
            if cancelled.is_empty() && self.b.fx.sent.is_empty() && self.b.fx.downs.is_empty() {
                break;
            }
        }
        self.audit();
    }

    /// Hand one frame to its pilot. A `Cancel` that hits the running
    /// task kills it: returned, so the pilot reports it (and asks again).
    fn deliver(&mut self, frame: Sent) -> Option<(WorkerId, TaskId)> {
        let now_ms = self.b.fx.now_ms;
        match frame {
            Sent::Assign { worker, task, job } => {
                let p = self.pilot_of(worker).expect("an assignment for nobody");
                let pilot = &mut self.pilots[p];
                assert!(pilot.running.is_none(), "{} double-assigned", pilot.name);
                let ends_ms = now_ms + self.rng.gen_range(1..60);
                let exit_code = (self.rng.gen_range(0..10) == 0) as i32;
                let since_ms = now_ms;
                pilot.running = Some(Run {
                    task,
                    job,
                    since_ms,
                    ends_ms,
                    exit_code,
                });
                None
            }
            // A Cancel for anything but the running task is stale.
            Sent::Cancel { worker, task } => {
                let p = self.pilot_of(worker)?;
                let pilot = &mut self.pilots[p];
                pilot
                    .running
                    .take_if(|r| r.task == task)
                    .map(|_| (worker, task))
            }
        }
    }

    /// `Done`, then `Request` — or the stash, with no wire to send on.
    fn report(&mut self, p: usize, task: TaskId, exit_code: i32) {
        let Some(worker) = self.pilots[p].link else {
            return self.pilots[p].stashed.push((task, exit_code));
        };
        self.b.done(worker, task, exit_code);
        self.settle();
        self.b.request(worker);
        self.settle();
    }

    /// Every pilot whose task's time is up reports it. What a pilot says
    /// it spent is what the dispatcher's facts say it spent.
    fn completions(&mut self) {
        let now_ms = self.b.fx.now_ms;
        for p in 0..self.pilots.len() {
            let pilot = &mut self.pilots[p];
            let due = |r: &Run| r.ends_ms <= now_ms;
            if !pilot.alive || pilot.hung || !pilot.running.as_ref().is_some_and(due) {
                continue;
            }
            let run = pilot.running.take().unwrap();
            if let (Some(_), Some(open)) = (&pilot.link, self.b.fx.open.get(&run.task)) {
                assert_eq!((open.job, open.since_ms), (run.job, run.since_ms));
            }
            self.report(p, run.task, run.exit_code);
        }
    }

    /// (Re-)register pilot `p`: claim the task carried over, replay the
    /// stash, ask for work — the agent's `open_session`.
    fn connect(&mut self, p: usize) {
        let pilot = &self.pilots[p];
        if !pilot.alive || pilot.hung || pilot.link.is_some() {
            return;
        }
        let relay = match pilot.relay {
            None => None,
            Some(r) if self.relays[r].is_some() => self.relays[r],
            Some(r) => {
                self.relays[r] = Some(self.b.core.relay_up(&mut self.b.fx));
                self.relays[r]
            }
        };
        let who = (pilot.name.clone(), 1, format!("rack{}", p % 2));
        let now = self.b.now();
        let worker = self.b.core.register(now, who, relay, &mut self.b.fx);
        self.pilots[p].link = Some(worker);
        // The claim rides in the same write as the registration. Refused,
        // the dispatcher answers `Cancel`: the pilot kills the zombie and
        // says so.
        let carried = self.pilots[p].running.as_ref().map(|r| (r.task, r.job));
        let refused = carried.filter(|&c| !self.b.core.claim(now, worker, c, &mut self.b.fx));
        if refused.is_some() {
            self.pilots[p].running = None;
        }
        self.settle();
        if let Some((task, _)) = refused {
            self.b.done(worker, task, EXIT_CANCELED);
            self.settle();
        }
        for (task, exit_code) in std::mem::take(&mut self.pilots[p].stashed) {
            self.b.done(worker, task, exit_code);
            self.settle();
        }
        if self.pilots[p].running.is_none() {
            self.b.request(worker);
            self.settle();
        }
    }

    /// The session's connection is gone and the dispatcher has noticed.
    fn disconnect(&mut self, p: usize) {
        if let Some(worker) = self.pilots[p].link.take() {
            self.b
                .core
                .worker_down(self.b.now(), worker, &mut self.b.fx);
            self.settle();
        }
    }

    fn tick(&mut self) {
        let now_ms = self.b.fx.now_ms;
        let released: Vec<(JobId, u64)> = self
            .b
            .fx
            .pmi
            .iter()
            .filter(|(_, &at)| at <= now_ms)
            .map(|(&j, &at)| (j, at))
            .collect();
        for (job, at) in released {
            let at = self.b.fx.t0 + Duration::from_millis(at);
            self.b.core.fence_released(job, at, &mut self.b.fx);
        }
        self.b.tick();
        self.settle();
    }

    fn submit(&mut self) {
        let n = 1 + self.pick(3);
        let specs = (0..n).map(|_| {
            let spec = match self.pick(4) {
                0 => gang(2 + self.pick(2) as u32),
                _ => seq(),
            };
            let spec = spec.with_retries(self.pick(3) as u32);
            match self.pick(6) {
                0 => spec.with_deadline(Duration::from_millis(20 + self.pick(40) as u64)),
                _ => spec,
            }
        });
        let specs = specs.collect();
        self.b.core.submit(self.b.now(), specs, &mut self.b.fx);
        self.settle();
    }

    fn crash(&mut self) {
        self.crashes += 1;
        for pilot in &mut self.pilots {
            pilot.link = None;
        }
        self.relays = [None; 2];
        self.b.crash();
        self.settle();
    }

    /// Time passes: healthy pilots beat (one heartbeat input for them
    /// all), dead connections are noticed, due tasks report.
    fn pass_time(&mut self) {
        self.b.advance(self.rng.gen_range(0..12));
        let now = self.b.now();
        let healthy = self.pilots.iter().filter(|p| p.alive && !p.hung);
        let beating: Vec<WorkerId> = healthy.filter_map(|p| p.link).collect();
        self.b.heard(&beating);
        // A connection that died last step is noticed now.
        for worker in std::mem::take(&mut self.b.fx.ghosts) {
            self.b.core.worker_down(now, worker, &mut self.b.fx);
            self.settle();
        }
        self.completions();
    }

    /// One step of the schedule: time passes and one thing happens —
    /// mostly work, sometimes a fault.
    fn step(&mut self) {
        self.pass_time();
        let now = self.b.now();
        let p = self.pick(self.pilots.len());
        match self.pick(100) {
            0..=9 => self.submit(),
            10..=29 => self.tick(),
            30..=59 => self.connect(p),
            // The pilot's process dies; it is respawned by a later draw.
            60..=66 if self.pilots[p].alive => {
                let pilot = &mut self.pilots[p];
                (pilot.alive, pilot.hung, pilot.running) = (false, false, None);
                pilot.stashed.clear();
                self.disconnect(p);
            }
            60..=70 => self.pilots[p].alive = true,
            71..=74 => self.pilots[p].hung = true,
            // The connection dies silently: sends to it fail until the
            // dispatcher notices, next step.
            75..=79 => {
                if let Some(worker) = self.pilots[p].link.take() {
                    self.b.fx.ghosts.insert(worker);
                }
            }
            80..=84 => {
                let r = p % 2;
                if let Some(relay) = self.relays[r].take() {
                    for pilot in self.pilots.iter_mut().filter(|p| p.relay == Some(r)) {
                        pilot.link = None;
                    }
                    self.b.core.relay_down(now, relay, &mut self.b.fx);
                    self.settle();
                }
            }
            85..=89 => self.b.fx.pmi_fail = true,
            90..=91 => self.crash(),
            _ => self.pilots[p].hung = false,
        }
    }

    fn audit(&self) {
        let (core, fx) = (&self.b.core, &self.b.fx);
        for worker in core.ready().iter() {
            let state = core.registry().get(worker).map(|w| w.state);
            assert_eq!(
                state,
                Some(WorkerState::Idle),
                "worker {worker} is parked but not idle"
            );
        }
        // No job lost, none held twice: queued ∪ running = unfinished.
        let mut held = BTreeSet::new();
        let mut members = BTreeSet::new();
        for id in core.queue().iter().map(|j| j.id) {
            assert!(held.insert(id), "job {id} queued twice");
        }
        for (id, attempts, pending) in core.active() {
            assert!(held.insert(id), "job {id} is both queued and running");
            assert!(attempts <= fx.jobs[&id].spec.max_retries + 1);
            for &(worker, task) in pending {
                // Orphans are listed under a dead incarnation's ids.
                if fx.open.get(&task).is_some_and(|t| !t.orphan) {
                    assert!(members.insert(worker), "worker {worker} is in two gangs");
                }
            }
        }
        assert_eq!(held, fx.unfinished, "jobs lost or resurrected");
        // No zombie: a connected pilot runs only what the dispatcher
        // still counts as running.
        for pilot in self.pilots.iter().filter(|p| p.link.is_some()) {
            if let Some(run) = &pilot.running {
                assert!(
                    fx.open.contains_key(&run.task),
                    "{} still runs ended task {}",
                    pilot.name,
                    run.task
                );
            }
        }
    }

    /// Faults stop, everything heals, and the work drains: every job
    /// submitted must reach a terminal state, exactly once.
    fn drain(&mut self) {
        for _ in 0..4_000 {
            if self.b.fx.unfinished.is_empty() {
                break;
            }
            for p in 0..self.pilots.len() {
                (self.pilots[p].alive, self.pilots[p].hung) = (true, false);
                self.connect(p);
            }
            self.pass_time();
            self.tick();
        }
        let fx = &self.b.fx;
        assert!(fx.unfinished.is_empty(), "stuck: {:?}", fx.unfinished);
        assert!(fx.jobs.values().all(|j| j.stage == Stage::Finished));
        assert!(fx.pmi.is_empty() && self.b.core.running() == 0 && self.b.core.queue().is_empty());
        let abandoned = fx.open.values().filter(|t| !t.orphan).count();
        assert_eq!(abandoned, 0, "tasks left open after the last job finished");
        // Eq. (1) is conserved: the estimator over the emitted events
        // agrees with the busy time the facts were charged as they came.
        let t = |e: &Event| e.t.as_millis() as u64;
        let ended = fx
            .tasks
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskEnded { .. }));
        if let (Some(first), Some(last)) = (fx.tasks.first().map(t), ended.map(t).max()) {
            let expected = fx.busy_ms as f64 / (PILOTS as f64 * (last - first).max(1) as f64);
            let measured = measured_utilization(&fx.tasks, PILOTS);
            assert!(
                (measured - expected).abs() < 1e-9 || last == first,
                "{measured} vs {expected}"
            );
        }
    }
}

/// One seeded schedule; returns (inputs, crashes).
fn schedule(rng: &mut SplitMix64) -> (u64, u64) {
    let mut w = World::new(rng);
    for p in 0..PILOTS {
        w.connect(p);
    }
    while w.inputs < 200 {
        w.step();
    }
    w.drain();
    (w.inputs, w.crashes)
}

#[test]
fn seeded_fault_schedules_keep_every_invariant() {
    const SCHEDULES: u64 = 2_000;
    let started = Instant::now();
    let (mut inputs, mut crashes) = (0, 0);
    check(SEED, SCHEDULES, |rng| {
        let (i, c) = schedule(rng);
        assert!(i >= 200);
        inputs += i;
        crashes += c;
    });
    let secs = started.elapsed().as_secs_f64();
    println!(
        "core_model: {SCHEDULES} schedules, {inputs} inputs, {crashes} crash/restores in {secs:.2} s \
         ({:.0} schedules/s, {:.0} inputs/s)",
        SCHEDULES as f64 / secs,
        inputs as f64 / secs
    );
    assert!(
        crashes >= SCHEDULES,
        "fewer than one crash/restore per schedule"
    );
}

#[test]
fn the_same_seed_gives_the_same_effect_trace() {
    let run = |seed: u64| {
        let mut w = World::new(&mut SplitMix64::new(seed));
        w.b.fx.trace = Some(Vec::new());
        for p in 0..PILOTS {
            w.connect(p);
        }
        while w.inputs < 300 {
            w.step();
        }
        w.b.fx.trace.take().unwrap()
    };
    let (a, b, other) = (run(SEED), run(SEED), run(SEED + 1));
    assert!(a.len() > 1_000, "{} effects", a.len());
    assert!(a == b, "two runs of one seed diverged");
    assert!(a != other, "the seed does not matter");
}

/// Replay one schedule of the model with its effect trace switched on:
/// `CASE=1916 cargo test -p jets-core --test core_model replay -- --ignored
/// --nocapture` prints what led up to a failure `stdx::check` named.
#[test]
#[ignore = "a debugging aid: replays the schedule named by $CASE"]
fn replay_one_case_with_its_trace() {
    let case = std::env::var("CASE").ok().and_then(|s| s.parse().ok());
    let mut w = World::new(&mut SplitMix64::new(SEED + case.unwrap_or(0)));
    w.b.fx.trace = Some(Vec::new());
    let run = std::panic::AssertUnwindSafe(|| {
        (0..PILOTS).for_each(|p| w.connect(p));
        while w.inputs < 200 {
            w.step();
        }
        w.drain();
    });
    let outcome = std::panic::catch_unwind(run);
    let trace = w.b.fx.trace.take().unwrap();
    for line in &trace[trace.len().saturating_sub(80)..] {
        println!("{line}");
    }
    for p in &w.pilots {
        let (link, run) = (p.link, p.running.as_ref().map(|r| r.task));
        println!(
            "{}: worker {link:?}, task {run:?}, alive {}, hung {}",
            p.name, p.alive, p.hung
        );
    }
    assert!(
        outcome.is_ok(),
        "case {case:?} fails; its last effects are above"
    );
}
