//! The JETS engine's I/O shell: accepts workers, feeds the scheduling
//! core, and writes down what it decides.
//!
//! The decision procedure — match queued jobs to parked pilots, ship,
//! collect, requeue on failure — lives in [`crate::core`], which holds no
//! clock, socket, lock or file. This module is everything else (paper
//! Section 3, principles 1–2):
//!
//! * **Socket management** — one `jets-reactor` event loop multiplexing
//!   every worker and relay connection (and the PMI service's ranks, and
//!   `/metrics` scrapes). The thread bill is one loop, not O(connections).
//! * **Inputs** — each frame, submission, disconnect and monitor tick
//!   becomes exactly one call on the [`Core`], made through `step`: take
//!   the `sched` lock, sample the clock once, call, release. A `Request`
//!   parks and schedules in that one call; a `Heartbeat` (or a relay's
//!   batch of them) refreshes the core's liveness clocks in its own.
//! * **Effects** — the core's sends go onto the connections' bounded
//!   outboxes while `sched` is still held (so an `Assign` can never trail
//!   the `Cancel` that kills it); the MPI gangs' PMI service (the paper's
//!   `mpiexec`, see `jets-pmi`) is one [`PmiHub`] whose listener sits on
//!   the same reactor — `pmi_start` opens a job in it and hands out its
//!   one address, and a gang's first fence release reaches the core from
//!   the event loop that saw it; and every [`Fact`] the core emits is
//!   turned into its ring records, write-ahead records, counters and
//!   job-table update by the one `match` in `Sink::fact`. Captured task output is queued there
//!   and written to `stdout_dir` off the lock, off the event loops.
//!
//! ## Locking domains (see `docs/performance.md`)
//!
//! * **`sched` lock** — the core plus the connection map and the open
//!   PMI job ids: everything a scheduling decision reads or writes to.
//!   The event loop takes it once per input; client threads, the monitor
//!   tick and journal restore are the only other callers of `step`.
//! * **`book` lock** — job records and the outstanding count: what the
//!   client-facing API (`wait_idle`, `wait_job`, `records`) polls. The
//!   only place that takes it under `sched` is `Sink::book`.
//!
//! The order these and the hub's `pmi` are taken in is
//! [`jets_ring::stdx::Rank`], checked at every `lock()` in debug builds.

use crate::core::{Core, CoreConfig, Effects, Fact};
use crate::events::{EventKind, EventLog};
use crate::group::GroupingPolicy;
use crate::journal::{self, FsyncPolicy, Journal, Record};
use crate::metrics::DispatcherMetrics;
use crate::protocol::{
    decode_msg, encode_msg_buf, DispatcherMsg, TaskAssignment, WorkerMsg, MAX_FRAME_BYTES,
};
use crate::queue::QueuePolicy;
use crate::registry::QuarantinePolicy;
use crate::spec::{JobId, JobSpec, TaskId, WorkerId};
use jets_pmi::PmiHub;
use jets_reactor::{CloseReason, ConnHandler, Flow, Outbox, Reactor, ReactorConfig, ReactorStats};
use jets_ring::stdx::{wait_for, Guard, Mutex, Rank};
use jets_ring::WriterRole;
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tuning knobs for a dispatcher instance.
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub bind_addr: String,
    /// Pending-job queue discipline.
    pub queue_policy: QueuePolicy,
    /// Worker-group selection policy.
    pub grouping: GroupingPolicy,
    /// If set, workers silent for longer than this are declared hung and
    /// disregarded. `None` disables hang detection (socket EOF still
    /// detects outright death).
    pub heartbeat_timeout: Option<Duration>,
    /// When set, each task's captured standard output is also written to
    /// `<dir>/job<J>.task<T>.out` — the paper's "into a file" step of the
    /// output path (Section 6.1.6).
    pub stdout_dir: Option<std::path::PathBuf>,
    /// Bench policy for workers whose name keeps killing gangs; `None`
    /// disables quarantine (every registration is admitted `Idle`).
    pub quarantine: Option<QuarantinePolicy>,
    /// Period of the monitor loop that enforces hang detection, job
    /// deadlines, and quarantine release.
    pub monitor_tick: Duration,
    /// Path of the crash-recovery write-ahead journal. When set, every
    /// job state transition is appended before it becomes externally
    /// visible, and a restart with the same path replays the journal to
    /// rebuild queue and in-flight state (see `docs/fault-tolerance.md`).
    /// `None` disables durability entirely.
    pub journal: Option<std::path::PathBuf>,
    /// When journal appends reach the disk (ignored without `journal`).
    pub fsync_policy: FsyncPolicy,
    /// How long a restarted dispatcher waits for surviving workers to
    /// re-register and claim their in-flight tasks before cancelling and
    /// requeueing whatever went unclaimed. Scheduling is paused for the
    /// duration (ends early once every orphaned gang is resolved).
    pub reconcile_window: Duration,
    /// Path of the mmap-backed flight-recorder file. When set, the
    /// event log's ring lives in a `MAP_SHARED` mapping of this file:
    /// every recorded event survives `kill -9` and the file replays
    /// offline with `jets flight dump` (see `docs/observability.md`).
    /// `None` keeps the ring in anonymous memory.
    pub flight_recorder: Option<std::path::PathBuf>,
    /// Events the ring retains before overwriting the oldest (rounded
    /// up to a power of two).
    pub flight_capacity: usize,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            queue_policy: QueuePolicy::Fifo,
            grouping: GroupingPolicy::Fcfs,
            heartbeat_timeout: None,
            stdout_dir: None,
            quarantine: Some(QuarantinePolicy::default()),
            monitor_tick: Duration::from_millis(25),
            journal: None,
            fsync_policy: FsyncPolicy::Always,
            reconcile_window: Duration::from_secs(2),
            flight_recorder: None,
            flight_capacity: crate::events::DEFAULT_EVENT_CAPACITY,
        }
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Pending,
    /// Tasks shipped to workers.
    Running,
    /// All tasks exited zero.
    Succeeded,
    /// A task failed or a worker died, and retries were exhausted.
    Failed,
}

/// What the dispatcher remembers about a job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Its specification.
    pub spec: JobSpec,
    /// Current status.
    pub status: JobStatus,
    /// Launch attempts made so far.
    pub attempts: u32,
    /// Wall time of the final (successful or last) attempt.
    pub wall: Option<Duration>,
    /// Exit codes reported by the final attempt's tasks.
    pub exit_codes: Vec<i32>,
    /// Captured standard-output tails from the final attempt's tasks.
    pub outputs: Vec<String>,
}

impl JobRecord {
    fn new(id: JobId, spec: &JobSpec, status: JobStatus, attempts: u32) -> JobRecord {
        JobRecord {
            id,
            spec: spec.clone(),
            status,
            attempts,
            wall: None,
            exit_codes: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

/// The write path that reaches one worker: a connection's bounded
/// reactor [`Outbox`]. A direct worker owns its connection; a relayed
/// worker shares its relay's, and traffic addressed to it travels in
/// routed envelopes (`RelayAssign` / `RelayCancel`) the relay unwraps.
struct Conn {
    out: Arc<Outbox>,
    relayed: bool,
}

/// Encode `msg` into `enc` (newline framing included) and queue it on
/// `outbox`. Never blocks — `Outbox::send` is a bounded-buffer push —
/// so this is safe while holding the scheduling lock.
fn send_frame(outbox: &Outbox, enc: &mut Vec<u8>, msg: &DispatcherMsg) -> bool {
    encode_msg_buf(msg, enc).is_ok() && outbox.send(enc)
}

/// Everything guarded by `Inner::sched`: the core, and the resources its
/// effects act on.
struct Sched {
    core: Core,
    io: Io,
}

/// What the core's effects reach, keyed the way the core names them.
#[derive(Default)]
struct Io {
    conns: HashMap<WorkerId, Conn>,
    /// Connected relay daemons (ids share the worker id space). Shutdown
    /// is sent once per relay, not once per relayed worker.
    relays: HashMap<WorkerId, Arc<Outbox>>,
    /// Each running MPI gang's PMI job id, open in the hub as long as
    /// its attempt.
    pmi: HashMap<JobId, String>,
    /// Reusable wire-encode buffer: steady-state sends allocate nothing.
    enc: Vec<u8>,
    /// Write-ahead records of the facts emitted since the last flush.
    wal: Vec<Record>,
}

/// Client-facing bookkeeping, split from `Sched` so `wait_idle` /
/// `wait_job` / `records` polling never contends with scheduling.
/// Guarded by `Inner::book`; `Inner::idle_cv` and every condvar in
/// `job_waiters` are paired with this lock.
struct Book {
    records: HashMap<JobId, JobRecord>,
    /// Jobs queued or active; `wait_idle` watches this reach zero.
    outstanding: usize,
    /// Where the threads in `wait_job` sleep, per job, so that a
    /// finished job wakes its own waiters and nobody else.
    job_waiters: HashMap<JobId, Arc<Condvar>>,
}

/// Job `id` reached a terminal state (its record is already updated):
/// wake the threads waiting for that job, and the ones waiting for idle
/// only if it was the last job outstanding.
fn job_ended(inner: &Inner, mut book: Guard<'_, Book>, id: JobId) {
    book.outstanding = book.outstanding.saturating_sub(1);
    let waiters = book.job_waiters.remove(&id);
    let idle = book.outstanding == 0;
    drop(book);
    if let Some(cv) = waiters {
        cv.notify_all();
    }
    if idle {
        inner.idle_cv.notify_all();
    }
}

struct Inner {
    config: DispatcherConfig,
    log: EventLog,
    /// Live metric handles; every recording is a relaxed `fetch_add` (or
    /// a gauge store), so instrumentation never contends with scheduling.
    metrics: Arc<DispatcherMetrics>,
    /// The core and what its effects reach.
    sched: Mutex<Sched>,
    /// Job records and the outstanding count.
    book: Mutex<Book>,
    idle_cv: Condvar,
    /// Captured task output on its way to `stdout_dir`, queued under
    /// `sched` and written by [`flush_outputs`] on a thread that may
    /// block. A leaf lock.
    outputs: Mutex<Vec<(PathBuf, String)>>,
    shutdown: AtomicBool,
    /// Set by [`Dispatcher::kill`]: shut down *silently*, the way a
    /// crash would — no goodbye frames, no further journal writes (the
    /// journal belongs to the successor the kill is simulating).
    killed: AtomicBool,
    /// The write-ahead journal, when durability is configured.
    journal: Option<Journal>,
    /// The reactor's monotonic counters; the monitor bridges them into
    /// the metric surface each tick.
    reactor_stats: Arc<ReactorStats>,
    /// The PMI service of every running gang, on the reactor's loops.
    pmi: Arc<PmiHub>,
}

/// One input to the core, start to finish: take `sched`, sample the
/// clock once, make the call, flush what it journaled.
fn step<R>(inner: &Inner, input: impl FnOnce(&mut Core, &mut Sink<'_>, Instant) -> R) -> R {
    let mut st = inner.sched.lock();
    let Sched { core, io } = &mut *st;
    let mut fx = Sink {
        inner,
        io,
        reported: None,
    };
    let out = input(core, &mut fx, Instant::now());
    fx.flush_wal();
    // The O(1) gauges are maintained inline so scrapes between monitor
    // ticks see fresh levels; three relaxed stores per input.
    let m = &inner.metrics;
    m.queue_depth.set(core.queue().len() as i64);
    m.workers_ready.set(core.ready().len() as i64);
    m.running_gangs.set(core.running() as i64);
    out
}

/// The shell's [`Effects`]: where the core's decisions become bytes.
struct Sink<'a> {
    inner: &'a Inner,
    io: &'a mut Io,
    /// The task whose `Done` is this input, with its captured output if
    /// that is bound for `stdout_dir`.
    reported: Option<(TaskId, Option<String>)>,
}

impl<'a> Sink<'a> {
    /// Append the buffered write-ahead records (one write, one fsync
    /// under `Always`). Failures are counted and swallowed: the
    /// dispatcher keeps serving, and replay still converges on the
    /// journal's valid prefix. A killed dispatcher must not touch the
    /// file again: it belongs to the successor the kill is simulating.
    fn flush_wal(&mut self) {
        let (recs, m) = (&mut self.io.wal, &self.inner.metrics);
        if let Some(j) = self.inner.journal.as_ref().filter(|_| !recs.is_empty()) {
            if !self.inner.killed.load(Ordering::Acquire) {
                match j.append_all(recs) {
                    Ok(()) => m.journal_records_total.add(recs.len() as u64),
                    Err(_) => m.journal_errors_total.inc(),
                }
            }
            recs.clear();
            recs.shrink_to(64); // a bulk submission's buffer is not kept
        }
    }

    /// The job table, with everything journaled so far on disk first: a
    /// state is never client-visible before its record is. The one place
    /// `book` is taken under `sched`.
    fn book(&mut self) -> Guard<'a, Book> {
        self.flush_wal();
        self.inner.book.lock()
    }
}

impl Effects for Sink<'_> {
    fn send_assign(&mut self, worker: WorkerId, assignment: TaskAssignment) -> bool {
        self.flush_wal(); // the attempt is on disk before it is on a wire
        let Some(Conn { out, relayed }) = self.io.conns.get(&worker) else {
            return false;
        };
        let msg = match *relayed {
            true => DispatcherMsg::RelayAssign { worker, assignment },
            false => DispatcherMsg::Assign(assignment),
        };
        send_frame(out, &mut self.io.enc, &msg)
    }

    fn send_cancel(&mut self, worker: WorkerId, task_id: TaskId) -> bool {
        let Some(Conn { out, relayed }) = self.io.conns.get(&worker) else {
            return false;
        };
        let msg = match *relayed {
            true => DispatcherMsg::RelayCancel { worker, task_id },
            false => DispatcherMsg::Cancel { task_id },
        };
        send_frame(out, &mut self.io.enc, &msg)
    }

    fn pmi_start(&mut self, job: JobId, jobid: &str, size: u32) -> io::Result<String> {
        let hub = &self.inner.pmi;
        if !hub.input(|pmi, _| pmi.open_job(jobid, job, size, PMI_FENCE_TIMEOUT)) {
            return Err(io::Error::other(format!("pmi job {jobid} is already open")));
        }
        self.io.pmi.insert(job, jobid.to_string());
        Ok(hub.addr().to_string())
    }

    fn pmi_abort(&mut self, job: JobId, reason: &str) {
        if let Some(jobid) = self.io.pmi.get(&job) {
            let hub = &self.inner.pmi;
            hub.input(|pmi, fx| pmi.abort_job(jobid, reason, fx));
        }
    }

    fn pmi_stop(&mut self, job: JobId) -> Option<Instant> {
        let jobid = self.io.pmi.remove(&job)?;
        self.inner.pmi.input(|pmi, fx| pmi.close_job(&jobid, fx))
    }

    /// The one place a lifecycle fact reaches the ring, the journal, the
    /// counters and the job table.
    fn fact(&mut self, fact: Fact<'_>) {
        let inner = self.inner;
        let (log, m) = (&inner.log, &inner.metrics);
        if inner.journal.is_some() {
            fact.wal(&mut self.io.wal);
        }
        match fact {
            Fact::Event(kind) => {
                match &kind {
                    EventKind::TaskStarted { .. } => m.tasks_started_total.inc(),
                    EventKind::DeadlineExceeded { .. } => m.deadline_exceeded_total.inc(),
                    EventKind::GangReadopted { .. } => m.gangs_readopted_total.inc(),
                    EventKind::RelayDown { relay } => drop(self.io.relays.remove(relay)),
                    EventKind::JobPhases {
                        queue_us,
                        pmi_us,
                        run_us,
                        total_us,
                        ..
                    } => {
                        m.phase_queue.record(*queue_us);
                        pmi_us.iter().for_each(|&us| m.phase_pmi.record(us));
                        m.phase_run.record(*run_us);
                        m.phase_total.record(*total_us);
                    }
                    // A worker's own report (not a synthesized end)
                    // counts, and its output takes the final hop of the
                    // paper's output path: "into a file" — queued here,
                    // written off the lock by `flush_outputs`.
                    EventKind::TaskEnded { task, job, .. } => {
                        let own = self.reported.as_mut().filter(|(t, _)| t == task);
                        if let Some((_, text)) = own {
                            m.tasks_ended_total.inc();
                            if let (Some(dir), Some(text)) = (&inner.config.stdout_dir, text.take())
                            {
                                let path = dir.join(format!("job{job}.task{task}.out"));
                                inner.outputs.lock().push((path, text));
                            }
                        }
                    }
                    _ => {}
                }
                log.record(kind);
            }
            Fact::Submitted { jobs } => {
                m.jobs_submitted_total.add(jobs.len() as u64);
                let mut book = self.book();
                book.outstanding += jobs.len();
                for j in jobs {
                    let rec = JobRecord::new(j.id, &j.spec, JobStatus::Pending, 0);
                    book.records.insert(j.id, rec);
                }
            }
            Fact::Restored {
                job,
                spec,
                attempts,
                running,
            } => {
                let status = if running {
                    JobStatus::Running
                } else {
                    JobStatus::Pending
                };
                let mut book = self.book();
                book.outstanding += 1;
                let rec = JobRecord::new(job, spec, status, attempts);
                book.records.insert(job, rec);
            }
            Fact::WorkerUp { worker, reconnect } => {
                // A name seen before is a pilot coming back after a
                // disconnect: the fault layer's reconnects, observable.
                if reconnect {
                    m.reconnects_total.inc();
                }
                log.record(EventKind::WorkerUp { worker });
            }
            Fact::WorkerDown { worker, .. } => {
                self.io.conns.remove(&worker);
                log.record(EventKind::WorkerDown { worker });
            }
            Fact::JobStarted {
                job,
                attempt,
                nodes,
                ppn,
            } => {
                log.record(EventKind::JobStarted { job, nodes, ppn });
                if let Some(rec) = self.book().records.get_mut(&job) {
                    rec.status = JobStatus::Running;
                    rec.attempts = attempt;
                }
            }
            Fact::JobRequeued {
                job,
                attempts,
                wall,
                exit_codes,
                outputs,
            } => {
                m.jobs_requeued_total.inc();
                log.record(EventKind::JobRequeued { job });
                // `outstanding` unchanged: the job is still in flight.
                if let Some(rec) = self.book().records.get_mut(&job) {
                    (rec.status, rec.attempts, rec.wall) = (JobStatus::Pending, attempts, wall);
                    (rec.exit_codes, rec.outputs) = (exit_codes, outputs);
                }
            }
            Fact::JobFinished {
                job,
                success,
                wall,
                exit_codes,
                outputs,
            } => {
                m.jobs_completed_total.inc();
                let status = if success {
                    JobStatus::Succeeded
                } else {
                    m.jobs_failed_total.inc();
                    JobStatus::Failed
                };
                let mut book = self.book();
                if let Some(rec) = book.records.get_mut(&job) {
                    (rec.status, rec.wall) = (status, wall);
                    (rec.exit_codes, rec.outputs) = (exit_codes, outputs);
                }
                job_ended(inner, book, job);
            }
            // Journal-only facts: `Fact::wal` above said it all.
            Fact::Assigned { .. } | Fact::QuarantineReleased { .. } => {}
        }
    }
}

/// Write queued task output to `stdout_dir`. Blocking file I/O: called
/// from the monitor thread and from client threads that may block
/// (`wait_idle`, `wait_job`, `shutdown`), never from an event loop and
/// never under `sched`.
fn flush_outputs(inner: &Inner) {
    let files = {
        let mut queued = inner.outputs.lock();
        std::mem::take(&mut *queued)
    };
    for (path, text) in files {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, text);
    }
}

/// Stack size for dispatcher service threads (event loop + monitor).
const CONN_STACK: usize = 192 * 1024;

/// Patience for PMI fences inside launched MPI jobs.
const PMI_FENCE_TIMEOUT: Duration = Duration::from_secs(60);

/// A running JETS dispatcher.
///
/// Dropping the dispatcher shuts it down: workers receive `Shutdown`,
/// the reactor's event loop stops (closing every listener, `/metrics`
/// included), and service threads drain.
pub struct Dispatcher {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// The event loop serving every connection. Dropped after `shutdown`
    /// has queued the `Shutdown` frames, which get its final flush.
    reactor: Reactor,
}

impl Dispatcher {
    /// Bind and start serving.
    pub fn start(config: DispatcherConfig) -> io::Result<Dispatcher> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let addr = listener.local_addr()?;
        // Ranks reach the PMI service the way pilots reach the dispatcher.
        let (pmi, pmi_listener) = PmiHub::bind(addr.ip())?;
        let reactor = Reactor::start(ReactorConfig {
            event_loops: 1,
            max_frame: MAX_FRAME_BYTES,
            thread_stack: CONN_STACK,
            ..ReactorConfig::default()
        })?;
        // Open (and replay) the journal before anything is externally
        // visible: a corrupt tail is truncated here, and the records
        // that survive rebuild queue and in-flight state below.
        let (journal, replayed) = match &config.journal {
            Some(path) => {
                let (j, records) = Journal::open(path, config.fsync_policy)?;
                (Some(j), records)
            }
            None => (None, Vec::new()),
        };
        // The flight recorder, like the journal, opens before anything
        // is externally visible; a re-opened file continues the crashed
        // incarnation's sequence numbers and timeline. The role stamped
        // into the ring header is this file's lane in `jets trace`.
        let log = match &config.flight_recorder {
            Some(path) => {
                let role = WriterRole::Dispatcher;
                EventLog::file_backed_with_role(path, config.flight_capacity, role)?
            }
            None => EventLog::with_capacity(config.flight_capacity),
        };
        let core_config = CoreConfig {
            queue_policy: config.queue_policy,
            grouping: config.grouping,
            quarantine: config.quarantine.clone(),
            heartbeat_timeout: config.heartbeat_timeout,
            reconcile_window: config.reconcile_window,
            // Startup wall-clock µs: incarnations sharing flight files
            // cannot collide on trace ids.
            trace_seed: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default()
                .as_micros() as u64,
        };
        let inner = Arc::new(Inner {
            sched: Mutex::ranked(
                Rank::Sched,
                Sched {
                    core: Core::new(core_config, Instant::now()),
                    io: Io::default(),
                },
            ),
            book: Mutex::ranked(
                Rank::Book,
                Book {
                    records: HashMap::new(),
                    outstanding: 0,
                    job_waiters: HashMap::new(),
                },
            ),
            config,
            log,
            metrics: Arc::new(DispatcherMetrics::new()),
            idle_cv: Condvar::new(),
            outputs: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            journal,
            reactor_stats: reactor.stats(),
            pmi,
        });
        if !replayed.is_empty() {
            let rec = journal::recover(&replayed);
            inner
                .metrics
                .journal_replayed_jobs
                .set(rec.jobs.len() as i64);
            step(&inner, |core, fx, now| {
                fx.io.wal.push(Record::Restarted);
                core.restore(now, rec, fx);
            });
        }
        let factory_inner = Arc::clone(&inner);
        reactor.listen(
            listener,
            Arc::new(move |_stream: &TcpStream, _peer: SocketAddr| {
                // Refuse peers once shutdown begins; `None` sheds the
                // connection without registering it.
                if factory_inner.shutdown.load(Ordering::Acquire) {
                    return None;
                }
                factory_inner.metrics.connections_accepted_total.inc();
                Some(Box::new(DispatcherConn {
                    inner: Arc::clone(&factory_inner),
                    outbox: None,
                    enc: Vec::new(),
                    state: ConnState::Handshake,
                }) as Box<dyn ConnHandler>)
            }),
        )?;
        // A gang's first fence release is an input like any other, made
        // from the event loop, after the hub has unlocked.
        let fence_inner = Arc::clone(&inner);
        inner.pmi.serve(&reactor, pmi_listener, move |job, at| {
            step(&fence_inner, |core, fx, _| core.fence_released(job, at, fx));
        })?;
        let monitor_inner = Arc::clone(&inner);
        thread::Builder::new()
            .name("jets-monitor".to_string())
            .stack_size(CONN_STACK)
            .spawn(move || monitor_loop(monitor_inner))?;
        Ok(Dispatcher {
            inner,
            addr,
            reactor,
        })
    }

    /// Address workers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dispatcher's event log (cheap to clone; shared).
    pub fn events(&self) -> EventLog {
        self.inner.log.clone()
    }

    /// The dispatcher's live metric handles (cheap to clone; shared).
    /// Tests and embedders read counters and gauges directly; operators
    /// scrape the same values via [`Dispatcher::serve_metrics`].
    pub fn metrics(&self) -> Arc<DispatcherMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Serve `GET /metrics` and `GET /healthz` on `addr` (port 0 picks an
    /// ephemeral port) from the dispatcher's own event loop, and return
    /// the bound address. The port closes when the dispatcher is dropped.
    pub fn serve_metrics(&self, addr: &str) -> io::Result<SocketAddr> {
        jets_obs::serve_metrics(&self.reactor, addr, self.inner.metrics.registry())
    }

    /// Submit one job; returns its identifier.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        self.submit_all([spec])[0]
    }

    /// Submit many jobs at once. The whole batch is journaled in one
    /// write (one fsync under the `Always` policy, however large the
    /// submission), queued in one input to the core and triggers one
    /// scheduling pass, so bulk submission does not serialize per-job
    /// against the worker traffic.
    pub fn submit_all(&self, specs: impl IntoIterator<Item = JobSpec>) -> Vec<JobId> {
        let specs = specs.into_iter().collect();
        step(&self.inner, |core, fx, now| core.submit(now, specs, fx))
    }

    /// Parse and submit a stand-alone input file's jobs.
    pub fn submit_input(&self, text: &str) -> Result<Vec<JobId>, crate::spec::ParseError> {
        let specs = crate::spec::parse_input(text)?;
        Ok(self.submit_all(specs))
    }

    /// Block until no job is queued or running, or `timeout` passes.
    /// Returns true if the system went idle (and every finished task's
    /// captured output is in `stdout_dir`).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut book = self.inner.book.lock();
        loop {
            if book.outstanding == 0 {
                drop(book);
                flush_outputs(&self.inner);
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            book = wait_for(&self.inner.idle_cv, book, deadline - now).0;
        }
    }

    /// A job's record, if known.
    pub fn job_record(&self, id: JobId) -> Option<JobRecord> {
        self.inner.book.lock().records.get(&id).cloned()
    }

    /// Block until job `id` reaches a terminal state (succeeded or
    /// failed), returning its record; `None` on timeout or unknown id.
    pub fn wait_job(&self, id: JobId, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        let mut book = self.inner.book.lock();
        let mut cv: Option<Arc<Condvar>> = None;
        loop {
            match book.records.get(&id) {
                None => return None,
                Some(rec) if matches!(rec.status, JobStatus::Succeeded | JobStatus::Failed) => {
                    let rec = rec.clone();
                    drop(book);
                    flush_outputs(&self.inner);
                    return Some(rec);
                }
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                // The last waiter to give up takes the entry with it.
                if cv.is_some_and(|cv| Arc::strong_count(&cv) == 2) {
                    book.job_waiters.remove(&id);
                }
                return None;
            }
            let cv = cv.get_or_insert_with(|| Arc::clone(book.job_waiters.entry(id).or_default()));
            book = wait_for(cv, book, deadline - now).0;
        }
    }

    /// Snapshot of all job records.
    pub fn records(&self) -> Vec<JobRecord> {
        let book = self.inner.book.lock();
        let mut v: Vec<JobRecord> = book.records.values().cloned().collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Number of live (registered, non-dead) workers.
    pub fn alive_workers(&self) -> usize {
        self.inner.sched.lock().core.registry().alive_count()
    }

    /// Total TCP connections accepted so far (direct workers + relays).
    /// With a relay tier this stays at O(relays) however many workers
    /// register behind them.
    pub fn connections_accepted(&self) -> u64 {
        self.inner.metrics.connections_accepted_total.get()
    }

    /// Number of currently connected relay daemons.
    pub fn relay_count(&self) -> usize {
        self.inner.sched.lock().io.relays.len()
    }

    /// The reactor's live counters (connections, wakeups, bytes, slow-
    /// consumer disconnects) — the event loop serving every connection.
    pub fn reactor_stats(&self) -> Arc<ReactorStats> {
        self.reactor.stats()
    }

    /// Snapshot of every worker ever registered.
    pub fn workers(&self) -> Vec<crate::registry::WorkerInfo> {
        let st = self.inner.sched.lock();
        st.core.registry().iter().cloned().collect()
    }

    /// Number of jobs queued or running.
    pub fn outstanding(&self) -> usize {
        self.inner.book.lock().outstanding
    }

    /// True while the post-restart reconciliation window is open (no
    /// scheduling; surviving workers are claiming their in-flight tasks).
    pub fn recovering(&self) -> bool {
        self.inner.sched.lock().core.recovering()
    }

    /// Die the way a crash does: no goodbye frames to workers, no
    /// journal close marker — connections just drop. Chaos tests use
    /// this to exercise the journal-replay path; a successor started
    /// with the same journal path must reconcile and converge.
    pub fn kill(self) {
        self.inner.killed.store(true, Ordering::Release);
        // Drop runs `shutdown`, which sees `killed` and stays silent.
    }

    /// Stop accepting, tell every worker to shut down. Each direct worker
    /// is told on its own connection; each relay is told once and fans
    /// the shutdown out to its block.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if self.inner.killed.load(Ordering::Acquire) {
            return; // killed: vanish silently, as a real crash would
        }
        let mut st = self.inner.sched.lock();
        let Io {
            conns, relays, enc, ..
        } = &mut st.io;
        let direct = conns.values().filter(|c| !c.relayed).map(|c| &c.out);
        for out in direct.chain(relays.values()) {
            send_frame(out, enc, &DispatcherMsg::Shutdown);
        }
        drop(st);
        flush_outputs(&self.inner);
        // Clean-shutdown nicety: push the flight recorder's pages to
        // disk now. (A kill skips this on purpose — surviving *without*
        // the flush is what the mmap is for.)
        let _ = self.inner.log.sync();
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher's periodic duties: the core's tick (hang detection,
/// deadlines, quarantine release, the reconciliation window), PMI fence
/// time-outs, the `Interval` fsync, queued task output, and bridging
/// reactor and ring counters into the metric surface. One thread.
fn monitor_loop(inner: Arc<Inner>) {
    let tick = inner.config.monitor_tick.max(Duration::from_millis(1));
    // The reactor's counters are monotonic; remembering the previous
    // sample lets the bridge publish deltas so the jets-obs counters
    // stay monotonic too. Likewise the ring's.
    let mut prev = [0u64; 5];
    while !inner.shutdown.load(Ordering::Acquire) {
        thread::sleep(tick);
        // A fence that has waited `PMI_FENCE_TIMEOUT` aborts its gang:
        // the parked ranks are told, their tasks fail, the core requeues.
        let pmi_errors = inner.pmi.input(|pmi, fx| {
            pmi.tick(Instant::now(), fx);
            pmi.protocol_errors()
        });
        bridge_counters(&inner, &mut prev, pmi_errors);
        flush_outputs(&inner);
        // Under the `Interval` fsync policy the monitor tick is the
        // durability clock: one flush per tick, off the hot path.
        if inner.config.fsync_policy == FsyncPolicy::Interval {
            if let Some(j) = &inner.journal {
                if j.sync().is_err() {
                    inner.metrics.journal_errors_total.inc();
                }
            }
        }
        step(&inner, |core, fx, now| {
            core.tick(now, fx);
            // The O(workers) gauges are refreshed here, once per tick,
            // so the hot path never walks the registry for metrics' sake.
            let (m, workers) = (&inner.metrics, core.registry());
            m.relays_current.set(fx.io.relays.len() as i64);
            m.workers_alive.set(workers.alive_count() as i64);
            m.workers_busy.set(workers.busy_count() as i64);
            m.quarantined_current
                .set(workers.quarantined_count() as i64);
        });
    }
}

/// Publish the reactor's and the flight recorder's counters, and the PMI
/// service's `pmi_errors` the caller read with its tick, into the metric
/// surface. Lock-free on both sides: the sources are atomics the writers
/// already maintain (nothing is decoded, no ring slot is read), the metric
/// handles are atomics.
fn bridge_counters(inner: &Inner, prev: &mut [u64; 5], pmi_errors: u64) {
    let (rs, m) = (&inner.reactor_stats, &inner.metrics);
    m.reactor_connections.set(rs.connections_open() as i64);
    m.reactor_outbox_high_water_bytes
        .set(rs.outbox_high_water() as i64);
    let (recorded, capacity) = (inner.log.len() as u64, inner.log.capacity() as u64);
    m.events_retained.set(recorded.min(capacity) as i64);
    m.events_capacity.set(capacity as i64);
    let now = [
        rs.wakeups(),
        rs.slow_consumer_disconnects(),
        recorded,
        // Records the ring has overwritten: an undersized
        // `--flight-recorder` shows on /metrics instead of silently
        // losing history.
        recorded.saturating_sub(capacity),
        pmi_errors,
    ];
    let counters = [
        &m.reactor_wakeups_total,
        &m.reactor_slow_consumer_disconnects_total,
        &m.events_recorded_total,
        &m.flight_reader_laps_total,
        &m.pmi_protocol_errors_total,
    ];
    for ((counter, now), prev) in counters.into_iter().zip(now).zip(prev) {
        counter.add(now.saturating_sub(*prev));
        *prev = now;
    }
}

/// What one reactor connection has proven itself to be. The first frame
/// decides: `Register` makes the peer a direct worker, `RelayHello` a
/// relay fronting a block of workers.
enum ConnState {
    /// No handshake frame yet.
    Handshake,
    /// A direct worker's connection.
    Direct { worker_id: WorkerId },
    /// A relay's connection, with the members this relay registered: a
    /// frame routed for anyone else is ignored.
    Relay {
        relay_id: WorkerId,
        members: HashSet<WorkerId>,
    },
}

/// Protocol state machine for one inbound connection (worker or relay),
/// driven by the reactor's event loop. Callbacks run on the loop thread and
/// never block (rule J7): outbound frames are queued on the connection's
/// bounded [`Outbox`], and every inbound frame arrives fully reassembled.
struct DispatcherConn {
    inner: Arc<Inner>,
    outbox: Option<Arc<Outbox>>,
    /// Reusable wire-encode buffer for this connection's own replies
    /// (registration acks); frames the core sends use `Io::enc` instead.
    enc: Vec<u8>,
    state: ConnState,
}

impl ConnHandler for DispatcherConn {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        // An unparseable frame is a protocol violation; sever. So is a
        // frame before `on_open`. The close path unwinds whatever state
        // the peer had.
        let (Ok(msg), Some(outbox)) = (decode_msg::<WorkerMsg>(frame), self.outbox.clone()) else {
            return Flow::Close;
        };
        match self.state {
            ConnState::Handshake => self.on_handshake(msg, outbox),
            ConnState::Direct { .. } => self.on_direct(msg, &outbox),
            ConnState::Relay { .. } => self.on_relay(msg, &outbox),
        }
    }

    fn on_close(&mut self, _reason: CloseReason) {
        let inner = &*self.inner;
        match std::mem::replace(&mut self.state, ConnState::Handshake) {
            // The peer never completed a handshake, so there is no
            // state to unwind.
            ConnState::Handshake => {}
            // Socket EOF, error, slow-consumer overflow, and `Goodbye`
            // all converge here: one death, handled exactly once.
            ConnState::Direct { worker_id, .. } => {
                step(inner, |core, fx, now| core.worker_down(now, worker_id, fx));
            }
            // Relay gone: every worker it still fronted is unreachable.
            ConnState::Relay { relay_id, .. } => {
                step(inner, |core, fx, now| core.relay_down(now, relay_id, fx));
            }
        }
    }
}

impl DispatcherConn {
    fn reply(&mut self, outbox: &Outbox, msg: &DispatcherMsg) -> Flow {
        send_frame(outbox, &mut self.enc, msg);
        Flow::Continue
    }

    /// Acknowledge a handshake. A peer accepted before `shutdown` began
    /// but registered after its broadcast went out is told now.
    fn registered(&mut self, outbox: &Outbox, worker_id: WorkerId) -> Flow {
        self.reply(outbox, &DispatcherMsg::Registered { worker_id });
        if self.inner.shutdown.load(Ordering::Acquire) {
            self.reply(outbox, &DispatcherMsg::Shutdown);
        }
        Flow::Continue
    }

    /// The handshake: the first frame decides what this peer is.
    fn on_handshake(&mut self, msg: WorkerMsg, outbox: Arc<Outbox>) -> Flow {
        match msg {
            WorkerMsg::Register {
                name,
                cores,
                location,
            } => {
                let out = Arc::clone(&outbox);
                let worker_id = step(&self.inner, |core, fx, now| {
                    let id = core.register(now, (name, cores, location), None, fx);
                    let relayed = false;
                    fx.io.conns.insert(id, Conn { out, relayed });
                    id
                });
                self.state = ConnState::Direct { worker_id };
                self.registered(&outbox, worker_id)
            }
            // The name is diagnostics only (the wire carries it for
            // operators).
            WorkerMsg::RelayHello { .. } => {
                let out = Arc::clone(&outbox);
                let relay_id = step(&self.inner, |core, fx, _| {
                    let id = core.relay_up(fx);
                    fx.io.relays.insert(id, out);
                    id
                });
                let members = HashSet::new();
                self.state = ConnState::Relay { relay_id, members };
                self.registered(&outbox, relay_id)
            }
            // Any other first frame is a protocol violation: the peer
            // never completed a handshake — just drop the connection.
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
            | WorkerMsg::RelayMemberState { .. } => Flow::Close,
        }
    }

    /// A frame from a registered direct worker. Each input the core takes
    /// from it also restarts the worker's silence clock.
    fn on_direct(&mut self, msg: WorkerMsg, outbox: &Outbox) -> Flow {
        let ConnState::Direct { worker_id } = self.state else {
            return Flow::Close;
        };
        let inner = &*self.inner;
        match msg {
            WorkerMsg::Request => request(inner, worker_id),
            WorkerMsg::Done {
                task_id,
                exit_code,
                output,
                ..
            } => done(inner, worker_id, task_id, exit_code, output),
            WorkerMsg::Heartbeat => step(inner, |core, _, now| core.heard(now, &[worker_id])),
            // Reconciliation: a surviving worker reports the task it is
            // still running from the previous incarnation. A valid claim
            // re-adopts it in place; anything else (unknown task, window
            // already closed, no restart at all) earns a `Cancel` so the
            // worker kills the zombie and rejoins the pool cleanly.
            WorkerMsg::SessionState { running } => {
                if let Some((task_id, _)) = running.filter(|&r| !claim(inner, worker_id, r)) {
                    return self.reply(outbox, &DispatcherMsg::Cancel { task_id });
                }
            }
            // `on_close` runs the worker-down path, exactly as EOF would.
            WorkerMsg::Goodbye => return Flow::Close,
            // Re-registration or relay-scoped frames on a worker
            // connection are protocol violations; sever.
            WorkerMsg::Register { .. }
            | WorkerMsg::RelayHello { .. }
            | WorkerMsg::RelayRegister { .. }
            | WorkerMsg::RelayRequest { .. }
            | WorkerMsg::RelayDone { .. }
            | WorkerMsg::BatchedHeartbeat { .. }
            | WorkerMsg::RelayWorkerGone { .. }
            | WorkerMsg::RelayMemberState { .. } => return Flow::Close,
        }
        Flow::Continue
    }

    /// A frame from a registered relay: a single socket carrying a whole
    /// block's registrations, requests, results, and batched liveness.
    /// A relay that routes for a worker it never registered is ignored.
    fn on_relay(&mut self, msg: WorkerMsg, outbox: &Arc<Outbox>) -> Flow {
        let ConnState::Relay { relay_id, members } = &mut self.state else {
            return Flow::Close;
        };
        let (inner, relay_id) = (&*self.inner, *relay_id);
        let ours = |worker: &WorkerId| members.contains(worker);
        match msg {
            WorkerMsg::RelayRegister {
                local,
                name,
                cores,
                location,
            } => {
                let out = Arc::clone(outbox);
                let worker_id = step(inner, |core, fx, now| {
                    let id = core.register(now, (name, cores, location), Some(relay_id), fx);
                    let relayed = true;
                    fx.io.conns.insert(id, Conn { out, relayed });
                    id
                });
                members.insert(worker_id);
                return self.reply(outbox, &DispatcherMsg::RelayRegistered { local, worker_id });
            }
            WorkerMsg::RelayRequest { worker } if ours(&worker) => request(inner, worker),
            WorkerMsg::RelayDone {
                worker,
                task_id,
                exit_code,
                output,
                ..
            } if ours(&worker) => done(inner, worker, task_id, exit_code, output),
            // Batched liveness: one frame, one input for the whole block.
            WorkerMsg::BatchedHeartbeat { mut workers } => {
                workers.retain(ours);
                if !workers.is_empty() {
                    step(inner, |core, _, now| core.heard(now, &workers));
                }
            }
            WorkerMsg::RelayWorkerGone { worker } => {
                if members.remove(&worker) {
                    step(inner, |core, fx, now| core.worker_down(now, worker, fx));
                }
            }
            // Reconciliation, relayed: the member's in-flight claim
            // travels in the relay's envelope. Same adopt-or-cancel
            // decision as the direct `SessionState` path.
            WorkerMsg::RelayMemberState {
                worker,
                task_id,
                job_id,
            } => {
                if ours(&worker) && !claim(inner, worker, (task_id, job_id)) {
                    return self.reply(outbox, &DispatcherMsg::RelayCancel { worker, task_id });
                }
            }
            // An unknown member's frame; the relay's own keepalive
            // (member liveness arrives batched).
            WorkerMsg::RelayRequest { .. } | WorkerMsg::RelayDone { .. } | WorkerMsg::Heartbeat => {
            }
            // `on_close` unwinds the whole block, exactly as EOF would.
            WorkerMsg::Goodbye => return Flow::Close,
            // Direct-worker frames on a relay connection are protocol
            // violations; sever (taking the block down with it).
            WorkerMsg::Register { .. }
            | WorkerMsg::Request
            | WorkerMsg::Done { .. }
            | WorkerMsg::RelayHello { .. }
            | WorkerMsg::SessionState { .. } => return Flow::Close,
        }
        Flow::Continue
    }
}

/// `worker` asked for work: it parks and a scheduling pass runs.
fn request(inner: &Inner, worker: WorkerId) {
    step(inner, |core, fx, now| core.request(now, worker, fx));
}

/// `worker` reported a task result.
fn done(inner: &Inner, worker: WorkerId, task: TaskId, exit_code: i32, output: Option<String>) {
    // The copy bound for `stdout_dir`, if that is configured.
    let file = inner
        .config
        .stdout_dir
        .as_ref()
        .and_then(|_| output.clone());
    step(inner, |core, fx, now| {
        fx.reported = Some((task, file));
        core.done(now, worker, task, exit_code, output, fx);
    });
}

/// A surviving worker (or relay member) claims the task it kept running
/// across a dispatcher restart; false if there is nothing to claim.
fn claim(inner: &Inner, worker: WorkerId, running: (TaskId, JobId)) -> bool {
    step(inner, |core, fx, now| core.claim(now, worker, running, fx))
}

#[cfg(test)]
mod tests {
    //! Loopback tests of the shell: real sockets, real threads. What the
    //! dispatcher *decides* is tested on the core under a virtual clock
    //! (`tests/core_model.rs`); these cover what only the shell has —
    //! the wire, the PMI servers, the journal file, the condvars and the
    //! output files.
    use super::*;
    use crate::protocol::{MsgReader, MsgWriter, TaskKind};
    use crate::spec::CommandSpec;
    use std::io::{BufReader, Read};

    type Wire = (MsgWriter<TcpStream>, MsgReader<BufReader<TcpStream>>);

    /// No clock, lock, atomic, thread, socket, file, journal, ring or PMI
    /// server in the scheduling core: that is what lets `tests/core_model.rs`
    /// drive the real one under a virtual clock.
    #[test]
    fn the_core_is_pure() {
        jets_ring::stdx::assert_pure(include_str!("core.rs"), &["Atomic"]);
    }

    /// Connect, say `hello`, return the write and read halves once the
    /// dispatcher has answered.
    fn handshake(addr: SocketAddr, hello: &WorkerMsg) -> Wire {
        let stream = TcpStream::connect(addr).unwrap();
        // `Done` then `Request` are two small writes: Nagle would hold
        // the second for the first one's delayed ACK.
        stream.set_nodelay(true).unwrap();
        let mut writer = MsgWriter::new(stream.try_clone().unwrap());
        let mut reader = MsgReader::new(BufReader::new(stream));
        writer.send(hello).unwrap();
        let Some(DispatcherMsg::Registered { .. }) = reader.recv().unwrap() else {
            panic!("expected Registered");
        };
        (writer, reader)
    }

    /// A minimal raw-protocol worker for exercising the dispatcher
    /// without depending on the jets-worker crate: executes builtin
    /// "ok" (exit 0), "fail" (exit 1), "say" (exit 0 with output) and
    /// MPI proxies (PMI handshake).
    fn raw_worker(addr: SocketAddr, tasks_to_run: usize) -> thread::JoinHandle<usize> {
        thread::spawn(move || {
            let (name, location) = ("raw".to_string(), "test".to_string());
            let cores = 1;
            let hello = WorkerMsg::Register {
                name,
                cores,
                location,
            };
            let (mut writer, mut reader) = handshake(addr, &hello);
            let mut done = 0;
            for _ in 0..tasks_to_run {
                writer.send(&WorkerMsg::Request).unwrap();
                match reader.recv::<DispatcherMsg>().unwrap() {
                    Some(DispatcherMsg::Assign(a)) => {
                        writer.send(&run_assignment(&a)).unwrap();
                        done += 1;
                    }
                    Some(DispatcherMsg::Shutdown) | None => break,
                    other => panic!("unexpected: {other:?}"),
                }
            }
            writer.send(&WorkerMsg::Goodbye).ok();
            done
        })
    }

    fn run_assignment(a: &TaskAssignment) -> WorkerMsg {
        let (mut exit_code, mut output) = (0, None);
        match &a.kind {
            TaskKind::Sequential { cmd } => match cmd.name() {
                "ok" => {}
                "fail" => exit_code = 1,
                "say" => output = Some("hello\n".to_string()),
                other => panic!("unknown builtin {other}"),
            },
            TaskKind::MpiProxy {
                ranks,
                size,
                pmi_addr,
                pmi_jobid,
                ..
            } => {
                // Perform the PMI handshake for each hosted rank, the way
                // a Hydra proxy would.
                for &rank in ranks {
                    let mut c =
                        jets_pmi::PmiClient::connect(pmi_addr, rank, *size, pmi_jobid).unwrap();
                    c.put(&format!("bc.{rank}"), "x").unwrap();
                    c.fence().unwrap();
                    c.finalize().unwrap();
                }
            }
        }
        WorkerMsg::Done {
            task_id: a.task_id,
            exit_code,
            wall_ms: 1,
            output,
            trace: a.trace,
        }
    }

    fn dispatcher() -> Dispatcher {
        Dispatcher::start(DispatcherConfig::default()).unwrap()
    }

    fn jobs(app: &'static str, n: usize) -> impl Iterator<Item = JobSpec> {
        (0..n).map(move |_| JobSpec::sequential(CommandSpec::builtin(app, vec![])))
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jets-dispatcher-{name}-{}", std::process::id()))
    }

    const WAIT: Duration = Duration::from_secs(30);

    #[test]
    fn sequential_job_runs_to_success() {
        let d = dispatcher();
        let w = raw_worker(d.addr(), 1);
        let id = d.submit(jobs("ok", 1).next().unwrap());
        assert!(d.wait_idle(WAIT));
        let rec = d.job_record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Succeeded);
        assert_eq!((rec.attempts, rec.exit_codes), (1, vec![0]));
        d.shutdown();
        assert_eq!(w.join().unwrap(), 1);
    }

    #[test]
    fn mpi_job_aggregates_workers_and_runs_pmi() {
        let d = dispatcher();
        let workers: Vec<_> = (0..3).map(|_| raw_worker(d.addr(), 1)).collect();
        let id = d.submit(JobSpec::mpi(3, CommandSpec::builtin("mpi", vec![])));
        assert!(d.wait_idle(WAIT));
        let rec = d.job_record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Succeeded);
        assert_eq!(rec.exit_codes.len(), 3);
        assert!(d.inner.sched.lock().io.pmi.is_empty(), "PMI server dropped");
        d.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn killed_dispatcher_replays_queued_jobs_from_journal() {
        let path = tmp("queued.wal");
        std::fs::remove_file(&path).ok();
        let config = DispatcherConfig {
            journal: Some(path.clone()),
            ..DispatcherConfig::default()
        };
        let d = Dispatcher::start(config.clone()).unwrap();
        let ids = d.submit_all(jobs("ok", 5));
        assert_eq!(d.outstanding(), 5);
        d.kill();
        // The successor replays the journal: all five jobs pending
        // again, no reconciliation window (nothing was in flight).
        let d2 = Dispatcher::start(config.clone()).unwrap();
        assert_eq!(d2.outstanding(), 5);
        assert!(!d2.recovering(), "queued-only journal needs no window");
        assert_eq!(d2.metrics().journal_replayed_jobs.get(), 5);
        for &id in &ids {
            assert_eq!(d2.job_record(id).unwrap().status, JobStatus::Pending);
        }
        // A worker drains them in the new incarnation, exactly once each.
        let w = raw_worker(d2.addr(), 5);
        assert!(d2.wait_idle(WAIT));
        assert_eq!(d2.metrics().jobs_completed_total.get(), 5);
        for id in ids {
            assert_eq!(d2.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        // Submitted + Enqueued, then Assigned, TaskEnded, Finished.
        assert!(d2.metrics().journal_records_total.get() >= 5 * 3);
        d2.shutdown();
        w.join().unwrap();
        drop(d2);
        // Every journaled job reached a terminal record, so a second
        // restart resurrects nothing.
        let d3 = Dispatcher::start(config).unwrap();
        assert_eq!(d3.outstanding(), 0);
        assert_eq!(d3.metrics().journal_replayed_jobs.get(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// A relay fronting 4 workers runs a batch of sequential jobs over a
    /// single inbound connection.
    #[test]
    fn relayed_workers_run_jobs_over_one_connection() {
        let d = dispatcher();
        let addr = d.addr();
        let relay = thread::spawn(move || {
            let (name, location) = ("raw-relay".to_string(), "test".to_string());
            let (mut writer, mut reader) =
                handshake(addr, &WorkerMsg::RelayHello { name, location });
            let mut ids = Vec::new();
            for local in 0..4u64 {
                let (name, location) = (format!("blk-{local}"), "test".to_string());
                let cores = 1;
                let register = WorkerMsg::RelayRegister {
                    local,
                    name,
                    cores,
                    location,
                };
                writer.send(&register).unwrap();
                match reader.recv().unwrap() {
                    Some(DispatcherMsg::RelayRegistered {
                        local: echoed,
                        worker_id,
                    }) => {
                        assert_eq!(echoed, local);
                        ids.push(worker_id);
                    }
                    other => panic!("expected RelayRegistered, got {other:?}"),
                }
            }
            for &worker in &ids {
                writer.send(&WorkerMsg::RelayRequest { worker }).unwrap();
            }
            let mut done = 0usize;
            while done < 20 {
                match reader.recv::<DispatcherMsg>().unwrap() {
                    Some(DispatcherMsg::RelayAssign { worker, assignment }) => {
                        assert!(ids.contains(&worker), "routed to a member we own");
                        let WorkerMsg::Done {
                            task_id,
                            exit_code,
                            wall_ms,
                            output,
                            trace,
                        } = run_assignment(&assignment)
                        else {
                            unreachable!()
                        };
                        let report = WorkerMsg::RelayDone {
                            worker,
                            task_id,
                            exit_code,
                            wall_ms,
                            output,
                            trace,
                        };
                        writer.send(&report).unwrap();
                        writer.send(&WorkerMsg::RelayRequest { worker }).unwrap();
                        done += 1;
                    }
                    Some(DispatcherMsg::Shutdown) | None => break,
                    other => panic!("unexpected: {other:?}"),
                }
            }
            writer.send(&WorkerMsg::Goodbye).ok();
            done
        });
        // Wait for the block to register.
        let deadline = Instant::now() + WAIT;
        while d.alive_workers() < 4 {
            assert!(Instant::now() < deadline, "relayed workers never arrived");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(d.relay_count(), 1);
        assert_eq!(
            d.connections_accepted(),
            1,
            "one socket for the whole block"
        );
        let ids = d.submit_all(jobs("ok", 20));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        // Every registered worker is marked as relayed in the registry.
        for w in d.workers() {
            assert!(w.relay.is_some());
        }
        d.shutdown();
        assert_eq!(relay.join().unwrap(), 20);
        // The relay's goodbye took its whole block with it.
        let deadline = Instant::now() + WAIT;
        while d.alive_workers() != 0 || d.relay_count() != 0 {
            assert!(Instant::now() < deadline, "members outlived their relay");
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// A `Done` with output is followed by its file, and the write is
    /// nobody's problem but the writer's: with the file's path a FIFO
    /// nobody reads — a directory as slow as they come — the next
    /// `Request` is still served and the next job still finishes.
    #[cfg(unix)]
    #[test]
    fn task_output_lands_in_its_file_without_holding_up_scheduling() {
        extern "C" {
            fn mkfifo(path: *const std::ffi::c_char, mode: u32) -> i32;
        }
        let dir = tmp("stdout");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // The first job's first task is job 1, task 1.
        let fifo = dir.join("job1.task1.out");
        let c_path = std::ffi::CString::new(fifo.to_str().unwrap()).unwrap();
        assert_eq!(unsafe { mkfifo(c_path.as_ptr(), 0o600) }, 0);
        let d = Dispatcher::start(DispatcherConfig {
            stdout_dir: Some(dir.clone()),
            monitor_tick: Duration::from_millis(2),
            ..DispatcherConfig::default()
        })
        .unwrap();
        let w = raw_worker(d.addr(), 2);
        let finished = |id| {
            let deadline = Instant::now() + WAIT;
            while d.job_record(id).unwrap().status != JobStatus::Succeeded {
                assert!(Instant::now() < deadline, "job {id} never finished");
                thread::sleep(Duration::from_millis(1));
            }
        };
        let first = d.submit(jobs("say", 1).next().unwrap());
        finished(first);
        // The monitor has taken the queued output and is now stuck
        // opening the FIFO.
        let deadline = Instant::now() + WAIT;
        while !d.inner.outputs.lock().is_empty() {
            assert!(Instant::now() < deadline, "output never picked up");
            thread::sleep(Duration::from_millis(1));
        }
        let second = d.submit(jobs("ok", 1).next().unwrap());
        finished(second);
        let mut text = String::new();
        std::fs::File::open(&fifo)
            .unwrap()
            .read_to_string(&mut text)
            .unwrap();
        assert_eq!(text, "hello\n");
        assert_eq!(d.job_record(first).unwrap().outputs, vec![text]);
        d.shutdown();
        assert_eq!(w.join().unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wait_idle_times_out_without_workers() {
        let d = dispatcher();
        assert!(d.wait_idle(Duration::ZERO), "idle from the start");
        d.submit(jobs("ok", 1).next().unwrap());
        assert!(!d.wait_idle(Duration::from_millis(40)));
        assert_eq!(d.outstanding(), 1);
    }

    #[test]
    fn wait_job_returns_when_its_job_ends_with_thousands_still_outstanding() {
        let d = dispatcher();
        let ids = d.submit_all(jobs("ok", 5001));
        let w = raw_worker(d.addr(), 1);
        let rec = d.wait_job(ids[0], WAIT).expect("the one job that ran");
        assert_eq!(rec.status, JobStatus::Succeeded);
        assert_eq!(w.join().unwrap(), 1);
        assert_eq!(d.outstanding(), 5000);
        // A waiter that gives up leaves nothing behind.
        assert!(d.wait_job(ids[1], Duration::from_millis(10)).is_none());
        assert!(d.inner.book.lock().job_waiters.is_empty());
    }

    #[test]
    fn job_waiters_and_an_idle_waiter_all_return_with_the_right_records() {
        let d = dispatcher();
        let ids = d.submit_all((0..64).map(|i| {
            let app = if i % 2 == 0 { "ok" } else { "fail" };
            JobSpec::sequential(CommandSpec::builtin(app, vec![]))
        }));
        let d = &d;
        thread::scope(|s| {
            let waiters: Vec<_> = ids
                .iter()
                .map(|&id| s.spawn(move || d.wait_job(id, WAIT)))
                .collect();
            let idle = s.spawn(move || d.wait_idle(WAIT));
            // Every job-waiter asleep before the first job can end.
            let deadline = Instant::now() + WAIT;
            while d.inner.book.lock().job_waiters.len() < ids.len() {
                assert!(Instant::now() < deadline, "waiters never went to sleep");
                thread::sleep(Duration::from_millis(1));
            }
            let workers: Vec<_> = (0..4).map(|_| raw_worker(d.addr(), 64)).collect();
            for (i, w) in waiters.into_iter().enumerate() {
                let rec = w.join().unwrap().expect("job ended");
                assert_eq!(rec.id, ids[i]);
                let (status, codes) = if i % 2 == 0 {
                    (JobStatus::Succeeded, vec![0])
                } else {
                    (JobStatus::Failed, vec![1])
                };
                assert_eq!((rec.status, rec.exit_codes), (status, codes), "job {i}");
            }
            assert!(idle.join().unwrap());
            assert!(d.inner.book.lock().job_waiters.is_empty());
            d.shutdown();
            let ran: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(ran, 64);
        });
    }

    /// A finished job wakes the threads waiting for it, and the ones
    /// waiting for idle only when it was the last: `notify_all` per job
    /// switched this thread in about 0.7 times per job.
    #[cfg(target_os = "linux")]
    #[test]
    fn wait_idle_sleeps_through_a_batch() {
        fn voluntary_switches() -> u64 {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
            line.expect("a voluntary_ctxt_switches line")
                .trim()
                .parse()
                .unwrap()
        }
        let d = dispatcher();
        let workers: Vec<_> = (0..4).map(|_| raw_worker(d.addr(), 5000)).collect();
        d.submit_all(jobs("ok", 5000));
        let before = voluntary_switches();
        assert!(d.wait_idle(WAIT), "outstanding {}", d.outstanding());
        let switched = voluntary_switches() - before;
        assert!(switched < 50, "switched in {switched} times over 5000 jobs");
        d.shutdown();
        let ran: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(ran, 5000);
    }
}
