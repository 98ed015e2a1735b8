//! The JETS engine: accepts workers, aggregates them, launches jobs.
//!
//! Pipeline stages, each arbitrarily concurrent (paper Section 3,
//! principles 1–2):
//!
//! * **Socket management** — a fixed handful of `jets-reactor` event
//!   loops multiplexing every worker and relay connection: nonblocking
//!   reads reassemble frames across wakeups, writes drain bounded
//!   per-connection outboxes. The thread bill is O(event loops), not
//!   O(connections).
//! * **Handler processing** — job submission (API or input file) feeds the
//!   [`crate::queue::JobQueue`]; worker `Request`s park in the ready list;
//!   `try_schedule` matches the two under the scheduling lock.
//! * **External process management** — each MPI job gets a background PMI
//!   server (the `mpiexec` process of the paper, see `jets-pmi`), whose
//!   manual-launcher proxy commands are shipped to the group's workers.
//!
//! ## Locking domains (see `docs/performance.md`)
//!
//! The paper's throughput claim (Figures 6 and 8) lives or dies on how
//! little the central dispatcher serializes, so shared state is split by
//! access pattern instead of held under one global mutex:
//!
//! * **`sched` lock** — queue + ready list + registry + connections +
//!   in-flight bookkeeping: everything a scheduling decision reads.
//! * **`book` lock** — job records and the outstanding count: what the
//!   client-facing API (`wait_idle`, `wait_job`, `records`) polls. Lock
//!   order is always `sched` → `book`, never the reverse.
//! * **no lock** — worker liveness. Each `Heartbeat` is one relaxed
//!   atomic store through a [`crate::registry::HeartbeatHandle`]; a
//!   heartbeat storm from ten thousand pilots cannot contend with
//!   scheduling.
//!
//! `Request` handling is *coalesced*: readers push their worker id onto a
//! small mutexed list and ring a scheduling doorbell; a storm of N parked
//! workers triggers one batched scheduling pass, not N serialized ones.
//!
//! Fault tolerance: a worker death (socket EOF, error, or heartbeat
//! silence) marks its in-flight job failed, aborts the job's PMI server so
//! peer ranks unblock, and requeues the job at the front of the queue if
//! it has retry budget left.

use crate::events::{EventCursor, EventKind, EventLog, SpanKind};
use crate::group::{select_group_ids, GroupScratch, GroupingPolicy};
use crate::journal::{self, FsyncPolicy, Journal, Record};
use crate::metrics::DispatcherMetrics;
use crate::protocol::{
    decode_msg, encode_msg_buf, DispatcherMsg, TaskAssignment, TaskKind, WorkerMsg, EXIT_CANCELED,
    EXIT_DEADLINE, EXIT_UNDELIVERABLE, EXIT_WORKER_LOST, MAX_FRAME_BYTES,
};
use crate::queue::{JobQueue, QueuePolicy, QueuedJob};
use crate::ready::ReadyList;
use crate::registry::{HeartbeatHandle, QuarantinePolicy, Registry, WorkerState};
use crate::spec::{JobId, JobSpec, TaskId, WorkerId};
use jets_obs::MetricsServer;
use jets_pmi::{ManualLauncher, PmiServer, PmiServerConfig, RankLayout};
use jets_reactor::{CloseReason, ConnHandler, Flow, Outbox, Reactor, ReactorConfig, ReactorStats};
use jets_ring::stdx::{splitmix64, wait_for, Mutex};
use jets_ring::WriterRole;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
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
    /// Patience for PMI fences inside launched MPI jobs.
    pub pmi_fence_timeout: Duration,
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
    /// Reactor event-loop threads multiplexing every connection. This —
    /// not the connection count — is the dispatcher's thread bill for
    /// socket handling.
    pub event_loops: usize,
    /// Bounded per-connection outbound buffer, in bytes. A peer that
    /// stops reading fills it and is disconnected (the slow-consumer
    /// policy) instead of growing dispatcher memory without limit.
    pub outbox_limit: usize,
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
            pmi_fence_timeout: Duration::from_secs(60),
            stdout_dir: None,
            quarantine: Some(QuarantinePolicy::default()),
            monitor_tick: Duration::from_millis(25),
            event_loops: 2,
            outbox_limit: 16 * 1024 * 1024,
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

struct ActiveJob {
    id: JobId,
    spec: JobSpec,
    attempts: u32,
    /// Workers that have not yet reported (or died), with the task each
    /// one is running — the id a gang cancel must name and the id a dead
    /// worker's synthetic `TaskEnded` records.
    pending: HashMap<WorkerId, TaskId>,
    exit_codes: Vec<i32>,
    outputs: Vec<String>,
    any_failure: bool,
    /// Workers this attempt blames (died mid-gang, nonzero exit, or
    /// unreachable); becomes the requeue's `excluded` hint.
    failed_workers: Vec<WorkerId>,
    /// Keeps the job's PMI server alive for the duration of the job.
    pmi: Option<PmiServer>,
    started: Instant,
    /// Wall-clock cutoff derived from the spec's `deadline_ms`.
    deadline: Option<Instant>,
    /// Lifecycle span timestamps (see `EventKind::JobPhases`): when the
    /// job was first submitted, when this attempt entered the queue, and
    /// when its assignments finished shipping (`started` doubles as the
    /// group-assembled stamp).
    submitted_at: Instant,
    enqueued_at: Instant,
    shipped_at: Option<Instant>,
    /// The job's trace id (minted at submission, carried across
    /// requeues): the correlation key every span and wire frame for
    /// this job carries.
    trace: u64,
    /// True while the dispatcher's `pmi-barrier` span is open — set
    /// when an MPI gang ships, cleared when the monitor observes the
    /// first fence release (or, as a fallback, when the job finishes).
    pmi_span_open: bool,
}

/// The write path that reaches one worker: its connection's bounded
/// reactor [`Outbox`].
///
/// A direct worker owns its connection; a relayed worker shares its
/// relay's, and traffic addressed to it travels in routed envelopes
/// (`RelayAssign` / `RelayCancel`) the relay unwraps. Scheduling is
/// oblivious to the difference — it calls [`ConnHandle::send_assign`] /
/// [`ConnHandle::send_cancel`] and the envelope happens here.
enum ConnHandle {
    /// The worker's own connection (classic one-socket-per-worker).
    Direct(Arc<Outbox>),
    /// The worker's relay connection (shared by the whole block).
    Relayed(Arc<Outbox>),
}

impl ConnHandle {
    /// Ship an assignment to `worker`, encoding through `enc`; false if
    /// the connection is gone or its bounded outbox overflowed.
    fn send_assign(&self, worker: WorkerId, assignment: TaskAssignment, enc: &mut Vec<u8>) -> bool {
        match self {
            ConnHandle::Direct(out) => send_frame(out, enc, &DispatcherMsg::Assign(assignment)),
            ConnHandle::Relayed(out) => {
                send_frame(out, enc, &DispatcherMsg::RelayAssign { worker, assignment })
            }
        }
    }

    /// Ship a task cancellation to `worker`.
    fn send_cancel(&self, worker: WorkerId, task_id: TaskId, enc: &mut Vec<u8>) -> bool {
        match self {
            ConnHandle::Direct(out) => send_frame(out, enc, &DispatcherMsg::Cancel { task_id }),
            ConnHandle::Relayed(out) => {
                send_frame(out, enc, &DispatcherMsg::RelayCancel { worker, task_id })
            }
        }
    }
}

/// Encode `msg` into `enc` (newline framing included) and queue it on
/// `outbox`. Never blocks — `Outbox::send` is a bounded-buffer push —
/// so this is safe while holding the scheduling lock.
fn send_frame(outbox: &Outbox, enc: &mut Vec<u8>, msg: &DispatcherMsg) -> bool {
    encode_msg_buf(msg, enc).is_ok() && outbox.send(enc)
}

/// Scheduling-critical state: everything one scheduling decision reads or
/// writes. Guarded by `Inner::sched`.
///
/// Invariant: every worker in `ready` is `Idle` in `registry` — death
/// removes it directly ([`handle_worker_down`]) and assignment removes it
/// before `mark_busy`, so scheduling never has to purge stale entries.
struct Sched {
    queue: JobQueue,
    registry: Registry,
    conns: HashMap<WorkerId, ConnHandle>,
    /// Connected relay daemons (ids share the worker id space). Shutdown
    /// is sent once per relay, not once per relayed worker.
    relays: HashMap<WorkerId, Arc<Outbox>>,
    /// Parked `Request`s, oldest first, with interned locations.
    ready: ReadyList,
    active: HashMap<JobId, ActiveJob>,
    /// Maps in-flight tasks to their jobs.
    tasks: HashMap<TaskId, JobId>,
    /// Reusable group-selection scratch: steady-state scheduling passes
    /// allocate nothing.
    scratch: GroupScratch,
    /// Reusable buffer for the workers chosen for one job.
    chosen: Vec<WorkerId>,
    /// Quarantined workers whose `Request` is being held; the monitor
    /// moves them back into `pending_ready` once their bench expires.
    quarantined_ready: Vec<WorkerId>,
    /// Reusable wire-encode buffer for frames sent under this lock
    /// (assignments, cancels, shutdown): steady-state sends allocate
    /// nothing.
    enc: Vec<u8>,
    /// `Some` while the post-restart reconciliation window is open:
    /// scheduling is paused, surviving workers claim orphaned tasks, and
    /// the monitor closes the window (cancelling whatever went
    /// unclaimed) at the deadline. `None` in steady state.
    recovery: Option<RecoveryState>,
}

/// The bounded window a restarted dispatcher spends reconciling journal
/// state against live workers before scheduling resumes.
struct RecoveryState {
    /// When the monitor gives up on unclaimed orphans.
    until: Instant,
    /// Per orphaned job, the in-flight task ids no surviving worker has
    /// claimed yet. Task ids are the stable key: worker ids restart with
    /// the process, task ids never repeat across incarnations.
    orphans: HashMap<JobId, Vec<TaskId>>,
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
fn job_ended(inner: &Inner, mut book: MutexGuard<'_, Book>, id: JobId) {
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
    /// Scheduling-critical state. Lock order: `sched` before `book`,
    /// never the reverse.
    sched: Mutex<Sched>,
    /// Job records and the outstanding count.
    book: Mutex<Book>,
    idle_cv: Condvar,
    /// Workers whose `Request` awaits the next scheduling pass. Readers
    /// push here and ring [`kick_schedule`]; a burst of N requests
    /// coalesces into one batched pass, which takes the whole list under
    /// one acquisition. A leaf lock: nothing is acquired while it is held.
    pending_ready: Mutex<Vec<WorkerId>>,
    /// Doorbell for [`kick_schedule`]: true while a pass is owed.
    sched_kick: AtomicBool,
    next_worker: AtomicU64,
    next_job: AtomicU64,
    next_task: AtomicU64,
    /// Total TCP connections the reactor listener has taken — the number
    /// the relay tier exists to shrink from O(workers) to O(relays).
    accepted: AtomicU64,
    shutdown: AtomicBool,
    /// Set by [`Dispatcher::kill`]: shut down *silently*, the way a
    /// crash would — no goodbye frames, no further journal writes (the
    /// journal belongs to the successor the kill is simulating).
    killed: AtomicBool,
    /// The write-ahead journal, when durability is configured.
    journal: Option<Journal>,
    /// Wall-clock seed (startup µs since the Unix epoch) mixed into
    /// every minted trace id, so incarnations sharing flight files
    /// cannot collide on trace ids.
    trace_seed: u64,
    /// The reactor's monotonic counters; the monitor bridges them into
    /// the metric surface each tick.
    reactor_stats: Arc<ReactorStats>,
}

/// Stack size for dispatcher service threads (event loops + monitor).
const CONN_STACK: usize = 192 * 1024;

/// A running JETS dispatcher.
///
/// Dropping the dispatcher shuts it down: workers receive `Shutdown`,
/// the reactor's event loops stop, and service threads drain.
pub struct Dispatcher {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// The `/metrics` responder, when one was started; dropping the
    /// dispatcher stops it.
    metrics_server: Mutex<Option<MetricsServer>>,
    /// The event-loop core serving every connection. Declared after
    /// `metrics_server` so queued `Shutdown` frames get the reactor's
    /// final flush when the dispatcher drops.
    reactor: Reactor,
}

impl Dispatcher {
    /// Bind and start serving.
    pub fn start(config: DispatcherConfig) -> io::Result<Dispatcher> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let addr = listener.local_addr()?;
        let reactor = Reactor::start(ReactorConfig {
            event_loops: config.event_loops,
            outbox_limit: config.outbox_limit,
            max_frame: MAX_FRAME_BYTES,
            thread_stack: CONN_STACK,
            ..ReactorConfig::default()
        })?;
        // Open (and replay) the journal before anything is externally
        // visible: a corrupt tail is truncated here, and the records
        // that survive rebuild queue and in-flight state below.
        let (journal_handle, replayed) = match &config.journal {
            Some(path) => {
                let (j, records) = Journal::open(path, config.fsync_policy)?;
                (Some(j), records)
            }
            None => (None, Vec::new()),
        };
        // The flight recorder, like the journal, opens before anything
        // is externally visible; a re-opened file continues the crashed
        // incarnation's sequence numbers and timeline.
        let log = match &config.flight_recorder {
            Some(path) => {
                // The dispatcher stamps its role into the ring header so
                // `jets trace` can lane-assign this file in a merged
                // cross-process timeline.
                EventLog::file_backed_with_role(
                    path,
                    config.flight_capacity,
                    WriterRole::Dispatcher,
                )?
            }
            None => EventLog::with_capacity(config.flight_capacity),
        };
        let inner = Arc::new(Inner {
            sched: Mutex::new(Sched {
                queue: JobQueue::new(config.queue_policy),
                registry: Registry::with_quarantine(config.quarantine.clone()),
                conns: HashMap::new(),
                relays: HashMap::new(),
                ready: ReadyList::new(),
                active: HashMap::new(),
                tasks: HashMap::new(),
                scratch: GroupScratch::new(),
                chosen: Vec::new(),
                quarantined_ready: Vec::new(),
                enc: Vec::new(),
                recovery: None,
            }),
            book: Mutex::new(Book {
                records: HashMap::new(),
                outstanding: 0,
                job_waiters: HashMap::new(),
            }),
            config,
            log,
            metrics: Arc::new(DispatcherMetrics::new()),
            idle_cv: Condvar::new(),
            pending_ready: Mutex::new(Vec::new()),
            sched_kick: AtomicBool::new(false),
            next_worker: AtomicU64::new(1),
            next_job: AtomicU64::new(1),
            next_task: AtomicU64::new(1),
            accepted: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            journal: journal_handle,
            trace_seed: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default()
                .as_micros() as u64,
            reactor_stats: reactor.stats(),
        });
        inner
            .metrics
            .reactor_event_loops
            .set(reactor.event_loops() as i64);
        if !replayed.is_empty() {
            journal_append(&inner, &Record::Restarted);
            recover_populate(&inner, journal::recover(&replayed));
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
                factory_inner.accepted.fetch_add(1, Ordering::Relaxed);
                factory_inner.metrics.connections_accepted_total.inc();
                Some(Box::new(DispatcherConn {
                    inner: Arc::clone(&factory_inner),
                    outbox: None,
                    enc: Vec::new(),
                    state: ConnState::Handshake,
                }) as Box<dyn ConnHandler>)
            }),
        )?;
        let monitor_inner = Arc::clone(&inner);
        thread::Builder::new()
            .name("jets-monitor".to_string())
            .stack_size(CONN_STACK)
            .spawn(move || monitor_loop(monitor_inner))?;
        Ok(Dispatcher {
            inner,
            addr,
            metrics_server: Mutex::new(None),
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

    /// Start a `/metrics` + `/healthz` HTTP responder on `addr` (port 0
    /// picks an ephemeral port) and return the bound address. The
    /// responder lives until the dispatcher is dropped.
    pub fn serve_metrics(&self, addr: &str) -> io::Result<SocketAddr> {
        let server = jets_obs::serve_metrics(addr, self.inner.metrics.registry())?;
        let local = server.addr();
        *self.metrics_server.lock() = Some(server);
        Ok(local)
    }

    /// Submit one job; returns its identifier.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        self.submit_batch(vec![spec])[0]
    }

    /// Submit many jobs at once. The whole batch is queued under one
    /// acquisition of the scheduling lock and triggers one scheduling
    /// pass, so bulk submission does not serialize per-job against the
    /// worker traffic.
    pub fn submit_all(&self, specs: impl IntoIterator<Item = JobSpec>) -> Vec<JobId> {
        self.submit_batch(specs.into_iter().collect())
    }

    fn submit_batch(&self, specs: Vec<JobSpec>) -> Vec<JobId> {
        let inner = &self.inner;
        let now = Instant::now();
        let mut ids = Vec::with_capacity(specs.len());
        let mut jobs = Vec::with_capacity(specs.len());
        for spec in specs {
            let id = inner.next_job.fetch_add(1, Ordering::Relaxed);
            let trace = mint_trace(inner.trace_seed, id);
            inner.log.record(EventKind::JobSubmitted {
                job: id,
                nodes: spec.nodes,
                ppn: spec.ppn,
            });
            inner
                .log
                .span_start(trace, SpanKind::Submit, WriterRole::Dispatcher, id, 0);
            ids.push(id);
            jobs.push(QueuedJob {
                id,
                spec,
                attempts: 0,
                excluded: Vec::new(),
                submitted_at: now,
                enqueued_at: now,
                trace,
            });
        }
        inner.metrics.jobs_submitted_total.add(jobs.len() as u64);
        // Journal the whole batch (spec + enqueue per job) before any of
        // it becomes externally visible, in one frame batch: one fsync
        // under the `Always` policy, however large the submission.
        if inner.journal.is_some() {
            let mut recs = Vec::with_capacity(jobs.len() * 2);
            for job in &jobs {
                recs.push(Record::Submitted {
                    job: job.id,
                    spec: job.spec.clone(),
                });
                recs.push(Record::Enqueued {
                    job: job.id,
                    attempts: 0,
                });
            }
            journal_append_all(inner, &recs);
        }
        {
            let mut book = inner.book.lock();
            for job in &jobs {
                book.records.insert(
                    job.id,
                    JobRecord {
                        id: job.id,
                        spec: job.spec.clone(),
                        status: JobStatus::Pending,
                        attempts: 0,
                        wall: None,
                        exit_codes: Vec::new(),
                        outputs: Vec::new(),
                    },
                );
            }
            book.outstanding += jobs.len();
        }
        // `book` is released before `sched` is taken: the lock order
        // sched → book must never be reversed.
        let mut st = inner.sched.lock();
        for job in jobs {
            inner.log.span_end(
                job.trace,
                SpanKind::Submit,
                WriterRole::Dispatcher,
                job.id,
                0,
            );
            inner.log.span_start(
                job.trace,
                SpanKind::Queue,
                WriterRole::Dispatcher,
                job.id,
                0,
            );
            st.queue.push(job);
        }
        try_schedule(inner, &mut st);
        ids
    }

    /// Parse and submit a stand-alone input file's jobs.
    pub fn submit_input(&self, text: &str) -> Result<Vec<JobId>, crate::spec::ParseError> {
        let specs = crate::spec::parse_input(text)?;
        Ok(self.submit_all(specs))
    }

    /// Block until no job is queued or running, or `timeout` passes.
    /// Returns true if the system went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut book = self.inner.book.lock();
        loop {
            if book.outstanding == 0 {
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
                    return Some(rec.clone());
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
        self.inner.sched.lock().registry.alive_count()
    }

    /// Total TCP connections accepted so far (direct workers + relays).
    /// With a relay tier this stays at O(relays) however many workers
    /// register behind them.
    pub fn connections_accepted(&self) -> u64 {
        self.inner.accepted.load(Ordering::Relaxed)
    }

    /// Number of currently connected relay daemons.
    pub fn relay_count(&self) -> usize {
        self.inner.sched.lock().relays.len()
    }

    /// The reactor's live counters (connections, wakeups, bytes, slow-
    /// consumer disconnects) — the event-loop core serving every
    /// connection.
    pub fn reactor_stats(&self) -> Arc<ReactorStats> {
        self.reactor.stats()
    }

    /// Number of reactor event-loop threads. The dispatcher's whole
    /// socket-handling thread bill, independent of connection count.
    pub fn reactor_event_loops(&self) -> usize {
        self.reactor.event_loops()
    }

    /// Snapshot of every worker ever registered.
    pub fn workers(&self) -> Vec<crate::registry::WorkerInfo> {
        self.inner.sched.lock().registry.iter().cloned().collect()
    }

    /// Number of jobs queued or running.
    pub fn outstanding(&self) -> usize {
        self.inner.book.lock().outstanding
    }

    /// True while the post-restart reconciliation window is open (no
    /// scheduling; surviving workers are claiming their in-flight tasks).
    pub fn recovering(&self) -> bool {
        self.inner.sched.lock().recovery.is_some()
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
        let Sched {
            conns, relays, enc, ..
        } = &mut *st;
        for conn in conns.values() {
            if let ConnHandle::Direct(out) = conn {
                send_frame(out, enc, &DispatcherMsg::Shutdown);
            }
        }
        for out in relays.values() {
            send_frame(out, enc, &DispatcherMsg::Shutdown);
        }
        drop(st);
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

/// The dispatcher's periodic duties: hang detection (when a heartbeat
/// timeout is configured), per-job deadline enforcement, quarantine
/// release, and bridging reactor counters into the metric surface. One
/// thread, one tick.
fn monitor_loop(inner: Arc<Inner>) {
    let tick = inner.config.monitor_tick.max(Duration::from_millis(1));
    // The reactor's counters are monotonic; remembering the previous
    // sample lets the bridge publish deltas so the jets-obs counters
    // stay monotonic too.
    let mut prev_wakeups = 0u64;
    let mut prev_slow = 0u64;
    // The metrics-bridge cursor: a persistent ring reader whose lap and
    // torn-slot accounting makes an undersized `--flight-recorder` ring
    // visible on /metrics instead of silently overwriting history.
    let mut cursor = inner.log.reader();
    let mut prev_reader = ReaderPrev::default();
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        thread::sleep(tick);
        bridge_reactor_stats(&inner, &mut prev_wakeups, &mut prev_slow);
        bridge_event_log(&inner, &mut cursor, &mut prev_reader);
        // Under the `Interval` fsync policy the monitor tick is the
        // durability clock: one flush per tick, off the hot path.
        if inner.config.fsync_policy == FsyncPolicy::Interval {
            if let Some(j) = &inner.journal {
                if j.sync().is_err() {
                    inner.metrics.journal_errors_total.inc();
                }
            }
        }
        // Hang detection: `stale` reads only the per-worker liveness
        // atomics; the lock is held just long enough to walk the table.
        if let Some(timeout) = inner.config.heartbeat_timeout {
            let stale = {
                let st = inner.sched.lock();
                st.registry.stale(timeout)
            };
            for worker in stale {
                handle_worker_down(&inner, worker);
            }
        }
        let mut st = inner.sched.lock();
        let now = Instant::now();
        // Close the reconciliation window once every orphaned gang is
        // resolved — or the patience budget runs out, whichever is first.
        if st
            .recovery
            .as_ref()
            .is_some_and(|rs| rs.orphans.is_empty() || now >= rs.until)
        {
            reconcile_finish(&inner, &mut st);
        }
        // PMI-barrier span closure: the first fence releases on the PMI
        // server's own thread, so the monitor polls each MPI gang and
        // stamps the pmi-barrier → run boundary within one tick of the
        // release (span pushes are lock-free; holding `sched` is fine).
        for active in st.active.values_mut() {
            if active.pmi_span_open
                && active
                    .pmi
                    .as_ref()
                    .is_some_and(|p| p.first_barrier_at().is_some())
            {
                active.pmi_span_open = false;
                inner.log.span_end(
                    active.trace,
                    SpanKind::PmiBarrier,
                    WriterRole::Dispatcher,
                    active.id,
                    0,
                );
                inner.log.span_start(
                    active.trace,
                    SpanKind::Run,
                    WriterRole::Dispatcher,
                    active.id,
                    0,
                );
            }
        }
        // Deadline enforcement: cancel the whole gang of any attempt that
        // blew its wall-time budget; the failure consumes a retry.
        let expired: Vec<JobId> = st
            .active
            .iter()
            .filter(|(_, a)| a.deadline.is_some_and(|d| now >= d))
            .map(|(&id, _)| id)
            .collect();
        for job in expired {
            inner.log.record(EventKind::DeadlineExceeded { job });
            inner.metrics.deadline_exceeded_total.inc();
            journal_append(&inner, &Record::DeadlineExceeded { job });
            cancel_gang(&inner, &mut st, job, EXIT_DEADLINE, "deadline exceeded");
        }
        // Quarantine release: benched workers whose penalty expired get
        // their held `Request` replayed through the normal park path.
        let mut replayed = false;
        for worker in st.registry.release_expired() {
            if inner.journal.is_some() {
                if let Some(name) = st.registry.get(worker).map(|w| w.name.clone()) {
                    journal_append(&inner, &Record::QuarantineRelease { name });
                }
            }
            if let Some(pos) = st.quarantined_ready.iter().position(|&w| w == worker) {
                st.quarantined_ready.swap_remove(pos);
                inner.pending_ready.lock().push(worker);
                replayed = true;
            }
        }
        if replayed {
            try_schedule(&inner, &mut st);
        }
        // Gauge sampling: the O(workers) counts are refreshed here, once
        // per tick, so the scheduling hot path never walks the registry
        // for metrics' sake (it maintains only the O(1) gauges inline).
        sample_gauges(&inner, &st);
    }
}

/// Refresh every sampled gauge from scheduler state; caller holds the
/// scheduling lock.
fn sample_gauges(inner: &Inner, st: &Sched) {
    let m = &inner.metrics;
    m.queue_depth.set(st.queue.len() as i64);
    m.workers_ready.set(st.ready.len() as i64);
    m.running_gangs.set(st.active.len() as i64);
    m.relays_current.set(st.relays.len() as i64);
    m.workers_alive.set(st.registry.alive_count() as i64);
    m.workers_busy.set(st.registry.busy_count() as i64);
    m.quarantined_current
        .set(st.registry.quarantined_count() as i64);
}

/// Publish the reactor's counters into the metric surface. Lock-free on
/// both sides: reactor stats are atomics, metric handles are atomics.
fn bridge_reactor_stats(inner: &Inner, prev_wakeups: &mut u64, prev_slow: &mut u64) {
    let rs = &inner.reactor_stats;
    let m = &inner.metrics;
    m.reactor_connections.set(rs.connections_open() as i64);
    m.reactor_outbox_high_water_bytes
        .set(rs.outbox_high_water() as i64);
    let wakeups = rs.wakeups();
    m.reactor_wakeups_total
        .add(wakeups.saturating_sub(*prev_wakeups));
    *prev_wakeups = wakeups;
    let slow = rs.slow_consumer_disconnects();
    m.reactor_slow_consumer_disconnects_total
        .add(slow.saturating_sub(*prev_slow));
    *prev_slow = slow;
}

/// Previous samples of the metrics-bridge cursor's monotonic reader
/// counters, so [`bridge_event_log`] can publish deltas and the
/// jets-obs counters stay monotonic too.
#[derive(Default)]
struct ReaderPrev {
    position: u64,
    laps: u64,
    torn: u64,
}

/// Publish the flight recorder's cursors into the metric surface. The
/// metric side is a pure ring *reader*: each tick drains the persistent
/// bridge cursor (copying committed slots, never taking a lock), so
/// `/metrics` scrapes observe the event stream — including how many
/// events the writer overwrote before this reader got to them
/// (`jets_flight_reader_laps_total`) and how many slots were lost
/// mid-copy (`jets_flight_reader_torn_total`) — without ever touching
/// the record path or any scheduling lock.
fn bridge_event_log(inner: &Inner, cursor: &mut EventCursor, prev: &mut ReaderPrev) {
    let m = &inner.metrics;
    while cursor.poll().is_some() {}
    // After a full drain the cursor's position equals the writer's
    // sequence number, so its delta is "events recorded since the last
    // tick" even when the ring lapped us in between.
    let position = cursor.position();
    m.events_recorded_total
        .add(position.saturating_sub(prev.position));
    prev.position = position;
    let laps = cursor.lapped();
    m.flight_reader_laps_total
        .add(laps.saturating_sub(prev.laps));
    prev.laps = laps;
    let torn = cursor.torn();
    m.flight_reader_torn_total
        .add(torn.saturating_sub(prev.torn));
    prev.torn = torn;
    let capacity = inner.log.capacity() as u64;
    m.events_retained.set(position.min(capacity) as i64);
    m.events_capacity.set(capacity as i64);
}

/// What one reactor connection has proven itself to be. The first frame
/// decides: `Register` makes the peer a direct worker, `RelayHello` a
/// relay fronting a block of workers.
enum ConnState {
    /// No handshake frame yet.
    Handshake,
    /// A direct worker's connection.
    Direct {
        worker_id: WorkerId,
        hb: HeartbeatHandle,
    },
    /// A relay's connection. Member liveness handles live here — relay-
    /// local, keyed by global id — so a `BatchedHeartbeat` frame fans
    /// out to N relaxed atomic stores without touching the scheduling
    /// lock: the same cost N direct heartbeats would have paid, on 1/Nth
    /// the connections.
    Relay {
        relay_id: WorkerId,
        members: HashMap<WorkerId, HeartbeatHandle>,
    },
}

/// Protocol state machine for one inbound connection (worker or relay),
/// driven by a reactor event loop. Callbacks run on the loop thread and
/// never block (rule J7): outbound frames are queued on the connection's
/// bounded [`Outbox`], and every inbound frame arrives fully reassembled.
struct DispatcherConn {
    inner: Arc<Inner>,
    outbox: Option<Arc<Outbox>>,
    /// Reusable wire-encode buffer for this connection's own replies
    /// (registration acks); frames sent under the scheduling lock use
    /// `Sched::enc` instead.
    enc: Vec<u8>,
    state: ConnState,
}

impl ConnHandler for DispatcherConn {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        // An unparseable frame is a protocol violation; sever. The
        // close path unwinds whatever state the peer had.
        let Ok(msg) = decode_msg::<WorkerMsg>(frame) else {
            return Flow::Close;
        };
        if matches!(self.state, ConnState::Handshake) {
            self.on_handshake(msg)
        } else if matches!(self.state, ConnState::Direct { .. }) {
            self.on_direct(msg)
        } else {
            self.on_relay(msg)
        }
    }

    fn on_close(&mut self, _reason: CloseReason) {
        match std::mem::replace(&mut self.state, ConnState::Handshake) {
            // The peer never completed a handshake, so there is no
            // state to unwind.
            ConnState::Handshake => {}
            // Socket EOF, error, slow-consumer overflow, and `Goodbye`
            // all converge here: one death, handled exactly once.
            ConnState::Direct { worker_id, hb: _ } => {
                handle_worker_down(&self.inner, worker_id);
            }
            // Relay gone: every worker it still fronted is unreachable.
            // Each death cancels its gang exactly as a direct disconnect
            // would.
            ConnState::Relay { relay_id, members } => {
                {
                    let mut st = self.inner.sched.lock();
                    st.relays.remove(&relay_id);
                }
                self.inner
                    .log
                    .record(EventKind::RelayDown { relay: relay_id });
                for (worker, _) in members {
                    handle_worker_down(&self.inner, worker);
                }
            }
        }
    }
}

impl DispatcherConn {
    /// The handshake: the first frame decides what this peer is.
    fn on_handshake(&mut self, msg: WorkerMsg) -> Flow {
        let Some(outbox) = self.outbox.clone() else {
            return Flow::Close;
        };
        match msg {
            WorkerMsg::Register {
                name,
                cores,
                location,
            } => {
                let worker_id = self.inner.next_worker.fetch_add(1, Ordering::Relaxed);
                let hb = register_worker(
                    &self.inner,
                    worker_id,
                    name,
                    cores,
                    location,
                    None,
                    ConnHandle::Direct(Arc::clone(&outbox)),
                );
                send_frame(
                    &outbox,
                    &mut self.enc,
                    &DispatcherMsg::Registered { worker_id },
                );
                self.state = ConnState::Direct { worker_id, hb };
                Flow::Continue
            }
            WorkerMsg::RelayHello { name, .. } => {
                let relay_id = self.inner.next_worker.fetch_add(1, Ordering::Relaxed);
                {
                    let mut st = self.inner.sched.lock();
                    st.relays.insert(relay_id, Arc::clone(&outbox));
                }
                self.inner
                    .log
                    .record(EventKind::RelayUp { relay: relay_id });
                send_frame(
                    &outbox,
                    &mut self.enc,
                    &DispatcherMsg::Registered {
                        worker_id: relay_id,
                    },
                );
                let _ = name; // diagnostics only (the wire carries it for operators)
                self.state = ConnState::Relay {
                    relay_id,
                    members: HashMap::new(),
                };
                Flow::Continue
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

    /// A frame from a registered direct worker.
    fn on_direct(&mut self, msg: WorkerMsg) -> Flow {
        let ConnState::Direct { worker_id, hb } = &self.state else {
            return Flow::Close;
        };
        let worker_id = *worker_id;
        match msg {
            WorkerMsg::Request => {
                // Park plus a doorbell ring; a burst of `Request`s
                // coalesces into one batched scheduling pass.
                hb.beat();
                self.inner.pending_ready.lock().push(worker_id);
                kick_schedule(&self.inner);
                Flow::Continue
            }
            WorkerMsg::Done {
                task_id,
                exit_code,
                wall_ms,
                output,
                trace: _,
            } => {
                hb.beat();
                handle_done(&self.inner, worker_id, task_id, exit_code, wall_ms, output);
                Flow::Continue
            }
            // The liveness hot path: one relaxed atomic store. A
            // heartbeat storm never touches the scheduling lock.
            WorkerMsg::Heartbeat => {
                hb.beat();
                Flow::Continue
            }
            // Reconciliation: a surviving worker reports the task it is
            // still running from the previous incarnation. A valid claim
            // re-adopts it in place; anything else (unknown task, window
            // already closed, no restart at all) earns a `Cancel` so the
            // worker kills the zombie and rejoins the pool cleanly.
            WorkerMsg::SessionState { running } => {
                hb.beat();
                if let Some((task_id, job_id)) = running {
                    if !recover_claim(&self.inner, worker_id, task_id, job_id) {
                        if let Some(outbox) = &self.outbox {
                            send_frame(outbox, &mut self.enc, &DispatcherMsg::Cancel { task_id });
                        }
                    }
                }
                Flow::Continue
            }
            // `on_close` runs the worker-down path, exactly as EOF would.
            WorkerMsg::Goodbye => Flow::Close,
            // Re-registration or relay-scoped frames on a worker
            // connection are protocol violations; sever.
            WorkerMsg::Register { .. }
            | WorkerMsg::RelayHello { .. }
            | WorkerMsg::RelayRegister { .. }
            | WorkerMsg::RelayRequest { .. }
            | WorkerMsg::RelayDone { .. }
            | WorkerMsg::BatchedHeartbeat { .. }
            | WorkerMsg::RelayWorkerGone { .. }
            | WorkerMsg::RelayMemberState { .. } => Flow::Close,
        }
    }

    /// A frame from a registered relay: a single socket carrying a whole
    /// block's registrations, requests, results, and batched liveness.
    fn on_relay(&mut self, msg: WorkerMsg) -> Flow {
        let ConnState::Relay { relay_id, members } = &mut self.state else {
            return Flow::Close;
        };
        let relay_id = *relay_id;
        match msg {
            WorkerMsg::RelayRegister {
                local,
                name,
                cores,
                location,
            } => {
                let Some(outbox) = &self.outbox else {
                    return Flow::Close;
                };
                let worker_id = self.inner.next_worker.fetch_add(1, Ordering::Relaxed);
                let hb = register_worker(
                    &self.inner,
                    worker_id,
                    name,
                    cores,
                    location,
                    Some(relay_id),
                    ConnHandle::Relayed(Arc::clone(outbox)),
                );
                members.insert(worker_id, hb);
                send_frame(
                    outbox,
                    &mut self.enc,
                    &DispatcherMsg::RelayRegistered { local, worker_id },
                );
                Flow::Continue
            }
            WorkerMsg::RelayRequest { worker } => {
                // Same coalesced park as a direct Request; a relay that
                // routes for a worker it never registered is ignored.
                if let Some(hb) = members.get(&worker) {
                    hb.beat();
                    self.inner.pending_ready.lock().push(worker);
                    kick_schedule(&self.inner);
                }
                Flow::Continue
            }
            WorkerMsg::RelayDone {
                worker,
                task_id,
                exit_code,
                wall_ms,
                output,
                trace: _,
            } => {
                if let Some(hb) = members.get(&worker) {
                    hb.beat();
                    handle_done(&self.inner, worker, task_id, exit_code, wall_ms, output);
                }
                Flow::Continue
            }
            // Batched-liveness ingestion: one frame, N relaxed atomic
            // stores into the same lock-free path direct heartbeats use.
            WorkerMsg::BatchedHeartbeat { workers } => {
                for worker in workers {
                    if let Some(hb) = members.get(&worker) {
                        hb.beat();
                    }
                }
                Flow::Continue
            }
            WorkerMsg::RelayWorkerGone { worker } => {
                if members.remove(&worker).is_some() {
                    handle_worker_down(&self.inner, worker);
                }
                Flow::Continue
            }
            // Reconciliation, relayed: the member's in-flight claim
            // travels in the relay's envelope. Same adopt-or-cancel
            // decision as the direct `SessionState` path.
            WorkerMsg::RelayMemberState {
                worker,
                task_id,
                job_id,
            } => {
                if members.contains_key(&worker)
                    && !recover_claim(&self.inner, worker, task_id, job_id)
                {
                    let Some(outbox) = &self.outbox else {
                        return Flow::Close;
                    };
                    send_frame(
                        outbox,
                        &mut self.enc,
                        &DispatcherMsg::RelayCancel { worker, task_id },
                    );
                }
                Flow::Continue
            }
            // The relay's own keepalive; member liveness arrives batched.
            WorkerMsg::Heartbeat => Flow::Continue,
            // `on_close` unwinds the whole block, exactly as EOF would.
            WorkerMsg::Goodbye => Flow::Close,
            // Direct-worker frames on a relay connection are protocol
            // violations; sever (taking the block down with it).
            WorkerMsg::Register { .. }
            | WorkerMsg::Request
            | WorkerMsg::Done { .. }
            | WorkerMsg::RelayHello { .. }
            | WorkerMsg::SessionState { .. } => Flow::Close,
        }
    }
}

/// Register one worker under the scheduling lock, reachable through
/// `conn`; returns its liveness handle for the caller's reader loop.
fn register_worker(
    inner: &Inner,
    worker_id: WorkerId,
    name: String,
    cores: u32,
    location: String,
    relay: Option<WorkerId>,
    conn: ConnHandle,
) -> HeartbeatHandle {
    let mut st = inner.sched.lock();
    // A name the registry has seen before is a pilot coming back after a
    // disconnect: count it so the fault layer's reconnect behavior is
    // observable from the metrics surface.
    if st.registry.known_name(&name) {
        inner.metrics.reconnects_total.inc();
    }
    let hb = st
        .registry
        .insert_via(worker_id, name, cores, location, relay);
    st.conns.insert(worker_id, conn);
    inner.log.record(EventKind::WorkerUp { worker: worker_id });
    // A name with too many recent gang-kills is admitted benched.
    if let Some(WorkerState::Quarantined { until_ms }) = st.registry.get(worker_id).map(|w| w.state)
    {
        inner.log.record(EventKind::WorkerQuarantined {
            worker: worker_id,
            strikes: st.registry.strikes(worker_id),
            until_ms,
        });
    }
    hb
}

/// Ring the scheduling doorbell. At most one caller becomes the pass
/// owner; everyone else returns immediately, their request absorbed by
/// the owner's next pass. No wakeup can be lost: a `pending_ready` push
/// happens-before its `swap(true)`, and whoever observes that flag runs
/// a pass that drains the queue.
fn kick_schedule(inner: &Inner) {
    if inner.sched_kick.swap(true, Ordering::AcqRel) {
        return; // a pass is already owed; its owner will absorb this kick
    }
    while inner.sched_kick.swap(false, Ordering::AcqRel) {
        let mut st = inner.sched.lock();
        try_schedule(inner, &mut st);
    }
}

/// Move parked `Request`s into the ready list. Only workers
/// still idle enter ([`ReadyList::park`] additionally suppresses
/// duplicates); a worker that died since pushing is skipped, and a
/// quarantined worker's request is *held* in `quarantined_ready` — the
/// monitor replays it when the bench expires, so the worker never has to
/// re-request.
fn drain_parked(inner: &Inner, st: &mut Sched) {
    let parked = std::mem::take(&mut *inner.pending_ready.lock());
    for worker in parked {
        let Sched {
            ready,
            registry,
            quarantined_ready,
            ..
        } = &mut *st;
        if let Some(info) = registry.get(worker) {
            match info.state {
                WorkerState::Idle => {
                    ready.park(worker, info.loc);
                }
                WorkerState::Quarantined { .. } => {
                    if !quarantined_ready.contains(&worker) {
                        quarantined_ready.push(worker);
                    }
                }
                WorkerState::Busy(_) | WorkerState::Dead => {}
            }
        }
    }
}

/// Match queued jobs against parked workers; runs under the scheduling
/// lock. Absorbs every pending `Request` first, so one pass serves a
/// whole burst.
fn try_schedule(inner: &Inner, st: &mut Sched) {
    drain_parked(inner, st);
    // Reconciliation window: no new launches until surviving workers
    // have claimed their in-flight tasks (or the window expires). The
    // drain above still runs, so requests parked meanwhile are ready
    // the instant the window closes.
    if st.recovery.is_some() {
        return;
    }
    // Reuse the chosen-workers buffer across passes (restored on exit).
    let mut chosen = std::mem::take(&mut st.chosen);
    loop {
        chosen.clear();
        let job = {
            let Sched {
                queue,
                ready,
                scratch,
                ..
            } = &mut *st;
            let Some(job) = queue.pick(ready.len()) else {
                break;
            };
            let need = job.spec.nodes as usize;
            // A requeued job first tries a group avoiding the workers its
            // last attempt blames. Best effort: if the pool minus those is
            // too small, the hint is waived and normal selection runs.
            let picked_avoiding =
                !job.excluded.is_empty() && take_excluding(ready, &job.excluded, need, &mut chosen);
            if !picked_avoiding {
                match inner.config.grouping {
                    // FCFS fast path: dequeue the longest-parked workers.
                    GroupingPolicy::Fcfs => ready.take_front(need, &mut chosen),
                    GroupingPolicy::LocationAware => {
                        let found = select_group_ids(
                            GroupingPolicy::LocationAware,
                            ready.entries(),
                            need,
                            scratch,
                        );
                        assert!(found, "queue.pick guaranteed enough ready workers");
                        ready.take_indices(scratch.selected(), &mut chosen);
                    }
                }
            }
            job
        };
        // `chosen` is oldest-request-first == rank order.
        start_job(inner, st, job, &chosen);
    }
    st.chosen = chosen;
    // The O(1) gauges are maintained inline so scrapes between monitor
    // ticks see fresh queue/ready levels; three relaxed stores per
    // *pass* (not per job), invisible to the burst benchmarks.
    let m = &inner.metrics;
    m.queue_depth.set(st.queue.len() as i64);
    m.workers_ready.set(st.ready.len() as i64);
    m.running_gangs.set(st.active.len() as i64);
}

/// Dequeue `need` ready workers, oldest first, skipping `excluded`.
/// Returns `false` — taking nothing — when the non-excluded pool is too
/// small (the caller falls back to normal selection).
fn take_excluding(
    ready: &mut ReadyList,
    excluded: &[WorkerId],
    need: usize,
    out: &mut Vec<WorkerId>,
) -> bool {
    let mut idxs = Vec::with_capacity(need);
    for (i, &(w, _)) in ready.entries().iter().enumerate() {
        if !excluded.contains(&w) {
            idxs.push(i);
            if idxs.len() == need {
                break;
            }
        }
    }
    if idxs.len() < need {
        return false;
    }
    ready.take_indices(&idxs, out);
    true
}

/// Ship a job's tasks to its chosen workers; runs under the scheduling
/// lock (taking `book` briefly for the status flip).
fn start_job(inner: &Inner, st: &mut Sched, job: QueuedJob, workers: &[WorkerId]) {
    let QueuedJob {
        id,
        spec,
        attempts,
        submitted_at,
        enqueued_at,
        trace,
        ..
    } = job;
    inner.log.record(EventKind::JobStarted {
        job: id,
        nodes: spec.nodes,
        ppn: spec.ppn,
    });
    // Queue wait is over; the scheduling decision (group assembly +
    // assignment construction) runs inside the `sched` span.
    inner
        .log
        .span_end(trace, SpanKind::Queue, WriterRole::Dispatcher, id, 0);
    inner
        .log
        .span_start(trace, SpanKind::Sched, WriterRole::Dispatcher, id, 0);
    {
        let mut book = inner.book.lock();
        if let Some(rec) = book.records.get_mut(&id) {
            rec.status = JobStatus::Running;
            rec.attempts = attempts + 1;
        }
    }

    let started = Instant::now();
    let mut active = ActiveJob {
        id,
        spec: spec.clone(),
        attempts: attempts + 1,
        pending: HashMap::new(),
        exit_codes: Vec::new(),
        outputs: Vec::new(),
        any_failure: false,
        failed_workers: Vec::new(),
        pmi: None,
        started,
        submitted_at,
        enqueued_at,
        shipped_at: None,
        deadline: spec
            .deadline_ms
            .map(|ms| started + Duration::from_millis(ms)),
        trace,
        pmi_span_open: false,
    };

    // Build one assignment per worker.
    let assignments: Vec<(WorkerId, TaskAssignment)> = if spec.is_mpi() {
        let pmi_jobid = format!("jets-job-{id}");
        let mut pmi_config = PmiServerConfig::new(&pmi_jobid, spec.size());
        pmi_config.fence_timeout = inner.config.pmi_fence_timeout;
        let pmi = match PmiServer::start(pmi_config) {
            Ok(s) => s,
            Err(e) => {
                // Could not bind a PMI server: fail the job outright and
                // put the workers back in the ready pool (nothing was
                // shipped, so they are all still idle).
                for &w in workers {
                    let loc = st.registry.get(w).map(|i| i.loc).unwrap_or(0);
                    st.ready.park(w, loc);
                }
                inner
                    .log
                    .span_end(trace, SpanKind::Sched, WriterRole::Dispatcher, id, 0);
                finish_failed_unstarted(
                    inner,
                    id,
                    spec.nodes,
                    spec.ppn,
                    &format!("pmi server: {e}"),
                );
                return;
            }
        };
        let layout = RankLayout {
            nodes: spec.nodes,
            ppn: spec.ppn,
        };
        let proxies = ManualLauncher.proxy_commands(&pmi_jobid, layout, &pmi.addr().to_string());
        active.pmi = Some(pmi);
        workers
            .iter()
            .zip(proxies)
            .map(|(&w, proxy)| {
                let task_id = inner.next_task.fetch_add(1, Ordering::Relaxed);
                (
                    w,
                    TaskAssignment {
                        task_id,
                        job_id: id,
                        kind: TaskKind::MpiProxy {
                            cmd: spec.cmd.clone(),
                            ranks: proxy.ranks,
                            size: proxy.size,
                            pmi_addr: proxy.pmi_addr,
                            pmi_jobid: proxy.jobid,
                        },
                        stage: spec.stage.clone(),
                        trace,
                    },
                )
            })
            .collect()
    } else {
        let worker = workers[0];
        let task_id = inner.next_task.fetch_add(1, Ordering::Relaxed);
        vec![(
            worker,
            TaskAssignment {
                task_id,
                job_id: id,
                kind: TaskKind::Sequential {
                    cmd: spec.cmd.clone(),
                },
                stage: spec.stage.clone(),
                trace,
            },
        )]
    };

    // The attempt is journaled before any assignment reaches a wire:
    // a crash after this record replays with the full gang as orphans.
    if inner.journal.is_some() {
        journal_append(
            inner,
            &Record::Assigned {
                job: id,
                attempt: attempts + 1,
                tasks: assignments.iter().map(|(w, a)| (*w, a.task_id)).collect(),
            },
        );
    }

    // Assignments built: the `sched` span ends and `ship` covers the
    // send loop putting them on the wire.
    inner
        .log
        .span_end(trace, SpanKind::Sched, WriterRole::Dispatcher, id, 0);
    inner
        .log
        .span_start(trace, SpanKind::Ship, WriterRole::Dispatcher, id, 0);
    for (worker, assignment) in assignments {
        let task_id = assignment.task_id;
        st.tasks.insert(task_id, id);
        st.registry.mark_busy(worker, id);
        active.pending.insert(worker, task_id);
        inner.metrics.tasks_started_total.inc();
        inner.log.record(EventKind::TaskStarted {
            task: task_id,
            job: id,
            worker,
            ranks: spec.ppn,
        });
        let delivered = {
            let Sched { conns, enc, .. } = &mut *st;
            conns
                .get(&worker)
                .map(|conn| conn.send_assign(worker, assignment, enc))
                .unwrap_or(false)
        };
        if !delivered {
            // The worker vanished between parking and assignment; treat
            // its task as failed immediately.
            st.tasks.remove(&task_id);
            inner.log.record(EventKind::TaskEnded {
                task: task_id,
                job: id,
                worker,
                ranks: spec.ppn,
                exit_code: EXIT_UNDELIVERABLE,
                trace,
            });
            journal_append(
                inner,
                &Record::TaskEnded {
                    job: id,
                    task: task_id,
                    exit_code: EXIT_UNDELIVERABLE,
                },
            );
            active.pending.remove(&worker);
            active.any_failure = true;
            active.failed_workers.push(worker);
            active.exit_codes.push(EXIT_UNDELIVERABLE);
        }
    }

    active.shipped_at = Some(Instant::now());
    inner
        .log
        .span_end(trace, SpanKind::Ship, WriterRole::Dispatcher, id, 0);
    // What follows shipping: MPI gangs converge on the first PMI fence
    // (`pmi-barrier`, closed by the monitor when the fence releases);
    // everything else is straight into `run`.
    if active.pmi.is_some() {
        active.pmi_span_open = true;
        inner
            .log
            .span_start(trace, SpanKind::PmiBarrier, WriterRole::Dispatcher, id, 0);
    } else {
        inner
            .log
            .span_start(trace, SpanKind::Run, WriterRole::Dispatcher, id, 0);
    }

    if active.pending.is_empty() {
        // Everything failed to deliver.
        finish_job(inner, st, active);
    } else if active.any_failure {
        // Part of the gang is unreachable. The delivered members would
        // block on the PMI fence until its timeout, so tear the gang down
        // now; the failure requeues through the normal retry path.
        st.active.insert(id, active);
        cancel_gang(
            inner,
            st,
            id,
            EXIT_CANCELED,
            "peer assignment undeliverable",
        );
    } else {
        st.active.insert(id, active);
    }
}

/// A worker reported a task result.
fn handle_done(
    inner: &Inner,
    worker: WorkerId,
    task_id: TaskId,
    exit_code: i32,
    _wall_ms: u64,
    output: Option<String>,
) {
    let mut st = inner.sched.lock();
    st.registry.mark_idle(worker);
    let Some(job_id) = st.tasks.remove(&task_id) else {
        return; // stale report for an already-failed job
    };
    // During the reconciliation window, a result for an orphaned task
    // resolves its claim implicitly: the worker finished the work
    // instead of re-adopting it mid-flight. Strike it off so the window
    // close does not cancel-and-requeue a job that actually completed.
    if let Some(rs) = st.recovery.as_mut() {
        if let Some(tasks) = rs.orphans.get_mut(&job_id) {
            tasks.retain(|&t| t != task_id);
            if tasks.is_empty() {
                rs.orphans.remove(&job_id);
            }
        }
    }
    let Some(active) = st.active.get_mut(&job_id) else {
        return;
    };
    let (ppn, job) = (active.spec.ppn, active.id);
    inner.metrics.tasks_ended_total.inc();
    inner.log.record(EventKind::TaskEnded {
        task: task_id,
        job,
        worker,
        ranks: ppn,
        exit_code,
        trace: active.trace,
    });
    journal_append(
        inner,
        &Record::TaskEnded {
            job,
            task: task_id,
            exit_code,
        },
    );
    // An orphaned task reported by a worker that never sent a claim is
    // still keyed under the dead incarnation's worker id; fall back to
    // removal by task id (the stable key) so the gang can drain.
    if active.pending.remove(&worker).is_none() {
        active.pending.retain(|_, &mut t| t != task_id);
    }
    active.exit_codes.push(exit_code);
    if let Some(text) = output {
        // The final hop of the paper's output path: "into a file".
        if let Some(dir) = &inner.config.stdout_dir {
            let path = dir.join(format!("job{job_id}.task{task_id}.out"));
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(path, &text);
        }
        active.outputs.push(text);
    }
    if exit_code != 0 {
        active.any_failure = true;
        active.failed_workers.push(worker);
    }
    if active.pending.is_empty() {
        // `get_mut` above proved the entry exists, but structure the
        // removal so a future refactor can't turn this into a panic on
        // a peer-driven path.
        if let Some(active) = st.active.remove(&job_id) {
            finish_job(inner, &mut st, active);
        }
    }
}

/// A worker's connection dropped (or it was declared hung).
fn handle_worker_down(inner: &Inner, worker: WorkerId) {
    let mut st = inner.sched.lock();
    // Idempotence: the monitor and the reader can both call this.
    let already_dead = st
        .registry
        .get(worker)
        .map(|w| w.state == crate::registry::WorkerState::Dead)
        .unwrap_or(true);
    if already_dead {
        return;
    }
    let inflight_job = st.registry.mark_dead(worker);
    st.conns.remove(&worker);
    st.ready.remove(worker);
    st.quarantined_ready.retain(|&w| w != worker);
    inner.log.record(EventKind::WorkerDown { worker });

    if let Some(job_id) = inflight_job {
        // Dying mid-gang is a strike; enough strikes and the name's next
        // registration is admitted quarantined.
        st.registry.record_fault(worker);
        if inner.journal.is_some() {
            if let Some(name) = st.registry.get(worker).map(|w| w.name.clone()) {
                journal_append(inner, &Record::QuarantineStrike { name });
            }
        }
        if let Some(mut active) = st.active.remove(&job_id) {
            active.any_failure = true;
            active.failed_workers.push(worker);
            if let Some(task) = active.pending.remove(&worker) {
                st.tasks.remove(&task);
                inner.log.record(EventKind::TaskEnded {
                    task,
                    job: job_id,
                    worker,
                    ranks: active.spec.ppn,
                    exit_code: EXIT_WORKER_LOST,
                    trace: active.trace,
                });
                journal_append(
                    inner,
                    &Record::TaskEnded {
                        job: job_id,
                        task,
                        exit_code: EXIT_WORKER_LOST,
                    },
                );
                active.exit_codes.push(EXIT_WORKER_LOST);
            }
            if active.pending.is_empty() {
                finish_job(inner, &mut st, active);
            } else {
                // Survivors would hang at the PMI fence until its timeout;
                // tear the whole gang down so the job requeues promptly.
                st.active.insert(job_id, active);
                cancel_gang(
                    inner,
                    &mut st,
                    job_id,
                    EXIT_CANCELED,
                    &format!("worker {worker} died"),
                );
            }
        }
    }
    try_schedule(inner, &mut st);
}

/// Tear down a running gang: abort its PMI server (unblocking ranks stuck
/// at a fence), send `Cancel` to every worker still pending, and finish
/// the job as failed — which requeues it if retry budget remains.
///
/// Survivors are *not* added to `failed_workers`: only the worker that
/// triggered the teardown (dead, unreachable, or nonzero-exit) is blamed,
/// and a deadline cancel blames nobody. Each survivor's eventual `Done`
/// arrives as a stale report: `handle_done` marks the worker idle and
/// drops it, so canceled workers rejoin the pool on their next `Request`.
fn cancel_gang(inner: &Inner, st: &mut Sched, job_id: JobId, exit_code: i32, reason: &str) {
    let Some(mut active) = st.active.remove(&job_id) else {
        return;
    };
    if let Some(pmi) = &active.pmi {
        pmi.abort(reason);
    }
    let pending = std::mem::take(&mut active.pending);
    let mut recs = Vec::with_capacity(if inner.journal.is_some() {
        pending.len()
    } else {
        0
    });
    for (&worker, &task) in &pending {
        st.tasks.remove(&task);
        {
            let Sched { conns, enc, .. } = &mut *st;
            if let Some(conn) = conns.get(&worker) {
                conn.send_cancel(worker, task, enc);
            }
        }
        inner.log.record(EventKind::TaskEnded {
            task,
            job: job_id,
            worker,
            ranks: active.spec.ppn,
            exit_code,
            trace: active.trace,
        });
        if inner.journal.is_some() {
            recs.push(Record::TaskEnded {
                job: job_id,
                task,
                exit_code,
            });
        }
        active.exit_codes.push(exit_code);
    }
    journal_append_all(inner, &recs);
    active.any_failure = true;
    finish_job(inner, st, active);
}

/// A job finished (all participants accounted for). Requeue or record.
/// Runs under the scheduling lock; record updates take `book` briefly
/// (lock order sched → book).
fn finish_job(inner: &Inner, st: &mut Sched, mut active: ActiveJob) {
    let success = !active.any_failure;
    let done = Instant::now();
    let wall = active.started.elapsed();
    let trace = active.trace;
    // Close the execution spans. A gang torn down before its first
    // fence release still has `pmi-barrier` open: close it here with a
    // zero-length `run` so every finished job's span chain terminates.
    if active.pmi_span_open {
        active.pmi_span_open = false;
        inner.log.span_end(
            trace,
            SpanKind::PmiBarrier,
            WriterRole::Dispatcher,
            active.id,
            0,
        );
        inner
            .log
            .span_start(trace, SpanKind::Run, WriterRole::Dispatcher, active.id, 0);
    }
    inner
        .log
        .span_end(trace, SpanKind::Run, WriterRole::Dispatcher, active.id, 0);
    // Drop the PMI server; abort it first if the job failed so lingering
    // ranks unblock promptly.
    if let Some(pmi) = &active.pmi {
        if !success {
            pmi.abort("job failed");
        }
    }
    inner.log.record(EventKind::JobCompleted {
        job: active.id,
        nodes: active.spec.nodes,
        ppn: active.spec.ppn,
        success,
    });
    let retry = !success && active.attempts <= active.spec.max_retries;
    if retry {
        inner.metrics.jobs_requeued_total.inc();
        inner.log.record(EventKind::JobRequeued { job: active.id });
        journal_append(
            inner,
            &Record::Requeued {
                job: active.id,
                attempts: active.attempts,
            },
        );
        {
            let mut book = inner.book.lock();
            if let Some(rec) = book.records.get_mut(&active.id) {
                rec.status = JobStatus::Pending;
                rec.wall = Some(wall);
                rec.exit_codes = std::mem::take(&mut active.exit_codes);
                rec.outputs = std::mem::take(&mut active.outputs);
            }
        }
        let mut excluded = active.failed_workers;
        excluded.sort_unstable();
        excluded.dedup();
        // The trace survives the requeue with the job; the next attempt
        // opens a fresh queue span under the same trace id.
        inner
            .log
            .span_start(trace, SpanKind::Queue, WriterRole::Dispatcher, active.id, 0);
        st.queue.push_front(QueuedJob {
            id: active.id,
            spec: active.spec,
            attempts: active.attempts,
            excluded,
            // The end-to-end epoch survives the requeue; the queue-wait
            // epoch restarts now.
            submitted_at: active.submitted_at,
            enqueued_at: done,
            trace,
        });
        // outstanding unchanged: the job is still in flight.
    } else {
        inner.log.span_start(
            trace,
            SpanKind::Report,
            WriterRole::Dispatcher,
            active.id,
            0,
        );
        record_job_phases(inner, &active, done);
        inner.metrics.jobs_completed_total.inc();
        if !success {
            inner.metrics.jobs_failed_total.inc();
        }
        journal_append(
            inner,
            &Record::Finished {
                job: active.id,
                success,
            },
        );
        let mut book = inner.book.lock();
        if let Some(rec) = book.records.get_mut(&active.id) {
            rec.status = if success {
                JobStatus::Succeeded
            } else {
                JobStatus::Failed
            };
            rec.wall = Some(wall);
            rec.exit_codes = std::mem::take(&mut active.exit_codes);
            rec.outputs = std::mem::take(&mut active.outputs);
        }
        job_ended(inner, book, active.id);
        inner.log.span_end(
            trace,
            SpanKind::Report,
            WriterRole::Dispatcher,
            active.id,
            0,
        );
    }
    try_schedule(inner, st);
}

/// Mint a job's 64-bit trace id: the job id mixed with the dispatcher's
/// startup wall-clock seed through a splitmix64 finalizer. Ids are
/// unique within an incarnation by construction (distinct job ids),
/// collision-resistant across incarnations sharing flight files (the
/// seed differs), and never zero — zero is the "untraced" sentinel old
/// peers' frames decode to.
fn mint_trace(seed: u64, job: JobId) -> u64 {
    splitmix64(seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
}

/// Microseconds from `a` to `b`, saturating to zero if the clock reads
/// backwards across threads (spans must stay monotone, never panic).
fn micros_between(a: Instant, b: Instant) -> u64 {
    b.checked_duration_since(a).unwrap_or_default().as_micros() as u64
}

/// Stamp the finished job's lifecycle breakdown into the phase
/// histograms and the event log (`EventKind::JobPhases`).
///
/// Phase boundaries, in order: `enqueued_at` (this attempt entered the
/// queue) → `started` (group assembled) → `shipped_at` (assignments on
/// the wire) → first PMI fence release (MPI jobs only) → `done`. The
/// `total` phase alone uses `submitted_at`, which predates any requeues.
fn record_job_phases(inner: &Inner, active: &ActiveJob, done: Instant) {
    let m = &inner.metrics;
    let shipped = active.shipped_at.unwrap_or(active.started);
    let queue_us = micros_between(active.enqueued_at, active.started);
    let launch_us = micros_between(active.started, shipped);
    let barrier = active.pmi.as_ref().and_then(|p| p.first_barrier_at());
    let pmi_us = barrier.map(|b| micros_between(shipped, b));
    let run_us = micros_between(barrier.unwrap_or(shipped), done);
    let total_us = micros_between(active.submitted_at, done);
    m.phase_queue.record(queue_us);
    m.phase_launch.record(launch_us);
    if let Some(us) = pmi_us {
        m.phase_pmi.record(us);
    }
    m.phase_run.record(run_us);
    m.phase_total.record(total_us);
    inner.log.record(EventKind::JobPhases {
        job: active.id,
        nodes: active.spec.nodes,
        queue_us,
        launch_us,
        pmi_us,
        run_us,
        total_us,
    });
}

/// Fail a job that never shipped (e.g. PMI bind failure). The caller
/// holds the scheduling lock; only `book` is touched here.
fn finish_failed_unstarted(inner: &Inner, id: JobId, nodes: u32, ppn: u32, _reason: &str) {
    inner.metrics.jobs_completed_total.inc();
    inner.metrics.jobs_failed_total.inc();
    inner.log.record(EventKind::JobCompleted {
        job: id,
        nodes,
        ppn,
        success: false,
    });
    journal_append(
        inner,
        &Record::Finished {
            job: id,
            success: false,
        },
    );
    let mut book = inner.book.lock();
    if let Some(rec) = book.records.get_mut(&id) {
        rec.status = JobStatus::Failed;
    }
    job_ended(inner, book, id);
}

/// Append one record to the configured journal (no-op without one).
/// Append failures are counted and swallowed: the dispatcher keeps
/// serving, recovery fidelity past that point is degraded but replay
/// still converges on the journal's valid prefix.
fn journal_append(inner: &Inner, rec: &Record) {
    journal_append_all(inner, std::slice::from_ref(rec));
}

/// Batch variant of [`journal_append`]: one lock, one write, and (under
/// the `Always` policy) one fsync for the whole slice.
fn journal_append_all(inner: &Inner, recs: &[Record]) {
    if recs.is_empty() {
        return;
    }
    let Some(j) = &inner.journal else {
        return;
    };
    // A killed dispatcher must not touch the file again: the journal
    // now belongs to the successor the kill is simulating.
    if inner.killed.load(Ordering::Acquire) {
        return;
    }
    match j.append_all(recs) {
        Ok(()) => inner.metrics.journal_records_total.add(recs.len() as u64),
        Err(_) => inner.metrics.journal_errors_total.inc(),
    }
}

/// Rebuild scheduler and bookkeeping state from a replayed journal.
/// Runs at startup, before the listener accepts its first connection,
/// so every lock here is uncontended.
///
/// Queued jobs go straight back on the queue. An in-flight *sequential*
/// gang becomes an orphan: its `ActiveJob` is reconstructed with the
/// pending map still keyed by the dead incarnation's worker ids, and
/// the reconciliation window decides whether surviving workers re-claim
/// the tasks (matched by task id — the stable key) or the job is
/// cancelled and requeued. An in-flight *MPI* gang is requeued
/// immediately: its PMI server died with the old process, so the
/// attempt cannot be salvaged. A gang whose every member had already
/// reported success is completed in place — the crash merely ate the
/// `Finished` record — and anything else is requeued with the crashed
/// attempt refunded (the dispatcher failed, not the job).
fn recover_populate(inner: &Inner, rec: journal::Recovered) {
    use crate::journal::RecoveredPhase;
    inner.next_job.store(rec.next_job, Ordering::Release);
    inner.next_task.store(rec.next_task, Ordering::Release);
    inner
        .metrics
        .journal_replayed_jobs
        .set(rec.jobs.len() as i64);
    let now = Instant::now();
    let mut synthesized: Vec<Record> = Vec::new();
    let mut orphans: HashMap<JobId, Vec<TaskId>> = HashMap::new();
    let mut records: Vec<JobRecord> = Vec::new();
    let mut outstanding = 0usize;
    let mut st = inner.sched.lock();
    for (name, strikes) in &rec.strikes {
        st.registry.seed_strikes(name, *strikes);
    }
    for job in rec.jobs {
        let id = job.id;
        match job.phase {
            RecoveredPhase::Queued => {
                records.push(JobRecord {
                    id,
                    spec: job.spec.clone(),
                    status: JobStatus::Pending,
                    attempts: job.attempts,
                    wall: None,
                    exit_codes: Vec::new(),
                    outputs: Vec::new(),
                });
                outstanding += 1;
                st.queue.push(QueuedJob {
                    id,
                    spec: job.spec,
                    attempts: job.attempts,
                    excluded: Vec::new(),
                    submitted_at: now,
                    enqueued_at: now,
                    // Traces are not journaled; a recovered job gets a
                    // fresh id for the successor's span chain.
                    trace: mint_trace(inner.trace_seed, id),
                });
            }
            RecoveredPhase::Active { tasks, ended } => {
                let all_succeeded =
                    tasks.is_empty() && !ended.is_empty() && ended.iter().all(|&c| c == 0);
                if all_succeeded {
                    // The crash fell between the last task report and
                    // the terminal record: finish, don't re-run.
                    inner.metrics.jobs_completed_total.inc();
                    synthesized.push(Record::Finished {
                        job: id,
                        success: true,
                    });
                    records.push(JobRecord {
                        id,
                        spec: job.spec,
                        status: JobStatus::Succeeded,
                        attempts: job.attempts,
                        wall: None,
                        exit_codes: ended,
                        outputs: Vec::new(),
                    });
                } else if tasks.is_empty() || job.spec.is_mpi() {
                    // Unsalvageable attempt (failed gang mid-finish, or
                    // MPI whose PMI server died with the old process):
                    // requeue with the crashed attempt refunded.
                    let attempts = job.attempts.saturating_sub(1);
                    inner.metrics.jobs_requeued_total.inc();
                    inner.log.record(EventKind::JobRequeued { job: id });
                    synthesized.push(Record::Requeued { job: id, attempts });
                    records.push(JobRecord {
                        id,
                        spec: job.spec.clone(),
                        status: JobStatus::Pending,
                        attempts,
                        wall: None,
                        exit_codes: Vec::new(),
                        outputs: Vec::new(),
                    });
                    outstanding += 1;
                    st.queue.push_front(QueuedJob {
                        id,
                        spec: job.spec,
                        attempts,
                        excluded: Vec::new(),
                        submitted_at: now,
                        enqueued_at: now,
                        trace: mint_trace(inner.trace_seed, id),
                    });
                } else {
                    // Orphaned sequential gang: park it as an active job
                    // and let the reconciliation window decide.
                    let mut pending = HashMap::new();
                    for &(w, t) in &tasks {
                        pending.insert(w, t);
                        st.tasks.insert(t, id);
                    }
                    let any_failure = ended.iter().any(|&c| c != 0);
                    st.active.insert(
                        id,
                        ActiveJob {
                            id,
                            spec: job.spec.clone(),
                            attempts: job.attempts,
                            pending,
                            exit_codes: ended,
                            outputs: Vec::new(),
                            any_failure,
                            failed_workers: Vec::new(),
                            pmi: None,
                            started: now,
                            deadline: job
                                .spec
                                .deadline_ms
                                .map(|ms| now + Duration::from_millis(ms)),
                            submitted_at: now,
                            enqueued_at: now,
                            shipped_at: Some(now),
                            trace: mint_trace(inner.trace_seed, id),
                            pmi_span_open: false,
                        },
                    );
                    orphans.insert(id, tasks.iter().map(|&(_, t)| t).collect());
                    records.push(JobRecord {
                        id,
                        spec: job.spec,
                        status: JobStatus::Running,
                        attempts: job.attempts,
                        wall: None,
                        exit_codes: Vec::new(),
                        outputs: Vec::new(),
                    });
                    outstanding += 1;
                }
            }
        }
    }
    if !orphans.is_empty() {
        st.recovery = Some(RecoveryState {
            until: now + inner.config.reconcile_window,
            orphans,
        });
    }
    sample_gauges(inner, &st);
    drop(st);
    {
        let mut book = inner.book.lock();
        for r in records {
            book.records.insert(r.id, r);
        }
        book.outstanding += outstanding;
    }
    journal_append_all(inner, &synthesized);
}

/// A surviving worker (or relay member) claims the in-flight task it
/// kept running across the dispatcher restart. A valid claim re-keys
/// the orphaned gang entry from the dead incarnation's worker id to the
/// live one and marks the worker busy; the gang counts as re-adopted
/// once its last member claims. Returns false when there is nothing to
/// claim (unknown task, window closed, or no restart happened) — the
/// caller answers with a cancel so the worker kills the zombie.
fn recover_claim(inner: &Inner, worker: WorkerId, task: TaskId, job: JobId) -> bool {
    let mut st = inner.sched.lock();
    let adopted = {
        let Some(rs) = st.recovery.as_mut() else {
            return false;
        };
        let Some(tasks) = rs.orphans.get_mut(&job) else {
            return false;
        };
        let Some(pos) = tasks.iter().position(|&t| t == task) else {
            return false;
        };
        tasks.swap_remove(pos);
        if tasks.is_empty() {
            rs.orphans.remove(&job);
            true
        } else {
            false
        }
    };
    if let Some(active) = st.active.get_mut(&job) {
        let old = active
            .pending
            .iter()
            .find_map(|(&w, &t)| (t == task).then_some(w));
        if let Some(old) = old {
            active.pending.remove(&old);
        }
        active.pending.insert(worker, task);
    }
    st.ready.remove(worker);
    st.registry.mark_busy(worker, job);
    if adopted {
        inner.metrics.gangs_readopted_total.inc();
        inner.log.record(EventKind::GangReadopted { job });
        // Every orphan resolved: close the window early and resume.
        if st.recovery.as_ref().is_some_and(|rs| rs.orphans.is_empty()) {
            reconcile_finish(inner, &mut st);
        }
    }
    true
}

/// Close the reconciliation window: cancel-and-requeue every orphaned
/// gang that went unclaimed (or only partially claimed), then resume
/// scheduling. Runs under the scheduling lock.
fn reconcile_finish(inner: &Inner, st: &mut Sched) {
    let Some(rs) = st.recovery.take() else {
        return;
    };
    for (job, _unclaimed) in rs.orphans {
        reconcile_requeue(inner, st, job);
    }
    try_schedule(inner, st);
}

/// Tear down one orphaned gang the window could not fully reconcile:
/// cancel whatever members did claim, and put the job back at the queue
/// front with the crashed attempt refunded — the dispatcher failed, the
/// job did nothing wrong, so no retry budget is charged and no
/// `JobCompleted` is recorded.
fn reconcile_requeue(inner: &Inner, st: &mut Sched, job: JobId) {
    let Some(mut active) = st.active.remove(&job) else {
        return;
    };
    let pending = std::mem::take(&mut active.pending);
    for (&worker, &task) in &pending {
        st.tasks.remove(&task);
        let Sched { conns, enc, .. } = &mut *st;
        if let Some(conn) = conns.get(&worker) {
            conn.send_cancel(worker, task, enc);
        }
    }
    let attempts = active.attempts.saturating_sub(1);
    inner.metrics.jobs_requeued_total.inc();
    inner.log.record(EventKind::JobRequeued { job });
    journal_append(inner, &Record::Requeued { job, attempts });
    {
        let mut book = inner.book.lock();
        if let Some(rec) = book.records.get_mut(&job) {
            rec.status = JobStatus::Pending;
            rec.attempts = attempts;
        }
    }
    inner.log.span_start(
        active.trace,
        SpanKind::Queue,
        WriterRole::Dispatcher,
        job,
        0,
    );
    st.queue.push_front(QueuedJob {
        id: job,
        spec: active.spec,
        attempts,
        excluded: Vec::new(),
        submitted_at: active.submitted_at,
        enqueued_at: Instant::now(),
        trace: active.trace,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_msg, write_msg};
    use crate::spec::CommandSpec;
    use std::io::BufReader;

    /// A minimal raw-protocol worker for exercising the dispatcher
    /// without depending on the jets-worker crate: executes builtin
    /// "ok" (exit 0), "fail" (exit 1), and "mpi-ok" (PMI handshake) apps.
    fn raw_worker(addr: SocketAddr, tasks_to_run: usize) -> thread::JoinHandle<usize> {
        thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            // `Done` then `Request` are two small writes: Nagle would
            // hold the second for the first one's delayed ACK.
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            write_msg(
                &mut writer,
                &WorkerMsg::Register {
                    name: "raw".into(),
                    cores: 1,
                    location: "test".into(),
                },
            )
            .unwrap();
            let Some(DispatcherMsg::Registered { .. }) = read_msg(&mut reader).unwrap() else {
                panic!("expected Registered");
            };
            let mut done = 0;
            for _ in 0..tasks_to_run {
                write_msg(&mut writer, &WorkerMsg::Request).unwrap();
                match read_msg::<DispatcherMsg>(&mut reader).unwrap() {
                    Some(DispatcherMsg::Assign(a)) => {
                        let exit = run_assignment(&a);
                        write_msg(
                            &mut writer,
                            &WorkerMsg::Done {
                                task_id: a.task_id,
                                exit_code: exit,
                                wall_ms: 1,
                                output: None,
                                trace: a.trace,
                            },
                        )
                        .unwrap();
                        done += 1;
                    }
                    Some(DispatcherMsg::Shutdown) | None => break,
                    other => panic!("unexpected: {other:?}"),
                }
            }
            write_msg(&mut writer, &WorkerMsg::Goodbye).ok();
            done
        })
    }

    fn run_assignment(a: &TaskAssignment) -> i32 {
        match &a.kind {
            TaskKind::Sequential { cmd } => match cmd.name() {
                "ok" => 0,
                "fail" => 1,
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
                0
            }
        }
    }

    fn dispatcher() -> Dispatcher {
        Dispatcher::start(DispatcherConfig::default()).unwrap()
    }

    const WAIT: Duration = Duration::from_secs(30);

    #[test]
    fn sequential_job_runs_to_success() {
        let d = dispatcher();
        let w = raw_worker(d.addr(), 1);
        let id = d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![])));
        assert!(d.wait_idle(WAIT));
        let rec = d.job_record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Succeeded);
        assert_eq!(rec.exit_codes, vec![0]);
        d.shutdown();
        assert_eq!(w.join().unwrap(), 1);
    }

    #[test]
    fn failing_job_is_recorded_failed() {
        let d = dispatcher();
        let _w = raw_worker(d.addr(), 1);
        let id = d.submit(JobSpec::sequential(CommandSpec::builtin("fail", vec![])));
        assert!(d.wait_idle(WAIT));
        let rec = d.job_record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Failed);
        assert_eq!(rec.exit_codes, vec![1]);
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
        d.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn many_sequential_jobs_complete() {
        let d = dispatcher();
        let workers: Vec<_> = (0..4).map(|_| raw_worker(d.addr(), 25)).collect();
        let ids =
            d.submit_all((0..100).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        d.shutdown();
        let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn job_larger_than_pool_waits_until_workers_arrive() {
        let d = dispatcher();
        let id = d.submit(JobSpec::mpi(2, CommandSpec::builtin("mpi", vec![])));
        // Nothing can run yet.
        assert!(!d.wait_idle(Duration::from_millis(50)));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Pending);
        let w1 = raw_worker(d.addr(), 1);
        let w2 = raw_worker(d.addr(), 1);
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        w1.join().unwrap();
        w2.join().unwrap();
    }

    #[test]
    fn worker_death_requeues_job_with_retries() {
        let d = dispatcher();
        // First worker registers, requests, then hangs up without running
        // anything (simulating death after assignment).
        let addr = d.addr();
        let killer = thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            write_msg(
                &mut writer,
                &WorkerMsg::Register {
                    name: "doomed".into(),
                    cores: 1,
                    location: "test".into(),
                },
            )
            .unwrap();
            let _: Option<DispatcherMsg> = read_msg(&mut reader).unwrap();
            write_msg(&mut writer, &WorkerMsg::Request).unwrap();
            // Wait for the assignment, then die.
            let _: Option<DispatcherMsg> = read_msg(&mut reader).unwrap();
            drop(writer);
        });
        let id = d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![])).with_retries(2));
        killer.join().unwrap();
        // A healthy worker picks up the requeued job.
        let w = raw_worker(d.addr(), 1);
        assert!(d.wait_idle(WAIT));
        let rec = d.job_record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Succeeded);
        assert!(rec.attempts >= 2, "attempts = {}", rec.attempts);
        d.shutdown();
        w.join().unwrap();
    }

    #[test]
    fn worker_death_without_retries_fails_job() {
        let d = dispatcher();
        let addr = d.addr();
        let killer = thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            write_msg(
                &mut writer,
                &WorkerMsg::Register {
                    name: "doomed".into(),
                    cores: 1,
                    location: "test".into(),
                },
            )
            .unwrap();
            let _: Option<DispatcherMsg> = read_msg(&mut reader).unwrap();
            write_msg(&mut writer, &WorkerMsg::Request).unwrap();
            let _: Option<DispatcherMsg> = read_msg(&mut reader).unwrap();
        });
        let id = d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![])));
        killer.join().unwrap();
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Failed);
    }

    #[test]
    fn event_log_tells_the_story() {
        let d = dispatcher();
        let _w = raw_worker(d.addr(), 1);
        d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![])));
        assert!(d.wait_idle(WAIT));
        let events = d.events().snapshot();
        let kinds: Vec<&'static str> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::WorkerUp { .. } => "up",
                EventKind::JobSubmitted { .. } => "submit",
                EventKind::JobStarted { .. } => "start",
                EventKind::TaskStarted { .. } => "tstart",
                EventKind::TaskEnded { .. } => "tend",
                EventKind::JobCompleted { .. } => "complete",
                _ => "other",
            })
            .collect();
        assert!(kinds.contains(&"up"));
        assert!(kinds.contains(&"submit"));
        assert!(kinds.contains(&"tstart"));
        assert!(kinds.contains(&"tend"));
        assert!(kinds.contains(&"complete"));
        // Submission precedes start precedes task end.
        let pos = |k: &str| kinds.iter().position(|&x| x == k).unwrap();
        assert!(pos("submit") < pos("start"));
        assert!(pos("tstart") < pos("tend"));
    }

    fn journal_tmp(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("jets-dispatcher-{name}-{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn killed_dispatcher_replays_queued_jobs_from_journal() {
        let path = journal_tmp("queued");
        let config = DispatcherConfig {
            journal: Some(path.clone()),
            ..DispatcherConfig::default()
        };
        let d = Dispatcher::start(config.clone()).unwrap();
        let ids =
            d.submit_all((0..5).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
        assert_eq!(d.outstanding(), 5);
        d.kill();
        // The successor replays the journal: all five jobs pending
        // again, no reconciliation window (nothing was in flight).
        let d2 = Dispatcher::start(config).unwrap();
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
        d2.shutdown();
        w.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_finish_leaves_nothing_to_replay() {
        let path = journal_tmp("clean");
        let config = DispatcherConfig {
            journal: Some(path.clone()),
            ..DispatcherConfig::default()
        };
        {
            let d = Dispatcher::start(config.clone()).unwrap();
            let w = raw_worker(d.addr(), 3);
            d.submit_all((0..3).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
            assert!(d.wait_idle(WAIT));
            assert!(d.metrics().journal_records_total.get() >= 3 * 4);
            d.shutdown();
            w.join().unwrap();
        }
        // Every journaled job reached a terminal record, so a restart
        // resurrects nothing.
        let d2 = Dispatcher::start(config).unwrap();
        assert_eq!(d2.outstanding(), 0);
        assert_eq!(d2.metrics().journal_replayed_jobs.get(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wait_idle_times_out_without_workers() {
        let d = dispatcher();
        assert!(d.wait_idle(Duration::ZERO), "idle from the start");
        d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![])));
        assert!(!d.wait_idle(Duration::from_millis(40)));
        assert_eq!(d.outstanding(), 1);
    }

    /// Speak the relay side of the handshake by hand: hello, register
    /// `members` workers, return (writer, reader, member global ids).
    fn raw_relay_handshake(
        addr: SocketAddr,
        members: usize,
    ) -> (TcpStream, BufReader<TcpStream>, Vec<u64>) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_msg(
            &mut writer,
            &WorkerMsg::RelayHello {
                name: "raw-relay".into(),
                location: "test".into(),
            },
        )
        .unwrap();
        let Some(DispatcherMsg::Registered { .. }) = read_msg(&mut reader).unwrap() else {
            panic!("expected relay Registered ack");
        };
        let mut ids = Vec::with_capacity(members);
        for local in 0..members as u64 {
            write_msg(
                &mut writer,
                &WorkerMsg::RelayRegister {
                    local,
                    name: format!("blk-{local}"),
                    cores: 1,
                    location: "test".into(),
                },
            )
            .unwrap();
            match read_msg(&mut reader).unwrap() {
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
        (writer, reader, ids)
    }

    /// A relay fronting 4 workers runs a batch of sequential jobs over a
    /// single inbound connection.
    #[test]
    fn relayed_workers_run_jobs_over_one_connection() {
        let d = dispatcher();
        let addr = d.addr();
        let relay = thread::spawn(move || {
            let (mut writer, mut reader, ids) = raw_relay_handshake(addr, 4);
            for &w in &ids {
                write_msg(&mut writer, &WorkerMsg::RelayRequest { worker: w }).unwrap();
            }
            let mut done = 0usize;
            while done < 20 {
                match read_msg::<DispatcherMsg>(&mut reader).unwrap() {
                    Some(DispatcherMsg::RelayAssign { worker, assignment }) => {
                        assert!(ids.contains(&worker), "routed to a member we own");
                        let exit = run_assignment(&assignment);
                        write_msg(
                            &mut writer,
                            &WorkerMsg::RelayDone {
                                worker,
                                task_id: assignment.task_id,
                                exit_code: exit,
                                wall_ms: 1,
                                output: None,
                                trace: assignment.trace,
                            },
                        )
                        .unwrap();
                        write_msg(&mut writer, &WorkerMsg::RelayRequest { worker }).unwrap();
                        done += 1;
                    }
                    Some(DispatcherMsg::Shutdown) | None => break,
                    other => panic!("unexpected: {other:?}"),
                }
            }
            write_msg(&mut writer, &WorkerMsg::Goodbye).ok();
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
        let ids =
            d.submit_all((0..20).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
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
    }

    /// Batched liveness frames keep relayed workers alive under hang
    /// detection; once the frames stop, the monitor declares them hung.
    #[test]
    fn batched_heartbeats_feed_the_liveness_path() {
        let d = Dispatcher::start(DispatcherConfig {
            heartbeat_timeout: Some(Duration::from_millis(250)),
            monitor_tick: Duration::from_millis(10),
            ..DispatcherConfig::default()
        })
        .unwrap();
        let addr = d.addr();
        let (beats_tx, beats_rx) = std::sync::mpsc::channel::<()>();
        let relay = thread::spawn(move || {
            let (mut writer, _reader, ids) = raw_relay_handshake(addr, 2);
            // Batch liveness until told to stop, then keep the connection
            // open silently so only the heartbeat path can kill them.
            while beats_rx.recv_timeout(Duration::from_millis(50)).is_err() {
                write_msg(
                    &mut writer,
                    &WorkerMsg::BatchedHeartbeat {
                        workers: ids.clone(),
                    },
                )
                .unwrap();
            }
            thread::sleep(Duration::from_secs(1));
        });
        let deadline = Instant::now() + WAIT;
        while d.alive_workers() < 2 {
            assert!(Instant::now() < deadline);
            thread::sleep(Duration::from_millis(5));
        }
        // Well past the heartbeat timeout, the batched frames alone keep
        // both members alive.
        thread::sleep(Duration::from_millis(600));
        assert_eq!(
            d.alive_workers(),
            2,
            "batched frames must count as liveness"
        );
        // Stop the batches: the monitor declares both hung.
        beats_tx.send(()).unwrap();
        let deadline = Instant::now() + WAIT;
        while d.alive_workers() != 0 {
            assert!(
                Instant::now() < deadline,
                "silent members never declared hung"
            );
            thread::sleep(Duration::from_millis(10));
        }
        relay.join().unwrap();
    }

    /// A relay connection dropping takes its whole block down: the
    /// in-flight job fails with EXIT_WORKER_LOST and the log records the
    /// relay's lifecycle.
    #[test]
    fn relay_death_downs_all_members() {
        let d = dispatcher();
        let addr = d.addr();
        let relay = thread::spawn(move || {
            let (mut writer, mut reader, ids) = raw_relay_handshake(addr, 3);
            write_msg(&mut writer, &WorkerMsg::RelayRequest { worker: ids[0] }).unwrap();
            // Take one assignment, then die without reporting.
            let _: Option<DispatcherMsg> = read_msg(&mut reader).unwrap();
        });
        let id = d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![])));
        relay.join().unwrap();
        assert!(d.wait_idle(WAIT));
        let rec = d.job_record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Failed);
        assert!(rec.exit_codes.contains(&EXIT_WORKER_LOST));
        let deadline = Instant::now() + WAIT;
        while d.alive_workers() != 0 {
            assert!(Instant::now() < deadline, "members outlived their relay");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(d.relay_count(), 0);
        let events = d.events().snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RelayUp { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RelayDown { .. })));
        // All three members were declared down.
        let downs = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WorkerDown { .. }))
            .count();
        assert_eq!(downs, 3);
    }

    fn ok_jobs(n: usize) -> impl Iterator<Item = JobSpec> {
        (0..n).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![])))
    }

    #[test]
    fn wait_job_returns_when_its_job_ends_with_thousands_still_outstanding() {
        let d = dispatcher();
        let ids = d.submit_all(ok_jobs(5001));
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
        d.submit_all(ok_jobs(5000));
        let before = voluntary_switches();
        assert!(d.wait_idle(WAIT), "outstanding {}", d.outstanding());
        let switched = voluntary_switches() - before;
        assert!(switched < 50, "switched in {switched} times over 5000 jobs");
        d.shutdown();
        let ran: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(ran, 5000);
    }
}
