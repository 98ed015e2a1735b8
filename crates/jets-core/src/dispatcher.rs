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
//! * **Inputs** — each frame, submission, disconnect and timer tick
//!   becomes exactly one call on the [`Core`], made through `Sched::step`
//!   on the event loop: sample the clock once, call, flush what it
//!   journaled. A frame is decoded here and routed by the core,
//!   [`Core::peer_frame`] over the connection's [`Peer`]; a close is
//!   [`Core::peer_closed`].
//! * **Effects** — the core's sends go onto the connections' bounded
//!   outboxes within the input that decided them (so an `Assign` can never
//!   trail the `Cancel` that kills it), its replies onto the connection
//!   being read, which a `WorkerUp` or `RelayUp` binds. The MPI gangs' PMI
//!   service (the paper's `mpiexec`, see `jets-pmi`) is one [`PmiState`]
//!   in the loop's state, its listener on the same reactor: `pmi_start`
//!   opens a job and hands out the one address, and a rank's line that
//!   releases a first fence is a core input in the same loop turn. Every
//!   [`Fact`] becomes its ring records, write-ahead records, counters and
//!   job-table update in the one `match` of `Sink::fact`; captured task
//!   output is queued there and written to `stdout_dir` by a writer thread.
//!
//! ## Threads and locks (see `docs/performance.md`)
//!
//! * **the event loop** (`jets-reactor-0`) owns the core, the connection
//!   map and the PMI service with its open job ids — everything a
//!   scheduling decision reads or writes — as a [`LoopCell`]: no lock, and
//!   any other thread that touches them panics. Client threads post to it
//!   and wait for the answer; journal restore runs before the core moves
//!   in. One timer, every `monitor_tick`, runs the core's tick, PMI fence
//!   time-outs, the `Interval` fsync and the counter bridge.
//! * **the output writer** (`jets-output`) exists only when `stdout_dir`
//!   is set, and is the one thread that writes there; the output queue
//!   between it and the loop is a leaf lock.
//! * **`book` lock** — the job table and the outstanding count: what the
//!   client-facing API (`wait_idle`, `wait_job`, `records`) polls, and the
//!   one lock a client takes. The loop takes it in `Sink::book`, and
//!   takes nothing under it ([`jets_ring::stdx::Rank::Book`]).

use crate::core::{Core, CoreConfig, Effects, Fact, Peer};
use crate::events::{EventKind, EventLog};
use crate::group::GroupingPolicy;
use crate::journal::{self, FsyncPolicy, Journal, RecoveredPhase};
use crate::metrics::DispatcherMetrics;
use crate::protocol::{
    decode_msg, encode_msg_buf, DispatcherMsg, TaskAssignment, WorkerMsg, MAX_FRAME_BYTES,
};
use crate::queue::QueuePolicy;
use crate::registry::QuarantinePolicy;
use crate::spec::{JobId, JobSpec, TaskId, WorkerId};
use crate::table::JobTable;
use jets_pmi::{PmiHost, PmiState};
use jets_reactor::{
    CloseReason, ConnHandler, Flow, LoopCell, Outbox, Reactor, ReactorConfig, ReactorStats,
};
use jets_ring::stdx::{wait_for, Guard, Mutex, Rank};
use jets_ring::WriterRole;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Weak};
use std::thread::{self, JoinHandle};
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
    /// Period of the event loop's timer, which enforces hang detection,
    /// job deadlines, quarantine release and PMI fence time-outs, and is
    /// the `Interval` fsync's clock.
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
/// so this is safe on the event loop.
fn send_frame(outbox: &Outbox, enc: &mut Vec<u8>, msg: &DispatcherMsg) -> bool {
    encode_msg_buf(msg, enc).is_ok() && outbox.send(enc)
}

/// The core and the resources its effects act on: the event loop's own
/// state. Only the loop touches it; client threads post to it.
struct Sched {
    inner: Arc<Inner>,
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
    /// The PMI service of every running gang, fed on this loop by its
    /// ranks' connections, and the address they dial.
    pmi: PmiState,
    pmi_addr: String,
    /// Each running MPI gang's PMI job id, open in `pmi` as long as its
    /// attempt.
    pmi_jobs: HashMap<JobId, String>,
    /// Reusable wire-encode buffer: steady-state sends allocate nothing.
    enc: Vec<u8>,
    /// Write-ahead frames of the facts emitted since the last flush, the
    /// records they hold, and whether a record among them was refused
    /// (over the frame cap), which drops them all.
    wal: Vec<u8>,
    wal_records: usize,
    wal_refused: bool,
    /// `Shutdown` went out (once); a peer that registers later is told.
    shut: bool,
    /// Set by [`Dispatcher::kill`]: shut down *silently*, the way a
    /// crash would — no goodbye frames, no further journal writes (the
    /// journal belongs to the successor the kill is simulating).
    killed: bool,
    /// Rings the output writer when its queue stops being empty.
    doorbell: Option<mpsc::Sender<()>>,
}

/// Client-facing bookkeeping, apart from `Sched` so `wait_idle` /
/// `wait_job` / `records` polling never waits for the event loop.
/// Guarded by `Inner::book`; `Inner::idle_cv` and every condvar in
/// `job_waiters` are paired with this lock.
struct Book {
    /// Every job seen, as rows and codec bytes, decoded on demand.
    jobs: JobTable,
    /// Jobs queued or active; `wait_idle` watches this reach zero.
    outstanding: usize,
    /// Captured outputs queued for `stdout_dir` and not yet written;
    /// `wait_idle` waits for these too.
    unwritten: usize,
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
    /// a gauge store), so a scrape never waits for the event loop.
    metrics: Arc<DispatcherMetrics>,
    /// Job records and the outstanding count.
    book: Mutex<Book>,
    idle_cv: Condvar,
    /// Captured task output on its way to `stdout_dir`, queued by the
    /// loop and written by [`write_outputs`] on the writer thread. A leaf
    /// lock.
    outputs: Mutex<Vec<(PathBuf, String)>>,
    /// The write-ahead journal, when durability is configured.
    journal: Option<Journal>,
    /// The reactor's monotonic counters; the loop's timer bridges them
    /// into the metric surface each tick.
    reactor_stats: Arc<ReactorStats>,
}

impl Sched {
    /// One input to the core, start to finish: sample the clock once,
    /// make the call, flush what it journaled.
    fn step<R>(&mut self, input: impl FnOnce(&mut Core, &mut Sink<'_>, Instant) -> R) -> R {
        let (Sched { inner, core, io }, from) = (self, None);
        let mut fx = Sink { inner, io, from };
        let out = input(core, &mut fx, Instant::now());
        fx.flush_wal();
        // The O(1) gauges are maintained inline so scrapes between timer
        // ticks see fresh levels; four relaxed stores per input.
        let m = &inner.metrics;
        m.queue_depth.set(core.queue().len() as i64);
        m.queue_bytes.set(core.queue().bytes() as i64);
        m.workers_ready.set(core.ready().len() as i64);
        m.running_gangs.set(core.running() as i64);
        out
    }

    /// The loop's periodic duties: bridging reactor, ring and PMI counters
    /// into the metric surface, the `Interval` fsync, PMI fence time-outs
    /// and the core's tick (hang detection, deadlines, quarantine release,
    /// the reconciliation window).
    fn tick(&mut self, prev: &mut [u64; 5]) {
        let inner = Arc::clone(&self.inner);
        let pmi_errors = self.io.pmi.input(|pmi, _| pmi.protocol_errors());
        bridge_counters(&inner, prev, pmi_errors);
        // Under the `Interval` fsync policy this timer is the durability
        // clock. The sync holds the journal's writer mutex, as an append
        // does, so the loop's next append would have waited for it anyway.
        let syncs = inner.config.fsync_policy == FsyncPolicy::Interval && !self.io.killed;
        if let Some(Err(_)) = inner.journal.as_ref().filter(|_| syncs).map(Journal::sync) {
            inner.metrics.journal_errors_total.inc();
        }
        self.step(|core, fx, now| {
            // A fence that has waited `PMI_FENCE_TIMEOUT` aborts its gang:
            // the parked ranks are told, their tasks fail, the core requeues.
            fx.io.pmi.input(|pmi, ranks| pmi.tick(now, ranks));
            core.tick(now, fx);
            // The O(workers) gauges are refreshed here, once per tick,
            // so the hot path never walks the registry for metrics' sake.
            let (m, workers) = (&fx.inner.metrics, core.registry());
            m.relays_current.set(fx.io.relays.len() as i64);
            m.workers_alive.set(workers.alive_count() as i64);
            m.workers_busy.set(workers.busy_count() as i64);
            m.quarantined_current
                .set(workers.quarantined_count() as i64);
        });
    }

    /// Stop accepting and tell every peer to shut down, once: each direct
    /// worker on its own connection, each relay once for its whole block.
    /// A killed dispatcher stays silent; returns whether it is alive.
    fn shutdown(&mut self) -> bool {
        let io = &mut self.io;
        if !std::mem::replace(&mut io.shut, true) && !io.killed {
            let direct = io.conns.values().filter(|c| !c.relayed).map(|c| &c.out);
            for out in direct.chain(io.relays.values()) {
                send_frame(out, &mut io.enc, &DispatcherMsg::Shutdown);
            }
        }
        !io.killed
    }
}

/// Every gang's ranks feed the loop's PMI service; a first fence release
/// is a core input in the same loop turn as the line that caused it.
impl PmiHost for Sched {
    fn pmi(&mut self) -> &mut PmiState {
        &mut self.io.pmi
    }

    fn after_input(&mut self, released: Option<(JobId, Instant)>) {
        if let Some((job, at)) = released {
            self.step(|core, fx, _| core.fence_released(job, at, fx));
        }
    }
}

/// The shell's [`Effects`]: where the core's decisions become bytes.
struct Sink<'a> {
    inner: &'a Inner,
    io: &'a mut Io,
    /// The connection a frame input was read from.
    from: Option<Arc<Outbox>>,
}

impl<'a> Sink<'a> {
    /// Append the buffered write-ahead frames (one write, one fsync
    /// under `Always`). Failures are counted and swallowed: the
    /// dispatcher keeps serving, and replay still converges on the
    /// journal's valid prefix. A killed dispatcher must not touch the
    /// file again: it belongs to the successor the kill is simulating.
    fn flush_wal(&mut self) {
        let (io, m) = (&mut *self.io, &self.inner.metrics);
        let pending = !io.wal.is_empty() || io.wal_refused;
        if let Some(j) = self.inner.journal.as_ref().filter(|_| pending) {
            if !io.killed {
                match (io.wal_refused, j.write_frames(&io.wal)) {
                    (false, Ok(())) => m.journal_records_total.add(io.wal_records as u64),
                    (true, _) | (_, Err(_)) => m.journal_errors_total.inc(),
                }
            }
            (io.wal_records, io.wal_refused) = (0, false);
            io.wal.clear();
            io.wal.shrink_to(4096); // a bulk submission's frames are not kept
        }
    }

    /// The job table, with everything journaled so far on disk first: a
    /// state is never client-visible before its record is. The one place
    /// the loop takes `book`.
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

    /// A peer accepted before `shutdown` began but registered after its
    /// broadcast went out is told with its ack.
    fn reply(&mut self, msg: DispatcherMsg) {
        let (Some(out), enc) = (&self.from, &mut self.io.enc) else {
            return;
        };
        let registered = matches!(msg, DispatcherMsg::Registered { .. });
        send_frame(out, enc, &msg);
        if registered && self.io.shut {
            send_frame(out, enc, &DispatcherMsg::Shutdown);
        }
    }

    fn pmi_start(&mut self, job: JobId, jobid: &str, size: u32) -> io::Result<String> {
        let pmi = &mut self.io.pmi;
        if !pmi.input(|pmi, _| pmi.open_job(jobid, job, size, PMI_FENCE_TIMEOUT)) {
            return Err(io::Error::other(format!("pmi job {jobid} is already open")));
        }
        self.io.pmi_jobs.insert(job, jobid.to_string());
        Ok(self.io.pmi_addr.clone())
    }

    fn pmi_abort(&mut self, job: JobId, reason: &str) {
        let Io { pmi, pmi_jobs, .. } = &mut *self.io;
        if let Some(jobid) = pmi_jobs.get(&job) {
            pmi.input(|pmi, fx| pmi.abort_job(jobid, reason, fx));
        }
    }

    fn pmi_stop(&mut self, job: JobId) -> Option<Instant> {
        let jobid = self.io.pmi_jobs.remove(&job)?;
        self.io.pmi.input(|pmi, fx| pmi.close_job(&jobid, fx))
    }

    /// The one place a lifecycle fact reaches the ring, the journal, the
    /// counters and the job table.
    fn fact(&mut self, fact: Fact<'_>) {
        let inner = self.inner;
        let (log, m) = (&inner.log, &inner.metrics);
        if inner.journal.is_some() {
            match fact.wal(&mut self.io.wal) {
                Ok(records) => self.io.wal_records += records,
                Err(_) => self.io.wal_refused = true,
            }
        }
        match fact {
            Fact::Event(kind) => {
                #[expect(
                    clippy::wildcard_enum_match_arm,
                    reason = "only these kinds feed a counter, a histogram or the relay map"
                )]
                match &kind {
                    EventKind::TaskStarted { .. } => m.tasks_started_total.inc(),
                    EventKind::DeadlineExceeded { .. } => m.deadline_exceeded_total.inc(),
                    EventKind::GangReadopted { .. } => m.gangs_readopted_total.inc(),
                    EventKind::RelayUp { relay } => {
                        if let Some(out) = self.from.clone() {
                            self.io.relays.insert(*relay, out);
                        }
                    }
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
                    _ => {}
                }
                log.record(kind);
            }
            Fact::Submitted { first, specs } => {
                m.jobs_submitted_total.add(specs.len() as u64);
                let mut book = self.book();
                book.outstanding += specs.len();
                for (id, spec) in (first..).zip(specs) {
                    book.jobs.insert(id, spec, JobStatus::Pending, 0);
                }
                m.job_table_bytes.set(book.jobs.bytes() as i64);
            }
            // One lock for the whole restore, however many jobs it brings
            // back.
            Fact::Restored { jobs } => {
                let mut book = self.book();
                book.outstanding += jobs.len();
                for j in jobs {
                    let status = match j.phase {
                        RecoveredPhase::Queued => JobStatus::Pending,
                        RecoveredPhase::Active { .. } => JobStatus::Running,
                    };
                    book.jobs.insert(j.id, &j.spec, status, j.attempts);
                }
                m.job_table_bytes.set(book.jobs.bytes() as i64);
            }
            Fact::WorkerUp {
                worker,
                relayed,
                reconnect,
            } => {
                // A name seen before is a pilot coming back after a
                // disconnect: the fault layer's reconnects, observable.
                if reconnect {
                    m.reconnects_total.inc();
                }
                if let Some(out) = self.from.clone() {
                    self.io.conns.insert(worker, Conn { out, relayed });
                }
                log.record(EventKind::WorkerUp { worker });
            }
            Fact::WorkerDown { worker, .. } => {
                self.io.conns.remove(&worker);
                log.record(EventKind::WorkerDown { worker });
            }
            // No ring record: the `sched` span start marks the instant.
            Fact::JobStarted { job, attempt, .. } => self.book().jobs.started(job, attempt),
            // A worker's own report counts; its output takes the paper's
            // last hop, "into a file", copied only if that is configured.
            Fact::Reported { job, task, output } => {
                m.tasks_ended_total.inc();
                if let (Some(dir), Some(text)) = (&inner.config.stdout_dir, output) {
                    let path = dir.join(format!("job{job}.task{task}.out"));
                    self.book().unwritten += 1;
                    let mut queued = inner.outputs.lock();
                    queued.push((path, text.to_owned()));
                    if let Some(bell) = self.io.doorbell.as_ref().filter(|_| queued.len() == 1) {
                        let _ = bell.send(());
                    }
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
                let mut book = self.book();
                let status = JobStatus::Pending;
                book.jobs
                    .ended(job, status, Some(attempts), wall, &exit_codes, &outputs);
                m.job_table_bytes.set(book.jobs.bytes() as i64);
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
                book.jobs
                    .ended(job, status, None, wall, &exit_codes, &outputs);
                m.job_table_bytes.set(book.jobs.bytes() as i64);
                job_ended(inner, book, job);
            }
            // Journal-only facts: `Fact::wal` above said it all.
            Fact::Assigned { .. } | Fact::QuarantineReleased { .. } => {}
        }
    }
}

/// The output writer's work: write what the loop queued to `stdout_dir`,
/// then count it written for `wait_idle`. Blocking file I/O, on the
/// writer's own thread, never on the event loop.
fn write_outputs(inner: &Inner) {
    let files = {
        let mut queued = inner.outputs.lock();
        std::mem::take(&mut *queued)
    };
    let written = files.len();
    for (path, text) in files {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, text);
    }
    let mut book = inner.book.lock();
    book.unwritten -= written;
    if book.unwritten == 0 && book.outstanding == 0 {
        drop(book);
        inner.idle_cv.notify_all();
    }
}

/// Stack size for dispatcher service threads (event loop + output writer).
const CONN_STACK: usize = 192 * 1024;

/// Patience for PMI fences inside launched MPI jobs.
const PMI_FENCE_TIMEOUT: Duration = Duration::from_secs(60);

/// A running JETS dispatcher.
///
/// Dropping the dispatcher shuts it down: workers receive `Shutdown`,
/// the reactor's event loop stops (closing every listener, `/metrics`
/// included) and takes the core with it, and the output writer drains.
pub struct Dispatcher {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// The loop's state: only the loop holds it strongly.
    sched: Weak<LoopCell<Sched>>,
    /// Writes captured output to `stdout_dir`, when that is set.
    writer: Option<JoinHandle<()>>,
    /// The event loop serving every connection and owning the core.
    reactor: Reactor,
}

impl Dispatcher {
    /// Bind and start serving.
    pub fn start(config: DispatcherConfig) -> io::Result<Dispatcher> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let addr = listener.local_addr()?;
        // Ranks reach the PMI service the way pilots reach the dispatcher.
        let pmi_listener = TcpListener::bind((addr.ip(), 0))?;
        let reactor = Reactor::start(ReactorConfig {
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
        let tick = config.monitor_tick.max(Duration::from_millis(1));
        let inner = Arc::new(Inner {
            book: Mutex::ranked(
                Rank::Book,
                Book {
                    jobs: JobTable::default(),
                    outstanding: 0,
                    unwritten: 0,
                    job_waiters: HashMap::new(),
                },
            ),
            config,
            log,
            metrics: Arc::new(DispatcherMetrics::new()),
            idle_cv: Condvar::new(),
            outputs: Mutex::new(Vec::new()),
            journal,
            reactor_stats: reactor.stats(),
        });
        let mut sched = Sched {
            inner: Arc::clone(&inner),
            core: Core::new(core_config, Instant::now()),
            io: Io::default(),
        };
        sched.io.pmi_addr = pmi_listener.local_addr()?.to_string();
        // Restore on this thread, before the core moves into the loop and
        // before the listener opens.
        if !replayed.is_empty() {
            let rec = journal::recover(&replayed);
            let replayed_jobs = &inner.metrics.journal_replayed_jobs;
            replayed_jobs.set(rec.jobs.len() as i64);
            sched.step(|core, fx, now| {
                // One byte of payload: the frame cap cannot refuse it.
                let _ = journal::put_frame(&mut fx.io.wal, journal::put_restarted);
                fx.io.wal_records += 1;
                core.restore(now, rec, fx);
            });
        }
        let writer = inner.config.stdout_dir.as_ref().map(|_| {
            let (bell, rung) = mpsc::channel();
            sched.io.doorbell = Some(bell);
            let inner = Arc::clone(&inner);
            // Ends when the loop's state, and the doorbell with it, goes.
            let write = move || rung.iter().for_each(|()| write_outputs(&inner));
            let builder = thread::Builder::new().name("jets-output".to_string());
            builder.stack_size(CONN_STACK).spawn(write)
        });
        let sched = Arc::new(reactor.own(sched));
        let accept = Arc::clone(&sched);
        reactor.listen(
            listener,
            Arc::new(move |_stream: &TcpStream, _peer: SocketAddr| {
                // Refuse peers once shutdown begins; `None` sheds the
                // connection without registering it.
                let accepted = |st: &mut Sched| st.inner.metrics.connections_accepted_total.inc();
                accept.with(|st| (!st.io.shut).then(|| accepted(st)))?;
                Some(Box::new(DispatcherConn {
                    sched: Arc::clone(&accept),
                    outbox: None,
                    peer: Peer::Handshake,
                }) as Box<dyn ConnHandler>)
            }),
        )?;
        jets_pmi::serve_ranks(&reactor, pmi_listener, Arc::clone(&sched))?;
        // The reactor's and the ring's counters are monotonic; the
        // previous sample lets the bridge publish deltas.
        let (ticker, mut prev) = (Arc::clone(&sched), [0u64; 5]);
        reactor.every(tick, move || ticker.with(|st| st.tick(&mut prev)))?;
        Ok(Dispatcher {
            inner,
            addr,
            sched: Arc::downgrade(&sched),
            writer: writer.transpose()?,
            reactor,
        })
    }

    /// Run `f` on the event loop, with its state, and wait for what it
    /// returns; `None` once the loop has stopped.
    fn call<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Sched) -> R + Send + 'static,
    ) -> Option<R> {
        self.sched.upgrade()?.call(f)
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

    /// Submit many jobs at once. The whole batch is one post to the event
    /// loop, journaled in one write (one fsync under the `Always` policy,
    /// however large the submission), queued in one input to the core and
    /// triggers one scheduling pass, so bulk submission does not serialize
    /// per-job against the worker traffic.
    #[expect(
        clippy::expect_used,
        reason = "job ids come from the event loop: once it has stopped there are none to return"
    )]
    pub fn submit_all(&self, specs: impl IntoIterator<Item = JobSpec>) -> Vec<JobId> {
        let specs = specs.into_iter().collect();
        self.call(move |st| st.step(|core, fx, now| core.submit(now, specs, fx)))
            .expect("the dispatcher's event loop has stopped")
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
            if book.outstanding == 0 && book.unwritten == 0 {
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
        self.inner.book.lock().jobs.get(id)
    }

    /// Block until job `id` reaches a terminal state (succeeded or
    /// failed), returning its record; `None` on timeout or unknown id.
    pub fn wait_job(&self, id: JobId, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        let mut book = self.inner.book.lock();
        let mut cv: Option<Arc<Condvar>> = None;
        loop {
            match book.jobs.status(id) {
                None => return None,
                Some(JobStatus::Succeeded | JobStatus::Failed) => return book.jobs.get(id),
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

    /// Snapshot of all job records, in ascending id order.
    pub fn records(&self) -> Vec<JobRecord> {
        // Copy the table's two buffers under the lock the loop takes on
        // every start and finish; decode after releasing it.
        let jobs = self.inner.book.lock().jobs.clone();
        jobs.records()
    }

    /// Number of live (registered, non-dead) workers, as the event loop
    /// sees it now.
    pub fn alive_workers(&self) -> usize {
        self.call(|st| st.core.registry().alive_count())
            .unwrap_or(0)
    }

    /// Total TCP connections accepted so far (direct workers + relays).
    /// With a relay tier this stays at O(relays) however many workers
    /// register behind them.
    pub fn connections_accepted(&self) -> u64 {
        self.inner.metrics.connections_accepted_total.get()
    }

    /// Number of currently connected relay daemons.
    pub fn relay_count(&self) -> usize {
        self.call(|st| st.io.relays.len()).unwrap_or(0)
    }

    /// The reactor's live counters (connections, wakeups, bytes, slow-
    /// consumer disconnects) — the event loop serving every connection.
    pub fn reactor_stats(&self) -> Arc<ReactorStats> {
        self.reactor.stats()
    }

    /// Snapshot of every worker ever registered.
    pub fn workers(&self) -> Vec<crate::registry::WorkerInfo> {
        self.call(|st| st.core.registry().iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of jobs queued or running.
    pub fn outstanding(&self) -> usize {
        self.inner.book.lock().outstanding
    }

    /// True while the post-restart reconciliation window is open (no
    /// scheduling; surviving workers are claiming their in-flight tasks).
    pub fn recovering(&self) -> bool {
        self.call(|st| st.core.recovering()).unwrap_or(false)
    }

    /// Die the way a crash does: no goodbye frames to workers, no
    /// journal close marker — connections just drop. Chaos tests use
    /// this to exercise the journal-replay path; a successor started
    /// with the same journal path must reconcile and converge.
    pub fn kill(self) {
        // Drop's `shutdown` comes after this on the loop and stays silent.
        self.call(|st| st.io.killed = true);
    }

    /// Stop accepting, tell every worker to shut down. Each direct worker
    /// is told on its own connection; each relay is told once and fans
    /// the shutdown out to its block. Only the first call sends anything.
    pub fn shutdown(&self) {
        if self.call(Sched::shutdown) != Some(true) {
            return; // killed: vanish silently, as a real crash would
        }
        // Clean-shutdown nicety: push the flight recorder's pages to
        // disk now. (A kill skips this on purpose — surviving *without*
        // the flush is what the mmap is for.)
        let _ = self.inner.log.sync();
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
        // The loop's state goes with it, and so does the writer's doorbell.
        self.reactor.shutdown();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Publish the reactor's and the flight recorder's counters, and the PMI
/// service's `pmi_errors` the caller read from its loop state, into the
/// metric surface. Lock-free on both sides: the sources are atomics the writers
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

/// One inbound connection (worker or relay) on the reactor's event loop.
/// Callbacks run on the loop thread and never block (rule J7): a frame
/// arrives fully reassembled, is decoded and handed to the core's router
/// in one `step`, and whatever the core sends is queued on a bounded
/// [`Outbox`].
struct DispatcherConn {
    sched: Arc<LoopCell<Sched>>,
    outbox: Option<Arc<Outbox>>,
    peer: Peer,
}

impl ConnHandler for DispatcherConn {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        // An unparseable frame is a protocol violation; sever. So is a
        // frame before `on_open`.
        let (Ok(msg), Some(from)) = (decode_msg::<WorkerMsg>(frame), self.outbox.as_ref()) else {
            return Flow::Close;
        };
        let peer = &mut self.peer;
        match self.sched.with(|st| {
            st.step(|core, fx, now| {
                fx.from = Some(Arc::clone(from));
                core.peer_frame(now, peer, msg, fx)
            })
        }) {
            true => Flow::Continue,
            false => Flow::Close,
        }
    }

    fn on_close(&mut self, _reason: CloseReason) {
        let peer = std::mem::take(&mut self.peer);
        self.sched
            .with(|st| st.step(|core, fx, now| core.peer_closed(now, peer, fx)));
    }
}

#[cfg(test)]
mod tests {
    //! Loopback tests of the shell: real sockets, real threads. What the
    //! dispatcher *decides* is tested on the core under a virtual clock
    //! (`tests/core_model.rs`, `cluster_sim::des`); these cover what only the shell has —
    //! the wire, the PMI servers, the journal file, the condvars and the
    //! output files.
    use super::*;
    use crate::protocol::{MsgReader, MsgWriter, TaskKind};
    use crate::spec::CommandSpec;
    use std::io::{BufReader, Read, Write};

    type Wire = (MsgWriter<TcpStream>, MsgReader<BufReader<TcpStream>>);

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

    /// `shutdown` and then the drop that follows it tell a connected peer
    /// once, not twice.
    #[test]
    fn shutdown_then_drop_sends_one_shutdown() {
        let d = dispatcher();
        let (name, location) = ("once".to_string(), "test".to_string());
        let hello = WorkerMsg::Register {
            name,
            cores: 1,
            location,
        };
        let (_writer, mut reader) = handshake(d.addr(), &hello);
        d.shutdown();
        drop(d);
        let mut shutdowns = 0;
        while let Ok(Some(msg)) = reader.recv::<DispatcherMsg>() {
            shutdowns += usize::from(msg == DispatcherMsg::Shutdown);
        }
        assert_eq!(shutdowns, 1);
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
        let pmi_jobs = d.call(|st| st.io.pmi_jobs.len()).unwrap();
        assert_eq!(pmi_jobs, 0, "PMI server dropped");
        d.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    /// A line no PMI client would send, on the port an MPI assignment
    /// names: answered `cmd=abort` and closed, counted on the next tick,
    /// and harmless to the gang, whose rank then connects properly.
    #[test]
    fn a_garbage_line_to_the_pmi_port_is_refused_counted_and_harmless() {
        let d = dispatcher();
        let (name, location) = ("raw".to_string(), "test".to_string());
        let hello = WorkerMsg::Register {
            name,
            cores: 1,
            location,
        };
        let (mut writer, mut reader) = handshake(d.addr(), &hello);
        let id = d.submit(JobSpec::mpi(1, CommandSpec::builtin("mpi", vec![])));
        writer.send(&WorkerMsg::Request).unwrap();
        let Some(DispatcherMsg::Assign(a)) = reader.recv().unwrap() else {
            panic!("expected an MPI assignment");
        };
        let TaskKind::MpiProxy { pmi_addr, .. } = &a.kind else {
            panic!("expected an MPI proxy, got {:?}", a.kind);
        };
        let mut garbage = TcpStream::connect(pmi_addr.as_str()).unwrap();
        garbage.write_all(b"this is no pmi line\n").unwrap();
        let mut answer = String::new();
        garbage.read_to_string(&mut answer).unwrap(); // to the close
        assert!(answer.starts_with("cmd=abort "), "{answer:?}");
        assert_eq!(answer.lines().count(), 1, "{answer:?}");
        let deadline = Instant::now() + WAIT;
        while d.metrics().pmi_protocol_errors_total.get() != 1 {
            assert!(Instant::now() < deadline, "the error was never counted");
            thread::sleep(Duration::from_millis(5));
        }
        writer.send(&run_assignment(&a)).unwrap();
        let rec = d.wait_job(id, WAIT).expect("the gang ended");
        assert_eq!(rec.status, JobStatus::Succeeded);
        assert_eq!(d.metrics().pmi_protocol_errors_total.get(), 1);
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
