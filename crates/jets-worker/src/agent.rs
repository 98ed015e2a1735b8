//! The worker agent: connection lifecycle, task loop, kill switch,
//! reconnect with backoff, and dispatcher-driven task cancellation.

use crate::executor::{CancelToken, TaskExecutor, TaskOutcome, EXIT_RANK_PANIC, EXIT_SPAWN_FAILED};
use crate::metrics::WorkerMetrics;
use crate::staging::NodeLocalCache;
use jets_core::protocol::{
    DispatcherMsg, MsgReader, MsgWriter, TaskAssignment, WorkerMsg, EXIT_CANCELED,
};
use jets_core::spec::CommandSpec;
use jets_core::{EventKind, EventLog, SpanKind, WriterRole};
use jets_ring::stdx::{Mutex, SplitMix64};
use std::io::{BufReader, ErrorKind};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How an agent retries a lost dispatcher connection.
///
/// A pilot job on a real allocation outlives transient network faults:
/// losing the dispatcher for a moment should cost one re-registration,
/// not the node. Backoff is exponential from `base_backoff`, capped at
/// `max_backoff`, with a deterministic seeded jitter shaving up to
/// `jitter` of each sleep so a partitioned allocation's agents do not
/// reconnect in lockstep.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Consecutive failed connection attempts tolerated before giving up.
    pub max_attempts: u32,
    /// First retry delay.
    pub base_backoff: Duration,
    /// Upper bound on one retry delay.
    pub max_backoff: Duration,
    /// Fraction of each delay randomly shaved off (0.0 disables jitter).
    pub jitter: f64,
    /// Seed for the jitter PRNG (deterministic per worker).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: 0.25,
            seed: 1,
        }
    }
}

/// Configuration for one worker agent.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// `host:port` of the dispatcher.
    pub dispatcher_addr: String,
    /// Name reported at registration.
    pub name: String,
    /// Cores this node offers.
    pub cores: u32,
    /// Network location label.
    pub location: String,
    /// Heartbeat period; `None` disables heartbeats.
    pub heartbeat: Option<Duration>,
    /// Delay before the agent connects (models node boot time).
    pub connect_delay: Duration,
    /// Reconnect-with-backoff policy; `None` keeps the legacy
    /// connect-once behaviour (any connection loss ends the agent).
    pub reconnect: Option<ReconnectPolicy>,
    /// After a dispatcher `Cancel`, how long the agent waits for the task
    /// to acknowledge the token before abandoning its thread and
    /// reporting [`EXIT_CANCELED`].
    pub cancel_grace: Duration,
    /// Process-wide metric handles; `None` disables recording. Shared by
    /// every agent of a simulated allocation, so one scrape covers them
    /// all.
    pub metrics: Option<Arc<WorkerMetrics>>,
    /// File-backed flight-recorder ring for this agent's lifecycle
    /// events; `None` (the default) records nothing. Only the file mode
    /// exists on workers: a simulated allocation spawns hundreds of
    /// agents, and an anonymous ring per agent would be pure overhead
    /// nobody can replay after a crash anyway.
    pub flight_recorder: Option<std::path::PathBuf>,
}

impl WorkerConfig {
    /// A minimal configuration for a worker named `name`.
    pub fn new(dispatcher_addr: impl Into<String>, name: impl Into<String>) -> Self {
        WorkerConfig {
            dispatcher_addr: dispatcher_addr.into(),
            name: name.into(),
            cores: 1,
            location: "default".to_string(),
            heartbeat: None,
            connect_delay: Duration::ZERO,
            reconnect: None,
            cancel_grace: Duration::from_millis(200),
            metrics: None,
            flight_recorder: None,
        }
    }

    /// Builder-style reconnect policy.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Builder-style metric handles (shared across a process's agents).
    pub fn with_metrics(mut self, metrics: Arc<WorkerMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Builder-style flight-recorder file: the agent's lifecycle events
    /// land in a crash-durable ring at `path`.
    pub fn with_flight_recorder(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.flight_recorder = Some(path.into());
        self
    }
}

/// Why the worker loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The dispatcher sent `Shutdown`.
    Shutdown,
    /// The kill switch fired (fault injection).
    Killed,
    /// The connection failed or could not be established.
    ConnectionLost,
}

/// Final report from a worker agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerExit {
    /// Tasks executed and reported.
    pub tasks_done: u64,
    /// Why the loop ended.
    pub reason: ExitReason,
}

/// A running worker agent (persistent pilot job).
pub struct Worker {
    pilot: Arc<Pilot>,
    handle: Option<JoinHandle<WorkerExit>>,
}

impl Worker {
    /// Start a worker agent on its own thread. Connection happens inside
    /// the thread, so spawning a large simulated allocation is fast.
    pub fn spawn(config: WorkerConfig, executor: Arc<dyn TaskExecutor>) -> Worker {
        // The flight recorder is opened here (not in the loop thread) so
        // a bad path surfaces before the agent silently runs unrecorded,
        // and so callers can read the same ring via `events()`. A failed
        // open degrades to no recording: the agent's job is running
        // tasks, not archiving its own diagnostics.
        let name = &config.name;
        let log =
            config
                .flight_recorder
                .as_ref()
                .and_then(|path| {
                    match EventLog::file_backed_with_role(
                        path,
                        jets_core::events::DEFAULT_EVENT_CAPACITY,
                        WriterRole::Worker,
                    ) {
                        Ok(log) => Some(log),
                        Err(err) => {
                            eprintln!(
                                "worker {name}: flight recorder {} unavailable: {err}",
                                path.display()
                            );
                            None
                        }
                    }
                });
        let pilot = Arc::new(Pilot {
            config,
            executor,
            log,
            kill: AtomicBool::new(false),
            sock: Mutex::new(None),
            link: Mutex::new(Link::default()),
        });
        let agent = Agent {
            pilot: Arc::clone(&pilot),
            runner: None,
            runners_started: 0,
            grace: None,
            local_cache: LazyCache::default(),
        };
        let handle = thread::Builder::new()
            .name(format!("worker-{}", pilot.config.name))
            .stack_size(256 * 1024)
            .spawn(move || agent.run())
            .expect("spawn worker thread");
        Worker {
            pilot,
            handle: Some(handle),
        }
    }

    /// The worker's name.
    pub fn name(&self) -> &str {
        &self.pilot.config.name
    }

    /// The agent's flight-recorder log, when one was configured and its
    /// file opened. Handing out a clone is free — `EventLog` is a shared
    /// handle — and reading it never blocks the agent's writes.
    pub fn events(&self) -> Option<&EventLog> {
        self.pilot.log.as_ref()
    }

    /// Kill the worker abruptly: sever the dispatcher connection without a
    /// goodbye, abandoning any in-flight task. This is the fault-injection
    /// primitive of the paper's Fig. 10 experiment: the dispatcher sees
    /// EOF, marks the worker dead, and requeues its job.
    pub fn kill(&self) {
        self.pilot.kill.store(true, Ordering::Release);
        self.disconnect();
    }

    /// Sever the dispatcher connection *without* setting the kill flag:
    /// the agent sees EOF and — when configured with a
    /// [`ReconnectPolicy`] — registers again after backoff. This is the
    /// chaos harness's network-partition primitive; [`Worker::kill`]
    /// remains the permanent-death primitive.
    pub fn disconnect(&self) {
        if let Some(stream) = self.pilot.sock.lock().as_ref() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// True once the agent thread has exited.
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Wait for the agent to exit and collect its report.
    pub fn join(mut self) -> WorkerExit {
        self.handle
            .take()
            .expect("join called once")
            .join()
            .unwrap_or(WorkerExit {
                tasks_done: 0,
                reason: ExitReason::ConnectionLost,
            })
    }
}

/// Exit code reported when node-local staging fails before the task runs.
pub const EXIT_STAGING_FAILED: i32 = 13;

/// Lazily-created node-local cache (most workers never stage anything).
#[derive(Default)]
struct LazyCache {
    cache: Option<NodeLocalCache>,
}

impl LazyCache {
    fn get_or_init(&mut self, worker_name: &str) -> std::io::Result<&NodeLocalCache> {
        if self.cache.is_none() {
            let dir = std::env::temp_dir()
                .join(format!("jets-local-{worker_name}-{}", std::process::id()));
            self.cache = Some(NodeLocalCache::new(dir)?);
        }
        Ok(self.cache.as_ref().expect("just initialized"))
    }
}

/// Append an environment variable to the assignment's command.
fn push_env(assignment: &mut TaskAssignment, key: &str, value: &str) {
    let cmd = match &mut assignment.kind {
        jets_core::protocol::TaskKind::Sequential { cmd } => cmd,
        jets_core::protocol::TaskKind::MpiProxy { cmd, .. } => cmd,
    };
    let env = match cmd {
        CommandSpec::Exec { env, .. } | CommandSpec::Builtin { env, .. } => env,
    };
    env.push((key.to_string(), value.to_string()));
}

/// Holds the in-flight gauge up for as long as its task is in flight;
/// dropping the task balances it on every path (report, abandoned
/// grace, session loss, kill).
struct InflightGuard(Arc<jets_obs::Gauge>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Records `WorkerDown` into the flight recorder when a registered
/// session ends, on every exit path — the ring replay then pairs one
/// down with every `WorkerUp`.
struct SessionEventGuard<'a> {
    events: Option<&'a EventLog>,
    worker: u64,
}

impl Drop for SessionEventGuard<'_> {
    fn drop(&mut self) {
        if let Some(log) = self.events {
            log.record(EventKind::WorkerDown {
                worker: self.worker,
            });
        }
    }
}

/// How one dispatcher session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEnd {
    /// Dispatcher said `Shutdown` — the agent is done.
    Shutdown,
    /// The kill switch fired — the agent is done.
    Killed,
    /// The connection dropped; a reconnect policy may start a new session.
    Lost,
}

/// How the agent's one wait, the read on the session socket, ends when
/// not with a frame.
enum NoFrame {
    /// The connection is gone (or its read half was hung up on purpose).
    Closed,
    /// A canceled task used up its grace and is still running.
    GraceExpired,
}

/// A task handed to the runner and not yet reported. It outlives a lost
/// session: the runner keeps executing, and these fields let the *next*
/// session claim the task, honour a late `Cancel`, and report the
/// outcome.
struct RunningTask {
    task_id: u64,
    job_id: u64,
    /// Trace id from the assignment, so the `Done` and the exec span-end
    /// still correlate with the submission after an outage.
    trace: u64,
    ranks: u32,
    /// The runner executing it; a result from any other runner is late.
    runner: u64,
    cancel: CancelToken,
    started: Instant,
    /// A `Cancel` tripped the token; the agent's grace clock is running.
    canceled: bool,
    _inflight: Option<InflightGuard>,
}

/// What the threads of one pilot share. The agent thread reads the
/// session socket and starts tasks; the long-lived runner thread
/// executes them and reports each result itself; a heartbeat thread
/// lives as long as a session that wants one.
struct Pilot {
    config: WorkerConfig,
    executor: Arc<dyn TaskExecutor>,
    log: Option<EventLog>,
    kill: AtomicBool,
    /// The kill switch's handle on the session socket: severing it is
    /// what wakes an agent blocked in its read.
    sock: Mutex<Option<TcpStream>>,
    link: Mutex<Link>,
}

impl Pilot {
    fn killed(&self) -> bool {
        self.kill.load(Ordering::Acquire)
    }
}

/// The session's write half and the state decided together with what is
/// written to it, all under the one lock that keeps frames from
/// interleaving. Only the wire is per session; the rest survives a lost
/// dispatcher, because a dispatcher restart severs every connection but
/// kills no worker process: the pilot's task is still running and its
/// results still matter. Both are carried across the gap — the in-flight
/// task (claimed via [`WorkerMsg::SessionState`] so a recovering
/// dispatcher re-adopts the gang instead of relaunching it) and any
/// terminal `Done` that never reached the old wire (replayed verbatim
/// after the next registration, so the dispatcher hears every result
/// exactly once).
#[derive(Default)]
struct Link {
    /// `None` between sessions: a task that ends then is stashed. The
    /// `MsgWriter` reuses one encode buffer for every message a session
    /// sends.
    wire: Option<MsgWriter<TcpStream>>,
    worker_id: u64,
    /// The in-flight task, if any.
    task: Option<RunningTask>,
    /// `Shutdown` was read while the task ran: its report ends the agent.
    stopping: bool,
    /// Terminal reports whose send failed: replayed after re-register.
    stashed: Vec<WorkerMsg>,
    tasks_done: u64,
}

impl Link {
    fn send(&mut self, msg: &WorkerMsg) -> std::io::Result<()> {
        match &mut self.wire {
            Some(wire) => wire.send(msg),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        }
    }

    /// Take over a registered session's write half. Recovery handshake
    /// first (dispatcher crash recovery): claim the task carried from the
    /// previous session so a restarted dispatcher can re-adopt its gang
    /// during the reconciliation window — an established dispatcher
    /// answers an unknown claim with `Cancel` — then replay terminal
    /// reports that never made it onto the old wire, oldest first,
    /// keeping the rest stashed if this wire dies too. Then the first
    /// `Request`, unless a carried task is still running: its runner asks
    /// when it reports.
    fn open_session(
        &mut self,
        mut wire: MsgWriter<TcpStream>,
        worker_id: u64,
    ) -> std::io::Result<()> {
        if self.task.is_some() || !self.stashed.is_empty() {
            let running = self.task.as_ref().map(|t| (t.task_id, t.job_id));
            wire.send(&WorkerMsg::SessionState { running })?;
            while let Some(msg) = self.stashed.first() {
                wire.send(msg)?;
                self.stashed.remove(0);
                self.tasks_done += 1;
            }
        }
        if self.task.is_none() {
            wire.send(&WorkerMsg::Request)?;
        }
        self.wire = Some(wire);
        self.worker_id = worker_id;
        Ok(())
    }

    /// The session is over: say `Goodbye` if the dispatcher asked for
    /// the shutdown, and let go of the wire.
    fn close_session(&mut self, goodbye: bool) {
        if goodbye {
            let _ = self.send(&WorkerMsg::Goodbye);
        }
        self.wire = None;
    }

    /// Put a task's `Done` on the wire and, in the same write, the
    /// `Request` for the next task — the dispatcher reads both in one
    /// wakeup. A pilot that is stopping reports without asking.
    fn report(&mut self, pilot: &Pilot, done: &WorkerMsg) -> std::io::Result<()> {
        let alone = self.stopping || pilot.killed();
        let sent = match &mut self.wire {
            Some(wire) if alone => wire.send(done),
            Some(wire) => wire.send_pair(done, &WorkerMsg::Request),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        if sent.is_err() {
            // Whoever wrote, it is the agent that ends the session: a
            // severed socket is what it wakes up on.
            if let Some(wire) = self.wire.take() {
                let _ = wire.get_ref().shutdown(Shutdown::Both);
            }
        }
        sent
    }

    /// Trip the in-flight task's token if `task_id` names it — gang
    /// teardown, a deadline, or a rejected claim. True when this was the
    /// first cancel, which starts the grace clock.
    fn cancel(&mut self, task_id: u64) -> bool {
        match &mut self.task {
            Some(task) if task.task_id == task_id && !task.canceled => {
                task.cancel.cancel();
                task.canceled = true;
                true
            }
            _ => false, // stale
        }
    }

    /// A task is on its way to its runner.
    fn begin(&mut self, pilot: &Pilot, task: RunningTask) {
        if let Some(log) = &pilot.log {
            log.record(EventKind::TaskStarted {
                task: task.task_id,
                job: task.job_id,
                worker: self.worker_id,
                ranks: task.ranks,
            });
            let (trace, job) = (task.trace, task.job_id);
            log.span_start(trace, SpanKind::Exec, WriterRole::Worker, job, task.task_id);
        }
        self.task = Some(task);
    }

    /// Runner `runner` finished the task it was handed: report it. False
    /// when that runner was abandoned, and its late result discarded.
    fn finish(&mut self, pilot: &Pilot, runner: u64, outcome: TaskOutcome) -> bool {
        if self.task.as_ref().is_none_or(|t| t.runner != runner) {
            return false;
        }
        self.end_task(pilot, Some(outcome))
    }

    /// The in-flight task ended — `outcome` from its runner, `None` when
    /// the runner was given up on. Record it, report it and ask for the
    /// next; a report that misses the wire is stashed. False when no task
    /// was in flight.
    fn end_task(&mut self, pilot: &Pilot, outcome: Option<TaskOutcome>) -> bool {
        let Some(task) = self.task.take() else {
            return false;
        };
        // A canceled task always reports EXIT_CANCELED — the dispatcher
        // already discounted the task, so the report's only job is
        // recycling this worker via the stale-Done path.
        let outcome = match outcome {
            Some(o) if !task.canceled => o,
            abandoned_or_canceled => TaskOutcome {
                exit_code: EXIT_CANCELED,
                output: abandoned_or_canceled.and_then(|o| o.output),
            },
        };
        let wall_ms = task.started.elapsed().as_millis() as u64;
        if let Some(log) = &pilot.log {
            // For a carried task this closes the span the original
            // session opened; the outage is inside it, which is the truth.
            let (trace, job) = (task.trace, task.job_id);
            log.span_end(trace, SpanKind::Exec, WriterRole::Worker, job, task.task_id);
            log.record(EventKind::TaskEnded {
                task: task.task_id,
                job: task.job_id,
                worker: self.worker_id,
                ranks: task.ranks,
                exit_code: outcome.exit_code,
                trace: task.trace,
            });
        }
        if let Some(m) = &pilot.config.metrics {
            m.tasks_executed_total.inc();
            if task.canceled {
                m.tasks_canceled_total.inc();
            } else if outcome.exit_code != 0 {
                m.tasks_failed_total.inc();
            }
            m.task_seconds.record(wall_ms.saturating_mul(1_000));
        }
        let done = WorkerMsg::Done {
            task_id: task.task_id,
            exit_code: outcome.exit_code,
            wall_ms,
            output: outcome.output,
            trace: task.trace,
        };
        if self.report(pilot, &done).is_ok() {
            self.tasks_done += 1;
        } else if !pilot.killed() && !task.canceled {
            // Stash it for replay after the next registration so the
            // dispatcher still hears the result exactly once (a canceled
            // report carries no information a recovering dispatcher
            // wants).
            self.stashed.push(done);
        }
        if self.stopping {
            // That was the last report. The agent reads (or is about to
            // read) a socket that will say no more: hang up that half,
            // so that it wakes and says `Goodbye`.
            if let Some(wire) = &self.wire {
                let _ = wire.get_ref().shutdown(Shutdown::Read);
            }
        }
        true
    }
}

type Rx = MsgReader<BufReader<TcpStream>>;

/// The thread tasks execute on: jobs in over the returned channel, each
/// result reported through [`Link::finish`]. Tasks run off the agent's
/// own thread so that a kill or an expired cancel grace can abandon one:
/// dropping the sender lets the stuck thread finish in the background,
/// its result discarded — just as a killed pilot's task dies with the
/// node — and the next task lazily starts a fresh runner.
fn spawn_runner(
    pilot: Arc<Pilot>,
    id: u64,
) -> std::io::Result<Sender<(TaskAssignment, CancelToken)>> {
    let (jobs, inbox) = channel::<(TaskAssignment, CancelToken)>();
    thread::Builder::new()
        .name("task".to_string())
        .stack_size(256 * 1024)
        .spawn(move || {
            // Ends when the sender is dropped: abandoned, or the agent
            // exited.
            for (assignment, cancel) in inbox.iter() {
                let run = || pilot.executor.execute_cancellable(&assignment, &cancel);
                // A panicking task fails that task, not the pilot.
                let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or(TaskOutcome {
                    exit_code: EXIT_RANK_PANIC,
                    output: None,
                });
                if !pilot.link.lock().finish(&pilot, id, outcome) {
                    return;
                }
            }
        })?;
    Ok(jobs)
}

/// The agent thread's own state; what it shares is in [`Pilot`].
struct Agent {
    pilot: Arc<Pilot>,
    /// The current runner's id and job channel.
    runner: Option<(u64, Sender<(TaskAssignment, CancelToken)>)>,
    runners_started: u64,
    /// When the canceled in-flight task is given up on. The only thing
    /// that puts a timeout on the socket read.
    grace: Option<Instant>,
    local_cache: LazyCache,
}

impl Agent {
    fn lost_or_killed(&self) -> SessionEnd {
        if self.pilot.killed() {
            SessionEnd::Killed
        } else {
            SessionEnd::Lost
        }
    }

    fn run(mut self) -> WorkerExit {
        let reason = self.run_sessions();
        WorkerExit {
            tasks_done: self.pilot.link.lock().tasks_done,
            reason,
        }
    }

    /// Connect, run a session, and reconnect under the policy until the
    /// dispatcher says `Shutdown`, the kill switch fires, or the policy
    /// gives up.
    fn run_sessions(&mut self) -> ExitReason {
        let pilot = Arc::clone(&self.pilot);
        let config = &pilot.config;
        if !config.connect_delay.is_zero() {
            thread::sleep(config.connect_delay);
        }
        let mut failed_attempts = 0u32;
        // Deterministic per seed, so a test can replay a backoff schedule.
        let mut jitter = SplitMix64::new(config.reconnect.as_ref().map_or(1, |p| p.seed));
        loop {
            if pilot.killed() {
                return ExitReason::Killed;
            }
            if let Ok(stream) = TcpStream::connect(&config.dispatcher_addr) {
                failed_attempts = 0;
                let end = self.run_session(stream);
                // Nothing left to sever — and an abandoned runner, which
                // shares the pilot, must not hold the socket open.
                *pilot.sock.lock() = None;
                match end {
                    SessionEnd::Shutdown => return ExitReason::Shutdown,
                    SessionEnd::Killed => return ExitReason::Killed,
                    SessionEnd::Lost => {
                        if let Some(m) = &config.metrics {
                            m.connections_lost_total.inc();
                        }
                    }
                }
            }
            // Connection failed or the session dropped: retry under the
            // reconnect policy, or end the agent the legacy way.
            let Some(policy) = &config.reconnect else {
                return ExitReason::ConnectionLost;
            };
            failed_attempts += 1;
            if failed_attempts > policy.max_attempts {
                return ExitReason::ConnectionLost;
            }
            // Exponential backoff, capped, with up to `jitter` shaved off so
            // a partitioned allocation does not reconnect in lockstep.
            let shift = (failed_attempts - 1).min(16);
            let backoff = policy
                .base_backoff
                .saturating_mul(1u32 << shift)
                .min(policy.max_backoff);
            let mut remaining =
                backoff.mul_f64(1.0 - policy.jitter.clamp(0.0, 1.0) * jitter.gen_f64());
            // Sleep in slices so a kill during backoff is honoured promptly.
            while !remaining.is_zero() {
                if pilot.killed() {
                    return ExitReason::Killed;
                }
                let slice = remaining.min(Duration::from_millis(20));
                thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
        }
    }

    /// Run one registered dispatcher session over an established stream:
    /// register, heartbeat, and act on the dispatcher's frames until the
    /// connection ends.
    fn run_session(&mut self, stream: TcpStream) -> SessionEnd {
        let pilot = Arc::clone(&self.pilot);
        let config = &pilot.config;
        stream.set_nodelay(true).ok();
        let (Ok(write_half), Ok(kill_half)) = (stream.try_clone(), stream.try_clone()) else {
            return SessionEnd::Lost;
        };
        *pilot.sock.lock() = Some(kill_half);
        // A kill that found the previous session's socket in the slot.
        if pilot.killed() {
            return SessionEnd::Killed;
        }
        // Nobody else can write until `open_session` shares the wire.
        let mut wire = MsgWriter::new(write_half);
        let mut rx: Rx = MsgReader::new(BufReader::new(stream));
        if wire
            .send(&WorkerMsg::Register {
                name: config.name.clone(),
                cores: config.cores,
                location: config.location.clone(),
            })
            .is_err()
        {
            return self.lost_or_killed();
        }
        let worker_id = match rx.recv::<DispatcherMsg>().ok().flatten() {
            Some(DispatcherMsg::Registered { worker_id }) => {
                if let Some(m) = &config.metrics {
                    m.sessions_total.inc();
                }
                worker_id
            }
            // Anything but the Registered ack before the handshake
            // completes means a confused or dying dispatcher: resync by
            // tearing the session down and reconnecting.
            Some(
                DispatcherMsg::Assign(_)
                | DispatcherMsg::Cancel { .. }
                | DispatcherMsg::Shutdown
                | DispatcherMsg::RelayRegistered { .. }
                | DispatcherMsg::RelayAssign { .. }
                | DispatcherMsg::RelayCancel { .. },
            )
            | None => return self.lost_or_killed(),
        };
        if let Some(log) = &pilot.log {
            log.record(EventKind::WorkerUp { worker: worker_id });
        }
        // Drop guard, not per-return records: the session exits from many
        // arms below, and the replayed ring should show one `WorkerDown`
        // for every `WorkerUp` on all of them.
        let _session_events = SessionEventGuard {
            events: pilot.log.as_ref(),
            worker: worker_id,
        };
        if pilot.link.lock().open_session(wire, worker_id).is_err() {
            return self.lost_or_killed();
        }

        let stop = Arc::new(AtomicBool::new(false));
        let heartbeat = config
            .heartbeat
            .map(|period| spawn_heartbeat(Arc::clone(&pilot), period, Arc::clone(&stop)));
        let end = match heartbeat {
            // Without heartbeats the dispatcher would eventually declare
            // this worker hung; better to fail the session now and retry
            // than to register silently and be quarantined later.
            Some(Err(_)) => self.lost_or_killed(),
            _ => self.session_loop(&mut rx),
        };
        // The heartbeat thread goes first, so `Goodbye` is the last frame.
        stop.store(true, Ordering::Release);
        if let Some(Ok(handle)) = heartbeat {
            handle.thread().unpark();
            let _ = handle.join();
        }
        pilot.link.lock().close_session(end == SessionEnd::Shutdown);
        end
    }

    /// Block for the next dispatcher frame. The read has a timeout only
    /// while a canceled task's grace clock runs; a frame the timeout cuts
    /// in two stays in `rx` and is completed by the next read.
    fn next_frame(&mut self, rx: &mut Rx) -> Result<DispatcherMsg, NoFrame> {
        loop {
            if let Some(deadline) = self.grace {
                let left = deadline.saturating_duration_since(Instant::now());
                let sock = rx.get_ref().get_ref();
                let link = self.pilot.link.lock();
                if !link.task.as_ref().is_some_and(|t| t.canceled) {
                    // It stood down and its runner reported.
                    self.grace = None;
                    let _ = sock.set_read_timeout(None);
                } else if left.is_zero() {
                    return Err(NoFrame::GraceExpired);
                } else {
                    let _ = sock.set_read_timeout(Some(left));
                }
            }
            match rx.recv::<DispatcherMsg>() {
                Ok(Some(msg)) => return Ok(msg),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Ok(None) | Err(_) => return Err(NoFrame::Closed),
            }
        }
    }

    /// Act on the dispatcher's frames until the session ends; the first
    /// `Request` (or the carried task's claim) is already on the wire.
    /// While a task runs the dispatcher's verdict is honoured as it
    /// arrives: silence lets the task finish and its runner report, a
    /// `Cancel` trips its token at once and starts the grace clock.
    fn session_loop(&mut self, rx: &mut Rx) -> SessionEnd {
        let pilot = Arc::clone(&self.pilot);
        loop {
            match self.next_frame(rx) {
                Ok(DispatcherMsg::Assign(assignment)) => {
                    if let Err(end) = self.start(assignment) {
                        return end;
                    }
                }
                Ok(DispatcherMsg::Cancel { task_id }) => {
                    if pilot.link.lock().cancel(task_id) {
                        self.grace = Some(Instant::now() + pilot.config.cancel_grace);
                    }
                }
                Ok(DispatcherMsg::Shutdown) => {
                    let mut link = pilot.link.lock();
                    if link.task.is_none() {
                        return SessionEnd::Shutdown;
                    }
                    link.stopping = true;
                }
                // Stray acks and relay-scoped envelopes (a worker never
                // receives routed frames — its relay unwraps them): ignore.
                Ok(
                    DispatcherMsg::Registered { .. }
                    | DispatcherMsg::RelayRegistered { .. }
                    | DispatcherMsg::RelayAssign { .. }
                    | DispatcherMsg::RelayCancel { .. },
                ) => {}
                Err(NoFrame::GraceExpired) => {
                    // Abandon the runner with the task, unless it
                    // reported at the last moment.
                    if pilot.link.lock().end_task(&pilot, None) {
                        self.runner = None;
                    }
                }
                Err(NoFrame::Closed) => {
                    let mut link = pilot.link.lock();
                    // Hung up on purpose, after the last report (which
                    // went out: the wire is still there).
                    if link.stopping && link.task.is_none() && link.wire.is_some() {
                        return SessionEnd::Shutdown;
                    }
                    link.wire = None;
                    link.stopping = false;
                    // The dispatcher vanished mid-task. Keep the task
                    // alive and carry it into the next session: a
                    // restarted dispatcher re-adopts the gang from our
                    // `SessionState` claim, while a dispatcher that
                    // merely dropped us answers with `Cancel`. A task
                    // already canceled is discounted everywhere —
                    // abandon it.
                    if link.task.as_ref().is_some_and(|t| t.canceled) {
                        link.task = None;
                        self.runner = None;
                    }
                    return self.lost_or_killed();
                }
            }
        }
    }

    /// Report a task that failed before execution started.
    fn report_failure(&self, task_id: u64, trace: u64, exit_code: i32) -> Result<(), SessionEnd> {
        let done = WorkerMsg::Done {
            task_id,
            exit_code,
            wall_ms: 0,
            output: None,
            trace,
        };
        let pilot = &self.pilot;
        let sent = pilot.link.lock().report(pilot, &done);
        sent.map_err(|_| self.lost_or_killed())
    }

    /// Stage an assignment's files and hand it to the runner, starting
    /// one if the last was abandoned. `Err` ends the session.
    fn start(&mut self, mut assignment: TaskAssignment) -> Result<(), SessionEnd> {
        let pilot = &self.pilot;
        let config = &pilot.config;
        // A stray `Assign` while a task is in flight: ignore.
        if pilot.link.lock().task.is_some() {
            return Ok(());
        }
        // Node-local staging (paper Section 5, feature 2): copy the job's
        // listed files into this node's cache once, then expose the cache
        // directory to the task.
        if !assignment.stage.is_empty() {
            let (trace, job, task) = (assignment.trace, assignment.job_id, assignment.task_id);
            if let Some(log) = &pilot.log {
                log.span_start(trace, SpanKind::Stage, WriterRole::Worker, job, task);
            }
            // The span closes on failure too — a stage span whose end
            // abuts a failed report is exactly what the trace should show.
            let staged = match self.local_cache.get_or_init(&config.name) {
                Ok(cache) => cache.stage_all(&assignment.stage).is_ok().then(|| {
                    push_env(
                        &mut assignment,
                        "JETS_LOCAL_DIR",
                        &cache.dir().to_string_lossy(),
                    );
                }),
                Err(_) => None,
            };
            if let Some(log) = &pilot.log {
                log.span_end(trace, SpanKind::Stage, WriterRole::Worker, job, task);
            }
            if staged.is_none() {
                if let Some(m) = &config.metrics {
                    m.staging_failed_total.inc();
                }
                return self.report_failure(task, trace, EXIT_STAGING_FAILED);
            }
        }

        if self.runner.is_none() {
            self.runners_started += 1;
            let id = self.runners_started;
            self.runner = spawn_runner(Arc::clone(pilot), id)
                .ok()
                .map(|jobs| (id, jobs));
        }
        // A task that never got a thread reports the executor's spawn
        // failure code, exactly as if the process itself had failed to
        // start; the dispatcher's retry ladder takes it from there.
        let Some((runner, jobs)) = &self.runner else {
            return self.report_failure(assignment.task_id, assignment.trace, EXIT_SPAWN_FAILED);
        };
        let task = RunningTask {
            task_id: assignment.task_id,
            job_id: assignment.job_id,
            trace: assignment.trace,
            ranks: match &assignment.kind {
                jets_core::protocol::TaskKind::Sequential { .. } => 1,
                jets_core::protocol::TaskKind::MpiProxy { ranks, .. } => ranks.len() as u32,
            },
            runner: *runner,
            cancel: CancelToken::new(),
            started: Instant::now(),
            canceled: false,
            // Guard, not paired inc/dec calls: the task leaves the link
            // on several paths, and the gauge must balance on all of them.
            _inflight: config.metrics.as_ref().map(|m| {
                m.tasks_inflight.inc();
                InflightGuard(Arc::clone(&m.tasks_inflight))
            }),
        };
        // In the link before the runner has it: the runner reports
        // through the link, possibly before `send` returns.
        let cancel = task.cancel.clone();
        pilot.link.lock().begin(pilot, task);
        if jobs.send((assignment, cancel)).is_err() {
            // The runner thread is gone; the task never ran.
            let outcome = TaskOutcome {
                exit_code: EXIT_SPAWN_FAILED,
                output: None,
            };
            pilot.link.lock().finish(pilot, *runner, outcome);
            self.runner = None;
        }
        Ok(())
    }
}

/// The session's heartbeat thread: one `Heartbeat` per `period` until
/// the session ends (`stop`, with an unpark so it ends now and not a
/// period later), the pilot is killed, or the wire fails.
fn spawn_heartbeat(
    pilot: Arc<Pilot>,
    period: Duration,
    stop: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    thread::Builder::new()
        .name(format!("hb-{}", pilot.config.name))
        .stack_size(64 * 1024)
        .spawn(move || {
            let mut due = Instant::now() + period;
            while !stop.load(Ordering::Acquire) && !pilot.killed() {
                let now = Instant::now();
                if now < due {
                    thread::park_timeout(due - now);
                } else if pilot.link.lock().send(&WorkerMsg::Heartbeat).is_ok() {
                    due = now + period;
                } else {
                    return;
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::standard_registry;
    use crate::executor::Executor;
    use jets_core::spec::{CommandSpec, JobSpec};
    use jets_core::{Dispatcher, DispatcherConfig, JobStatus};

    const WAIT: Duration = Duration::from_secs(30);

    fn executor() -> Arc<dyn TaskExecutor> {
        Arc::new(Executor::new(standard_registry()))
    }

    fn spawn_workers(d: &Dispatcher, n: usize) -> Vec<Worker> {
        let exec = executor();
        (0..n)
            .map(|i| {
                Worker::spawn(
                    WorkerConfig::new(d.addr().to_string(), format!("w{i}")),
                    Arc::clone(&exec),
                )
            })
            .collect()
    }

    #[test]
    fn worker_runs_sequential_jobs_end_to_end() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let workers = spawn_workers(&d, 2);
        let ids = d
            .submit_all((0..10).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        d.shutdown();
        let total: u64 = workers.into_iter().map(|w| w.join().tasks_done).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn worker_runs_mpi_job_end_to_end() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let workers = spawn_workers(&d, 4);
        let id = d.submit(JobSpec::mpi(
            4,
            CommandSpec::builtin("mpi-sleep", vec!["10".into()]),
        ));
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        for w in workers {
            assert_eq!(w.join().reason, ExitReason::Shutdown);
        }
    }

    #[test]
    fn mpi_job_with_ppn_runs_all_ranks() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let workers = spawn_workers(&d, 2);
        // 2 nodes × 3 ranks = 6-rank job.
        let id = d.submit(JobSpec::mpi_ppn(
            2,
            3,
            CommandSpec::builtin("mpi-sleep", vec!["5".into()]),
        ));
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        for w in workers {
            w.join();
        }
    }

    #[test]
    fn killed_worker_reports_killed_and_dispatcher_requeues() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let workers = spawn_workers(&d, 1);
        let id = d.submit(
            JobSpec::sequential(CommandSpec::builtin("sleep", vec!["500".into()])).with_retries(1),
        );
        // Let the task start, then kill the pilot mid-task.
        thread::sleep(Duration::from_millis(100));
        workers[0].kill();
        let exit = workers.into_iter().next().unwrap().join();
        assert_eq!(exit.reason, ExitReason::Killed);
        assert_eq!(exit.tasks_done, 0);
        // A replacement worker completes the requeued job.
        let replacement = spawn_workers(&d, 1);
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        for w in replacement {
            w.join();
        }
    }

    /// What [`ProbeExecutor`] saw.
    #[derive(Default)]
    struct ProbeLog {
        /// The thread each task ran on, in order.
        threads: Vec<thread::ThreadId>,
        /// When each `until-cancel` task saw its token tripped.
        tripped: Vec<Instant>,
    }

    /// An executor that records where its tasks run. `block` ignores
    /// its token and spins until the test releases it; `until-cancel`
    /// returns the moment its token trips; `spin:N` ignores its token
    /// for N µs; anything else is a no-op.
    #[derive(Default)]
    struct ProbeExecutor {
        log: Mutex<ProbeLog>,
        release: AtomicBool,
    }

    impl TaskExecutor for ProbeExecutor {
        fn execute(&self, _assignment: &TaskAssignment) -> i32 {
            0
        }

        fn execute_cancellable(&self, a: &TaskAssignment, cancel: &CancelToken) -> TaskOutcome {
            self.log.lock().threads.push(thread::current().id());
            match a.cmd().name() {
                app if app.starts_with("spin:") => spin(app[5..].parse().unwrap()),
                "block" => {
                    while !self.release.load(Ordering::Acquire) {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
                "until-cancel" => {
                    while !cancel.is_canceled() {
                        thread::sleep(Duration::from_micros(50));
                    }
                    self.log.lock().tripped.push(Instant::now());
                }
                _ => {}
            }
            TaskOutcome {
                exit_code: 0,
                output: None,
            }
        }
    }

    fn spin(us: u64) {
        let until = Instant::now() + Duration::from_micros(us);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    /// The dispatcher end of one agent connection, driven by the test
    /// frame by frame so that what the agent puts on the wire, and when,
    /// is observable.
    struct ScriptedDispatcher {
        listener: std::net::TcpListener,
        rx: MsgReader<BufReader<TcpStream>>,
        tx: MsgWriter<TcpStream>,
    }

    impl ScriptedDispatcher {
        /// Spawn an agent against a scripted dispatcher and take it
        /// through registration and its first `Request`.
        fn with_agent(
            config: impl FnOnce(WorkerConfig) -> WorkerConfig,
            exec: Arc<ProbeExecutor>,
        ) -> (Self, Worker) {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let worker = Worker::spawn(config(WorkerConfig::new(addr, "scripted")), exec);
            let (rx, tx) = Self::accept(&listener);
            let mut d = ScriptedDispatcher { listener, rx, tx };
            d.register();
            assert_eq!(d.recv(), WorkerMsg::Request);
            (d, worker)
        }

        fn accept(
            listener: &std::net::TcpListener,
        ) -> (MsgReader<BufReader<TcpStream>>, MsgWriter<TcpStream>) {
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(WAIT)).unwrap();
            stream.set_nodelay(true).unwrap();
            let tx = MsgWriter::new(stream.try_clone().unwrap());
            (MsgReader::new(BufReader::new(stream)), tx)
        }

        /// Take the agent's `Register` and acknowledge it.
        fn register(&mut self) {
            assert!(matches!(self.recv(), WorkerMsg::Register { .. }));
            self.tx
                .send(&DispatcherMsg::Registered { worker_id: 1 })
                .unwrap();
        }

        /// Cut the connection, as a dying dispatcher would, and take the
        /// agent's next one through registration.
        fn cut_and_reaccept(&mut self, before_registered: impl FnOnce()) {
            self.tx.get_ref().shutdown(Shutdown::Both).unwrap();
            (self.rx, self.tx) = Self::accept(&self.listener);
            before_registered();
            self.register();
        }

        /// Every frame up to the agent's hang-up.
        fn frames_to_eof(&mut self) -> Vec<WorkerMsg> {
            std::iter::from_fn(|| self.rx.recv().unwrap()).collect()
        }

        /// Send `Shutdown`; the agent's exit and what it wrote on its way.
        fn shut_down(mut self, w: Worker) -> (WorkerExit, Vec<WorkerMsg>) {
            self.tx.send(&DispatcherMsg::Shutdown).unwrap();
            (w.join(), self.frames_to_eof())
        }

        fn recv(&mut self) -> WorkerMsg {
            self.rx.recv().unwrap().expect("agent hung up")
        }

        fn assign(&mut self, task_id: u64, app: &str) {
            self.tx.send(&Self::assignment(task_id, app)).unwrap();
        }

        fn assignment(task_id: u64, app: &str) -> DispatcherMsg {
            DispatcherMsg::Assign(TaskAssignment {
                task_id,
                job_id: task_id,
                trace: 0,
                kind: jets_core::protocol::TaskKind::Sequential {
                    cmd: CommandSpec::builtin(app, vec![]),
                },
                stage: Vec::new(),
            })
        }

        /// The `Done` for `task_id` and the `Request` that rides with it.
        fn done_then_request(&mut self, task_id: u64) -> i32 {
            let WorkerMsg::Done {
                task_id: t,
                exit_code,
                ..
            } = self.recv()
            else {
                panic!("expected Done");
            };
            assert_eq!(t, task_id);
            assert_eq!(self.recv(), WorkerMsg::Request);
            exit_code
        }
    }

    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + WAIT;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequential_tasks_share_one_runner_thread() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let exec = Arc::new(ProbeExecutor::default());
        let w = Worker::spawn(WorkerConfig::new(d.addr().to_string(), "one"), exec.clone());
        d.submit_all((0..200).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        d.shutdown();
        assert_eq!(w.join().tasks_done, 200);
        let mut threads = std::mem::take(&mut exec.log.lock().threads);
        assert_eq!(threads.len(), 200);
        threads.dedup();
        assert_eq!(threads.len(), 1, "a thread per task is what this replaced");
    }

    #[test]
    fn expired_cancel_grace_abandons_the_runner_and_the_next_task_gets_a_fresh_one() {
        let grace = Duration::from_millis(60);
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(
            |c| WorkerConfig {
                cancel_grace: grace,
                ..c
            },
            exec.clone(),
        );
        d.assign(1, "block");
        wait_for("the blocking task to start", || {
            exec.log.lock().threads.len() == 1
        });
        let canceled_at = Instant::now();
        d.tx.send(&DispatcherMsg::Cancel { task_id: 1 }).unwrap();
        assert_eq!(d.done_then_request(1), EXIT_CANCELED);
        assert!(
            canceled_at.elapsed() >= grace,
            "reported before the grace ran out"
        );
        // The first task is still stuck; the second must not queue behind it.
        d.assign(2, "noop");
        assert_eq!(d.done_then_request(2), 0);
        assert!(!exec.release.load(Ordering::Acquire));
        let threads = exec.log.lock().threads.clone();
        assert_eq!(threads.len(), 2);
        assert_ne!(
            threads[0], threads[1],
            "second task ran on the stuck runner"
        );
        d.tx.send(&DispatcherMsg::Shutdown).unwrap();
        let exit = w.join();
        assert_eq!((exit.reason, exit.tasks_done), (ExitReason::Shutdown, 2));
        exec.release.store(true, Ordering::Release);
    }

    #[test]
    fn kill_mid_task_does_not_wait_for_the_task() {
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(|c| c, exec.clone());
        d.assign(1, "block");
        wait_for("the blocking task to start", || {
            exec.log.lock().threads.len() == 1
        });
        w.kill();
        // `join` returning at all is the point: the task never does
        // until released below.
        let exit = w.join();
        assert_eq!((exit.reason, exit.tasks_done), (ExitReason::Killed, 0));
        assert!(!exec.release.load(Ordering::Acquire));
        exec.release.store(true, Ordering::Release);
    }

    /// A `Cancel` trips the token when it is read. The loop this
    /// replaced looked at its inbox every 20 ms, so the task learned of
    /// a cancel 10 ms late on average.
    #[test]
    fn cancel_trips_the_token_without_waiting_for_a_poll_tick() {
        const ROUNDS: usize = 9;
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(|c| c, exec.clone());
        let mut delays = Vec::new();
        for round in 0..ROUNDS {
            let task_id = round as u64 + 1;
            d.assign(task_id, "until-cancel");
            wait_for("the task to start", || {
                exec.log.lock().threads.len() == round + 1
            });
            let sent = Instant::now();
            d.tx.send(&DispatcherMsg::Cancel { task_id }).unwrap();
            assert_eq!(d.done_then_request(task_id), EXIT_CANCELED);
            delays.push(exec.log.lock().tripped[round].duration_since(sent));
        }
        delays.sort();
        // The median, so one descheduled round on a busy host is not a failure.
        let median = delays[ROUNDS / 2];
        assert!(
            median < Duration::from_millis(2),
            "cancel-to-trip delays: {delays:?}"
        );
        d.tx.send(&DispatcherMsg::Shutdown).unwrap();
        assert_eq!(w.join().reason, ExitReason::Shutdown);
    }

    /// Whichever of the runner (task over) and the agent (`Cancel` read)
    /// gets to the link first decides the exit code; the other finds
    /// nothing left to report.
    #[test]
    fn cancel_racing_completion_yields_one_done_then_one_request() {
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(|c| c, exec);
        let mut rng = SplitMix64::new(15);
        for task_id in 1..=200 {
            let (run_us, cancel_after_us) = (rng.gen_range(0..300), rng.gen_range(0..300));
            d.assign(task_id, &format!("spin:{run_us}"));
            spin(cancel_after_us);
            d.tx.send(&DispatcherMsg::Cancel { task_id }).unwrap();
            let exit_code = d.done_then_request(task_id);
            assert!(matches!(exit_code, 0 | EXIT_CANCELED), "exit {exit_code}");
        }
        // A second `Done` or `Request` anywhere above would have been
        // read in place of the next round's `Done`, or of this `Goodbye`.
        let (exit, frames) = d.shut_down(w);
        assert_eq!(frames, [WorkerMsg::Goodbye]);
        assert_eq!((exit.reason, exit.tasks_done), (ExitReason::Shutdown, 200));
    }

    #[test]
    fn task_that_ends_during_an_outage_is_reported_once_on_the_next_wire() {
        let exec = Arc::new(ProbeExecutor::default());
        let policy = ReconnectPolicy {
            base_backoff: Duration::from_millis(5),
            ..ReconnectPolicy::default()
        };
        let (mut d, w) = ScriptedDispatcher::with_agent(|c| c.with_reconnect(policy), exec.clone());
        d.assign(1, "block");
        wait_for("the blocking task to start", || {
            exec.log.lock().threads.len() == 1
        });
        // The agent is back and waiting for `Registered` when the task
        // ends: no wire to report on.
        d.cut_and_reaccept(|| {
            exec.release.store(true, Ordering::Release);
            thread::sleep(Duration::from_millis(50));
        });
        // Stashed by then (or, on a slow host, still running and claimed).
        let WorkerMsg::SessionState { running } = d.recv() else {
            panic!("expected SessionState");
        };
        assert!(running.is_none() || running == Some((1, 1)));
        assert_eq!(d.done_then_request(1), 0);
        d.assign(2, "noop");
        assert_eq!(d.done_then_request(2), 0);
        let (exit, frames) = d.shut_down(w);
        assert_eq!(frames, [WorkerMsg::Goodbye]);
        assert_eq!((exit.reason, exit.tasks_done), (ExitReason::Shutdown, 2));
    }

    #[test]
    fn shutdown_mid_task_yields_done_without_request_then_goodbye() {
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(|c| c, exec.clone());
        d.assign(1, "block");
        wait_for("the blocking task to start", || {
            exec.log.lock().threads.len() == 1
        });
        d.tx.send(&DispatcherMsg::Shutdown).unwrap();
        // Time for the agent to read it; the task is what it waits for.
        thread::sleep(Duration::from_millis(100));
        assert!(!w.is_finished());
        exec.release.store(true, Ordering::Release);
        let exit = w.join();
        let frames = d.frames_to_eof();
        assert!(
            matches!(
                frames[..],
                [
                    WorkerMsg::Done {
                        task_id: 1,
                        exit_code: 0,
                        ..
                    },
                    WorkerMsg::Goodbye
                ]
            ),
            "{frames:?}"
        );
        assert_eq!((exit.reason, exit.tasks_done), (ExitReason::Shutdown, 1));
    }

    #[test]
    fn shutdown_then_expired_grace_still_ends_the_agent() {
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(
            |c| WorkerConfig {
                cancel_grace: Duration::from_millis(40),
                ..c
            },
            exec.clone(),
        );
        d.assign(1, "block");
        wait_for("the blocking task to start", || {
            exec.log.lock().threads.len() == 1
        });
        // Nobody releases the task: it is the agent that gives up on it.
        d.tx.send(&DispatcherMsg::Cancel { task_id: 1 }).unwrap();
        let (exit, frames) = d.shut_down(w);
        assert!(
            matches!(
                frames[..],
                [
                    WorkerMsg::Done {
                        task_id: 1,
                        exit_code: EXIT_CANCELED,
                        ..
                    },
                    WorkerMsg::Goodbye
                ]
            ),
            "{frames:?}"
        );
        assert_eq!((exit.reason, exit.tasks_done), (ExitReason::Shutdown, 1));
        exec.release.store(true, Ordering::Release);
    }

    /// The grace clock is a read timeout on the session socket; a frame
    /// half-received when it fires must survive it.
    #[test]
    fn frame_split_across_the_cancel_grace_wait_is_delivered_whole() {
        use std::io::Write;
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(
            |c| WorkerConfig {
                cancel_grace: Duration::from_millis(60),
                ..c
            },
            exec.clone(),
        );
        d.assign(1, "block");
        wait_for("the blocking task to start", || {
            exec.log.lock().threads.len() == 1
        });
        let mut frame = Vec::new();
        jets_core::protocol::encode_msg_buf(&ScriptedDispatcher::assignment(2, "noop"), &mut frame)
            .unwrap();
        let (head, tail) = frame.split_at(frame.len() / 2);
        d.tx.send(&DispatcherMsg::Cancel { task_id: 1 }).unwrap();
        d.tx.get_mut().write_all(head).unwrap();
        // The timed read ran out with `head` in hand.
        assert_eq!(d.done_then_request(1), EXIT_CANCELED);
        d.tx.get_mut().write_all(tail).unwrap();
        assert_eq!(d.done_then_request(2), 0);
        d.tx.send(&DispatcherMsg::Shutdown).unwrap();
        assert_eq!(w.join().reason, ExitReason::Shutdown);
        exec.release.store(true, Ordering::Release);
    }

    /// The heartbeat thread ends with its session, not up to a period
    /// (and one `Heartbeat`) later.
    #[test]
    fn goodbye_is_the_last_frame_of_a_shut_down_session() {
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(
            |c| WorkerConfig {
                heartbeat: Some(Duration::from_millis(5)),
                ..c
            },
            exec,
        );
        assert_eq!(d.recv(), WorkerMsg::Heartbeat);
        assert_eq!(d.recv(), WorkerMsg::Heartbeat);
        let (exit, frames) = d.shut_down(w);
        assert_eq!(exit.reason, ExitReason::Shutdown);
        let (last, before) = frames.split_last().expect("a Goodbye at least");
        assert_eq!(*last, WorkerMsg::Goodbye, "{frames:?}");
        assert!(
            before.iter().all(|f| *f == WorkerMsg::Heartbeat),
            "{frames:?}"
        );
    }

    #[test]
    fn shutdown_reaches_idle_workers() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let workers = spawn_workers(&d, 3);
        // Give them time to park.
        thread::sleep(Duration::from_millis(100));
        d.shutdown();
        for w in workers {
            assert_eq!(w.join().reason, ExitReason::Shutdown);
        }
    }

    #[test]
    fn staged_files_reach_the_task_through_the_local_cache() {
        let dir = std::env::temp_dir().join(format!("agent-stage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("params.dat");
        std::fs::write(&source, "force-field v2").unwrap();

        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let registry = standard_registry();
        registry.register("read-local", |ctx: &crate::executor::TaskContext| {
            let Some(local_dir) = ctx.env("JETS_LOCAL_DIR") else {
                return 40;
            };
            match std::fs::read_to_string(std::path::Path::new(&local_dir).join("params.dat")) {
                Ok(content) if content == "force-field v2" => 0,
                Ok(_) => 41,
                Err(_) => 42,
            }
        });
        let w = Worker::spawn(
            WorkerConfig::new(d.addr().to_string(), "stager"),
            Arc::new(Executor::new(registry)),
        );
        let spec =
            JobSpec::sequential(CommandSpec::builtin("read-local", vec![])).with_stage(vec![
                jets_core::spec::StageFile::new(source.to_string_lossy().into_owned()),
            ]);
        // Submit twice: the second run must hit the cache (same success).
        let a = d.submit(spec.clone());
        let b = d.submit(spec);
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(a).unwrap().status, JobStatus::Succeeded);
        assert_eq!(d.job_record(b).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        w.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staging_failure_fails_the_task_not_the_worker() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let w = Worker::spawn(
            WorkerConfig::new(d.addr().to_string(), "stager2"),
            executor(),
        );
        let bad = JobSpec::sequential(CommandSpec::builtin("noop", vec![]))
            .with_stage(vec![jets_core::spec::StageFile::new("/no/such/input")]);
        let id = d.submit(bad);
        // The worker survives and still runs ordinary work afterwards.
        let ok = d.submit(JobSpec::sequential(CommandSpec::builtin("noop", vec![])));
        assert!(d.wait_idle(WAIT));
        let failed = d.job_record(id).unwrap();
        assert_eq!(failed.status, JobStatus::Failed);
        assert_eq!(failed.exit_codes, vec![EXIT_STAGING_FAILED]);
        assert_eq!(d.job_record(ok).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        w.join();
    }

    #[test]
    fn carried_task_yields_to_dispatcher_verdict_after_disconnect() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let w = Worker::spawn(
            WorkerConfig::new(d.addr().to_string(), "carrier")
                .with_reconnect(ReconnectPolicy::default()),
            executor(),
        );
        let id = d.submit(
            JobSpec::sequential(CommandSpec::builtin("sleep", vec!["400".into()])).with_retries(1),
        );
        thread::sleep(Duration::from_millis(100));
        // Sever the link mid-task without killing the pilot. The agent
        // carries the running task into its next session and claims it
        // via `SessionState`; this dispatcher never died, already
        // requeued the job, and rejects the claim with `Cancel` — the
        // retry then runs to completion on the same (recycled) worker.
        w.disconnect();
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        assert_eq!(w.join().reason, ExitReason::Shutdown);
    }

    #[test]
    fn connect_failure_is_reported() {
        // Port 1 on localhost should refuse connections.
        let w = Worker::spawn(WorkerConfig::new("127.0.0.1:1", "lost"), executor());
        let exit = w.join();
        assert_eq!(exit.reason, ExitReason::ConnectionLost);
    }

    #[test]
    fn heartbeats_keep_worker_alive_under_hang_detection() {
        let config = DispatcherConfig {
            heartbeat_timeout: Some(Duration::from_millis(300)),
            ..DispatcherConfig::default()
        };
        let d = Dispatcher::start(config).unwrap();
        let exec = executor();
        let w = Worker::spawn(
            WorkerConfig {
                heartbeat: Some(Duration::from_millis(50)),
                ..WorkerConfig::new(d.addr().to_string(), "hb")
            },
            exec,
        );
        // A long-running task: heartbeats must prevent the monitor from
        // declaring the busy worker hung.
        let id = d.submit(JobSpec::sequential(CommandSpec::builtin(
            "sleep",
            vec!["700".into()],
        )));
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        assert_eq!(w.join().reason, ExitReason::Shutdown);
    }
}
