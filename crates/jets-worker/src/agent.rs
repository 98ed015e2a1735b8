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
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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
    kill_flag: Arc<AtomicBool>,
    sock: Arc<Mutex<Option<TcpStream>>>,
    handle: Option<JoinHandle<WorkerExit>>,
    name: String,
    events: Option<EventLog>,
}

impl Worker {
    /// Start a worker agent on its own thread. Connection happens inside
    /// the thread, so spawning a large simulated allocation is fast.
    pub fn spawn(config: WorkerConfig, executor: Arc<dyn TaskExecutor>) -> Worker {
        let kill_flag = Arc::new(AtomicBool::new(false));
        let sock = Arc::new(Mutex::new(None));
        let name = config.name.clone();
        // The flight recorder is opened here (not in the loop thread) so
        // a bad path surfaces before the agent silently runs unrecorded,
        // and so callers can read the same ring via `events()`. A failed
        // open degrades to no recording: the agent's job is running
        // tasks, not archiving its own diagnostics.
        let events =
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
        let loop_kill = Arc::clone(&kill_flag);
        let loop_sock = Arc::clone(&sock);
        let loop_events = events.clone();
        let handle = thread::Builder::new()
            .name(format!("worker-{name}"))
            .stack_size(256 * 1024)
            .spawn(move || worker_loop(config, executor, loop_kill, loop_sock, loop_events))
            .expect("spawn worker thread");
        Worker {
            kill_flag,
            sock,
            handle: Some(handle),
            name,
            events,
        }
    }

    /// The worker's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The agent's flight-recorder log, when one was configured and its
    /// file opened. Handing out a clone is free — `EventLog` is a shared
    /// handle — and reading it never blocks the agent's writes.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Kill the worker abruptly: sever the dispatcher connection without a
    /// goodbye, abandoning any in-flight task. This is the fault-injection
    /// primitive of the paper's Fig. 10 experiment: the dispatcher sees
    /// EOF, marks the worker dead, and requeues its job.
    pub fn kill(&self) {
        self.kill_flag.store(true, Ordering::Release);
        if let Some(stream) = self.sock.lock().as_ref() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Sever the dispatcher connection *without* setting the kill flag:
    /// the agent sees EOF and — when configured with a
    /// [`ReconnectPolicy`] — registers again after backoff. This is the
    /// chaos harness's network-partition primitive; [`Worker::kill`]
    /// remains the permanent-death primitive.
    pub fn disconnect(&self) {
        if let Some(stream) = self.sock.lock().as_ref() {
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

/// Decrements the in-flight gauge when the task wait exits, on every
/// path (report, session loss, kill, abandoned grace).
struct InflightGuard<'a>(&'a jets_obs::Gauge);

impl Drop for InflightGuard<'_> {
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

/// Everything that can wake the agent. One channel carries all of it,
/// so the agent sleeps in exactly one place and a `Cancel` is acted on
/// the moment it is read, not at the next tick of a poll.
enum AgentEvent {
    /// A frame read by session `session`'s reader thread; `None` marks
    /// the end of that connection.
    Wire {
        session: u64,
        msg: Option<DispatcherMsg>,
    },
    /// Runner `runner` finished the task it was handed.
    Finished { runner: u64, outcome: TaskOutcome },
}

/// The long-lived thread tasks execute on. Tasks run off the agent's
/// own thread so that a kill or an expired cancel grace can abandon one:
/// dropping the handle lets the stuck thread finish in the background,
/// its result discarded — just as a killed pilot's task dies with the
/// node — and the next task lazily starts a fresh runner.
struct TaskRunner {
    /// Stamped on every `Finished` so an abandoned runner's late result
    /// is told apart from the current one's.
    id: u64,
    jobs: Sender<(TaskAssignment, CancelToken)>,
}

impl TaskRunner {
    fn spawn(
        id: u64,
        executor: Arc<dyn TaskExecutor>,
        events: Sender<AgentEvent>,
    ) -> std::io::Result<TaskRunner> {
        let (jobs, inbox) = channel::<(TaskAssignment, CancelToken)>();
        thread::Builder::new()
            .name("task".to_string())
            .stack_size(256 * 1024)
            .spawn(move || {
                // Ends when the handle is dropped (abandoned, or the
                // agent exited) or the agent is gone.
                for (assignment, cancel) in inbox.iter() {
                    let run = || executor.execute_cancellable(&assignment, &cancel);
                    // A panicking task fails that task, not the pilot.
                    let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or(TaskOutcome {
                        exit_code: EXIT_RANK_PANIC,
                        output: None,
                    });
                    let finished = AgentEvent::Finished {
                        runner: id,
                        outcome,
                    };
                    if events.send(finished).is_err() {
                        return;
                    }
                }
            })?;
        Ok(TaskRunner { id, jobs })
    }
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
    cancel: CancelToken,
    started: Instant,
    /// Set once a `Cancel` tripped the token: when the runner is given
    /// up on if the task has not stood down by then.
    cancel_deadline: Option<Instant>,
}

/// The agent's state. Only the wire is per session; the rest survives a
/// lost dispatcher, because a dispatcher restart severs every connection
/// but kills no worker process: the pilot's task is still running and
/// its results still matter. The agent carries both across the gap — the
/// in-flight task (claimed via [`WorkerMsg::SessionState`] so a
/// recovering dispatcher re-adopts the gang instead of relaunching it)
/// and any terminal `Done` report that never reached the old wire
/// (replayed verbatim after the next registration, so the dispatcher
/// hears every result exactly once).
struct Agent<'a> {
    config: &'a WorkerConfig,
    executor: &'a Arc<dyn TaskExecutor>,
    kill: &'a Arc<AtomicBool>,
    sock_slot: &'a Mutex<Option<TcpStream>>,
    log: Option<&'a EventLog>,
    events_tx: Sender<AgentEvent>,
    events: Receiver<AgentEvent>,
    /// Number of the current session; stamps its reader's events.
    session: u64,
    runner: Option<TaskRunner>,
    runners_started: u64,
    /// An outcome the current runner delivered while the agent was
    /// waiting for something else (the `Registered` ack, say).
    finished: Option<TaskOutcome>,
    local_cache: LazyCache,
    tasks_done: u64,
    /// Terminal reports whose send failed: replayed after re-register.
    stashed: Vec<WorkerMsg>,
    /// The in-flight task surviving an outage, if any.
    carried: Option<RunningTask>,
}

type Wire = Arc<Mutex<MsgWriter<TcpStream>>>;

fn worker_loop(
    config: WorkerConfig,
    executor: Arc<dyn TaskExecutor>,
    kill: Arc<AtomicBool>,
    sock_slot: Arc<Mutex<Option<TcpStream>>>,
    events: Option<EventLog>,
) -> WorkerExit {
    let (events_tx, events_rx) = channel();
    let mut agent = Agent {
        config: &config,
        executor: &executor,
        kill: &kill,
        sock_slot: &sock_slot,
        log: events.as_ref(),
        events_tx,
        events: events_rx,
        session: 0,
        runner: None,
        runners_started: 0,
        finished: None,
        local_cache: LazyCache::default(),
        tasks_done: 0,
        stashed: Vec::new(),
        carried: None,
    };
    let reason = agent.run();
    WorkerExit {
        tasks_done: agent.tasks_done,
        reason,
    }
}

impl<'a> Agent<'a> {
    fn killed(&self) -> bool {
        self.kill.load(Ordering::Acquire)
    }

    fn lost_or_killed(&self) -> SessionEnd {
        if self.killed() {
            SessionEnd::Killed
        } else {
            SessionEnd::Lost
        }
    }

    /// Connect, run a session, and reconnect under the policy until the
    /// dispatcher says `Shutdown`, the kill switch fires, or the policy
    /// gives up.
    fn run(&mut self) -> ExitReason {
        let config = self.config;
        if !config.connect_delay.is_zero() {
            thread::sleep(config.connect_delay);
        }
        let mut failed_attempts = 0u32;
        // Deterministic per seed, so a test can replay a backoff schedule.
        let mut jitter = SplitMix64::new(config.reconnect.as_ref().map_or(1, |p| p.seed));
        loop {
            if self.killed() {
                return ExitReason::Killed;
            }
            if let Ok(stream) = TcpStream::connect(&config.dispatcher_addr) {
                failed_attempts = 0;
                match self.run_session(stream) {
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
                if self.killed() {
                    return ExitReason::Killed;
                }
                let slice = remaining.min(Duration::from_millis(20));
                thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
        }
    }

    /// Block for the next event that still matters — not one from a
    /// previous session's reader winding down or from an abandoned
    /// runner — until `deadline` if there is one. `None` means the
    /// deadline passed (the agent holds a sender itself, so the channel
    /// never closes).
    fn next_event(&mut self, deadline: Option<Instant>) -> Option<AgentEvent> {
        loop {
            let event = match deadline {
                None => self.events.recv().ok()?,
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    self.events.recv_timeout(left).ok()?
                }
            };
            let current = match &event {
                AgentEvent::Wire { session, .. } => *session == self.session,
                AgentEvent::Finished { runner, .. } => {
                    self.runner.as_ref().is_some_and(|r| r.id == *runner)
                }
            };
            if current {
                return Some(event);
            }
        }
    }

    /// Block for the next dispatcher frame of this session; `None` when
    /// the connection is gone. A task outcome that arrives meanwhile is
    /// kept for [`Agent::finish_task`].
    fn next_frame(&mut self) -> Option<DispatcherMsg> {
        loop {
            match self.next_event(None)? {
                AgentEvent::Wire { msg, .. } => return msg,
                AgentEvent::Finished { outcome, .. } => self.finished = Some(outcome),
            }
        }
    }

    /// Run one registered dispatcher session over an established stream:
    /// register, heartbeat, request/execute/report until the connection
    /// ends.
    fn run_session(&mut self, stream: TcpStream) -> SessionEnd {
        let config = self.config;
        stream.set_nodelay(true).ok();
        // The kill switch works by severing this clone: that is what
        // wakes an agent parked on its event channel.
        let (Ok(write_half), Ok(kill_half)) = (stream.try_clone(), stream.try_clone()) else {
            return SessionEnd::Lost;
        };
        *self.sock_slot.lock() = Some(kill_half);
        // A kill that found the previous session's socket in the slot.
        if self.killed() {
            return SessionEnd::Killed;
        }
        // All writes (task loop + heartbeats) go through this mutex so JSON
        // lines never interleave. The `MsgWriter` reuses one encode buffer
        // for every message this session will ever send.
        let writer: Wire = Arc::new(Mutex::new(MsgWriter::new(write_half)));

        // Reader thread: socket → event channel, `None` marking connection
        // loss. Decoupling the read from the task loop is what lets a
        // `Cancel` arrive *while* a task is running.
        self.session += 1;
        {
            let session = self.session;
            let events = self.events_tx.clone();
            let mut reader = MsgReader::new(BufReader::new(stream));
            // A session without a reader cannot hear assignments: treat a
            // failed spawn like a lost connection and retry via the normal
            // reconnect policy.
            if thread::Builder::new()
                .name(format!("rx-{}", config.name))
                .stack_size(128 * 1024)
                .spawn(move || loop {
                    let msg = reader.recv::<DispatcherMsg>().ok().flatten();
                    let last = msg.is_none();
                    if events.send(AgentEvent::Wire { session, msg }).is_err() || last {
                        return;
                    }
                })
                .is_err()
            {
                return SessionEnd::Lost;
            }
        }

        if writer
            .lock()
            .send(&WorkerMsg::Register {
                name: config.name.clone(),
                cores: config.cores,
                location: config.location.clone(),
            })
            .is_err()
        {
            return self.lost_or_killed();
        }
        let worker_id = match self.next_frame() {
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
        if let Some(log) = self.log {
            log.record(EventKind::WorkerUp { worker: worker_id });
        }
        // Drop guard, not per-return records: the session exits from many
        // arms below, and the replayed ring should show one `WorkerDown`
        // for every `WorkerUp` on all of them.
        let _session_events = SessionEventGuard {
            events: self.log,
            worker: worker_id,
        };

        // Recovery handshake (dispatcher crash recovery): claim the task
        // carried from the previous session so a restarted dispatcher can
        // re-adopt its gang during the reconciliation window — an
        // established dispatcher answers an unknown claim with `Cancel` —
        // then replay terminal reports that never made it onto the old
        // wire, oldest first, keeping the rest stashed if this wire dies
        // too.
        if self.carried.is_some() || !self.stashed.is_empty() {
            let claim = self.carried.as_ref().map(|t| (t.task_id, t.job_id));
            if writer
                .lock()
                .send(&WorkerMsg::SessionState { running: claim })
                .is_err()
            {
                return self.lost_or_killed();
            }
            while let Some(msg) = self.stashed.first() {
                if writer.lock().send(msg).is_err() {
                    return self.lost_or_killed();
                }
                self.stashed.remove(0);
                self.tasks_done += 1;
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        if let Some(period) = config.heartbeat {
            let hb_writer = Arc::clone(&writer);
            let hb_stop = Arc::clone(&stop);
            let hb_kill = Arc::clone(self.kill);
            // Without heartbeats the dispatcher would eventually declare
            // this worker hung; better to fail the session now and retry
            // than to register silently and be quarantined later.
            if thread::Builder::new()
                .name(format!("hb-{}", config.name))
                .stack_size(64 * 1024)
                .spawn(move || {
                    while !hb_stop.load(Ordering::Acquire) && !hb_kill.load(Ordering::Acquire) {
                        thread::sleep(period);
                        if hb_writer.lock().send(&WorkerMsg::Heartbeat).is_err() {
                            return;
                        }
                    }
                })
                .is_err()
            {
                return self.lost_or_killed();
            }
        }

        // Wait out the carried task (if any) before asking for new work.
        // Either way the first `Request` is on the wire when the ordinary
        // request/execute/report loop starts.
        let asked = match self.carried.take() {
            Some(task) => self.finish_task(&writer, task, worker_id),
            None => writer
                .lock()
                .send(&WorkerMsg::Request)
                .map_err(|_| self.lost_or_killed()),
        };
        let end = match asked {
            Ok(()) => self.task_loop(&writer, worker_id),
            Err(end) => end,
        };
        stop.store(true, Ordering::Release);
        if end == SessionEnd::Shutdown {
            let _ = writer.lock().send(&WorkerMsg::Goodbye);
        }
        end
    }

    /// Put a task's `Done` on the wire and, in the same write, the
    /// `Request` for the next task — the dispatcher reads both in one
    /// wakeup. An agent that is stopping reports without asking.
    fn report(&self, writer: &Wire, done: &WorkerMsg, stopping: bool) -> std::io::Result<()> {
        if stopping || self.killed() {
            writer.lock().send(done)
        } else {
            writer.lock().send_pair(done, &WorkerMsg::Request)
        }
    }

    /// Report a task that failed before execution started.
    fn report_failure(
        &self,
        writer: &Wire,
        task_id: u64,
        trace: u64,
        exit_code: i32,
    ) -> Result<(), SessionEnd> {
        let done = WorkerMsg::Done {
            task_id,
            exit_code,
            wall_ms: 0,
            output: None,
            trace,
        };
        self.report(writer, &done, false)
            .map_err(|_| self.lost_or_killed())
    }

    /// Hand a task to the runner, starting one if the last was abandoned.
    fn start_task(&mut self, assignment: TaskAssignment, cancel: CancelToken) -> bool {
        if self.runner.is_none() {
            self.runners_started += 1;
            let spawned = TaskRunner::spawn(
                self.runners_started,
                Arc::clone(self.executor),
                self.events_tx.clone(),
            );
            self.runner = spawned.ok();
        }
        let handed = self
            .runner
            .as_ref()
            .is_some_and(|r| r.jobs.send((assignment, cancel)).is_ok());
        if !handed {
            self.runner = None;
        }
        handed
    }

    /// The execute → report → request loop of one session; the first
    /// `Request` is already on the wire.
    fn task_loop(&mut self, writer: &Wire, worker_id: u64) -> SessionEnd {
        let config = self.config;
        loop {
            if self.killed() {
                return SessionEnd::Killed;
            }
            let mut assignment = loop {
                match self.next_frame() {
                    Some(DispatcherMsg::Assign(a)) => break a,
                    Some(DispatcherMsg::Shutdown) => return SessionEnd::Shutdown,
                    // A cancel racing a task that already reported: ignore.
                    Some(DispatcherMsg::Cancel { .. }) => continue,
                    // Stray acks and relay-scoped envelopes (a worker never
                    // receives routed frames — its relay unwraps them): ignore.
                    Some(
                        DispatcherMsg::Registered { .. }
                        | DispatcherMsg::RelayRegistered { .. }
                        | DispatcherMsg::RelayAssign { .. }
                        | DispatcherMsg::RelayCancel { .. },
                    ) => continue,
                    None => return self.lost_or_killed(),
                }
            };

            // Node-local staging (paper Section 5, feature 2): copy the job's
            // listed files into this node's cache once, then expose the cache
            // directory to the task.
            if !assignment.stage.is_empty() {
                let (trace, job, task) = (assignment.trace, assignment.job_id, assignment.task_id);
                if let Some(log) = self.log {
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
                if let Some(log) = self.log {
                    log.span_end(trace, SpanKind::Stage, WriterRole::Worker, job, task);
                }
                if staged.is_none() {
                    if let Some(m) = &config.metrics {
                        m.staging_failed_total.inc();
                    }
                    match self.report_failure(writer, task, trace, EXIT_STAGING_FAILED) {
                        Ok(()) => continue,
                        Err(end) => return end,
                    }
                }
            }

            let task = RunningTask {
                task_id: assignment.task_id,
                job_id: assignment.job_id,
                trace: assignment.trace,
                ranks: match &assignment.kind {
                    jets_core::protocol::TaskKind::Sequential { .. } => 1,
                    jets_core::protocol::TaskKind::MpiProxy { ranks, .. } => ranks.len() as u32,
                },
                cancel: CancelToken::new(),
                started: Instant::now(),
                cancel_deadline: None,
            };
            // A task that never got a thread reports the executor's spawn
            // failure code, exactly as if the process itself had failed to
            // start; the dispatcher's retry ladder takes it from there.
            if !self.start_task(assignment, task.cancel.clone()) {
                match self.report_failure(writer, task.task_id, task.trace, EXIT_SPAWN_FAILED) {
                    Ok(()) => continue,
                    Err(end) => return end,
                }
            }
            if let Some(log) = self.log {
                log.record(EventKind::TaskStarted {
                    task: task.task_id,
                    job: task.job_id,
                    worker: worker_id,
                    ranks: task.ranks,
                });
                let (trace, job) = (task.trace, task.job_id);
                log.span_start(trace, SpanKind::Exec, WriterRole::Worker, job, task.task_id);
            }
            if let Err(end) = self.finish_task(writer, task, worker_id) {
                return end;
            }
        }
    }

    /// Wait for `task` — just started, or carried over from a lost
    /// session whose `SessionState` claim is already on the wire — then
    /// report it and ask for the next. While it runs the dispatcher's
    /// verdict is honoured as it arrives: silence lets the task finish,
    /// a `Cancel` trips its token at once and starts the grace clock.
    /// `Err` ends the session.
    fn finish_task(
        &mut self,
        writer: &Wire,
        mut task: RunningTask,
        worker_id: u64,
    ) -> Result<(), SessionEnd> {
        let config = self.config;
        // Guard, not paired inc/dec calls: the wait below leaves through
        // several arms, and the gauge must balance on all of them.
        let _inflight = config.metrics.as_ref().map(|m| {
            m.tasks_inflight.inc();
            InflightGuard(&m.tasks_inflight)
        });
        let mut shutdown_after = false;
        let result: Option<TaskOutcome> = loop {
            if let Some(outcome) = self.finished.take() {
                break Some(outcome);
            }
            let msg = match self.next_event(task.cancel_deadline) {
                Some(AgentEvent::Finished { outcome, .. }) => break Some(outcome),
                Some(AgentEvent::Wire { msg, .. }) => msg,
                None => {
                    // Grace expired: abandon the runner with the task.
                    self.runner = None;
                    break None;
                }
            };
            match msg {
                Some(DispatcherMsg::Cancel { task_id }) if task_id == task.task_id => {
                    // Gang teardown, a deadline, or a rejected claim:
                    // trip the token and give the task the grace period
                    // to stand down.
                    if task.cancel_deadline.is_none() {
                        task.cancel.cancel();
                        task.cancel_deadline = Some(Instant::now() + config.cancel_grace);
                    }
                }
                Some(DispatcherMsg::Cancel { .. }) => {} // stale
                Some(DispatcherMsg::Shutdown) => shutdown_after = true,
                // Stray acks / relay-scoped envelopes mid-task: a
                // worker never acts on routed frames.
                Some(
                    DispatcherMsg::Registered { .. }
                    | DispatcherMsg::Assign(_)
                    | DispatcherMsg::RelayRegistered { .. }
                    | DispatcherMsg::RelayAssign { .. }
                    | DispatcherMsg::RelayCancel { .. },
                ) => {}
                None => {
                    if self.killed() {
                        return Err(SessionEnd::Killed);
                    }
                    // The dispatcher vanished mid-task. Keep the task
                    // alive and carry it into the next session: a
                    // restarted dispatcher re-adopts the gang from our
                    // `SessionState` claim, while a dispatcher that
                    // merely dropped us answers with `Cancel`. A task
                    // already canceled is discounted everywhere —
                    // abandon it.
                    if task.cancel_deadline.is_none() {
                        self.carried = Some(task);
                    } else {
                        self.runner = None;
                    }
                    return Err(SessionEnd::Lost);
                }
            }
        };
        // A canceled task always reports EXIT_CANCELED — the dispatcher
        // already discounted the task, so the report's only job is
        // recycling this worker via the stale-Done path.
        let canceled = task.cancel_deadline.is_some();
        let outcome = match result {
            Some(o) if !canceled => o,
            abandoned_or_canceled => TaskOutcome {
                exit_code: EXIT_CANCELED,
                output: abandoned_or_canceled.and_then(|o| o.output),
            },
        };
        let wall_ms = task.started.elapsed().as_millis() as u64;
        if let Some(log) = self.log {
            // For a carried task this closes the span the original
            // session opened; the outage is inside it, which is the truth.
            let (trace, job) = (task.trace, task.job_id);
            log.span_end(trace, SpanKind::Exec, WriterRole::Worker, job, task.task_id);
            log.record(EventKind::TaskEnded {
                task: task.task_id,
                job: task.job_id,
                worker: worker_id,
                ranks: task.ranks,
                exit_code: outcome.exit_code,
                trace: task.trace,
            });
        }
        if let Some(m) = &config.metrics {
            m.tasks_executed_total.inc();
            if canceled {
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
        if self.report(writer, &done, shutdown_after).is_err() {
            // The report never reached the wire. Stash it for replay
            // after the next registration so the dispatcher still hears
            // the result exactly once (a canceled report carries no
            // information a recovering dispatcher wants).
            if !self.killed() && !canceled {
                self.stashed.push(done);
            }
            return Err(self.lost_or_killed());
        }
        self.tasks_done += 1;
        if shutdown_after {
            return Err(SessionEnd::Shutdown);
        }
        Ok(())
    }
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
    /// returns the moment its token trips; anything else is a no-op.
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

    /// The dispatcher end of one agent connection, driven by the test
    /// frame by frame so that what the agent puts on the wire, and when,
    /// is observable.
    struct ScriptedDispatcher {
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
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(WAIT)).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut d = ScriptedDispatcher {
                tx: MsgWriter::new(stream.try_clone().unwrap()),
                rx: MsgReader::new(BufReader::new(stream)),
            };
            assert!(matches!(d.recv(), WorkerMsg::Register { .. }));
            d.tx.send(&DispatcherMsg::Registered { worker_id: 1 })
                .unwrap();
            assert_eq!(d.recv(), WorkerMsg::Request);
            (d, worker)
        }

        fn recv(&mut self) -> WorkerMsg {
            self.rx.recv().unwrap().expect("agent hung up")
        }

        fn assign(&mut self, task_id: u64, app: &str) {
            let assignment = TaskAssignment {
                task_id,
                job_id: task_id,
                trace: 0,
                kind: jets_core::protocol::TaskKind::Sequential {
                    cmd: CommandSpec::builtin(app, vec![]),
                },
                stage: Vec::new(),
            };
            self.tx.send(&DispatcherMsg::Assign(assignment)).unwrap();
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
