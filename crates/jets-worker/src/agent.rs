//! The worker agent: the shell around [`PilotCore`].
//!
//! What a pilot *decides* — what a session opens with, what is carried or
//! stashed across an outage, what `Cancel` and `Shutdown` mean mid-task,
//! when a runner is given up on, when to stop reconnecting — lives in
//! [`crate::core`], each guarantee an invariant that the seeded world
//! (`cluster_sim::des`) checks after every input of 2,000 fault
//! schedules. This file owns what the core may not: socket,
//! clock, lock, threads, cancel token, flight recorder, metric handles.
//!
//! ## Thread anatomy
//!
//! A pilot has two threads. Whichever holds the `Agent` — the session's
//! read half and the reconnect loop around it — is the *reader*; the
//! other is the *watcher*. Roles swap; threads are not tied to them.
//!
//! * **the reader** connects, registers, then blocks in the session
//!   socket's read; a frame is one core input. Whatever blocks happens
//!   here, off the lock, and its *result* is the input: connect +
//!   handshake → `session_up` or `session_down` (whose count sets the
//!   backoff sleep), staging → `assign`'s `staged`, a read timed out on
//!   [`PilotCore::deadline`] → `tick`, EOF → `session_down`. It runs the
//!   task an `Assign` starts itself and delivers `finished`, so `Done`
//!   and the next `Request` leave in one write from the thread that read
//!   the `Assign`: one wake-up per task (`tests/wakeups.rs`).
//! * **the watcher** waits in a [`Poller`] where the reader registers
//!   the session socket, one-shot, before each task and removes it
//!   after. A frame that arrives mid-task (`Cancel`, `Shutdown`, EOF, a
//!   kill) wakes it: it takes the agent over and is the reader from then
//!   on, and the thread whose task ends without the agent becomes the
//!   watcher. A thread the core gave up on learns so from `finished`'s
//!   `false`, and ends; the next task starts a fresh partner.
//! * **the heartbeat** (`hb-*`; if configured, one per session) delivers
//!   `tick` whenever [`PilotCore::heartbeat_due`] says.
//!
//! The first thread is named `worker-*`, the second, started by the first
//! task, `task`. One mutex guards `{core, wire}`. Every input takes it, in
//! `Pilot::input`, and nothing blocks under it but the socket write a
//! send is; the kill switch keeps its own handle on the socket, so that
//! it can sever a session whose write is stuck. The agent moves between
//! the threads through a second one, `Pilot::parked`, held across no read.

use crate::core::{span, Effects, Fact, PilotCore};
use crate::executor::{CancelToken, TaskExecutor, TaskOutcome, EXIT_RANK_PANIC, EXIT_SPAWN_FAILED};
use crate::metrics::WorkerMetrics;
use crate::staging::NodeLocalCache;
use jets_core::protocol::{
    DispatcherMsg, MsgReader, MsgWriter, TaskAssignment, TaskKind, WorkerMsg,
};
use jets_core::spec::CommandSpec;
use jets_core::{EventLog, SpanKind, WriterRole};
use jets_reactor::{Interest, Poller};
use jets_ring::stdx::{Mutex, Rank, SplitMix64};
use std::io::{self, BufReader, ErrorKind};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

pub use crate::core::EXIT_STAGING_FAILED;

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

impl ReconnectPolicy {
    /// The wait before the attempt that follows `failed` failures in a row.
    pub fn backoff(&self, failed: u32, jitter: &mut SplitMix64) -> Duration {
        let shift = failed.saturating_sub(1).min(16);
        let backoff = self.base_backoff.saturating_mul(1u32 << shift);
        let shave = self.jitter.clamp(0.0, 1.0) * jitter.gen_f64();
        backoff.min(self.max_backoff).mul_f64(1.0 - shave)
    }
}

impl ReconnectPolicy {
    /// No retry: the first lost or refused connection ends the agent.
    pub fn connect_once() -> Self {
        ReconnectPolicy {
            max_attempts: 0,
            ..ReconnectPolicy::default()
        }
    }
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
    /// Reconnect-with-backoff policy; [`ReconnectPolicy::connect_once`]
    /// (the default) ends the agent at the first connection loss.
    pub reconnect: ReconnectPolicy,
    /// After a dispatcher `Cancel`, how long the agent waits for the task
    /// to acknowledge the token before abandoning its thread and
    /// reporting [`EXIT_CANCELED`](jets_core::protocol::EXIT_CANCELED).
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
            reconnect: ReconnectPolicy::connect_once(),
            cancel_grace: Duration::from_millis(200),
            metrics: None,
            flight_recorder: None,
        }
    }

    /// Builder-style reconnect policy.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
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

/// A pilot thread's stack. Either thread runs tasks, and an MPI proxy's
/// first local rank runs on the one that read its `Assign`, so this is
/// what a `rank-N` thread gets (address space only).
const STACK: usize = 512 * 1024;

/// A running worker agent (persistent pilot job).
pub struct Worker {
    pilot: Arc<Pilot>,
    /// The agent loop's report, from whichever thread ends the loop, and
    /// the report once `is_finished` has taken it off the channel.
    exit: Mutex<(Receiver<WorkerExit>, Option<WorkerExit>)>,
}

impl Worker {
    /// Start a worker agent on its own thread. Connection happens inside
    /// the thread, so spawning a large simulated allocation is fast.
    #[expect(
        clippy::expect_used,
        reason = "a pilot that cannot get its thread or its poller has nothing to fall back to"
    )]
    pub fn spawn(config: WorkerConfig, executor: Arc<dyn TaskExecutor>) -> Worker {
        // The flight recorder is opened here (not in the loop thread) so
        // a bad path surfaces before the agent silently runs unrecorded,
        // and so callers can read the same ring via `events()`. A failed
        // open degrades to no recording: the agent's job is running tasks.
        let log = config.flight_recorder.as_ref().and_then(|path| {
            let capacity = jets_core::events::DEFAULT_EVENT_CAPACITY;
            let opened = EventLog::file_backed_with_role(path, capacity, WriterRole::Worker);
            let (name, path) = (&config.name, path.display());
            let warn = |err: &io::Error| {
                eprintln!("worker {name}: flight recorder {path} unavailable: {err}")
            };
            opened.inspect_err(warn).ok()
        });
        let core = PilotCore::new(config.cancel_grace, config.heartbeat);
        let (exit, report) = channel();
        let agent = Agent {
            rx: None,
            heartbeat: None,
            timed: false,
            paired: false,
            // Deterministic per seed, so a test can replay a backoff schedule.
            jitter: SplitMix64::new(config.reconnect.seed),
            local_cache: None,
            exit,
        };
        let pilot = Arc::new(Pilot {
            config,
            executor,
            log,
            kill: AtomicBool::new(false),
            sock: Mutex::new(None),
            state: Mutex::ranked(Rank::Pilot, (core, Wire::default())),
            parked: Mutex::new(None),
            poller: Poller::new().expect("a poller for the pilot's session socket"),
            over: AtomicBool::new(false),
            sleeper: Mutex::new(None),
        });
        let first = Arc::clone(&pilot);
        thread::Builder::new()
            .name(format!("worker-{}", pilot.config.name))
            .stack_size(STACK)
            .spawn(move || serve(first, Some(agent)))
            .expect("spawn worker thread");
        Worker {
            pilot,
            exit: Mutex::new((report, None)),
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
        // A reader backing off is parked; one in a read wakes below.
        if let Some(sleeper) = &*self.pilot.sleeper.lock() {
            sleeper.unpark();
        }
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

    /// True once the agent loop has ended. A thread still running a task
    /// the pilot gave up on does not count.
    pub fn is_finished(&self) -> bool {
        let (report, seen) = &mut *self.exit.lock();
        if seen.is_none() {
            match report.try_recv() {
                Ok(exit) => *seen = Some(exit),
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => {}
            }
        }
        true
    }

    /// Wait for the agent loop to end and collect its report; a thread
    /// still running a task the pilot gave up on is not waited for.
    pub fn join(self) -> WorkerExit {
        let (report, seen) = self.exit.into_inner();
        let lost = WorkerExit {
            tasks_done: 0,
            reason: ExitReason::ConnectionLost,
        };
        seen.or_else(|| report.recv().ok()).unwrap_or(lost)
    }
}

/// What the core's effects reach, under the same lock as the core.
#[derive(Default)]
struct Wire {
    /// The session's write half (one encode buffer for all it sends), from
    /// `session_up` until a write fails or the session ends.
    tx: Option<MsgWriter<TcpStream>>,
    /// The in-flight task's token.
    cancel: CancelToken,
    /// What `run` asked for: the reader, the only thread whose inputs
    /// start tasks, runs it once off the lock.
    started: Option<(u64, bool, CancelToken)>,
}

/// What the threads of one pilot share.
struct Pilot {
    config: WorkerConfig,
    executor: Arc<dyn TaskExecutor>,
    log: Option<EventLog>,
    kill: AtomicBool,
    /// The kill switch's handle on the session socket: severing it is
    /// what wakes a reader blocked in its read, or the watcher.
    sock: Mutex<Option<TcpStream>>,
    state: Mutex<(PilotCore, Wire)>,
    /// The agent while its reader runs a task, with the task's runner:
    /// the watcher takes it when a frame arrives, the reader takes it
    /// back when the task ends.
    parked: Mutex<Option<(u64, Agent)>>,
    /// Where the watcher waits: the session socket, registered while the
    /// agent is parked.
    poller: Poller,
    /// The agent loop has ended: the watcher stops.
    over: AtomicBool,
    /// The reader, while it backs off: `kill` unparks it.
    sleeper: Mutex<Option<Thread>>,
}

impl Pilot {
    fn killed(&self) -> bool {
        self.kill.load(Ordering::Acquire)
    }

    /// One input to the core: take the lock, sample the clock, call.
    fn input<R>(&self, input: impl FnOnce(&mut PilotCore, Instant, &mut Sink<'_>) -> R) -> R {
        let (core, wire) = &mut *self.state.lock();
        input(core, Instant::now(), &mut Sink { pilot: self, wire })
    }

    /// `tick`, then how long until `due` owes the next one.
    fn tick(&self, due: fn(&PilotCore) -> Option<Instant>) -> Option<Duration> {
        self.input(|core, now, fx| {
            core.tick(now, fx);
            due(core).map(|at| at.saturating_duration_since(now))
        })
    }

    /// Wait `total` parked, so that only a kill's unpark cuts it short.
    fn back_off(&self, total: Duration) {
        let until = Instant::now() + total;
        *self.sleeper.lock() = Some(thread::current());
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if self.killed() || left.is_zero() {
                break;
            }
            thread::park_timeout(left);
        }
        *self.sleeper.lock() = None;
    }

    /// Leave the agent to the watcher while its reader runs `runner`'s
    /// task: the next frame on the socket wakes the watcher, and so do
    /// bytes already read past the `Assign`, which no socket event reports.
    fn park(&self, runner: u64, agent: Agent) {
        let unread = agent.unread();
        *self.parked.lock() = Some((runner, agent));
        // Armed once the agent is in its slot, where the event must find it.
        let once = Interest::READ_ONCE;
        let armed = matches!(unread, Some((fd, false)) if self.poller.add(fd, 0, once).is_ok());
        if !armed {
            self.poller.wake();
        }
    }

    /// The agent back after `runner`'s task, unless the watcher took it;
    /// one parked for a later runner means this thread was given up on.
    fn reclaim(&self, runner: u64) -> Option<Agent> {
        let parked = self.parked.lock().take_if(|(owner, _)| *owner == runner);
        parked.map(|(_, agent)| self.unwatch(agent))
    }

    /// The watcher's wait: until a frame arrives behind the parked agent,
    /// then take it. `None` once the agent loop has ended.
    fn await_agent(&self) -> Option<Agent> {
        while !self.over.load(Ordering::Acquire) {
            self.poller.wait(&mut Vec::new(), -1).ok()?;
            // Empty when the reader took it back first: wait again.
            let parked = self.parked.lock().take();
            if let Some((_, agent)) = parked {
                return Some(self.unwatch(agent));
            }
        }
        None
    }

    fn unwatch(&self, agent: Agent) -> Agent {
        let _ = agent.unread().map(|(fd, _)| self.poller.remove(fd));
        agent
    }

    /// The one place that writes the flight recorder and the metrics.
    fn fact(&self, fact: Fact) {
        match (fact, &self.config.metrics) {
            (Fact::Event(kind), _) => self.log.as_ref().map_or((), |log| log.record(kind)),
            (_, None) => {}
            (Fact::SessionUp, Some(m)) => m.sessions_total.inc(),
            (Fact::SessionLost, Some(m)) => m.connections_lost_total.inc(),
            (Fact::TaskBegan, Some(m)) => m.tasks_inflight.inc(),
            (Fact::TaskLeft(wall_ms, exit_code, canceled), Some(m)) => {
                m.tasks_inflight.dec();
                m.tasks_executed_total.inc();
                if canceled {
                    m.tasks_canceled_total.inc();
                } else if exit_code != 0 {
                    m.tasks_failed_total.inc();
                }
                m.task_seconds.record(wall_ms.saturating_mul(1_000));
            }
            (Fact::StagingFailed, Some(m)) => m.staging_failed_total.inc(),
        }
    }
}

/// The shell's [`Effects`]: where the core's decisions become bytes.
struct Sink<'a> {
    pilot: &'a Pilot,
    wire: &'a mut Wire,
}

impl Sink<'_> {
    /// A write that fails severs the socket: whoever wrote, it is the
    /// reader that ends the session, and a dead socket is what wakes it.
    fn write(&mut self, write: impl FnOnce(&mut MsgWriter<TcpStream>) -> io::Result<()>) -> bool {
        let sent = self.wire.tx.as_mut().is_some_and(|tx| write(tx).is_ok());
        if let Some(tx) = self.wire.tx.take_if(|_| !sent) {
            let _ = tx.get_ref().shutdown(Shutdown::Both);
        }
        sent
    }
}

impl Effects for Sink<'_> {
    fn send(&mut self, msg: &WorkerMsg) -> bool {
        self.write(|tx| tx.send(msg))
    }

    fn send_pair(&mut self, done: &WorkerMsg, request: &WorkerMsg) -> bool {
        self.write(|tx| tx.send_pair(done, request))
    }

    fn run(&mut self, runner: u64, fresh: bool) {
        self.wire.cancel = CancelToken::new();
        self.wire.started = Some((runner, fresh, self.wire.cancel.clone()));
    }

    fn trip(&mut self, _task: u64) {
        self.wire.cancel.cancel();
    }

    fn hang_up_read(&mut self) {
        if let Some(tx) = &self.wire.tx {
            let _ = tx.get_ref().shutdown(Shutdown::Read);
        }
    }

    fn fact(&mut self, fact: Fact) {
        self.pilot.fact(fact);
    }
}

type Rx = MsgReader<BufReader<TcpStream>>;

/// Where a thread goes once the agent has left it.
#[derive(PartialEq)]
enum Next {
    /// Its task ended while the other thread read: it waits now.
    Wait,
    /// The agent loop is over, or its task was given up on.
    Exit,
}

/// A pilot thread: the reader while it holds the agent, the watcher while
/// the other thread does.
fn serve(pilot: Arc<Pilot>, mut agent: Option<Agent>) {
    while let Some(held) = agent.take().or_else(|| pilot.await_agent()) {
        if held.drive(&pilot) == Next::Exit {
            return;
        }
    }
}

/// The pilot's second thread, born a watcher: started by the first task,
/// and again by the first after a thread was given up on.
fn spawn_partner(pilot: &Arc<Pilot>) -> io::Result<JoinHandle<()>> {
    let pilot = Arc::clone(pilot);
    thread::Builder::new()
        .name("task".to_string())
        .stack_size(STACK)
        .spawn(move || serve(pilot, None))
}

/// A session's heartbeat thread: `tick` whenever a `Heartbeat` is due,
/// until the session is over (the reader unparks it then, so that it ends
/// now and not a period later) or the pilot is killed.
fn spawn_heartbeat(pilot: Arc<Pilot>) -> io::Result<JoinHandle<()>> {
    thread::Builder::new()
        .name(format!("hb-{}", pilot.config.name))
        .stack_size(64 * 1024)
        .spawn(move || {
            let alive = |_: &Duration| !pilot.killed();
            while let Some(left) = pilot.tick(PilotCore::heartbeat_due).filter(alive) {
                thread::park_timeout(left);
            }
        })
}

/// The session's read half and the reconnect loop around it: the thread
/// holding it is the pilot's reader. What the threads share is in
/// [`Pilot`].
struct Agent {
    /// The session's read half, from registration until the session ends.
    rx: Option<Rx>,
    heartbeat: Option<JoinHandle<()>>,
    /// A `Cancel` was read and its task may still be in its grace: only
    /// then is the core asked, each turn, how long is left.
    timed: bool,
    /// The other thread exists: started, and not given up on since.
    paired: bool,
    jitter: SplitMix64,
    /// Created by the first assignment that stages anything.
    local_cache: Option<NodeLocalCache>,
    exit: Sender<WorkerExit>,
}

impl Agent {
    /// Connect, serve a session, reconnect under the policy — until the
    /// dispatcher says `Shutdown`, the kill switch fires, or it gives up;
    /// a watcher that took the agent over resumes it mid-session. Returns
    /// early if the agent leaves this thread during a task.
    fn drive(mut self, pilot: &Arc<Pilot>) -> Next {
        let policy = &pilot.config.reconnect;
        let reason = loop {
            if self.rx.is_none() {
                if pilot.killed() {
                    break ExitReason::Killed;
                }
                let connected = TcpStream::connect(&pilot.config.dispatcher_addr).ok();
                self.rx = connected.and_then(|stream| self.open(pilot, stream));
            }
            if self.rx.is_some() {
                self = match self.session_loop(pilot) {
                    Ok(agent) => agent,
                    Err(next) => return next,
                };
            }
            let failed = pilot.input(|core, now, fx| {
                fx.wire.tx = None;
                core.session_down(now, fx)
            });
            // Nothing left to sever — and a thread given up on, which
            // shares the pilot, must not hold the socket open.
            self.rx = None;
            *pilot.sock.lock() = None;
            if let Some(heartbeat) = self.heartbeat.take() {
                heartbeat.thread().unpark();
                let _ = heartbeat.join();
            }
            match failed {
                _ if pilot.killed() => break ExitReason::Killed,
                None => break ExitReason::Shutdown,
                Some(n) if n <= policy.max_attempts => {
                    pilot.back_off(policy.backoff(n, &mut self.jitter))
                }
                Some(_) => break ExitReason::ConnectionLost,
            }
        };
        let tasks_done = pilot.input(|core, _, _| core.tasks_done());
        let _ = self.exit.send(WorkerExit { tasks_done, reason });
        pilot.over.store(true, Ordering::Release);
        pilot.poller.wake();
        Next::Exit
    }

    /// Register over an established stream and hand the wire to the core;
    /// the session's read half, or `None` if the session failed to open.
    fn open(&mut self, pilot: &Arc<Pilot>, stream: TcpStream) -> Option<Rx> {
        let config = &pilot.config;
        stream.set_nodelay(true).ok();
        let (write_half, kill_half) = (stream.try_clone().ok()?, stream.try_clone().ok()?);
        *pilot.sock.lock() = Some(kill_half);
        // A kill that found the previous session's socket in the slot.
        if pilot.killed() {
            return None;
        }
        let mut tx = MsgWriter::new(write_half);
        let mut rx: Rx = MsgReader::new(BufReader::new(stream));
        let register = WorkerMsg::Register {
            name: config.name.clone(),
            cores: config.cores,
            location: config.location.clone(),
        };
        tx.send(&register).ok()?;
        // Anything but the ack before the handshake completes means a
        // confused or dying dispatcher: resync by reconnecting.
        let Some(DispatcherMsg::Registered { worker_id }) = rx.recv().ok().flatten() else {
            return None;
        };
        // The first `Request` (or the carried task's claim) leaves in the
        // lock hold that adopts the wire.
        pilot.input(|core, now, fx| {
            fx.wire.tx = Some(tx);
            core.session_up(now, worker_id, fx);
        });
        // Without heartbeats the dispatcher would declare this worker
        // hung: better to fail the session now and retry.
        let heartbeat = config.heartbeat.map(|_| spawn_heartbeat(Arc::clone(pilot)));
        self.heartbeat = heartbeat.transpose().ok()?;
        Some(rx)
    }

    /// Act on the dispatcher's frames until the connection is gone or,
    /// after `Goodbye`, hung up. The read has a timeout only while a grace
    /// clock runs; a frame it cuts in two is completed by the next read.
    fn session_loop(mut self, pilot: &Arc<Pilot>) -> Result<Agent, Next> {
        while let Some(rx) = &mut self.rx {
            if self.timed {
                let left = pilot.tick(PilotCore::deadline);
                let _ = rx.get_ref().get_ref().set_read_timeout(left);
                self.timed = left.is_some();
            }
            match rx.recv::<DispatcherMsg>() {
                // A protocol match of its own, so that clippy's
                // `wildcard_enum_match_arm` sees it: the lint does not
                // look inside an `Ok(Some(..))` wrapper.
                Ok(Some(msg)) => match msg {
                    DispatcherMsg::Assign(assignment) => self = self.start(pilot, assignment)?,
                    DispatcherMsg::Cancel { task_id } => {
                        pilot.input(|core, now, fx| core.cancel(now, task_id, fx));
                        self.timed = true;
                    }
                    DispatcherMsg::Shutdown => pilot.input(|core, _, fx| core.shutdown(fx)),
                    // Stray acks, and envelopes a relay would have unwrapped.
                    DispatcherMsg::Registered { .. }
                    | DispatcherMsg::RelayRegistered { .. }
                    | DispatcherMsg::RelayAssign { .. }
                    | DispatcherMsg::RelayCancel { .. } => {}
                },
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Ok(None) | Err(_) => break,
            }
        }
        Ok(self)
    }

    /// The session socket, and whether bytes past the last frame read are
    /// buffered already.
    fn unread(&self) -> Option<(RawFd, bool)> {
        let reader = self.rx.as_ref()?.get_ref();
        Some((reader.get_ref().as_raw_fd(), !reader.buffer().is_empty()))
    }

    /// Node-local staging (paper Section 5, feature 2): copy the job's
    /// files into this node's cache once, then show the task the cache.
    fn stage(&mut self, name: &str, assignment: &mut TaskAssignment) -> io::Result<()> {
        let cache = match &mut self.local_cache {
            Some(cache) => cache,
            empty => {
                let dir = format!("jets-local-{name}-{}", std::process::id());
                empty.insert(NodeLocalCache::new(std::env::temp_dir().join(dir))?)
            }
        };
        cache.stage_all(&assignment.stage)?;
        let (TaskKind::Sequential { cmd } | TaskKind::MpiProxy { cmd, .. }) = &mut assignment.kind;
        let (CommandSpec::Exec { env, .. } | CommandSpec::Builtin { env, .. }) = cmd;
        let dir = cache.dir().to_string_lossy().into_owned();
        env.push(("JETS_LOCAL_DIR".to_string(), dir));
        Ok(())
    }

    /// Stage an assignment's files, give the core the result, and run the
    /// task it accepted on this thread, the agent parked with the watcher
    /// meanwhile. `Err` if the watcher took the agent over.
    fn start(mut self, pilot: &Arc<Pilot>, mut assignment: TaskAssignment) -> Result<Agent, Next> {
        let mut staged = true;
        if !assignment.stage.is_empty() {
            let task = (assignment.trace, assignment.job_id, assignment.task_id);
            pilot.fact(span(SpanKind::Stage, false, task));
            staged = self.stage(&pilot.config.name, &mut assignment).is_ok();
            // The span closes on failure too — a stage span whose end
            // abuts a failed report is exactly what the trace should show.
            pilot.fact(span(SpanKind::Stage, true, task));
        }
        let started = pilot.input(|core, now, fx| {
            core.assign(now, &assignment, staged, fx);
            fx.wire.started.take()
        });
        let Some((runner, fresh, cancel)) = started else {
            return Ok(self);
        };
        if fresh || !self.paired {
            self.paired = spawn_partner(pilot).is_ok();
        }
        if !self.paired {
            // A task nobody could watch is not run: it reports the
            // executor's spawn failure code, and the dispatcher's retry
            // ladder takes over.
            let outcome = TaskOutcome {
                exit_code: EXIT_SPAWN_FAILED,
                output: None,
            };
            pilot.input(|core, now, fx| core.finished(now, runner, outcome, fx));
            return Ok(self);
        }
        pilot.park(runner, self);
        let run = || pilot.executor.execute_cancellable(&assignment, &cancel);
        // A panicking task fails that task, not the pilot.
        let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or(TaskOutcome {
            exit_code: EXIT_RANK_PANIC,
            output: None,
        });
        let agent = pilot.reclaim(runner);
        let current = pilot.input(|core, now, fx| core.finished(now, runner, outcome, fx));
        match (agent, current) {
            (Some(agent), _) => Ok(agent),
            (None, true) => Err(Next::Wait),
            // Given up on: its result was late, and it ends.
            (None, false) => Err(Next::Exit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::standard_registry;
    use crate::executor::Executor;
    use jets_core::protocol::EXIT_CANCELED;
    use jets_core::spec::JobSpec;
    use jets_core::EventKind;
    use jets_core::{Dispatcher, DispatcherConfig, JobStatus};

    const WAIT: Duration = Duration::from_secs(30);

    fn executor() -> Arc<dyn TaskExecutor> {
        Arc::new(Executor::new(standard_registry()))
    }

    fn spawn_workers(d: &Dispatcher, n: usize) -> Vec<Worker> {
        let config = |i| WorkerConfig::new(d.addr().to_string(), format!("w{i}"));
        (0..n)
            .map(|i| Worker::spawn(config(i), executor()))
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
    /// returns the moment its token trips; `spin` spins for its argument's
    /// microseconds, or until its token trips; anything else is a no-op.
    #[derive(Default)]
    struct ProbeExecutor {
        log: Mutex<ProbeLog>,
        release: AtomicBool,
    }

    impl TaskExecutor for ProbeExecutor {
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
                "spin" => {
                    let us = a.cmd().args().first().and_then(|us| us.parse().ok());
                    let until = Instant::now() + Duration::from_micros(us.unwrap_or(0));
                    while Instant::now() < until && !cancel.is_canceled() {
                        std::hint::spin_loop();
                    }
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
            let tx = MsgWriter::new(stream.try_clone().unwrap());
            let rx = MsgReader::new(BufReader::new(stream));
            let mut d = ScriptedDispatcher { rx, tx };
            assert!(matches!(d.recv(), WorkerMsg::Register { .. }));
            let registered = DispatcherMsg::Registered { worker_id: 1 };
            d.tx.send(&registered).unwrap();
            assert_eq!(d.recv(), WorkerMsg::Request);
            (d, worker)
        }

        fn recv(&mut self) -> WorkerMsg {
            self.rx.recv().unwrap().expect("agent hung up")
        }

        fn assign(&mut self, task_id: u64, app: &str) {
            let assign = DispatcherMsg::Assign(assignment(task_id, app));
            self.tx.send(&assign).unwrap();
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

    fn assignment(task_id: u64, app: &str) -> TaskAssignment {
        TaskAssignment {
            task_id,
            job_id: task_id,
            trace: 0,
            kind: TaskKind::Sequential {
                cmd: CommandSpec::builtin(app, vec![]),
            },
            stage: Vec::new(),
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
        let assign = DispatcherMsg::Assign(assignment(2, "noop"));
        jets_core::protocol::encode_msg_buf(&assign, &mut frame).unwrap();
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

    /// A `Cancel` in the same segment as its `Assign` is read into the
    /// buffer with it, where no socket event will report it: it must trip
    /// the task at once, not wait out the 10 s grace.
    #[test]
    fn a_cancel_in_its_assigns_segment_trips_the_task() {
        use jets_core::protocol::encode_msg_buf;
        use std::io::Write;
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(
            |c| WorkerConfig {
                cancel_grace: Duration::from_secs(10),
                ..c
            },
            exec.clone(),
        );
        let (mut segment, mut cancel) = (Vec::new(), Vec::new());
        let assign = DispatcherMsg::Assign(assignment(1, "until-cancel"));
        encode_msg_buf(&assign, &mut segment).unwrap();
        encode_msg_buf(&DispatcherMsg::Cancel { task_id: 1 }, &mut cancel).unwrap();
        segment.extend(cancel);
        let sent = Instant::now();
        d.tx.get_mut().write_all(&segment).unwrap();
        assert_eq!(d.done_then_request(1), EXIT_CANCELED);
        let took = sent.elapsed();
        assert!(took < Duration::from_secs(1), "answered after {took:?}");
        d.tx.send(&DispatcherMsg::Shutdown).unwrap();
        assert_eq!(w.join().reason, ExitReason::Shutdown);
    }

    /// The agent changes threads wherever a `Cancel` lands: before its
    /// task's end, after it, or as it ends. Each round is still one `Done`
    /// then one `Request`, and with no grace running out, the pilot's two
    /// threads are the only ones that run tasks.
    #[test]
    fn handoffs_under_racing_cancels_keep_one_done_then_one_request() {
        const ROUNDS: u64 = 300;
        let exec = Arc::new(ProbeExecutor::default());
        let (mut d, w) = ScriptedDispatcher::with_agent(|c| c, exec.clone());
        let mut rng = SplitMix64::new(44);
        for task_id in 1..=ROUNDS {
            let spin = rng.gen_range(0..501).to_string();
            let cancel_after = (rng.gen_range(0..2) == 0).then(|| rng.gen_range(0..601));
            let mut task = assignment(task_id, "spin");
            task.kind = TaskKind::Sequential {
                cmd: CommandSpec::builtin("spin", vec![spin]),
            };
            d.tx.send(&DispatcherMsg::Assign(task)).unwrap();
            if let Some(us) = cancel_after {
                let at = Instant::now() + Duration::from_micros(us);
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                d.tx.send(&DispatcherMsg::Cancel { task_id }).unwrap();
            }
            let exit_code = d.done_then_request(task_id);
            let canceled = cancel_after.is_some() && exit_code == EXIT_CANCELED;
            assert!(
                exit_code == 0 || canceled,
                "round {task_id}: exit {exit_code}"
            );
        }
        d.tx.send(&DispatcherMsg::Shutdown).unwrap();
        assert_eq!(d.recv(), WorkerMsg::Goodbye);
        assert_eq!(w.join().reason, ExitReason::Shutdown);
        let mut threads = std::mem::take(&mut exec.log.lock().threads);
        assert_eq!(threads.len(), ROUNDS as usize);
        threads.sort_by_key(|t| format!("{t:?}"));
        threads.dedup();
        assert!(threads.len() <= 2, "tasks ran on {threads:?}");
    }

    /// A reader backing off is parked until its time is up or `kill`
    /// unparks it. The loop this replaced woke every 20 ms to look at the
    /// kill flag.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_backoff_sleeps_until_killed() {
        // Voluntary context switches of the thread named `name`.
        fn switches(name: &str) -> Option<u64> {
            std::fs::read_dir("/proc/self/task")
                .ok()?
                .find_map(|entry| {
                    let dir = entry.ok()?.path();
                    let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
                    let status = std::fs::read_to_string(dir.join("status")).ok()?;
                    let line = status
                        .lines()
                        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
                    (comm.trim() == name).then(|| line?.trim().parse().ok())?
                })
        }
        // A port nobody listens on: each connect is refused at once.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .unwrap()
            .to_string();
        let policy = ReconnectPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_secs(10),
            jitter: 0.0,
            ..ReconnectPolicy::default()
        };
        let config = WorkerConfig::new(addr, "backoff").with_reconnect(policy);
        let w = Worker::spawn(config, executor());
        thread::sleep(Duration::from_millis(100));
        let before = switches("worker-backoff").unwrap();
        thread::sleep(Duration::from_millis(500));
        let after = switches("worker-backoff").unwrap();
        assert!(after - before <= 2, "{} wake-ups in 500 ms", after - before);
        let killed = Instant::now();
        w.kill();
        assert_eq!(w.join().reason, ExitReason::Killed);
        let took = killed.elapsed();
        assert!(took < Duration::from_millis(200), "join took {took:?}");
    }

    /// What the pilot decides is tested on the core alone, on a virtual
    /// `now`. A frame as those tests see it: a `Done` is `Ok((task, exit))`.
    type Frame = Result<(u64, i32), WorkerMsg>;
    const REQUEST: Frame = Err(WorkerMsg::Request);
    const GOODBYE: Frame = Err(WorkerMsg::Goodbye);

    /// Records what the core causes; `wire` is whether a write succeeds.
    #[derive(Default)]
    struct Fake {
        wire: bool,
        frames: Vec<Frame>,
        runs: Vec<(u64, bool)>,
        tripped: Vec<u64>,
        hung_up: bool,
        facts: Vec<Fact>,
    }

    impl Effects for Fake {
        fn send(&mut self, msg: &WorkerMsg) -> bool {
            let frame = match msg {
                WorkerMsg::Done {
                    task_id, exit_code, ..
                } => Ok((*task_id, *exit_code)),
                other => Err(other.clone()),
            };
            self.frames.extend(self.wire.then_some(frame));
            self.wire
        }
        fn send_pair(&mut self, done: &WorkerMsg, request: &WorkerMsg) -> bool {
            self.send(done) && self.send(request)
        }
        fn run(&mut self, runner: u64, fresh: bool) {
            self.runs.push((runner, fresh));
        }
        fn trip(&mut self, task: u64) {
            self.tripped.push(task);
        }
        fn hang_up_read(&mut self) {
            self.hung_up = true;
        }
        fn fact(&mut self, fact: Fact) {
            self.facts.push(fact);
        }
    }

    impl Fake {
        fn sent(&mut self) -> Vec<Frame> {
            std::mem::take(&mut self.frames)
        }
    }

    fn ok() -> TaskOutcome {
        let (exit_code, output) = (0, None);
        TaskOutcome { exit_code, output }
    }

    /// A core (60 ms grace) in its first session; `at(ms)` is that long after.
    fn pilot(heartbeat: Option<u64>) -> (PilotCore, Fake, impl Fn(u64) -> Instant) {
        let t0 = Instant::now();
        let at = move |ms| t0 + Duration::from_millis(ms);
        let heartbeat = heartbeat.map(Duration::from_millis);
        let mut core = PilotCore::new(Duration::from_millis(60), heartbeat);
        let mut fx = Fake {
            wire: true,
            ..Fake::default()
        };
        core.session_up(t0, 1, &mut fx);
        assert_eq!(fx.sent(), [REQUEST]);
        (core, fx, at)
    }

    #[test]
    fn expired_cancel_grace_abandons_the_runner_and_the_next_task_gets_a_fresh_one() {
        let (mut core, mut fx, at) = pilot(None);
        core.assign(at(0), &assignment(1, "block"), true, &mut fx);
        core.cancel(at(10), 1, &mut fx);
        core.cancel(at(30), 1, &mut fx); // a duplicate restarts nothing
        assert_eq!((&fx.tripped[..], core.deadline()), (&[1][..], Some(at(70))));
        core.tick(at(69), &mut fx);
        assert_eq!(fx.sent(), [], "reported before the grace ran out");
        core.tick(at(70), &mut fx);
        assert_eq!(fx.sent(), [Ok((1, EXIT_CANCELED)), REQUEST]);
        core.assign(at(80), &assignment(2, "noop"), true, &mut fx);
        assert_eq!(fx.runs, [(1, true), (2, true)], "ran on the stuck runner");
        assert!(core.finished(at(81), 2, ok(), &mut fx));
        assert_eq!(fx.sent(), [Ok((2, 0)), REQUEST]);
        // The stuck task ends at last: its runner is told so, nobody else.
        assert!(!core.finished(at(90), 1, ok(), &mut fx));
        core.shutdown(&mut fx);
        assert_eq!((fx.sent(), core.tasks_done()), (vec![GOODBYE], 2));
    }

    /// Result or `Cancel`, the first decides the exit code; the other finds
    /// nothing left to report.
    #[test]
    fn cancel_racing_completion_yields_one_done_then_one_request() {
        let (mut core, mut fx, at) = pilot(None);
        let mut rng = SplitMix64::new(15);
        for task in 1..=200 {
            let (now, cancel_first) = (at(100 * task), rng.gen_range(0..2) == 0);
            core.assign(now, &assignment(task, "spin"), true, &mut fx);
            if cancel_first {
                core.cancel(now, task, &mut fx);
            }
            assert!(core.finished(now, 1, ok(), &mut fx));
            core.cancel(now, task, &mut fx);
            core.tick(at(100 * task + 70), &mut fx);
            let exit_code = if cancel_first { EXIT_CANCELED } else { 0 };
            assert_eq!(fx.sent(), [Ok((task, exit_code)), REQUEST]);
        }
        assert_eq!(fx.runs.last(), Some(&(1, false)), "one runner throughout");
        core.shutdown(&mut fx);
        assert_eq!((fx.sent(), core.tasks_done()), (vec![GOODBYE], 200));
    }

    #[test]
    fn task_that_ends_during_an_outage_is_reported_once_on_the_next_wire() {
        let (mut core, mut fx, at) = pilot(None);
        core.assign(at(0), &assignment(1, "block"), true, &mut fx);
        fx.wire = false;
        assert_eq!(core.session_down(at(5), &mut fx), Some(1));
        // No wire to report on: stashed, and a second outage keeps it so.
        assert!(core.finished(at(9), 1, ok(), &mut fx));
        assert_eq!(core.session_down(at(10), &mut fx), Some(2));
        fx.wire = true;
        core.session_up(at(30), 2, &mut fx);
        let claim = Err(WorkerMsg::SessionState { running: None });
        assert_eq!(fx.sent(), [claim, Ok((1, 0)), REQUEST]);
        core.assign(at(40), &assignment(2, "noop"), true, &mut fx);
        assert!(core.finished(at(41), 1, ok(), &mut fx));
        assert_eq!(fx.sent(), [Ok((2, 0)), REQUEST]);
        fx.wire = false;
        // A session that had registered starts the ladder over.
        assert_eq!(core.session_down(at(50), &mut fx), Some(1));
        fx.wire = true;
        core.session_up(at(60), 3, &mut fx);
        assert_eq!(fx.sent(), [REQUEST], "nothing replayed twice");
        core.shutdown(&mut fx);
        assert_eq!((fx.sent(), core.tasks_done()), (vec![GOODBYE], 2));
    }

    #[test]
    fn shutdown_mid_task_yields_done_without_request_then_goodbye() {
        let (mut core, mut fx, at) = pilot(None);
        core.assign(at(0), &assignment(1, "block"), true, &mut fx);
        core.shutdown(&mut fx);
        // The task is what the pilot waits for.
        assert_eq!((fx.sent(), fx.hung_up), (vec![], false));
        assert!(core.finished(at(100), 1, ok(), &mut fx));
        assert_eq!((fx.sent(), fx.hung_up), (vec![Ok((1, 0)), GOODBYE], true));
        assert!(core.session_down(at(101), &mut fx).is_none() && core.tasks_done() == 1);
    }

    #[test]
    fn shutdown_then_expired_grace_still_ends_the_agent() {
        let (mut core, mut fx, at) = pilot(None);
        core.assign(at(0), &assignment(1, "block"), true, &mut fx);
        core.cancel(at(1), 1, &mut fx);
        core.shutdown(&mut fx);
        core.tick(at(61), &mut fx);
        assert_eq!(fx.sent(), [Ok((1, EXIT_CANCELED)), GOODBYE]);
        assert!(fx.hung_up && !core.finished(at(99), 1, ok(), &mut fx));
        assert!(core.session_down(at(99), &mut fx).is_none() && core.tasks_done() == 1);
    }

    /// No `Heartbeat` follows the `Goodbye`, however the ticks fall.
    #[test]
    fn goodbye_is_the_last_frame_of_a_shut_down_session() {
        let (mut core, mut fx, at) = pilot(Some(5));
        (0..=12).for_each(|ms| core.tick(at(ms), &mut fx));
        let beats = vec![Err(WorkerMsg::Heartbeat); 2];
        assert_eq!((fx.sent(), core.heartbeat_due()), (beats, Some(at(15))));
        core.shutdown(&mut fx);
        (13..=40).for_each(|ms| core.tick(at(ms), &mut fx));
        assert_eq!((fx.sent(), core.heartbeat_due()), (vec![GOODBYE], None));
    }

    #[test]
    fn carried_task_yields_to_dispatcher_verdict_after_disconnect() {
        let (mut core, mut fx, at) = pilot(None);
        core.assign(at(0), &assignment(1, "sleep"), true, &mut fx);
        fx.wire = false;
        core.session_down(at(100), &mut fx);
        fx.wire = true;
        // The task is carried and claimed; no `Request` while it runs.
        core.session_up(at(150), 2, &mut fx);
        let running = Some((1, 1));
        assert_eq!(fx.sent(), [Err(WorkerMsg::SessionState { running })]);
        // A dispatcher that never died has requeued the job: it rejects the
        // claim, the task stands down, the worker (and runner) is recycled.
        core.cancel(at(151), 1, &mut fx);
        assert!(core.finished(at(152), 1, ok(), &mut fx));
        assert_eq!(fx.sent(), [Ok((1, EXIT_CANCELED)), REQUEST]);
        core.assign(at(160), &assignment(2, "sleep"), true, &mut fx);
        assert_eq!((fx.tripped.len(), fx.runs.last()), (1, Some(&(1, false))));
    }

    #[test]
    fn staging_failure_is_reported_and_the_pilot_asks_for_more() {
        let (mut core, mut fx, at) = pilot(None);
        core.assign(at(0), &assignment(1, "noop"), false, &mut fx);
        assert_eq!(fx.sent(), [Ok((1, EXIT_STAGING_FAILED)), REQUEST]);
        assert!(fx.facts[2..] == [Fact::StagingFailed] && fx.runs.is_empty());
        core.assign(at(1), &assignment(2, "noop"), true, &mut fx);
        assert_eq!((fx.runs.len(), core.running()), (1, Some((2, 2))));
    }

    /// Every way out of the pilot closes the task's span: the parent
    /// dropped a canceled task on connection loss without a record.
    #[test]
    fn a_canceled_task_dropped_with_its_session_closes_its_span() {
        let (mut core, mut fx, at) = pilot(None);
        core.assign(at(0), &assignment(1, "block"), true, &mut fx);
        core.cancel(at(10), 1, &mut fx);
        fx.wire = false;
        assert_eq!(core.session_down(at(20), &mut fx), Some(1));
        let ended = |f: &&Fact| matches!(f, Fact::Event(EventKind::TaskEnded { task: 1, .. }));
        assert_eq!(fx.facts.iter().filter(ended).count(), 1, "{:?}", fx.facts);
        assert!(fx.facts.contains(&span(SpanKind::Exec, true, (0, 1, 1))));
        assert!(fx.facts.contains(&Fact::TaskLeft(20, EXIT_CANCELED, true)));
        // Discounted everywhere: not claimed, not replayed, its runner left.
        fx.wire = true;
        core.session_up(at(30), 2, &mut fx);
        assert_eq!((fx.sent(), core.running()), (vec![REQUEST], None));
        assert!(!core.finished(at(40), 1, ok(), &mut fx));
        core.assign(at(50), &assignment(2, "noop"), true, &mut fx);
        assert_eq!((fx.sent(), fx.runs.last()), (vec![], Some(&(2, true))));
    }

    /// Accept-and-close (a wrong port, a dispatcher mid-shutdown) is a
    /// failed attempt each time, not a fresh start.
    #[test]
    fn a_peer_that_accepts_and_closes_is_given_up_on() {
        // The first attempt, then the failures the policy tolerates: none
        // at all for a connect-once pilot.
        for (max_attempts, most) in [(0, 1), (3, 4)] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let policy = ReconnectPolicy {
                max_attempts,
                base_backoff: Duration::from_millis(1),
                ..ReconnectPolicy::default()
            };
            let addr = listener.local_addr().unwrap().to_string();
            let config = WorkerConfig::new(addr, "shunned").with_reconnect(policy);
            let w = Worker::spawn(config, executor());
            listener.set_nonblocking(true).unwrap();
            let mut accepts = 0;
            while !w.is_finished() {
                accepts += listener.accept().is_ok() as u32;
            }
            assert_eq!(w.join().reason, ExitReason::ConnectionLost);
            assert!((1..=most).contains(&accepts), "{accepts} accepts");
        }
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
