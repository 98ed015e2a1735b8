//! The relay daemon: the shell around [`RelayCore`].
//!
//! What the relay *decides* — routing, re-registration, what is held
//! across an outage, who gets cancelled locally — lives in
//! [`crate::core`], and each guarantee is an invariant
//! `tests/relay_model.rs` checks after every input of 2,000 seeded fault
//! schedules. This file owns what the core may not: the sockets, the
//! clock, the one lock, the metric handles and the event ring.
//!
//! ## Thread anatomy
//!
//! * **the event loop** (`relay-loop-0`) — every member connection, the
//!   upstream session and any `/metrics` scrape are state machines on one
//!   `jets-reactor` loop.
//!   A frame is decoded, handed to the core under the state lock, and
//!   whatever the core emits is encoded onto the target connection's
//!   bounded outbox before the callback returns; the loop writes those
//!   outboxes as soon as the readiness event is handled, before it turns
//!   to the next connection. A member's `Done` and `Request`, read in one
//!   segment, therefore leave upstream as `RelayDone` + `RelayRequest` in
//!   one `write` with no thread hand-off, and a `RelayAssign` reaches its
//!   member the same way.
//! * **the housekeeping thread** (`relay-keeper`) — everything that
//!   blocks: connect upstream with the worker agent's backoff policy,
//!   adopt the socket onto the loop ([`Reactor::add_stream`]), then sleep
//!   on a condvar until the session's `on_close`, delivering
//!   [`RelayCore::tick`] every `liveness_flush` meanwhile. A session that
//!   ends before the dispatcher acked its hello counts as a failed
//!   attempt, so a peer that accepts and closes is backed off from like
//!   one that refuses.
//!
//! ## Locking
//!
//! One mutex guards the core and the connection handles its effects
//! reach. The loop, the housekeeping thread and the accessors on
//! [`Relay`] are the only takers, and none holds it across a blocking
//! call: sends under it are outbox pushes.

use crate::core::{Effects, Fact, RelayCore};
use crate::metrics::RelayMetrics;
use jets_core::events::{EventLog, WriterRole};
use jets_core::protocol::{decode_msg, encode_msg_buf, DispatcherMsg, WorkerMsg, MAX_FRAME_BYTES};
use jets_reactor::{CloseReason, ConnHandler, Flow, Outbox, Reactor, ReactorConfig, ReactorStats};
use jets_ring::stdx::{wait_for, Guard, Mutex, Rank, SplitMix64};
use jets_worker::ReconnectPolicy;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Stack size for relay service threads.
const CONN_STACK: usize = 192 * 1024;

/// Tuning knobs for one relay daemon.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Worker-facing listen address; use port 0 for an ephemeral port.
    pub listen_addr: String,
    /// The dispatcher to front for.
    pub dispatcher_addr: String,
    /// Relay name (diagnostics; travels in `RelayHello`).
    pub name: String,
    /// Location label reported upstream for the relay itself.
    pub location: String,
    /// Period of the batched liveness frame. Every flush, one
    /// `BatchedHeartbeat` vouches for all recently-heard members.
    pub liveness_flush: Duration,
    /// A member not heard from for longer than this drops out of the
    /// batched frames (the dispatcher's hang detection then applies to
    /// it exactly as to a silent direct worker).
    pub worker_stale_after: Duration,
    /// Reconnect-with-backoff policy for the upstream connection — the
    /// same machinery a worker agent uses toward the dispatcher. When
    /// attempts are exhausted the relay gives up and severs its block.
    pub reconnect: ReconnectPolicy,
    /// High-water mark, in frames, of the bounded outage buffer (results
    /// held while the dispatcher is away). At the mark the oldest frame
    /// is dropped to admit the newest, so a long partition under a busy
    /// block caps relay memory instead of growing it without bound.
    pub upqueue_limit: usize,
    /// Path of the mmap-backed flight-recorder file for the relay's own
    /// event log (drop events, member churn). When set, events survive
    /// `kill -9` and replay with `jets flight dump`. `None` keeps the
    /// ring in anonymous memory.
    pub flight_recorder: Option<std::path::PathBuf>,
}

impl RelayConfig {
    /// A relay for `dispatcher_addr` on an ephemeral local port.
    pub fn new(dispatcher_addr: impl Into<String>, name: impl Into<String>) -> Self {
        RelayConfig {
            listen_addr: "127.0.0.1:0".to_string(),
            dispatcher_addr: dispatcher_addr.into(),
            name: name.into(),
            location: "relay".to_string(),
            liveness_flush: Duration::from_millis(100),
            worker_stale_after: Duration::from_secs(1),
            reconnect: ReconnectPolicy::default(),
            upqueue_limit: 65_536,
            flight_recorder: None,
        }
    }

    /// Builder-style liveness flush period.
    pub fn with_liveness_flush(mut self, period: Duration) -> Self {
        self.liveness_flush = period;
        self
    }

    /// Builder-style upstream reconnect policy.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// Builder-style outage-buffer high-water mark.
    pub fn with_upqueue_limit(mut self, limit: usize) -> Self {
        self.upqueue_limit = limit;
        self
    }

    /// Builder-style flight-recorder path (the relay's lane in a merged
    /// `jets trace`).
    pub fn with_flight_recorder(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.flight_recorder = Some(path.into());
        self
    }
}

/// Counters a test or operator can read off a running relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelayStats {
    /// Currently connected members.
    pub members: usize,
    /// `Cancel`s fanned out locally (same-relay gang teardown) without
    /// an upstream round-trip.
    pub local_cancels: u64,
    /// Batched liveness frames sent upstream.
    pub batched_frames: u64,
    /// Upstream sessions established (>1 means the relay survived a
    /// dispatcher reconnect).
    pub upstream_sessions: u64,
}

/// One reactor connection, as the shell holds it.
struct Link {
    /// The bounded outbox the event loop drains. Never blocks.
    out: Arc<Outbox>,
    /// Socket clone for severing ([`Relay::kill`]).
    sock: Option<TcpStream>,
}

impl Link {
    fn sever(&self) {
        if let Some(sock) = &self.sock {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}

/// What the core's effects reach, keyed the way the core names them.
#[derive(Default)]
struct Links {
    members: HashMap<u64, Link>,
    /// The current upstream session and its number.
    up: Option<(u64, Link)>,
    /// The dispatcher acked the current session's hello.
    hello_acked: bool,
    /// Dispatcher-ordered shutdown, [`Relay::kill`] / [`Relay::shutdown`],
    /// or reconnect exhaustion.
    stopped: bool,
    /// Reusable wire-encode buffer: steady-state sends allocate nothing.
    enc: Vec<u8>,
}

struct State {
    core: RelayCore,
    links: Links,
}

struct Inner {
    config: RelayConfig,
    epoch: Instant,
    state: Mutex<State>,
    /// Wakes the housekeeping thread: the session ended, or the relay
    /// stopped. Paired with `state`.
    wake: Condvar,
    metrics: Arc<RelayMetrics>,
    /// Span edges and operational events (buffer overflow) — same log
    /// shape the dispatcher keeps, dumped by `jets events`.
    events: EventLog,
}

/// The shell's [`Effects`]: where the core's decisions become bytes.
struct Sink<'a> {
    inner: &'a Inner,
    links: &'a mut Links,
}

/// Encode `msg` onto a member's outbox. A failed send means the outbox
/// is closed or overflowed: the reactor is tearing the connection down,
/// and its `on_close` unwinds the state.
fn send_member(link: &Link, enc: &mut Vec<u8>, msg: &DispatcherMsg) {
    let _ = encode_msg_buf(msg, enc).is_ok() && link.out.send(enc);
}

impl Effects for Sink<'_> {
    fn to_member(&mut self, local: u64, msg: &DispatcherMsg) {
        if let Some(link) = self.links.members.get(&local) {
            send_member(link, &mut self.links.enc, msg);
        }
    }

    fn to_upstream(&mut self, msg: &WorkerMsg) {
        let Links { up, enc, .. } = &mut *self.links;
        if let Some((_, link)) = up {
            let _ = encode_msg_buf(msg, enc).is_ok() && link.out.send(enc);
        }
    }

    fn fact(&mut self, fact: Fact) {
        let m = &self.inner.metrics;
        match fact {
            Fact::Event(kind) => self.inner.events.record(kind),
            Fact::HelloAcked => self.links.hello_acked = true,
            Fact::Dropped => m.upqueue_dropped_total.inc(),
            Fact::LocalCancels(n) => m.local_cancels_total.add(n),
            Fact::Heartbeat => m.batched_heartbeats_total.inc(),
        }
    }
}

/// One input to the core under a lock already held: sample the clock
/// once, make the call, refresh the level gauges.
fn apply<R>(
    inner: &Inner,
    st: &mut State,
    input: impl FnOnce(&mut RelayCore, &mut Sink<'_>, u64) -> R,
) -> R {
    let State { core, links } = st;
    let now = inner.epoch.elapsed().as_millis() as u64;
    let out = input(core, &mut Sink { inner, links }, now);
    let m = &inner.metrics;
    m.members.set(core.members() as i64);
    m.upqueue_depth.set(core.held() as i64);
    m.upstream_connected.set(links.up.is_some() as i64);
    out
}

/// One input to the core, start to finish.
fn step<R>(inner: &Inner, input: impl FnOnce(&mut RelayCore, &mut Sink<'_>, u64) -> R) -> R {
    apply(inner, &mut inner.state.lock(), input)
}

/// Stop the relay: no new members, no reconnect. `also` runs under the
/// same lock, before the housekeeping thread is woken.
fn stop(inner: &Inner, also: impl FnOnce(&mut Links)) {
    step(inner, |_, fx, _| {
        fx.links.stopped = true;
        also(fx.links);
    });
    inner.wake.notify_all();
}

/// A running relay daemon.
///
/// Dropping the relay kills it abruptly (socket severance), the same
/// fault the chaos harness injects; call [`Relay::shutdown`] first for
/// an orderly stop.
pub struct Relay {
    inner: Arc<Inner>,
    addr: SocketAddr,
    keeper: Option<JoinHandle<()>>,
    /// The event loop. Declared last so the reactor drops (and flushes
    /// queued frames) after everything else is torn down.
    reactor: Arc<Reactor>,
}

impl Relay {
    /// Bind the worker-facing listener and start the event loop and the
    /// housekeeping thread. Returns immediately; the upstream connection
    /// is established (and re-established) in the background.
    pub fn start(config: RelayConfig) -> io::Result<Relay> {
        let listener = TcpListener::bind(&config.listen_addr)?;
        let addr = listener.local_addr()?;
        // One event loop multiplexes the whole block and the upstream
        // session: a relay fronts a machine-room's worth of workers, not
        // a cluster's.
        let reactor = Arc::new(Reactor::start(ReactorConfig {
            event_loops: 1,
            max_frame: MAX_FRAME_BYTES,
            thread_name: "relay-loop".to_string(),
            thread_stack: CONN_STACK,
            ..ReactorConfig::default()
        })?);
        let events = match &config.flight_recorder {
            Some(path) => EventLog::file_backed_with_role(
                path,
                jets_core::events::DEFAULT_EVENT_CAPACITY,
                WriterRole::Relay,
            )?,
            None => EventLog::new(),
        };
        let core = RelayCore::new(
            config.name.clone(),
            config.location.clone(),
            config.worker_stale_after.as_millis() as u64,
            config.upqueue_limit,
        );
        let links = Links::default();
        let inner = Arc::new(Inner {
            config,
            epoch: Instant::now(),
            state: Mutex::ranked(Rank::Relay, State { core, links }),
            wake: Condvar::new(),
            metrics: Arc::new(RelayMetrics::new()),
            events,
        });
        let factory_inner = Arc::clone(&inner);
        reactor.listen(
            listener,
            Arc::new(move |stream: &TcpStream, _peer: SocketAddr| {
                if step(&factory_inner, |_, fx, _| fx.links.stopped) {
                    return None;
                }
                Some(Box::new(MemberConn {
                    inner: Arc::clone(&factory_inner),
                    // Clone taken before the reactor owns the stream, so
                    // kill() and give-up can sever the member later.
                    sock: stream.try_clone().ok(),
                    out: None,
                    local: None,
                }) as Box<dyn ConnHandler>)
            }),
        )?;
        let (keeper_inner, keeper_reactor) = (Arc::clone(&inner), Arc::clone(&reactor));
        let keeper = thread::Builder::new()
            .name("relay-keeper".to_string())
            .stack_size(CONN_STACK)
            .spawn(move || housekeeping(&keeper_inner, &keeper_reactor))?;
        Ok(Relay {
            inner,
            addr,
            keeper: Some(keeper),
            reactor,
        })
    }

    /// Address workers should connect to (in place of a dispatcher's).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently connected members.
    pub fn member_count(&self) -> usize {
        step(&self.inner, |core, _, _| core.members())
    }

    /// True while an upstream session is established.
    pub fn is_connected(&self) -> bool {
        step(&self.inner, |_, fx, _| fx.links.up.is_some())
    }

    /// True once the relay has stopped — dispatcher-ordered shutdown,
    /// [`Relay::kill`]/[`Relay::shutdown`], or reconnect exhaustion.
    pub fn is_stopped(&self) -> bool {
        step(&self.inner, |_, fx, _| fx.links.stopped)
    }

    /// Counters snapshot, read off the metric handles (one source, so the
    /// scrape and the snapshot cannot disagree).
    pub fn stats(&self) -> RelayStats {
        let m = &self.inner.metrics;
        RelayStats {
            members: self.member_count(),
            local_cancels: m.local_cancels_total.get(),
            batched_frames: m.batched_heartbeats_total.get(),
            upstream_sessions: m.upstream_sessions_total.get(),
        }
    }

    /// This relay's live metric handles.
    pub fn metrics(&self) -> Arc<RelayMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// This relay's operational event log (shared handle). `jets events`
    /// renders the same record shape the dispatcher's log uses, so relay
    /// and dispatcher events can be merged offline.
    pub fn events(&self) -> EventLog {
        self.inner.events.clone()
    }

    /// Live counters from the relay's reactor (connections, wakeups,
    /// outbox high-water, slow-consumer disconnects).
    pub fn reactor_stats(&self) -> Arc<ReactorStats> {
        self.reactor.stats()
    }

    /// Serve `GET /metrics` (Prometheus text) and `GET /healthz` on
    /// `addr` from the relay's own event loop; returns the bound address
    /// (use port 0 for ephemeral). The port closes when the relay is
    /// dropped.
    pub fn serve_metrics(&self, addr: &str) -> io::Result<SocketAddr> {
        jets_obs::serve_metrics(&self.reactor, addr, self.inner.metrics.registry())
    }

    /// Sever the upstream connection *without* stopping the relay: the
    /// housekeeping thread reconnects with backoff and the block is
    /// re-registered. This is the dispatcher-outage fault-injection
    /// primitive (the relay-side analogue of `Worker::disconnect`).
    pub fn partition_upstream(&self) {
        step(&self.inner, |_, fx, _| {
            if let Some((_, link)) = &fx.links.up {
                link.sever();
            }
        });
    }

    /// Kill the relay abruptly: sever the upstream connection and every
    /// member socket, no goodbyes. This is the chaos harness's
    /// relay-death primitive — workers see EOF and fall back on their
    /// own reconnect policies; the dispatcher sees EOF and declares the
    /// whole block down.
    pub fn kill(&self) {
        stop(&self.inner, |links| {
            let up = links.up.iter().map(|(_, link)| link);
            links.members.values().chain(up).for_each(Link::sever);
        });
    }

    /// Orderly stop: forward `Shutdown` to every member (so their
    /// agents exit cleanly), then sever upstream and stop accepting.
    pub fn shutdown(&self) {
        stop(&self.inner, |links| {
            for link in links.members.values() {
                send_member(link, &mut links.enc, &DispatcherMsg::Shutdown);
            }
            if let Some((_, link)) = &links.up {
                link.sever();
            }
        });
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.kill();
        if let Some(keeper) = self.keeper.take() {
            let _ = keeper.join();
        }
    }
}

/// One member connection on the event loop; speaks the ordinary worker
/// protocol — a worker cannot tell a relay from a dispatcher.
struct MemberConn {
    inner: Arc<Inner>,
    /// Socket clone taken at accept time; moves into the link table at
    /// registration.
    sock: Option<TcpStream>,
    /// The reactor-managed write side, captured in `on_open`.
    out: Option<Arc<Outbox>>,
    /// The member's relay-local id, once it has said `Register`.
    local: Option<u64>,
}

impl ConnHandler for MemberConn {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.out = Some(Arc::clone(outbox));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        // An unparseable frame is a protocol violation; sever. The close
        // path unwinds whatever state the member had.
        let (Ok(msg), Some(out)) = (decode_msg::<WorkerMsg>(frame), &self.out) else {
            return Flow::Close;
        };
        let inner = &*self.inner;
        match (msg, self.local) {
            // The handshake: the first frame, and only the first, is
            // `Register`. Forwarded in this same loop iteration.
            (
                WorkerMsg::Register {
                    name,
                    cores,
                    location,
                },
                None,
            ) => {
                let link = Link {
                    out: Arc::clone(out),
                    sock: self.sock.take(),
                };
                self.local = Some(step(inner, |core, fx, now| {
                    let local = core.register(now, (name, cores, location), fx);
                    fx.links.members.insert(local, link);
                    local
                }));
            }
            (WorkerMsg::Request, Some(l)) => step(inner, |core, fx, now| core.request(now, l, fx)),
            (
                WorkerMsg::Done {
                    task_id,
                    exit_code,
                    wall_ms,
                    output,
                    trace,
                },
                Some(l),
            ) => {
                let done = (task_id, exit_code, wall_ms, output, trace);
                step(inner, |core, fx, now| core.done(now, l, done, fx));
            }
            (WorkerMsg::Heartbeat, Some(l)) => step(inner, |core, _, now| core.heartbeat(now, l)),
            (WorkerMsg::SessionState { running }, Some(l)) => {
                step(inner, |core, fx, now| {
                    core.session_state(now, l, running, fx)
                });
            }
            // `Goodbye`; anything but `Register` first, or `Register`
            // twice; a relay-scoped frame (relays do not chain): sever.
            (
                WorkerMsg::Register { .. }
                | WorkerMsg::Request
                | WorkerMsg::Done { .. }
                | WorkerMsg::Heartbeat
                | WorkerMsg::Goodbye
                | WorkerMsg::SessionState { .. }
                | WorkerMsg::RelayHello { .. }
                | WorkerMsg::RelayRegister { .. }
                | WorkerMsg::RelayRequest { .. }
                | WorkerMsg::RelayDone { .. }
                | WorkerMsg::BatchedHeartbeat { .. }
                | WorkerMsg::RelayWorkerGone { .. }
                | WorkerMsg::RelayMemberState { .. },
                _,
            ) => return Flow::Close,
        }
        Flow::Continue
    }

    fn on_close(&mut self, _reason: CloseReason) {
        // A connection that never registered has no state to unwind.
        if let Some(local) = self.local.take() {
            step(&self.inner, |core, fx, _| {
                fx.links.members.remove(&local);
                core.gone(local, fx);
            });
        }
    }
}

/// Upstream session `n` on the event loop. Its outbox is in
/// `Links::up`; this half only reads.
struct UpstreamConn {
    inner: Arc<Inner>,
    n: u64,
}

impl ConnHandler for UpstreamConn {
    fn on_open(&mut self, _outbox: &Arc<Outbox>) {}

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        let Ok(msg) = decode_msg::<DispatcherMsg>(frame) else {
            return Flow::Close;
        };
        let n = self.n;
        if step(&self.inner, |core, fx, _| core.upstream(n, msg, fx)) {
            return Flow::Continue;
        }
        // Dispatcher-ordered shutdown, already fanned out to the block.
        stop(&self.inner, |_| {});
        Flow::Close
    }

    fn on_close(&mut self, _reason: CloseReason) {
        let n = self.n;
        step(&self.inner, |core, fx, _| {
            core.session_down(n);
            fx.links.up.take_if(|(live, _)| *live == n);
        });
        self.inner.wake.notify_all();
    }
}

/// The housekeeping thread: connect (with backoff) → adopt the session
/// onto the loop → tick until it ends, then repeat.
fn housekeeping(inner: &Arc<Inner>, reactor: &Reactor) {
    let policy = &inner.config.reconnect;
    // Deterministic backoff jitter, as in the worker agent.
    let mut jitter = SplitMix64::new(policy.seed);
    let mut failed: u32 = 0;
    for n in 1.. {
        let stream = TcpStream::connect(&inner.config.dispatcher_addr);
        let mut st = inner.state.lock();
        if let Ok(stream) = stream {
            st = serve_session(inner, reactor, n, stream, st);
        }
        if st.links.stopped {
            return;
        }
        if std::mem::take(&mut st.links.hello_acked) {
            failed = 0;
            continue;
        }
        // Refused, or accepted and dropped before the hello was acked.
        failed += 1;
        if failed >= policy.max_attempts {
            // Out of budget: the relay is dead. Sever the block so
            // workers fall back on their own policies.
            st.links.stopped = true;
            st.links.members.values().for_each(Link::sever);
            return;
        }
        let until = Instant::now() + policy.backoff(failed, &mut jitter);
        while !st.links.stopped && Instant::now() < until {
            let left = until.saturating_duration_since(Instant::now());
            st = wait_for(&inner.wake, st, left).0;
        }
    }
}

/// Adopt `stream` as upstream session `n` and serve it until its
/// `on_close` has run, delivering a tick every `liveness_flush`.
fn serve_session<'a>(
    inner: &'a Arc<Inner>,
    reactor: &Reactor,
    n: u64,
    stream: TcpStream,
    mut st: Guard<'a, State>,
) -> Guard<'a, State> {
    if st.links.stopped {
        return st;
    }
    let sock = stream.try_clone().ok();
    let conn = Box::new(UpstreamConn {
        inner: Arc::clone(inner),
        n,
    });
    // Adopted under the lock, so the session's `on_close` cannot run
    // before `up` names it. (Queues the socket for the loop; no I/O.)
    let Ok(out) = reactor.add_stream(stream, conn) else {
        return st;
    };
    st.links.up = Some((n, Link { out, sock }));
    inner.metrics.upstream_sessions_total.inc();
    // Hello plus the whole block's registrations, in one write.
    apply(inner, &mut st, |core, fx, _| core.session_up(n, fx));
    let flush = inner.config.liveness_flush;
    let mut next_tick = Instant::now() + flush;
    // Only this thread installs a session, so `up` is this one until
    // its `on_close` clears it.
    while !st.links.stopped && st.links.up.is_some() {
        let now = Instant::now();
        if now >= next_tick {
            apply(inner, &mut st, |core, fx, now| core.tick(now, fx));
            next_tick = now + flush;
        }
        st = wait_for(&inner.wake, st, next_tick - now).0;
    }
    st
}

#[cfg(test)]
mod tests {
    //! Loopback smokes of the shell: real sockets, real threads. What the
    //! relay *decides* is tested on the core under a virtual clock
    //! (`tests/relay_model.rs`); these cover what only the shell has —
    //! the wire, the event loop, the reconnect thread.
    use super::*;
    use jets_core::protocol::{MsgReader, MsgWriter, TaskAssignment, TaskKind};
    use jets_core::registry::WorkerState;
    use jets_core::spec::{CommandSpec, JobSpec};
    use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
    use jets_worker::apps::standard_registry;
    use jets_worker::{Executor, Worker, WorkerConfig};
    use std::io::{BufReader, Read, Write};

    const WAIT: Duration = Duration::from_secs(60);

    /// No clock, lock, atomic, thread, socket or file in the routing core
    /// (`tests/relay_model.rs` is its fake shell).
    #[test]
    fn the_core_is_pure() {
        jets_ring::stdx::assert_pure(include_str!("core.rs"), &["Atomic"]);
    }

    fn spawn_worker(addr: &str, name: &str) -> Worker {
        let config = WorkerConfig {
            heartbeat: Some(Duration::from_millis(25)),
            ..WorkerConfig::new(addr, name)
        };
        Worker::spawn(config, Arc::new(Executor::new(standard_registry())))
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + WAIT;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(10));
        }
    }

    fn noops(d: &Dispatcher, n: usize) {
        let ids =
            d.submit_all((0..n).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
    }

    #[test]
    fn config_defaults() {
        let c =
            RelayConfig::new("127.0.0.1:9999", "r0").with_liveness_flush(Duration::from_millis(40));
        assert_eq!(c.name, "r0");
        assert_eq!(c.liveness_flush, Duration::from_millis(40));
        assert_eq!(
            c.reconnect.max_attempts,
            ReconnectPolicy::default().max_attempts
        );
    }

    /// Workers behind one relay run a batch end to end while the
    /// dispatcher accepts exactly one connection.
    #[test]
    fn relay_fronts_workers_end_to_end() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let relay = Relay::start(RelayConfig::new(d.addr().to_string(), "relay-0")).unwrap();
        let addr = relay.addr().to_string();
        let workers: Vec<Worker> = (0..3)
            .map(|i| spawn_worker(&addr, &format!("blk-{i}")))
            .collect();
        wait_until("relayed workers to register", || d.alive_workers() == 3);
        assert_eq!(d.connections_accepted(), 1, "one socket fronts the block");
        assert_eq!(relay.member_count(), 3);
        assert!(relay.is_connected());
        noops(&d, 12);
        d.shutdown();
        for w in workers {
            w.join();
        }
        wait_until("the ordered shutdown to stop the relay", || {
            relay.is_stopped()
        });
    }

    /// A member that reports and re-requests in one segment (what the
    /// agent's paired send produces) reaches the dispatcher the same way:
    /// `RelayDone` then `RelayRequest`, in that order, in one `read` — the
    /// pair crosses the relay inside one readiness event. The dispatcher
    /// here is a scripted socket, so the upstream bytes are observable.
    #[test]
    fn coalesced_done_and_request_keep_their_order_upstream() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let relay = Relay::start(
            RelayConfig::new(upstream.local_addr().unwrap().to_string(), "relay-o")
                // No liveness frames interleaving with the script.
                .with_liveness_flush(Duration::from_secs(3600)),
        )
        .unwrap();
        let (mut up, _) = upstream.accept().unwrap();
        up.set_read_timeout(Some(WAIT)).unwrap();
        let mut up_tx = MsgWriter::new(up.try_clone().unwrap());
        let mut up_rx = MsgReader::new(BufReader::new(up.try_clone().unwrap()));
        let mut next_up = move || up_rx.recv::<WorkerMsg>().unwrap().expect("relay hung up");
        assert!(matches!(next_up(), WorkerMsg::RelayHello { .. }));
        let ack = DispatcherMsg::Registered { worker_id: 1 };
        up_tx.send(&ack).unwrap();

        let mut member = TcpStream::connect(relay.addr()).unwrap();
        member.set_read_timeout(Some(WAIT)).unwrap();
        let mut member_rx = MsgReader::new(BufReader::new(member.try_clone().unwrap()));
        let mut next_down = move || member_rx.recv::<DispatcherMsg>().unwrap().unwrap();
        let frame = |msg: &WorkerMsg| {
            let mut wire = Vec::new();
            encode_msg_buf(msg, &mut wire).unwrap();
            wire
        };
        let (name, location) = ("raw".to_string(), "rack-0".to_string());
        let register = WorkerMsg::Register {
            name,
            cores: 1,
            location,
        };
        member.write_all(&frame(&register)).unwrap();
        let WorkerMsg::RelayRegister { local, .. } = next_up() else {
            panic!("expected RelayRegister");
        };
        let worker_id = 7;
        let ack = DispatcherMsg::RelayRegistered { local, worker_id };
        up_tx.send(&ack).unwrap();
        assert_eq!(next_down(), DispatcherMsg::Registered { worker_id });
        member.write_all(&frame(&WorkerMsg::Request)).unwrap();
        assert_eq!(next_up(), WorkerMsg::RelayRequest { worker: 7 });

        for task_id in 1..=3u64 {
            let cmd = CommandSpec::builtin("noop", vec![]);
            let assignment = TaskAssignment {
                task_id,
                job_id: task_id,
                trace: 0,
                kind: TaskKind::Sequential { cmd },
                stage: Vec::new(),
            };
            let worker = 7;
            up_tx
                .send(&DispatcherMsg::RelayAssign { worker, assignment })
                .unwrap();
            let DispatcherMsg::Assign(a) = next_down() else {
                panic!("expected Assign");
            };
            assert_eq!(a.task_id, task_id);
            let (exit_code, wall_ms, output, trace) = (0, 0, None, 0);
            let mut pair = frame(&WorkerMsg::Done {
                task_id,
                exit_code,
                wall_ms,
                output,
                trace,
            });
            pair.extend(frame(&WorkerMsg::Request));
            member.write_all(&pair).unwrap();
            // Nothing else is in flight: one read is one upstream write.
            let mut segment = [0u8; 4096];
            let n = up.read(&mut segment).unwrap();
            let relayed: Vec<WorkerMsg> = segment[..n]
                .split(|&b| b == b'\n')
                .filter(|line| !line.is_empty())
                .map(|line| decode_msg(line).unwrap())
                .collect();
            let done = WorkerMsg::RelayDone {
                worker,
                task_id,
                exit_code,
                wall_ms,
                output: None,
                trace,
            };
            assert_eq!(relayed, [done, WorkerMsg::RelayRequest { worker }]);
        }
        relay.kill();
    }

    /// Severing the upstream connection re-registers the block under a
    /// fresh session and replays held traffic: jobs submitted after the
    /// outage still run, and workers never reconnect themselves.
    #[test]
    fn upstream_partition_reconnects_and_resumes() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let relay = Relay::start(
            RelayConfig::new(d.addr().to_string(), "relay-p")
                .with_liveness_flush(Duration::from_millis(25)),
        )
        .unwrap();
        let addr = relay.addr().to_string();
        let workers: Vec<Worker> = (0..2)
            .map(|i| spawn_worker(&addr, &format!("pp-{i}")))
            .collect();
        wait_until("initial registration", || d.alive_workers() == 2);
        noops(&d, 4);

        relay.partition_upstream();
        // The dispatcher sees the relay die and downs the whole block
        // (read off the registry's dead entries, which stay: the moment
        // with nobody alive can be shorter than a poll of this loop)…
        wait_until("block declared down", || {
            let dead = |w: &jets_core::registry::WorkerInfo| w.state == WorkerState::Dead;
            d.workers().into_iter().filter(dead).count() == 2
        });
        // …then the relay reconnects and re-registers both members.
        wait_until("block re-registered", || d.alive_workers() == 2);
        assert!(relay.stats().upstream_sessions >= 2);
        // The members never reconnected themselves — same sockets, new
        // session — and they still get work.
        assert_eq!(relay.member_count(), 2);
        noops(&d, 4);
        d.shutdown();
        for w in workers {
            w.join();
        }
    }

    /// A peer that accepts and closes (a dispatcher mid-shutdown, a wrong
    /// port) is backed off from like one that refuses: a session that
    /// ends before its hello is acked is a failed attempt, and the budget
    /// runs out.
    #[test]
    fn accept_and_close_exhausts_the_reconnect_budget() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let policy = ReconnectPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(10),
            ..ReconnectPolicy::default()
        };
        let addr = upstream.local_addr().unwrap().to_string();
        let relay = Relay::start(RelayConfig::new(addr, "relay-x").with_reconnect(policy)).unwrap();
        upstream.set_nonblocking(true).unwrap();
        let mut accepts = 0;
        wait_until("the relay to give up", || {
            accepts += upstream.accept().is_ok() as u32; // accepted, dropped
            relay.is_stopped()
        });
        // Stopped means the reconnect thread is done: nothing more comes.
        accepts += std::iter::from_fn(|| upstream.accept().ok()).count() as u32;
        assert!((1..=3).contains(&accepts), "{accepts} accepts");
        assert_eq!(relay.stats().upstream_sessions, u64::from(accepts));
    }
}
