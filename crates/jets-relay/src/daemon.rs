//! The relay daemon: the shell around [`RelayCore`].
//!
//! What the relay *decides* — routing, re-registration, what is held
//! across an outage, who gets cancelled locally — lives in
//! [`crate::core`], and each guarantee is an invariant the seeded world
//! (`cluster_sim::des`) checks after every input of 2,000 fault
//! schedules. This file owns what the core may not: the sockets, the
//! clock, the metric handles and the event ring.
//!
//! ## Thread anatomy
//!
//! One thread, the event loop (`relay-loop-0`): every member connection,
//! the upstream session and any `/metrics` scrape are state machines on
//! it. A frame is decoded and handed to the core — a member's to
//! [`RelayCore::member_frame`], the upstream session's to
//! [`RelayCore::upstream`] — and whatever the core emits is encoded onto
//! the target connection's bounded outbox before the callback returns;
//! the loop writes those outboxes as soon as the readiness event is
//! handled. A member's `Done` and `Request`, read in one segment, leave
//! upstream as `RelayDone` + `RelayRequest` in one `write` with no thread
//! hand-off, and a `RelayAssign` reaches its member the same way.
//!
//! The loop dials upstream itself ([`Reactor::connect`]): a session
//! begins in the connection's `on_open` and ends in its `on_close`. One
//! that ends before its hello is acked, a refused connect included, is a
//! failed attempt, and the next waits out the worker agent's backoff on a
//! timer ([`Reactor::after`]). Another timer delivers [`RelayCore::tick`].
//!
//! ## Locking
//!
//! None: the loop owns the core and the connection handles as a
//! [`LoopCell`], and [`Relay`]'s methods are calls posted to it.

use crate::core::{Effects, Fact, RelayCore};
use crate::metrics::RelayMetrics;
use jets_core::events::{EventLog, WriterRole};
use jets_core::protocol::{decode_msg, encode_msg_buf, DispatcherMsg, WorkerMsg, MAX_FRAME_BYTES};
use jets_reactor::{
    CloseReason, ConnHandler, Flow, LoopCell, Outbox, Reactor, ReactorConfig, ReactorStats,
};
use jets_ring::stdx::SplitMix64;
use jets_worker::ReconnectPolicy;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Stack size for the relay's event loop.
const CONN_STACK: usize = 192 * 1024;

/// High-water mark, in frames, of the bounded outage buffer (results
/// held while the dispatcher is away). At the mark the oldest frame is
/// dropped to admit the newest, so a long partition under a busy block
/// caps relay memory instead of growing it without bound.
const UPQUEUE_LIMIT: usize = 65_536;

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

/// What the core's effects reach, keyed the way the core names them:
/// each connection's bounded outbox, which the loop drains.
#[derive(Default)]
struct Links {
    members: HashMap<u64, Arc<Outbox>>,
    /// The current upstream session and its number.
    up: Option<(u64, Arc<Outbox>)>,
    /// The dispatcher acked the current session's hello.
    hello_acked: bool,
    /// Dispatcher-ordered shutdown, [`Relay::kill`] / [`Relay::shutdown`],
    /// or reconnect exhaustion.
    stopped: bool,
    /// Reusable wire-encode buffer: steady-state sends allocate nothing.
    enc: Vec<u8>,
}

/// The event loop's own state: the core, what its effects reach, and
/// where the upstream reconnect stands: the last session dialed, the
/// attempts failed in a row, the backoff's seeded jitter.
struct State {
    inner: Arc<Inner>,
    core: RelayCore,
    links: Links,
    session: u64,
    failed: u32,
    jitter: SplitMix64,
}

/// The loop's handle on its state.
type Owned = Arc<LoopCell<State>>;

struct Inner {
    config: RelayConfig,
    /// `dispatcher_addr`, resolved once at start; `None` fails every
    /// attempt.
    upstream: Option<SocketAddr>,
    epoch: Instant,
    metrics: Arc<RelayMetrics>,
    /// Span edges and operational events (buffer overflow) — same log
    /// shape the dispatcher keeps, replayed by `jets flight dump`.
    events: EventLog,
    /// The loop's own reactor (weak: the loop holds this), to dial with.
    reactor: Weak<Reactor>,
}

/// The shell's [`Effects`]: where the core's decisions become bytes.
struct Sink<'a> {
    inner: &'a Inner,
    links: &'a mut Links,
    /// The connection an unregistered member's frame was read from,
    /// which a `Register` binds.
    from: Option<Arc<Outbox>>,
}

/// Encode `msg` onto an outbox. A failed send means the outbox is closed
/// or overflowed: the reactor is tearing the connection down, and its
/// `on_close` unwinds the state.
fn send(out: &Outbox, enc: &mut Vec<u8>, msg: &DispatcherMsg) {
    let _ = encode_msg_buf(msg, enc).is_ok() && out.send(enc);
}

impl Effects for Sink<'_> {
    fn to_member(&mut self, local: u64, msg: &DispatcherMsg) {
        if let Some(out) = self.links.members.get(&local) {
            send(out, &mut self.links.enc, msg);
        }
    }

    fn to_upstream(&mut self, msg: &WorkerMsg) {
        let Links { up, enc, .. } = &mut *self.links;
        if let Some((_, out)) = up {
            let _ = encode_msg_buf(msg, enc).is_ok() && out.send(enc);
        }
    }

    fn bind(&mut self, local: u64) {
        if let Some(out) = self.from.take() {
            self.links.members.insert(local, out);
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

impl State {
    /// One input to the core: sample the clock once, make the call,
    /// refresh the level gauges. `from` is the member connection a frame
    /// was read from, until it has registered.
    fn apply<R>(
        &mut self,
        from: Option<Arc<Outbox>>,
        input: impl FnOnce(&mut RelayCore, &mut Sink<'_>, u64) -> R,
    ) -> R {
        let State {
            inner, core, links, ..
        } = self;
        let now = inner.epoch.elapsed().as_millis() as u64;
        let out = input(core, &mut Sink { inner, links, from }, now);
        let m = &inner.metrics;
        m.members.set(core.members() as i64);
        m.upqueue_depth.set(core.held() as i64);
        m.upstream_connected.set(links.up.is_some() as i64);
        out
    }

    /// Stop the relay: no new members, no reconnect. The upstream session
    /// is cut; so are the members, unless `orderly`, which tells them
    /// `Shutdown` instead.
    fn stop(&mut self, orderly: bool) {
        let links = &mut self.links;
        links.stopped = true;
        for out in links.members.values() {
            match orderly {
                true => send(out, &mut links.enc, &DispatcherMsg::Shutdown),
                false => out.abort(),
            }
        }
        links.up.iter().for_each(|(_, up)| up.abort());
    }
}

/// Dial upstream session `session + 1` from the loop.
fn dial(cell: &Owned, st: &mut State) {
    if st.links.stopped {
        return;
    }
    st.session += 1;
    let (state, n) = (Arc::clone(cell), st.session);
    let conn = Box::new(UpstreamConn { state, n });
    let dialed = match (st.inner.upstream, st.inner.reactor.upgrade()) {
        (Some(addr), Some(reactor)) => reactor.connect(addr, conn).is_ok(),
        _ => false,
    };
    if !dialed {
        ended(cell, st);
    }
}

/// The last upstream session is over, or never began. After one whose
/// hello was acked the next is dialed at once; anything else was a failed
/// attempt, and the next waits out the backoff — or, out of budget, the
/// relay stops and severs its block so that workers fall back on their
/// own policies.
fn ended(cell: &Owned, st: &mut State) {
    if st.links.stopped {
        return;
    }
    if std::mem::take(&mut st.links.hello_acked) {
        st.failed = 0;
        return dial(cell, st);
    }
    st.failed += 1;
    let policy = &st.inner.config.reconnect;
    if st.failed >= policy.max_attempts {
        return st.stop(false);
    }
    let delay = policy.backoff(st.failed, &mut st.jitter);
    if let Some(reactor) = st.inner.reactor.upgrade() {
        let next = Arc::clone(cell);
        let _ = reactor.after(delay, move || next.with(|st| dial(&next, st)));
    }
}

/// A running relay daemon.
///
/// Dropping the relay kills it abruptly (socket severance), the same
/// fault the chaos harness injects; call [`Relay::shutdown`] first for
/// an orderly stop.
pub struct Relay {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// The event loop's state.
    state: Owned,
    /// The event loop, which owns `state`.
    reactor: Arc<Reactor>,
}

impl Relay {
    /// Bind the worker-facing listener and start the event loop. Returns
    /// immediately; the upstream connection is established (and
    /// re-established) by the loop.
    pub fn start(config: RelayConfig) -> io::Result<Relay> {
        let listener = TcpListener::bind(&config.listen_addr)?;
        let addr = listener.local_addr()?;
        // One event loop multiplexes the whole block and the upstream
        // session: a relay fronts a machine-room's worth of workers, not
        // a cluster's.
        let reactor = Arc::new(Reactor::start(ReactorConfig {
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
            UPQUEUE_LIMIT,
        );
        // Resolved here, off the loop, which must not block on it.
        let upstream = config.dispatcher_addr.to_socket_addrs().ok();
        let flush = config.liveness_flush.max(Duration::from_millis(1));
        let jitter = SplitMix64::new(config.reconnect.seed);
        let inner = Arc::new(Inner {
            config,
            upstream: upstream.and_then(|mut addrs| addrs.next()),
            epoch: Instant::now(),
            metrics: Arc::new(RelayMetrics::new()),
            events,
            reactor: Arc::downgrade(&reactor),
        });
        let state = Arc::new(reactor.own(State {
            inner: Arc::clone(&inner),
            core,
            links: Links::default(),
            session: 0,
            failed: 0,
            jitter,
        }));
        let accept = Arc::clone(&state);
        reactor.listen(
            listener,
            Arc::new(move |_: &TcpStream, _: SocketAddr| {
                if accept.with(|st| st.links.stopped) {
                    return None;
                }
                let (state, out, local) = (Arc::clone(&accept), None, None);
                Some(Box::new(MemberConn { state, out, local }) as Box<dyn ConnHandler>)
            }),
        )?;
        // A no-op while no session is up.
        let tick = Arc::clone(&state);
        reactor.every(flush, move || {
            tick.with(|st| st.apply(None, |core, fx, now| core.tick(now, fx)));
        })?;
        let first = Arc::clone(&state);
        reactor.post(move || first.with(|st| dial(&first, st)))?;
        Ok(Relay {
            inner,
            addr,
            state,
            reactor,
        })
    }

    /// Address workers should connect to (in place of a dispatcher's).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently connected members.
    pub fn member_count(&self) -> usize {
        self.state.call(|st| st.core.members()).unwrap_or(0)
    }

    /// True while an upstream session is established.
    pub fn is_connected(&self) -> bool {
        self.state.call(|st| st.links.up.is_some()).unwrap_or(false)
    }

    /// True once the relay has stopped — dispatcher-ordered shutdown,
    /// [`Relay::kill`]/[`Relay::shutdown`], or reconnect exhaustion.
    pub fn is_stopped(&self) -> bool {
        self.state.call(|st| st.links.stopped).unwrap_or(true)
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

    /// This relay's operational event log (shared handle). It uses the
    /// dispatcher's record shape, so `jets trace` merges the two
    /// processes' flight files offline.
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
    /// loop reconnects and the block is re-registered. This is the
    /// dispatcher-outage fault-injection primitive (the relay-side
    /// analogue of `Worker::disconnect`).
    pub fn partition_upstream(&self) {
        self.state
            .call(|st| st.links.up.as_ref().map(|(_, up)| up.abort()));
    }

    /// Kill the relay abruptly: sever the upstream connection and every
    /// member socket, no goodbyes. This is the chaos harness's
    /// relay-death primitive — workers see EOF and fall back on their
    /// own reconnect policies; the dispatcher sees EOF and declares the
    /// whole block down.
    pub fn kill(&self) {
        self.state.call(|st| st.stop(false));
    }

    /// Orderly stop: forward `Shutdown` to every member (so their
    /// agents exit cleanly), then sever upstream and stop accepting.
    pub fn shutdown(&self) {
        self.state.call(|st| st.stop(true));
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.kill();
        // Joined here, so the loop never holds the last handle on it.
        self.reactor.shutdown();
    }
}

/// One member connection on the event loop; speaks the ordinary worker
/// protocol — a worker cannot tell a relay from a dispatcher. Each frame
/// is decoded and routed by [`RelayCore::member_frame`] in one input.
struct MemberConn {
    state: Owned,
    /// The reactor-managed write side, captured in `on_open`; moves into
    /// the link table when the core binds the member.
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
        let from = self.local.is_none().then(|| Arc::clone(out));
        let local = &mut self.local;
        let input =
            |st: &mut State| st.apply(from, |core, fx, now| core.member_frame(now, local, msg, fx));
        match self.state.with(input) {
            true => Flow::Continue,
            false => Flow::Close,
        }
    }

    fn on_close(&mut self, _reason: CloseReason) {
        // A connection that never registered has no state to unwind.
        if let Some(local) = self.local.take() {
            self.state.with(|st| {
                st.apply(None, |core, fx, _| {
                    fx.links.members.remove(&local);
                    core.gone(local, fx);
                })
            });
        }
    }
}

/// Upstream session `n` on the event loop: dialed by [`dial`], begun in
/// `on_open`, over in `on_close`. Its outbox is in `Links::up`.
struct UpstreamConn {
    state: Owned,
    n: u64,
}

impl ConnHandler for UpstreamConn {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        let n = self.n;
        self.state.with(|st| {
            if st.links.stopped {
                return outbox.abort(); // stopped while this one dialed
            }
            st.links.up = Some((n, Arc::clone(outbox)));
            st.inner.metrics.upstream_sessions_total.inc();
            // Hello plus the whole block's registrations, in one write.
            st.apply(None, |core, fx, _| core.session_up(n, fx));
        });
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        let Ok(msg) = decode_msg::<DispatcherMsg>(frame) else {
            return Flow::Close;
        };
        let n = self.n;
        self.state.with(|st| {
            if st.apply(None, |core, fx, _| core.upstream(n, msg, fx)) {
                return Flow::Continue;
            }
            // Dispatcher-ordered shutdown, already fanned out to the block.
            st.links.stopped = true;
            Flow::Close
        })
    }

    fn on_close(&mut self, _reason: CloseReason) {
        let (cell, n) = (&self.state, self.n);
        cell.with(|st| {
            st.core.session_down(n);
            st.links.up.take_if(|(live, _)| *live == n);
            ended(cell, st);
        });
    }
}

#[cfg(test)]
mod tests {
    //! Loopback smokes of the shell: real sockets, real threads. What the
    //! relay *decides* is tested on the core under a virtual clock
    //! (`tests/relay_model.rs`, `cluster_sim::des`); these cover what only the shell has —
    //! the wire, the event loop, the reconnect timer.
    use super::*;
    use jets_core::protocol::{MsgReader, MsgWriter, TaskAssignment, TaskKind};
    use jets_core::registry::WorkerState;
    use jets_core::spec::{CommandSpec, JobSpec};
    use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
    use jets_worker::apps::standard_registry;
    use jets_worker::{Executor, Worker, WorkerConfig};
    use std::io::{BufReader, Read, Write};
    use std::thread;

    const WAIT: Duration = Duration::from_secs(60);

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
