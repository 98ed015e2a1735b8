//! The relay daemon: one upstream dispatcher connection fronting a
//! block of downstream workers.
//!
//! ## Thread anatomy
//!
//! * **reactor event loop** — every member connection is multiplexed
//!   onto one `jets-reactor` event loop: nonblocking reads drive the
//!   [`MemberConn`] state machine, writes drain bounded per-member
//!   outboxes. The worker-facing thread bill is O(1) in block size —
//!   the old design spent a reader thread plus a writer thread (and an
//!   unbounded channel) per member.
//! * **upstream pump** — owns the dispatcher connection: connects (with
//!   the PR 2 reconnect/backoff machinery), says `RelayHello`,
//!   re-registers every member, then drains the upstream frame queue.
//!   Every frame already queued when the pump wakes goes upstream in
//!   one `write` (a member's `Done` and `Request` arrive together and
//!   leave together); the pump never waits for a batch to fill.
//!   The queue doubles as the outage buffer: frames enqueued while the
//!   dispatcher is away are replayed into the next session. It is
//!   bounded ([`RelayConfig::upqueue_limit`]) with a drop-oldest
//!   overflow policy — see [`crate::upqueue`].
//! * **upstream reader** — one per session; routes `RelayRegistered`
//!   acks into the local↔global tables and unwraps routed
//!   `RelayAssign`/`RelayCancel` envelopes to the addressed member.
//! * **liveness ticker** — every `liveness_flush`, queues a `Flush`
//!   frame; the pump turns it into one `BatchedHeartbeat` covering all
//!   recently-heard members.
//!
//! ## Locking
//!
//! One mutex guards the member tables. Member heartbeats do **not**
//! take it — each member's last-heard clock is a relay-local
//! `AtomicU64`, mirroring the dispatcher's lock-free liveness path — so
//! a heartbeat storm from the block costs the relay N relaxed stores
//! and the dispatcher one frame per flush period.

use crate::metrics::RelayMetrics;
use crate::upqueue::UpQueue;
use jets_core::events::{EventKind, EventLog, SpanKind, WriterRole};
use jets_core::protocol::{
    decode_msg, encode_msg_buf, DispatcherMsg, MsgReader, MsgWriter, WorkerMsg, MAX_FRAME_BYTES,
};
use jets_core::spec::{JobId, TaskId, WorkerId};
use jets_obs::MetricsServer;
use jets_reactor::{CloseReason, ConnHandler, Flow, Outbox, Reactor, ReactorConfig, ReactorStats};
use jets_ring::stdx::{Mutex, SplitMix64};
use jets_worker::ReconnectPolicy;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Stack size for relay service threads.
const CONN_STACK: usize = 192 * 1024;

/// Most frames the pump encodes into one upstream write. A replay after
/// a long outage can find the whole queue ready; this bounds the encode
/// buffer, not the rate.
const PUMP_BATCH: usize = 256;

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
    /// High-water mark, in frames, of the bounded upstream replay
    /// queue. At the mark the oldest frame is dropped to admit the
    /// newest, so a long partition under a busy block caps relay memory
    /// instead of growing it without bound.
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

    /// Builder-style replay-queue high-water mark.
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

/// A worker's task result held for replay (at most one per member: a
/// worker reports one `Done` per assignment before requesting again).
/// The trailing `u64` is the job's trace id, carried so the replayed
/// frame still correlates with the submission's span tree.
type DoneFrame = (TaskId, i32, u64, Option<String>, u64);

/// One downstream worker, as the relay sees it.
struct Member {
    name: String,
    cores: u32,
    location: String,
    /// Dispatcher-assigned id under the *current* upstream session;
    /// `None` until the `RelayRegistered` ack lands.
    global: Option<WorkerId>,
    /// The member's bounded reactor outbox: frames queue here and the
    /// event loop drains them to the socket. Never blocks.
    out: Arc<Outbox>,
    /// Socket clone for severing ([`Relay::kill`]).
    sock: Option<TcpStream>,
    /// Milliseconds since the relay epoch at which the member was last
    /// heard (lock-free; the member's reader thread stores, the flush
    /// path loads).
    last_heard: Arc<AtomicU64>,
    /// The task/job the member is executing, for local gang fan-out.
    inflight: Option<(TaskId, JobId)>,
    /// True between the member's `Request` and its next `Assign`; used
    /// to re-issue the request after an upstream re-registration.
    wants_work: bool,
    /// A `Done` that could not be forwarded (produced while the
    /// dispatcher was away); replayed right after the next ack.
    pending_done: Option<DoneFrame>,
}

/// Member tables, guarded by one mutex.
#[derive(Default)]
struct State {
    /// Members by relay-local id.
    members: HashMap<u64, Member>,
    /// Reverse routing table: current-session global id → local id.
    by_global: HashMap<WorkerId, u64>,
    /// Reusable wire-encode buffer for frames sent under this lock.
    enc: Vec<u8>,
}

/// Frames queued for the upstream pump. The queue is bounded
/// (drop-oldest at [`RelayConfig::upqueue_limit`]) and survives session
/// loss — it *is* the reconnect replay buffer.
enum UpFrame {
    /// Register member `local` (new member, or replay after reconnect).
    Register(u64),
    /// Member `local` wants work.
    Request(u64),
    /// Member `local` finished a task.
    Done {
        /// The member.
        local: u64,
        /// Which task.
        task_id: TaskId,
        /// Its exit code.
        exit_code: i32,
        /// Wall time in milliseconds.
        wall_ms: u64,
        /// Captured output tail.
        output: Option<String>,
        /// Trace id minted at submission (0 = untraced).
        trace: u64,
    },
    /// Claim member `local`'s in-flight task upstream
    /// ([`WorkerMsg::RelayMemberState`]) so a restarted dispatcher
    /// re-adopts the gang during its reconciliation window instead of
    /// relaunching it.
    MemberState(u64),
    /// The worker with this *global* id is gone.
    Gone(WorkerId),
    /// Emit a batched liveness frame now.
    Flush,
}

struct Inner {
    config: RelayConfig,
    epoch: Instant,
    shutdown: AtomicBool,
    state: Mutex<State>,
    /// Bounded upstream frame queue — the replay buffer across
    /// dispatcher outages (see [`crate::upqueue`]).
    up_q: Arc<UpQueue<UpFrame>>,
    next_local: AtomicU64,
    /// Socket of the current upstream session, for severing.
    upstream: Mutex<Option<TcpStream>>,
    local_cancels: AtomicU64,
    batched_frames: AtomicU64,
    upstream_sessions: AtomicU64,
    /// Scrapeable mirror of the stats atomics (see [`RelayMetrics`]).
    metrics: Arc<RelayMetrics>,
    /// The `/metrics` responder, when one was started.
    metrics_server: Mutex<Option<MetricsServer>>,
    /// Operational events (queue overflow, …) — same log shape the
    /// dispatcher keeps, dumped by `jets events`.
    events: EventLog,
    /// This relay's dispatcher-assigned id under the current upstream
    /// session (0 until the first hello ack); stamps event records.
    relay_global: AtomicU64,
    /// `now_ms` of the last `UpQueueDropped` event (`u64::MAX` = never),
    /// rate-limiting overflow reporting to one event per second.
    last_drop_event_ms: AtomicU64,
}

fn now_ms(inner: &Inner) -> u64 {
    inner.epoch.elapsed().as_millis() as u64
}

/// Queue one frame for the upstream pump, surfacing queue depth and
/// drop-oldest evictions on the metric surface. Never blocks.
fn queue_up(inner: &Inner, frame: UpFrame) {
    if inner.up_q.push(frame) {
        inner.metrics.upqueue_dropped_total.inc();
        note_upqueue_drop(inner);
    }
    inner.metrics.upqueue_depth.set(inner.up_q.len() as i64);
}

/// Surface a drop-oldest eviction on the event log, at most once per
/// second: a sustained overflow must not flood the log it reports on.
/// The event carries the *cumulative* drop counter, so consecutive
/// events show the loss rate across the gap.
fn note_upqueue_drop(inner: &Inner) {
    const MIN_GAP_MS: u64 = 1_000;
    let now = now_ms(inner);
    let last = inner.last_drop_event_ms.load(Ordering::Relaxed);
    if last != u64::MAX && now.saturating_sub(last) < MIN_GAP_MS {
        return;
    }
    // One winner per gap: a losing racer just skips its event.
    if inner
        .last_drop_event_ms
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        inner.events.record(EventKind::UpQueueDropped {
            relay: inner.relay_global.load(Ordering::Acquire),
            dropped: inner.metrics.upqueue_dropped_total.get(),
        });
    }
}

/// Encode `msg` and queue it on a member's bounded outbox. Never
/// blocks, so it is safe under the state lock; `false` means the outbox
/// is closed or overflowed (the reactor is disconnecting the member,
/// and the close path unwinds its state).
fn send_member(m: &Member, enc: &mut Vec<u8>, msg: &DispatcherMsg) -> bool {
    encode_msg_buf(msg, enc).is_ok() && m.out.send(enc)
}

/// A running relay daemon.
///
/// Dropping the relay kills it abruptly (socket severance), the same
/// fault the chaos harness injects; call [`Relay::shutdown`] first for
/// an orderly stop.
pub struct Relay {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// Member-facing event loops. Declared last so the reactor drops
    /// (and flushes queued frames) after everything else is torn down.
    reactor: Reactor,
}

impl Relay {
    /// Bind the worker-facing listener and start all service threads.
    /// Returns immediately; the upstream connection is established (and
    /// re-established) in the background.
    pub fn start(config: RelayConfig) -> io::Result<Relay> {
        let listener = TcpListener::bind(&config.listen_addr)?;
        let addr = listener.local_addr()?;
        // One event loop multiplexes the whole block: a relay fronts a
        // machine-room's worth of workers, not a cluster's.
        let reactor = Reactor::start(ReactorConfig {
            event_loops: 1,
            max_frame: MAX_FRAME_BYTES,
            thread_name: "relay-loop".to_string(),
            thread_stack: CONN_STACK,
            ..ReactorConfig::default()
        })?;
        let up_q = Arc::new(UpQueue::new(config.upqueue_limit));
        let events = match &config.flight_recorder {
            Some(path) => EventLog::file_backed_with_role(
                path,
                jets_core::events::DEFAULT_EVENT_CAPACITY,
                WriterRole::Relay,
            )?,
            None => EventLog::new(),
        };
        let inner = Arc::new(Inner {
            config,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            state: Mutex::new(State::default()),
            up_q,
            next_local: AtomicU64::new(0),
            upstream: Mutex::new(None),
            local_cancels: AtomicU64::new(0),
            batched_frames: AtomicU64::new(0),
            upstream_sessions: AtomicU64::new(0),
            metrics: Arc::new(RelayMetrics::new()),
            metrics_server: Mutex::new(None),
            events,
            relay_global: AtomicU64::new(0),
            last_drop_event_ms: AtomicU64::new(u64::MAX),
        });
        let factory_inner = Arc::clone(&inner);
        reactor.listen(
            listener,
            Arc::new(move |stream: &TcpStream, _peer: SocketAddr| {
                if factory_inner.shutdown.load(Ordering::Acquire) {
                    return None;
                }
                Some(Box::new(MemberConn {
                    inner: Arc::clone(&factory_inner),
                    outbox: None,
                    // Clone taken before the reactor owns the stream, so
                    // kill()/give_up() can sever the member later.
                    sock: stream.try_clone().ok(),
                    state: MemberConnState::Handshake,
                }) as Box<dyn ConnHandler>)
            }),
        )?;
        let tick_inner = Arc::clone(&inner);
        thread::Builder::new()
            .name("relay-tick".to_string())
            .stack_size(CONN_STACK)
            .spawn(move || liveness_ticker(tick_inner))?;
        let pump_inner = Arc::clone(&inner);
        thread::Builder::new()
            .name("relay-pump".to_string())
            .stack_size(CONN_STACK)
            .spawn(move || upstream_pump(pump_inner))?;
        Ok(Relay {
            inner,
            addr,
            reactor,
        })
    }

    /// Address workers should connect to (in place of a dispatcher's).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently connected members.
    pub fn member_count(&self) -> usize {
        self.inner.state.lock().members.len()
    }

    /// True while an upstream session is established.
    pub fn is_connected(&self) -> bool {
        self.inner.upstream.lock().is_some()
    }

    /// True once the relay has stopped — dispatcher-ordered shutdown,
    /// [`Relay::kill`]/[`Relay::shutdown`], or reconnect exhaustion.
    pub fn is_stopped(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> RelayStats {
        RelayStats {
            members: self.member_count(),
            local_cancels: self.inner.local_cancels.load(Ordering::Relaxed),
            batched_frames: self.inner.batched_frames.load(Ordering::Relaxed),
            upstream_sessions: self.inner.upstream_sessions.load(Ordering::Relaxed),
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

    /// Live counters from the member-facing reactor (connections,
    /// wakeups, outbox high-water, slow-consumer disconnects).
    pub fn reactor_stats(&self) -> Arc<ReactorStats> {
        self.reactor.stats()
    }

    /// Serve `GET /metrics` (Prometheus text) and `GET /healthz` on
    /// `addr`; returns the bound address (use port 0 for ephemeral).
    /// The responder stops when the relay is dropped.
    pub fn serve_metrics(&self, addr: &str) -> io::Result<SocketAddr> {
        let server = jets_obs::serve_metrics(addr, self.inner.metrics.registry())?;
        let local = server.addr();
        *self.inner.metrics_server.lock() = Some(server);
        Ok(local)
    }

    /// Sever the upstream connection *without* stopping the relay: the
    /// pump reconnects with backoff and re-registers the block. This is
    /// the dispatcher-outage fault-injection primitive (the relay-side
    /// analogue of `Worker::disconnect`).
    pub fn partition_upstream(&self) {
        if let Some(sock) = self.inner.upstream.lock().take() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }

    /// Kill the relay abruptly: sever the upstream connection and every
    /// member socket, no goodbyes. This is the chaos harness's
    /// relay-death primitive — workers see EOF and fall back on their
    /// own reconnect policies; the dispatcher sees EOF and declares the
    /// whole block down.
    pub fn kill(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(sock) = self.inner.upstream.lock().take() {
            let _ = sock.shutdown(Shutdown::Both);
        }
        let st = self.inner.state.lock();
        for m in st.members.values() {
            if let Some(sock) = &m.sock {
                let _ = sock.shutdown(Shutdown::Both);
            }
        }
    }

    /// Orderly stop: forward `Shutdown` to every member (so their
    /// agents exit cleanly), then sever upstream and stop accepting.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let mut st = self.inner.state.lock();
            let State { members, enc, .. } = &mut *st;
            for m in members.values() {
                send_member(m, enc, &DispatcherMsg::Shutdown);
            }
        }
        if let Some(sock) = self.inner.upstream.lock().take() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.kill();
    }
}

fn liveness_ticker(inner: Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        thread::sleep(inner.config.liveness_flush);
        queue_up(&inner, UpFrame::Flush);
    }
}

/// One member connection as a reactor state machine; speaks the
/// ordinary worker protocol — a worker cannot tell a relay from a
/// dispatcher. Replaces the old per-member reader + writer threads.
struct MemberConn {
    inner: Arc<Inner>,
    /// The reactor-managed write side, captured in `on_open`.
    outbox: Option<Arc<Outbox>>,
    /// Socket clone taken at accept time; moves into the member table
    /// at registration so [`Relay::kill`] can sever it.
    sock: Option<TcpStream>,
    state: MemberConnState,
}

enum MemberConnState {
    /// Waiting for the first frame, which must be `Register`.
    Handshake,
    /// Registered as member `local`.
    Registered {
        /// The member's relay-local id.
        local: u64,
        /// The member's last-heard clock, shared with the member table
        /// (lock-free; the event loop stores, the flush path loads).
        last_heard: Arc<AtomicU64>,
    },
}

impl ConnHandler for MemberConn {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        // An unparseable frame is a protocol violation; sever. The
        // close path unwinds whatever state the member had.
        let Ok(msg) = decode_msg::<WorkerMsg>(frame) else {
            return Flow::Close;
        };
        if matches!(self.state, MemberConnState::Handshake) {
            self.on_handshake(msg)
        } else {
            self.on_member(msg)
        }
    }

    fn on_close(&mut self, _reason: CloseReason) {
        if let MemberConnState::Registered { local, .. } =
            std::mem::replace(&mut self.state, MemberConnState::Handshake)
        {
            member_down(&self.inner, local);
        }
        // A connection that never finished its handshake registered no
        // state; nothing to unwind.
    }
}

impl MemberConn {
    /// Handshake: the first message must be `Register` (relays do not
    /// chain). Anything else is a protocol violation with no member
    /// state yet to unwind — drop the connection.
    fn on_handshake(&mut self, msg: WorkerMsg) -> Flow {
        let (name, cores, location) = match msg {
            WorkerMsg::Register {
                name,
                cores,
                location,
            } => (name, cores, location),
            WorkerMsg::Request
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
            | WorkerMsg::RelayMemberState { .. } => return Flow::Close,
        };
        let Some(outbox) = &self.outbox else {
            return Flow::Close;
        };
        let local = self.inner.next_local.fetch_add(1, Ordering::Relaxed);
        let last_heard = Arc::new(AtomicU64::new(now_ms(&self.inner)));
        {
            let mut st = self.inner.state.lock();
            st.members.insert(
                local,
                Member {
                    name,
                    cores,
                    location,
                    global: None,
                    out: Arc::clone(outbox),
                    sock: self.sock.take(),
                    last_heard: Arc::clone(&last_heard),
                    inflight: None,
                    wants_work: false,
                    pending_done: None,
                },
            );
            self.inner.metrics.members.set(st.members.len() as i64);
        }
        // The worker's Registered ack is sent only once the dispatcher
        // acks the forwarded registration, so a member can never race
        // ahead of its own global id.
        queue_up(&self.inner, UpFrame::Register(local));
        self.state = MemberConnState::Registered { local, last_heard };
        Flow::Continue
    }

    /// One frame from a registered member.
    fn on_member(&self, msg: WorkerMsg) -> Flow {
        let MemberConnState::Registered { local, last_heard } = &self.state else {
            return Flow::Close;
        };
        let local = *local;
        match msg {
            WorkerMsg::Request => {
                // jets-lint: allow(relaxed) liveness timestamp only: the flush filter tolerates staleness; ordering is irrelevant
                last_heard.store(now_ms(&self.inner), Ordering::Relaxed);
                {
                    let mut st = self.inner.state.lock();
                    if let Some(m) = st.members.get_mut(&local) {
                        m.wants_work = true;
                    }
                }
                queue_up(&self.inner, UpFrame::Request(local));
                Flow::Continue
            }
            WorkerMsg::Done {
                task_id,
                exit_code,
                wall_ms,
                output,
                trace,
            } => {
                // jets-lint: allow(relaxed) liveness timestamp only: the flush filter tolerates staleness; ordering is irrelevant
                last_heard.store(now_ms(&self.inner), Ordering::Relaxed);
                {
                    let mut st = self.inner.state.lock();
                    if let Some(m) = st.members.get_mut(&local) {
                        m.inflight = None;
                    }
                }
                queue_up(
                    &self.inner,
                    UpFrame::Done {
                        local,
                        task_id,
                        exit_code,
                        wall_ms,
                        output,
                        trace,
                    },
                );
                Flow::Continue
            }
            // The relay-local liveness hot path: one relaxed store, no
            // lock, no upstream frame — the flush batches it.
            WorkerMsg::Heartbeat => {
                // jets-lint: allow(relaxed) liveness timestamp only: the flush filter tolerates staleness; ordering is irrelevant
                last_heard.store(now_ms(&self.inner), Ordering::Relaxed);
                Flow::Continue
            }
            WorkerMsg::Goodbye => Flow::Close,
            // A member re-registered carrying a task across its own
            // outage: adopt the claim into the table and forward it
            // upstream under the member's current global id. If the
            // registration ack is still in flight, the ack handler
            // forwards the claim instead (it sees the inflight entry).
            WorkerMsg::SessionState { running } => {
                // jets-lint: allow(relaxed) liveness timestamp only: the flush filter tolerates staleness; ordering is irrelevant
                last_heard.store(now_ms(&self.inner), Ordering::Relaxed);
                if let Some((task_id, job_id)) = running {
                    let acked = {
                        let mut st = self.inner.state.lock();
                        match st.members.get_mut(&local) {
                            Some(m) => {
                                m.inflight = Some((task_id, job_id));
                                m.global.is_some()
                            }
                            None => false,
                        }
                    };
                    if acked {
                        queue_up(&self.inner, UpFrame::MemberState(local));
                    }
                }
                Flow::Continue
            }
            // Relay-scoped frames (or a second Register) on a member
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
}

/// A member's connection dropped. Remove it, fan gang cancellation out
/// to same-job members locally (no dispatcher round-trip), and tell the
/// dispatcher the worker is gone.
fn member_down(inner: &Inner, local: u64) {
    let (gone_global, cancels) = {
        let mut st = inner.state.lock();
        let State {
            members,
            by_global,
            enc,
        } = &mut *st;
        let Some(m) = members.remove(&local) else {
            return;
        };
        if let Some(g) = m.global {
            by_global.remove(&g);
        }
        let mut cancels = 0u64;
        if let Some((_, job)) = m.inflight {
            // Local gang fan-out: a worker death inside this relay
            // reaches same-relay survivors immediately; the dispatcher's
            // own RelayCancel for them arrives later and is ignored as a
            // duplicate by the worker.
            for sib in members.values() {
                if let Some((sib_task, sib_job)) = sib.inflight {
                    if sib_job == job {
                        send_member(sib, enc, &DispatcherMsg::Cancel { task_id: sib_task });
                        cancels += 1;
                    }
                }
            }
        }
        inner.metrics.members.set(members.len() as i64);
        (m.global, cancels)
    };
    inner.local_cancels.fetch_add(cancels, Ordering::Relaxed);
    inner.metrics.local_cancels_total.add(cancels);
    if let Some(worker) = gone_global {
        queue_up(inner, UpFrame::Gone(worker));
    }
    // A member that died before its ack simply never existed upstream;
    // if the ack is in flight, the routed reply path reports it gone.
}

/// Sleep `dur` in slices, returning early on shutdown.
fn interruptible_sleep(inner: &Inner, mut dur: Duration) {
    while !dur.is_zero() {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let slice = dur.min(Duration::from_millis(20));
        thread::sleep(slice);
        dur -= slice;
    }
}

/// The upstream pump: connect (with backoff) → hello → re-register the
/// block → drain the frame queue until the session dies, then repeat.
fn upstream_pump(inner: Arc<Inner>) {
    let policy = inner.config.reconnect.clone();
    let mut failed_attempts: u32 = 0;
    // Deterministic backoff jitter, as in the worker agent.
    let mut jitter = SplitMix64::new(policy.seed);
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let stream = match TcpStream::connect(&inner.config.dispatcher_addr) {
            Ok(s) => s,
            Err(_) => {
                failed_attempts += 1;
                if failed_attempts >= policy.max_attempts {
                    // Out of budget: the relay is dead. Sever the block
                    // so workers fall back on their own policies.
                    give_up(&inner);
                    return;
                }
                let shift = (failed_attempts - 1).min(16);
                let backoff = policy
                    .base_backoff
                    .saturating_mul(1u32 << shift)
                    .min(policy.max_backoff);
                let dur = backoff.mul_f64(1.0 - policy.jitter.clamp(0.0, 1.0) * jitter.gen_f64());
                interruptible_sleep(&inner, dur);
                continue;
            }
        };
        failed_attempts = 0;
        stream.set_nodelay(true).ok();
        let read_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        *inner.upstream.lock() = stream.try_clone().ok();
        inner.upstream_sessions.fetch_add(1, Ordering::Relaxed);
        inner.metrics.upstream_sessions_total.inc();
        inner.metrics.upstream_connected.set(1);

        // Per-session reader: routes acks and envelopes until EOF.
        let session_dead = Arc::new(AtomicBool::new(false));
        {
            let reader_inner = Arc::clone(&inner);
            let dead = Arc::clone(&session_dead);
            let spawned = thread::Builder::new()
                .name("relay-upread".to_string())
                .stack_size(CONN_STACK)
                .spawn(move || {
                    let mut reader = MsgReader::new(BufReader::new(read_half));
                    while let Ok(Some(msg)) = reader.recv::<DispatcherMsg>() {
                        if !handle_upstream(&reader_inner, msg) {
                            break;
                        }
                    }
                    dead.store(true, Ordering::Release);
                });
            // No reader means no session: tear this attempt down and
            // let the outer loop reconnect with backoff.
            if spawned.is_err() {
                *inner.upstream.lock() = None;
                inner.metrics.upstream_connected.set(0);
                continue;
            }
        }

        let mut writer = MsgWriter::new(stream);
        let mut session_ok = writer
            .send(&WorkerMsg::RelayHello {
                name: inner.config.name.clone(),
                location: inner.config.location.clone(),
            })
            .is_ok();

        // Locals registered in *this* session (suppresses duplicates
        // when buffered Register frames drain after the bulk replay).
        let mut sent: HashSet<u64> = HashSet::new();
        if session_ok {
            // New session, new global ids: invalidate the old mapping
            // and re-register every member.
            let locals: Vec<u64> = {
                let mut st = inner.state.lock();
                st.by_global.clear();
                for m in st.members.values_mut() {
                    m.global = None;
                }
                let mut l: Vec<u64> = st.members.keys().copied().collect();
                l.sort_unstable();
                l
            };
            session_ok = locals
                .into_iter()
                .all(|local| queue_register(&inner, &mut writer, local, &mut sent))
                && writer.flush().is_ok();
        }

        let mut batch = Vec::new();
        while session_ok
            && !inner.shutdown.load(Ordering::Acquire)
            && !session_dead.load(Ordering::Acquire)
        {
            inner
                .up_q
                .pop_ready(Duration::from_millis(25), PUMP_BATCH, &mut batch);
            if batch.is_empty() {
                continue;
            }
            inner.metrics.upqueue_depth.set(inner.up_q.len() as i64);
            session_ok = batch
                .drain(..)
                .all(|frame| forward(&inner, &mut writer, frame, &mut sent))
                && writer.flush().is_ok();
        }

        // Session over (EOF, write error, partition, or shutdown).
        *inner.upstream.lock() = None;
        inner.metrics.upstream_connected.set(0);
        let _ = writer.get_ref().shutdown(Shutdown::Both);
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Loop: reconnect with backoff and replay.
    }
}

/// Upstream reconnects exhausted: sever every member so their agents'
/// own reconnect policies take over, and stop the relay.
fn give_up(inner: &Inner) {
    inner.shutdown.store(true, Ordering::Release);
    let st = inner.state.lock();
    for m in st.members.values() {
        if let Some(sock) = &m.sock {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}

/// Queue member `local`'s registration for upstream, once per session.
fn queue_register(
    inner: &Inner,
    writer: &mut MsgWriter<TcpStream>,
    local: u64,
    sent: &mut HashSet<u64>,
) -> bool {
    if sent.contains(&local) {
        return true;
    }
    let info = {
        let st = inner.state.lock();
        st.members
            .get(&local)
            .map(|m| (m.name.clone(), m.cores, m.location.clone()))
    };
    let Some((name, cores, location)) = info else {
        return true; // member already left; nothing to register
    };
    sent.insert(local);
    writer
        .queue(&WorkerMsg::RelayRegister {
            local,
            name,
            cores,
            location,
        })
        .is_ok()
}

/// Translate one queued frame into wire traffic for the current
/// session and queue it on `writer`; the pump flushes once per batch.
/// Returns false when the frame cannot be encoded, which ends the
/// session like a dead socket does.
fn forward(
    inner: &Inner,
    writer: &mut MsgWriter<TcpStream>,
    frame: UpFrame,
    sent: &mut HashSet<u64>,
) -> bool {
    match frame {
        UpFrame::Register(local) => queue_register(inner, writer, local, sent),
        UpFrame::Request(local) => {
            let global = {
                let st = inner.state.lock();
                st.members.get(&local).and_then(|m| m.global)
            };
            match global {
                Some(worker) => writer.queue(&WorkerMsg::RelayRequest { worker }).is_ok(),
                // Not yet (re-)acked this session: `wants_work` re-issues
                // the request as soon as the ack lands. Dropping here is
                // what makes buffered pre-outage requests idempotent.
                None => true,
            }
        }
        UpFrame::Done {
            local,
            task_id,
            exit_code,
            wall_ms,
            output,
            trace,
        } => {
            let global = {
                let st = inner.state.lock();
                st.members.get(&local).and_then(|m| m.global)
            };
            match global {
                Some(worker) => writer
                    .queue(&WorkerMsg::RelayDone {
                        worker,
                        task_id,
                        exit_code,
                        wall_ms,
                        output,
                        trace,
                    })
                    .is_ok(),
                None => {
                    // Produced while the dispatcher was away: hold it and
                    // replay right after the member's re-registration ack
                    // (the dispatcher will drop it as stale, but the
                    // replay keeps the frame order intact).
                    let mut st = inner.state.lock();
                    if let Some(m) = st.members.get_mut(&local) {
                        m.pending_done = Some((task_id, exit_code, wall_ms, output, trace));
                    }
                    true
                }
            }
        }
        UpFrame::MemberState(local) => {
            let claim = {
                let st = inner.state.lock();
                st.members
                    .get(&local)
                    .and_then(|m| m.global.map(|g| (g, m.inflight)))
            };
            match claim {
                Some((worker, Some((task_id, job_id)))) => writer
                    .queue(&WorkerMsg::RelayMemberState {
                        worker,
                        task_id,
                        job_id,
                    })
                    .is_ok(),
                // Finished (or left) before the frame drained: nothing
                // left to claim.
                _ => true,
            }
        }
        UpFrame::Gone(worker) => writer.queue(&WorkerMsg::RelayWorkerGone { worker }).is_ok(),
        UpFrame::Flush => {
            let stale_ms = inner.config.worker_stale_after.as_millis() as u64;
            let now = now_ms(inner);
            let workers: Vec<u64> = {
                let st = inner.state.lock();
                st.members
                    .values()
                    .filter(|m| {
                        now.saturating_sub(m.last_heard.load(Ordering::Relaxed)) <= stale_ms
                    })
                    .filter_map(|m| m.global)
                    .collect()
            };
            if workers.is_empty() {
                return true;
            }
            inner.batched_frames.fetch_add(1, Ordering::Relaxed);
            inner.metrics.batched_heartbeats_total.inc();
            writer
                .queue(&WorkerMsg::BatchedHeartbeat { workers })
                .is_ok()
        }
    }
}

/// Route one dispatcher message. Returns false to end the session
/// (orderly shutdown).
fn handle_upstream(inner: &Inner, msg: DispatcherMsg) -> bool {
    match msg {
        // The relay's own hello ack: remember the assigned id — it
        // stamps this relay's event records.
        DispatcherMsg::Registered { worker_id } => {
            inner.relay_global.store(worker_id, Ordering::Release);
            true
        }
        DispatcherMsg::RelayRegistered { local, worker_id } => {
            let mut st = inner.state.lock();
            let State {
                members,
                by_global,
                enc,
            } = &mut *st;
            if let Some(m) = members.get_mut(&local) {
                m.global = Some(worker_id);
                // The member's own Registered completes its handshake
                // (a re-registration's duplicate ack is ignored by the
                // agent's inbox loop).
                send_member(m, enc, &DispatcherMsg::Registered { worker_id });
                // A member still mid-task across the outage: claim its
                // gang (before any replayed Done) so a restarted
                // dispatcher re-adopts it instead of relaunching.
                if m.inflight.is_some() {
                    queue_up(inner, UpFrame::MemberState(local));
                }
                // Replay traffic held across the outage, in order.
                if let Some((task_id, exit_code, wall_ms, output, trace)) = m.pending_done.take() {
                    queue_up(
                        inner,
                        UpFrame::Done {
                            local,
                            task_id,
                            exit_code,
                            wall_ms,
                            output,
                            trace,
                        },
                    );
                }
                if m.wants_work {
                    queue_up(inner, UpFrame::Request(local));
                }
                by_global.insert(worker_id, local);
            } else {
                // The member left between registration and ack.
                queue_up(inner, UpFrame::Gone(worker_id));
            }
            true
        }
        DispatcherMsg::RelayAssign { worker, assignment } => {
            let mut st = inner.state.lock();
            let State {
                members,
                by_global,
                enc,
            } = &mut *st;
            let local = by_global.get(&worker).copied();
            match local.and_then(|l| members.get_mut(&l)) {
                Some(m) => {
                    m.inflight = Some((assignment.task_id, assignment.job_id));
                    m.wants_work = false;
                    // The forward span covers unwrap → member outbox; the
                    // pushes are lock-free ring writes, safe under the
                    // state lock. Actual socket drain time shows up as
                    // the gap to the worker's stage span.
                    let (trace, job, task) =
                        (assignment.trace, assignment.job_id, assignment.task_id);
                    inner.events.span_start(
                        trace,
                        SpanKind::RelayForward,
                        WriterRole::Relay,
                        job,
                        task,
                    );
                    send_member(m, enc, &DispatcherMsg::Assign(assignment));
                    inner.events.span_end(
                        trace,
                        SpanKind::RelayForward,
                        WriterRole::Relay,
                        job,
                        task,
                    );
                }
                None => {
                    // Assigned to a member that just died; tell the
                    // dispatcher so it tears the gang down promptly.
                    queue_up(inner, UpFrame::Gone(worker));
                }
            }
            true
        }
        DispatcherMsg::RelayCancel { worker, task_id } => {
            let mut st = inner.state.lock();
            let State {
                members,
                by_global,
                enc,
            } = &mut *st;
            let local = by_global.get(&worker).copied();
            if let Some(m) = local.and_then(|l| members.get_mut(&l)) {
                if m.inflight.map(|(t, _)| t) == Some(task_id) {
                    m.inflight = None;
                }
                send_member(m, enc, &DispatcherMsg::Cancel { task_id });
            }
            true
        }
        DispatcherMsg::Shutdown => {
            // Fan the shutdown out to the block and stop.
            inner.shutdown.store(true, Ordering::Release);
            let mut st = inner.state.lock();
            let State { members, enc, .. } = &mut *st;
            for m in members.values() {
                send_member(m, enc, &DispatcherMsg::Shutdown);
            }
            false
        }
        // Unrouted worker-directed frames on the relay connection are a
        // dispatcher bug; drop them rather than guessing a member.
        DispatcherMsg::Assign(_) | DispatcherMsg::Cancel { .. } => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_core::registry::WorkerState;
    use jets_core::spec::{CommandSpec, JobSpec};
    use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
    use jets_worker::apps::standard_registry;
    use jets_worker::{Executor, TaskExecutor, Worker, WorkerConfig};

    const WAIT: Duration = Duration::from_secs(60);

    fn executor() -> Arc<dyn TaskExecutor> {
        Arc::new(Executor::new(standard_registry()))
    }

    fn spawn_worker(addr: &str, name: &str) -> Worker {
        let config = WorkerConfig {
            heartbeat: Some(Duration::from_millis(25)),
            ..WorkerConfig::new(addr, name)
        };
        Worker::spawn(config, executor())
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + WAIT;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(10));
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
        let ids = d
            .submit_all((0..12).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        d.shutdown();
        for w in workers {
            w.join();
        }
    }

    /// A member that reports and re-requests in one segment (what the
    /// agent's paired send produces) is forwarded in that order: the
    /// dispatcher must see the worker's `RelayDone` before the
    /// `RelayRequest` that makes it assignable again. The dispatcher here
    /// is a scripted socket, so the upstream frame order is observable.
    #[test]
    fn coalesced_done_and_request_keep_their_order_upstream() {
        use jets_core::protocol::{TaskAssignment, TaskKind};
        use std::io::Write;

        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let relay = Relay::start(
            RelayConfig::new(upstream.local_addr().unwrap().to_string(), "relay-o")
                // No liveness frames interleaving with the script.
                .with_liveness_flush(Duration::from_secs(3600)),
        )
        .unwrap();
        let (up, _) = upstream.accept().unwrap();
        up.set_read_timeout(Some(WAIT)).unwrap();
        let mut up_tx = MsgWriter::new(up.try_clone().unwrap());
        let mut up_rx = MsgReader::new(BufReader::new(up));
        let mut next_up = move || up_rx.recv::<WorkerMsg>().unwrap().expect("relay hung up");

        assert!(matches!(next_up(), WorkerMsg::RelayHello { .. }));
        up_tx
            .send(&DispatcherMsg::Registered { worker_id: 1 })
            .unwrap();

        let mut member = TcpStream::connect(relay.addr()).unwrap();
        member.set_read_timeout(Some(WAIT)).unwrap();
        let mut member_rx = MsgReader::new(BufReader::new(member.try_clone().unwrap()));
        let mut next_down = move || {
            member_rx
                .recv::<DispatcherMsg>()
                .unwrap()
                .expect("relay hung up")
        };
        let mut wire = Vec::new();
        let mut frame = |msg: &WorkerMsg| {
            encode_msg_buf(msg, &mut wire).unwrap();
            wire.clone()
        };
        let register = frame(&WorkerMsg::Register {
            name: "raw".into(),
            cores: 1,
            location: "rack-0".into(),
        });
        member.write_all(&register).unwrap();
        let WorkerMsg::RelayRegister { local, .. } = next_up() else {
            panic!("expected RelayRegister");
        };
        up_tx
            .send(&DispatcherMsg::RelayRegistered {
                local,
                worker_id: 7,
            })
            .unwrap();
        assert_eq!(next_down(), DispatcherMsg::Registered { worker_id: 7 });
        member.write_all(&frame(&WorkerMsg::Request)).unwrap();
        assert_eq!(next_up(), WorkerMsg::RelayRequest { worker: 7 });

        for task_id in 1..=3u64 {
            up_tx
                .send(&DispatcherMsg::RelayAssign {
                    worker: 7,
                    assignment: TaskAssignment {
                        task_id,
                        job_id: task_id,
                        trace: 0,
                        kind: TaskKind::Sequential {
                            cmd: CommandSpec::builtin("noop", vec![]),
                        },
                        stage: Vec::new(),
                    },
                })
                .unwrap();
            let DispatcherMsg::Assign(a) = next_down() else {
                panic!("expected Assign");
            };
            assert_eq!(a.task_id, task_id);
            let mut pair = frame(&WorkerMsg::Done {
                task_id,
                exit_code: 0,
                wall_ms: 0,
                output: None,
                trace: 0,
            });
            pair.extend(frame(&WorkerMsg::Request));
            member.write_all(&pair).unwrap();
            match next_up() {
                WorkerMsg::RelayDone {
                    worker: 7,
                    task_id: t,
                    ..
                } => assert_eq!(t, task_id),
                other => panic!("expected RelayDone first, got {other:?}"),
            }
            assert_eq!(next_up(), WorkerMsg::RelayRequest { worker: 7 });
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
        let ids =
            d.submit_all((0..4).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }

        relay.partition_upstream();
        // The dispatcher sees the relay die and downs the whole block
        // (read off the registry's dead entries, which stay: the moment
        // with nobody alive can be shorter than a poll of this loop)…
        wait_until("block declared down", || {
            let dead = |w: &jets_core::registry::WorkerInfo| w.state == WorkerState::Dead;
            d.workers().into_iter().filter(dead).count() == 2
        });
        // …then the pump reconnects and re-registers both members.
        wait_until("block re-registered", || d.alive_workers() == 2);
        assert!(relay.stats().upstream_sessions >= 2);
        // The members never reconnected themselves — same sockets, new
        // session — and they still get work.
        assert_eq!(relay.member_count(), 2);
        let ids =
            d.submit_all((0..4).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        d.shutdown();
        for w in workers {
            w.join();
        }
    }

    /// A sustained upstream outage overflows a tiny replay queue; the
    /// drops surface as rate-limited `UpQueueDropped` events alongside
    /// the counter, not one event per evicted frame.
    #[test]
    fn upqueue_overflow_is_surfaced_on_the_event_log() {
        // No dispatcher ever answers: the liveness ticker's Flush frames
        // pile into a one-slot queue and each new frame evicts the last.
        let relay = Relay::start(
            RelayConfig::new("127.0.0.1:1", "relay-drop")
                .with_liveness_flush(Duration::from_millis(5))
                .with_upqueue_limit(1),
        )
        .unwrap();
        wait_until("a drop event", || {
            relay
                .events()
                .snapshot()
                .iter()
                .any(|e| matches!(e.kind, EventKind::UpQueueDropped { .. }))
        });
        assert!(relay.metrics().upqueue_dropped_total.get() >= 1);
        let drop_events = relay
            .events()
            .snapshot()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::UpQueueDropped { .. }))
            .count();
        assert!(
            drop_events <= 2,
            "rate limit breached: {drop_events} events"
        );
    }

    /// A member dying mid-gang cancels its same-relay gang peers
    /// locally, without waiting for the dispatcher round-trip.
    #[test]
    fn member_death_cancels_same_gang_locally() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let relay = Relay::start(RelayConfig::new(d.addr().to_string(), "relay-c")).unwrap();
        let addr = relay.addr().to_string();
        let metrics = Arc::new(jets_worker::WorkerMetrics::new());
        let spawn = |name: &str| {
            let config = WorkerConfig {
                heartbeat: Some(Duration::from_millis(25)),
                ..WorkerConfig::new(&addr, name).with_metrics(Arc::clone(&metrics))
            };
            Worker::spawn(config, executor())
        };
        let w0 = spawn("cc-0");
        let w1 = spawn("cc-1");
        wait_until("registration", || d.alive_workers() == 2);
        let id = d.submit(JobSpec::mpi(
            2,
            CommandSpec::builtin("mpi-sleep", vec!["2000".into()]),
        ));
        // Both agents hold their task, so both assignments have passed
        // through the relay. (The dispatcher marks the gang busy inside
        // `submit`, before the relay has seen either frame; a member
        // killed that early has nothing in flight to fan a cancel from.)
        wait_until("gang to start", || metrics.tasks_inflight.get() == 2);
        w0.kill();
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Failed);
        wait_until("local cancel fan-out", || relay.stats().local_cancels >= 1);
        d.shutdown();
        w1.join();
        w0.join();
    }
}
