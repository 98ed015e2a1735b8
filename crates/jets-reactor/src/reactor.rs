//! The event loop: connection state machines and timers.
//!
//! A [`Reactor`] is one event-loop thread, however many connections it
//! serves. The loop owns its connections and its timers; what other
//! threads reach — the [`Poller`], the inbox, id allocation and the
//! counters — is one shared struct. Connections are nonblocking
//! state machines: reads reassemble newline-delimited frames across
//! wakeups and hand each complete frame to the connection's
//! [`ConnHandler`]; writes drain the connection's bounded [`Outbox`],
//! arming write interest only while bytes remain (the `WOULDBLOCK` re-arm
//! protocol). A dialed connection ([`Reactor::connect`]) waits for its
//! first readiness event before its handler is opened.
//!
//! Cross-thread interaction is funnelled through the loop's inbox: a
//! short mutex push plus a [`Poller::wake`]. Registrations, posted
//! closures and timers travel that way, in order, and so do kicks.
//! `Outbox::send` therefore never blocks. Work the loop raises itself
//! while it dispatches (a handler's send, a timer's post) skips the
//! wake: a reply leaves as soon as the readiness event that produced it
//! is handled, before the next ready connection's turn, so a reply from
//! `on_frame` costs no extra wakeup and does not wait for the rest of
//! the iteration — a loop and its peers overlap instead of taking
//! turns. Frames that one event produces together still leave in one
//! `write`. The loop sleeps until its next timer is due. Handlers, posts
//! and timers run on the loop thread and must not block — jets-lint
//! rule J7 enforces that textually.

use crate::outbox::{CloseReason, Outbox};
use crate::poller::{Event, Interest, Poller};
use crate::{lock, sys};
use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

thread_local! {
    /// The loop whose events this thread is dispatching right now, i.e.
    /// the loop that will drain its inbox before it next sleeps; null
    /// on every other thread and while the kick list is flushed.
    static DISPATCHING: Cell<*const LoopShared> = const { Cell::new(std::ptr::null()) };
    /// A handler of the dispatching loop kicked one of its outboxes:
    /// the loop flushes before it handles the next event.
    static KICKED: Cell<bool> = const { Cell::new(false) };
    /// The loop this thread runs, for the thread's whole life: what a
    /// [`LoopCell`] lets in and what [`LoopCell::call`] refuses to block.
    static CURRENT: Cell<*const LoopShared> = const { Cell::new(std::ptr::null()) };
}

/// What a handler wants done with its connection after a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Keep the connection open.
    Continue,
    /// Tear the connection down ([`CloseReason::Handler`]).
    Close,
}

/// Per-connection protocol logic, driven by the owning event loop.
///
/// All three callbacks run on the loop thread. They must never block:
/// no channel `recv`, no sleeps, no blocking socket I/O — queue
/// outbound frames on an [`Outbox`] instead (rule J7).
pub trait ConnHandler: Send {
    /// Called once when the connection is registered with its loop (a
    /// dialed one: once its connect has gone through).
    fn on_open(&mut self, outbox: &Arc<Outbox>);
    /// Called for every complete incoming frame (newline stripped).
    fn on_frame(&mut self, frame: &[u8]) -> Flow;
    /// Called exactly once when the connection is torn down, or when a
    /// dialed one never opened ([`CloseReason::ConnectFailed`]).
    fn on_close(&mut self, reason: CloseReason);
}

/// Factory invoked for every accepted connection. Returning `None`
/// sheds the connection (it is dropped without registration). The
/// `&TcpStream` lets factories `try_clone` a raw handle (e.g. for
/// out-of-band kill switches) before the reactor takes ownership.
pub type AcceptFn = dyn Fn(&TcpStream, SocketAddr) -> Option<Box<dyn ConnHandler>> + Send + Sync;

/// Monotonic reactor counters, shared with observability bridges.
#[derive(Default)]
pub struct ReactorStats {
    pub(crate) connections_registered: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) wakeups: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) outbox_hwm: AtomicU64,
    pub(crate) slow_consumer_disconnects: AtomicU64,
}

impl ReactorStats {
    /// Connections ever registered on a loop.
    pub fn connections_registered(&self) -> u64 {
        self.connections_registered.load(Ordering::Relaxed)
    }

    /// Connections torn down.
    pub fn connections_closed(&self) -> u64 {
        self.connections_closed.load(Ordering::Relaxed)
    }

    /// Currently open connections (registered − closed).
    pub fn connections_open(&self) -> u64 {
        self.connections_registered()
            .saturating_sub(self.connections_closed())
    }

    /// Event-loop wait returns.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Complete frames delivered to handlers.
    pub fn frames_in(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    /// Bytes read off sockets.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Bytes written to sockets.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// High-water mark of any single connection's outbox, in bytes.
    pub fn outbox_high_water(&self) -> u64 {
        self.outbox_hwm.load(Ordering::Relaxed)
    }

    /// Connections dropped because their bounded outbox overflowed.
    pub fn slow_consumer_disconnects(&self) -> u64 {
        self.slow_consumer_disconnects.load(Ordering::Relaxed)
    }
}

/// Reactor sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Event-loop threads: must be 1, the one loop a reactor runs
    /// ([`Reactor::start`] refuses any other count). Left only because
    /// the benchmark's echo floor sets it.
    pub event_loops: usize,
    /// Bounded per-connection outbox capacity in bytes; overflow
    /// disconnects the slow consumer.
    pub outbox_limit: usize,
    /// Maximum bytes buffered for a single incoming frame before the
    /// connection is dropped as oversize.
    pub max_frame: usize,
    /// Event-loop thread name prefix.
    pub thread_name: String,
    /// Event-loop thread stack size.
    pub thread_stack: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            event_loops: 1,
            outbox_limit: 16 << 20,
            max_frame: 16 << 20,
            thread_name: "jets-reactor".to_string(),
            thread_stack: 256 * 1024,
        }
    }
}

#[derive(Default)]
pub(crate) struct LoopInbox {
    new: Vec<Injected>,
    kicks: Vec<u64>,
    /// The loop has ended: nothing injected now would ever run.
    closed: bool,
}

/// The cross-thread face of the event loop: its poller, the inbox other
/// threads push work through, id allocation, counters and policy.
pub(crate) struct LoopShared {
    poller: Poller,
    inbox: Mutex<LoopInbox>,
    next_id: AtomicU64,
    pub(crate) stats: Arc<ReactorStats>,
    shutdown: AtomicBool,
    max_frame: usize,
    pub(crate) outbox_limit: usize,
}

impl LoopShared {
    /// Ask the loop to revisit connection `id` (flush or teardown).
    pub(crate) fn kick(&self, id: u64) {
        lock(&self.inbox).kicks.push(id);
        // Raised by this loop's own handler mid-dispatch: the flush after
        // the current event picks it up, no wakeup needed.
        if self.dispatching() {
            KICKED.with(|k| k.set(true));
        } else {
            self.poller.wake();
        }
    }

    fn inject(&self, inj: Injected) -> io::Result<()> {
        let mut inbox = lock(&self.inbox);
        if inbox.closed {
            drop(inbox); // and `inj`, after it
            return Err(io::ErrorKind::NotConnected.into());
        }
        inbox.new.push(inj);
        drop(inbox);
        // Raised by this loop mid-dispatch: the drain ahead runs it.
        if !self.dispatching() {
            self.poller.wake();
        }
        Ok(())
    }

    fn dispatching(&self) -> bool {
        DISPATCHING.with(|d| std::ptr::eq(d.get(), self))
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn register(
        self: &Arc<Self>,
        sock: Sock,
        handler: Box<dyn ConnHandler>,
    ) -> io::Result<Arc<Outbox>> {
        let id = self.next_id();
        let outbox = Outbox::new(id, Arc::clone(self));
        self.inject(Injected::Conn {
            id,
            sock,
            handler,
            outbox: outbox.clone(),
        })?;
        Ok(outbox)
    }
}

/// A value only its event loop touches: the state a loop owns, with no
/// lock around it. [`LoopCell::with`] panics, in every build, on any
/// other thread and when re-entered. Other threads reach the value
/// through [`LoopCell::call`] (or a [`Reactor::post`]); made by
/// [`Reactor::own`], so the value can be built (and, say, restored from
/// disk) on the constructing thread first.
pub struct LoopCell<T> {
    home: Arc<LoopShared>,
    busy: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: `value` and `busy` are reached only through `with`, which first
// checks that this thread runs `home`'s loop. One thread runs a loop, so
// they are never touched from two threads, and `busy` refuses a nested
// `with`, so at most one `&mut T` is live. `home` is only compared and
// injected into, which its own lock guards. `T: Send`, because the cell
// is built on one thread and used, and perhaps dropped, on another.
unsafe impl<T: Send> Sync for LoopCell<T> {}

impl<T> LoopCell<T> {
    fn on_home(&self) -> bool {
        CURRENT.with(|c| std::ptr::eq(c.get(), Arc::as_ptr(&self.home)))
    }

    /// Run `f` on the value. Panics unless called on the cell's event
    /// loop, outside any other `with` of this cell.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        assert!(self.on_home(), "a LoopCell was touched off its event loop");
        assert!(!self.busy.replace(true), "a LoopCell was re-entered");
        // SAFETY: see the `Sync` impl.
        let out = f(unsafe { &mut *self.value.get() });
        self.busy.set(false);
        out
    }

    /// Post `f` to the cell's loop, behind everything posted there
    /// before it, and wait for what it returns on the value: `None` if the
    /// loop has stopped, or stops before `f`'s turn. Panics on the loop's
    /// own thread, which would wait for itself.
    pub fn call<R: Send + 'static>(
        self: &Arc<Self>,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> Option<R>
    where
        T: Send + 'static,
    {
        assert!(
            !self.on_home(),
            "LoopCell::call on its own loop would wait for itself"
        );
        let (tx, rx) = mpsc::sync_channel(1);
        let cell = Arc::clone(self);
        let post = move || drop(tx.send(cell.with(f)));
        self.home.inject(Injected::Post(Box::new(post))).ok()?;
        rx.recv().ok()
    }
}

/// How a connection's socket reaches its loop.
enum Sock {
    /// Accepted: already connected.
    Open(TcpStream),
    /// To be dialed by the loop ([`Reactor::connect`]).
    Dial(SocketAddr),
}

enum Injected {
    Conn {
        id: u64,
        sock: Sock,
        handler: Box<dyn ConnHandler>,
        outbox: Arc<Outbox>,
    },
    Listener {
        id: u64,
        listener: TcpListener,
        factory: Arc<AcceptFn>,
    },
    Post(Box<dyn FnOnce() + Send>),
    Timer(Timer),
}

type TimerFn = Box<dyn FnMut() + Send>;

struct Timer {
    due: Instant,
    /// `None`: runs once.
    period: Option<Duration>,
    run: TimerFn,
}

struct Conn {
    stream: TcpStream,
    fd: RawFd,
    handler: Box<dyn ConnHandler>,
    outbox: Arc<Outbox>,
    /// Reassembly buffer for partial frames.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned for a newline.
    scanned: usize,
    /// Whether write interest is currently armed.
    want_write: bool,
    /// Dialed and not yet through: the handler is not open.
    connecting: bool,
}

enum Entry {
    Conn(Conn),
    Listener {
        listener: TcpListener,
        factory: Arc<AcceptFn>,
    },
}

/// One event loop multiplexing many connections onto one thread, which
/// also runs the posts, the timers and the dials.
pub struct Reactor {
    shared: Arc<LoopShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Reactor {
    /// Start the loop thread. `config.event_loops` must be 1: any other
    /// count is `InvalidInput`.
    pub fn start(config: ReactorConfig) -> io::Result<Reactor> {
        if config.event_loops != 1 {
            let err = "a reactor runs one event loop";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, err));
        }
        let shared = Arc::new(LoopShared {
            poller: Poller::new()?,
            inbox: Mutex::new(LoopInbox::default()),
            next_id: AtomicU64::new(0),
            stats: Arc::new(ReactorStats::default()),
            shutdown: AtomicBool::new(false),
            max_frame: config.max_frame,
            outbox_limit: config.outbox_limit,
        });
        let theirs = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name(format!("{}-0", config.thread_name))
            .stack_size(config.thread_stack)
            .spawn(move || run_loop(theirs))?;
        Ok(Reactor {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Serve accepted connections from `listener` through `factory`.
    /// The listener is made nonblocking and owned by the loop.
    pub fn listen(&self, listener: TcpListener, factory: Arc<AcceptFn>) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let id = self.shared.next_id();
        let injected = Injected::Listener {
            id,
            listener,
            factory,
        };
        self.shared.inject(injected)
    }

    /// Dial `addr` from the loop without blocking anyone. `handler` is
    /// opened once the connect goes through; if it does not, its
    /// `on_close` gets [`CloseReason::ConnectFailed`]. Frames sent on the
    /// returned outbox meanwhile leave once it is through.
    pub fn connect(
        &self,
        addr: SocketAddr,
        handler: Box<dyn ConnHandler>,
    ) -> io::Result<Arc<Outbox>> {
        self.shared.register(Sock::Dial(addr), handler)
    }

    /// Run `f` on the loop, after everything posted before it.
    pub fn post(&self, f: impl FnOnce() + Send + 'static) -> io::Result<()> {
        self.shared.inject(Injected::Post(Box::new(f)))
    }

    /// Run `f` on the loop every `period`, the first time one period from now.
    pub fn every(&self, period: Duration, f: impl FnMut() + Send + 'static) -> io::Result<()> {
        self.timer(period, Some(period), Box::new(f))
    }

    /// Run `f` once on the loop, `delay` from now.
    pub fn after(&self, delay: Duration, f: impl FnOnce() + Send + 'static) -> io::Result<()> {
        let mut f = Some(f);
        self.timer(
            delay,
            None,
            Box::new(move || f.take().into_iter().for_each(|f| f())),
        )
    }

    fn timer(&self, delay: Duration, period: Option<Duration>, run: TimerFn) -> io::Result<()> {
        let due = Instant::now() + delay;
        self.shared
            .inject(Injected::Timer(Timer { due, period, run }))
    }

    /// Hand `value` to the loop: from now on only the loop touches it.
    pub fn own<T: Send>(&self, value: T) -> LoopCell<T> {
        LoopCell {
            home: Arc::clone(&self.shared),
            busy: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Shared counters for observability bridges.
    pub fn stats(&self) -> Arc<ReactorStats> {
        self.shared.stats.clone()
    }

    /// Stop the loop and join its thread. What was already posted runs
    /// first; queued outbound bytes get one best-effort nonblocking
    /// flush; handlers do not receive `on_close` for connections torn
    /// down by shutdown.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.poller.wake();
        if let Some(thread) = lock(&self.thread).take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-loop scratch read buffer size.
const READ_CHUNK: usize = 64 << 10;

fn run_loop(shared: Arc<LoopShared>) {
    CURRENT.with(|c| c.set(Arc::as_ptr(&shared)));
    let mut lp = Loop {
        shared,
        entries: HashMap::new(),
        timers: Vec::new(),
        kicked: Vec::new(),
    };
    lp.run();
}

/// The event loop's own state, on its own thread.
struct Loop {
    shared: Arc<LoopShared>,
    entries: HashMap<u64, Entry>,
    timers: Vec<Timer>,
    /// The kick list's spare buffer: taking the list costs no allocation.
    kicked: Vec<u64>,
}

impl Loop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            let timeout_ms = self.timeout_ms();
            if self.shared.poller.wait(&mut events, timeout_ms).is_err() {
                return;
            }
            self.shared.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            DISPATCHING.with(|d| d.set(Arc::as_ptr(&self.shared)));
            for ev in events.iter().copied() {
                self.ready(ev, &mut chunk);
                // Replies leave with the event that produced them.
                if KICKED.with(|k| k.replace(false)) {
                    self.flush_kicked();
                }
            }
            self.run_timers();
            self.drain_inbox();
            // From here on a kick must wake the poller again: one raised
            // while the kick list is flushed (an `on_close` sending to a
            // sibling) lands after the flush took its snapshot.
            DISPATCHING.with(|d| d.set(std::ptr::null()));
            KICKED.with(|k| k.set(false));
            self.flush_kicked();
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
        }
    }

    /// How long the loop may sleep: until its next timer is due, rounded
    /// up to the millisecond so that no timer runs early; −1 without one.
    fn timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let due = self
            .timers
            .iter()
            .map(|t| t.due.saturating_duration_since(now));
        let ms = due.map(|left| left.as_micros().div_ceil(1000)).min();
        ms.map_or(-1, |ms| ms.min(i32::MAX as u128) as i32)
    }

    /// Run every timer that is due; a periodic one is next due a period
    /// after this run.
    fn run_timers(&mut self) {
        let now = Instant::now();
        self.timers.retain_mut(|t| {
            if t.due > now {
                return true;
            }
            (t.run)();
            t.period.inspect(|&period| t.due = now + period).is_some()
        });
    }

    /// One readiness event on a connection or a listener.
    fn ready(&mut self, ev: Event, chunk: &mut [u8]) {
        match self.entries.get_mut(&ev.token) {
            Some(Entry::Conn(conn)) if conn.connecting => self.connected(ev.token),
            Some(Entry::Conn(conn)) => {
                if ev.readable {
                    if let Err(reason) = pump_frames(conn, chunk, &self.shared) {
                        return self.teardown(ev.token, reason);
                    }
                }
                if ev.writable {
                    self.flush(ev.token);
                }
            }
            Some(Entry::Listener { .. }) if ev.readable => self.accept(ev.token),
            _ => {}
        }
    }

    /// Run what was injected, in order, until nothing new is left: what a
    /// post or a registration injects runs in the same drain.
    fn drain_inbox(&mut self) {
        loop {
            let new = std::mem::take(&mut lock(&self.shared.inbox).new);
            if new.is_empty() {
                return;
            }
            for inj in new {
                match inj {
                    Injected::Conn {
                        id,
                        sock,
                        handler,
                        outbox,
                    } => self.open(id, sock, handler, outbox),
                    Injected::Listener {
                        id,
                        listener,
                        factory,
                    } => {
                        if self
                            .shared
                            .poller
                            .add(listener.as_raw_fd(), id, Interest::READ)
                            .is_ok()
                        {
                            self.entries
                                .insert(id, Entry::Listener { listener, factory });
                            // Connections may have queued while
                            // registration was in flight.
                            self.accept(id);
                        }
                    }
                    Injected::Post(f) => f(),
                    Injected::Timer(timer) => self.timers.push(timer),
                }
            }
        }
    }

    /// Register a connection with this loop: an accepted one is opened at
    /// once, a dialed one when its connect goes through.
    fn open(
        &mut self,
        id: u64,
        sock: Sock,
        mut handler: Box<dyn ConnHandler>,
        outbox: Arc<Outbox>,
    ) {
        let stats = &self.shared.stats;
        stats.connections_registered.fetch_add(1, Ordering::Relaxed);
        let (stream, connecting, failed) = match sock {
            Sock::Open(stream) => (Ok(stream), false, CloseReason::ReadError),
            Sock::Dial(addr) => (sys::dial(addr), true, CloseReason::ConnectFailed),
        };
        let interest = match connecting {
            true => Interest::READ_WRITE,
            false => Interest::READ,
        };
        let poller = &self.shared.poller;
        let registered = stream.and_then(|stream| {
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), id, interest)?;
            Ok(stream)
        });
        let Ok(stream) = registered else {
            outbox.mark_closed(failed);
            stats.connections_closed.fetch_add(1, Ordering::Relaxed);
            return handler.on_close(failed);
        };
        if !connecting {
            handler.on_open(&outbox);
        }
        let conn = Conn {
            fd: stream.as_raw_fd(),
            stream,
            handler,
            outbox,
            rbuf: Vec::new(),
            scanned: 0,
            want_write: connecting,
            connecting,
        };
        self.entries.insert(id, Entry::Conn(conn));
        // on_open may have queued frames already.
        self.flush(id);
    }

    /// A dialed connection's first readiness event: its connect is over,
    /// one way or the other.
    fn connected(&mut self, id: u64) {
        let Some(Entry::Conn(conn)) = self.entries.get_mut(&id) else {
            return;
        };
        if !matches!(conn.stream.take_error(), Ok(None)) || conn.stream.peer_addr().is_err() {
            return self.teardown(id, CloseReason::ConnectFailed);
        }
        conn.connecting = false;
        conn.handler.on_open(&conn.outbox);
        self.flush(id);
    }

    /// Flush every connection a kick names. The list trades buffers with
    /// `kicked`, so neither is ever freed.
    fn flush_kicked(&mut self) {
        let mut kicked = std::mem::take(&mut self.kicked);
        std::mem::swap(&mut kicked, &mut lock(&self.shared.inbox).kicks);
        for id in kicked.drain(..) {
            self.flush(id);
        }
        self.kicked = kicked;
    }

    /// Accept until the listener would block, registering each connection
    /// with the loop.
    fn accept(&self, id: u64) {
        let Some(Entry::Listener { listener, factory }) = self.entries.get(&id) else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if let Some(handler) = factory(&stream, peer) {
                        // Shed silently if the reactor is shutting down.
                        let _ = self.shared.register(Sock::Open(stream), handler);
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, ECONNABORTED): stop
                // this round; the listener stays registered.
                Err(_) => return,
            }
        }
    }

    /// Flush a connection's outbox, then re-arm interest or tear down.
    fn flush(&mut self, id: u64) {
        let Some(Entry::Conn(conn)) = self.entries.get_mut(&id) else {
            return;
        };
        let want_write = match flush_outbox(conn, &self.shared) {
            FlushResult::Idle => false,
            FlushResult::Arm => true,
            FlushResult::Close(reason) => return self.teardown(id, reason),
        };
        if conn.want_write != want_write {
            conn.want_write = want_write;
            let interest = match want_write {
                true => Interest::READ_WRITE,
                false => Interest::READ,
            };
            if self.shared.poller.modify(conn.fd, id, interest).is_err() {
                self.teardown(id, CloseReason::WriteError);
            }
        }
    }

    /// Remove a connection, deregister its fd, and fire `on_close` once.
    fn teardown(&mut self, id: u64, reason: CloseReason) {
        if let Some(Entry::Conn(mut conn)) = self.entries.remove(&id) {
            let _ = self.shared.poller.remove(conn.fd);
            conn.outbox.mark_closed(reason);
            let closed = &self.shared.stats.connections_closed;
            closed.fetch_add(1, Ordering::Relaxed);
            conn.handler.on_close(reason);
        }
    }
}

impl Drop for Loop {
    /// However the loop ended: flush what the kernel will take without
    /// waiting, mark every outbox closed so senders fail fast, and drop
    /// the entries without per-connection `on_close` callbacks. Then close
    /// the inbox: what is still queued is dropped, so a [`LoopCell::call`]
    /// waiting on it returns.
    fn drop(&mut self) {
        for (_, entry) in self.entries.drain() {
            if let Entry::Conn(mut conn) = entry {
                flush_outbox(&mut conn, &self.shared);
                conn.outbox.mark_closed(CloseReason::Closed);
            }
        }
        let new = {
            let mut inbox = lock(&self.shared.inbox);
            inbox.closed = true;
            inbox.kicks.clear();
            std::mem::take(&mut inbox.new)
        };
        for inj in new {
            if let Injected::Conn { outbox, .. } = inj {
                outbox.mark_closed(CloseReason::Closed);
            }
        }
    }
}

/// One `read`, then deliver every frame it completed. One read per
/// readiness event is enough because the poller is level-triggered:
/// bytes still in the socket are reported again by the next wait — after
/// every other ready connection has had its turn, so a peer that writes
/// as fast as the loop reads cannot starve its siblings — and a drained
/// socket is not read a second time just to be told `EAGAIN`.
fn pump_frames(conn: &mut Conn, chunk: &mut [u8], shared: &LoopShared) -> Result<(), CloseReason> {
    let n = loop {
        match (&conn.stream).read(chunk) {
            Ok(0) => return Err(CloseReason::PeerClosed),
            Ok(n) => break n,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(CloseReason::ReadError),
        }
    };
    shared.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
    conn.rbuf.extend_from_slice(&chunk[..n]);
    let mut consumed = 0;
    while let Some(off) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
        let nl = conn.scanned + off;
        shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
        let flow = conn.handler.on_frame(&conn.rbuf[consumed..nl]);
        consumed = nl + 1;
        conn.scanned = consumed;
        if flow == Flow::Close {
            return Err(CloseReason::Handler);
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
    conn.scanned = conn.rbuf.len();
    if conn.rbuf.len() > shared.max_frame {
        return Err(CloseReason::Oversize);
    }
    Ok(())
}

enum FlushResult {
    /// Outbox drained; write interest can be disarmed.
    Idle,
    /// Socket would block with bytes left; write interest must be armed.
    Arm,
    /// Connection must be torn down.
    Close(CloseReason),
}

/// Drain the outbox into the socket without blocking.
fn flush_outbox(conn: &mut Conn, shared: &LoopShared) -> FlushResult {
    let mut q = lock(&conn.outbox.q);
    if let Some(reason) = q.closed {
        // Graceful close still flushes; every other reason is immediate.
        if reason != CloseReason::Closed {
            return FlushResult::Close(reason);
        }
    }
    if conn.connecting {
        return FlushResult::Arm;
    }
    while !q.buf.is_empty() {
        let n = {
            let (front, _) = q.buf.as_slices();
            match (&conn.stream).write(front) {
                Ok(0) => return FlushResult::Close(CloseReason::WriteError),
                Ok(n) => n,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return FlushResult::Arm,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushResult::Close(CloseReason::WriteError),
            }
        };
        q.buf.drain(..n);
        shared
            .stats
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
    }
    if q.closed == Some(CloseReason::Closed) {
        FlushResult::Close(CloseReason::Closed)
    } else {
        FlushResult::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    /// Shared recording surface the test handlers write into.
    #[derive(Default)]
    struct Probe {
        frames: Mutex<Vec<Vec<u8>>>,
        closes: Mutex<Vec<CloseReason>>,
        outboxes: Mutex<Vec<Arc<Outbox>>>,
        /// `WitnessConn`'s notes: (wakeups so far, bytes the other
        /// connections had queued) per frame.
        witnessed: Mutex<Vec<(u64, usize)>>,
    }

    impl Probe {
        fn frames(&self) -> Vec<Vec<u8>> {
            lock(&self.frames).clone()
        }
        fn closes(&self) -> Vec<CloseReason> {
            lock(&self.closes).clone()
        }
        fn outbox(&self) -> Option<Arc<Outbox>> {
            lock(&self.outboxes).first().cloned()
        }
    }

    struct ProbeConn {
        probe: Arc<Probe>,
        greeting: Vec<Vec<u8>>,
        close_after: Option<usize>,
        seen: usize,
    }

    impl ConnHandler for ProbeConn {
        fn on_open(&mut self, outbox: &Arc<Outbox>) {
            lock(&self.probe.outboxes).push(outbox.clone());
            for frame in &self.greeting {
                outbox.send(frame);
            }
        }

        fn on_frame(&mut self, frame: &[u8]) -> Flow {
            lock(&self.probe.frames).push(frame.to_vec());
            self.seen += 1;
            if self.close_after == Some(self.seen) {
                Flow::Close
            } else {
                Flow::Continue
            }
        }

        fn on_close(&mut self, reason: CloseReason) {
            lock(&self.probe.closes).push(reason);
        }
    }

    fn start_probe(
        config: ReactorConfig,
        greeting: Vec<Vec<u8>>,
        close_after: Option<usize>,
    ) -> (Reactor, Arc<Probe>, SocketAddr) {
        let reactor = Reactor::start(config).unwrap();
        let probe = Arc::new(Probe::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let p = probe.clone();
        reactor
            .listen(
                listener,
                Arc::new(move |_stream, _peer| {
                    Some(Box::new(ProbeConn {
                        probe: p.clone(),
                        greeting: greeting.clone(),
                        close_after,
                        seen: 0,
                    }) as Box<dyn ConnHandler>)
                }),
            )
            .unwrap();
        (reactor, probe, addr)
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn reassembles_partial_frames_across_wakeups() {
        let (reactor, probe, addr) = start_probe(ReactorConfig::default(), vec![], None);
        let mut client = TcpStream::connect(addr).unwrap();
        // Split two frames across three writes with pauses so each
        // lands in a separate readiness wakeup.
        client.write_all(b"hel").unwrap();
        thread::sleep(Duration::from_millis(30));
        client.write_all(b"lo\nwor").unwrap();
        thread::sleep(Duration::from_millis(30));
        client.write_all(b"ld\n").unwrap();
        wait_until("two frames", || probe.frames().len() == 2);
        assert_eq!(probe.frames(), vec![b"hello".to_vec(), b"world".to_vec()]);
        assert_eq!(reactor.stats().frames_in(), 2);
        assert!(probe.closes().is_empty());
    }

    #[test]
    fn write_backpressure_rearms_and_drains() {
        // One 4 MiB greeting: far beyond any loopback socket buffer,
        // so the first flush hits WOULDBLOCK and the drain must ride
        // writable wakeups.
        let mut frame = vec![b'x'; 4 << 20];
        frame.push(b'\n');
        let total = frame.len();
        let (reactor, probe, addr) = start_probe(ReactorConfig::default(), vec![frame], None);
        let mut client = TcpStream::connect(addr).unwrap();
        // Let the outbox fill and write interest arm before reading.
        wait_until("outbox queues bytes", || {
            probe.outbox().map(|o| o.queued() > 0).unwrap_or(false)
        });
        let mut got = Vec::with_capacity(total);
        let mut buf = vec![0u8; 64 << 10];
        while got.len() < total {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed after {} bytes", got.len());
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got.len(), total);
        assert_eq!(got[total - 1], b'\n');
        assert!(got[..total - 1].iter().all(|&b| b == b'x'));
        wait_until("outbox drains", || {
            probe.outbox().map(|o| o.queued() == 0).unwrap_or(false)
        });
        assert!(reactor.stats().bytes_out() >= total as u64);
        assert!(reactor.stats().outbox_high_water() > 0);
    }

    #[test]
    fn slow_consumer_overflow_disconnects() {
        let config = ReactorConfig {
            outbox_limit: 16 << 10,
            ..ReactorConfig::default()
        };
        let (reactor, probe, addr) = start_probe(config, vec![], None);
        let client = TcpStream::connect(addr).unwrap();
        wait_until("registration", || probe.outbox().is_some());
        let outbox = probe.outbox().unwrap();
        // Never read on the client: the socket buffer fills, then the
        // bounded outbox overflows and send reports the disconnect.
        let mut frame = vec![b'y'; 1023];
        frame.push(b'\n');
        let mut overflowed = false;
        for _ in 0..1_000_000 {
            if !outbox.send(&frame) {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "bounded outbox never overflowed");
        wait_until("slow-consumer close", || {
            probe.closes() == vec![CloseReason::SlowConsumer]
        });
        assert_eq!(reactor.stats().slow_consumer_disconnects(), 1);
        assert!(!outbox.send(&frame), "send after disconnect must fail");
        drop(client);
    }

    #[test]
    fn peer_close_mid_frame_reports_peer_closed() {
        let (_reactor, probe, addr) = start_probe(ReactorConfig::default(), vec![], None);
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"incomplete frame without newline")
            .unwrap();
        drop(client);
        wait_until("peer close", || !probe.closes().is_empty());
        assert_eq!(probe.closes(), vec![CloseReason::PeerClosed]);
        // The partial frame must not have been delivered.
        assert!(probe.frames().is_empty());
    }

    #[test]
    fn handler_flow_close_tears_down() {
        let (_reactor, probe, addr) = start_probe(ReactorConfig::default(), vec![], Some(1));
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"bye\n").unwrap();
        wait_until("handler close", || !probe.closes().is_empty());
        assert_eq!(probe.closes(), vec![CloseReason::Handler]);
        let mut buf = [0u8; 16];
        // The reactor side closed: reads drain to EOF.
        loop {
            match client.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(err) => panic!("expected EOF, got {err}"),
            }
        }
    }

    #[test]
    fn oversize_frame_disconnects() {
        let config = ReactorConfig {
            max_frame: 1024,
            ..ReactorConfig::default()
        };
        let (_reactor, probe, addr) = start_probe(config, vec![], None);
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&vec![b'z'; 4096]).unwrap();
        wait_until("oversize close", || !probe.closes().is_empty());
        assert_eq!(probe.closes(), vec![CloseReason::Oversize]);
    }

    #[test]
    fn graceful_close_flushes_queued_bytes_first() {
        let (_reactor, probe, addr) = start_probe(ReactorConfig::default(), vec![], None);
        let mut client = TcpStream::connect(addr).unwrap();
        wait_until("registration", || probe.outbox().is_some());
        let outbox = probe.outbox().unwrap();
        assert!(outbox.send(b"farewell\n"));
        outbox.close();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"farewell\n");
        wait_until("graceful close", || !probe.closes().is_empty());
        assert_eq!(probe.closes(), vec![CloseReason::Closed]);
    }

    /// Echoes every frame from `on_frame`; on close, tells every other
    /// connection it knows about.
    struct EchoConn {
        probe: Arc<Probe>,
        outbox: Option<Arc<Outbox>>,
    }

    impl ConnHandler for EchoConn {
        fn on_open(&mut self, outbox: &Arc<Outbox>) {
            lock(&self.probe.outboxes).push(outbox.clone());
            self.outbox = Some(outbox.clone());
        }

        fn on_frame(&mut self, frame: &[u8]) -> Flow {
            let mut reply = frame.to_vec();
            reply.push(b'\n');
            if let Some(outbox) = &self.outbox {
                outbox.send(&reply);
            }
            Flow::Continue
        }

        fn on_close(&mut self, _reason: CloseReason) {
            for other in lock(&self.probe.outboxes).iter() {
                if !self
                    .outbox
                    .as_ref()
                    .is_some_and(|me| Arc::ptr_eq(me, other))
                {
                    other.send(b"gone\n");
                }
            }
        }
    }

    /// Echoes like `EchoConn`, but first notes the loop's wakeup count
    /// and how many bytes every other connection still has queued. A
    /// `stall` frame holds the loop up, so that frames sent meanwhile
    /// are all ready at its next wait.
    struct WitnessConn {
        probe: Arc<Probe>,
        stats: Arc<ReactorStats>,
        outbox: Option<Arc<Outbox>>,
    }

    impl ConnHandler for WitnessConn {
        fn on_open(&mut self, outbox: &Arc<Outbox>) {
            lock(&self.probe.outboxes).push(outbox.clone());
            self.outbox = Some(outbox.clone());
        }

        fn on_frame(&mut self, frame: &[u8]) -> Flow {
            if frame == b"stall" {
                thread::sleep(Duration::from_millis(100));
                return Flow::Continue;
            }
            let Some(me) = &self.outbox else {
                return Flow::Close;
            };
            let others = lock(&self.probe.outboxes)
                .iter()
                .filter(|other| !Arc::ptr_eq(me, other))
                .map(|other| other.queued())
                .sum();
            lock(&self.probe.witnessed).push((self.stats.wakeups(), others));
            me.send(&[frame, b"\n"].concat());
            Flow::Continue
        }

        fn on_close(&mut self, _reason: CloseReason) {}
    }

    /// One event loop serving the handlers `make` builds, so every
    /// connection is a sibling on the same loop.
    fn start_one_loop(
        make: impl Fn(Arc<Probe>, Arc<ReactorStats>) -> Box<dyn ConnHandler> + Send + Sync + 'static,
    ) -> (Reactor, Arc<Probe>, SocketAddr) {
        let reactor = Reactor::start(ReactorConfig {
            event_loops: 1,
            ..ReactorConfig::default()
        })
        .unwrap();
        let probe = Arc::new(Probe::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (p, stats) = (probe.clone(), reactor.stats());
        reactor
            .listen(
                listener,
                Arc::new(move |_stream, _peer| Some(make(p.clone(), stats.clone()))),
            )
            .unwrap();
        (reactor, probe, addr)
    }

    fn start_echo() -> (Reactor, Arc<Probe>, SocketAddr) {
        start_one_loop(|probe, _| {
            Box::new(EchoConn {
                probe,
                outbox: None,
            })
        })
    }

    /// Connect and wait until the loop has registered the connection.
    fn echo_client(addr: SocketAddr, probe: &Probe, nth: usize) -> TcpStream {
        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        wait_until("registration", || lock(&probe.outboxes).len() == nth);
        client
    }

    fn read_line(client: &mut TcpStream) -> Vec<u8> {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while client.read(&mut byte).expect("reply before the timeout") == 1 {
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        line
    }

    /// A reply queued from `on_frame` is flushed by the iteration that
    /// delivered the frame: one wakeup per round trip, not one for the
    /// frame plus one for the loop kicking itself.
    #[test]
    fn reply_from_on_frame_costs_no_extra_wakeup() {
        const ROUNDS: u64 = 200;
        let (reactor, probe, addr) = start_echo();
        let mut client = echo_client(addr, &probe, 1);
        client.write_all(b"warm\n").unwrap();
        assert_eq!(read_line(&mut client), b"warm");
        let before = reactor.stats().wakeups();
        for i in 0..ROUNDS {
            client.write_all(format!("ping {i}\n").as_bytes()).unwrap();
            assert_eq!(read_line(&mut client), format!("ping {i}").as_bytes());
        }
        let wakeups = reactor.stats().wakeups() - before;
        assert!(
            wakeups <= ROUNDS,
            "{wakeups} wakeups for {ROUNDS} round trips"
        );
        assert_eq!(reactor.stats().frames_in(), ROUNDS + 1);
    }

    /// Replies leave with the event that produced them: of two
    /// connections readable in one iteration, the one handled second
    /// finds the first one's reply already written, not queued behind
    /// the rest of the iteration.
    #[test]
    fn a_reply_is_flushed_before_the_next_event_is_handled() {
        let (_reactor, probe, addr) = start_one_loop(|probe, stats| {
            let outbox = None;
            Box::new(WitnessConn {
                probe,
                stats,
                outbox,
            })
        });
        let mut staller = echo_client(addr, &probe, 1);
        let mut a = echo_client(addr, &probe, 2);
        let mut b = echo_client(addr, &probe, 3);
        let mut one_iteration = 0;
        for round in 0..10 {
            lock(&probe.witnessed).clear();
            staller.write_all(b"stall\n").unwrap();
            // Give the loop time to enter the stall.
            thread::sleep(Duration::from_millis(20));
            a.write_all(b"a\n").unwrap();
            b.write_all(b"b\n").unwrap();
            assert_eq!(read_line(&mut a), b"a");
            assert_eq!(read_line(&mut b), b"b");
            let seen = lock(&probe.witnessed).clone();
            assert_eq!(seen.len(), 2, "round {round}");
            assert!(
                seen.iter().all(|&(_, queued)| queued == 0),
                "round {round}: a sibling's reply was still queued: {seen:?}"
            );
            one_iteration += usize::from(seen[0].0 == seen[1].0);
        }
        assert!(
            one_iteration > 0,
            "the two frames never shared an iteration"
        );
    }

    /// A send from a thread that is not the loop still wakes it.
    #[test]
    fn send_from_another_thread_still_wakes_the_loop() {
        let (_reactor, probe, addr) = start_echo();
        let mut client = echo_client(addr, &probe, 1);
        // Let the loop go back to sleep after the registration.
        thread::sleep(Duration::from_millis(50));
        let outbox = probe.outbox().unwrap();
        thread::spawn(move || assert!(outbox.send(b"from afar\n")))
            .join()
            .unwrap();
        assert_eq!(read_line(&mut client), b"from afar");
    }

    /// `on_close` of one connection sends to a sibling on the same
    /// loop. Whether the teardown runs in the dispatch phase (peer
    /// hung up) or inside the inbox drain (`Outbox::close` from another
    /// thread), the sibling's frame must go out without waiting for an
    /// unrelated wakeup.
    #[test]
    fn send_from_on_close_reaches_a_sibling_on_the_same_loop() {
        let (_reactor, probe, addr) = start_echo();
        let mut watcher = echo_client(addr, &probe, 1);
        let hangs_up = echo_client(addr, &probe, 2);
        drop(hangs_up);
        assert_eq!(read_line(&mut watcher), b"gone");
        let _closed_by_us = echo_client(addr, &probe, 3);
        let closing = lock(&probe.outboxes)[2].clone();
        closing.close();
        assert_eq!(read_line(&mut watcher), b"gone");
    }

    /// 64 connections, one loop thread: the thread bill does not grow
    /// with the connection count.
    #[test]
    fn thread_count_tracks_loops_not_connections() {
        let config = ReactorConfig {
            thread_name: "conns64".to_string(),
            ..ReactorConfig::default()
        };
        let (reactor, probe, addr) = start_probe(config, vec![], None);
        let loop_threads = || {
            let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm")).ok();
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|t| comm(t.ok()?))
                .filter(|name| name.starts_with("conns64"))
                .count()
        };
        let mut clients = Vec::new();
        for _ in 0..64 {
            clients.push(TcpStream::connect(addr).unwrap());
        }
        wait_until("64 registrations", || {
            reactor.stats().connections_registered() == 64
        });
        // Every connection answers through the same one loop.
        for (i, client) in clients.iter_mut().enumerate() {
            client.write_all(format!("ping {i}\n").as_bytes()).unwrap();
        }
        wait_until("64 frames", || probe.frames().len() == 64);
        assert_eq!(reactor.stats().connections_open(), 64);
        assert_eq!(loop_threads(), 1);
    }

    #[test]
    fn a_reactor_runs_exactly_one_loop() {
        for event_loops in [0, 2] {
            let config = ReactorConfig {
                event_loops,
                ..ReactorConfig::default()
            };
            let refused = Reactor::start(config).err().map(|err| err.kind());
            assert_eq!(refused, Some(io::ErrorKind::InvalidInput));
        }
    }

    fn one_loop() -> Reactor {
        let config = ReactorConfig {
            event_loops: 1,
            ..ReactorConfig::default()
        };
        Reactor::start(config).unwrap()
    }

    #[test]
    fn a_timer_runs_on_the_loop_and_never_before_its_period() {
        const PERIOD: Duration = Duration::from_millis(30);
        let reactor = one_loop();
        let (tx, rx) = mpsc::channel();
        let cell = Arc::new(reactor.own(()));
        let loop_thread = cell.call(|_| thread::current().id()).unwrap();
        let armed = Instant::now();
        reactor
            .every(PERIOD, move || {
                let _ = tx.send((thread::current().id(), Instant::now()));
            })
            .unwrap();
        let mut last = armed;
        for n in 1..=3 {
            let (on, at) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(on, loop_thread);
            assert!(
                at - last >= PERIOD,
                "run {n} came {:?} after the last",
                at - last
            );
            last = at;
        }
    }

    #[test]
    fn posts_run_in_order_and_a_cell_is_theirs_alone() {
        let reactor = one_loop();
        let cell = Arc::new(reactor.own(Vec::new()));
        for i in 0..100 {
            let cell = Arc::clone(&cell);
            reactor.post(move || cell.with(|v| v.push(i))).unwrap();
        }
        let got = cell.call(|v| v.clone()).unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        let off_loop = std::panic::catch_unwind(AssertUnwindSafe(|| cell.with(|v| v.len())));
        assert!(off_loop.is_err(), "a LoopCell let a client thread in");
    }

    #[test]
    fn a_call_after_shutdown_returns_none() {
        let reactor = one_loop();
        let cell = Arc::new(reactor.own(7));
        assert_eq!(cell.call(|v| *v), Some(7));
        reactor.shutdown();
        assert_eq!(cell.call(|v| *v), None);
        assert!(reactor.post(|| {}).is_err());
    }

    #[test]
    fn a_call_from_the_loop_itself_panics() {
        let reactor = one_loop();
        let cell = Arc::new(reactor.own(1));
        let (tx, rx) = mpsc::channel();
        reactor
            .post(move || {
                let waited = std::panic::catch_unwind(AssertUnwindSafe(|| cell.call(|v| *v)));
                let _ = tx.send(waited.is_err());
            })
            .unwrap();
        let panicked = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(panicked, "a call on the loop thread waited for itself");
    }

    #[test]
    fn connect_to_a_refused_port_reaches_on_close() {
        let reactor = one_loop();
        let refused = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let probe = Arc::new(Probe::default());
        let conn = ProbeConn {
            probe: probe.clone(),
            greeting: vec![b"never\n".to_vec()],
            close_after: None,
            seen: 0,
        };
        let outbox = reactor.connect(refused, Box::new(conn)).unwrap();
        wait_until("the failed connect", || !probe.closes().is_empty());
        assert_eq!(probe.closes(), vec![CloseReason::ConnectFailed]);
        assert!(probe.outbox().is_none(), "a failed connect was opened");
        assert!(!outbox.send(b"late\n"));
    }

    #[test]
    fn connect_to_a_listening_port_opens_and_echoes() {
        let (_server, _, addr) = start_echo();
        let client = one_loop();
        let probe = Arc::new(Probe::default());
        let conn = ProbeConn {
            probe: probe.clone(),
            greeting: vec![b"hello\n".to_vec()],
            close_after: None,
            seen: 0,
        };
        let outbox = client.connect(addr, Box::new(conn)).unwrap();
        // Queued before the connect is through: leaves once it is.
        assert!(outbox.send(b"early\n"));
        wait_until("the echoes", || probe.frames().len() == 2);
        assert_eq!(probe.frames(), vec![b"early".to_vec(), b"hello".to_vec()]);
        assert!(probe.outbox().is_some());
        assert!(probe.closes().is_empty());
    }
}
