//! The PMI service on sockets: [`PmiHub`] — one [`PmiService`] behind one
//! mutex, one listener on a [`Reactor`] its owner already runs, a
//! [`ConnHandler`] per rank connection, replies through the connections'
//! [`Outbox`]es — and [`PmiServer`], the stand-alone form: a hub with one
//! job on a private one-loop reactor (`jets-mpiexec`, tests, benchmarks).
//! No thread per job or per rank on either.
//!
//! The hub's lock is [`Rank::Pmi`], taken under the dispatcher's `sched`,
//! so nothing here calls out with it held: a first fence release is
//! reported after the unlock.

use crate::service::{ConnId, Effects, PmiService, MAX_LINE};
use crate::wire::Message;
use jets_reactor::{CloseReason, ConnHandler, Flow, Outbox, Reactor, ReactorConfig};
use jets_ring::stdx::{wait_for, Mutex, Rank};
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

pub use crate::service::JobOutcome;

/// Configuration for a per-job PMI server.
#[derive(Debug, Clone)]
pub struct PmiServerConfig {
    /// Job identifier, echoed to ranks and used in diagnostics.
    pub jobid: String,
    /// Number of ranks that will connect.
    pub size: u32,
    /// How long a rank may wait inside a fence before the job is aborted.
    pub fence_timeout: Duration,
}

impl PmiServerConfig {
    /// A configuration with generous defaults for `size` ranks.
    pub fn new(jobid: impl Into<String>, size: u32) -> Self {
        PmiServerConfig {
            jobid: jobid.into(),
            size,
            fence_timeout: Duration::from_secs(60),
        }
    }
}

/// The service's replies, onto the connections' outboxes. `Outbox::send`
/// never blocks, so this runs under the hub's lock.
#[derive(Default)]
struct Wire {
    outboxes: HashMap<ConnId, Arc<Outbox>>,
    /// A reply is encoded once, however many connections it goes to.
    line: Vec<u8>,
}

impl Effects for Wire {
    fn send(&mut self, to: &[ConnId], msg: &Message) {
        self.line.clear();
        self.line.extend_from_slice(msg.encode().as_bytes());
        self.line.push(b'\n');
        for out in to.iter().filter_map(|conn| self.outboxes.get(conn)) {
            out.send(&self.line);
        }
    }

    fn close(&mut self, conn: ConnId) {
        if let Some(out) = self.outboxes.get(&conn) {
            out.close(); // graceful: the `cmd=abort` before it is flushed
        }
    }
}

/// Everything behind the hub's one lock.
#[derive(Default)]
struct Shared {
    service: PmiService,
    wire: Wire,
}

/// A manager's PMI service: any number of jobs behind one address.
pub struct PmiHub {
    addr: SocketAddr,
    pmi: Mutex<Shared>,
    /// Signalled after every input; [`PmiServer::wait`] sleeps on it.
    changed: Condvar,
}

type OnRelease = dyn Fn(u64, Instant) + Send + Sync;

impl PmiHub {
    /// Bind an ephemeral port on `ip`. Nothing is served until the
    /// listener is handed to [`PmiHub::serve`].
    pub fn bind(ip: IpAddr) -> io::Result<(Arc<PmiHub>, TcpListener)> {
        let listener = TcpListener::bind((ip, 0))?;
        let hub = PmiHub {
            addr: listener.local_addr()?,
            pmi: Mutex::ranked(Rank::Pmi, Shared::default()),
            changed: Condvar::new(),
        };
        Ok((Arc::new(hub), listener))
    }

    /// Serve `listener` on `reactor`. `on_release(tag, at)` runs on an
    /// event loop, with no hub lock held, when a job's first fence
    /// releases; it must not block.
    pub fn serve(
        self: &Arc<Self>,
        reactor: &Reactor,
        listener: TcpListener,
        on_release: impl Fn(u64, Instant) + Send + Sync + 'static,
    ) -> io::Result<()> {
        let (hub, on_release) = (Arc::clone(self), Arc::new(on_release) as Arc<OnRelease>);
        let accept = move |_: &TcpStream, _| {
            let conn = RankConn {
                hub: Arc::clone(&hub),
                on_release: Arc::clone(&on_release),
                outbox: None,
            };
            Some(Box::new(conn) as Box<dyn ConnHandler>)
        };
        reactor.listen(listener, Arc::new(accept))
    }

    /// Address ranks must connect to (`PMI_ADDR`), the same for every job.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One input to the service — `open_job`, `abort_job`, `close_job`,
    /// `tick`, a read — under the lock; `f`'s replies go out on the wire.
    pub fn input<R>(&self, f: impl FnOnce(&mut PmiService, &mut dyn Effects) -> R) -> R {
        let mut shared = self.pmi.lock();
        let Shared { service, wire } = &mut *shared;
        let out = f(service, wire);
        drop(shared);
        self.changed.notify_all();
        out
    }
}

/// One rank's connection, driven by a reactor event loop: each line is one
/// input to the service. Never blocks (rule J7).
struct RankConn {
    hub: Arc<PmiHub>,
    on_release: Arc<OnRelease>,
    outbox: Option<Arc<Outbox>>,
}

impl ConnHandler for RankConn {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
        let mut shared = self.hub.pmi.lock();
        let outboxes = &mut shared.wire.outboxes;
        outboxes.insert(outbox.id(), Arc::clone(outbox));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        // Lines behind the one the service closed this connection on
        // are not inputs.
        if let Some(conn) = self.outbox.as_ref().filter(|out| !out.is_closed()) {
            let (id, now) = (conn.id(), Instant::now());
            let released = self.hub.input(|pmi, fx| pmi.on_frame(id, frame, now, fx));
            if let Some((tag, at)) = released {
                (self.on_release)(tag, at);
            }
        }
        Flow::Continue
    }

    fn on_close(&mut self, _reason: CloseReason) {
        if let Some(id) = self.outbox.take().map(|conn| conn.id()) {
            self.hub.pmi.lock().wire.outboxes.remove(&id);
            self.hub.input(|pmi, fx| pmi.on_disconnect(id, fx));
        }
    }
}

/// A running PMI server for a single MPI job: a [`PmiHub`] with that one
/// job open, on a private one-loop reactor that lives as long as this does.
pub struct PmiServer {
    hub: Arc<PmiHub>,
    jobid: String,
    _reactor: Reactor,
}

impl PmiServer {
    /// Bind a listener on an ephemeral localhost port and start serving.
    pub fn start(config: PmiServerConfig) -> io::Result<PmiServer> {
        assert!(config.size > 0, "PMI job must have at least one rank");
        let (hub, listener) = PmiHub::bind(IpAddr::V4(Ipv4Addr::LOCALHOST))?;
        let reactor = Reactor::start(ReactorConfig {
            event_loops: 1,
            max_frame: MAX_LINE,
            thread_name: "pmi".to_string(),
            thread_stack: 128 * 1024,
            ..ReactorConfig::default()
        })?;
        hub.serve(&reactor, listener, |_, _| {})?;
        hub.input(|pmi, _| pmi.open_job(&config.jobid, 0, config.size, config.fence_timeout));
        Ok(PmiServer {
            hub,
            jobid: config.jobid,
            _reactor: reactor,
        })
    }

    /// Address ranks must connect to (`PMI_ADDR`).
    pub fn addr(&self) -> SocketAddr {
        self.hub.addr()
    }

    /// Abort the job from the manager side (e.g. the scheduler noticed a
    /// worker died before its proxy connected).
    pub fn abort(&self, reason: &str) {
        self.hub
            .input(|pmi, fx| pmi.abort_job(&self.jobid, reason, fx));
    }

    /// Block until the job completes, aborts, or `timeout` passes. Fence
    /// time-outs are enforced from here, waking at each deadline: a
    /// stand-alone server has no other clock.
    pub fn wait(&self, timeout: Duration) -> JobOutcome {
        let give_up = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            self.hub.input(|pmi, fx| pmi.tick(now, fx));
            let shared = self.hub.pmi.lock();
            if let Some(outcome) = shared.service.outcome(&self.jobid) {
                return outcome.clone();
            }
            if now >= give_up {
                return JobOutcome::TimedOut;
            }
            let next = shared.service.next_deadline();
            let wake = next.map_or(give_up, |deadline| deadline.min(give_up));
            drop(wait_for(&self.hub.changed, shared, wake - now));
        }
    }

    /// Outcome if the job already finished, without blocking.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.hub.input(|pmi, _| pmi.outcome(&self.jobid).cloned())
    }

    /// When the job's first fence released — the end of PMI negotiation
    /// (every rank connected, exchanged cards, and hit the barrier).
    /// `None` while negotiation is still in flight or if the job never
    /// fences.
    pub fn first_barrier_at(&self) -> Option<Instant> {
        self.hub.input(|pmi, _| pmi.first_fence(&self.jobid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PmiClient;
    use std::thread;

    const WAIT: Duration = Duration::from_secs(20);

    /// No clock, lock, atomic, thread or socket in the PMI service.
    #[test]
    fn the_service_is_pure() {
        jets_ring::stdx::assert_pure(include_str!("service.rs"), &["Atomic", "TcpStream"]);
    }

    fn run_ranks(size: u32, f: impl Fn(PmiClient) + Send + Sync + 'static) -> JobOutcome {
        let server = PmiServer::start(PmiServerConfig::new("t", size)).unwrap();
        let addr = server.addr();
        let f = Arc::new(f);
        let mut handles = Vec::new();
        for rank in 0..size {
            let f = Arc::clone(&f);
            handles.push(thread::spawn(move || {
                let client = PmiClient::connect(&addr.to_string(), rank, size, "t").unwrap();
                f(client);
            }));
        }
        let outcome = server.wait(WAIT);
        for h in handles {
            h.join().unwrap();
        }
        outcome
    }

    #[test]
    fn single_rank_job_succeeds() {
        let outcome = run_ranks(1, |mut c| {
            c.put("bc.0", "here").unwrap();
            c.fence().unwrap();
            assert_eq!(c.get("bc.0").unwrap().as_deref(), Some("here"));
            c.finalize().unwrap();
        });
        assert_eq!(outcome, JobOutcome::Success);
    }

    #[test]
    fn four_ranks_exchange_business_cards() {
        let outcome = run_ranks(4, |mut c| {
            let me = format!("card-for-{}", c.rank());
            c.put(&format!("bc.{}", c.rank()), &me).unwrap();
            c.fence().unwrap();
            for peer in 0..4 {
                let card = c.get(&format!("bc.{peer}")).unwrap();
                assert_eq!(card.as_deref(), Some(&*format!("card-for-{peer}")));
            }
            c.finalize().unwrap();
        });
        assert_eq!(outcome, JobOutcome::Success);
    }

    #[test]
    fn get_of_missing_key_returns_none() {
        let outcome = run_ranks(1, |mut c| {
            assert_eq!(c.get("nope").unwrap(), None);
            c.finalize().unwrap();
        });
        assert_eq!(outcome, JobOutcome::Success);
    }

    #[test]
    fn early_disconnect_aborts_job() {
        let server = PmiServer::start(PmiServerConfig::new("t", 2)).unwrap();
        let addr = server.addr();
        // Rank 0 connects and vanishes without finalize.
        let h = thread::spawn(move || {
            let c = PmiClient::connect(&addr.to_string(), 0, 2, "t").unwrap();
            drop(c);
        });
        h.join().unwrap();
        match server.wait(WAIT) {
            JobOutcome::Aborted(reason) => {
                assert!(reason.contains("disconnected"), "reason: {reason}")
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn size_mismatch_aborts_job() {
        let server = PmiServer::start(PmiServerConfig::new("t", 2)).unwrap();
        let addr = server.addr();
        let err = PmiClient::connect(&addr.to_string(), 0, 3, "t");
        // Either the connect fails outright or the job records an abort.
        if err.is_ok() {
            assert!(matches!(server.wait(WAIT), JobOutcome::Aborted(_)));
        }
    }

    #[test]
    fn manager_side_abort_is_observable() {
        let server = PmiServer::start(PmiServerConfig::new("t", 8)).unwrap();
        server.abort("scheduler killed the job");
        match server.wait(WAIT) {
            JobOutcome::Aborted(r) => assert!(r.contains("scheduler")),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn wait_times_out_when_no_rank_connects() {
        let server = PmiServer::start(PmiServerConfig::new("t", 1)).unwrap();
        assert_eq!(server.wait(Duration::from_millis(30)), JobOutcome::TimedOut);
    }
}
