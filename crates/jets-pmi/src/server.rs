//! The PMI service on sockets, as the state of the event loop serving its
//! ranks: a [`PmiHost`] holds a [`PmiState`] in a [`LoopCell`], and
//! [`serve_ranks`] feeds it each line a rank sends, on that loop. No lock,
//! no thread per job or per rank. The hosts are the dispatcher's loop
//! (every gang's job, beside its core) and [`PmiServer`] (one job on a
//! private one-loop reactor: `jets-mpiexec`, tests, benchmarks).

use crate::service::{ConnId, Effects, PmiService, Released, MAX_LINE};
use crate::wire::Message;
use jets_reactor::{CloseReason, ConnHandler, Flow, LoopCell, Outbox, Reactor, ReactorConfig};
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
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
/// never blocks, so this runs on the event loop.
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

/// A manager's PMI service as its event loop's state: the [`PmiService`]
/// table of jobs, and the outboxes of the rank connections open now.
#[derive(Default)]
pub struct PmiState {
    service: PmiService,
    wire: Wire,
}

impl PmiState {
    /// One input to the service — `open_job`, `abort_job`, `close_job`,
    /// `tick`, a read — with its replies going out on the wire.
    pub fn input<R>(&mut self, f: impl FnOnce(&mut PmiService, &mut dyn Effects) -> R) -> R {
        f(&mut self.service, &mut self.wire)
    }
}

/// An event loop's state that serves ranks: its [`PmiState`], and what
/// follows each input a rank connection makes.
pub trait PmiHost: Send + 'static {
    /// The state the ranks feed.
    fn pmi(&mut self) -> &mut PmiState;
    /// Runs after each line or disconnect a rank fed the service, in the
    /// same loop turn, with the job's first fence release if that input
    /// caused it. Must not block (rule J7).
    fn after_input(&mut self, released: Released);
}

/// Serve `listener` on `reactor`: every connection accepted is a rank whose
/// lines feed `host`'s [`PmiState`]. The loop that owns `host` must be the
/// one serving the listener: a one-loop reactor's.
pub fn serve_ranks<H: PmiHost>(
    reactor: &Reactor,
    listener: TcpListener,
    host: Arc<LoopCell<H>>,
) -> io::Result<()> {
    let accept = move |_: &TcpStream, _| {
        let host = Arc::clone(&host);
        Some(Box::new(RankConn { host, outbox: None }) as Box<dyn ConnHandler>)
    };
    reactor.listen(listener, Arc::new(accept))
}

/// One rank's connection, driven by the event loop that owns its host:
/// each line is one input to the service. Never blocks (rule J7).
struct RankConn<H> {
    host: Arc<LoopCell<H>>,
    outbox: Option<Arc<Outbox>>,
}

impl<H: PmiHost> ConnHandler for RankConn<H> {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
        let (id, out) = (outbox.id(), Arc::clone(outbox));
        self.host.with(|h| h.pmi().wire.outboxes.insert(id, out));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        // Lines behind the one the service closed this connection on
        // are not inputs.
        if let Some(conn) = self.outbox.as_ref().filter(|out| !out.is_closed()) {
            let (id, now) = (conn.id(), Instant::now());
            self.host.with(|host| {
                let released = host.pmi().input(|pmi, fx| pmi.on_frame(id, frame, now, fx));
                host.after_input(released);
            });
        }
        Flow::Continue
    }

    fn on_close(&mut self, _reason: CloseReason) {
        if let Some(id) = self.outbox.take().map(|conn| conn.id()) {
            self.host.with(|host| {
                let pmi = host.pmi();
                pmi.wire.outboxes.remove(&id);
                pmi.input(|pmi, fx| pmi.on_disconnect(id, fx));
                host.after_input(None);
            });
        }
    }
}

/// The stand-alone server's loop state: its one job, and a doorbell for
/// each thread in [`PmiServer::wait`].
struct Solo {
    pmi: PmiState,
    jobid: String,
    bells: Vec<mpsc::Sender<()>>,
}

impl PmiHost for Solo {
    fn pmi(&mut self) -> &mut PmiState {
        &mut self.pmi
    }

    /// Ring every waiter: the job may have ended, or a fence may have set
    /// a deadline nearer than the one a waiter sleeps until.
    fn after_input(&mut self, _: Released) {
        self.bells.drain(..).for_each(|bell| _ = bell.send(()));
    }
}

/// A running PMI server for a single MPI job: that one job open in a
/// [`PmiState`] owned by a private one-loop reactor, which lives as long as
/// this does.
pub struct PmiServer {
    addr: SocketAddr,
    solo: Arc<LoopCell<Solo>>,
    _reactor: Reactor,
}

impl PmiServer {
    /// Bind a listener on an ephemeral localhost port and start serving.
    /// A job of no ranks is `InvalidInput`.
    pub fn start(config: PmiServerConfig) -> io::Result<PmiServer> {
        if config.size == 0 {
            let why = "a PMI job needs at least one rank";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let (mut pmi, jobid, bells) = (PmiState::default(), config.jobid, Vec::new());
        pmi.input(|pmi, _| pmi.open_job(&jobid, 0, config.size, config.fence_timeout));
        let reactor = Reactor::start(ReactorConfig {
            max_frame: MAX_LINE,
            thread_name: "pmi".to_string(),
            thread_stack: 128 * 1024,
            ..ReactorConfig::default()
        })?;
        let solo = Arc::new(reactor.own(Solo { pmi, jobid, bells }));
        serve_ranks(&reactor, listener, Arc::clone(&solo))?;
        Ok(PmiServer {
            addr,
            solo,
            _reactor: reactor,
        })
    }

    /// Address ranks must connect to (`PMI_ADDR`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Abort the job from the manager side (e.g. the scheduler noticed a
    /// worker died before its proxy connected).
    pub fn abort(&self, reason: &str) {
        let reason = reason.to_string();
        self.solo.call(move |solo| {
            let jobid = &solo.jobid;
            solo.pmi.input(|pmi, fx| pmi.abort_job(jobid, &reason, fx));
            solo.after_input(None);
        });
    }

    /// Block until the job completes, aborts, or `timeout` passes. Fence
    /// time-outs are enforced from here, waking at each deadline: a
    /// stand-alone server has no other clock. Every input rings it earlier.
    pub fn wait(&self, timeout: Duration) -> JobOutcome {
        let give_up = Instant::now() + timeout;
        loop {
            let (bell, rung) = mpsc::channel();
            let asleep = self.solo.call(move |solo| {
                let now = Instant::now();
                solo.pmi.input(|pmi, fx| pmi.tick(now, fx));
                if let Some(outcome) = solo.pmi.service.outcome(&solo.jobid) {
                    return Err(outcome.clone());
                }
                solo.bells.push(bell);
                let next = solo.pmi.service.next_deadline();
                Ok(next.map_or(give_up, |at| at.min(give_up)) - now)
            });
            match asleep {
                Some(Err(outcome)) => return outcome,
                Some(Ok(sleep)) if Instant::now() < give_up => drop(rung.recv_timeout(sleep)),
                _ => return JobOutcome::TimedOut, // time is up, or the loop stopped
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PmiClient;
    use std::thread;

    const WAIT: Duration = Duration::from_secs(20);

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

    /// The stand-alone server's fence clock is `wait`: rank 0 fences, rank 1
    /// never does, and the fence times out while `wait` blocks.
    #[test]
    fn a_fence_that_outwaits_its_timeout_aborts_the_job() {
        let config = PmiServerConfig {
            fence_timeout: Duration::from_millis(50),
            ..PmiServerConfig::new("t", 2)
        };
        let server = PmiServer::start(config).unwrap();
        let addr = server.addr().to_string();
        let _silent = PmiClient::connect(&addr, 1, 2, "t").unwrap();
        let fencing = thread::spawn(move || {
            let mut c = PmiClient::connect(&addr, 0, 2, "t").unwrap();
            c.put("bc.0", "here").unwrap();
            c.fence()
        });
        let began = Instant::now();
        match server.wait(WAIT) {
            JobOutcome::Aborted(reason) => assert!(reason.contains("fence"), "reason: {reason}"),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(began.elapsed() < WAIT / 4, "took {:?}", began.elapsed());
        assert!(
            fencing.join().unwrap().is_err(),
            "the parked fence was not told"
        );
    }

    #[test]
    fn a_job_of_no_ranks_is_invalid_input() {
        let refused = PmiServer::start(PmiServerConfig::new("t", 0)).err();
        assert_eq!(refused.map(|e| e.kind()), Some(io::ErrorKind::InvalidInput));
    }

    #[test]
    fn wait_times_out_when_no_rank_connects() {
        let server = PmiServer::start(PmiServerConfig::new("t", 1)).unwrap();
        assert_eq!(server.wait(Duration::from_millis(30)), JobOutcome::TimedOut);
    }
}
