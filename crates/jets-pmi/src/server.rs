//! The process-manager side of PMI: one [`PmiServer`] per MPI job.
//!
//! In MPICH2/Hydra terms this is the network service that `mpiexec` keeps
//! running after printing proxy commands under `launcher=manual`: it accepts
//! one connection per rank, serves the key-value space, implements the
//! fence, and reports the job outcome once every rank finalizes (or any
//! rank aborts / disconnects early).

use crate::kvs::{FenceResult, KeyValueSpace};
use crate::wire::Message;
use jets_ring::stdx::{wait_for, Mutex};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant};

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

/// Final status of a PMI job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every rank connected, initialized, and finalized.
    Success,
    /// The job aborted (explicit `cmd=abort`, early disconnect, or fence
    /// failure). Carries the first abort reason observed.
    Aborted(String),
    /// [`PmiServer::wait`] gave up before the job finished.
    TimedOut,
}

struct Completion {
    finalized: u32,
    outcome: Option<JobOutcome>,
}

struct Shared {
    completion: Mutex<Completion>,
    cond: Condvar,
    kvs: KeyValueSpace,
    config: PmiServerConfig,
    /// When the first fence released: the moment the whole gang had
    /// connected, exchanged cards, and cleared PMI negotiation. The
    /// dispatcher reads this to split a job's launch latency into
    /// PMI-wait versus run time (the `pmi` phase of `JobPhases`).
    first_fence: Mutex<Option<Instant>>,
}

impl Shared {
    fn record_abort(&self, reason: &str) {
        let mut c = self.completion.lock();
        if c.outcome.is_none() {
            c.outcome = Some(JobOutcome::Aborted(reason.to_string()));
        }
        self.kvs.abort(reason);
        self.cond.notify_all();
    }

    fn record_finalize(&self) {
        let mut c = self.completion.lock();
        c.finalized += 1;
        if c.finalized == self.config.size && c.outcome.is_none() {
            c.outcome = Some(JobOutcome::Success);
        }
        self.cond.notify_all();
    }

    fn aborted(&self) -> bool {
        matches!(self.completion.lock().outcome, Some(JobOutcome::Aborted(_)))
    }
}

/// A running PMI server for a single MPI job.
///
/// The server owns a listener thread and one small-stack thread per rank
/// connection; all threads exit once the job completes or aborts.
pub struct PmiServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Stack size for connection-handler threads. These threads parse short
/// text lines and touch the KVS; the default 8 MiB stack would waste
/// address space when hundreds of jobs run concurrently.
const HANDLER_STACK: usize = 128 * 1024;

impl PmiServer {
    /// Bind a listener on an ephemeral localhost port and start serving.
    pub fn start(config: PmiServerConfig) -> io::Result<PmiServer> {
        assert!(config.size > 0, "PMI job must have at least one rank");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            completion: Mutex::new(Completion {
                finalized: 0,
                outcome: None,
            }),
            cond: Condvar::new(),
            kvs: KeyValueSpace::new(config.size),
            config,
            first_fence: Mutex::new(None),
        });
        let accept_shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("pmi-accept".to_string())
            .stack_size(HANDLER_STACK)
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn pmi accept thread");
        Ok(PmiServer { addr, shared })
    }

    /// Address ranks must connect to (`PMI_ADDR`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job's key-value space (for inspection and tests).
    pub fn kvs(&self) -> &KeyValueSpace {
        &self.shared.kvs
    }

    /// Abort the job from the manager side (e.g. the scheduler noticed a
    /// worker died before its proxy connected).
    pub fn abort(&self, reason: &str) {
        self.shared.record_abort(reason);
    }

    /// Block until the job completes, aborts, or `timeout` passes.
    pub fn wait(&self, timeout: Duration) -> JobOutcome {
        let deadline = Instant::now() + timeout;
        let mut c = self.shared.completion.lock();
        loop {
            if let Some(outcome) = &c.outcome {
                return outcome.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return JobOutcome::TimedOut;
            }
            c = wait_for(&self.shared.cond, c, deadline - now).0;
        }
    }

    /// Outcome if the job already finished, without blocking.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.shared.completion.lock().outcome.clone()
    }

    /// When the job's first fence released — the end of PMI negotiation
    /// (every rank connected, exchanged cards, and hit the barrier).
    /// `None` while negotiation is still in flight or if the job never
    /// fences.
    pub fn first_barrier_at(&self) -> Option<Instant> {
        *self.shared.first_fence.lock()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut accepted = 0;
    let mut backoff = Duration::from_micros(200);
    while accepted < shared.config.size {
        if shared.aborted() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                accepted += 1;
                backoff = Duration::from_micros(200);
                let conn_shared = Arc::clone(&shared);
                let name = format!("pmi-conn-{}", shared.config.jobid);
                // A rank that never gets a handler thread can never
                // barrier: abort the job cleanly instead of panicking
                // the server thread and hanging every other rank.
                if thread::Builder::new()
                    .name(name)
                    .stack_size(HANDLER_STACK)
                    .spawn(move || {
                        if let Err(reason) = serve_connection(stream, &conn_shared) {
                            conn_shared.record_abort(&reason);
                        }
                    })
                    .is_err()
                {
                    shared.record_abort("pmi: failed to spawn connection handler");
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(backoff);
                // Exponential backoff bounded at 5 ms keeps idle accept
                // loops cheap when many jobs are in flight on few cores.
                backoff = (backoff * 2).min(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Serve one rank connection. Returns `Err(reason)` if the job must abort.
fn serve_connection(stream: TcpStream, shared: &Shared) -> Result<(), String> {
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut rank: Option<u32> = None;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("pmi read error: {e}"))?;
        if n == 0 {
            return match rank {
                // EOF after finalize_ack is the normal disconnect.
                None => Err("rank disconnected before init".to_string()),
                Some(r) => {
                    if shared.completion.lock().outcome.is_some() {
                        Ok(())
                    } else {
                        Err(format!("rank {r} disconnected before finalize"))
                    }
                }
            };
        }
        let msg = Message::decode(&line).map_err(|e| format!("pmi protocol error: {e}"))?;
        match msg {
            Message::Init {
                rank: r,
                size,
                jobid,
            } => {
                if size != shared.config.size {
                    return Err(format!(
                        "rank {r} announced size {size}, expected {}",
                        shared.config.size
                    ));
                }
                if jobid != shared.config.jobid {
                    return Err(format!(
                        "rank {r} announced job {jobid}, expected {}",
                        shared.config.jobid
                    ));
                }
                rank = Some(r);
                send(&mut writer, &Message::InitAck)?;
            }
            Message::Put { key, value } => {
                shared.kvs.put(&key, &value);
                send(&mut writer, &Message::PutAck)?;
            }
            Message::Get { key } => match shared.kvs.get(&key) {
                Some(value) => send(&mut writer, &Message::GetAck { value })?,
                None => send(&mut writer, &Message::GetFail { key })?,
            },
            Message::Fence => match shared.kvs.fence(shared.config.fence_timeout) {
                FenceResult::Released => {
                    {
                        let mut first = shared.first_fence.lock();
                        if first.is_none() {
                            *first = Some(Instant::now());
                        }
                    }
                    send(&mut writer, &Message::FenceAck)?
                }
                FenceResult::Aborted => {
                    let reason = shared
                        .kvs
                        .abort_reason()
                        .unwrap_or_else(|| "aborted".to_string());
                    send(&mut writer, &Message::Abort { reason }).ok();
                    return Ok(()); // abort already recorded elsewhere
                }
                FenceResult::TimedOut => {
                    return Err(format!(
                        "fence timed out after {:?} (rank {:?})",
                        shared.config.fence_timeout, rank
                    ));
                }
            },
            Message::Finalize => {
                send(&mut writer, &Message::FinalizeAck)?;
                shared.record_finalize();
                return Ok(());
            }
            Message::Abort { reason } => {
                return Err(format!("rank {rank:?} aborted: {reason}"));
            }
            other => {
                return Err(format!("unexpected client message: {other:?}"));
            }
        }
    }
}

fn send(writer: &mut TcpStream, msg: &Message) -> Result<(), String> {
    let mut line = msg.encode();
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .map_err(|e| format!("pmi write error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PmiClient;

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

    #[test]
    fn wait_times_out_when_no_rank_connects() {
        let server = PmiServer::start(PmiServerConfig::new("t", 1)).unwrap();
        assert_eq!(server.wait(Duration::from_millis(30)), JobOutcome::TimedOut);
    }
}
