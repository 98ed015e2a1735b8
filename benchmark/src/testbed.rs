//! The testbed: one real dispatcher, optionally one real relay, and N
//! real worker agents on loopback, each wrapped in a bench-side
//! [`TimedExecutor`] that stamps every task it runs.
//!
//! Everything here goes through the program's public functions; the
//! list is in `README.md` ("public API the benchmark calls").

use crate::util::{host_cpus, pin_to};
use jets_core::protocol::TaskAssignment;
use jets_core::{Dispatcher, DispatcherConfig, FsyncPolicy};
use jets_relay::{Relay, RelayConfig};
use jets_worker::apps::standard_registry;
use jets_worker::executor::TaskOutcome;
use jets_worker::{CancelToken, Executor, TaskExecutor, Worker, WorkerConfig};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One task execution as the worker saw it.
#[derive(Clone, Copy)]
pub struct Exec {
    pub job: u64,
    /// ns since the testbed's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The duration the task was asked to sleep (0 for `noop`).
    pub nominal_us: u64,
}

/// Wraps the standard executor and logs an [`Exec`] per call. One
/// instance per worker, so the log's lock is never contended: a worker
/// runs one task at a time.
pub struct TimedExecutor {
    inner: Executor,
    epoch: Instant,
    log: Mutex<Vec<Exec>>,
}

impl TimedExecutor {
    fn new(epoch: Instant) -> Self {
        TimedExecutor {
            inner: Executor::new(standard_registry()),
            epoch,
            log: Mutex::new(Vec::with_capacity(1 << 13)),
        }
    }

    /// Take everything logged since the last call, in execution order.
    pub fn drain(&self) -> Vec<Exec> {
        // `drain` keeps the preallocated capacity.
        self.log.lock().expect("exec log lock").drain(..).collect()
    }
}

fn nominal_us(assignment: &TaskAssignment) -> u64 {
    let cmd = assignment.cmd();
    match cmd.name() {
        "sleep" | "mpi-sleep" => cmd
            .args()
            .first()
            .and_then(|ms| ms.parse::<u64>().ok())
            .map_or(0, |ms| ms * 1000),
        _ => 0,
    }
}

impl TaskExecutor for TimedExecutor {
    fn execute(&self, assignment: &TaskAssignment) -> i32 {
        self.execute_cancellable(assignment, &CancelToken::new())
            .exit_code
    }

    fn execute_cancellable(
        &self,
        assignment: &TaskAssignment,
        cancel: &CancelToken,
    ) -> TaskOutcome {
        let start = self.epoch.elapsed();
        let outcome = self.inner.execute_cancellable(assignment, cancel);
        let end = self.epoch.elapsed();
        self.log.lock().expect("exec log lock").push(Exec {
            job: assignment.job_id,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            nominal_us: nominal_us(assignment),
        });
        outcome
    }
}

/// What a workload asks of its testbed.
#[derive(Clone)]
pub struct TestbedConfig {
    pub workers: usize,
    pub relay: bool,
    /// Journal the dispatcher to this file (`FsyncPolicy::Interval`).
    pub journal: Option<PathBuf>,
    /// Switch every process's flight recorder on, into this directory.
    pub trace_dir: Option<PathBuf>,
    /// Ring slots for the dispatcher's flight recorder when tracing.
    pub flight_capacity: usize,
}

pub struct Testbed {
    pub dispatcher: Dispatcher,
    pub relay: Option<Relay>,
    workers: Vec<Worker>,
    pub execs: Vec<Arc<TimedExecutor>>,
    /// Dispatcher (+ relay) start to all workers registered.
    pub setup: Duration,
    /// Flight files of every process, when tracing.
    pub flight_files: Vec<PathBuf>,
}

impl Testbed {
    pub fn boot(cfg: &TestbedConfig) -> io::Result<Testbed> {
        let flight = |name: String| cfg.trace_dir.as_ref().map(|d| d.join(name));
        let mut flight_files = Vec::new();
        let started = Instant::now();
        let mut dcfg = DispatcherConfig::default();
        if let Some(path) = &cfg.journal {
            dcfg.journal = Some(path.clone());
            dcfg.fsync_policy = FsyncPolicy::Interval;
        }
        if let Some(path) = flight("dispatcher.ring".into()) {
            dcfg.flight_capacity = cfg.flight_capacity;
            dcfg.flight_recorder = Some(path.clone());
            flight_files.push(path);
        }
        // The dispatcher's threads get the first CPU this process was
        // given; the relay, the workers and the submitting thread share
        // the last (threads inherit the affinity of the one that spawns
        // them). Left to float over two vCPUs of a shared host, the
        // no-op workloads spent half their CPU time on cross-CPU wake-ups
        // whose cost moved by a quarter from one run to the next.
        let cpus = host_cpus();
        pin_to(&cpus[..1]);
        let dispatcher = Dispatcher::start(dcfg)?;
        pin_to(&cpus[cpus.len() - 1..]);
        let relay = if cfg.relay {
            let mut rcfg = RelayConfig::new(dispatcher.addr().to_string(), "bench-relay");
            if let Some(path) = flight("relay.ring".into()) {
                rcfg = rcfg.with_flight_recorder(&path);
                flight_files.push(path);
            }
            Some(Relay::start(rcfg)?)
        } else {
            None
        };
        let connect_to = match &relay {
            Some(r) => r.addr().to_string(),
            None => dispatcher.addr().to_string(),
        };
        let mut workers = Vec::with_capacity(cfg.workers);
        let mut execs = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let mut wcfg = WorkerConfig::new(connect_to.clone(), format!("bench-w{i}"));
            if let Some(path) = flight(format!("worker{i}.ring")) {
                wcfg = wcfg.with_flight_recorder(&path);
                flight_files.push(path);
            }
            let exec = Arc::new(TimedExecutor::new(started));
            workers.push(Worker::spawn(wcfg, exec.clone()));
            execs.push(exec);
        }
        let deadline = started + Duration::from_secs(20);
        while dispatcher.alive_workers() < cfg.workers {
            if Instant::now() > deadline {
                return Err(io::Error::other("workers did not register within 20 s"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(Testbed {
            dispatcher,
            relay,
            workers,
            execs,
            setup: started.elapsed(),
            flight_files,
        })
    }

    /// Orderly stop: workers are told to shut down and joined, then the
    /// relay and dispatcher go. Returns the flight files, now quiescent.
    pub fn shutdown(self) -> Vec<PathBuf> {
        self.dispatcher.shutdown();
        for w in self.workers {
            w.join();
        }
        if let Some(r) = &self.relay {
            r.shutdown();
        }
        drop(self.relay);
        drop(self.dispatcher);
        self.flight_files
    }
}
