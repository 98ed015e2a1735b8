//! End-to-end fault tolerance: batches survive pilot-job deaths.

use jets::core::spec::{CommandSpec, JobSpec};
use jets::core::{stats, Dispatcher, DispatcherConfig, JobStatus};
use jets::sim::{
    science_registry, Allocation, AllocationConfig, ChaosInjector, FaultMix, FaultPlan,
};
use jets::worker::Executor;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn boot(nodes: u32) -> (Dispatcher, Arc<Allocation>) {
    let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let allocation = Arc::new(Allocation::start(
        &dispatcher.addr().to_string(),
        AllocationConfig::new(nodes),
        Arc::new(Executor::new(science_registry())),
    ));
    while dispatcher.alive_workers() < nodes as usize {
        std::thread::sleep(Duration::from_millis(5));
    }
    (dispatcher, allocation)
}

#[test]
fn sequential_batch_survives_fault_injection() {
    let (dispatcher, allocation) = boot(6);
    let _ids = dispatcher.submit_all((0..36).map(|_| {
        JobSpec::sequential(CommandSpec::builtin("sleep", vec!["100".into()])).with_retries(10)
    }));
    let mix = FaultMix {
        kill: 1,
        partition: 0,
        calm: 0,
        max_kills: 6,
    };
    let plan = FaultPlan::seeded(7, 6, Duration::from_millis(150), mix);
    let injector = ChaosInjector::start(Arc::clone(&allocation), plan);
    // Let three workers die, then stop injecting.
    while allocation.live_count() > 3 {
        std::thread::sleep(Duration::from_millis(10));
    }
    let killed = injector.stop();
    assert!(killed.len() >= 3);
    assert!(dispatcher.wait_idle(WAIT), "batch wedged after faults");
    let records = dispatcher.records();
    assert!(records.iter().all(|r| r.status == JobStatus::Succeeded));
    // At least one job must have been retried (a worker died mid-task or
    // post-assignment with very high probability at this kill rate).
    let events = dispatcher.events().snapshot();
    let deaths = events
        .iter()
        .filter(|e| matches!(e.kind, jets::core::EventKind::WorkerDown { .. }))
        .count();
    assert!(deaths >= 3, "expected recorded deaths, got {deaths}");
    dispatcher.shutdown();
    allocation.join_all();
}

#[test]
fn mpi_job_survives_peer_worker_death() {
    let (dispatcher, allocation) = boot(4);
    // Long MPI job across all 4 workers.
    let id = dispatcher.submit(
        JobSpec::mpi(4, CommandSpec::builtin("mpi-sleep", vec!["1500".into()])).with_retries(3),
    );
    // Wait for it to start, then kill one participant.
    std::thread::sleep(Duration::from_millis(300));
    assert!(allocation.kill(0));
    // The job fails on that attempt, gets requeued, and — once the
    // dispatcher is down one worker — can never re-run (needs 4 nodes,
    // only 3 live). Verify it returns to Pending rather than wedging.
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let status = dispatcher.job_record(id).unwrap().status;
        if status == JobStatus::Pending && dispatcher.alive_workers() == 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never requeued, status {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // A replacement worker arrives; the job must then complete.
    let replacement = jets::worker::Worker::spawn(
        jets::worker::WorkerConfig::new(dispatcher.addr().to_string(), "replacement"),
        Arc::new(Executor::new(science_registry())),
    );
    assert!(dispatcher.wait_idle(WAIT), "job did not recover");
    assert_eq!(
        dispatcher.job_record(id).unwrap().status,
        JobStatus::Succeeded
    );
    dispatcher.shutdown();
    replacement.join();
    allocation.join_all();
}

#[test]
fn availability_series_reflects_deaths() {
    let (dispatcher, allocation) = boot(5);
    // Let at least one sampling interval pass with everyone alive so the
    // series can observe the peak.
    std::thread::sleep(Duration::from_millis(60));
    for i in [0usize, 1, 2] {
        allocation.kill(i);
        std::thread::sleep(Duration::from_millis(60));
    }
    let deadline = std::time::Instant::now() + WAIT;
    while dispatcher.alive_workers() != 2 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    let events = dispatcher.events().snapshot();
    let series = stats::availability_series(&events, Duration::from_millis(20));
    let peak = series.iter().map(|s| s.alive).max().unwrap();
    let last = series.last().unwrap().alive;
    assert_eq!(peak, 5);
    assert_eq!(last, 2);
    dispatcher.shutdown();
    allocation.join_all();
}

#[test]
fn exhausted_retry_budget_fails_exactly_once() {
    // Retry accounting: a job that fails on every attempt burns its
    // budget and ends `Failed` exactly once — one `JobCompleted` per
    // launch attempt, one `JobRequeued` per retry, no double finish
    // from the monitor and reader racing.
    let (dispatcher, allocation) = boot(2);
    let id = dispatcher.submit(
        JobSpec::sequential(CommandSpec::builtin("fail", vec!["7".into()])).with_retries(2),
    );
    assert!(dispatcher.wait_idle(WAIT), "failing job wedged");
    let rec = dispatcher.job_record(id).unwrap();
    assert_eq!(rec.status, JobStatus::Failed);
    assert_eq!(rec.attempts, 3, "max_retries=2 means exactly 3 attempts");
    assert_eq!(rec.exit_codes, vec![7]);
    assert_eq!(dispatcher.outstanding(), 0);
    let events = dispatcher.events().snapshot();
    let completions: Vec<bool> = events
        .iter()
        .filter_map(|e| match e.kind {
            jets::core::EventKind::JobCompleted { job, success, .. } if job == id => Some(success),
            _ => None,
        })
        .collect();
    assert_eq!(completions, vec![false, false, false]);
    let requeues = events
        .iter()
        .filter(|e| matches!(e.kind, jets::core::EventKind::JobRequeued { job } if job == id))
        .count();
    assert_eq!(requeues, 2);
    dispatcher.shutdown();
    allocation.join_all();
}

#[test]
fn partitioned_worker_is_quarantined_then_reused() {
    // A real socket severed mid-task, and the agent's reconnect: the
    // strike → bench → release decisions are the seeded world's and
    // `quarantine_holds_a_request_and_replays_it_when_the_bench_expires`;
    // what only the shell shows is the counters on /metrics.
    use jets::core::registry::QuarantinePolicy;
    use jets::worker::{ReconnectPolicy, Worker, WorkerConfig};
    let dispatcher = Dispatcher::start(DispatcherConfig {
        quarantine: Some(QuarantinePolicy {
            threshold: 1,
            penalty: Duration::from_millis(300),
            decay: Duration::from_secs(60),
            max_penalty: Duration::from_secs(5),
        }),
        monitor_tick: Duration::from_millis(10),
        ..DispatcherConfig::default()
    })
    .unwrap();
    let worker = Worker::spawn(
        WorkerConfig {
            heartbeat: Some(Duration::from_millis(100)),
            reconnect: ReconnectPolicy::default(),
            ..WorkerConfig::new(dispatcher.addr().to_string(), "flaky")
        },
        Arc::new(Executor::new(science_registry())),
    );
    let deadline = std::time::Instant::now() + WAIT;
    while dispatcher.alive_workers() != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never registered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let id = dispatcher.submit(
        JobSpec::sequential(CommandSpec::builtin("sleep", vec!["1000".into()])).with_retries(3),
    );
    while dispatcher.job_record(id).unwrap().status != JobStatus::Running {
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Sever the socket mid-task. The dispatcher charges a strike against
    // the worker's name and requeues the job; the agent reconnects.
    worker.disconnect();
    assert!(dispatcher.wait_idle(WAIT), "job never recovered");
    // The fault counters tell the same story through /metrics: one
    // pilot came back under a known name, its job was requeued once,
    // and the bench emptied before the queue drained.
    let m = dispatcher.metrics();
    assert_eq!(m.reconnects_total.get(), 1);
    assert_eq!(m.jobs_requeued_total.get(), 1);
    while m.quarantined_current.get() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "quarantine gauge never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    dispatcher.shutdown();
    worker.kill();
    worker.join();
}

#[test]
fn hung_worker_is_disregarded_and_job_rescued() {
    // Paper Section 5, feature 3: "JETS automatically disregards workers
    // that fail or hang." A worker whose task never finishes (and that
    // sends no heartbeats) must be declared hung by the real monitor
    // thread's ticks; its job goes back to the queue.
    use jets::worker::{Executor, TaskContext, Worker, WorkerConfig};
    let dispatcher = Dispatcher::start(DispatcherConfig {
        heartbeat_timeout: Some(Duration::from_millis(400)),
        ..DispatcherConfig::default()
    })
    .unwrap();

    // The hanging worker: its registry has a "tarpit" app that sleeps
    // forever; no heartbeats.
    let tarpit_registry = jets::worker::apps::standard_registry();
    tarpit_registry.register("tarpit", |_ctx: &TaskContext| {
        std::thread::sleep(Duration::from_secs(3600));
        0
    });
    let hung = Worker::spawn(
        WorkerConfig::new(dispatcher.addr().to_string(), "tarpit"),
        Arc::new(Executor::new(tarpit_registry.clone())),
    );
    // Wait for the hung worker to register before submitting, so it is
    // guaranteed to be the one that takes the job.
    let deadline = std::time::Instant::now() + WAIT;
    while dispatcher.alive_workers() != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never registered"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let id = dispatcher
        .submit(JobSpec::sequential(CommandSpec::builtin("tarpit", vec![])).with_retries(2));
    // The job must start on the tarpit worker...
    while dispatcher.job_record(id).unwrap().status != JobStatus::Running {
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    // ...and the monitor must then declare that worker hung.
    while dispatcher.alive_workers() != 0 {
        assert!(std::time::Instant::now() < deadline, "hang never detected");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(dispatcher.metrics().jobs_requeued_total.get(), 1);
    assert_eq!(
        dispatcher.job_record(id).unwrap().status,
        JobStatus::Pending
    );
    dispatcher.shutdown();
    hung.kill();
    hung.join();
}
