//! Tier-1 loopback: the full observability path over a simulated
//! allocation — dispatcher metrics served over HTTP, scraped mid-run
//! with the same parser `jets top` uses, and checked for sanity.

use jets::core::spec::{CommandSpec, JobSpec};
use jets::core::{
    metrics::JOB_PHASE_METRIC, Dispatcher, DispatcherConfig, EventKind, JobStatus, SpanKind,
};
use jets::sim::{science_registry, Allocation, AllocationConfig};
use jets::worker::Executor;
use jets_cli::prom::Scrape;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);
const WORKERS: u32 = 16;
const JOBS: usize = 100;

fn boot(nodes: u32) -> (Dispatcher, Allocation) {
    boot_with(DispatcherConfig::default(), nodes)
}

fn boot_with(config: DispatcherConfig, nodes: u32) -> (Dispatcher, Allocation) {
    let dispatcher = Dispatcher::start(config).unwrap();
    let allocation = Allocation::start(
        &dispatcher.addr().to_string(),
        AllocationConfig::new(nodes),
        Arc::new(Executor::new(science_registry())),
    );
    while dispatcher.alive_workers() < nodes as usize {
        std::thread::sleep(Duration::from_millis(5));
    }
    (dispatcher, allocation)
}

/// Scrape until `pred` holds or the deadline passes; returns the last
/// scrape either way.
fn scrape_until(addr: &str, pred: impl Fn(&Scrape) -> bool) -> Scrape {
    let deadline = Instant::now() + WAIT;
    loop {
        let text = jets::obs::scrape(addr, "/metrics").expect("scrape /metrics");
        let scrape = Scrape::parse(&text);
        if pred(&scrape) || Instant::now() >= deadline {
            return scrape;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn live_scrape_tracks_a_running_batch() {
    let (dispatcher, allocation) = boot(WORKERS);
    let metrics_addr = dispatcher.serve_metrics("127.0.0.1:0").unwrap().to_string();

    // /healthz answers before any work exists.
    assert_eq!(
        jets::obs::scrape(&metrics_addr, "/healthz").unwrap(),
        "ok\n"
    );

    // A batch long enough that a scrape lands mid-run: 16 workers × 100
    // jobs of ~2 simulated ms each.
    let ids = dispatcher.submit_all(
        (0..JOBS * WORKERS as usize)
            .map(|_| JobSpec::sequential(CommandSpec::builtin("sleep", vec!["2".into()]))),
    );
    let total = ids.len() as f64;

    // Mid-run: completions are flowing and the phase summary is live.
    let mid = scrape_until(&metrics_addr, |s| {
        s.value("jets_jobs_completed_total").unwrap_or(0.0) > 0.0
            && s.labeled(&format!("{JOB_PHASE_METRIC}_count"), "phase", "total")
                .unwrap_or(0.0)
                > 0.0
    });
    assert_eq!(mid.value("jets_jobs_submitted_total"), Some(total));
    assert!(mid.value("jets_jobs_completed_total").unwrap_or(0.0) > 0.0);
    // The worker gauges exist and stay within the allocation size.
    let ready = mid
        .value("jets_workers_ready")
        .expect("workers_ready gauge");
    assert!((0.0..=WORKERS as f64).contains(&ready), "ready {ready}");
    let alive = mid.value("jets_workers_alive").unwrap_or(0.0);
    assert!((0.0..=WORKERS as f64).contains(&alive), "alive {alive}");
    assert!(mid.value("jets_queue_depth").is_some());
    assert!(mid.value("jets_running_gangs").is_some());

    assert!(dispatcher.wait_idle(WAIT));
    for id in &ids {
        assert_eq!(
            dispatcher.job_record(*id).unwrap().status,
            JobStatus::Succeeded
        );
    }

    // Final scrape: conservation and ordered quantiles.
    let fin = scrape_until(&metrics_addr, |s| {
        s.value("jets_jobs_completed_total") == Some(total)
    });
    assert_eq!(fin.value("jets_jobs_completed_total"), Some(total));
    assert_eq!(fin.value("jets_jobs_failed_total"), Some(0.0));
    assert_eq!(fin.value("jets_tasks_started_total"), Some(total));
    assert_eq!(fin.value("jets_tasks_ended_total"), Some(total));
    for phase in ["queue", "run", "total"] {
        assert_eq!(
            fin.labeled(&format!("{JOB_PHASE_METRIC}_count"), "phase", phase),
            Some(total),
            "phase {phase} count"
        );
        let q = fin.quantiles(JOB_PHASE_METRIC, "phase", phase);
        let (p50, p95, p99) = (q["0.5"], q["0.95"], q["0.99"]);
        assert!(
            p50 <= p95 && p95 <= p99,
            "phase {phase}: p50 {p50} p95 {p95} p99 {p99}"
        );
        assert!(p99 < 120.0, "phase {phase}: p99 {p99}s is absurd");
    }
    // Sequential jobs never negotiate PMI.
    assert_eq!(
        fin.labeled(&format!("{JOB_PHASE_METRIC}_count"), "phase", "pmi"),
        Some(0.0)
    );

    // Once idle, the whole allocation parks in the ready list.
    let idle = scrape_until(&metrics_addr, |s| {
        s.value("jets_workers_ready") == Some(WORKERS as f64)
    });
    assert_eq!(idle.value("jets_workers_ready"), Some(WORKERS as f64));
    assert_eq!(idle.value("jets_queue_depth"), Some(0.0));
    assert_eq!(idle.value("jets_running_gangs"), Some(0.0));

    dispatcher.shutdown();
    allocation.join_all();
}

#[test]
fn mpi_jobs_record_pmi_phase_and_event_log_matches() {
    let (dispatcher, allocation) = boot(4);
    let ids = dispatcher.submit_all(
        (0..8).map(|_| JobSpec::mpi(2, CommandSpec::builtin("mpi-sleep", vec!["20".into()]))),
    );
    assert!(dispatcher.wait_idle(WAIT));
    for id in &ids {
        assert_eq!(
            dispatcher.job_record(*id).unwrap().status,
            JobStatus::Succeeded
        );
    }
    let m = dispatcher.metrics();
    assert_eq!(m.phase_pmi.count(), 8, "every MPI job crossed a fence");
    assert_eq!(m.phase_total.count(), 8);

    // One JobPhases event per completed job, with the PMI span set and
    // the phases summing to no more than the end-to-end span.
    let events = dispatcher.events().snapshot();
    let phases: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::JobPhases {
                job,
                nodes,
                queue_us,
                launch_us,
                pmi_us,
                run_us,
                total_us,
            } => Some((
                *job, *nodes, *queue_us, *launch_us, *pmi_us, *run_us, *total_us,
            )),
            _ => None,
        })
        .collect();
    assert_eq!(phases.len(), 8);
    for (job, nodes, queue_us, launch_us, pmi_us, run_us, total_us) in phases {
        assert_eq!(nodes, 2, "job {job}");
        let pmi = pmi_us.expect("MPI job has a PMI span");
        assert!(
            queue_us + launch_us + pmi + run_us <= total_us + 1_000,
            "job {job}: phases exceed total by more than rounding"
        );
        // The task slept 20 ms between barriers, and the fence released
        // before it began: `pmi` is the wire-up, not the task.
        assert!(run_us >= 20_000, "job {job}: run {run_us} us");
        assert!(pmi < 20_000, "job {job}: pmi {pmi} us");
    }
    // The `pmi-barrier` span closes when the fence releases — an event,
    // not the monitor's next look — so it too is shorter than the task.
    let edge = |e: &jets::core::Event| match e.kind {
        EventKind::SpanStart { kind, job, .. } => {
            (kind == SpanKind::PmiBarrier).then_some((job, true))
        }
        EventKind::SpanEnd { kind, job, .. } => {
            (kind == SpanKind::PmiBarrier).then_some((job, false))
        }
        _ => None,
    };
    let mut opened = std::collections::HashMap::new();
    let mut spans = 0;
    for (e, (job, start)) in events.iter().filter_map(|e| Some((e, edge(e)?))) {
        if start {
            opened.insert(job, e.t);
        } else {
            let held = e.t - opened.remove(&job).expect("a span ends after it starts");
            assert!(
                held < Duration::from_millis(20),
                "job {job}: pmi-barrier {held:?}"
            );
            spans += 1;
        }
    }
    assert_eq!((spans, opened.len()), (8, 0));
    dispatcher.shutdown();
    allocation.join_all();
}

/// Nothing on the MPI path may assume `127.0.0.1`: the PMI service binds
/// the address the dispatcher was told to, and a rank's endpoint the
/// interface its PMI connection left by.
#[test]
fn an_mpi_gang_runs_on_the_address_the_dispatcher_was_bound_to() {
    let config = DispatcherConfig {
        bind_addr: "127.0.0.2:0".to_string(),
        ..DispatcherConfig::default()
    };
    let (dispatcher, allocation) = boot_with(config, 2);
    assert_eq!(dispatcher.addr().ip().to_string(), "127.0.0.2");
    let id = dispatcher.submit(JobSpec::mpi(
        2,
        CommandSpec::builtin("mpi-sleep", vec!["1".into()]),
    ));
    let record = dispatcher.wait_job(id, WAIT).expect("the gang ends");
    assert_eq!((record.status, record.attempts), (JobStatus::Succeeded, 1));
    dispatcher.shutdown();
    allocation.join_all();
}

/// `/metrics` is a connection on the dispatcher's event loop, so a
/// scraper that sends half a request line and stops must cost that loop
/// nothing: a batch on the same dispatcher runs, and a scrape behind the
/// stuck one is answered.
#[test]
fn a_stuck_scraper_holds_up_neither_a_batch_nor_the_next_scrape() {
    let (dispatcher, allocation) = boot(4);
    let addr = dispatcher.serve_metrics("127.0.0.1:0").unwrap().to_string();
    let mut stuck = TcpStream::connect(&addr).unwrap();
    stuck.write_all(b"GET /metr").unwrap();
    let ids = dispatcher
        .submit_all((0..200).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
    assert!(
        dispatcher.wait_idle(WAIT),
        "a stuck scraper held up the batch"
    );
    for id in &ids {
        assert_eq!(
            dispatcher.job_record(*id).unwrap().status,
            JobStatus::Succeeded
        );
    }
    let text = jets::obs::scrape(&addr, "/metrics").expect("a scrape behind the stuck one");
    let scrape = Scrape::parse(&text);
    assert_eq!(scrape.value("jets_jobs_completed_total"), Some(200.0));
    drop(stuck);
    dispatcher.shutdown();
    allocation.join_all();
}

#[test]
fn metrics_endpoint_shuts_down_with_dispatcher() {
    let (dispatcher, allocation) = boot(1);
    let addr = dispatcher.serve_metrics("127.0.0.1:0").unwrap().to_string();
    assert!(jets::obs::scrape(&addr, "/metrics").is_ok());
    dispatcher.shutdown();
    allocation.join_all();
    drop(dispatcher);
    // The responder died with the dispatcher; the port no longer answers.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if jets::obs::scrape(&addr, "/healthz").is_err() {
            break;
        }
        assert!(Instant::now() < deadline, "responder survived shutdown");
        std::thread::sleep(Duration::from_millis(10));
    }
}
