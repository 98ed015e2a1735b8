//! Fault tolerance: keep a batch running while pilots die.
//!
//! ```text
//! cargo run --example faulty_allocation
//! ```
//!
//! A miniature of the paper's Fig. 10 experiment: a batch of sequential
//! tasks runs on an allocation whose workers are killed one at a time at
//! regular intervals. The dispatcher detects each death by socket EOF,
//! requeues the lost task, and keeps the survivors saturated. The example
//! prints the nodes-available and running-jobs timelines.

use jets::core::spec::{CommandSpec, JobSpec};
use jets::core::{stats, Dispatcher, DispatcherConfig, JobStatus};
use jets::sim::{
    science_registry, Allocation, AllocationConfig, ChaosInjector, FaultMix, FaultPlan,
};
use jets::worker::Executor;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let nodes = 8u32;
    let dispatcher = Dispatcher::start(DispatcherConfig::default()).expect("start dispatcher");
    let allocation = Arc::new(Allocation::start(
        &dispatcher.addr().to_string(),
        AllocationConfig::new(nodes),
        Arc::new(Executor::new(science_registry())),
    ));
    while dispatcher.alive_workers() < nodes as usize {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Enough retries that every job survives repeated worker deaths.
    let jobs: Vec<JobSpec> = (0..96)
        .map(|_| {
            JobSpec::sequential(CommandSpec::builtin("sleep", vec!["400".into()])).with_retries(10)
        })
        .collect();
    let ids = dispatcher.submit_all(jobs);
    println!(
        "submitted {} tasks on {nodes} workers; killing one worker every 300 ms",
        ids.len()
    );

    // Kill one pilot at a time — but stop while a few still live so the
    // batch can finish.
    let mix = FaultMix {
        kill: 1,
        partition: 0,
        calm: 0,
        max_kills: nodes,
    };
    let plan = FaultPlan::seeded(42, nodes, Duration::from_millis(300), mix);
    let injector = ChaosInjector::start(Arc::clone(&allocation), plan);
    while allocation.live_count() > 3 {
        std::thread::sleep(Duration::from_millis(20));
    }
    let killed: Vec<usize> = injector.stop().into_iter().map(|(_, i)| i).collect();
    println!("killed workers (in order): {killed:?}");

    assert!(dispatcher.wait_idle(Duration::from_secs(120)), "batch hung");
    let records = dispatcher.records();
    let succeeded = records
        .iter()
        .filter(|r| r.status == JobStatus::Succeeded)
        .count();
    assert_eq!(succeeded, records.len(), "some jobs never recovered");
    assert!(killed.len() >= 3, "fault injector fell behind");
    let retried = records.iter().filter(|r| r.attempts > 1).count();
    println!(
        "{succeeded}/{} jobs succeeded; {retried} needed retries",
        records.len()
    );

    // The Fig. 10 timelines.
    let events = dispatcher.events().snapshot();
    let step = Duration::from_millis(200);
    let availability = stats::availability_series(&events, step);
    let load = stats::load_series(&events, step);
    println!("\n  t(ms)  nodes-available  running-jobs");
    for (a, l) in availability.iter().zip(load.iter()) {
        println!(
            "  {:>5}  {:>15}  {:>12}",
            a.t.as_millis(),
            a.alive,
            l.running_tasks
        );
    }

    dispatcher.shutdown();
    allocation.join_all();
}
