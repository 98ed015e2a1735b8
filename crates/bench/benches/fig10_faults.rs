//! Figure 10 — MPI/JETS results, faulty setting.
//!
//! Paper: 32 workers run a steady stream of sequential tasks while "a
//! fault injection script ... terminated randomly selected pilot jobs,
//! one at a time, at regular 10-s intervals". The node count decays to
//! zero over ~320 s; the running-job count tracks the available-node
//! count, showing JETS keeps the survivors saturated. Early lockstep
//! produces utilization dips that shrink as skew accumulates.
//!
//! Here: 1:20 time scale (kill every 500 ms, 2 s-virtual tasks of 100 ms)
//! with the same 32 workers; the two series are printed per bin.

use cluster_sim::workload::{sleep_batch, TimeScale};
use cluster_sim::{ChaosInjector, FaultMix, FaultPlan};
use jets_bench::{banner, boot, env_or};
use jets_core::{stats, DispatcherConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    banner(
        "Figure 10",
        "task management under fault injection (32 workers, one kill per interval)",
    );
    let speedup = env_or("JETS_BENCH_SPEEDUP", 20) as f64;
    let scale = TimeScale::speedup(speedup);
    let workers = 32u32;
    let kill_interval = scale.real_duration(10.0);
    let task_secs = 2.0;

    let bed = boot(workers, DispatcherConfig::default());
    // Enough work to outlast every worker's death.
    let batch: Vec<_> = sleep_batch(20_000, task_secs, scale)
        .into_iter()
        .map(|j| j.with_retries(50))
        .collect();
    bed.dispatcher.submit_all(batch);

    let mix = FaultMix {
        kill: 1,
        partition: 0,
        calm: 0,
        max_kills: workers,
    };
    let plan = FaultPlan::seeded(42, workers, kill_interval, mix);
    // One kill per interval until the allocation is empty.
    let killed = ChaosInjector::start(Arc::clone(&bed.allocation), plan).join();
    assert_eq!(killed.len(), workers as usize);
    // Give the dispatcher a moment to observe the last EOFs.
    std::thread::sleep(Duration::from_millis(300));

    let events = bed.dispatcher.events().snapshot();
    let bin = kill_interval;
    let availability = stats::availability_series(&events, bin);
    let load = stats::load_series(&events, bin);
    println!(
        "kill interval: {:?} real ({}s virtual); tasks: {}s virtual\n",
        kill_interval, 10.0, task_secs
    );
    println!(
        "{:>12} {:>16} {:>14}",
        "t(virt s)", "nodes available", "running jobs"
    );
    for (a, l) in availability.iter().zip(load.iter()) {
        println!(
            "{:>12.0} {:>16} {:>14}",
            scale.to_virtual_secs(a.t),
            a.alive,
            l.running_tasks
        );
    }
    let completed = events
        .iter()
        .filter(|e| matches!(e.kind, jets_core::EventKind::TaskEnded { exit_code: 0, .. }))
        .count();
    println!("\ntasks completed before the allocation died: {completed}");
    println!("paper shape: running jobs tracks nodes available all the way down;");
    println!("JETS maintains high utilization on whatever survives.");
    bed.dispatcher.shutdown();
    bed.allocation.join_all();
}
