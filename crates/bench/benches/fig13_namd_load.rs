//! Figure 13 — NAMD/JETS load level over time.
//!
//! Paper: for the full-rack (1,024-node, 1,536-job) NAMD batch, the
//! number of busy cores over time shows a fast ramp-up, a long plateau at
//! machine capacity, and a decaying tail as the last long tasks finish.
//!
//! Here: the same batch shape at 1:100 scale; busy ranks sampled from the
//! dispatcher event log.

use cluster_sim::workload::{namd_batch, NamdDurationModel, TimeScale};
use jets_bench::{banner, boot, env_or};
use jets_core::{stats, DispatcherConfig};
use jets_ring::stdx::SplitMix64;
use std::time::Duration;

fn main() {
    banner("Figure 13", "NAMD/JETS load level (busy ranks) over time");
    let speedup = env_or("JETS_BENCH_SPEEDUP", 50) as f64;
    let scale = TimeScale::speedup(speedup);
    let nodes = env_or("JETS_BENCH_MAX_NODES", 1024).min(1024) as u32;
    let nproc = 4u32;
    let jobs = ((nodes / nproc) as usize * 6).max(1);

    let bed = boot(nodes, DispatcherConfig::default());
    let mut rng = SplitMix64::new(13);
    bed.dispatcher.submit_all(namd_batch(
        jobs,
        nproc,
        1,
        NamdDurationModel::default(),
        scale,
        &mut rng,
    ));
    assert!(bed.dispatcher.wait_idle(Duration::from_secs(1800)));
    let events = bed.dispatcher.events().snapshot();
    bed.teardown();

    // Sample every 20 virtual seconds.
    let bin = scale.real_duration(20.0);
    let series = stats::load_series(&events, bin);
    let capacity = nodes as usize; // one task rank per node in this batch
    println!(
        "{jobs} jobs × {nproc} ranks on {nodes} nodes (capacity {} concurrent jobs)\n",
        nodes / nproc
    );
    println!(
        "{:>12} {:>12} {:>10}  load",
        "t(virt s)", "busy nodes", "% of peak"
    );
    for s in &series {
        let busy = s.running_tasks; // each task occupies one node
        let bar = "#".repeat(busy * 50 / capacity.max(1));
        println!(
            "{:>12.0} {:>12} {:>9.0}%  {bar}",
            scale.to_virtual_secs(s.t),
            busy,
            100.0 * busy as f64 / capacity as f64
        );
    }
    println!("\npaper shape: quick ramp-up, plateau near full capacity, long tail");
    println!("as the slowest tasks of the final wave finish.");
}
