//! Figure 12 — NAMD/JETS utilization results.
//!
//! Paper: batches of 4-processor NAMD jobs (6 executions per node on
//! average) at allocation sizes 256 → 1,024 nodes hold utilization near
//! 90 %; "for a longer run, utilization could be higher as the effect of
//! the ramp-up and long-tail effects are amortized".
//!
//! Here: NAMD-profile tasks (the Fig. 11 duration model) through the full
//! dispatcher at 1:100 scale; utilization by Equation (1) with the mean
//! nominal duration, exactly the paper's accounting.

use cluster_sim::workload::{namd_batch, NamdDurationModel, TimeScale};
use jets_bench::{banner, boot, env_or};
use jets_core::{stats, DispatcherConfig};
use jets_ring::stdx::SplitMix64;
use std::time::{Duration, Instant};

fn main() {
    banner("Figure 12", "NAMD/JETS utilization vs allocation size");
    let speedup = env_or("JETS_BENCH_SPEEDUP", 50) as f64;
    let scale = TimeScale::speedup(speedup);
    let max_nodes = env_or("JETS_BENCH_MAX_NODES", 1024) as u32;
    let nproc = 4u32;
    let model = NamdDurationModel::default();
    println!("4-proc NAMD-profile tasks, 6 per node, 1:{speedup} scale\n");
    println!(
        "{:>10} {:>8} {:>12} {:>14} {:>14}",
        "alloc", "jobs", "wall(s)", "util (Eq.1)", "util (events)"
    );
    for nodes in [256u32, 512, 1024] {
        if nodes > max_nodes {
            continue;
        }
        let jobs = 6 * (nodes / nproc) as usize;
        let bed = boot(nodes, DispatcherConfig::default());
        let mut rng = SplitMix64::new(12);
        let batch = namd_batch(jobs, nproc, 1, model, scale, &mut rng);
        // Mean nominal duration of the generated batch, for Eq. (1).
        let mean_ms: f64 = batch
            .iter()
            .map(|j| j.cmd.args()[0].parse::<f64>().expect("duration arg"))
            .sum::<f64>()
            / jobs as f64;
        let t = Instant::now();
        bed.dispatcher.submit_all(batch);
        assert!(bed.dispatcher.wait_idle(Duration::from_secs(1800)));
        let wall = t.elapsed();
        let events = bed.dispatcher.events().snapshot();
        bed.teardown();
        let eq1 = stats::utilization_eq1(
            Duration::from_secs_f64(mean_ms / 1000.0),
            jobs,
            nproc as usize,
            nodes as usize,
            wall,
        );
        let measured = stats::measured_utilization(&events, nodes as usize);
        println!(
            "{:>10} {:>8} {:>12.2} {:>13.1}% {:>13.1}%",
            nodes,
            jobs,
            wall.as_secs_f64(),
            100.0 * eq1,
            100.0 * measured
        );
    }
    println!("\npaper shape: utilization near 90 % across allocation sizes, limited");
    println!("by ramp-up and the long tail of the NAMD duration distribution.");
}
