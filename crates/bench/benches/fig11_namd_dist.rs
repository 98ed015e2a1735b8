//! Figure 11 — NAMD wall-time distribution.
//!
//! Paper: the full-rack batch of 1,536 4-processor NAMD jobs (NMA,
//! 44,992 atoms, 10 timesteps ≈ 100 s each) shows "the majority of the
//! tasks fall between 100 and 120 s, [but] many tasks exceed this,
//! running up to 160 s."
//!
//! Here: a batch of NAMD-profile tasks (durations from the calibrated
//! model in `cluster-sim::workload`, which encodes exactly that
//! distribution; see DESIGN.md on the substitution) runs through the full
//! dispatcher at 1:100 scale, and the *measured* wall times are
//! histogrammed back in virtual seconds.

use cluster_sim::workload::{namd_batch, NamdDurationModel, TimeScale};
use jets_bench::{banner, boot, env_or};
use jets_core::{stats, DispatcherConfig};
use jets_ring::stdx::SplitMix64;
use std::time::Duration;

fn main() {
    banner("Figure 11", "NAMD task wall-time distribution");
    let speedup = env_or("JETS_BENCH_SPEEDUP", 100) as f64;
    let scale = TimeScale::speedup(speedup);
    let nodes = env_or("JETS_BENCH_MAX_NODES", 1024).min(128) as u32;
    let nproc = 4u32;
    let jobs = 6 * (nodes / nproc) as usize;

    let bed = boot(nodes, DispatcherConfig::default());
    let mut rng = SplitMix64::new(11);
    let batch = namd_batch(
        jobs,
        nproc,
        1,
        NamdDurationModel::default(),
        scale,
        &mut rng,
    );
    bed.dispatcher.submit_all(batch);
    assert!(bed.dispatcher.wait_idle(Duration::from_secs(1200)));
    let events = bed.dispatcher.events().snapshot();
    bed.teardown();

    let walls: Vec<f64> = stats::task_wall_times(&events)
        .into_iter()
        .map(|w| scale.to_virtual_secs(Duration::from_secs_f64(w)))
        .collect();
    println!(
        "{} tasks of {nproc} processors on {nodes} nodes (1:{speedup} scale)\n",
        walls.len()
    );
    println!("{:>14} {:>8}  histogram", "wall time (s)", "count");
    let bins = stats::histogram(&walls, 10.0);
    let max_count = bins.iter().map(|b| b.count).max().unwrap_or(1);
    for b in &bins {
        let bar = "#".repeat((b.count * 50).div_ceil(max_count.max(1)));
        println!("{:>6.0}–{:<6.0} {:>8}  {bar}", b.lo, b.hi, b.count);
    }
    let majority = walls.iter().filter(|&&w| w < 120.0).count();
    println!(
        "\n{:.0}% of tasks under 120 s; max {:.0} s",
        100.0 * majority as f64 / walls.len() as f64,
        walls.iter().copied().fold(0.0f64, f64::max)
    );
    println!("paper shape: bulk between 100–120 s, right tail to ~160 s.");
}
