//! Figure 6 — JETS results for sequential tasks on the BG/P.
//!
//! Paper: no-op tasks submitted to allocations of increasing size on
//! Surveyor (up to 1,024 nodes / 4,096 cores); JETS "scales well,
//! achieving over 7,000 job launches per second on the full rack". A
//! single-point "ideal" measurement shows the raw process-launch rate of
//! one node without communication.
//!
//! Here: the same sweep over a simulated allocation (real dispatcher,
//! real sockets). Each task charges a modelled per-launch node cost
//! (`JETS_BENCH_LAUNCH_MS`, default 2 ms — the BG/P's process-fork cost;
//! the paper's full-rack 7,000 launches/s over 4,096 cores implies
//! ≈0.6 ms of node time per launch). Small allocations are launch-bound,
//! so the rate climbs with nodes; large allocations hit the central
//! dispatcher's service ceiling, where it flattens — the paper's shape.
//! The "ideal" point is the raw in-process execution rate with no
//! dispatcher involved.

use jets_bench::{banner, boot, env_or};
use jets_core::protocol::{TaskAssignment, TaskKind};
use jets_core::spec::CommandSpec;
use jets_core::DispatcherConfig;
use jets_worker::{apps::standard_registry, Executor, TaskExecutor};
use std::time::{Duration, Instant};

fn ideal_rate() -> f64 {
    let executor = Executor::new(standard_registry());
    let assignment = TaskAssignment {
        task_id: 0,
        job_id: 0,
        kind: TaskKind::Sequential {
            cmd: CommandSpec::builtin("noop", vec![]),
        },
        stage: Vec::new(),
        trace: 0,
    };
    let n = 200_000;
    let t = Instant::now();
    for _ in 0..n {
        assert_eq!(executor.execute(&assignment), 0);
    }
    n as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    banner(
        "Figure 6",
        "sequential no-op task launch rate vs allocation size",
    );
    println!(
        "ideal (no dispatcher, single node): {:.0} launches/s\n",
        ideal_rate()
    );
    println!(
        "{:>10} {:>8} {:>10} {:>14}",
        "nodes", "tasks", "wall(s)", "launches/s"
    );

    let max_nodes = env_or("JETS_BENCH_MAX_NODES", 1024) as u32;
    for nodes in [16u32, 64, 256, 512, 1024] {
        if nodes > max_nodes {
            continue;
        }
        let bed = boot(nodes, DispatcherConfig::default());
        // Enough tasks that each worker cycles several times.
        let tasks = (nodes as usize * 8).max(2048);
        let t = Instant::now();
        let launch_ms = env_or("JETS_BENCH_LAUNCH_MS", 2);
        let batch: Vec<_> = (0..tasks)
            .map(|_| {
                jets_core::spec::JobSpec::sequential(CommandSpec::builtin(
                    "sleep",
                    vec![launch_ms.to_string()],
                ))
            })
            .collect();
        bed.dispatcher.submit_all(batch);
        assert!(
            bed.dispatcher.wait_idle(Duration::from_secs(600)),
            "batch did not drain"
        );
        let wall = t.elapsed();
        println!(
            "{:>10} {:>8} {:>10.2} {:>14.0}",
            nodes,
            tasks,
            wall.as_secs_f64(),
            tasks as f64 / wall.as_secs_f64()
        );
        bed.teardown();
    }
    println!("\npaper shape: launch-bound (rising) at small allocations, flattening");
    println!("at the central dispatcher's service limit (paper: ~7,000/s at 1,024");
    println!("nodes of a BG/P; the ceiling here is one host core's worth).");
}
