//! Microbenchmarks of the MPI collectives.
//!
//! Measures the cost of one collective round over the in-process fabric
//! (no network model) at several communicator sizes — the launch-path
//! costs that shape Figures 7, 9, and 15: every task start executes at
//! least two barriers.

use jets_bench::banner;
use jets_mpi::{runner, NetModel, ReduceOp};

/// Run `rounds` collective rounds at `size` ranks and return the mean
/// per-round wall time of rank 0.
fn collective_rounds(size: u32, rounds: usize, which: &'static str) -> f64 {
    let results = runner::run_threads(size, NetModel::ideal(), move |comm| {
        comm.barrier().unwrap();
        let t0 = comm.wtime();
        match which {
            "barrier" => {
                for _ in 0..rounds {
                    comm.barrier().unwrap();
                }
            }
            "allreduce64" => {
                let data = vec![1.0f64; 64];
                for _ in 0..rounds {
                    comm.allreduce(&data, ReduceOp::Sum).unwrap();
                }
            }
            "bcast4k" => {
                let data = vec![0u8; 4096];
                for _ in 0..rounds {
                    comm.bcast(
                        0,
                        if comm.rank() == 0 {
                            data.clone()
                        } else {
                            vec![]
                        },
                    )
                    .unwrap();
                }
            }
            other => panic!("unknown collective {other}"),
        }
        let dt = comm.wtime() - t0;
        comm.barrier().unwrap();
        dt / rounds as f64
    })
    .unwrap();
    results[0]
}

fn main() {
    banner(
        "micro_collectives",
        "one collective round over the in-process fabric, rank 0's mean",
    );
    println!(
        "{:>12} | {:>5} | {:>12}",
        "collective", "ranks", "µs per round"
    );
    for size in [2u32, 4, 8] {
        for which in ["barrier", "allreduce64", "bcast4k"] {
            collective_rounds(size, 200, which); // warm-up: threads, allocator
            let per_round = collective_rounds(size, 2_000, which);
            println!("{which:>12} | {size:>5} | {:>12.2}", per_round * 1e6);
        }
    }
}
