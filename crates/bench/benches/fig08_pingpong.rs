//! Figure 8 — MPI messaging performance on the BG/P.
//!
//! Paper: a two-node ping-pong compares *native* mode (IBM's DCMF
//! messaging, default CNK kernel) against *MPICH/sockets* mode (MPICH2
//! over the ZeptoOS TCP layer). Sockets mode shows much higher latency
//! for small messages and slightly lower bandwidth for large ones —
//! "primarily due to the use of TCP by the ZeptoOS mechanism".
//!
//! Here: the same ping-pong runs over the in-process fabric under the two
//! calibrated network models (`NetModel::native_bgp`, `NetModel::
//! zepto_tcp`); timing uses `MPI_Wtime` exactly as the paper describes
//! ("the buffer was filled once with random data of the given size and
//! sent back and forth the given number of times").

use jets_bench::banner;
use jets_mpi::{runner, NetModel};
use jets_ring::stdx::SplitMix64;

fn ping_pong(model: NetModel, bytes: usize, reps: usize) -> (f64, f64) {
    let results = runner::run_threads(2, model, move |comm| {
        let mut rng = SplitMix64::new(7);
        let buffer: Vec<u8> = (0..bytes).map(|_| rng.next_u64() as u8).collect();
        comm.barrier().unwrap();
        let t0 = comm.wtime();
        if comm.rank() == 0 {
            for _ in 0..reps {
                comm.send(1, 1, &buffer).unwrap();
                let _ = comm.recv_vec::<u8>(1, 2).unwrap();
            }
        } else {
            for _ in 0..reps {
                let (_, data) = comm.recv_vec::<u8>(0, 1).unwrap();
                comm.send(0, 2, &data).unwrap();
            }
        }
        let elapsed = comm.wtime() - t0;
        comm.barrier().unwrap();
        elapsed
    })
    .unwrap();
    let elapsed = results[0];
    // One rep = two one-way transfers.
    let one_way = elapsed / (2.0 * reps as f64);
    let bandwidth = bytes as f64 / one_way;
    (one_way * 1e6, bandwidth / 1e6)
}

fn main() {
    banner(
        "Figure 8",
        "MPI ping-pong: native (DCMF model) vs MPICH/sockets (ZeptoOS TCP model)",
    );
    println!(
        "{:>10} | {:>14} {:>12} | {:>14} {:>12} | {:>8}",
        "bytes", "native lat µs", "native MB/s", "sockets lat µs", "sockets MB/s", "ratio"
    );
    let sizes: &[(usize, usize)] = &[
        (1, 400),
        (8, 400),
        (64, 400),
        (512, 300),
        (4 << 10, 200),
        (32 << 10, 100),
        (256 << 10, 30),
        (1 << 20, 12),
        (4 << 20, 5),
    ];
    for &(bytes, reps) in sizes {
        let (native_lat, native_bw) = ping_pong(NetModel::native_bgp(), bytes, reps);
        let (sockets_lat, sockets_bw) = ping_pong(NetModel::zepto_tcp(), bytes, reps);
        println!(
            "{:>10} | {:>14.2} {:>12.1} | {:>14.2} {:>12.1} | {:>7.1}x",
            bytes,
            native_lat,
            native_bw,
            sockets_lat,
            sockets_bw,
            sockets_lat / native_lat
        );
    }
    println!("\npaper shape: sockets mode pays ~20× small-message latency and a");
    println!("modest large-message bandwidth penalty, converging as size grows.");
}
