//! `rem-exchange` — the replica-exchange step.
//!
//! ```text
//! rem-exchange PREFIX_A T_A PREFIX_B T_B [SEED]
//! ```
//!
//! Attempts a Metropolis exchange between the restart-file triples
//! `PREFIX_A.{coor,vel,xsc}` and `PREFIX_B.{coor,vel,xsc}` held at
//! temperatures `T_A` and `T_B`. Prints `accepted` or `rejected` (also
//! written to `$SWIFT_STDOUT` when set, as the workflow token).

use jets_ring::stdx::SplitMix64;
use namd_sim::rem::{attempt_file_exchange, ReplicaFiles};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 4 {
        eprintln!("usage: rem-exchange PREFIX_A T_A PREFIX_B T_B [SEED]");
        std::process::exit(2);
    }
    let (Ok(t_a), Ok(t_b)) = (args[1].parse::<f64>(), args[3].parse::<f64>()) else {
        eprintln!("rem-exchange: temperatures must be numbers");
        std::process::exit(2);
    };
    let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(0);
    let a = ReplicaFiles::from_prefix(&args[0]);
    let b = ReplicaFiles::from_prefix(&args[2]);
    let mut rng = SplitMix64::new(seed);
    match attempt_file_exchange(&a, &b, t_a, t_b, &mut rng) {
        Ok(accepted) => {
            let verdict = if accepted { "accepted" } else { "rejected" };
            println!("{verdict}");
            if let Ok(out) = std::env::var("SWIFT_STDOUT") {
                let _ = std::fs::write(out, format!("{verdict}\n"));
            }
        }
        Err(e) => {
            eprintln!("rem-exchange: {e}");
            std::process::exit(3);
        }
    }
}
