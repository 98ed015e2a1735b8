//! `jets-mpiexec` — an mpiexec with only the manual launcher.
//!
//! The MPICH2 feature at the heart of JETS: instead of exec'ing its
//! proxies, this process manager *prints* them (one line per node with
//! the PMI environment each rank needs) and keeps its PMI service running
//! so an external scheduler can place them. Exits when the job completes.
//!
//! ```text
//! jets-mpiexec -n NODES [--ppn P] [--jobid ID] [--timeout SECS] -- CMD ARGS...
//! ```

use jets_cli::parse_args;
use jets_pmi::{JobOutcome, ManualLauncher, PmiServer, PmiServerConfig, RankLayout};
use std::time::Duration;

fn main() {
    // Accept `-n N` in mpiexec style by rewriting to `--n N`.
    let argv: Vec<String> = std::env::args()
        .skip(1)
        .map(|a| if a == "-n" { "--n".to_string() } else { a })
        .collect();
    let args = parse_args(argv, &["n", "ppn", "jobid", "timeout"]);
    let (nodes, ppn): (u32, u32) = (args.get_parse("n", 0), args.get_parse("ppn", 1));
    // No ranks, or more than a `u32` counts: nothing to launch.
    if nodes.checked_mul(ppn).is_none_or(|size| size == 0) {
        eprintln!(
            "usage: jets-mpiexec -n NODES [--ppn P] [--jobid ID] [--timeout SECS] CMD ARGS..."
        );
        std::process::exit(2);
    }
    let jobid = args
        .get("jobid")
        .map(str::to_string)
        .unwrap_or_else(|| format!("mpiexec-{}", std::process::id()));
    let layout = RankLayout { nodes, ppn };
    let server = match PmiServer::start(PmiServerConfig::new(&jobid, layout.size())) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jets-mpiexec: cannot start PMI service: {e}");
            std::process::exit(1);
        }
    };
    let command = args.positional.join(" ");
    println!(
        "# jets-mpiexec: PMI service for job {jobid} at {}",
        server.addr()
    );
    println!("# launcher=manual: start these proxies yourself:");
    for proxy in ManualLauncher.proxy_commands(&jobid, layout, &server.addr().to_string()) {
        for &rank in &proxy.ranks {
            let env: Vec<String> = proxy
                .env_for_rank(rank)
                .into_iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "node {:03}: {} {}",
                proxy.node_index,
                env.join(" "),
                command
            );
        }
    }
    let timeout = Duration::from_secs(args.get_parse("timeout", 3600));
    match server.wait(timeout) {
        JobOutcome::Success => {
            println!("# jets-mpiexec: job {jobid} completed");
        }
        JobOutcome::Aborted(reason) => {
            eprintln!("# jets-mpiexec: job {jobid} aborted: {reason}");
            std::process::exit(1);
        }
        JobOutcome::TimedOut => {
            eprintln!("# jets-mpiexec: job {jobid} timed out");
            std::process::exit(1);
        }
    }
}
