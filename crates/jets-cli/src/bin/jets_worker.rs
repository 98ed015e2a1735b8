//! The pilot-job worker agent (real-process deployment).
//!
//! ```text
//! jets-worker --dispatcher HOST:PORT [--name N] [--cores C]
//!             [--location L] [--heartbeat SECS]
//!             [--reconnect] [--reconnect-attempts N]
//!             [--reconnect-base-ms MS] [--reconnect-cap-ms MS]
//!             [--reconnect-jitter F] [--reconnect-seed S]
//!             [--metrics-addr ADDR] [--flight-recorder FILE]
//! jets-worker --relay HOST:PORT [...]
//! ```
//!
//! Registers with the dispatcher and executes tasks until told to shut
//! down. `--relay` points the agent at a relay daemon instead — the wire
//! protocol is identical, so the two options differ only in intent.
//! Builtin (`@`) tasks resolve against the standard + science
//! application registries; everything else is executed as an OS process.
//!
//! Any `--reconnect*` option enables reconnect-with-backoff; unset knobs
//! keep their defaults.
//!
//! `--metrics-addr ADDR` serves this agent's `GET /metrics` (Prometheus
//! text) and `GET /healthz`; see `docs/observability.md`.
//!
//! `--flight-recorder FILE` records the agent's lifecycle events
//! (registration, task start/end) into a crash-durable mmap ring at
//! FILE; replay it with `jets flight dump FILE`.

use cluster_sim::science_registry;
use jets_cli::parse_args;
use jets_reactor::{Reactor, ReactorConfig};
use jets_worker::{Executor, ReconnectPolicy, Worker, WorkerConfig, WorkerMetrics};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args = parse_args(
        std::env::args().skip(1),
        &[
            "dispatcher",
            "relay",
            "name",
            "cores",
            "location",
            "heartbeat",
            "reconnect-attempts",
            "reconnect-base-ms",
            "reconnect-cap-ms",
            "reconnect-jitter",
            "reconnect-seed",
            "metrics-addr",
            "flight-recorder",
        ],
    );
    let endpoint = match (args.get("dispatcher"), args.get("relay")) {
        (Some(d), None) => d.to_string(),
        (None, Some(r)) => r.to_string(),
        _ => {
            eprintln!(
                "usage: jets-worker (--dispatcher HOST:PORT | --relay HOST:PORT) \
                 [--name N] [--cores C] [--location L] [--heartbeat SECS] \
                 [--reconnect] [--reconnect-attempts N] [--reconnect-base-ms MS] \
                 [--reconnect-cap-ms MS] [--reconnect-jitter F] [--reconnect-seed S]"
            );
            std::process::exit(2);
        }
    };
    let wants_reconnect = args.has_flag("reconnect")
        || ["attempts", "base-ms", "cap-ms", "jitter", "seed"]
            .iter()
            .any(|k| args.get(&format!("reconnect-{k}")).is_some());
    let defaults = match wants_reconnect {
        true => ReconnectPolicy::default(),
        false => ReconnectPolicy::connect_once(),
    };
    let reconnect = ReconnectPolicy {
        max_attempts: args.get_parse("reconnect-attempts", defaults.max_attempts),
        base_backoff: Duration::from_millis(args.get_parse(
            "reconnect-base-ms",
            defaults.base_backoff.as_millis() as u64,
        )),
        max_backoff: Duration::from_millis(
            args.get_parse("reconnect-cap-ms", defaults.max_backoff.as_millis() as u64),
        ),
        jitter: args.get_parse("reconnect-jitter", defaults.jitter),
        seed: args.get_parse("reconnect-seed", defaults.seed),
    };
    let mut config = WorkerConfig {
        dispatcher_addr: endpoint.clone(),
        name: args
            .get("name")
            .map(str::to_string)
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        cores: args.get_parse("cores", 1),
        location: args.get("location").unwrap_or("default").to_string(),
        heartbeat: args
            .get("heartbeat")
            .and_then(|s| s.parse().ok())
            .map(Duration::from_secs),
        reconnect,
        flight_recorder: args.get("flight-recorder").map(std::path::PathBuf::from),
        ..WorkerConfig::new(endpoint.clone(), "unnamed")
    };
    if let Some(path) = args.get("flight-recorder") {
        println!("jets-worker: flight recorder ring at {path}");
    }
    let metrics = Arc::new(WorkerMetrics::new());
    config.metrics = Some(Arc::clone(&metrics));
    // The agent is a blocking client with no event loop of its own, so
    // `/metrics` gets a one-loop reactor, held for the process lifetime.
    let _metrics_loop = args.get("metrics-addr").map(|addr| {
        let config = ReactorConfig {
            thread_name: "worker-metrics".to_string(),
            ..ReactorConfig::default()
        };
        let served = Reactor::start(config).and_then(|reactor| {
            let local = jets_obs::serve_metrics(&reactor, addr, metrics.registry())?;
            Ok((reactor, local))
        });
        match served {
            Ok((reactor, local)) => {
                println!("jets-worker: serving http://{local}/metrics");
                reactor
            }
            Err(e) => {
                eprintln!("jets-worker: cannot serve metrics on {addr}: {e}");
                std::process::exit(1);
            }
        }
    });
    let name = config.name.clone();
    println!("jets-worker: {name} connecting to {endpoint}");
    let worker = Worker::spawn(config, Arc::new(Executor::new(science_registry())));
    let exit = worker.join();
    println!(
        "jets-worker: {name} exiting after {} tasks ({:?})",
        exit.tasks_done, exit.reason
    );
}
