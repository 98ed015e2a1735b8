//! `jets-benchmark`: end-to-end and per-layer benchmark of the real
//! JETS control plane on loopback. See `README.md`.
//!
//! ```text
//! jets-benchmark --workload W --seed N --seconds S --trace 0|1 [--detail FILE]
//! jets-benchmark all --seed N --out FILE [--seconds S]
//! jets-benchmark layers [--seed N]
//! jets-benchmark compare A.json B.json
//! ```

mod compare;
mod floors;
mod metrics;
mod run;
mod testbed;
mod util;
mod workloads;

use metrics::{per_layer_names, Host, ResultFile, Row, END_TO_END};
use run::Outcome;
use std::io;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// Hard limit on one child of `all`.
const CHILD_LIMIT: Duration = Duration::from_secs(60);
/// In-process limit on one contract run, below the driver's 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(150);

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got `{v}`")),
            None => Ok(default),
        }
    }
}

fn main() -> ExitCode {
    // Read the CPU set before any testbed narrows it.
    util::host_cpus();
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("all") => all(&args),
        Some("layers") => layers(&args),
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        _ => workload_run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("jets-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// One workload, one pass, in this process: the driver's contract.
fn workload_run(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or(
        "usage: --workload W --seed N --seconds S --trace 0|1 [--detail FILE] | all | layers | compare",
    )?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", 10)?;
    let traced = args.number("--trace", 0)? != 0;

    // A hang in the program under test must not hang the pipeline.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("jets-benchmark: run exceeded {RUN_LIMIT:?}, giving up");
        util::remove_scratch_of(std::process::id());
        std::process::exit(3);
    });

    let outcome = if traced {
        run::per_layer(w, seed, seconds)
    } else {
        run::end_to_end(w, seed, seconds)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    for p in &outcome.problems {
        eprintln!("jets-benchmark: {name}: check failed: {p}");
    }
    if let Some(path) = args.value("--detail") {
        let text = serde_json::to_string(&outcome.rows).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", contract_line(&outcome, &contract_metrics(traced)));
    Ok(outcome.problems.is_empty() && outcome.failed == 0)
}

/// The metrics a pass owes the driver: every end-to-end metric with
/// tracing off, every per-layer metric with it on.
fn contract_metrics(traced: bool) -> Vec<(String, &'static str)> {
    match traced {
        true => per_layer_names(),
        false => END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect(),
    }
}

/// The one-line JSON result the driver reads.
fn contract_line(outcome: &Outcome, wanted: &[(String, &str)]) -> String {
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = outcome
                .rows
                .iter()
                .find(|r| &r.metric == name)
                .map_or(f64::NAN, |r| r.median);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The floors alone.
fn layers(args: &Args) -> Result<bool, String> {
    let scratch = util::Scratch::new().map_err(|e| e.to_string())?;
    let rows = floors::all(&scratch, args.number("--seed", 1)?, Duration::from_secs(3))
        .map_err(|e| e.to_string())?;
    print_rows(&rows);
    Ok(true)
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>14} {:>8}  unit",
        "workload", "metric", "value", "q1", "q3", "n"
    );
    for r in rows {
        let pct = r.pct.map_or(String::new(), |p| format!(" (p{p})"));
        println!(
            "{:<14} {:<36} {:>14.4} {:>14.4} {:>14.4} {:>8}  {}{}",
            r.workload, r.metric, r.median, r.q1, r.q3, r.n, r.unit, pct
        );
    }
}

/// Run this binary again as a child with a hard time limit; the rows it
/// wrote to its detail file, or `None` if it hung or crashed.
fn child_rows(
    w: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    detail: &Path,
) -> Option<Vec<Row>> {
    let exe = std::env::current_exe().ok()?;
    std::fs::remove_file(detail).ok();
    let mut child = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail)
        .stdout(Stdio::null())
        .spawn()
        .ok()?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < CHILD_LIMIT => {
                std::thread::sleep(Duration::from_millis(50));
            }
            _ => {
                eprintln!(
                    "jets-benchmark: {} exceeded {CHILD_LIMIT:?}, killed",
                    w.name
                );
                child.kill().ok();
                child.wait().ok();
                util::remove_scratch_of(child.id());
                break None;
            }
        }
    };
    // A child that failed its checks still wrote its rows (with a
    // non-zero `run.failed_share`); one that died wrote nothing.
    status?;
    let text = std::fs::read_to_string(detail).ok()?;
    serde_json::from_str(&text).ok()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Every workload (each pass in its own child), the traced pass and the
/// floors; prints every metric and writes the result file.
fn all(args: &Args) -> Result<bool, String> {
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", 10)?;
    let out = args
        .value("--out")
        .ok_or("usage: all --seed N --out FILE [--seconds S]")?;
    let scratch = util::Scratch::new().map_err(|e| e.to_string())?;
    let mut rows: Vec<Row> = Vec::new();
    let mut clean = true;
    for w in WORKLOADS {
        println!("{}: {}", w.name, w.why);
    }
    for w in WORKLOADS {
        for traced in [false, true] {
            let detail = scratch.path(&format!("{}-{}.json", w.name, u8::from(traced)));
            let have = |rows: &[Row], metric: &str| {
                rows.iter()
                    .any(|r| r.workload == w.name && r.metric == metric)
            };
            match child_rows(w, seed, seconds, traced, &detail) {
                Some(mut got) => {
                    // The traced child repeats the compare-gated extras
                    // and every traced child repeats the floors: keep
                    // the untraced and the first, respectively.
                    got.retain(|r| {
                        !rows
                            .iter()
                            .any(|have| have.workload == r.workload && have.metric == r.metric)
                    });
                    clean &= got
                        .iter()
                        .all(|r| r.metric != "run.failed_share" || r.median == 0.0);
                    rows.extend(got);
                }
                None => {
                    // Hung or crashed: the workload counts as lost, with
                    // every metric name still present.
                    clean = false;
                    rows.retain(|r| !(r.workload == w.name && r.metric == "run.failed_share"));
                    rows.push(Row::single(w.name, "run.failed_share", "ratio", 1.0, 0));
                    for (metric, unit) in contract_metrics(traced) {
                        if !have(&rows, &metric) {
                            rows.push(Row::single(w.name, &metric, unit, f64::NAN, 0));
                        }
                    }
                }
            }
        }
    }
    print_rows(&rows);
    let file = ResultFile {
        host: Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            kernel: command_line("uname", &["-sr"]),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        },
        seed,
        seconds,
        rows,
    };
    let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(out, text).map_err(|e: io::Error| format!("{out}: {e}"))?;
    Ok(clean)
}
