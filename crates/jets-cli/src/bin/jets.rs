//! The stand-alone `jets` tool (paper Section 5.1).
//!
//! ```text
//! jets TASKFILE [--listen ADDR] [--simulate N] [--timeout SECS]
//!               [--metrics-addr ADDR]
//!               [--journal FILE] [--fsync-policy always|interval|never]
//!               [--flight-recorder FILE]
//! jets top --metrics ADDR [--interval-ms MS] [--once]
//! jets journal <dump|verify> FILE
//! jets flight dump FILE [--stats [--nodes N]]
//! jets flight tail FILE [--interval-ms MS]
//! jets trace <export|critical-path JOB|stats> FLIGHT_FILE... [--out FILE]
//! ```
//!
//! Reads a task list (`MPI: <nodes> [ppn=<k>] cmd args...` or bare
//! command lines), starts the dispatcher, and runs the batch on whatever
//! workers connect. `--simulate N` boots N in-process worker agents with
//! the standard + science application registries, so a batch of builtin
//! (`@`-prefixed) tasks runs with no external setup; the batch goes in
//! once all N have registered (or 10 s have passed).
//!
//! `--metrics-addr ADDR` serves `GET /metrics` (Prometheus text) and
//! `GET /healthz` off the running dispatcher; `jets top --metrics ADDR`
//! polls that endpoint and renders a one-screen cluster snapshot. See
//! `docs/observability.md`.
//!
//! `--journal FILE` makes the dispatcher keep a crash-recovery
//! write-ahead journal; re-running with the same file resumes the
//! batch's unfinished jobs (see `docs/fault-tolerance.md`). `jets
//! journal dump FILE` prints a journal's records; `jets journal verify
//! FILE` checks its integrity and summarizes what a restart would
//! recover.
//!
//! `--flight-recorder FILE` backs the dispatcher's event ring with a
//! crash-durable mmap at FILE: the last ~131k events survive `kill -9`.
//! `jets flight dump FILE` replays such a file offline; `--stats` adds
//! the paper's utilization / load / availability figures, recomputed
//! with no dispatcher running, and the per-phase latency percentile
//! table under the metric name a live `/metrics` scrape uses. `jets
//! flight tail FILE` follows a *live* ring from another process without
//! ever blocking its writer.
//!
//! `jets trace` merges dispatcher + relay + worker flight files into one
//! cross-process span timeline (see `docs/observability.md`): `export`
//! writes Chrome trace-event / Perfetto JSON, `critical-path JOB` prints
//! where one job's wall time went phase by phase, and `stats` recomputes
//! the paper's Eq. (1) utilization from exec spans.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::allow_attributes_without_reason
    )
)]

use cluster_sim::{science_registry, Allocation, AllocationConfig};
use jets_cli::prom::Scrape;
use jets_cli::{parse_args, Args};
use jets_core::{stats, Dispatcher, DispatcherConfig, EventKind, JobStatus, WriterRole};
use jets_obs::Histogram;
use jets_worker::Executor;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("top") {
        let args = parse_args(argv.into_iter().skip(1), &["metrics", "interval-ms"]);
        top_main(&args);
    }
    if argv.first().map(String::as_str) == Some("journal") {
        let args = parse_args(argv.into_iter().skip(1), &[]);
        journal_main(&args);
    }
    if argv.first().map(String::as_str) == Some("flight") {
        let args = parse_args(argv.into_iter().skip(1), &["interval-ms", "nodes"]);
        flight_main(&args);
    }
    if argv.first().map(String::as_str) == Some("trace") {
        let args = parse_args(argv.into_iter().skip(1), &["out"]);
        trace_main(&args);
    }
    let args = parse_args(
        argv,
        &[
            "listen",
            "simulate",
            "timeout",
            "metrics-addr",
            "journal",
            "fsync-policy",
            "flight-recorder",
        ],
    );
    let Some(taskfile) = args.positional.first() else {
        eprintln!(
            "usage: jets TASKFILE [--listen ADDR] [--simulate N] [--timeout SECS] [--metrics-addr ADDR] [--journal FILE] [--fsync-policy always|interval|never] [--flight-recorder FILE]\n       jets top --metrics ADDR [--interval-ms MS] [--once]\n       jets journal <dump|verify> FILE\n       jets flight dump FILE [--stats [--nodes N]]\n       jets flight tail FILE [--interval-ms MS]\n       jets trace <export|critical-path JOB|stats> FLIGHT_FILE... [--out FILE]"
        );
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(taskfile) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("jets: cannot read {taskfile}: {e}");
            std::process::exit(2);
        }
    };
    let fsync_policy = match args.get("fsync-policy") {
        None => jets_core::FsyncPolicy::Always,
        Some(s) => match jets_core::FsyncPolicy::parse(s) {
            Some(p) => p,
            None => {
                eprintln!("jets: bad --fsync-policy {s:?} (always | interval | never)");
                std::process::exit(2);
            }
        },
    };
    let config = DispatcherConfig {
        bind_addr: args.get("listen").unwrap_or("127.0.0.1:0").to_string(),
        journal: args.get("journal").map(std::path::PathBuf::from),
        fsync_policy,
        flight_recorder: args.get("flight-recorder").map(std::path::PathBuf::from),
        ..DispatcherConfig::default()
    };
    let dispatcher = match Dispatcher::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("jets: cannot start dispatcher: {e}");
            std::process::exit(1);
        }
    };
    println!("jets: dispatcher listening on {}", dispatcher.addr());
    if let Some(path) = args.get("journal") {
        println!("jets: journaling state transitions to {path}");
        if dispatcher.recovering() {
            println!("jets: reconciling jobs recovered from a previous run");
        }
    }
    if let Some(path) = args.get("flight-recorder") {
        println!("jets: flight recorder ring at {path}");
    }
    if let Some(addr) = args.get("metrics-addr") {
        match dispatcher.serve_metrics(addr) {
            Ok(local) => println!("jets: serving http://{local}/metrics"),
            Err(e) => {
                eprintln!("jets: cannot serve metrics on {addr}: {e}");
                std::process::exit(1);
            }
        }
    }

    let simulate: u32 = args.get_parse("simulate", 0);
    let allocation = if simulate > 0 {
        println!("jets: booting {simulate} simulated workers");
        Some(Allocation::start(
            &dispatcher.addr().to_string(),
            AllocationConfig::new(simulate),
            Arc::new(Executor::new(science_registry())),
        ))
    } else {
        println!(
            "jets: waiting for external workers (start jets-worker --dispatcher {})",
            dispatcher.addr()
        );
        None
    };
    // A simulated allocation is up before the work goes in: a short task
    // file is not run by whichever pilot happened to register first.
    let booting = Instant::now() + Duration::from_secs(10);
    while dispatcher.alive_workers() < simulate as usize && Instant::now() < booting {
        std::thread::sleep(Duration::from_millis(1));
    }

    let ids = match dispatcher.submit_input(&text) {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("jets: {taskfile}: {e}");
            std::process::exit(2);
        }
    };
    println!("jets: submitted {} jobs", ids.len());

    let timeout = Duration::from_secs(args.get_parse("timeout", 3600));
    if !dispatcher.wait_idle(timeout) {
        eprintln!(
            "jets: timed out after {timeout:?} with {} jobs outstanding",
            dispatcher.outstanding()
        );
        std::process::exit(1);
    }
    let mut ok = 0usize;
    let mut failed = 0usize;
    for id in &ids {
        match dispatcher.job_record(*id).map(|r| r.status) {
            Some(JobStatus::Succeeded) => ok += 1,
            _ => failed += 1,
        }
    }
    println!("jets: {ok} succeeded, {failed} failed");
    dispatcher.shutdown();
    if let Some(alloc) = allocation {
        alloc.join_all();
    }
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

/// `jets flight dump --stats`: the paper's run statistics over a flight
/// file's events — Eq. (1) utilization, peak load (Fig. 13) and the range
/// of workers alive (Fig. 10), exact from every change in the file —
/// computed by [`jets_core::stats`] as they would be live. The allocation
/// size is `--nodes`, or else the distinct workers the file saw register.
fn print_run_stats(events: &[jets_core::Event], args: &Args) {
    let nodes = match args.get_parse("nodes", 0usize) {
        0 => {
            let up = |e: &jets_core::Event| match e.kind {
                EventKind::WorkerUp { worker } => Some(worker),
                _ => None,
            };
            events.iter().filter_map(up).collect::<HashSet<_>>().len()
        }
        given => given,
    };
    println!("  allocation size: {nodes}");
    let done = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskEnded { .. }))
        .count();
    println!("  tasks ended:     {done}");
    if nodes > 0 {
        println!(
            "  utilization:     {:.1}%",
            100.0 * stats::measured_utilization(events, nodes)
        );
    }
    if let Some(peak) = stats::peak_load(events) {
        println!(
            "  peak load:       {} tasks / {} busy ranks at t={:.6}s",
            peak.running_tasks,
            peak.busy_ranks,
            peak.t.as_secs_f64()
        );
    }
    if let Some((min, max)) = stats::alive_range(events) {
        println!("  workers alive:   min {min}, max {max}");
    }
}

/// `jets flight dump --stats`: per-phase latency percentiles by job size,
/// computed from `JobPhases` records through the same histogram type
/// (and under the same metric name) a live `/metrics` scrape uses.
///
/// The pmi column's denominator is honest: only gangs that actually
/// released a barrier feed the pmi percentiles. Jobs with no barrier
/// (sequential jobs, or gangs that died before fencing) are counted and
/// reported separately, never folded in as zeros.
///
/// Only the dispatcher records `JobPhases`, one per finished job, so a
/// file without any is either another process's or a dispatcher's whose
/// window saw no job finish; `role` says which.
fn print_phase_stats(events: &[jets_core::Event], role: WriterRole) {
    use std::collections::BTreeMap;

    struct SizeRow {
        jobs: u64,
        queue: Histogram,
        run: Histogram,
        pmi: Histogram,
        pmi_jobs: u64,
        no_barrier: u64,
    }
    let mut by_size: BTreeMap<u32, SizeRow> = BTreeMap::new();
    for e in events {
        if let EventKind::JobPhases {
            nodes,
            queue_us,
            pmi_us,
            run_us,
            ..
        } = &e.kind
        {
            let row = by_size.entry(*nodes).or_insert_with(|| SizeRow {
                jobs: 0,
                queue: Histogram::new(),
                run: Histogram::new(),
                pmi: Histogram::new(),
                pmi_jobs: 0,
                no_barrier: 0,
            });
            row.jobs += 1;
            row.queue.record(*queue_us);
            row.run.record(*run_us);
            match pmi_us {
                Some(us) => {
                    row.pmi.record(*us);
                    row.pmi_jobs += 1;
                }
                None => row.no_barrier += 1,
            }
        }
    }
    if by_size.is_empty() {
        let why = match role {
            WriterRole::Dispatcher => "no job finished within the file's window",
            WriterRole::Relay | WriterRole::Worker | WriterRole::Unknown => {
                "only a dispatcher records them"
            }
        };
        println!("  no JobPhases records ({} file: {why})", role.as_str());
        return;
    }
    let fmt = |s: &jets_obs::HistogramSnapshot| {
        format!(
            "{:.6}/{:.6}/{:.6}",
            s.p50 as f64 / 1e6,
            s.p95 as f64 / 1e6,
            s.p99 as f64 / 1e6
        )
    };
    println!(
        "  {} p50/p95/p99 by job size (seconds):",
        jets_core::metrics::JOB_PHASE_METRIC
    );
    println!(
        "  {:>5} {:>6}  {:<28} {:<28} {:<28}",
        "nodes", "jobs", "queue", "run", "pmi"
    );
    for (nodes, row) in &by_size {
        println!(
            "  {:>5} {:>6}  {:<28} {:<28} {:<28}",
            nodes,
            row.jobs,
            fmt(&row.queue.snapshot()),
            fmt(&row.run.snapshot()),
            if row.pmi_jobs > 0 {
                format!("{} ({} gangs)", fmt(&row.pmi.snapshot()), row.pmi_jobs)
            } else {
                "-".to_string()
            }
        );
    }
    let no_barrier: u64 = by_size.values().map(|r| r.no_barrier).sum();
    if no_barrier > 0 {
        println!(
            "  {no_barrier} job(s) released no PMI barrier (sequential or died \
             before fencing); excluded from the pmi percentiles above"
        );
    }
}

/// `jets journal <dump|verify> FILE`: inspect a dispatcher write-ahead
/// journal offline. `dump` prints every intact record in append order;
/// `verify` checks framing integrity and summarizes what a restart
/// would recover. Both tolerate a torn tail (the crash case the journal
/// exists for) and report how many bytes it cost; a file that is not a
/// journal at all is an error.
fn journal_main(args: &Args) -> ! {
    let (Some(action), Some(path)) = (
        args.positional.first().map(String::as_str),
        args.positional.get(1),
    ) else {
        eprintln!("usage: jets journal <dump|verify> FILE");
        std::process::exit(2);
    };
    if action != "dump" && action != "verify" {
        eprintln!("jets journal: unknown action {action:?} (dump | verify)");
        std::process::exit(2);
    }
    let summary = match jets_core::journal::scan(std::path::Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jets journal: {path}: {e}");
            std::process::exit(1);
        }
    };
    if action == "dump" {
        for (i, rec) in summary.records.iter().enumerate() {
            println!("{i:>6}  {rec:?}");
        }
    }
    println!(
        "jets journal: {path}: {} records, {} bytes valid",
        summary.records.len(),
        summary.valid_len
    );
    if summary.dropped_bytes() > 0 {
        println!(
            "  torn tail: {} trailing bytes will be discarded on reopen",
            summary.dropped_bytes()
        );
    }
    if action == "verify" {
        let rec = jets_core::journal::recover(&summary.records);
        let queued = rec
            .jobs
            .iter()
            .filter(|j| j.phase == jets_core::journal::RecoveredPhase::Queued)
            .count();
        println!("  finished jobs:   {}", rec.finished);
        println!(
            "  recoverable:     {} ({queued} queued, {} mid-attempt)",
            rec.jobs.len(),
            rec.jobs.len() - queued
        );
        println!("  next job id:     {}", rec.next_job);
        println!("  next task id:    {}", rec.next_task);
        if !rec.strikes.is_empty() {
            println!("  quarantine strikes carried: {:?}", rec.strikes);
        }
    }
    std::process::exit(0);
}

/// `jets flight <dump|tail> FILE`: inspect a flight-recorder ring.
/// `dump` maps the file read-only and replays everything it retains —
/// the file may come from a `kill -9`'d process; torn and overwritten
/// slots are reported, not fatal. `--stats` adds the run statistics and
/// the per-phase latency table. `tail` follows a *live*
/// ring: it seats a lock-free cursor at the current head and streams
/// events as the writer commits them, without ever blocking it.
fn flight_main(args: &Args) -> ! {
    let (Some(action), Some(path)) = (
        args.positional.first().map(String::as_str),
        args.positional.get(1),
    ) else {
        eprintln!("usage: jets flight dump FILE [--stats [--nodes N]]\n       jets flight tail FILE [--interval-ms MS]");
        std::process::exit(2);
    };
    let fmt_event = |e: &jets_core::Event| format!("t={:>12.6}s  {:?}", e.t.as_secs_f64(), e.kind);
    match action {
        "dump" => {
            let view = match jets_core::read_flight(std::path::Path::new(path)) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("jets flight: {path}: {e}");
                    std::process::exit(1);
                }
            };
            for (i, e) in view.events.iter().enumerate() {
                println!("{i:>6}  {}", fmt_event(e));
            }
            println!(
                "jets flight: {path}: {} events retained of {} recorded (epoch {} us)",
                view.events.len(),
                view.total_recorded,
                view.epoch_unix_us
            );
            if view.overwritten > 0 {
                println!(
                    "  overwritten:  {} oldest events lost to the ring",
                    view.overwritten
                );
            }
            if view.torn > 0 {
                println!(
                    "  torn:         {} event(s) mid-write at the moment of death",
                    view.torn
                );
            }
            if view.undecodable > 0 {
                println!(
                    "  undecodable:  {} committed record(s) failed to decode",
                    view.undecodable
                );
            }
            if args.has_flag("stats") {
                let records = view.events.len() as u64 + view.undecodable;
                println!(
                    "  records {records} in {} slots ({:.2} per record)",
                    view.slots,
                    view.slots as f64 / records.max(1) as f64
                );
                print_run_stats(&view.events, args);
                print_phase_stats(&view.events, view.role);
            }
            std::process::exit(0);
        }
        "tail" => {
            let mut tail = match jets_core::tail_flight(std::path::Path::new(path)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("jets flight: {path}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "jets flight: tailing {path} (writer pid {}); ctrl-c to stop",
                tail.writer_pid()
            );
            let interval = Duration::from_millis(args.get_parse("interval-ms", 200u64));
            let mut lapped_seen = 0u64;
            loop {
                while let Some(e) = tail.poll() {
                    println!("{}", fmt_event(&e));
                }
                if tail.lapped() > lapped_seen {
                    eprintln!(
                        "jets flight: fell behind the writer, skipped {} event(s)",
                        tail.lapped() - lapped_seen
                    );
                    lapped_seen = tail.lapped();
                }
                std::thread::sleep(interval);
            }
        }
        _ => {
            eprintln!("jets flight: unknown action {action:?} (dump | tail)");
            std::process::exit(2);
        }
    }
}

/// `jets trace <export|critical-path JOB|stats> FLIGHT_FILE...`: merge
/// dispatcher + relay + worker flight-recorder files into one
/// cross-process span timeline. Every input may come from a `kill -9`'d
/// process — spans whose end never landed are reported as open, never
/// fatal. `export` writes Chrome trace-event / Perfetto JSON to `--out`
/// (or stdout); `critical-path JOB` prints where that job's wall time
/// went; `stats` recomputes Eq. (1) utilization from exec spans.
fn trace_main(args: &Args) -> ! {
    const USAGE: &str =
        "usage: jets trace <export|critical-path JOB|stats> FLIGHT_FILE... [--out FILE]";
    let Some(action) = args.positional.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let fmt_s = |us: u64| format!("{:.6}", us as f64 / 1e6);
    let load = |paths: &[String]| -> jets_trace::TraceModel {
        if paths.is_empty() {
            eprintln!("jets trace: no flight files given\n{USAGE}");
            std::process::exit(2);
        }
        match jets_trace::TraceModel::from_files(paths) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("jets trace: {e}");
                std::process::exit(1);
            }
        }
    };
    let lane_summary = |m: &jets_trace::TraceModel| {
        for lane in &m.lanes {
            println!(
                "  lane {} (pid {}): torn {}, undecodable {}, overwritten {}",
                lane.role.as_str(),
                lane.pid,
                lane.torn,
                lane.undecodable,
                lane.overwritten
            );
        }
        if m.unmatched_ends > 0 {
            println!(
                "  {} span end(s) whose start was lost to ring wraparound",
                m.unmatched_ends
            );
        }
        if !m.open.is_empty() {
            println!(
                "  {} span(s) still open at end of log (crash or in flight)",
                m.open.len()
            );
        }
    };
    match action {
        "export" => {
            let model = load(&args.positional[1..]);
            let json = model.perfetto_json();
            match args.get("out") {
                Some(out) => {
                    if let Err(e) = std::fs::write(out, &json) {
                        eprintln!("jets trace: cannot write {out}: {e}");
                        std::process::exit(1);
                    }
                    println!(
                        "jets trace: wrote {} span(s) from {} lane(s) to {out}",
                        model.spans.len(),
                        model.lanes.len()
                    );
                    lane_summary(&model);
                }
                None => print!("{json}"),
            }
            std::process::exit(0);
        }
        "critical-path" => {
            let Some(Ok(job)) = args.positional.get(1).map(|s| s.parse::<u64>()) else {
                eprintln!("jets trace: critical-path needs a numeric JOB id\n{USAGE}");
                std::process::exit(2);
            };
            let model = load(&args.positional[2..]);
            let Some(cp) = model.critical_path(job) else {
                eprintln!("jets trace: no spans for job {job}");
                std::process::exit(1);
            };
            println!(
                "jets trace: job {job} (trace {:#018x}): {} s wall across {} lane(s)",
                cp.trace,
                fmt_s(cp.total_us),
                model.lanes.len()
            );
            println!(
                "  {:<14} {:>5} {:>12} {:>7}",
                "phase", "spans", "seconds", "share"
            );
            for p in &cp.phases {
                println!(
                    "  {:<14} {:>5} {:>12} {:>6.1}%",
                    p.kind.as_str(),
                    p.spans,
                    fmt_s(p.dur_us),
                    p.share * 100.0
                );
            }
            println!(
                "  {:<14} {:>5} {:>12} {:>6.1}%",
                "(slack)",
                "",
                fmt_s(cp.slack_us),
                cp.slack_us as f64 / cp.total_us as f64 * 100.0
            );
            if let Some(task) = cp.dominant_task {
                println!("  dominant task {task} (last exec to finish):");
                for p in &cp.task_phases {
                    println!(
                        "  {:<14} {:>5} {:>12} {:>6.1}%",
                        p.kind.as_str(),
                        p.spans,
                        fmt_s(p.dur_us),
                        p.share * 100.0
                    );
                }
            }
            lane_summary(&model);
            std::process::exit(0);
        }
        "stats" => {
            let model = load(&args.positional[1..]);
            let st = model.stats();
            println!(
                "jets trace: {} job(s), {} closed span(s) over {} s",
                st.jobs,
                st.spans,
                fmt_s(st.window_us)
            );
            println!(
                "  utilization (Eq. 1): {:.4} ({} s exec-busy / {} worker lane(s) x {} s)",
                st.utilization,
                fmt_s(st.busy_us),
                st.worker_lanes,
                fmt_s(st.window_us)
            );
            println!(
                "  {:<14} {:>6} {:>12} {:>12} {:>12}",
                "kind", "count", "total s", "mean s", "max s"
            );
            for k in &st.per_kind {
                if k.count == 0 {
                    continue;
                }
                println!(
                    "  {:<14} {:>6} {:>12} {:>12} {:>12}",
                    k.kind.as_str(),
                    k.count,
                    fmt_s(k.total_us),
                    fmt_s(k.mean_us),
                    fmt_s(k.max_us)
                );
            }
            lane_summary(&model);
            std::process::exit(0);
        }
        _ => {
            eprintln!("jets trace: unknown action {action:?} (export | critical-path | stats)");
            std::process::exit(2);
        }
    }
}

/// `jets top`: poll a `/metrics` endpoint and render a one-screen
/// snapshot of the dispatcher.
fn top_main(args: &Args) -> ! {
    let Some(addr) = args.get("metrics") else {
        eprintln!("usage: jets top --metrics ADDR [--interval-ms MS] [--once]");
        std::process::exit(2);
    };
    let interval = Duration::from_millis(args.get_parse("interval-ms", 1000u64));
    let once = args.has_flag("once");
    scrape_loop(addr, interval, once);
}

/// The polling loop behind `jets top`. Never panics: a failed scrape is
/// reported and retried (`--once` turns it into a nonzero exit).
fn scrape_loop(addr: &str, interval: Duration, once: bool) -> ! {
    let mut tick = 0u64;
    loop {
        tick += 1;
        match jets_obs::scrape(addr, "/metrics") {
            Ok(text) => {
                let scrape = Scrape::parse(&text);
                if !once {
                    // Clear and home, terminal-top style.
                    print!("\x1b[2J\x1b[H");
                }
                render_top(addr, tick, &scrape);
            }
            Err(e) => {
                eprintln!("jets top: scrape {addr} failed: {e}");
                if once {
                    std::process::exit(1);
                }
            }
        }
        if once {
            std::process::exit(0);
        }
        std::thread::sleep(interval);
    }
}

/// Print one `jets top` frame from a parsed scrape.
fn render_top(addr: &str, tick: u64, s: &Scrape) {
    let v = |name: &str| s.value(name).unwrap_or(0.0);
    println!("jets top — {addr} (scrape #{tick})");
    println!();
    println!(
        "  jobs     submitted {:>8}  completed {:>8}  failed {:>6}  requeued {:>6}",
        v("jets_jobs_submitted_total"),
        v("jets_jobs_completed_total"),
        v("jets_jobs_failed_total"),
        v("jets_jobs_requeued_total"),
    );
    println!(
        "  queue    depth {:>8}      running gangs {:>6}",
        v("jets_queue_depth"),
        v("jets_running_gangs"),
    );
    println!(
        "  workers  alive {:>6}  ready {:>6}  busy {:>6}  quarantined {:>4}  relays {:>4}",
        v("jets_workers_alive"),
        v("jets_workers_ready"),
        v("jets_workers_busy"),
        v("jets_quarantined_current"),
        v("jets_relays_current"),
    );
    println!(
        "  faults   reconnects {:>6}  deadline-exceeded {:>6}",
        v("jets_reconnects_total"),
        v("jets_deadline_exceeded_total"),
    );
    println!();
    println!("  phase latency (seconds)        p50         p95         p99");
    for phase in jets_core::metrics::JOB_PHASES {
        let q = s.quantiles(jets_core::metrics::JOB_PHASE_METRIC, "phase", phase);
        let get = |k: &str| q.get(k).copied().unwrap_or(0.0);
        println!(
            "    {:<8} {:>21.6} {:>11.6} {:>11.6}",
            phase,
            get("0.5"),
            get("0.95"),
            get("0.99"),
        );
    }
}
