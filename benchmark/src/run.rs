//! Running a workload: repetitions on a booted testbed, the output
//! checks after each one, and the two passes built from them — the
//! untraced end-to-end pass and the per-layer pass (untraced twin for
//! counts, traced run for spans, floors).

use crate::floors;
use crate::metrics::{Row, END_TO_END_EXTRA, SPANS};
use crate::testbed::{Exec, Testbed, TestbedConfig};
use crate::util::{
    cpu_time_us, high_percentile, host_cpus, median, peak_rss_mb, pin_to, summarize, Scratch,
    SplitMix64, Summary,
};
use crate::workloads::{Workload, REPLAY_JOBS};
use jets_core::{CommandSpec, Dispatcher, DispatcherConfig, FsyncPolicy, JobSpec, JobStatus};
use jets_trace::TraceModel;
use std::io;
use std::time::{Duration, Instant};

/// Set-ups (boot + liveness batch) per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A repetition that has not drained by then counts every job failed.
const REP_TIMEOUT: Duration = Duration::from_secs(40);
/// Repetitions of the traced pass and of its untraced twin.
const TRACED_REPS: usize = 5;

/// What one pass produced.
#[derive(Default)]
pub struct Outcome {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, in words; empty means correct.
    pub problems: Vec<String>,
}

/// One repetition: a batch submitted by one thread and drained.
struct Rep {
    jobs: usize,
    ids: Vec<u64>,
    wall_s: f64,
    cpu_us: u64,
    submit_ns: u64,
    /// Σ nominal duration × ranks, the numerator of Eq. (1).
    busy_us: u64,
    /// Per worker, next task's start − previous task's end.
    gaps_us: Vec<f64>,
    /// Wrapper time − nominal duration, per task.
    overhead_us: Vec<f64>,
    /// Last − first rank start, per multi-node job.
    skew_us: Vec<f64>,
    tasks_failed: u64,
}

impl Rep {
    fn launch_rate(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }

    fn utilization(&self, workers: usize) -> f64 {
        self.busy_us as f64 / (workers as f64 * self.wall_s * 1e6)
    }
}

/// Runs one batch, checks its outputs and books both into `out`.
fn run_rep(tb: &Testbed, specs: Vec<JobSpec>, out: &mut Outcome) -> Rep {
    let problems = &mut out.problems;
    let d = &tb.dispatcher;
    let jobs = specs.len();
    let tasks_expected: u64 = specs.iter().map(|s| u64::from(s.nodes)).sum();
    for e in &tb.execs {
        e.drain();
    }
    let known_problems = problems.len();
    let m = d.metrics();
    let (completed0, requeued0) = (m.jobs_completed_total.get(), m.jobs_requeued_total.get());
    let cpu0 = cpu_time_us();
    let started = Instant::now();
    let ids = d.submit_all(specs);
    let submit_ns = started.elapsed().as_nanos() as u64;
    let drained = d.wait_idle(REP_TIMEOUT);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_us = cpu_time_us() - cpu0;

    // Output checks: every job Succeeded exactly once with clean exits.
    let mut failed = 0;
    let mut tasks_failed = 0;
    for id in &ids {
        let ok = d.job_record(*id).is_some_and(|r| {
            tasks_failed += r.exit_codes.iter().filter(|&&c| c != 0).count() as u64;
            r.status == JobStatus::Succeeded
                && r.attempts == 1
                && r.exit_codes.len() == r.spec.nodes as usize
                && r.exit_codes.iter().all(|&c| c == 0)
        });
        failed += usize::from(!ok);
    }
    if !drained {
        problems.push(format!(
            "repetition of {jobs} jobs did not drain in {REP_TIMEOUT:?}"
        ));
    }
    let completed = m.jobs_completed_total.get() - completed0;
    if completed != jobs as u64 {
        problems.push(format!(
            "jobs_completed_total moved by {completed}, submitted {jobs}"
        ));
    }
    let requeued = m.jobs_requeued_total.get() - requeued0;
    if requeued != 0 {
        problems.push(format!("jobs_requeued_total moved by {requeued}"));
    }

    let logs: Vec<Vec<Exec>> = tb.execs.iter().map(|e| e.drain()).collect();
    let calls: u64 = logs.iter().map(|l| l.len() as u64).sum();
    if calls != tasks_expected {
        problems.push(format!(
            "executors ran {calls} tasks, expected {tasks_expected}"
        ));
    }
    if problems.len() > known_problems {
        // A repetition that times out or fails an aggregate check
        // counts all its jobs: which ones were affected is unknown.
        failed = jobs;
    }
    out.attempted += jobs as u64;
    out.failed += failed as u64;
    let mut rep = Rep {
        jobs,
        wall_s,
        cpu_us,
        submit_ns,
        busy_us: 0,
        gaps_us: Vec::new(),
        overhead_us: Vec::new(),
        skew_us: Vec::new(),
        tasks_failed,
        ids,
    };
    let mut first_last: std::collections::HashMap<u64, (u64, u64)> = Default::default();
    for log in &logs {
        for pair in log.windows(2) {
            rep.gaps_us
                .push(pair[1].start_ns.saturating_sub(pair[0].end_ns) as f64 / 1e3);
        }
        for e in log {
            rep.busy_us += e.nominal_us;
            rep.overhead_us
                .push((e.end_ns - e.start_ns) as f64 / 1e3 - e.nominal_us as f64);
            let span = first_last.entry(e.job).or_insert((e.start_ns, e.start_ns));
            *span = (span.0.min(e.start_ns), span.1.max(e.start_ns));
        }
    }
    if tasks_expected > jobs as u64 {
        rep.skew_us = first_last
            .values()
            .map(|(first, last)| (last - first) as f64 / 1e3)
            .collect();
    }
    rep
}

fn testbed_config(w: &Workload, scratch: &Scratch, boot: usize, traced: bool) -> TestbedConfig {
    let trace_dir = traced.then(|| scratch.path("flight"));
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).ok();
    }
    TestbedConfig {
        workers: w.workers,
        relay: w.relay,
        journal: w
            .journal
            .then(|| scratch.path(&format!("journal-{boot}.wal"))),
        trace_dir,
        // ~20 ring records per job on the dispatcher lane, warm-up
        // included; the next power of two keeps the traced pass from
        // lapping its own ring.
        flight_capacity: (w.traced_jobs_per_rep * (TRACED_REPS + 1) * 24).next_power_of_two(),
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Summary {
    summarize(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end quantities `compare` gates but the `--trace 0`
/// contract line leaves out (see `END_TO_END_EXTRA`).
fn run_rows(w: &Workload, reps: &[Rep]) -> [Row; 3] {
    [
        Row::new(
            w.name,
            "run.idle_gap_p50_us",
            "us",
            median_of(reps, |r| median(&r.gaps_us)),
        ),
        Row::new(
            w.name,
            "run.cpu_us_per_job",
            "us",
            median_of(reps, |r| r.cpu_us as f64 / r.jobs as f64),
        ),
        Row::new(
            w.name,
            "run.utilization",
            "ratio",
            median_of(reps, |r| r.utilization(w.workers)),
        ),
    ]
}

/// Submit [`REPLAY_JOBS`] to a worker-less journaled dispatcher, kill
/// it, and time restarts on the same journal until they run out of
/// `budget` (at least `min` of them). Seconds per replay.
fn measure_replay(
    scratch: &Scratch,
    min: usize,
    budget: Duration,
    problems: &mut Vec<String>,
) -> io::Result<Vec<f64>> {
    // Replay runs on the CPU the testbed gives its dispatcher.
    pin_to(&host_cpus()[..1]);
    let config = DispatcherConfig {
        journal: Some(scratch.path("replay.wal")),
        fsync_policy: FsyncPolicy::Interval,
        ..DispatcherConfig::default()
    };
    let d = Dispatcher::start(config.clone())?;
    d.submit_all(
        (0..REPLAY_JOBS).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))),
    );
    d.kill();
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || started.elapsed() < budget {
        let t0 = Instant::now();
        let d = Dispatcher::start(config.clone())?;
        while d.recovering() {
            std::thread::sleep(Duration::from_micros(100));
        }
        let queued = d.outstanding();
        times.push(t0.elapsed().as_secs_f64());
        if queued != REPLAY_JOBS {
            problems.push(format!(
                "replay rebuilt {queued} jobs, journal holds {REPLAY_JOBS}"
            ));
        }
        d.kill();
    }
    Ok(times)
}

/// Zero with `n = 0` off the journal workload, where nothing replays.
fn replay_row(workload: &str, replays: &[f64]) -> Row {
    match replays.is_empty() {
        true => Row::single(workload, "journal.recover_replay_s", "s", 0.0, 0),
        false => Row::new(
            workload,
            "journal.recover_replay_s",
            "s",
            summarize(replays),
        ),
    }
}

/// The end-to-end pass: tracing off, `seconds` of measured repetitions.
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let scratch = Scratch::new()?;
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(seed);

    // Set-up: boot the testbed and prove it live with a fixed batch of
    // timed tasks (ten 5 ms sleeps per worker), several times over; the
    // last testbed stays up for the measured repetitions. The sleeps
    // put a constant ~50 ms under the boot's millisecond, which alone is
    // too short and too scheduler-dependent to gate: the 25 % bound then
    // tolerates ~14 ms of work moved into set-up, not 0.25 ms.
    let (mut setups, mut boots) = (Vec::new(), Vec::new());
    let tb = loop {
        let probe = (0..10 * w.workers)
            .map(|_| JobSpec::sequential(CommandSpec::builtin("sleep", vec!["5".into()])))
            .collect();
        let started = Instant::now();
        let tb = Testbed::boot(&testbed_config(w, &scratch, setups.len(), false))?;
        run_rep(&tb, probe, &mut out);
        setups.push(started.elapsed().as_secs_f64());
        boots.push(tb.setup.as_secs_f64() * 1e3);
        if setups.len() == SETUPS {
            break tb;
        }
        tb.shutdown();
    };
    // Warm-up on the workload's own jobs: buffers grow to their
    // high-water mark, threads fault in.
    run_rep(&tb, w.specs(&mut rng, w.jobs_per_rep / 4), &mut out);

    // The journal workload spends the tail of its window on replay.
    let window = Duration::from_secs(seconds);
    let rep_window = if w.journal {
        window.mul_f64(0.8)
    } else {
        window
    };
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss = f64::NAN;
    while out.problems.is_empty() && (reps.len() < 3 || started.elapsed() < rep_window) {
        reps.push(run_rep(&tb, w.specs(&mut rng, w.jobs_per_rep), &mut out));
        if reps.len() == 3 {
            // Sampled after a fixed amount of work, so a faster build
            // that fits more repetitions in the window does not read
            // as a bigger footprint.
            peak_rss = peak_rss_mb();
        }
    }
    tb.shutdown();
    let replays = if w.journal && out.problems.is_empty() {
        let budget = window.saturating_sub(started.elapsed());
        measure_replay(&scratch, 3, budget, &mut out.problems)?
    } else {
        Vec::new()
    };

    let name = w.name;
    let row = |metric: &str, unit: &str, s| Row::new(name, metric, unit, s);
    out.rows = vec![
        row("launch_rate", "jobs/s", median_of(&reps, Rep::launch_rate)),
        Row::single(name, "peak_rss_mb", "MB", peak_rss, 1),
        row("setup_s", "s", summarize(&setups)),
        // The boot alone: dispatcher (+ relay) start to all workers
        // registered. Reported, not gated.
        row("run.boot_ms", "ms", summarize(&boots)),
        replay_row(name, &replays),
        Row::single(
            name,
            "run.failed_share",
            "ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.attempted,
        ),
    ];
    out.rows.extend(run_rows(w, &reps));
    Ok(out)
}

/// Rows for one span kind of the merged trace.
fn span_rows(name: &str, prefix: &str, durations: &mut [f64]) -> [Row; 2] {
    durations.sort_by(f64::total_cmp);
    let mut s = summarize(durations);
    let p50 = Row::new(name, &format!("{prefix}_p50_us"), "us", s);
    let (pct, hi) = high_percentile(durations);
    s.median = hi;
    let mut hi = Row::new(name, &format!("{prefix}_hi_us"), "us", s);
    hi.pct = Some(pct);
    [p50, hi]
}

/// Warm-up plus [`TRACED_REPS`] repetitions of the traced size.
fn traced_size_reps(
    w: &Workload,
    tb: &Testbed,
    rng: &mut SplitMix64,
    out: &mut Outcome,
) -> (Rep, Vec<Rep>) {
    let n = w.traced_jobs_per_rep;
    let warm = run_rep(tb, w.specs(rng, n / 2), out);
    let reps = (0..TRACED_REPS)
        .map(|_| run_rep(tb, w.specs(rng, n), out))
        .collect();
    (warm, reps)
}

/// The per-layer pass: an untraced twin (counts, baseline rate), the
/// traced run (span percentiles, overhead), replay, and the floors.
pub fn per_layer(w: &Workload, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let scratch = Scratch::new()?;
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(seed);
    let name = w.name;
    let mut rows = Vec::new();

    // Untraced twin: same repetition size as the traced run.
    let tb = Testbed::boot(&testbed_config(w, &scratch, 0, false))?;
    let d = &tb.dispatcher;
    let stats = d.reactor_stats();
    let m = d.metrics();
    let journal = scratch.path("journal-0.wal");
    let counters = || {
        [
            ("reactor.wakeups_per_job", "count", stats.wakeups()),
            ("reactor.frames_in_per_job", "count", stats.frames_in()),
            ("reactor.bytes_in_per_job", "bytes", stats.bytes_in()),
            ("reactor.bytes_out_per_job", "bytes", stats.bytes_out()),
            ("events.recorded_per_job", "count", d.events().len() as u64),
            (
                "journal.records_per_job",
                "count",
                m.journal_records_total.get(),
            ),
            (
                "journal.bytes_per_job",
                "bytes",
                std::fs::metadata(&journal).map_or(0, |md| md.len()),
            ),
        ]
    };
    let before = counters();
    let (warm, plain) = traced_size_reps(w, &tb, &mut rng, &mut out);
    let jobs = plain
        .iter()
        .chain([&warm])
        .map(|r| r.jobs as u64)
        .sum::<u64>();
    for ((metric, unit, after), (_, _, before)) in counters().into_iter().zip(before) {
        let per_job = (after - before) as f64 / jobs as f64;
        rows.push(Row::single(name, metric, unit, per_job, jobs));
    }
    let count = |metric: &str, unit: &str, v: u64| Row::single(name, metric, unit, v as f64, 1);
    rows.extend([
        count(
            "reactor.outbox_high_water_bytes",
            "bytes",
            stats.outbox_high_water(),
        ),
        count(
            "reactor.slow_consumer_disconnects",
            "count",
            stats.slow_consumer_disconnects(),
        ),
        count(
            "dispatcher.jobs_requeued",
            "count",
            m.jobs_requeued_total.get(),
        ),
        count(
            "relay.upqueue_dropped",
            "count",
            tb.relay
                .as_ref()
                .map_or(0, |r| r.metrics().upqueue_dropped_total.get()),
        ),
        count(
            "relay.batched_heartbeats",
            "count",
            tb.relay.as_ref().map_or(0, |r| r.stats().batched_frames),
        ),
        count(
            "worker.tasks_failed",
            "count",
            plain.iter().chain([&warm]).map(|r| r.tasks_failed).sum(),
        ),
        Row::new(
            name,
            "dispatcher.submit_all_ns_per_job",
            "ns",
            median_of(&plain, |r| r.submit_ns as f64 / r.jobs as f64),
        ),
        Row::new(
            name,
            "worker.exec_overhead_p50_us",
            "us",
            median_of(&plain, |r| median(&r.overhead_us)),
        ),
        Row::new(
            name,
            "mpi.gang_start_skew_p50_us",
            "us",
            // No multi-node job, no skew: zero, not NaN.
            median_of(&plain, |r| match r.skew_us.is_empty() {
                true => 0.0,
                false => median(&r.skew_us),
            }),
        ),
    ]);
    rows.extend(run_rows(w, &plain));
    let mut gaps: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.gaps_us.iter().copied())
        .collect();
    let [_, gap_hi] = span_rows(name, "worker.idle_gap", &mut gaps);
    rows.push(gap_hi);
    tb.shutdown();

    // Traced run: the program's own span stream, public config only.
    let tb = Testbed::boot(&testbed_config(w, &scratch, 1, true))?;
    let (warm, traced) = traced_size_reps(w, &tb, &mut rng, &mut out);
    let files = tb.shutdown();
    let model = TraceModel::from_files(&files)?;
    let traced_jobs: Vec<u64> = traced
        .iter()
        .chain([&warm])
        .flat_map(|r| r.ids.iter().copied())
        .collect();
    if model.unmatched_ends != 0 {
        out.problems.push(format!(
            "trace has {} unmatched span ends",
            model.unmatched_ends
        ));
    }
    if !model.open.is_empty() {
        out.problems.push(format!(
            "trace has {} open spans after shutdown",
            model.open.len()
        ));
    }
    let unclosed = traced_jobs
        .iter()
        .filter(|id| !model.job_chain_closed(**id))
        .count();
    if unclosed != 0 {
        out.problems.push(format!(
            "{unclosed} of {} traced jobs lack a closed span chain",
            traced_jobs.len()
        ));
    }
    for (prefix, kind) in SPANS {
        let mut durations: Vec<f64> = model
            .spans
            .iter()
            .filter(|s| s.kind == *kind)
            .map(|s| s.dur_us() as f64)
            .collect();
        let mut pair = span_rows(name, prefix, &mut durations);
        for row in &mut pair {
            if row.n == 0 {
                // No such span on this workload: zero, not NaN.
                (row.median, row.q1, row.q3) = (0.0, 0.0, 0.0);
            }
        }
        rows.extend(pair);
    }
    let plain_rate = median_of(&plain, Rep::launch_rate).median;
    let traced_rate = median_of(&traced, Rep::launch_rate).median;
    rows.extend([
        Row::single(
            name,
            "trace.spans_per_job",
            "count",
            model.spans.len() as f64 / traced_jobs.len() as f64,
            traced_jobs.len() as u64,
        ),
        Row::single(
            name,
            "trace.open_spans",
            "count",
            model.open.len() as f64,
            1,
        ),
        Row::single(
            name,
            "trace.overhead_pct",
            "%",
            (plain_rate - traced_rate) / plain_rate * 100.0,
            TRACED_REPS as u64,
        ),
    ]);

    let replays = match w.journal {
        true => measure_replay(&scratch, 3, Duration::ZERO, &mut out.problems)?,
        false => Vec::new(),
    };
    rows.push(replay_row(name, &replays));
    if !out.problems.is_empty() && out.failed == 0 {
        // A failed trace or replay check cannot name its jobs either.
        out.failed = traced_jobs.len() as u64;
    }
    rows.push(Row::single(
        name,
        "run.failed_share",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    ));
    debug_assert!(END_TO_END_EXTRA
        .iter()
        .all(|m| rows.iter().any(|r| r.metric == m.name)));

    // Floors get whatever is left of the window, never less than 2 s,
    // and every CPU: some of them spin a second thread.
    pin_to(host_cpus());
    let floor_budget = Duration::from_secs(seconds)
        .mul_f64(0.3)
        .max(Duration::from_secs(2));
    rows.extend(floors::all(&scratch, seed, floor_budget)?);
    out.rows = rows;
    Ok(out)
}
