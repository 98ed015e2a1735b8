//! Derived statistics: the quantities the paper's figures plot.
//!
//! * [`utilization_eq1`] — Equation (1) of the paper:
//!   `utilization = duration × jobs × n / (allocation_size × time)`.
//! * [`measured_utilization`] — the same quantity computed from observed
//!   task start/end events rather than nominal durations.
//! * [`load_series`] — running tasks / busy ranks over time (Figs. 10, 13).
//! * [`availability_series`] — live-worker count over time (Fig. 10).
//! * [`peak_load`], [`alive_range`] — the exact extremes of those two,
//!   from every change rather than from samples.
//! * [`histogram`] — run-time distribution binning (Fig. 11).

use crate::events::{Event, EventKind};
use std::collections::HashMap;
use std::time::Duration;

/// Equation (1): utilization of an allocation of `allocation_size` nodes
/// over `total_time`, by `jobs` jobs of `n` nodes each running for
/// `duration`.
pub fn utilization_eq1(
    duration: Duration,
    jobs: usize,
    n: usize,
    allocation_size: usize,
    total_time: Duration,
) -> f64 {
    if allocation_size == 0 || total_time.is_zero() {
        return 0.0;
    }
    duration.as_secs_f64() * jobs as f64 * n as f64
        / (allocation_size as f64 * total_time.as_secs_f64())
}

/// Utilization computed from the event log: total busy node-seconds
/// (between each `TaskStarted` and its `TaskEnded`) divided by
/// `allocation_size × makespan`, where the makespan runs from the first
/// task start to the last task end.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "utilization reads only task starts and ends out of a whole log"
)]
pub fn measured_utilization(events: &[Event], allocation_size: usize) -> f64 {
    let mut open: HashMap<u64, Duration> = HashMap::new();
    let mut busy = Duration::ZERO;
    let mut first: Option<Duration> = None;
    let mut last: Option<Duration> = None;
    for e in events {
        match &e.kind {
            EventKind::TaskStarted { task, .. } => {
                open.insert(*task, e.t);
                if first.is_none() {
                    first = Some(e.t);
                }
            }
            EventKind::TaskEnded { task, .. } => {
                if let Some(start) = open.remove(task) {
                    busy += e.t.saturating_sub(start);
                    last = Some(e.t);
                }
            }
            _ => {}
        }
    }
    let (Some(first), Some(last)) = (first, last) else {
        return 0.0;
    };
    let makespan = last.saturating_sub(first);
    if makespan.is_zero() || allocation_size == 0 {
        return 0.0;
    }
    busy.as_secs_f64() / (allocation_size as f64 * makespan.as_secs_f64())
}

/// One sample of system load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSample {
    /// Sample time since the log epoch.
    pub t: Duration,
    /// Tasks executing at this instant.
    pub running_tasks: usize,
    /// Sum of ranks of executing tasks ("busy cores" in Fig. 13).
    pub busy_ranks: usize,
}

/// Sample running-task and busy-rank counts every `step` across the span
/// of the log.
pub fn load_series(events: &[Event], step: Duration) -> Vec<LoadSample> {
    assert!(!step.is_zero(), "step must be positive");
    let deltas = load_deltas(events);
    let Some(&(end, ..)) = deltas.last() else {
        return Vec::new();
    };
    let mut samples = Vec::new();
    let mut tasks: i64 = 0;
    let mut ranks: i64 = 0;
    let mut di = 0;
    let mut t = Duration::ZERO;
    loop {
        while di < deltas.len() && deltas[di].0 <= t {
            tasks += deltas[di].1;
            ranks += deltas[di].2;
            di += 1;
        }
        samples.push(LoadSample {
            t,
            running_tasks: tasks.max(0) as usize,
            busy_ranks: ranks.max(0) as usize,
        });
        if t >= end {
            break;
        }
        t += step;
    }
    samples
}

/// The load at the first instant the most ranks were busy: exact, from
/// every task start and end, where [`load_series`] sees only the
/// instants it samples. `None` for a log with no task in it.
pub fn peak_load(events: &[Event]) -> Option<LoadSample> {
    let (mut tasks, mut ranks) = (0i64, 0i64);
    let mut peak: Option<LoadSample> = None;
    let deltas = load_deltas(events);
    for (i, &(t, dt, dr)) in deltas.iter().enumerate() {
        (tasks, ranks) = (tasks + dt, ranks + dr);
        let busy_ranks = ranks.max(0) as usize;
        // A start and an end at one instant are one change.
        let settled = deltas.get(i + 1).is_none_or(|next| next.0 > t);
        if settled && peak.is_none_or(|p| busy_ranks > p.busy_ranks) {
            let running_tasks = tasks.max(0) as usize;
            peak = Some(LoadSample {
                t,
                running_tasks,
                busy_ranks,
            });
        }
    }
    peak
}

/// Task starts and ends as `(t, ±1 task, ±ranks)`, in time order.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "the load reads only task starts and ends out of a whole log"
)]
fn load_deltas(events: &[Event]) -> Vec<(Duration, i64, i64)> {
    let mut deltas: Vec<(Duration, i64, i64)> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::TaskStarted { ranks, .. } => deltas.push((e.t, 1, *ranks as i64)),
            EventKind::TaskEnded { ranks, .. } => deltas.push((e.t, -1, -(*ranks as i64))),
            _ => {}
        }
    }
    deltas.sort_by_key(|d| d.0);
    deltas
}

/// One sample of worker availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvailabilitySample {
    /// Sample time since the log epoch.
    pub t: Duration,
    /// Workers alive at this instant.
    pub alive: usize,
}

/// Sample the live-worker count every `step` across the span of the log
/// (the "nodes available" line of Fig. 10).
pub fn availability_series(events: &[Event], step: Duration) -> Vec<AvailabilitySample> {
    assert!(!step.is_zero(), "step must be positive");
    let deltas = availability_deltas(events);
    if deltas.is_empty() {
        return Vec::new();
    }
    let end = events.iter().map(|e| e.t).max().unwrap_or(Duration::ZERO);
    let mut samples = Vec::new();
    let mut alive: i64 = 0;
    let mut di = 0;
    let mut t = Duration::ZERO;
    loop {
        while di < deltas.len() && deltas[di].0 <= t {
            alive += deltas[di].1;
            di += 1;
        }
        samples.push(AvailabilitySample {
            t,
            alive: alive.max(0) as usize,
        });
        if t >= end {
            break;
        }
        t += step;
    }
    samples
}

/// The fewest and the most workers alive at once, from the first worker
/// up or down on: exact, from every change, where
/// [`availability_series`] sees only the instants it samples. `None` for
/// a log with no worker in it.
pub fn alive_range(events: &[Event]) -> Option<(usize, usize)> {
    let mut alive = 0i64;
    let mut range: Option<(usize, usize)> = None;
    let deltas = availability_deltas(events);
    for (i, &(t, d)) in deltas.iter().enumerate() {
        alive += d;
        if deltas.get(i + 1).is_none_or(|next| next.0 > t) {
            let n = alive.max(0) as usize;
            range = Some(range.map_or((n, n), |(lo, hi)| (lo.min(n), hi.max(n))));
        }
    }
    range
}

/// Worker ups and downs as `(t, ±1)`, in time order.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "availability reads only worker ups and downs out of a whole log"
)]
fn availability_deltas(events: &[Event]) -> Vec<(Duration, i64)> {
    let mut deltas: Vec<(Duration, i64)> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::WorkerUp { .. } => deltas.push((e.t, 1)),
            EventKind::WorkerDown { .. } => deltas.push((e.t, -1)),
            _ => {}
        }
    }
    deltas.sort_by_key(|d| d.0);
    deltas
}

/// Task wall times (seconds) extracted from the log, one per completed
/// task.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "wall times read only task starts and ends out of a whole log"
)]
pub fn task_wall_times(events: &[Event]) -> Vec<f64> {
    let mut open: HashMap<u64, Duration> = HashMap::new();
    let mut walls = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::TaskStarted { task, .. } => {
                open.insert(*task, e.t);
            }
            EventKind::TaskEnded { task, .. } => {
                if let Some(start) = open.remove(task) {
                    walls.push(e.t.saturating_sub(start).as_secs_f64());
                }
            }
            _ => {}
        }
    }
    walls
}

/// A histogram bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge.
    pub hi: f64,
    /// Sample count in `[lo, hi)`.
    pub count: usize,
}

/// Bin `samples` into fixed-width bins from the sample minimum.
pub fn histogram(samples: &[f64], bin_width: f64) -> Vec<HistogramBin> {
    assert!(bin_width > 0.0, "bin width must be positive");
    if samples.is_empty() {
        return Vec::new();
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let nbins = (((max - min) / bin_width).floor() as usize) + 1;
    let mut bins: Vec<HistogramBin> = (0..nbins)
        .map(|i| HistogramBin {
            lo: min + i as f64 * bin_width,
            hi: min + (i + 1) as f64 * bin_width,
            count: 0,
        })
        .collect();
    for &s in samples {
        let idx = (((s - min) / bin_width).floor() as usize).min(nbins - 1);
        bins[idx].count += 1;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    fn ev(ms: u64, kind: EventKind) -> Event {
        Event {
            t: Duration::from_millis(ms),
            kind,
        }
    }

    fn task_started(ms: u64, task: u64, ranks: u32) -> Event {
        ev(
            ms,
            EventKind::TaskStarted {
                task,
                job: 0,
                worker: task,
                ranks,
            },
        )
    }

    fn task_ended(ms: u64, task: u64, ranks: u32) -> Event {
        ev(
            ms,
            EventKind::TaskEnded {
                task,
                job: 0,
                worker: task,
                ranks,
                exit_code: 0,
                trace: 0,
            },
        )
    }

    #[test]
    fn eq1_matches_the_paper_formula() {
        // 64 jobs of 4 nodes × 10 s in a 256-node allocation over 10 s:
        // exactly full.
        let u = utilization_eq1(Duration::from_secs(10), 64, 4, 256, Duration::from_secs(10));
        assert!((u - 1.0).abs() < 1e-12);
        // Twice the time: 50 %.
        let u = utilization_eq1(Duration::from_secs(10), 64, 4, 256, Duration::from_secs(20));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eq1_degenerate_inputs() {
        assert_eq!(
            utilization_eq1(Duration::from_secs(1), 1, 1, 0, Duration::from_secs(1)),
            0.0
        );
        assert_eq!(
            utilization_eq1(Duration::from_secs(1), 1, 1, 1, Duration::ZERO),
            0.0
        );
    }

    #[test]
    fn measured_utilization_from_events() {
        // Two workers; each busy 100 ms of a 200 ms makespan → 50 %.
        let events = vec![
            task_started(0, 1, 1),
            task_ended(100, 1, 1),
            task_started(100, 2, 1),
            task_ended(200, 2, 1),
        ];
        let u = measured_utilization(&events, 2);
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn measured_utilization_empty_log() {
        assert_eq!(measured_utilization(&[], 4), 0.0);
    }

    #[test]
    fn load_series_counts_overlap() {
        let events = vec![
            task_started(0, 1, 4),
            task_started(10, 2, 2),
            task_ended(20, 1, 4),
            task_ended(30, 2, 2),
        ];
        let series = load_series(&events, Duration::from_millis(10));
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].running_tasks, 1);
        assert_eq!(series[0].busy_ranks, 4);
        assert_eq!(series[1].running_tasks, 2);
        assert_eq!(series[1].busy_ranks, 6);
        assert_eq!(series[2].running_tasks, 1);
        assert_eq!(series[2].busy_ranks, 2);
        assert_eq!(series[3].running_tasks, 0);
    }

    #[test]
    fn availability_series_tracks_deaths() {
        let events = vec![
            ev(0, EventKind::WorkerUp { worker: 1 }),
            ev(0, EventKind::WorkerUp { worker: 2 }),
            ev(15, EventKind::WorkerDown { worker: 1 }),
            ev(30, EventKind::WorkerDown { worker: 2 }),
        ];
        let series = availability_series(&events, Duration::from_millis(10));
        assert_eq!(series[0].alive, 2);
        assert_eq!(series[2].alive, 1); // t = 20 ms, after first death
        assert_eq!(series.last().unwrap().alive, 0);
    }

    /// A burst shorter than the step falls between two sample instants:
    /// the series reads idle at both, the exact extremes see it.
    #[test]
    fn a_burst_between_two_samples_is_seen_by_the_exact_extremes() {
        let up = |ms, worker| ev(ms, EventKind::WorkerUp { worker });
        let down = |ms, worker| ev(ms, EventKind::WorkerDown { worker });
        let events = vec![
            up(100, 1),
            up(100, 2),
            up(150, 3),
            task_started(200, 1, 1),
            task_started(250, 2, 4),
            // One ends as another starts: not an overlap of three.
            task_ended(300, 1, 1),
            task_started(300, 3, 2),
            task_ended(400, 2, 4),
            task_ended(450, 3, 2),
            down(500, 3),
            down(500, 1),
            up(500, 4),
            down(900, 2),
            down(900, 4),
        ];
        let step = Duration::from_secs(1);
        let load = load_series(&events, step);
        assert!(load.iter().all(|s| s.busy_ranks == 0), "{load:?}");
        let alive = availability_series(&events, step);
        assert!(alive.iter().all(|s| s.alive == 0), "{alive:?}");

        let peak = peak_load(&events).unwrap();
        assert_eq!(
            peak,
            LoadSample {
                t: Duration::from_millis(300),
                running_tasks: 2,
                busy_ranks: 6,
            }
        );
        assert_eq!(alive_range(&events), Some((0, 3)));
        assert_eq!(alive_range(&events[..5]), Some((2, 3)));
        assert_eq!((peak_load(&[]), alive_range(&[])), (None, None));
    }

    #[test]
    fn wall_times_extracted() {
        let events = vec![
            task_started(0, 1, 1),
            task_started(5, 2, 1),
            task_ended(100, 1, 1),
            task_ended(55, 2, 1),
        ];
        let mut walls = task_wall_times(&events);
        walls.sort_by(f64::total_cmp);
        assert_eq!(walls.len(), 2);
        assert!((walls[0] - 0.050).abs() < 1e-9);
        assert!((walls[1] - 0.100).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_cover_all_samples() {
        let samples = [100.0, 101.0, 105.0, 119.9, 160.0];
        let bins = histogram(&samples, 10.0);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, samples.len());
        assert_eq!(bins[0].lo, 100.0);
        assert_eq!(bins[0].count, 3); // 100, 101, 105
        assert_eq!(bins[1].count, 1); // 119.9
        assert_eq!(bins.last().unwrap().count, 1); // 160 in the top bin
    }

    #[test]
    fn histogram_single_sample() {
        let bins = histogram(&[42.0], 5.0);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].count, 1);
    }

    #[test]
    fn histogram_empty() {
        assert!(histogram(&[], 1.0).is_empty());
    }
}
