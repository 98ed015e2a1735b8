//! # jets-trace — cross-process span tracing for the JETS stack
//!
//! Every job carries a 64-bit trace id minted at submission; the
//! dispatcher, any relay on the path, and the executing workers each
//! emit [`EventKind::SpanStart`]/[`EventKind::SpanEnd`] pairs into
//! their own flight-recorder rings. This crate merges those rings —
//! each file is one *lane*, stamped with its writer's role and pid —
//! into a single timeline and answers the questions the paper's
//! evaluation asks of a run:
//!
//! * [`TraceModel::perfetto_json`] — the whole run as a Chrome
//!   trace-event / Perfetto JSON document (`jets trace export`), one
//!   process row per lane, one track per job.
//! * [`TraceModel::critical_path`] — where one job's wall time went,
//!   phase by phase, including the dominant (slowest-finishing) task's
//!   relay-forward → stage → exec chain (`jets trace critical-path`).
//! * [`TraceModel::stats`] — per-kind span accounting plus delivered
//!   utilization in the sense of the paper's Eq. (1): exec-busy time
//!   over worker-lanes × window (`jets trace stats`).
//!
//! ## Clock alignment
//!
//! Each ring header stamps the wall-clock microsecond (`CLOCK_REALTIME`)
//! of its `t == 0`, so a lane's events map to absolute time as
//! `epoch_unix_us + t`. Lanes recorded on one machine therefore align
//! exactly; lanes from different machines inherit whatever wall-clock
//! skew exists between them (NTP-grade in practice). No offset solving
//! is attempted — a relay-forward span that appears to start before its
//! ship span ended is how you *see* the skew. Durations are always
//! intra-lane and thus skew-free.
//!
//! ## Crash tolerance
//!
//! The input rings may come from `kill -9`'d processes — that is the
//! flight recorder's point. A start whose end never landed becomes an
//! *open* span ([`TraceModel::open`], exported as a Perfetto `B` event
//! with no matching `E`); an end whose start was overwritten by ring
//! wraparound is counted in [`TraceModel::unmatched_ends`]. Nothing
//! here panics on a torn or half-recorded trace.

#![warn(missing_docs)]

use jets_core::events::{EventKind, FlightView, SpanKind, WriterRole};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::path::Path;

/// One closed (or crash-open) span on the merged timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The job's trace id (minted at submission, never zero).
    pub trace: u64,
    /// Which lifecycle phase this span measures.
    pub kind: SpanKind,
    /// The process role that recorded it.
    pub role: WriterRole,
    /// The job.
    pub job: u64,
    /// The task (0 for job-level dispatcher spans).
    pub task: u64,
    /// PID of the recording process (the Perfetto process row).
    pub pid: u64,
    /// Absolute start, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Absolute end. Equals `start_us` for crash-open spans, whose
    /// true end was never recorded.
    pub end_us: u64,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One flight file's identity in the merged trace.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    /// The writer's process role.
    pub role: WriterRole,
    /// The writer's pid.
    pub pid: u64,
    /// Wall-clock microseconds of this lane's `t == 0`.
    pub epoch_unix_us: u64,
    /// Slots mid-write at the moment of death.
    pub torn: u64,
    /// Committed slots that failed to decode.
    pub undecodable: u64,
    /// Events lost to ring wraparound.
    pub overwritten: u64,
}

/// The merged cross-process trace: every lane's spans on one absolute
/// timeline.
#[derive(Debug, Default)]
pub struct TraceModel {
    /// Closed spans, sorted by start time.
    pub spans: Vec<Span>,
    /// Crash-open spans (start recorded, end never landed), with
    /// `end_us == start_us`.
    pub open: Vec<Span>,
    /// `SpanEnd`s whose start was overwritten by ring wraparound.
    pub unmatched_ends: u64,
    /// The input lanes, in the order given.
    pub lanes: Vec<Lane>,
}

impl TraceModel {
    /// Merge flight views into one timeline. Starts and ends pair FIFO
    /// by `(trace, kind, task)` *within each lane* — a span's two ends
    /// are always recorded by the same process, and FIFO keeps repeats
    /// (a requeued job's second queue span) matched in order.
    pub fn from_views(views: &[FlightView]) -> TraceModel {
        let mut model = TraceModel::default();
        for view in views {
            model.lanes.push(Lane {
                role: view.role,
                pid: view.writer_pid,
                epoch_unix_us: view.epoch_unix_us,
                torn: view.torn,
                undecodable: view.undecodable,
                overwritten: view.overwritten,
            });
            let mut pending: HashMap<(u64, SpanKind, u64), VecDeque<Span>> = HashMap::new();
            for ev in &view.events {
                let at_us = view.epoch_unix_us.saturating_add(ev.t.as_micros() as u64);
                match ev.kind {
                    EventKind::SpanStart {
                        trace,
                        kind,
                        role,
                        job,
                        task,
                    } => pending
                        .entry((trace, kind, task))
                        .or_default()
                        .push_back(Span {
                            trace,
                            kind,
                            role,
                            job,
                            task,
                            pid: view.writer_pid,
                            start_us: at_us,
                            end_us: at_us,
                        }),
                    EventKind::SpanEnd {
                        trace, kind, task, ..
                    } => match pending
                        .get_mut(&(trace, kind, task))
                        .and_then(VecDeque::pop_front)
                    {
                        Some(mut span) => {
                            span.end_us = at_us.max(span.start_us);
                            model.spans.push(span);
                        }
                        None => model.unmatched_ends += 1,
                    },
                    _ => {}
                }
            }
            model.open.extend(pending.into_values().flatten());
        }
        model
            .spans
            .sort_unstable_by_key(|s| (s.start_us, s.end_us, s.kind.code()));
        model
            .open
            .sort_unstable_by_key(|s| (s.start_us, s.kind.code()));
        model
    }

    /// Read flight files and merge them ([`jets_core::read_flight`] per
    /// path, then [`TraceModel::from_views`]).
    pub fn from_files<P: AsRef<Path>>(paths: &[P]) -> io::Result<TraceModel> {
        let mut views = Vec::with_capacity(paths.len());
        for path in paths {
            views.push(jets_core::read_flight(path.as_ref())?);
        }
        Ok(TraceModel::from_views(&views))
    }

    /// Every job seen in any span, with its trace id.
    pub fn jobs(&self) -> BTreeMap<u64, u64> {
        let mut jobs = BTreeMap::new();
        for s in self.spans.iter().chain(&self.open) {
            jobs.entry(s.job).or_insert(s.trace);
        }
        jobs
    }

    /// True when `job`'s submit→run chain is fully closed: every
    /// dispatcher job-level phase that started also ended, and at least
    /// one other process (relay or worker) contributed a closed span.
    pub fn job_chain_closed(&self, job: u64) -> bool {
        let dispatcher_closed = |kind: SpanKind| {
            self.spans
                .iter()
                .any(|s| s.job == job && s.kind == kind && s.role == WriterRole::Dispatcher)
        };
        let no_open = !self.open.iter().any(|s| s.job == job);
        let remote = self
            .spans
            .iter()
            .any(|s| s.job == job && s.role != WriterRole::Dispatcher);
        no_open
            && remote
            && [
                SpanKind::Submit,
                SpanKind::Queue,
                SpanKind::Run,
                SpanKind::Report,
            ]
            .into_iter()
            .all(dispatcher_closed)
    }

    /// The whole model as a Chrome trace-event / Perfetto JSON document.
    ///
    /// One process row per lane (`pid` = writer pid, named by role), one
    /// track per job (`tid` = job id). Timestamps are normalized to the
    /// earliest span so viewers keep full double precision. Closed spans
    /// are complete (`"ph":"X"`) events; crash-open spans are emitted as
    /// begin-only (`"ph":"B"`) events, which Perfetto renders as
    /// unfinished — exactly what they are.
    pub fn perfetto_json(&self) -> String {
        let t0 = self
            .spans
            .iter()
            .chain(&self.open)
            .map(|s| s.start_us)
            .min()
            .unwrap_or(0);
        let mut doc = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |doc: &mut String, entry: String| {
            if !first {
                doc.push(',');
            }
            first = false;
            doc.push('\n');
            doc.push_str(&entry);
        };
        let mut named: Vec<u64> = Vec::new();
        for lane in &self.lanes {
            // Agents sharing one process share a row; name it once.
            if named.contains(&lane.pid) {
                continue;
            }
            named.push(lane.pid);
            push(
                &mut doc,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{} (pid {})\"}}}}",
                    lane.pid,
                    lane.role.as_str(),
                    lane.pid
                ),
            );
        }
        for s in &self.spans {
            push(
                &mut doc,
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace\":\"{:#018x}\",\"job\":{},\"task\":{}}}}}",
                    s.kind.as_str(),
                    s.role.as_str(),
                    s.pid,
                    s.job,
                    s.start_us - t0,
                    s.dur_us(),
                    s.trace,
                    s.job,
                    s.task
                ),
            );
        }
        for s in &self.open {
            push(
                &mut doc,
                format!(
                    "{{\"ph\":\"B\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{},\"args\":{{\"trace\":\"{:#018x}\",\"job\":{},\"task\":{},\"open_at_crash\":true}}}}",
                    s.kind.as_str(),
                    s.role.as_str(),
                    s.pid,
                    s.job,
                    s.start_us - t0,
                    s.trace,
                    s.job,
                    s.task
                ),
            );
        }
        doc.push_str("\n]}\n");
        doc
    }

    /// Where one job's wall time went. `None` when the job has no spans.
    pub fn critical_path(&self, job: u64) -> Option<CriticalPath> {
        let job_spans: Vec<&Span> = self.spans.iter().filter(|s| s.job == job).collect();
        let first = job_spans.first()?;
        let trace = first.trace;
        let start_us = job_spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end_us = job_spans.iter().map(|s| s.end_us).max().unwrap_or(start_us);
        let total_us = end_us.saturating_sub(start_us).max(1);
        let slice = |kind: SpanKind, pick: &dyn Fn(&&&Span) -> bool| {
            let mut dur = 0u64;
            let mut count = 0u64;
            for s in job_spans.iter().filter(|s| s.kind == kind).filter(pick) {
                dur += s.dur_us();
                count += 1;
            }
            PhaseSlice {
                kind,
                spans: count,
                dur_us: dur,
                share: dur as f64 / total_us as f64,
            }
        };
        // The dispatcher's job-level chain partitions the job's
        // lifetime; phases that never happened (no relay, no PMI) show
        // zero spans rather than being omitted, so the table's shape is
        // stable across runs.
        let phases: Vec<PhaseSlice> = [
            SpanKind::Submit,
            SpanKind::Queue,
            SpanKind::Sched,
            SpanKind::Ship,
            SpanKind::PmiBarrier,
            SpanKind::Run,
            SpanKind::Report,
        ]
        .into_iter()
        .map(|k| slice(k, &|s| s.task == 0 && s.role == WriterRole::Dispatcher))
        .collect();
        let accounted: u64 = phases.iter().map(|p| p.dur_us).sum();
        // The dominant task is the one whose exec finished last: it is
        // what the gang (and the run span) waited for.
        let dominant_task = job_spans
            .iter()
            .filter(|s| s.kind == SpanKind::Exec)
            .max_by_key(|s| s.end_us)
            .map(|s| s.task);
        let task_phases = dominant_task
            .map(|task| {
                [SpanKind::RelayForward, SpanKind::Stage, SpanKind::Exec]
                    .into_iter()
                    .map(|k| slice(k, &|s| s.task == task))
                    .collect()
            })
            .unwrap_or_default();
        Some(CriticalPath {
            job,
            trace,
            start_us,
            total_us,
            slack_us: total_us.saturating_sub(accounted),
            phases,
            dominant_task,
            task_phases,
        })
    }

    /// Whole-run span accounting plus Eq. (1)-style utilization.
    pub fn stats(&self) -> TraceStats {
        let window_start = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let window_end = self
            .spans
            .iter()
            .map(|s| s.end_us)
            .max()
            .unwrap_or(window_start);
        let window_us = window_end.saturating_sub(window_start);
        let worker_lanes = self
            .lanes
            .iter()
            .filter(|l| l.role == WriterRole::Worker)
            .count() as u64;
        let busy_us: u64 = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Exec)
            .map(Span::dur_us)
            .sum();
        // Eq. (1): delivered utilization = busy time over capacity ×
        // wall time, capacity here being one exec slot per worker lane.
        let utilization = if worker_lanes > 0 && window_us > 0 {
            (busy_us as f64 / (worker_lanes as f64 * window_us as f64)).min(1.0)
        } else {
            0.0
        };
        let per_kind = SpanKind::ALL
            .into_iter()
            .map(|kind| {
                let durs: Vec<u64> = self
                    .spans
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(Span::dur_us)
                    .collect();
                let total: u64 = durs.iter().sum();
                KindStat {
                    kind,
                    count: durs.len() as u64,
                    total_us: total,
                    mean_us: total.checked_div(durs.len() as u64).unwrap_or(0),
                    max_us: durs.into_iter().max().unwrap_or(0),
                }
            })
            .collect();
        TraceStats {
            jobs: self.jobs().len() as u64,
            spans: self.spans.len() as u64,
            open_spans: self.open.len() as u64,
            unmatched_ends: self.unmatched_ends,
            torn: self.lanes.iter().map(|l| l.torn).sum(),
            window_us,
            worker_lanes,
            busy_us,
            utilization,
            per_kind,
        }
    }
}

/// One phase's contribution to a job's wall time.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSlice {
    /// The phase.
    pub kind: SpanKind,
    /// How many spans of this kind contributed (0 = phase never ran,
    /// 2+ = requeues).
    pub spans: u64,
    /// Summed duration.
    pub dur_us: u64,
    /// Fraction of the job's total wall time.
    pub share: f64,
}

/// Where one job's wall time went (`jets trace critical-path`).
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The job.
    pub job: u64,
    /// Its trace id.
    pub trace: u64,
    /// Absolute start of the earliest span.
    pub start_us: u64,
    /// Earliest start → latest end, microseconds (≥ 1).
    pub total_us: u64,
    /// Wall time not covered by any dispatcher job-level phase
    /// (scheduler gaps between spans).
    pub slack_us: u64,
    /// The dispatcher's job-level chain, in lifecycle order.
    pub phases: Vec<PhaseSlice>,
    /// The task whose exec finished last — what the run span waited for.
    pub dominant_task: Option<u64>,
    /// That task's relay-forward / stage / exec slices.
    pub task_phases: Vec<PhaseSlice>,
}

/// Per-kind span totals for one run.
#[derive(Debug, Clone, Copy)]
pub struct KindStat {
    /// The span kind.
    pub kind: SpanKind,
    /// Closed spans of this kind.
    pub count: u64,
    /// Summed duration.
    pub total_us: u64,
    /// Mean duration (0 when none).
    pub mean_us: u64,
    /// Longest single span.
    pub max_us: u64,
}

/// Whole-run accounting (`jets trace stats`).
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Distinct jobs seen.
    pub jobs: u64,
    /// Closed spans.
    pub spans: u64,
    /// Crash-open spans.
    pub open_spans: u64,
    /// Ends whose start was overwritten.
    pub unmatched_ends: u64,
    /// Torn slots summed across lanes.
    pub torn: u64,
    /// Earliest start → latest end across all closed spans.
    pub window_us: u64,
    /// Lanes recorded by worker processes.
    pub worker_lanes: u64,
    /// Summed exec time.
    pub busy_us: u64,
    /// Eq. (1) delivered utilization: `busy / (worker_lanes × window)`,
    /// clamped to 1.0 (0.0 when either denominator term is empty).
    pub utilization: f64,
    /// Per-kind totals, in lifecycle order.
    pub per_kind: Vec<KindStat>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_core::events::Event;
    use std::time::Duration;

    fn view(role: WriterRole, pid: u64, epoch_us: u64, events: Vec<Event>) -> FlightView {
        FlightView {
            events,
            torn: 0,
            undecodable: 0,
            overwritten: 0,
            total_recorded: 0,
            slots: 0,
            epoch_unix_us: epoch_us,
            writer_pid: pid,
            role,
        }
    }

    fn start(
        t_us: u64,
        trace: u64,
        kind: SpanKind,
        role: WriterRole,
        job: u64,
        task: u64,
    ) -> Event {
        Event {
            t: Duration::from_micros(t_us),
            kind: EventKind::SpanStart {
                trace,
                kind,
                role,
                job,
                task,
            },
        }
    }

    fn end(t_us: u64, trace: u64, kind: SpanKind, role: WriterRole, job: u64, task: u64) -> Event {
        Event {
            t: Duration::from_micros(t_us),
            kind: EventKind::SpanEnd {
                trace,
                kind,
                role,
                job,
                task,
            },
        }
    }

    /// A three-lane run: dispatcher chain, relay forward, worker
    /// stage+exec, with distinct lane epochs.
    fn three_lane_model() -> TraceModel {
        use SpanKind::*;
        use WriterRole::*;
        let t = 0x1001;
        let d = view(
            Dispatcher,
            100,
            1_000_000,
            vec![
                start(0, t, Submit, Dispatcher, 7, 0),
                end(10, t, Submit, Dispatcher, 7, 0),
                start(10, t, Queue, Dispatcher, 7, 0),
                end(200, t, Queue, Dispatcher, 7, 0),
                start(200, t, Sched, Dispatcher, 7, 0),
                end(250, t, Sched, Dispatcher, 7, 0),
                start(250, t, Ship, Dispatcher, 7, 0),
                end(300, t, Ship, Dispatcher, 7, 0),
                start(300, t, Run, Dispatcher, 7, 0),
                end(900, t, Run, Dispatcher, 7, 0),
                start(900, t, Report, Dispatcher, 7, 0),
                end(950, t, Report, Dispatcher, 7, 0),
            ],
        );
        let r = view(
            Relay,
            200,
            1_000_100,
            vec![
                start(210, t, RelayForward, Relay, 7, 41),
                end(220, t, RelayForward, Relay, 7, 41),
            ],
        );
        let w = view(
            Worker,
            300,
            1_000_050,
            vec![
                start(300, t, Stage, Worker, 7, 41),
                end(340, t, Stage, Worker, 7, 41),
                start(350, t, Exec, Worker, 7, 41),
                end(800, t, Exec, Worker, 7, 41),
            ],
        );
        TraceModel::from_views(&[d, r, w])
    }

    #[test]
    fn merge_pairs_spans_across_lanes_on_absolute_time() {
        let m = three_lane_model();
        assert_eq!(m.spans.len(), 9);
        assert_eq!(m.open.len(), 0);
        assert_eq!(m.unmatched_ends, 0);
        assert_eq!(m.lanes.len(), 3);
        // Absolute time: lane epoch + event offset.
        let exec = m.spans.iter().find(|s| s.kind == SpanKind::Exec).unwrap();
        assert_eq!(exec.start_us, 1_000_050 + 350);
        assert_eq!(exec.dur_us(), 450);
        assert_eq!(exec.pid, 300);
        // Sorted by start.
        assert!(m.spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        assert_eq!(m.jobs().get(&7), Some(&0x1001));
        assert!(m.job_chain_closed(7));
    }

    #[test]
    fn unmatched_starts_and_ends_are_counted_not_fatal() {
        use SpanKind::*;
        use WriterRole::*;
        let t = 3;
        // An end with no start (start overwritten), and a start with no
        // end (crash): both tolerated.
        let v = view(
            Dispatcher,
            1,
            0,
            vec![
                end(5, t, Queue, Dispatcher, 1, 0),
                start(10, t, Run, Dispatcher, 1, 0),
            ],
        );
        let m = TraceModel::from_views(&[v]);
        assert_eq!(m.spans.len(), 0);
        assert_eq!(m.unmatched_ends, 1);
        assert_eq!(m.open.len(), 1);
        assert_eq!(m.open[0].kind, Run);
        assert!(!m.job_chain_closed(1));
        // Export still renders the open span (as a begin-only event).
        let json = m.perfetto_json();
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("open_at_crash"));
    }

    #[test]
    fn repeated_kinds_pair_fifo() {
        use SpanKind::*;
        use WriterRole::*;
        let t = 9;
        // A requeued job queues twice; FIFO pairing keeps each start
        // with its own end.
        let v = view(
            Dispatcher,
            1,
            0,
            vec![
                start(0, t, Queue, Dispatcher, 2, 0),
                end(10, t, Queue, Dispatcher, 2, 0),
                start(50, t, Queue, Dispatcher, 2, 0),
                end(90, t, Queue, Dispatcher, 2, 0),
            ],
        );
        let m = TraceModel::from_views(&[v]);
        assert_eq!(m.spans.len(), 2);
        assert_eq!(m.spans[0].dur_us(), 10);
        assert_eq!(m.spans[1].dur_us(), 40);
    }

    #[test]
    fn perfetto_json_is_balanced_and_normalized() {
        let m = three_lane_model();
        let json = m.perfetto_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 9);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
        // Normalized to the earliest span: the submit span is at ts 0.
        assert!(json.contains(
            "\"name\":\"submit\",\"cat\":\"dispatcher\",\"pid\":100,\"tid\":7,\"ts\":0,"
        ));
        assert!(json.contains("\"name\":\"dispatcher (pid 100)\""));
        assert!(json.contains("\"name\":\"worker (pid 300)\""));
    }

    #[test]
    fn critical_path_accounts_phases_and_dominant_task() {
        let m = three_lane_model();
        let cp = m.critical_path(7).unwrap();
        assert_eq!(cp.trace, 0x1001);
        assert_eq!(cp.total_us, 950);
        let by_kind = |k: SpanKind| cp.phases.iter().find(|p| p.kind == k).copied().unwrap();
        assert_eq!(by_kind(SpanKind::Queue).dur_us, 190);
        assert_eq!(by_kind(SpanKind::Run).dur_us, 600);
        assert_eq!(by_kind(SpanKind::PmiBarrier).spans, 0);
        let share_sum: f64 = cp.phases.iter().map(|p| p.share).sum();
        assert!(share_sum <= 1.0 + 1e-9, "shares sum to {share_sum}");
        assert_eq!(cp.slack_us, 0);
        assert_eq!(cp.dominant_task, Some(41));
        let exec = cp
            .task_phases
            .iter()
            .find(|p| p.kind == SpanKind::Exec)
            .unwrap();
        assert_eq!(exec.dur_us, 450);
        assert!(m.critical_path(999).is_none());
    }

    #[test]
    fn stats_computes_eq1_utilization_over_worker_lanes() {
        use SpanKind::*;
        use WriterRole::*;
        // Two worker lanes, each busy half the 1000 µs window.
        let w1 = view(
            Worker,
            1,
            0,
            vec![
                start(0, 1, Exec, Worker, 1, 1),
                end(500, 1, Exec, Worker, 1, 1),
            ],
        );
        let w2 = view(
            Worker,
            2,
            0,
            vec![
                start(500, 2, Exec, Worker, 2, 2),
                end(1000, 2, Exec, Worker, 2, 2),
            ],
        );
        let m = TraceModel::from_views(&[w1, w2]);
        let st = m.stats();
        assert_eq!(st.window_us, 1000);
        assert_eq!(st.worker_lanes, 2);
        assert_eq!(st.busy_us, 1000);
        assert!((st.utilization - 0.5).abs() < 1e-9);
        assert_eq!(st.jobs, 2);
        let exec = st.per_kind.iter().find(|k| k.kind == Exec).unwrap();
        assert_eq!(exec.count, 2);
        assert_eq!(exec.mean_us, 500);
        assert_eq!(exec.max_us, 500);
    }

    /// End-to-end through the real ring codec: spans written via
    /// `EventLog::file_backed_with_role` survive the file and merge.
    #[test]
    fn flight_file_round_trips_into_the_model() {
        use jets_core::events::EventLog;
        let path = std::env::temp_dir().join(format!(
            "jets-trace-roundtrip-{}-{}.ring",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let log = EventLog::file_backed_with_role(&path, 1024, WriterRole::Worker).unwrap();
            log.span_start(42, SpanKind::Stage, WriterRole::Worker, 5, 11);
            log.span_end(42, SpanKind::Stage, WriterRole::Worker, 5, 11);
            log.span_start(42, SpanKind::Exec, WriterRole::Worker, 5, 11);
            // No exec end: simulated crash.
        }
        let m = TraceModel::from_files(&[&path]).unwrap();
        assert_eq!(m.lanes.len(), 1);
        assert_eq!(m.lanes[0].role, WriterRole::Worker);
        assert_eq!(m.spans.len(), 1);
        assert_eq!(m.spans[0].kind, SpanKind::Stage);
        assert_eq!(m.open.len(), 1);
        assert_eq!(m.open[0].kind, SpanKind::Exec);
        let _ = std::fs::remove_file(&path);
    }
}
