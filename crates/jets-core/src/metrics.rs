//! The dispatcher's live metric surface.
//!
//! One [`DispatcherMetrics`] per dispatcher: a fixed set of `jets-obs`
//! handles registered at startup, so every hot-path recording is a field
//! access plus one relaxed `fetch_add` — no map lookup, no lock, no
//! allocation. The registry behind the handles renders Prometheus text
//! for `GET /metrics` (see [`crate::Dispatcher::serve_metrics`]) and the
//! name constants here are shared with `jets events --stats`, so offline
//! percentile tables and live scrapes use identical metric names.
//!
//! Deliberately absent: a heartbeats counter, a number nobody pages on.
//! The monitor samples liveness-derived gauges instead.

use jets_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Metric name of the per-phase job latency summary. Series are labelled
/// `phase="queue" | "launch" | "pmi" | "run" | "total"`.
pub const JOB_PHASE_METRIC: &str = "jets_job_phase_seconds";

/// The phase labels of [`JOB_PHASE_METRIC`], in lifecycle order.
pub const JOB_PHASES: [&str; 5] = ["queue", "launch", "pmi", "run", "total"];

/// Static metric handles for one dispatcher instance.
pub struct DispatcherMetrics {
    registry: Arc<Registry>,
    /// Jobs accepted into the queue (`Dispatcher::submit_all`).
    pub jobs_submitted_total: Arc<Counter>,
    /// Jobs that reached a terminal state (succeeded or failed).
    pub jobs_completed_total: Arc<Counter>,
    /// Terminal jobs whose final attempt failed.
    pub jobs_failed_total: Arc<Counter>,
    /// Failed attempts sent back to the queue with retry budget left.
    pub jobs_requeued_total: Arc<Counter>,
    /// Attempts canceled for blowing their wall-time budget.
    pub deadline_exceeded_total: Arc<Counter>,
    /// Task assignments shipped to workers.
    pub tasks_started_total: Arc<Counter>,
    /// Task results reported by workers.
    pub tasks_ended_total: Arc<Counter>,
    /// Registrations under a name seen before: pilots coming back after
    /// a disconnect (the fault layer's reconnect path).
    pub reconnects_total: Arc<Counter>,
    /// TCP connections taken by the accept loop (workers + relays).
    pub connections_accepted_total: Arc<Counter>,
    /// Jobs waiting in the queue.
    pub queue_depth: Arc<Gauge>,
    /// Gangs currently executing.
    pub running_gangs: Arc<Gauge>,
    /// Registered workers in any live state.
    pub workers_alive: Arc<Gauge>,
    /// Idle workers parked in the ready list.
    pub workers_ready: Arc<Gauge>,
    /// Workers executing a task.
    pub workers_busy: Arc<Gauge>,
    /// Workers currently benched by quarantine.
    pub quarantined_current: Arc<Gauge>,
    /// Connected relay daemons.
    pub relays_current: Arc<Gauge>,
    /// Connections currently registered on the reactor's event loops
    /// (workers + relays + anything else the reactor multiplexes).
    pub reactor_connections: Arc<Gauge>,
    /// Readiness wakeups of the event loop.
    pub reactor_wakeups_total: Arc<Counter>,
    /// High-water mark of any single connection's bounded outbox.
    pub reactor_outbox_high_water_bytes: Arc<Gauge>,
    /// Connections dropped because their bounded outbox overflowed
    /// (the slow-consumer disconnect policy).
    pub reactor_slow_consumer_disconnects_total: Arc<Counter>,
    /// State-transition records appended to the write-ahead journal.
    pub journal_records_total: Arc<Counter>,
    /// Journal appends that failed (disk error); the dispatcher keeps
    /// running. The failed batch is missing from the journal, so a
    /// crash recovers without those transitions; later appends replay.
    pub journal_errors_total: Arc<Counter>,
    /// Non-terminal jobs rebuilt from the journal at the last restart.
    pub journal_replayed_jobs: Arc<Gauge>,
    /// In-flight gangs re-adopted (instead of relaunched) after a
    /// dispatcher restart.
    pub gangs_readopted_total: Arc<Counter>,
    /// Events recorded into the flight-recorder ring. Bridged from the
    /// ring's own sequence number by the monitor — no slot is read, and
    /// the record path is never touched.
    pub events_recorded_total: Arc<Counter>,
    /// Events currently retained in the ring window.
    pub events_retained: Arc<Gauge>,
    /// The ring's capacity: events held before overwriting the oldest.
    pub events_capacity: Arc<Gauge>,
    /// Events the writer has overwritten (recorded − retained). Nonzero
    /// means the `--flight-recorder` ring is too small to hold the run.
    pub flight_reader_laps_total: Arc<Counter>,
    /// Rank connections the PMI service refused or closed for breaking
    /// the protocol (undecodable line, bad `init`, command out of order).
    pub pmi_protocol_errors_total: Arc<Counter>,
    /// Queue-wait phase: last enqueue → workers selected.
    pub phase_queue: Arc<Histogram>,
    /// Launch phase: workers selected → assignments shipped.
    pub phase_launch: Arc<Histogram>,
    /// PMI-negotiation phase: assignments shipped → first fence release.
    pub phase_pmi: Arc<Histogram>,
    /// Run phase: execution start → terminal state.
    pub phase_run: Arc<Histogram>,
    /// End-to-end: first submission → terminal state.
    pub phase_total: Arc<Histogram>,
}

impl DispatcherMetrics {
    /// Register the dispatcher's full metric set on a fresh registry.
    pub fn new() -> DispatcherMetrics {
        let r = Arc::new(Registry::new());
        jets_obs::register_build_info(
            &r,
            env!("CARGO_PKG_VERSION"),
            option_env!("JETS_GIT_HASH").unwrap_or("unknown"),
        );
        let phase = |name: &'static str| {
            r.histogram_micros(
                JOB_PHASE_METRIC,
                "Per-phase job latency breakdown (final attempt)",
                &[("phase", name)],
            )
        };
        DispatcherMetrics {
            jobs_submitted_total: r
                .counter("jets_jobs_submitted_total", "Jobs accepted into the queue"),
            jobs_completed_total: r.counter(
                "jets_jobs_completed_total",
                "Jobs that reached a terminal state",
            ),
            jobs_failed_total: r.counter(
                "jets_jobs_failed_total",
                "Terminal jobs whose final attempt failed",
            ),
            jobs_requeued_total: r.counter(
                "jets_jobs_requeued_total",
                "Failed attempts requeued for retry",
            ),
            deadline_exceeded_total: r.counter(
                "jets_deadline_exceeded_total",
                "Attempts canceled for exceeding their deadline",
            ),
            tasks_started_total: r.counter(
                "jets_tasks_started_total",
                "Task assignments shipped to workers",
            ),
            tasks_ended_total: r
                .counter("jets_tasks_ended_total", "Task results reported by workers"),
            reconnects_total: r.counter(
                "jets_reconnects_total",
                "Registrations under a previously seen worker name",
            ),
            connections_accepted_total: r.counter(
                "jets_connections_accepted_total",
                "TCP connections accepted (workers + relays)",
            ),
            queue_depth: r.gauge("jets_queue_depth", "Jobs waiting in the queue"),
            running_gangs: r.gauge("jets_running_gangs", "Gangs currently executing"),
            workers_alive: r.gauge("jets_workers_alive", "Registered workers in any live state"),
            workers_ready: r.gauge(
                "jets_workers_ready",
                "Idle workers parked in the ready list",
            ),
            workers_busy: r.gauge("jets_workers_busy", "Workers executing a task"),
            quarantined_current: r.gauge(
                "jets_quarantined_current",
                "Workers currently benched by quarantine",
            ),
            relays_current: r.gauge("jets_relays_current", "Connected relay daemons"),
            reactor_connections: r.gauge(
                "jets_reactor_connections",
                "Connections registered on the reactor event loops",
            ),
            reactor_wakeups_total: r.counter(
                "jets_reactor_wakeups_total",
                "Readiness wakeups across all event loops",
            ),
            reactor_outbox_high_water_bytes: r.gauge(
                "jets_reactor_outbox_high_water_bytes",
                "High-water mark of any connection's bounded outbox",
            ),
            reactor_slow_consumer_disconnects_total: r.counter(
                "jets_reactor_slow_consumer_disconnects_total",
                "Connections dropped for overflowing their bounded outbox",
            ),
            journal_records_total: r.counter(
                "jets_journal_records_total",
                "Records appended to the write-ahead journal",
            ),
            journal_errors_total: r
                .counter("jets_journal_errors_total", "Journal appends that failed"),
            journal_replayed_jobs: r.gauge(
                "jets_journal_replayed_jobs",
                "Non-terminal jobs rebuilt from the journal at the last restart",
            ),
            gangs_readopted_total: r.counter(
                "jets_gangs_readopted_total",
                "In-flight gangs re-adopted after a dispatcher restart",
            ),
            events_recorded_total: r.counter(
                "jets_events_recorded_total",
                "Events recorded into the flight-recorder ring",
            ),
            events_retained: r.gauge(
                "jets_events_retained",
                "Events currently retained in the ring window",
            ),
            events_capacity: r.gauge(
                "jets_events_capacity",
                "Ring capacity before overwriting the oldest event",
            ),
            flight_reader_laps_total: r.counter(
                "jets_flight_reader_laps_total",
                "Events the ring writer has overwritten (recorded - retained)",
            ),
            pmi_protocol_errors_total: r.counter(
                "jets_pmi_protocol_errors_total",
                "Rank connections the PMI service closed for breaking the protocol",
            ),
            phase_queue: phase("queue"),
            phase_launch: phase("launch"),
            phase_pmi: phase("pmi"),
            phase_run: phase("run"),
            phase_total: phase("total"),
            registry: r,
        }
    }

    /// The registry backing these handles (what `/metrics` renders).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Render the current values as Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for DispatcherMetrics {
    fn default() -> Self {
        DispatcherMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metric_names_render() {
        let m = DispatcherMetrics::new();
        m.jobs_submitted_total.inc();
        m.workers_ready.set(4);
        m.phase_queue.record(1_000);
        let text = m.render();
        for name in [
            "jets_jobs_submitted_total",
            "jets_jobs_completed_total",
            "jets_jobs_failed_total",
            "jets_jobs_requeued_total",
            "jets_deadline_exceeded_total",
            "jets_tasks_started_total",
            "jets_tasks_ended_total",
            "jets_reconnects_total",
            "jets_connections_accepted_total",
            "jets_queue_depth",
            "jets_running_gangs",
            "jets_workers_alive",
            "jets_workers_ready",
            "jets_workers_busy",
            "jets_quarantined_current",
            "jets_relays_current",
            "jets_reactor_connections",
            "jets_reactor_wakeups_total",
            "jets_reactor_outbox_high_water_bytes",
            "jets_reactor_slow_consumer_disconnects_total",
            "jets_journal_records_total",
            "jets_journal_errors_total",
            "jets_journal_replayed_jobs",
            "jets_gangs_readopted_total",
            "jets_events_recorded_total",
            "jets_events_retained",
            "jets_events_capacity",
            "jets_flight_reader_laps_total",
            "jets_pmi_protocol_errors_total",
            "jets_build_info",
            JOB_PHASE_METRIC,
        ] {
            assert!(text.contains(name), "missing {name} in render");
        }
        // The identity gauge carries the build's version label and the
        // constant sample value 1.
        assert!(text.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))));
        for phase in JOB_PHASES {
            assert!(
                text.contains(&format!("phase=\"{phase}\"")),
                "missing phase {phase}"
            );
        }
    }
}
