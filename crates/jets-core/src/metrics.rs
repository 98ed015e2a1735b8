//! The dispatcher's live metric surface.
//!
//! One [`DispatcherMetrics`] per dispatcher: a fixed set of `jets-obs`
//! handles registered at startup, so every hot-path recording is a field
//! access plus one relaxed `fetch_add` — no map lookup, no lock, no
//! allocation. The registry behind the handles renders Prometheus text
//! for `GET /metrics` (see [`crate::Dispatcher::serve_metrics`]) and the
//! name constants here are shared with `jets flight dump --stats`, so offline
//! percentile tables and live scrapes use identical metric names.
//!
//! Deliberately absent: a heartbeats counter, a number nobody pages on.
//! The monitor samples liveness-derived gauges instead.

/// Metric name of the per-phase job latency summary, one series per
/// [`JOB_PHASES`] label.
pub const JOB_PHASE_METRIC: &str = "jets_job_phase_seconds";

/// The `phase` labels of [`JOB_PHASE_METRIC`], in lifecycle order.
pub const JOB_PHASES: [&str; 4] = ["queue", "pmi", "run", "total"];

jets_obs::metric_set! {
    /// Static metric handles for one dispatcher instance.
    pub struct DispatcherMetrics {
        /// Jobs accepted into the queue.
        jobs_submitted_total: counter("jets_jobs_submitted_total"),
        /// Jobs that reached a terminal state.
        jobs_completed_total: counter("jets_jobs_completed_total"),
        /// Terminal jobs whose final attempt failed.
        jobs_failed_total: counter("jets_jobs_failed_total"),
        /// Failed attempts requeued for retry.
        jobs_requeued_total: counter("jets_jobs_requeued_total"),
        /// Attempts canceled for exceeding their deadline.
        deadline_exceeded_total: counter("jets_deadline_exceeded_total"),
        /// Task assignments shipped to workers.
        tasks_started_total: counter("jets_tasks_started_total"),
        /// Task results reported by workers.
        tasks_ended_total: counter("jets_tasks_ended_total"),
        /// Registrations under a previously seen worker name.
        ///
        /// Pilots coming back after a disconnect: the fault layer's
        /// reconnect path.
        reconnects_total: counter("jets_reconnects_total"),
        /// TCP connections accepted (workers + relays).
        connections_accepted_total: counter("jets_connections_accepted_total"),
        /// Jobs waiting in the queue.
        queue_depth: gauge("jets_queue_depth"),
        /// Gangs currently executing.
        running_gangs: gauge("jets_running_gangs"),
        /// Registered workers in any live state.
        workers_alive: gauge("jets_workers_alive"),
        /// Idle workers parked in the ready list.
        workers_ready: gauge("jets_workers_ready"),
        /// Workers executing a task.
        workers_busy: gauge("jets_workers_busy"),
        /// Workers currently benched by quarantine.
        quarantined_current: gauge("jets_quarantined_current"),
        /// Connected relay daemons.
        relays_current: gauge("jets_relays_current"),
        /// Connections open on the reactor's event loop.
        ///
        /// Workers, relays, PMI ranks and `/metrics` scrapes alike.
        reactor_connections: gauge("jets_reactor_connections"),
        /// Readiness wakeups of the event loop.
        reactor_wakeups_total: counter("jets_reactor_wakeups_total"),
        /// High-water mark of any connection's bounded outbox.
        reactor_outbox_high_water_bytes: gauge("jets_reactor_outbox_high_water_bytes"),
        /// Connections dropped for overflowing their bounded outbox.
        reactor_slow_consumer_disconnects_total:
            counter("jets_reactor_slow_consumer_disconnects_total"),
        /// Records appended to the write-ahead journal.
        journal_records_total: counter("jets_journal_records_total"),
        /// Journal appends that failed.
        ///
        /// The dispatcher keeps running. The failed batch is missing from
        /// the journal, so a crash recovers without those transitions;
        /// later appends replay.
        journal_errors_total: counter("jets_journal_errors_total"),
        /// Bytes the job table holds, spare capacity included.
        ///
        /// Every job ever submitted keeps a fixed-size row and its encoded
        /// spec and latest result: a few dozen bytes a finished job.
        job_table_bytes: gauge("jets_job_table_bytes"),
        /// Bytes the job queue holds, spare capacity included.
        ///
        /// A pending job keeps a 24-byte entry and its encoded spec,
        /// attempts, trace and instants in the queue's arena.
        queue_bytes: gauge("jets_queue_bytes"),
        /// Non-terminal jobs rebuilt from the journal at the last restart.
        journal_replayed_jobs: gauge("jets_journal_replayed_jobs"),
        /// In-flight gangs re-adopted after a dispatcher restart.
        gangs_readopted_total: counter("jets_gangs_readopted_total"),
        /// Events recorded into the flight-recorder ring.
        ///
        /// Bridged from the ring's own sequence number by the monitor: no
        /// slot is read, and the record path is never touched.
        events_recorded_total: counter("jets_events_recorded_total"),
        /// Events currently retained in the ring window.
        events_retained: gauge("jets_events_retained"),
        /// Ring capacity before overwriting the oldest event.
        events_capacity: gauge("jets_events_capacity"),
        /// Events the ring writer has overwritten (recorded - retained).
        ///
        /// Nonzero means the `--flight-recorder` ring is too small to hold
        /// the run.
        flight_reader_laps_total: counter("jets_flight_reader_laps_total"),
        /// Rank connections the PMI service closed for breaking the protocol.
        ///
        /// An undecodable line, a bad `init`, a command out of order.
        pmi_protocol_errors_total: counter("jets_pmi_protocol_errors_total"),
        /// Per-phase job latency breakdown (final attempt).
        ///
        /// Queue-wait phase: last enqueue → workers selected.
        phase_queue: histogram(JOB_PHASE_METRIC, phase = "queue"),
        /// Per-phase job latency breakdown (final attempt).
        ///
        /// PMI-negotiation phase: assignments shipped → first fence release.
        phase_pmi: histogram(JOB_PHASE_METRIC, phase = "pmi"),
        /// Per-phase job latency breakdown (final attempt).
        ///
        /// Run phase: execution start → terminal state.
        phase_run: histogram(JOB_PHASE_METRIC, phase = "run"),
        /// Per-phase job latency breakdown (final attempt).
        ///
        /// End-to-end: first submission → terminal state.
        phase_total: histogram(JOB_PHASE_METRIC, phase = "total"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metric_names_render() {
        let text = DispatcherMetrics::new().render();
        for name in DispatcherMetrics::NAMES {
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
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

    #[test]
    fn every_metric_is_documented() {
        let doc = include_str!("../../../docs/observability.md");
        for name in DispatcherMetrics::NAMES {
            assert!(doc.contains(name), "{name} is not in docs/observability.md");
        }
    }
}
