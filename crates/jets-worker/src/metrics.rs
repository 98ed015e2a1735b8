//! The worker agent's live metric surface.
//!
//! One [`WorkerMetrics`] per *process*, shared by every agent spawned in
//! it (a simulated allocation runs hundreds of agents in one process;
//! scraping each would be absurd). All handles are `jets-obs` atomics,
//! so the task loop pays one relaxed `fetch_add` per event — nothing on
//! the request/execute/report path allocates or locks.
//!
//! The `jets-worker` binary serves this registry at `--metrics-addr`;
//! see `docs/observability.md` for the name reference.

jets_obs::metric_set! {
    /// Static metric handles shared by the worker agents of one process.
    pub struct WorkerMetrics {
        /// Registered dispatcher sessions (re-registrations included).
        ///
        /// A value above the agent count means reconnects happened.
        sessions_total: counter("jets_worker_sessions_total"),
        /// Sessions that ended in connection loss.
        connections_lost_total: counter("jets_worker_connections_lost_total"),
        /// Task results reported upstream.
        tasks_executed_total: counter("jets_worker_tasks_executed_total"),
        /// Reported tasks with a nonzero exit code.
        tasks_failed_total: counter("jets_worker_tasks_failed_total"),
        /// Tasks ended by dispatcher-driven cancellation.
        tasks_canceled_total: counter("jets_worker_tasks_canceled_total"),
        /// Assignments abandoned because node-local staging failed.
        staging_failed_total: counter("jets_worker_staging_failed_total"),
        /// Tasks currently executing in this process.
        tasks_inflight: gauge("jets_worker_tasks_inflight"),
        /// Wall time of reported tasks.
        task_seconds: histogram("jets_worker_task_seconds"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metric_names_render() {
        let text = WorkerMetrics::new().render();
        for name in WorkerMetrics::NAMES {
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
        }
    }

    #[test]
    fn every_metric_is_documented() {
        let doc = include_str!("../../../docs/observability.md");
        for name in WorkerMetrics::NAMES {
            assert!(doc.contains(name), "{name} is not in docs/observability.md");
        }
    }
}
