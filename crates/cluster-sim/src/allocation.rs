//! A simulated allocation: many pilot-job workers against one dispatcher.

use jets_ring::stdx::{Mutex, Rank};
use jets_worker::{ReconnectPolicy, TaskExecutor, Worker, WorkerConfig, WorkerExit};
use std::sync::Arc;
use std::time::Duration;

/// Shape of a simulated allocation.
#[derive(Debug, Clone)]
pub struct AllocationConfig {
    /// Number of virtual nodes (= worker agents).
    pub nodes: u32,
    /// Cores advertised per node.
    pub cores_per_node: u32,
    /// Location labels, assigned round-robin across nodes. One label
    /// models a single cluster; several model a multi-cluster deployment
    /// (used by the grouping ablation).
    pub locations: Vec<String>,
    /// Worker heartbeat period (`None` disables heartbeats).
    pub heartbeat: Option<Duration>,
    /// Reconnect-with-backoff policy for every agent (connect-once by
    /// default). Each worker gets the policy with a per-node jitter seed
    /// so backoffs decorrelate deterministically.
    pub reconnect: ReconnectPolicy,
    /// Worker-name prefix: node `i` is named `{name_prefix}-{i:04}`.
    /// Distinct prefixes keep blocks from colliding in the dispatcher's
    /// name-keyed quarantine ledger when several allocations coexist
    /// (e.g. one block per relay).
    pub name_prefix: String,
}

impl AllocationConfig {
    /// An allocation of `nodes` nodes with one location.
    pub fn new(nodes: u32) -> Self {
        AllocationConfig {
            nodes,
            cores_per_node: 4, // Surveyor's BG/P nodes have 4 cores
            locations: vec!["sim".to_string()],
            heartbeat: None,
            reconnect: ReconnectPolicy::connect_once(),
            name_prefix: "node".to_string(),
        }
    }

    /// Builder-style worker-name prefix.
    pub fn with_name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.name_prefix = prefix.into();
        self
    }

    /// Builder-style reconnect policy for every agent.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// Builder-style location labels.
    pub fn with_locations(mut self, locations: Vec<String>) -> Self {
        assert!(!locations.is_empty(), "need at least one location");
        self.locations = locations;
        self
    }
}

/// A running set of simulated nodes.
pub struct Allocation {
    workers: Mutex<Vec<Option<Worker>>>,
    exits: Mutex<Vec<WorkerExit>>,
}

impl Allocation {
    /// Boot an allocation against the dispatcher at `dispatcher_addr`.
    ///
    /// Workers connect from their own threads, so this returns
    /// immediately; use the dispatcher's `alive_workers` to observe boot
    /// progress.
    pub fn start(
        dispatcher_addr: &str,
        config: AllocationConfig,
        executor: Arc<dyn TaskExecutor>,
    ) -> Allocation {
        let mut workers = Vec::with_capacity(config.nodes as usize);
        for i in 0..config.nodes {
            let location = config.locations[i as usize % config.locations.len()].clone();
            // Decorrelate reconnect jitter across nodes deterministically.
            let mut reconnect = config.reconnect.clone();
            reconnect.seed = reconnect.seed.wrapping_add(u64::from(i)).max(1);
            let name = format!("{}-{i:04}", config.name_prefix);
            let worker_config = WorkerConfig {
                dispatcher_addr: dispatcher_addr.to_string(),
                name: name.clone(),
                cores: config.cores_per_node,
                location,
                heartbeat: config.heartbeat,
                reconnect,
                ..WorkerConfig::new(dispatcher_addr, name)
            };
            workers.push(Some(Worker::spawn(worker_config, Arc::clone(&executor))));
        }
        Allocation {
            workers: Mutex::ranked(Rank::Allocation, workers),
            exits: Mutex::new(Vec::new()),
        }
    }

    /// Number of nodes in the allocation (live or dead).
    pub fn size(&self) -> usize {
        self.workers.lock().len()
    }

    /// Nodes whose agent thread is still running.
    pub fn live_count(&self) -> usize {
        self.workers
            .lock()
            .iter()
            .filter(|w| w.as_ref().is_some_and(|w| !w.is_finished()))
            .count()
    }

    /// Kill node `index` abruptly (fault injection). Returns false if the
    /// node was already collected or out of range.
    pub fn kill(&self, index: usize) -> bool {
        let guard = self.workers.lock();
        match guard.get(index).and_then(|w| w.as_ref()) {
            Some(w) if !w.is_finished() => {
                w.kill();
                true
            }
            _ => false,
        }
    }

    /// Partition node `index` from the dispatcher: sever its socket
    /// without the kill flag, so an agent configured with a reconnect
    /// policy re-registers after backoff. Returns false if the node was
    /// already collected, finished, or out of range.
    pub fn partition(&self, index: usize) -> bool {
        let guard = self.workers.lock();
        match guard.get(index).and_then(|w| w.as_ref()) {
            Some(w) if !w.is_finished() => {
                w.disconnect();
                true
            }
            _ => false,
        }
    }

    /// Kill one live node chosen by `pick(live_candidates)`; returns the
    /// killed index. `pick` receives the indices of live nodes.
    pub fn kill_one_of(&self, pick: impl FnOnce(&[usize]) -> usize) -> Option<usize> {
        let guard = self.workers.lock();
        let live: Vec<usize> = guard
            .iter()
            .enumerate()
            .filter(|(_, w)| w.as_ref().is_some_and(|w| !w.is_finished()))
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            return None;
        }
        let chosen = pick(&live);
        debug_assert!(live.contains(&chosen), "pick must choose a live index");
        if let Some(Some(w)) = guard.get(chosen) {
            w.kill();
            return Some(chosen);
        }
        None
    }

    /// Partition one live node chosen by `pick(live_candidates)`; returns
    /// the partitioned index. `pick` receives the indices of live nodes.
    pub fn partition_one_of(&self, pick: impl FnOnce(&[usize]) -> usize) -> Option<usize> {
        let guard = self.workers.lock();
        let live: Vec<usize> = guard
            .iter()
            .enumerate()
            .filter(|(_, w)| w.as_ref().is_some_and(|w| !w.is_finished()))
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            return None;
        }
        let chosen = pick(&live);
        debug_assert!(live.contains(&chosen), "pick must choose a live index");
        if let Some(Some(w)) = guard.get(chosen) {
            w.disconnect();
            return Some(chosen);
        }
        None
    }

    /// Join every worker, collecting exit reports. Safe to call once all
    /// workers have been told to shut down (or killed); blocks otherwise.
    pub fn join_all(&self) -> Vec<WorkerExit> {
        let drained: Vec<Worker> = {
            let mut guard = self.workers.lock();
            guard.iter_mut().filter_map(Option::take).collect()
        };
        let mut exits = self.exits.lock();
        for w in drained {
            exits.push(w.join());
        }
        exits.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_core::spec::{CommandSpec, JobSpec};
    use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
    use jets_worker::apps::standard_registry;
    use jets_worker::Executor;

    const WAIT: Duration = Duration::from_secs(30);

    fn executor() -> Arc<dyn TaskExecutor> {
        Arc::new(Executor::new(standard_registry()))
    }

    fn wait_for_workers(d: &Dispatcher, n: usize) {
        let deadline = std::time::Instant::now() + WAIT;
        while d.alive_workers() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never arrived"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn allocation_boots_and_runs_jobs() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let alloc = Allocation::start(&d.addr().to_string(), AllocationConfig::new(8), executor());
        wait_for_workers(&d, 8);
        assert_eq!(alloc.size(), 8);
        assert_eq!(alloc.live_count(), 8);
        let ids = d
            .submit_all((0..32).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        d.shutdown();
        let exits = alloc.join_all();
        assert_eq!(exits.len(), 8);
        let total: u64 = exits.iter().map(|e| e.tasks_done).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn allocation_runs_mpi_jobs() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let alloc = Allocation::start(&d.addr().to_string(), AllocationConfig::new(4), executor());
        wait_for_workers(&d, 4);
        let id = d.submit(JobSpec::mpi(
            4,
            CommandSpec::builtin("mpi-sleep", vec!["10".into()]),
        ));
        assert!(d.wait_idle(WAIT));
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        d.shutdown();
        alloc.join_all();
    }

    #[test]
    fn kill_reduces_live_count() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let alloc = Allocation::start(&d.addr().to_string(), AllocationConfig::new(3), executor());
        wait_for_workers(&d, 3);
        assert!(alloc.kill(1));
        let deadline = std::time::Instant::now() + WAIT;
        while alloc.live_count() != 2 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        // Killing the same node again reports failure.
        assert!(!alloc.kill(1));
        assert!(!alloc.kill(99));
        d.shutdown();
        alloc.join_all();
    }

    #[test]
    fn kill_one_of_selects_from_live() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let alloc = Allocation::start(&d.addr().to_string(), AllocationConfig::new(2), executor());
        wait_for_workers(&d, 2);
        let first = alloc.kill_one_of(|live| live[0]).unwrap();
        let deadline = std::time::Instant::now() + WAIT;
        while alloc.live_count() != 1 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        let second = alloc.kill_one_of(|live| live[0]).unwrap();
        assert_ne!(first, second);
        while alloc.live_count() != 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(alloc.kill_one_of(|live| live[0]).is_none());
        alloc.join_all();
    }

    #[test]
    fn locations_cycle_round_robin() {
        let config = AllocationConfig::new(4).with_locations(vec!["east".into(), "west".into()]);
        assert_eq!(config.locations.len(), 2);
        // Verified end-to-end by the grouping ablation; here just the
        // builder contract.
        assert_eq!(config.nodes, 4);
    }
}
