//! Relayed topology: blocks of simulated nodes behind relay daemons.
//!
//! A [`RelayedAllocation`] boots `R` [`Relay`]s against one dispatcher
//! and one [`Allocation`] block behind each, so the dispatcher holds
//! `R` inbound connections however many nodes there are. Blocks use
//! distinct worker-name prefixes (`blk0-…`, `blk1-…`) so the name-keyed
//! quarantine ledger never conflates nodes of different blocks.
//!
//! [`RelayedAllocation::kill_relay`] is the chaos primitive for this
//! tier: it severs one relay abruptly (no goodbyes), taking its entire
//! block off the grid at once — the dispatcher must fail the affected
//! gangs and keep the surviving blocks busy.

use crate::allocation::{Allocation, AllocationConfig};
use jets_relay::{Relay, RelayConfig};
use jets_worker::{ReconnectPolicy, TaskExecutor, WorkerExit};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Shape of a relayed allocation.
#[derive(Debug, Clone)]
pub struct RelayedAllocationConfig {
    /// Number of relay daemons (= dispatcher inbound connections).
    pub relays: u32,
    /// Nodes behind each relay.
    pub nodes_per_relay: u32,
    /// Cores advertised per node.
    pub cores_per_node: u32,
    /// Worker heartbeat period (`None` disables heartbeats).
    pub heartbeat: Option<Duration>,
    /// Reconnect policy for the worker agents (toward their relay).
    pub reconnect: ReconnectPolicy,
    /// Batched-liveness flush period of each relay.
    pub liveness_flush: Duration,
}

impl RelayedAllocationConfig {
    /// `relays` relays fronting `nodes_per_relay` nodes each, with the
    /// same node defaults as [`AllocationConfig::new`].
    pub fn new(relays: u32, nodes_per_relay: u32) -> Self {
        RelayedAllocationConfig {
            relays,
            nodes_per_relay,
            cores_per_node: 4,
            heartbeat: None,
            reconnect: ReconnectPolicy::connect_once(),
            liveness_flush: Duration::from_millis(100),
        }
    }

    /// Builder-style worker heartbeat period.
    pub fn with_heartbeat(mut self, period: Duration) -> Self {
        self.heartbeat = Some(period);
        self
    }

    /// Builder-style relay liveness flush period.
    pub fn with_liveness_flush(mut self, period: Duration) -> Self {
        self.liveness_flush = period;
        self
    }
}

/// A running relayed topology: `R` relays, each fronting one block.
pub struct RelayedAllocation {
    relays: Vec<Relay>,
    blocks: Vec<Allocation>,
}

impl RelayedAllocation {
    /// Boot the topology against the dispatcher at `dispatcher_addr`.
    /// Relays bind ephemeral local ports; each block's workers connect
    /// to their relay exactly as they would to a dispatcher.
    pub fn start(
        dispatcher_addr: &str,
        config: RelayedAllocationConfig,
        executor: Arc<dyn TaskExecutor>,
    ) -> io::Result<RelayedAllocation> {
        let mut relays = Vec::with_capacity(config.relays as usize);
        let mut blocks = Vec::with_capacity(config.relays as usize);
        for r in 0..config.relays {
            let relay = Relay::start(
                RelayConfig::new(dispatcher_addr, format!("relay-{r}"))
                    .with_liveness_flush(config.liveness_flush),
            )?;
            let block_config = AllocationConfig {
                nodes: config.nodes_per_relay,
                cores_per_node: config.cores_per_node,
                heartbeat: config.heartbeat,
                reconnect: config.reconnect.clone(),
                ..AllocationConfig::new(config.nodes_per_relay)
            }
            .with_name_prefix(format!("blk{r}"));
            let block = Allocation::start(
                &relay.addr().to_string(),
                block_config,
                Arc::clone(&executor),
            );
            relays.push(relay);
            blocks.push(block);
        }
        Ok(RelayedAllocation { relays, blocks })
    }

    /// Number of relays in the topology.
    pub fn relay_count(&self) -> usize {
        self.relays.len()
    }

    /// Total node count across all blocks.
    pub fn total_nodes(&self) -> usize {
        self.blocks.iter().map(Allocation::size).sum()
    }

    /// Nodes whose agent thread is still running, across all blocks.
    pub fn live_count(&self) -> usize {
        self.blocks.iter().map(Allocation::live_count).sum()
    }

    /// The relay at `index`, for stats or targeted fault injection.
    pub fn relay(&self, index: usize) -> Option<&Relay> {
        self.relays.get(index)
    }

    /// The block behind relay `index`.
    pub fn block(&self, index: usize) -> Option<&Allocation> {
        self.blocks.get(index)
    }

    /// Kill relay `index` abruptly: its upstream connection and every
    /// member socket are severed with no goodbyes, so the dispatcher
    /// sees the whole block vanish at once. Returns false if out of
    /// range.
    pub fn kill_relay(&self, index: usize) -> bool {
        match self.relays.get(index) {
            Some(relay) => {
                relay.kill();
                true
            }
            None => false,
        }
    }

    /// Join every worker in every block, collecting exit reports. Call
    /// after the dispatcher's shutdown has propagated (or after killing
    /// the relays); blocks otherwise.
    pub fn join_all(&self) -> Vec<WorkerExit> {
        self.blocks.iter().flat_map(Allocation::join_all).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_core::spec::{CommandSpec, JobSpec};
    use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
    use jets_worker::apps::standard_registry;
    use jets_worker::Executor;
    use std::time::Instant;

    const WAIT: Duration = Duration::from_secs(60);

    fn executor() -> Arc<dyn TaskExecutor> {
        Arc::new(Executor::new(standard_registry()))
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + WAIT;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn relayed_topology_runs_jobs_with_r_connections() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let topo = RelayedAllocation::start(
            &d.addr().to_string(),
            RelayedAllocationConfig::new(2, 2),
            executor(),
        )
        .unwrap();
        wait_until("all nodes registered", || d.alive_workers() == 4);
        assert_eq!(d.connections_accepted(), 2);
        assert_eq!(d.relay_count(), 2);
        assert_eq!(topo.total_nodes(), 4);
        let ids = d
            .submit_all((0..16).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        d.shutdown();
        let exits = topo.join_all();
        assert_eq!(exits.len(), 4);
    }

    #[test]
    fn killing_a_relay_downs_only_its_block() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let topo = RelayedAllocation::start(
            &d.addr().to_string(),
            RelayedAllocationConfig::new(2, 2).with_heartbeat(Duration::from_millis(25)),
            executor(),
        )
        .unwrap();
        wait_until("all nodes registered", || d.alive_workers() == 4);
        assert!(topo.kill_relay(0));
        assert!(!topo.kill_relay(9));
        // The dispatcher sees the severed relay connection and downs
        // exactly that block; the other block keeps working.
        wait_until("block declared down", || d.alive_workers() == 2);
        let ids =
            d.submit_all((0..4).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
        assert!(d.wait_idle(WAIT));
        for id in ids {
            assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
        }
        d.shutdown();
        topo.join_all();
    }
}
