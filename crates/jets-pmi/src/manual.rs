//! The `launcher=manual` bootstrap: turn an MPI job into proxy commands.
//!
//! Under Hydra's default bootstraps, `mpiexec` execs one proxy per node via
//! ssh or a resource manager. Under `launcher=manual` — the MPICH2 feature
//! contributed by the JETS work — `mpiexec` instead *reports* the proxy
//! commands and keeps its PMI service running; any external controller may
//! bring up the proxies. [`ManualLauncher`] is that report: given a rank
//! layout and a PMI server address it yields one [`ProxyCommand`] per node,
//! each carrying the block of ranks the node hosts and the per-rank
//! `PMI_*` environment.

/// How an MPI job's ranks map onto nodes: `nodes` nodes with `ppn`
/// consecutive ranks each (Hydra's default block mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankLayout {
    /// Number of nodes (== number of proxies).
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
}

impl RankLayout {
    /// Layout with one rank per node.
    pub fn one_per_node(nodes: u32) -> Self {
        RankLayout { nodes, ppn: 1 }
    }

    /// Total number of ranks in the job; saturates at `u32::MAX` instead
    /// of wrapping.
    pub fn size(&self) -> u32 {
        self.nodes.saturating_mul(self.ppn)
    }

    /// The ranks hosted by node `node_index` (block mapping).
    pub fn ranks_for_node(&self, node_index: u32) -> std::ops::Range<u32> {
        assert!(node_index < self.nodes, "node index out of range");
        let start = node_index * self.ppn;
        start..start + self.ppn
    }

    /// Which node hosts `rank`.
    pub fn node_of_rank(&self, rank: u32) -> u32 {
        assert!(rank < self.size(), "rank out of range");
        rank / self.ppn
    }
}

/// One proxy launch: everything a pilot-job worker needs to start the ranks
/// assigned to its node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyCommand {
    /// Job identifier (also `PMI_JOBID`).
    pub jobid: String,
    /// Index of the node this proxy runs on, `0..layout.nodes`.
    pub node_index: u32,
    /// The ranks this proxy must start, in ascending order.
    pub ranks: Vec<u32>,
    /// World size of the job (`PMI_SIZE`).
    pub size: u32,
    /// `host:port` of the PMI server (`PMI_ADDR`).
    pub pmi_addr: String,
}

impl ProxyCommand {
    /// The `PMI_*` environment for one of this proxy's ranks.
    ///
    /// # Panics
    /// Panics if `rank` is not hosted by this proxy.
    pub fn env_for_rank(&self, rank: u32) -> Vec<(String, String)> {
        assert!(
            self.ranks.contains(&rank),
            "rank {rank} is not hosted by proxy {}",
            self.node_index
        );
        crate::rank_env(rank, self.size, &self.pmi_addr, &self.jobid)
    }
}

/// Produces proxy commands for manually-launched MPI jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct ManualLauncher;

impl ManualLauncher {
    /// Compute the proxy commands for a job: one per node, block rank
    /// mapping, all pointing at the job's PMI server.
    pub fn proxy_commands(
        &self,
        jobid: &str,
        layout: RankLayout,
        pmi_addr: &str,
    ) -> Vec<ProxyCommand> {
        assert!(layout.nodes > 0 && layout.ppn > 0, "empty rank layout");
        (0..layout.nodes)
            .map(|node_index| ProxyCommand {
                jobid: jobid.to_string(),
                node_index,
                ranks: layout.ranks_for_node(node_index).collect(),
                size: layout.size(),
                pmi_addr: pmi_addr.to_string(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_size_and_block_mapping() {
        let l = RankLayout { nodes: 4, ppn: 2 };
        assert_eq!(l.size(), 8);
        assert_eq!(l.ranks_for_node(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(l.ranks_for_node(3).collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(l.node_of_rank(0), 0);
        assert_eq!(l.node_of_rank(5), 2);
        assert_eq!(l.node_of_rank(7), 3);
    }

    #[test]
    fn a_layout_past_u32_saturates_instead_of_wrapping() {
        let l = RankLayout {
            nodes: 65_536,
            ppn: 65_536,
        };
        assert_eq!(l.size(), u32::MAX);
    }

    #[test]
    fn one_per_node_layout() {
        let l = RankLayout::one_per_node(6);
        assert_eq!(l.size(), 6);
        assert_eq!(l.ranks_for_node(5).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ranks_for_node_bounds_checked() {
        RankLayout { nodes: 2, ppn: 1 }.ranks_for_node(2);
    }

    #[test]
    fn proxy_commands_cover_all_ranks_exactly_once() {
        let cmds =
            ManualLauncher.proxy_commands("j1", RankLayout { nodes: 3, ppn: 4 }, "127.0.0.1:9");
        assert_eq!(cmds.len(), 3);
        let mut all: Vec<u32> = cmds.iter().flat_map(|c| c.ranks.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        for c in &cmds {
            assert_eq!(c.size, 12);
            assert_eq!(c.pmi_addr, "127.0.0.1:9");
            assert_eq!(c.jobid, "j1");
        }
    }

    #[test]
    fn env_for_rank_is_complete() {
        let cmds = ManualLauncher.proxy_commands("j2", RankLayout { nodes: 2, ppn: 2 }, "h:1");
        let env = cmds[1].env_for_rank(3);
        let get = |k: &str| {
            env.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
                .unwrap()
        };
        assert_eq!(get(crate::ENV_RANK), "3");
        assert_eq!(get(crate::ENV_SIZE), "4");
        assert_eq!(get(crate::ENV_ADDR), "h:1");
        assert_eq!(get(crate::ENV_JOBID), "j2");
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn env_for_foreign_rank_panics() {
        let cmds = ManualLauncher.proxy_commands("j", RankLayout { nodes: 2, ppn: 1 }, "h:1");
        cmds[0].env_for_rank(1);
    }
}
