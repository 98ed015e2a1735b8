//! The five workloads. Each names the layers it stresses and the ones
//! it bypasses; `README.md` carries the full table.

use crate::util::SplitMix64;
use jets_core::{CommandSpec, JobSpec};

#[derive(Clone, Copy, PartialEq)]
pub enum Task {
    /// `noop` builtin: all overhead, no work.
    Noop,
    /// Sequential `sleep` of `lo..=hi` ms, drawn from the seed.
    Sleep { lo: u64, hi: u64 },
    /// 4-node MPI gang running `mpi-sleep` of `lo..=hi` ms.
    Gang4 { lo: u64, hi: u64 },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub workers: usize,
    pub relay: bool,
    pub journal: bool,
    pub task: Task,
    /// Jobs per repetition of the untraced (end-to-end) run, sized so a
    /// repetition takes roughly a second on a 2-core host.
    pub jobs_per_rep: usize,
    /// Jobs per repetition of the traced pass and its untraced twin.
    pub traced_jobs_per_rep: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "seq_noop",
        why: "Fig. 6 launch rate: no-op jobs, so protocol, reactor, scheduler and worker agent are all the work",
        workers: 4,
        relay: false,
        journal: false,
        task: Task::Noop,
        jobs_per_rep: 12_000,
        traced_jobs_per_rep: 5_000,
    },
    Workload {
        name: "seq_sleep5",
        why: "Figs. 12-13 utilization: 3-7 ms sleeps leave the CPU idle, so only dispatch latency shows and batching tricks lose",
        workers: 8,
        relay: false,
        journal: false,
        task: Task::Sleep { lo: 3, hi: 7 },
        jobs_per_rep: 1_600,
        traced_jobs_per_rep: 1_000,
    },
    Workload {
        name: "mpi_gang4",
        why: "Figs. 7/9 MPI launch rate: 4-rank gangs, the only workload where group selection, PMI fence and TCP wire-up matter",
        workers: 8,
        relay: false,
        journal: false,
        task: Task::Gang4 { lo: 25, hi: 35 },
        jobs_per_rep: 60,
        traced_jobs_per_rep: 50,
    },
    Workload {
        name: "relay_noop",
        why: "seq_noop behind one relay: same dispatcher work plus the forward hop both ways, so the gap to seq_noop is the relay",
        workers: 4,
        relay: true,
        journal: false,
        task: Task::Noop,
        jobs_per_rep: 9_000,
        traced_jobs_per_rep: 5_000,
    },
    Workload {
        name: "journal_noop",
        why: "seq_noop with the write-ahead journal on (interval fsync), then replay of the same record format on restart",
        workers: 4,
        relay: false,
        journal: true,
        task: Task::Noop,
        jobs_per_rep: 12_000,
        traced_jobs_per_rep: 5_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Jobs queued for the journal-replay measurement.
pub const REPLAY_JOBS: usize = 100_000;

impl Workload {
    /// One repetition's job specs, drawn from `rng`.
    pub fn specs(&self, rng: &mut SplitMix64, jobs: usize) -> Vec<JobSpec> {
        (0..jobs)
            .map(|_| match self.task {
                Task::Noop => JobSpec::sequential(CommandSpec::builtin("noop", vec![])),
                Task::Sleep { lo, hi } => JobSpec::sequential(CommandSpec::builtin(
                    "sleep",
                    vec![rng.range(lo, hi).to_string()],
                )),
                Task::Gang4 { lo, hi } => JobSpec::mpi(
                    4,
                    CommandSpec::builtin("mpi-sleep", vec![rng.range(lo, hi).to_string()]),
                ),
            })
            .collect()
    }
}
