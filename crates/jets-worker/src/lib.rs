//! # jets-worker — the JETS pilot-job worker agent
//!
//! A worker is a persistent pilot job running on a compute node: started
//! once per node by the system scheduler (Cobalt, PBS, ssh), it registers
//! with the JETS dispatcher, then loops *request → execute → report* for
//! the lifetime of the allocation, executing many tasks (paper Section 5,
//! Fig. 4).
//!
//! Two execution paths:
//!
//! * [`executor::Executor`] runs `Builtin` commands as in-process
//!   functions from an [`executor::AppRegistry`] (simulated-allocation
//!   mode — tasks are real code, node boundaries are virtual) and `Exec`
//!   commands as real OS processes. MPI proxy assignments start one rank
//!   (thread or process) per hosted rank, each configured with the
//!   `PMI_*` environment from the proxy command, exactly as a Hydra proxy
//!   configures user executables.
//! * [`apps`] registers the standard application set used by the paper's
//!   benchmarks: no-ops, timed sleeps, and the barrier–sleep–barrier MPI
//!   synthetic task.
//!
//! What the pilot decides is [`core::PilotCore`], with no clock, lock or
//! socket in it; [`agent::Worker`] is the shell of threads around it: the
//! thread that reads an `Assign` runs it, while the other waits on the
//! session socket for a frame that arrives mid-task. Its *kill switch*
//! ([`agent::Worker::kill`]) severs the socket abruptly — the
//! fault-injection primitive of the paper's Fig. 10 experiment.

#![cfg_attr(
    not(test),
    deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::allow_attributes_without_reason
    )
)]
#![warn(missing_docs)]

pub mod agent;
pub mod apps;
pub mod core;
pub mod executor;
pub mod metrics;
pub mod staging;

pub use agent::{ReconnectPolicy, Worker, WorkerConfig, WorkerExit};
pub use executor::{AppRegistry, CancelToken, Executor, TaskContext, TaskExecutor};
pub use metrics::WorkerMetrics;
pub use staging::{NodeLocalCache, StageFile};
