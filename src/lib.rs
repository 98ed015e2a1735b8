//! # JETS — language and system support for many-parallel-task computing
//!
//! A from-scratch Rust reproduction of *JETS* (Wozniak, Wilde, Katz; ICPP
//! 2011 / J Grid Computing 11:341–360, 2013): middleware for running very
//! large batches of short, tightly-coupled MPI jobs inside pilot-job
//! allocations, plus the Swift dataflow-language integration the paper
//! demonstrates with replica-exchange molecular dynamics.
//!
//! This facade crate re-exports the workspace's components:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`obs`] | `jets-obs` | live metrics: counters, gauges, histograms, the `/metrics` endpoint |
//! | [`core`] | `jets-core` | the dispatcher: worker registry, job queue, MPI-group aggregation, statistics |
//! | [`pmi`] | `jets-pmi` | the PMI process-management substrate (`mpiexec launcher=manual`) |
//! | [`mpi`] | `jets-mpi` | the sockets message-passing library tasks link against |
//! | [`worker`] | `jets-worker` | the pilot-job worker agent |
//! | [`relay`] | `jets-relay` | the hierarchical relay tier: one dispatcher connection per worker block |
//! | [`sim`] | `cluster-sim` | simulated allocations, fault injection, workloads |
//! | [`swift`] | `swiftlite` | the mini-Swift dataflow language and the JETS bridge |
//! | [`namd`] | `namd-sim` | the parallel molecular-dynamics application and REM |
//!
//! ## Quickstart
//!
//! ```
//! use jets::core::{Dispatcher, DispatcherConfig, JobStatus};
//! use jets::core::spec::{CommandSpec, JobSpec};
//! use jets::sim::{science_registry, Allocation, AllocationConfig};
//! use jets::worker::Executor;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // 1. Start the dispatcher.
//! let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
//! // 2. Boot a (simulated) allocation of 4 pilot-job workers.
//! let allocation = Allocation::start(
//!     &dispatcher.addr().to_string(),
//!     AllocationConfig::new(4),
//!     Arc::new(Executor::new(science_registry())),
//! );
//! // 3. Submit an MPI job: 4 nodes × 1 rank, barrier–sleep–barrier.
//! let job = dispatcher.submit(JobSpec::mpi(
//!     4,
//!     CommandSpec::builtin("mpi-sleep", vec!["10".into()]),
//! ));
//! assert!(dispatcher.wait_idle(Duration::from_secs(30)));
//! assert_eq!(dispatcher.job_record(job).unwrap().status, JobStatus::Succeeded);
//! dispatcher.shutdown();
//! allocation.join_all();
//! ```

pub use cluster_sim as sim;
pub use jets_core as core;
pub use jets_mpi as mpi;
pub use jets_obs as obs;
pub use jets_pmi as pmi;
pub use jets_relay as relay;
pub use jets_worker as worker;
pub use namd_sim as namd;
pub use swiftlite as swift;
