//! # cluster-sim — simulated allocation substrate
//!
//! The paper's experiments ran on Argonne machines we do not have: the
//! Blue Gene/P racks *Surveyor* (1,024 nodes × 4 cores) and the x86
//! clusters *Breadboard* and *Eureka* (100 nodes × 8 cores). This crate
//! substitutes a **simulated allocation**: `N` virtual nodes, each hosting
//! a *real* `jets-worker` pilot agent (thread) speaking the real wire
//! protocol to a real dispatcher, with real PMI wire-up for MPI jobs. Only
//! two things are virtual:
//!
//! 1. **Node boundaries** — workers are threads of one process rather than
//!    processes on distinct nodes. The dispatcher cannot tell the
//!    difference; every code path it exercises is identical.
//! 2. **Time** — workload "seconds" are scaled by a [`TimeScale`] so a
//!    12-hour campaign fits a benchmark run. Control-plane costs
//!    (dispatch, PMI negotiation, socket traffic) are *not* scaled; they
//!    pay true cost, which is what makes the paper's saturation effects
//!    reappear instead of being programmed in.
//!
//! [`chaos`] replays seeded fault *plans* against an allocation. A
//! kill-only plan, one kill per interval, is the paper's faulty-allocation
//! experiment (Fig. 10): kill one randomly chosen pilot at fixed intervals
//! and watch the dispatcher keep the survivors busy. Other plans mix
//! permanent kills with transient partitions (reconnecting agents).

#![warn(missing_docs)]

pub mod allocation;
pub mod apps;
pub mod chaos;
pub mod relays;
pub mod spectrum;
pub mod workload;

pub use allocation::{Allocation, AllocationConfig};
pub use apps::{register_namd, science_registry};
pub use chaos::{
    ChaosInjector, DispatcherHooks, FaultAction, FaultEvent, FaultMix, FaultPlan, DISPATCHER_TARGET,
};
pub use relays::{RelayedAllocation, RelayedAllocationConfig};
pub use spectrum::{halving_spectrum, linear_wait, SpectrumAllocator};
pub use workload::{NamdDurationModel, TimeScale};
