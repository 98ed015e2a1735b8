//! # jets-pmi — Process Management Interface substrate
//!
//! JETS (Wozniak, Wilde, Katz; ICPP 2011 / J Grid Computing 2013) launches
//! many short MPI jobs by splitting each MPI execution into a set of
//! single-node *proxy* launches, placed by an external scheduler rather than
//! by `mpiexec` itself. The enabling mechanism is the `launcher=manual`
//! bootstrap added to MPICH2's Hydra process manager: `mpiexec` prints the
//! proxy command lines and keeps running its ordinary network services (the
//! PMI key-value space) so that, once *someone else* starts the proxies, the
//! user processes can connect back, exchange business cards, and begin MPI
//! communication.
//!
//! This crate reproduces that substrate:
//!
//! * [`wire`] — a line-oriented PMI-1-style wire protocol
//!   (`cmd=put key=... value=...`).
//! * [`kvs`] — the per-job key-value space with fence (barrier) semantics.
//! * [`service`] — the process-manager side as a table of jobs
//!   ([`PmiService`]): no socket, clock, lock or thread in it.
//! * [`server`] — that table on sockets, as the state of the event loop
//!   serving its ranks ([`PmiState`], fed by [`serve_ranks`]): any number
//!   of jobs in the dispatcher's loop, or one job on [`PmiServer`]'s
//!   private reactor.
//! * [`client`] — the rank side ([`PmiClient`]), used by the `jets-mpi`
//!   library during wire-up, configured from `PMI_*` environment variables
//!   exactly as Hydra proxies configure user processes.
//! * [`manual`] — the manual launcher: turns an MPI job specification into
//!   proxy command descriptors (rank ranges + environment) that a scheduler
//!   such as the JETS dispatcher ships to its pilot-job workers.
//!
//! The protocol is intentionally a faithful miniature of PMI-1: `init`,
//! `put`, `get`, `fence` (KVS barrier), `finalize`, `abort`. Values are
//! percent-escaped so arbitrary strings survive the text framing.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::allow_attributes_without_reason
    )
)]
#![warn(missing_docs)]

pub mod client;
pub mod kvs;
pub mod manual;
pub mod server;
pub mod service;
pub mod wire;

pub use client::PmiClient;
pub use manual::{ManualLauncher, ProxyCommand, RankLayout};
pub use server::{serve_ranks, PmiHost, PmiServer, PmiServerConfig, PmiState};
pub use service::{JobOutcome, PmiService};
pub use wire::{Message, WireError};

/// Environment variable carrying the rank of a PMI-managed process.
pub const ENV_RANK: &str = "PMI_RANK";
/// Environment variable carrying the world size of the PMI job.
pub const ENV_SIZE: &str = "PMI_SIZE";
/// Environment variable carrying the `host:port` of the PMI server.
pub const ENV_ADDR: &str = "PMI_ADDR";
/// Environment variable carrying the PMI job identifier.
pub const ENV_JOBID: &str = "PMI_JOBID";

/// The `PMI_*` environment of one rank: what a proxy hands the process it
/// starts, and what [`PmiClient::from_lookup`] reads back.
pub fn rank_env(rank: u32, size: u32, pmi_addr: &str, jobid: &str) -> Vec<(String, String)> {
    vec![
        (ENV_RANK.to_string(), rank.to_string()),
        (ENV_SIZE.to_string(), size.to_string()),
        (ENV_ADDR.to_string(), pmi_addr.to_string()),
        (ENV_JOBID.to_string(), jobid.to_string()),
    ]
}
