//! # jets-core — the JETS dispatcher
//!
//! The centralized, single-user scheduler at the heart of JETS (Wozniak,
//! Wilde, Katz; ICPP 2011 / J Grid Computing 2013). Persistent pilot-job
//! *workers* register over TCP and request work; the dispatcher reads
//! batches of possibly-MPI job specifications, aggregates free workers
//! first-come-first-served into MPI-capable groups, runs one background
//! PMI process manager per MPI job (the `mpiexec launcher=manual`
//! mechanism, see `jets-pmi`), and ships the resulting proxy launch
//! commands to the group's workers. Sequential (1-node) jobs skip PMI and
//! dispatch directly, Falkon-style.
//!
//! The architecture follows the paper's stated principles: simple reusable
//! threading abstractions (channels + mutex/condvar), separate service
//! pipeline stages (socket management / handler processing / process
//! management) connected through obvious interfaces, ready composition and
//! decomposition, and the assumption that disconnection is likely (worker
//! death is detected by socket EOF and heartbeat timeout; in-flight jobs
//! are requeued).
//!
//! Modules:
//!
//! * [`spec`] — job specifications and the stand-alone `jets` input-file
//!   format (`MPI: 4 namd2.sh input-1.pdb output-1.log`).
//! * [`protocol`] — the dispatcher ⇄ worker wire protocol (binary frames,
//!   one per line).
//! * [`queue`] — FIFO job queue, plus the priority/backfill policy the
//!   paper lists as future work (ablated in `bench/ablation_queue`).
//! * [`registry`] — worker bookkeeping; liveness is each worker's
//!   last-seen clock, refreshed by the core's inputs from that worker.
//! * [`group`] — worker-group selection: first-come-first-served (the
//!   paper's default) or location-aware (future work, ablated), over
//!   interned location ids.
//! * [`ready`] — the parked-`Request` ready list the scheduler consumes.
//! * [`events`] — timestamped event log of everything the dispatcher does.
//! * [`stats`] — utilization (Eq. 1 of the paper), load-level series, and
//!   run-time histograms computed from the event log.
//! * [`metrics`] — the live metric surface (`jets-obs` handles) behind
//!   `GET /metrics`; see `docs/observability.md`.
//! * [`journal`] — crash-durable write-ahead journal of dispatcher state
//!   transitions; replayed on restart (see `docs/fault-tolerance.md`).
//! * [`core`] — the scheduling decision procedure as a single-threaded
//!   state machine: no clock, socket, lock or file; every effect goes
//!   through the [`core::Effects`] its caller passes in.
//! * [`dispatcher`] — the engine tying it all together: the I/O shell
//!   around [`core`] (reactor, locks, journal, flight recorder, metrics),
//!   and its job table: every job's record as a fixed-size row and
//!   wire-codec bytes, decoded on demand.

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

pub mod core;
pub mod dispatcher;
pub mod events;
pub mod group;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod ready;
pub mod registry;
pub mod spec;
pub mod stats;
mod table;

pub use dispatcher::{Dispatcher, DispatcherConfig, JobRecord, JobStatus};
pub use events::{
    read_flight, read_jsonl, tail_flight, Event, EventCursor, EventKind, EventLog, EventRecord,
    FlightTail, FlightView, JsonlLoad, SpanKind, WriterRole,
};
pub use group::GroupingPolicy;
pub use journal::{FsyncPolicy, Journal};
pub use metrics::DispatcherMetrics;
pub use protocol::{DispatcherMsg, TaskAssignment, TaskKind, WorkerMsg};
pub use queue::QueuePolicy;
pub use spec::{CommandSpec, JobId, JobSpec, TaskId, WorkerId};
