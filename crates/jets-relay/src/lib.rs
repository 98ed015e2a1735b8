//! # jets-relay — a hierarchical relay tier for JETS
//!
//! The paper's dispatcher holds one TCP connection per pilot worker, so
//! registrations, heartbeats, and task-status traffic all serialize
//! through a single process — and the paper names hierarchical
//! distribution of the dispatcher as the path past that wall. This crate
//! is that tier: a relay daemon sits between a *block* of workers and
//! the dispatcher, turning O(workers) dispatcher connections into
//! O(relays).
//!
//! Downstream, a relay speaks the ordinary worker protocol: workers
//! connect to it exactly as they would to a dispatcher (same `Register`
//! handshake, same reconnect/backoff machinery). Upstream, the relay
//! holds one connection and:
//!
//! * **aggregates registrations** — each member is forwarded as a
//!   `RelayRegister` and mapped `local ↔ global` id once the dispatcher
//!   acks;
//! * **coalesces liveness** — member heartbeats stop at the relay; a
//!   periodic `BatchedHeartbeat` frame vouches for every recently-heard
//!   member in one line;
//! * **multiplexes task traffic** — `Request`/`Done` go up and
//!   `Assign`/`Cancel` come down in routed envelopes over the single
//!   connection, routed by relay-local tables;
//! * **fans out gang cancellation locally** — when a member dies
//!   mid-gang, same-relay members of the same job are canceled
//!   immediately, without waiting for the dispatcher round-trip;
//! * **buffers and replays across dispatcher reconnects** — results
//!   produced while the dispatcher is away are held; on reconnect the
//!   relay re-registers its block (new global ids) and replays them, so
//!   workers never notice the outage.
//!
//! What the relay decides is [`core::RelayCore`], a pure state machine;
//! [`daemon`] is the shell of sockets, one event loop and one lock around
//! it. See `docs/relay.md` for the topology and the failure matrix.

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
pub mod daemon;
pub mod metrics;
pub mod upqueue;

pub use daemon::{Relay, RelayConfig, RelayStats};
pub use metrics::RelayMetrics;
