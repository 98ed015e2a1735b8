//! # jets-ring — the JETS flight recorder
//!
//! A fixed-capacity, lock-free, optionally `mmap`-backed ring journal
//! for high-rate event streams. This is the storage engine under
//! `jets_core::EventLog`: every dispatcher/relay/worker state
//! transition becomes one record of one to four 32-byte slots (one, for
//! every record a no-op job writes) — no `Mutex`, no heap allocation, no
//! growth — and every consumer (`jets flight tail`,
//! `jets flight dump`, the Prometheus registry) is an independent cursor
//! that chases the writer without ever blocking it.
//!
//! Two backings, one protocol:
//!
//! * [`Ring::anon`] — anonymous memory, in-process, resident only as
//!   far as the ring has been written. The default for
//!   `EventLog::new()`.
//! * [`Ring::create`] — a `MAP_SHARED` file mapping
//!   (`--flight-recorder FILE`). The kernel owns the dirty pages, so
//!   the journal survives `kill -9` and [`Ring::open_read`] +
//!   [`Ring::replay`] reconstruct the final seconds offline
//!   (`jets flight dump FILE`).
//!
//! The ordering discipline (per-slot seqlock stamps, Release-publish /
//! Acquire-observe, validated copies) is documented where it lives, in
//! `src/ring.rs`. Records are opaque payloads of 1 to [`PAYLOAD_BYTES`]
//! bytes here; the event codec lives with `EventKind` in jets-core.
//!
//! Zero dependencies, `std` only, and Linux only: the mappings are
//! hand-declared `mmap` calls with Linux's constants. As the workspace's leaf crate it also
//! carries [`stdx`]: the poison-ignoring locks and the seeded generator
//! the other crates use in place of third-party ones; and [`codec`], the
//! put/get primitives the dispatcher ⇄ worker wire protocol is written in.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::allow_attributes_without_reason
    )
)]

#[cfg(not(target_os = "linux"))]
compile_error!("jets-ring runs on Linux only: a ring is an mmap with Linux's constants");

pub mod codec;
mod region;
mod ring;
pub mod stdx;
mod sys;

pub use ring::{
    Record, Replay, Ring, RingReader, WriterRole, MAX_RECORD_SLOTS, MIN_CAPACITY, PAYLOAD_BYTES,
    SLOT_BYTES, SLOT_RECORD_BYTES,
};
