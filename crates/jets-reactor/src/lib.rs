//! jets-reactor: the event-driven connection core.
//!
//! Replaces the two-threads-per-connection pattern (blocking reader
//! thread + unbounded writer channel + writer thread) with a fixed
//! handful of event-loop threads — epoll on Linux, kqueue on the BSD
//! family — behind the [`Poller`] trait. Connections become state
//! machines: nonblocking reads reassemble newline-delimited frames
//! across wakeups, writes drain bounded per-connection [`Outbox`]es
//! with `WOULDBLOCK`-driven interest re-arming, and peers that stop
//! reading are disconnected instead of growing process memory.
//!
//! A loop is also what owns a daemon's state. [`Reactor::own`] hands a
//! value to the loop as a [`LoopCell`], which panics when any other
//! thread touches it; other threads reach it by posting a closure
//! ([`Reactor::post`], or [`LoopCell::call`] to wait for its result).
//! Periodic work is a timer on the loop ([`Reactor::every`],
//! [`Reactor::after`]): the loop sleeps in its poller until the next
//! one is due. An outbound connection is dialed by the loop without
//! blocking ([`Reactor::connect`]); a failed connect reaches the
//! handler's `on_close` as [`CloseReason::ConnectFailed`].
//!
//! Like jets-obs and jets-lint, this crate has **zero dependencies**:
//! the syscalls are hand-declared FFI against the C library `std`
//! already links, so the reactor compiles and its tests run in the
//! offline shadow workspace.
//!
//! The reactor serves the fan-in sides, where connection counts scale
//! with the cluster: the dispatcher's worker and relay connections, the
//! relay's members and its upstream session, and the ranks' connections
//! to the PMI service (`jets_pmi::serve_ranks`: a second listener on the
//! dispatcher's reactor, feeding the `jets_pmi::PmiState` its loop owns). `jets_mpi::Endpoint` uses the [`Poller`]
//! alone, one thread over a pilot's inbound mesh sockets. The blocking
//! client paths (the worker agent's session, a rank's `PmiClient`) stay
//! on the calling thread; while a pilot's reader runs a task, its other
//! thread waits on the session socket in a [`Watch`], which, unlike a
//! [`Poller`], a thread can arm while another waits in it.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::allow_attributes_without_reason
    )
)]

mod outbox;
mod poller;
mod reactor;
mod sys;

pub use outbox::{CloseReason, Outbox};
pub use poller::{new_poller, Event, Interest, Poller, Watch};
pub use reactor::{AcceptFn, ConnHandler, Flow, LoopCell, Reactor, ReactorConfig, ReactorStats};

use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, treating poisoning as benign: reactor state is a set
/// of plain byte buffers and counters that stay internally consistent
/// even if a holder panicked mid-update.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
