//! jets-reactor: the event-driven connection core.
//!
//! Replaces the two-threads-per-connection pattern (blocking reader
//! thread + unbounded writer channel + writer thread) with one event-loop
//! thread per [`Reactor`], blocked in a [`Poller`]: an epoll instance
//! and an eventfd that wakes it. Connections become state machines:
//! nonblocking reads reassemble newline-delimited frames
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
//! offline shadow workspace. Linux is the one platform (x86_64 and
//! aarch64), as it was for the paper's JETS: any other target stops at
//! the `compile_error!` below.
//!
//! The reactor serves the fan-in sides, where connection counts scale
//! with the cluster: the dispatcher's worker and relay connections, the
//! relay's members and its upstream session, and the ranks' connections
//! to the PMI service (`jets_pmi::serve_ranks`: a second listener on the
//! dispatcher's reactor, feeding the `jets_pmi::PmiState` its loop owns).
//! The [`Poller`] is also the one readiness primitive of the threads that
//! block outside a reactor: `jets_mpi::Endpoint`'s one thread over a
//! pilot's inbound mesh sockets, and a pilot's second thread, which waits
//! on the session socket, registered one-shot, while the first runs a
//! task. Any thread may register with a poller or wake it while another
//! waits in it.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::allow_attributes_without_reason
    )
)]

#[cfg(not(target_os = "linux"))]
compile_error!("jets-reactor runs on Linux only: its poller is epoll plus an eventfd");

mod outbox;
mod poller;
mod reactor;
mod sys;

pub use outbox::{CloseReason, Outbox};
pub use poller::{Event, Interest, Poller};
pub use reactor::{AcceptFn, ConnHandler, Flow, LoopCell, Reactor, ReactorConfig, ReactorStats};

use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, treating poisoning as benign: reactor state is a set
/// of plain byte buffers and counters that stay internally consistent
/// even if a holder panicked mid-update.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
