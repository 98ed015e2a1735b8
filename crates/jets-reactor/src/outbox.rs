//! Bounded per-connection write buffers.
//!
//! The outbox replaces the `unbounded` writer channel + dedicated
//! writer thread of the blocking design. Any thread may `send` a
//! pre-framed message; the owning event loop drains the buffer to the
//! socket when it is writable. The buffer is **bounded**: a peer that
//! stops reading fills its outbox and is disconnected (the
//! slow-consumer policy) instead of growing dispatcher memory without
//! limit. `send` never blocks, so it is safe to call while holding
//! scheduler locks.

use crate::lock;
use crate::reactor::LoopShared;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Why a connection was torn down, reported once to
/// [`crate::ConnHandler::on_close`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed the connection (EOF).
    PeerClosed,
    /// A socket read failed.
    ReadError,
    /// A socket write failed.
    WriteError,
    /// An incoming frame exceeded the configured maximum.
    Oversize,
    /// The outbox overflowed: the peer was not draining its writes.
    SlowConsumer,
    /// The handler asked for the close (returned [`crate::Flow::Close`]),
    /// or its owner did ([`Outbox::abort`]).
    Handler,
    /// [`Outbox::close`] was called; pending bytes were flushed first.
    Closed,
    /// A [`crate::Reactor::connect`] did not go through; the handler was
    /// never opened.
    ConnectFailed,
}

pub(crate) struct OutQ {
    pub(crate) buf: VecDeque<u8>,
    /// Set once; the loop tears the connection down with this reason
    /// (after draining `buf` for the graceful `Closed` case).
    pub(crate) closed: Option<CloseReason>,
}

/// Handle for queueing outbound frames on one reactor connection.
///
/// Cheap to clone via `Arc`; survives the connection (sends after
/// teardown return `false`).
pub struct Outbox {
    pub(crate) id: u64,
    pub(crate) q: Mutex<OutQ>,
    pub(crate) loop_: Arc<LoopShared>,
}

impl Outbox {
    pub(crate) fn new(id: u64, loop_: Arc<LoopShared>) -> Arc<Outbox> {
        Arc::new(Outbox {
            id,
            q: Mutex::new(OutQ {
                buf: VecDeque::new(),
                closed: None,
            }),
            loop_,
        })
    }

    /// Connection token this outbox feeds (diagnostic).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Queue one already-framed message (newline included) for the
    /// event loop to write. Returns `false` if the connection is
    /// closed or the bounded buffer overflowed — in the latter case
    /// the connection is marked for slow-consumer disconnect. Never
    /// blocks.
    pub fn send(&self, frame: &[u8]) -> bool {
        let kick = {
            let mut q = lock(&self.q);
            if q.closed.is_some() {
                return false;
            }
            if q.buf.len() + frame.len() > self.loop_.outbox_limit {
                q.closed = Some(CloseReason::SlowConsumer);
                q.buf.clear();
                self.loop_
                    .stats
                    .slow_consumer_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                drop(q);
                self.loop_.kick(self.id);
                return false;
            }
            let was_empty = q.buf.is_empty();
            q.buf.extend(frame.iter().copied());
            self.loop_
                .stats
                .outbox_hwm
                .fetch_max(q.buf.len() as u64, Ordering::Relaxed);
            was_empty
        };
        // Only the empty→nonempty edge needs a wakeup: while bytes are
        // queued the loop already holds write interest for this fd.
        if kick {
            self.loop_.kick(self.id);
        }
        true
    }

    /// Request a graceful close: pending bytes are flushed, then the
    /// connection is torn down with [`CloseReason::Closed`].
    pub fn close(&self) {
        {
            let mut q = lock(&self.q);
            if q.closed.is_some() {
                return;
            }
            q.closed = Some(CloseReason::Closed);
        }
        self.loop_.kick(self.id);
    }

    /// Tear the connection down now, dropping whatever is still queued
    /// ([`CloseReason::Handler`]).
    pub fn abort(&self) {
        self.mark_closed(CloseReason::Handler);
        self.loop_.kick(self.id);
    }

    /// Whether the connection is already marked closed.
    pub fn is_closed(&self) -> bool {
        lock(&self.q).closed.is_some()
    }

    /// Bytes currently queued (diagnostic; racy by nature).
    pub fn queued(&self) -> usize {
        lock(&self.q).buf.len()
    }

    /// Mark closed without flushing — used by the loop on teardown so
    /// later `send`s fail fast.
    pub(crate) fn mark_closed(&self, reason: CloseReason) {
        let mut q = lock(&self.q);
        if q.closed.is_none() || q.closed == Some(CloseReason::Closed) {
            q.closed = Some(reason);
        }
        q.buf.clear();
    }
}
