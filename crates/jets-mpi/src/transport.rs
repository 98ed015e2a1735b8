//! Transport abstraction: how frames move between ranks.
//!
//! A [`Frame`] is the unit of transfer: source rank, tag, payload. A
//! [`Transport`] can push a frame toward a destination rank and pop the
//! next frame addressed to this rank (from any source). Matching by
//! `(source, tag)` happens above the transport, in the communicator, so
//! transports stay dumb pipes with one guarantee: frames from a given
//! source arrive in the order they were sent.

use crate::error::MpiError;
use std::sync::Arc;
use std::time::Duration;

/// One message on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending rank.
    pub src: u32,
    /// Message tag. User tags must be `< TAG_USER_LIMIT`; higher values are
    /// reserved for collectives.
    pub tag: u32,
    /// Payload bytes, reference-counted so a broadcast and the
    /// in-process transports never copy them per receiver.
    pub payload: Arc<[u8]>,
}

/// Largest tag available to applications; tags at or above this value are
/// reserved for internal (collective) traffic.
pub const TAG_USER_LIMIT: u32 = 1 << 24;

/// A duplex endpoint attached to one rank of one job.
pub trait Transport: Send {
    /// Deliver `frame` to `dst`. Blocks until the frame is handed to the
    /// fabric (eager semantics: delivery to the destination's queue, not
    /// its application).
    fn send(&mut self, dst: u32, frame: Frame) -> Result<(), MpiError>;

    /// Pop the next incoming frame, blocking up to `timeout`.
    /// Returns `Ok(None)` on timeout.
    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, MpiError>;

    /// This rank's index.
    fn rank(&self) -> u32;

    /// Number of ranks in the job.
    fn size(&self) -> u32;

    /// Release transport resources (close sockets / detach from fabric).
    /// Called once by the communicator on finalize; must be idempotent.
    fn shutdown(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_is_cheap_to_clone() {
        let payload: Arc<[u8]> = Arc::from(vec![7u8; 1 << 20]);
        let f = Frame {
            src: 1,
            tag: 2,
            payload: payload.clone(),
        };
        let g = f.clone();
        // Arc<[u8]> clones share the same backing allocation.
        assert_eq!(g.payload.as_ptr(), payload.as_ptr());
    }
}
