//! The communicator: tagged point-to-point messaging over a transport.
//!
//! One [`Communicator`] belongs to one rank thread/process of one job. It
//! layers MPI-style `(source, tag)` matching — including `ANY_SOURCE` —
//! over a transport's single incoming frame stream, keeping unmatched
//! frames in a pending queue (the "unexpected message queue" of a real
//! MPI implementation).

use crate::datatype::MpiData;
use crate::endpoint::Endpoint;
use crate::error::MpiError;
use crate::mem::MemEndpoint;
use crate::tcp::TcpTransport;
use crate::transport::{Frame, Transport, TAG_USER_LIMIT};
use jets_pmi::PmiClient;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wildcard source for [`Communicator::recv_bytes`].
pub const ANY_SOURCE: u32 = u32::MAX;

/// Default patience for a blocking receive. Generous because the paper's
/// workloads park ranks at barriers while peers compute for (virtual)
/// minutes.
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(600);

/// MPI-style communicator for one rank.
pub struct Communicator {
    transport: Box<dyn Transport>,
    /// Received frames not yet claimed by a matching `recv`.
    pending: VecDeque<Frame>,
    /// Sequence number stamping each collective call with a fresh tag.
    coll_seq: u32,
    epoch: Instant,
    recv_timeout: Duration,
    finalized: bool,
}

impl Communicator {
    /// Wrap an arbitrary transport.
    pub fn from_transport(transport: Box<dyn Transport>) -> Self {
        Communicator {
            transport,
            pending: VecDeque::new(),
            coll_seq: 0,
            epoch: Instant::now(),
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            finalized: false,
        }
    }

    /// Wrap an in-process fabric endpoint (thread-per-rank jobs).
    pub fn from_mem(endpoint: MemEndpoint) -> Self {
        Self::from_transport(Box::new(endpoint))
    }

    /// Wire up over real TCP sockets using an initialized PMI client —
    /// the path a Hydra-proxied process takes. The rank gets an endpoint
    /// of its own, on the interface its PMI connection left by, that lives
    /// as long as the communicator.
    pub fn via_pmi(pmi: &mut PmiClient) -> Result<Self, MpiError> {
        let endpoint = Endpoint::bind(pmi.local_ip()?)?;
        Self::via_endpoint(pmi, Arc::new(endpoint))
    }

    /// Wire up as [`Communicator::via_pmi`] does, receiving through an
    /// endpoint that is already bound — a pilot's, shared by every rank it
    /// hosts, one job after another.
    pub fn via_endpoint(pmi: &mut PmiClient, endpoint: Arc<Endpoint>) -> Result<Self, MpiError> {
        let transport = TcpTransport::wire_up(pmi, endpoint)?;
        Ok(Self::from_transport(Box::new(transport)))
    }

    /// This rank's index in `0..size`.
    pub fn rank(&self) -> u32 {
        self.transport.rank()
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> u32 {
        self.transport.size()
    }

    /// Adjust the blocking-receive patience.
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.recv_timeout = timeout;
    }

    /// Seconds since this communicator was created (`MPI_Wtime`).
    pub fn wtime(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Send raw bytes to `dst` with `tag`.
    pub fn send_bytes(&mut self, dst: u32, tag: u32, payload: Arc<[u8]>) -> Result<(), MpiError> {
        self.check_live()?;
        if tag >= TAG_USER_LIMIT {
            return Err(MpiError::Protocol(format!(
                "tag {tag} is in the reserved collective range"
            )));
        }
        self.send_frame(dst, tag, payload)
    }

    /// Receive bytes matching `(src, tag)`; `src` may be [`ANY_SOURCE`].
    /// Returns the actual source.
    pub fn recv_bytes(&mut self, src: u32, tag: u32) -> Result<(u32, Arc<[u8]>), MpiError> {
        self.check_live()?;
        let frame = self.match_frame(src, tag)?;
        Ok((frame.src, frame.payload))
    }

    /// Send a typed slice.
    pub fn send<T: MpiData>(&mut self, dst: u32, tag: u32, data: &[T]) -> Result<(), MpiError> {
        let mut buf = Vec::new();
        T::encode_slice(data, &mut buf);
        self.send_bytes(dst, tag, Arc::from(buf))
    }

    /// Receive a typed vector; returns `(actual_source, data)`.
    pub fn recv_vec<T: MpiData>(&mut self, src: u32, tag: u32) -> Result<(u32, Vec<T>), MpiError> {
        let (actual, payload) = self.recv_bytes(src, tag)?;
        Ok((actual, T::decode_slice(&payload)?))
    }

    /// Orderly shutdown: barrier with peers, then release the transport.
    pub fn finalize(&mut self) -> Result<(), MpiError> {
        if self.finalized {
            return Ok(());
        }
        self.barrier()?;
        self.finalized = true;
        self.transport.shutdown();
        Ok(())
    }

    // ---- crate-internal plumbing used by the collectives module ----

    pub(crate) fn check_live(&self) -> Result<(), MpiError> {
        if self.finalized {
            Err(MpiError::Protocol(
                "communicator already finalized".to_string(),
            ))
        } else {
            Ok(())
        }
    }

    /// Reserve a tag for one collective call. All ranks invoke collectives
    /// in the same order, so sequence numbers agree across the job.
    pub(crate) fn next_collective_tag(&mut self) -> u32 {
        let tag = TAG_USER_LIMIT + (self.coll_seq % (u32::MAX - TAG_USER_LIMIT));
        self.coll_seq = self.coll_seq.wrapping_add(1);
        tag
    }

    pub(crate) fn send_frame(
        &mut self,
        dst: u32,
        tag: u32,
        payload: Arc<[u8]>,
    ) -> Result<(), MpiError> {
        if dst >= self.size() {
            return Err(MpiError::Protocol(format!(
                "destination rank {dst} out of range for size {}",
                self.size()
            )));
        }
        let frame = Frame {
            src: self.rank(),
            tag,
            payload,
        };
        self.transport.send(dst, frame)
    }

    /// Pull frames until one matches `(src, tag)`, stashing the rest.
    pub(crate) fn match_frame(&mut self, src: u32, tag: u32) -> Result<Frame, MpiError> {
        if src != ANY_SOURCE && src >= self.size() {
            return Err(MpiError::Protocol(format!(
                "source rank {src} out of range for size {}",
                self.size()
            )));
        }
        if let Some(pos) = self
            .pending
            .iter()
            .position(|f| f.tag == tag && (src == ANY_SOURCE || f.src == src))
        {
            return Ok(self.pending.remove(pos).expect("position just found"));
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(MpiError::Protocol(format!(
                    "recv(src={src}, tag={tag}) timed out after {:?}",
                    self.recv_timeout
                )));
            }
            match self.transport.recv(deadline - now)? {
                Some(frame) => {
                    if frame.tag == tag && (src == ANY_SOURCE || frame.src == src) {
                        return Ok(frame);
                    }
                    self.pending.push_back(frame);
                }
                None => continue, // loop re-checks the deadline
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemFabric;
    use crate::netmodel::NetModel;
    use std::thread;

    fn pair() -> (Communicator, Communicator) {
        let mut eps = MemFabric::new(2, NetModel::ideal());
        let b = Communicator::from_mem(eps.pop().unwrap());
        let a = Communicator::from_mem(eps.pop().unwrap());
        (a, b)
    }

    #[test]
    fn typed_round_trip() {
        let (mut a, mut b) = pair();
        a.send(1, 3, &[1.5f64, 2.5]).unwrap();
        let (src, data) = b.recv_vec::<f64>(0, 3).unwrap();
        assert_eq!(src, 0);
        assert_eq!(data, vec![1.5, 2.5]);
    }

    #[test]
    fn tag_matching_reorders_pending_frames() {
        let (mut a, mut b) = pair();
        a.send(1, 1, &[10i32]).unwrap();
        a.send(1, 2, &[20i32]).unwrap();
        // Ask for tag 2 first: tag-1 frame must be stashed, not lost.
        let (_, second) = b.recv_vec::<i32>(0, 2).unwrap();
        assert_eq!(second, vec![20]);
        let (_, first) = b.recv_vec::<i32>(0, 1).unwrap();
        assert_eq!(first, vec![10]);
    }

    #[test]
    fn any_source_matches_whoever_arrives() {
        let mut eps = MemFabric::new(3, NetModel::ideal());
        let mut c = Communicator::from_mem(eps.pop().unwrap());
        let mut b = Communicator::from_mem(eps.pop().unwrap());
        let mut a = Communicator::from_mem(eps.pop().unwrap());
        b.send(0, 4, &[1u8]).unwrap();
        c.send(0, 4, &[2u8]).unwrap();
        let (s1, _) = a.recv_vec::<u8>(ANY_SOURCE, 4).unwrap();
        let (s2, _) = a.recv_vec::<u8>(ANY_SOURCE, 4).unwrap();
        let mut sources = [s1, s2];
        sources.sort_unstable();
        assert_eq!(sources, [1, 2]);
    }

    #[test]
    fn same_source_same_tag_is_fifo() {
        let (mut a, mut b) = pair();
        for i in 0..50i32 {
            a.send(1, 0, &[i]).unwrap();
        }
        for i in 0..50i32 {
            let (_, v) = b.recv_vec::<i32>(0, 0).unwrap();
            assert_eq!(v, vec![i]);
        }
    }

    #[test]
    fn user_tag_range_enforced() {
        let (mut a, _b) = pair();
        let err = a
            .send_bytes(1, TAG_USER_LIMIT, Arc::from(&b"x"[..]))
            .unwrap_err();
        assert!(matches!(err, MpiError::Protocol(_)));
    }

    #[test]
    fn bad_ranks_rejected() {
        let (mut a, _b) = pair();
        assert!(a.send(5, 0, &[0u8]).is_err());
        assert!(a.recv_vec::<u8>(5, 0).is_err());
    }

    #[test]
    fn recv_timeout_is_reported() {
        let (mut a, _b) = pair();
        a.set_recv_timeout(Duration::from_millis(10));
        let err = a.recv_vec::<u8>(1, 0).unwrap_err();
        assert!(matches!(err, MpiError::Protocol(m) if m.contains("timed out")));
    }

    #[test]
    fn wtime_advances() {
        let (a, _b) = pair();
        let t0 = a.wtime();
        thread::sleep(Duration::from_millis(5));
        assert!(a.wtime() > t0);
    }

    #[test]
    fn operations_after_finalize_fail() {
        let mut eps = MemFabric::new(1, NetModel::ideal());
        let mut a = Communicator::from_mem(eps.pop().unwrap());
        a.finalize().unwrap();
        assert!(a.send(0, 0, &[0u8]).is_err());
        // A second finalize is a no-op, not an error.
        assert!(a.finalize().is_ok());
    }
}
