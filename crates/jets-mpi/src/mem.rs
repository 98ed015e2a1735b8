//! In-process fabric: rank threads exchanging frames over channels.
//!
//! Simulated-allocation workers execute MPI tasks as one thread per local
//! rank; all ranks of a job share a [`MemFabric`], which owns one unbounded
//! MPSC channel per rank. Per-source FIFO ordering — the only guarantee the
//! communicator needs — follows from channel semantics. A [`NetModel`]
//! charges each message its modelled transfer time before delivery, which
//! is how the native-vs-sockets messaging comparison of Figure 8 is
//! reproduced off the Blue Gene/P.

use crate::error::MpiError;
use crate::netmodel::{precise_wait, NetModel};
use crate::transport::{Frame, Transport};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Constructor namespace for in-process fabrics: [`MemFabric::new`]
/// builds the per-rank endpoints of one MPI job.
pub struct MemFabric;

impl MemFabric {
    /// Create a fabric for `size` ranks and hand back the per-rank
    /// endpoints (index = rank).
    #[allow(clippy::new_ret_no_self)] // the endpoints *are* the fabric
    pub fn new(size: u32, model: NetModel) -> Vec<MemEndpoint> {
        assert!(size > 0, "fabric needs at least one rank");
        let mut senders = Vec::with_capacity(size as usize);
        let mut receivers = Vec::with_capacity(size as usize);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| MemEndpoint {
                rank: rank as u32,
                size,
                senders: senders.clone(),
                incoming: rx,
                model,
                down: false,
            })
            .collect()
    }
}

/// One rank's attachment to a [`MemFabric`].
pub struct MemEndpoint {
    rank: u32,
    size: u32,
    senders: Vec<Sender<Frame>>,
    incoming: Receiver<Frame>,
    model: NetModel,
    down: bool,
}

impl Transport for MemEndpoint {
    fn send(&mut self, dst: u32, frame: Frame) -> Result<(), MpiError> {
        if self.down {
            return Err(MpiError::Protocol("endpoint is shut down".to_string()));
        }
        let tx = self
            .senders
            .get(dst as usize)
            .ok_or_else(|| MpiError::Protocol(format!("rank {dst} out of range")))?;
        if !self.model.is_ideal() {
            // Charge the modelled transfer time to the sender; for the
            // blocking sends the paper's workloads use, this is equivalent
            // to delaying delivery.
            precise_wait(self.model.transfer_time(frame.payload.len()));
        }
        tx.send(frame)
            .map_err(|_| MpiError::Disconnected { peer: dst })
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, MpiError> {
        match self.incoming.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(MpiError::Protocol("all fabric senders dropped".to_string()))
            }
        }
    }

    fn rank(&self) -> u32 {
        self.rank
    }

    fn size(&self) -> u32 {
        self.size
    }

    fn shutdown(&mut self) {
        self.down = true;
        self.senders.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const T: Duration = Duration::from_secs(5);

    fn frame(src: u32, tag: u32, data: &[u8]) -> Frame {
        Frame {
            src,
            tag,
            payload: Arc::from(data),
        }
    }

    #[test]
    fn two_rank_round_trip() {
        let mut eps = MemFabric::new(2, NetModel::ideal());
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, frame(0, 7, b"ping")).unwrap();
        let got = b.recv(T).unwrap().unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(got.tag, 7);
        assert_eq!(&got.payload[..], b"ping");
    }

    #[test]
    fn per_source_ordering_is_preserved() {
        let mut eps = MemFabric::new(2, NetModel::ideal());
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..100u8 {
            a.send(1, frame(0, 0, &[i])).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.recv(T).unwrap().unwrap().payload[0], i);
        }
    }

    #[test]
    fn recv_times_out_when_idle() {
        let mut eps = MemFabric::new(1, NetModel::ideal());
        let mut a = eps.pop().unwrap();
        assert_eq!(a.recv(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn send_to_out_of_range_rank_fails() {
        let mut eps = MemFabric::new(1, NetModel::ideal());
        let mut a = eps.pop().unwrap();
        assert!(matches!(
            a.send(3, frame(0, 0, b"x")),
            Err(MpiError::Protocol(_))
        ));
    }

    #[test]
    fn send_after_shutdown_fails() {
        let mut eps = MemFabric::new(2, NetModel::ideal());
        let mut a = eps.pop().unwrap();
        a.shutdown();
        assert!(a.send(0, frame(1, 0, b"x")).is_err());
    }

    #[test]
    fn model_delay_is_charged() {
        let model = NetModel {
            latency: Duration::from_millis(5),
            bandwidth: f64::INFINITY,
        };
        let mut eps = MemFabric::new(2, model);
        let mut a = eps.remove(0);
        let start = std::time::Instant::now();
        a.send(1, frame(0, 0, b"x")).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn cross_thread_exchange() {
        let mut eps = MemFabric::new(2, NetModel::ideal());
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let h = thread::spawn(move || {
            let f = b.recv(T).unwrap().unwrap();
            b.send(0, frame(1, f.tag, &f.payload)).unwrap();
        });
        a.send(1, frame(0, 42, b"echo")).unwrap();
        let back = a.recv(T).unwrap().unwrap();
        assert_eq!(back.src, 1);
        assert_eq!(back.tag, 42);
        h.join().unwrap();
    }
}
