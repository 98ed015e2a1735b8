//! TCP transport: how separate-process ranks exchange frames.
//!
//! Wire-up follows the MPICH2-on-sockets flow: each rank registers with
//! its pilot's [`Endpoint`] (one listener and one progress thread for every
//! rank the pilot ever hosts), publishes the card it is given as `bc.<rank>`
//! into the job's PMI key-value space, fences, and reads its peers' cards
//! out of what the fence delivered — one PMI round trip in all.
//! Connections are established lazily on first send. Each direction of
//! traffic uses the socket the *sender* initiated (accepted sockets are
//! read-only), so per-(source, destination) FIFO ordering holds without any
//! sequencing.
//!
//! Frame format: a 12-byte little-endian header `[src u32][tag u32][len
//! u32]` followed by `len` payload bytes, after a 12-byte hello `[slot
//! u64][src u32]` naming the inbox the connection is for.

use crate::endpoint::Endpoint;
use crate::error::MpiError;
use crate::transport::{Frame, Transport};
use jets_pmi::PmiClient;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One rank's attachment to an [`Endpoint`], wired up through PMI.
pub struct TcpTransport {
    rank: u32,
    size: u32,
    /// Held so that a private endpoint lives as long as its rank.
    endpoint: Arc<Endpoint>,
    slot: u64,
    incoming_tx: Sender<Frame>,
    incoming_rx: Receiver<Frame>,
    /// Lazily-opened write sockets, indexed by destination rank.
    writers: Vec<Option<TcpStream>>,
    peer_cards: Vec<String>,
    down: bool,
}

impl TcpTransport {
    /// Register on `endpoint` and exchange business cards through `pmi`.
    pub fn wire_up(pmi: &mut PmiClient, endpoint: Arc<Endpoint>) -> Result<TcpTransport, MpiError> {
        let pmi_err = |e: jets_pmi::client::PmiError| MpiError::Pmi(e.to_string());
        let (rank, size) = (pmi.rank(), pmi.size());
        let mine = endpoint.register();
        let mut transport = TcpTransport {
            rank,
            size,
            endpoint,
            slot: mine.slot,
            incoming_tx: mine.tx,
            incoming_rx: mine.rx,
            writers: (0..size).map(|_| None).collect(),
            peer_cards: Vec::with_capacity(size as usize),
            down: false,
        };
        pmi.put(&format!("bc.{rank}"), &mine.card)
            .map_err(pmi_err)?;
        pmi.fence().map_err(pmi_err)?;
        for peer in 0..size {
            let card = pmi.get(&format!("bc.{peer}")).map_err(pmi_err)?;
            let missing = || MpiError::Pmi(format!("no business card for rank {peer}"));
            transport.peer_cards.push(card.ok_or_else(missing)?);
        }
        Ok(transport)
    }

    fn writer_for(&mut self, dst: u32) -> Result<&mut TcpStream, MpiError> {
        let slot = self
            .writers
            .get_mut(dst as usize)
            .ok_or_else(|| MpiError::Protocol(format!("rank {dst} out of range")))?;
        if slot.is_none() {
            let card = &self.peer_cards[dst as usize];
            let (addr, inbox) = card
                .rsplit_once('/')
                .and_then(|(addr, inbox)| Some((addr, inbox.parse::<u64>().ok()?)))
                .ok_or_else(|| MpiError::Protocol(format!("rank {dst}'s card is {card}")))?;
            let mut stream =
                TcpStream::connect(addr).map_err(|_| MpiError::Disconnected { peer: dst })?;
            stream.set_nodelay(true)?;
            // Hello: which inbox this connection feeds, and who we are,
            // so the peer's endpoint labels our frames.
            let mut hello = [0u8; 12];
            hello[..8].copy_from_slice(&inbox.to_le_bytes());
            hello[8..].copy_from_slice(&self.rank.to_le_bytes());
            stream.write_all(&hello)?;
            *slot = Some(stream);
        }
        Ok(slot.as_mut().expect("just filled"))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, dst: u32, frame: Frame) -> Result<(), MpiError> {
        if self.down {
            return Err(MpiError::Protocol("endpoint is shut down".to_string()));
        }
        if dst == self.rank {
            // Self-sends short-circuit the network, as in every real MPI.
            self.incoming_tx
                .send(frame)
                .map_err(|_| MpiError::Disconnected { peer: dst })?;
            return Ok(());
        }
        let mut header = [0u8; 12];
        header[0..4].copy_from_slice(&frame.src.to_le_bytes());
        header[4..8].copy_from_slice(&frame.tag.to_le_bytes());
        header[8..12].copy_from_slice(&(frame.payload.len() as u32).to_le_bytes());
        let writer = self.writer_for(dst)?;
        writer
            .write_all(&header)
            .and_then(|_| writer.write_all(&frame.payload))
            .map_err(|_| MpiError::Disconnected { peer: dst })
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, MpiError> {
        match self.incoming_rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(MpiError::Protocol("incoming channel closed".to_string()))
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
        self.endpoint.retire(self.slot);
        for w in &mut self.writers {
            *w = None; // dropping closes the socket; the peer's endpoint sees EOF
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_pmi::{PmiServer, PmiServerConfig};
    use std::net::{IpAddr, Ipv4Addr};
    use std::thread;

    /// Run `size` process-style ranks (threads with their own PMI clients
    /// and TCP transports) through `f`.
    fn run_tcp_ranks(
        size: u32,
        f: impl Fn(&mut TcpTransport) + Send + Sync + 'static,
    ) -> jets_pmi::JobOutcome {
        let server = PmiServer::start(PmiServerConfig::new("tcp-test", size)).unwrap();
        let addr = server.addr().to_string();
        // One endpoint for all the ranks, as on a pilot with ppn = size.
        let endpoint = Arc::new(Endpoint::bind(IpAddr::V4(Ipv4Addr::LOCALHOST)).unwrap());
        let f = Arc::new(f);
        let mut handles = Vec::new();
        for rank in 0..size {
            let addr = addr.clone();
            let f = Arc::clone(&f);
            let endpoint = Arc::clone(&endpoint);
            handles.push(thread::spawn(move || {
                let mut pmi = PmiClient::connect(&addr, rank, size, "tcp-test").unwrap();
                let mut t = TcpTransport::wire_up(&mut pmi, endpoint).unwrap();
                f(&mut t);
                pmi.finalize().unwrap();
                t.shutdown();
            }));
        }
        let outcome = server.wait(Duration::from_secs(30));
        for h in handles {
            h.join().unwrap();
        }
        outcome
    }

    #[test]
    fn ping_pong_over_real_sockets() {
        let outcome = run_tcp_ranks(2, |t| {
            let timeout = Duration::from_secs(10);
            if t.rank() == 0 {
                t.send(
                    1,
                    Frame {
                        src: 0,
                        tag: 5,
                        payload: Arc::from(&b"ping"[..]),
                    },
                )
                .unwrap();
                let f = t.recv(timeout).unwrap().unwrap();
                assert_eq!(&f.payload[..], b"pong");
                assert_eq!(f.src, 1);
            } else {
                let f = t.recv(timeout).unwrap().unwrap();
                assert_eq!(&f.payload[..], b"ping");
                t.send(
                    0,
                    Frame {
                        src: 1,
                        tag: 5,
                        payload: Arc::from(&b"pong"[..]),
                    },
                )
                .unwrap();
            }
        });
        assert_eq!(outcome, jets_pmi::JobOutcome::Success);
    }

    #[test]
    fn all_to_one_fan_in() {
        let outcome = run_tcp_ranks(4, |t| {
            let timeout = Duration::from_secs(10);
            if t.rank() == 0 {
                let mut seen = vec![false; 4];
                for _ in 0..3 {
                    let f = t.recv(timeout).unwrap().unwrap();
                    assert_eq!(f.payload[0] as u32, f.src);
                    seen[f.src as usize] = true;
                }
                assert_eq!(seen, vec![false, true, true, true]);
            } else {
                t.send(
                    0,
                    Frame {
                        src: t.rank(),
                        tag: 1,
                        payload: Arc::from(vec![t.rank() as u8]),
                    },
                )
                .unwrap();
            }
        });
        assert_eq!(outcome, jets_pmi::JobOutcome::Success);
    }

    #[test]
    fn self_send_round_trips() {
        let outcome = run_tcp_ranks(1, |t| {
            t.send(
                0,
                Frame {
                    src: 0,
                    tag: 9,
                    payload: Arc::from(&b"self"[..]),
                },
            )
            .unwrap();
            let f = t.recv(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(&f.payload[..], b"self");
        });
        assert_eq!(outcome, jets_pmi::JobOutcome::Success);
    }

    #[test]
    fn large_payload_survives() {
        let outcome = run_tcp_ranks(2, |t| {
            let timeout = Duration::from_secs(10);
            let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
            if t.rank() == 0 {
                t.send(
                    1,
                    Frame {
                        src: 0,
                        tag: 2,
                        payload: Arc::from(big),
                    },
                )
                .unwrap();
            } else {
                let f = t.recv(timeout).unwrap().unwrap();
                assert_eq!(f.payload.len(), 1_000_000);
                assert!(f
                    .payload
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == (i % 251) as u8));
            }
        });
        assert_eq!(outcome, jets_pmi::JobOutcome::Success);
    }

    #[test]
    fn a_megabyte_each_way_at_once_completes() {
        // Both ranks write before either reads: only the endpoints'
        // eager, unbounded delivery keeps the two `write_all`s from
        // waiting on each other for ever.
        let outcome = run_tcp_ranks(2, |t| {
            let (me, peer) = (t.rank(), 1 - t.rank());
            let big: Vec<u8> = (0..1_000_000u32)
                .map(|i| (i % 251) as u8 ^ me as u8)
                .collect();
            let payload = Arc::from(big);
            t.send(
                peer,
                Frame {
                    src: me,
                    tag: 4,
                    payload,
                },
            )
            .unwrap();
            let f = t.recv(Duration::from_secs(20)).unwrap().unwrap();
            assert_eq!((f.src, f.payload.len()), (peer, 1_000_000));
            let expect = |(i, &b): (usize, &u8)| b == (i % 251) as u8 ^ peer as u8;
            assert!(f.payload.iter().enumerate().all(expect));
        });
        assert_eq!(outcome, jets_pmi::JobOutcome::Success);
    }

    #[test]
    fn two_jobs_at_once_on_one_endpoint_do_not_cross() {
        let endpoint = Arc::new(Endpoint::bind(IpAddr::V4(Ipv4Addr::LOCALHOST)).unwrap());
        let jobs: Vec<_> = ["left", "right"]
            .into_iter()
            .map(|jobid| {
                let server = PmiServer::start(PmiServerConfig::new(jobid, 2)).unwrap();
                let ranks: Vec<_> = (0..2u32)
                    .map(|rank| {
                        let (addr, endpoint) = (server.addr().to_string(), Arc::clone(&endpoint));
                        thread::spawn(move || {
                            let mut pmi = PmiClient::connect(&addr, rank, 2, jobid).unwrap();
                            let mut t = TcpTransport::wire_up(&mut pmi, endpoint).unwrap();
                            let payload: Arc<[u8]> = Arc::from(jobid.as_bytes());
                            for tag in 0..50 {
                                let (src, payload) = (rank, Arc::clone(&payload));
                                t.send(1 - rank, Frame { src, tag, payload }).unwrap();
                                let f = t.recv(Duration::from_secs(10)).unwrap().unwrap();
                                assert_eq!(
                                    (f.src, f.tag, &f.payload[..]),
                                    (1 - rank, tag, jobid.as_bytes())
                                );
                            }
                            pmi.finalize().unwrap();
                        })
                    })
                    .collect();
                (server, ranks)
            })
            .collect();
        for (server, ranks) in jobs {
            ranks.into_iter().for_each(|h| h.join().unwrap());
            assert_eq!(
                server.wait(Duration::from_secs(10)),
                jets_pmi::JobOutcome::Success
            );
        }
        // Four ranks, one listener: each opened one connection to its peer.
        assert_eq!(endpoint.connections_accepted(), 4);
    }
}
