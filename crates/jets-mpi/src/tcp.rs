//! TCP transport: how separate-process ranks exchange frames.
//!
//! Wire-up follows the MPICH2-on-sockets flow exactly: each rank binds an
//! ephemeral listener, publishes `bc.<rank> = host:port` into the job's PMI
//! key-value space, fences, and resolves peers from the KVS. Connections
//! are established lazily on first send. Each direction of traffic uses the
//! socket the *sender* initiated (accepted sockets are read-only), so
//! per-(source, destination) FIFO ordering holds without any sequencing.
//!
//! Frame format: a 12-byte little-endian header `[src u32][tag u32][len
//! u32]` followed by `len` payload bytes.

use crate::error::MpiError;
use crate::transport::{Frame, Transport};
use jets_pmi::PmiClient;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Upper bound on a single frame payload; guards against corrupt headers.
const MAX_FRAME: u32 = 1 << 30;

/// Stack size for reader/acceptor service threads.
const SERVICE_STACK: usize = 128 * 1024;

/// A TCP endpoint for one rank, wired up through PMI.
pub struct TcpTransport {
    rank: u32,
    size: u32,
    incoming_tx: Sender<Frame>,
    incoming_rx: Receiver<Frame>,
    /// Lazily-opened write sockets, indexed by destination rank.
    writers: Vec<Option<TcpStream>>,
    peer_addrs: Vec<String>,
    shutdown_flag: Arc<AtomicBool>,
    down: bool,
}

impl TcpTransport {
    /// Bind a listener, exchange business cards through `pmi`, and start
    /// accepting peer connections.
    pub fn wire_up(pmi: &mut PmiClient) -> Result<TcpTransport, MpiError> {
        let rank = pmi.rank();
        let size = pmi.size();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let my_addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;

        pmi.put(&format!("bc.{rank}"), &my_addr)
            .map_err(|e| MpiError::Pmi(e.to_string()))?;
        pmi.fence().map_err(|e| MpiError::Pmi(e.to_string()))?;

        let mut peer_addrs = Vec::with_capacity(size as usize);
        for peer in 0..size {
            let card = pmi
                .get(&format!("bc.{peer}"))
                .map_err(|e| MpiError::Pmi(e.to_string()))?
                .ok_or_else(|| MpiError::Pmi(format!("no business card for rank {peer}")))?;
            peer_addrs.push(card);
        }

        let (incoming_tx, incoming_rx) = channel();
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let acceptor_tx = incoming_tx.clone();
        let acceptor_flag = Arc::clone(&shutdown_flag);
        thread::Builder::new()
            .name(format!("mpi-accept-{rank}"))
            .stack_size(SERVICE_STACK)
            .spawn(move || accept_loop(listener, acceptor_tx, acceptor_flag))
            .expect("spawn mpi acceptor");

        Ok(TcpTransport {
            rank,
            size,
            incoming_tx,
            incoming_rx,
            writers: (0..size).map(|_| None).collect(),
            peer_addrs,
            shutdown_flag,
            down: false,
        })
    }

    fn writer_for(&mut self, dst: u32) -> Result<&mut TcpStream, MpiError> {
        let slot = self
            .writers
            .get_mut(dst as usize)
            .ok_or_else(|| MpiError::Protocol(format!("rank {dst} out of range")))?;
        if slot.is_none() {
            let stream = TcpStream::connect(&self.peer_addrs[dst as usize])
                .map_err(|_| MpiError::Disconnected { peer: dst })?;
            stream.set_nodelay(true)?;
            let mut stream = stream;
            // Hello: identify ourselves so the peer's reader labels frames.
            stream.write_all(&self.rank.to_le_bytes())?;
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
        self.shutdown_flag.store(true, Ordering::Release);
        for w in &mut self.writers {
            *w = None; // dropping closes the socket; peers' readers see EOF
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, incoming: Sender<Frame>, shutdown: Arc<AtomicBool>) {
    let mut backoff = Duration::from_micros(200);
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_micros(200);
                stream.set_nodelay(true).ok();
                let tx = incoming.clone();
                // Spawn failure sheds this connection; the peer rank's
                // connect will fail or time out and surface there.
                if thread::Builder::new()
                    .name("mpi-read".to_string())
                    .stack_size(SERVICE_STACK)
                    .spawn(move || read_loop(stream, tx))
                    .is_err()
                {
                    continue;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Decode a little-endian u32 from a 4-byte slice without a fallible
/// conversion (callers index fixed-size header arrays).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn read_loop(mut stream: TcpStream, incoming: Sender<Frame>) {
    let mut hello = [0u8; 4];
    if stream.read_exact(&mut hello).is_err() {
        return;
    }
    let src = u32::from_le_bytes(hello);
    let mut header = [0u8; 12];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return; // peer closed: normal teardown, communicator handles it
        }
        let frame_src = le_u32(&header[0..4]);
        let tag = le_u32(&header[4..8]);
        let len = le_u32(&header[8..12]);
        if frame_src != src || len > MAX_FRAME {
            return; // corrupt stream; drop the connection
        }
        let mut payload = vec![0u8; len as usize];
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        let frame = Frame {
            src,
            tag,
            payload: Arc::from(payload),
        };
        if incoming.send(frame).is_err() {
            return; // local endpoint dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_pmi::{PmiServer, PmiServerConfig};

    /// Run `size` process-style ranks (threads with their own PMI clients
    /// and TCP transports) through `f`.
    fn run_tcp_ranks(
        size: u32,
        f: impl Fn(&mut TcpTransport) + Send + Sync + 'static,
    ) -> jets_pmi::JobOutcome {
        let server = PmiServer::start(PmiServerConfig::new("tcp-test", size)).unwrap();
        let addr = server.addr().to_string();
        let f = Arc::new(f);
        let mut handles = Vec::new();
        for rank in 0..size {
            let addr = addr.clone();
            let f = Arc::clone(&f);
            handles.push(thread::spawn(move || {
                let mut pmi = PmiClient::connect(&addr, rank, size, "tcp-test").unwrap();
                let mut t = TcpTransport::wire_up(&mut pmi).unwrap();
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
}
