//! One MPI endpoint per pilot: the listener and the thread every rank the
//! pilot ever hosts receives through.
//!
//! An [`Endpoint`] binds one listener, once, and runs one progress thread
//! for its whole life, blocked in [`Poller::wait`] over the listener and the
//! inbound sockets; dropping the endpoint wakes it, joins it and so closes
//! the listener. The thread accepts, reads what has arrived without
//! blocking, reassembles frames per connection and delivers each into the
//! inbox of the rank it is for — an unbounded channel, so delivery never
//! waits on the application and two ranks sending each other a megabyte at
//! once cannot deadlock.
//!
//! A rank that wires up [`Endpoint::register`]s: that mints a *slot*, a
//! number never used before on this endpoint, and the rank's business card
//! is `ip:port/slot`. A peer opens its connection with a hello naming the
//! slot it wants and the rank it is (`[slot u64][src u32]`, little-endian).
//! A slot never minted, or retired when its rank shut down, closes the
//! connection: a straggler from a cancelled gang, or a retried attempt under
//! the same job id, holds cards of slots that are gone and reaches nobody's
//! inbox. And since the slot travels only in the card, no peer can connect
//! before the rank it wants exists.

use crate::transport::Frame;
use jets_reactor::{Interest, Poller};
use jets_ring::stdx::Mutex;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Upper bound on a single frame payload; guards against corrupt headers.
const MAX_FRAME: usize = 1 << 30;
/// Bytes of a frame header, and of a connection's hello.
const HEADER: usize = 12;
/// The poller token of the listener; connections count up from 1.
const LISTENER: u64 = 0;

/// A rank's place on an endpoint.
pub struct Registration {
    /// What peers need to reach this rank: `ip:port/slot`.
    pub card: String,
    /// The slot, for [`Endpoint::retire`].
    pub slot: u64,
    /// The inbox's sending end (a rank's sends to itself skip the wire).
    pub tx: Sender<Frame>,
    /// Where frames addressed to this rank arrive.
    pub rx: Receiver<Frame>,
}

#[derive(Default)]
struct Slots {
    minted: u64,
    /// The inboxes of the slots not yet retired.
    inboxes: HashMap<u64, Sender<Frame>>,
}

#[derive(Default)]
struct Shared {
    slots: Mutex<Slots>,
    stop: AtomicBool,
    accepted: AtomicU64,
}

/// A bound listener and its progress thread; see the module docs.
pub struct Endpoint {
    addr: SocketAddr,
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    progress: Option<JoinHandle<()>>,
}

impl Endpoint {
    /// Bind an ephemeral port on `ip` and start the progress thread.
    pub fn bind(ip: IpAddr) -> io::Result<Endpoint> {
        let listener = TcpListener::bind((ip, 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        let shared = Arc::new(Shared::default());
        let (theirs, their_poller) = (Arc::clone(&shared), Arc::clone(&poller));
        let progress = thread::Builder::new()
            .name("mpi-progress".to_string())
            .stack_size(128 * 1024)
            .spawn(move || progress(listener, &their_poller, &theirs))?;
        let progress = Some(progress);
        Ok(Endpoint {
            addr,
            shared,
            poller,
            progress,
        })
    }

    /// The address peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far, over every rank hosted.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Mint a slot for a rank about to wire up.
    pub fn register(&self) -> Registration {
        let (tx, rx) = channel();
        let mut slots = self.shared.slots.lock();
        slots.minted += 1;
        let slot = slots.minted;
        slots.inboxes.insert(slot, tx.clone());
        let card = format!("{}/{slot}", self.addr);
        Registration { card, slot, tx, rx }
    }

    /// The rank on `slot` is done: connections that ask for it from now on
    /// are refused, and the ones it has close with their next frame.
    pub fn retire(&self, slot: u64) {
        self.shared.slots.lock().inboxes.remove(&slot);
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // SeqCst: the store must not pass the wake that sends the thread
        // to look at it.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.poller.wake();
        let _ = self.progress.take().map(JoinHandle::join);
    }
}

/// One inbound connection: the sender's socket, what has been read of the
/// frame in progress, and — once its hello arrived — who sends and to whom.
struct Inbound {
    stream: TcpStream,
    buf: Vec<u8>,
    peer: Option<(u32, Sender<Frame>)>,
}

fn progress(listener: TcpListener, poller: &Poller, shared: &Shared) {
    let mut conns: HashMap<u64, Inbound> = HashMap::new();
    let (mut events, mut chunk) = (Vec::new(), vec![0u8; 64 * 1024]);
    while poller.wait(&mut events, -1).is_ok() && !shared.stop.load(Ordering::SeqCst) {
        for ev in events.iter().filter(|ev| ev.readable) {
            if ev.token == LISTENER {
                while let Ok((stream, _)) = listener.accept() {
                    let token = 1 + shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let armed = stream.set_nonblocking(true).is_ok()
                        && poller
                            .add(stream.as_raw_fd(), token, Interest::READ)
                            .is_ok();
                    if armed {
                        let (buf, peer) = (Vec::new(), None);
                        conns.insert(token, Inbound { stream, buf, peer });
                    }
                }
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                if !pump(conn, &mut chunk, shared) {
                    // EOF is the normal teardown; a stale slot, a corrupt
                    // header and a retired inbox end the same way.
                    let _ = poller.remove(conn.stream.as_raw_fd());
                    conns.remove(&ev.token);
                }
            }
        }
    }
}

/// One `read` (the poller is level-triggered: what is left is reported
/// again), then deliver every frame it completed. False to close.
fn pump(conn: &mut Inbound, chunk: &mut [u8], shared: &Shared) -> bool {
    match conn.stream.read(chunk) {
        Ok(0) => return false,
        Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
        Err(e) => return matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
    }
    let word = |at: usize| u32::from_le_bytes([0, 1, 2, 3].map(|i| conn.buf[at + i]));
    let mut at = 0;
    while conn.buf.len() - at >= HEADER {
        let Some((src, inbox)) = &conn.peer else {
            let slot = u64::from(word(at)) | u64::from(word(at + 4)) << 32; // little-endian
            let Some(inbox) = shared.slots.lock().inboxes.get(&slot).cloned() else {
                return false;
            };
            conn.peer = Some((word(at + 8), inbox));
            at += HEADER;
            continue;
        };
        let (tag, len) = (word(at + 4), word(at + 8) as usize);
        if word(at) != *src || len > MAX_FRAME {
            return false;
        }
        let Some(payload) = conn.buf.get(at + HEADER..at + HEADER + len) else {
            // The rest of a large frame: make room for it in one step.
            conn.buf.reserve(at + HEADER + len - conn.buf.len());
            break;
        };
        let (src, payload) = (*src, Arc::from(payload));
        if inbox.send(Frame { src, tag, payload }).is_err() {
            return false; // the rank dropped its inbox
        }
        at += HEADER + len;
    }
    conn.buf.drain(..at);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(10);

    fn endpoint() -> Endpoint {
        Endpoint::bind(IpAddr::V4(Ipv4Addr::LOCALHOST)).unwrap()
    }

    /// Connect as rank `src` asking for `slot`.
    fn dial(ep: &Endpoint, slot: u64, src: u32) -> TcpStream {
        let mut stream = TcpStream::connect(ep.addr()).unwrap();
        stream.set_read_timeout(Some(WAIT)).unwrap();
        let mut hello = slot.to_le_bytes().to_vec();
        hello.extend_from_slice(&src.to_le_bytes());
        stream.write_all(&hello).unwrap();
        stream
    }

    fn frame(src: u32, tag: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for word in [src, tag, payload.len() as u32] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(payload);
        bytes
    }

    /// The endpoint closed `stream`: a read ends in EOF or a reset, not
    /// in the time-out.
    fn closed(mut stream: TcpStream) -> bool {
        match stream.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() != io::ErrorKind::WouldBlock && e.kind() != io::ErrorKind::TimedOut,
        }
    }

    #[test]
    fn frames_reach_the_slot_the_hello_names_split_however_they_arrive() {
        let ep = endpoint();
        let (a, b) = (ep.register(), ep.register());
        assert_ne!(a.slot, b.slot);
        assert_eq!(a.card, format!("{}/{}", ep.addr(), a.slot));
        let mut to_b = dial(&ep, b.slot, 3);
        // Two frames and the head of a third in one write, the rest later.
        let mut bytes = frame(3, 7, b"one");
        bytes.extend(frame(3, 8, b""));
        let third = frame(3, 9, &[5u8; 1000]);
        bytes.extend_from_slice(&third[..20]);
        to_b.write_all(&bytes).unwrap();
        let got = b.rx.recv_timeout(WAIT).unwrap();
        assert_eq!((got.src, got.tag, &got.payload[..]), (3, 7, &b"one"[..]));
        assert_eq!(b.rx.recv_timeout(WAIT).unwrap().tag, 8);
        to_b.write_all(&third[20..]).unwrap();
        let got = b.rx.recv_timeout(WAIT).unwrap();
        assert_eq!((got.tag, got.payload.len()), (9, 1000));
        assert!(a.rx.try_recv().is_err(), "nothing was addressed to a");
        assert_eq!(ep.connections_accepted(), 1);
    }

    #[test]
    fn a_stale_or_unknown_slot_is_refused_and_a_retry_never_hears_the_old_attempt() {
        let ep = endpoint();
        assert!(closed(dial(&ep, 99, 0)), "never minted");
        // Attempt one of a job: rank 1 receives from a peer, then the gang
        // is cancelled and the rank shuts down.
        let first = ep.register();
        let mut straggler = dial(&ep, first.slot, 0);
        straggler.write_all(&frame(0, 1, b"attempt 1")).unwrap();
        assert_eq!(
            &first.rx.recv_timeout(WAIT).unwrap().payload[..],
            b"attempt 1"
        );
        ep.retire(first.slot);
        drop(first.rx);
        // The retry registers the same rank of the same job id again.
        let retry = ep.register();
        straggler.write_all(&frame(0, 1, b"late")).unwrap();
        assert!(closed(straggler), "its inbox is gone");
        assert!(closed(dial(&ep, first.slot, 0)), "retired");
        let mut peer = dial(&ep, retry.slot, 0);
        peer.write_all(&frame(0, 1, b"attempt 2")).unwrap();
        let got = retry.rx.recv_timeout(WAIT).unwrap();
        assert_eq!(&got.payload[..], b"attempt 2", "and nothing before it");
    }

    #[test]
    fn a_frame_that_lies_about_its_source_or_size_closes_the_connection() {
        let ep = endpoint();
        let mine = ep.register();
        let mut liar = dial(&ep, mine.slot, 2);
        liar.write_all(&frame(3, 0, b"not from 2")).unwrap();
        assert!(closed(liar));
        let mut huge = dial(&ep, mine.slot, 2);
        let mut header = frame(2, 0, b"");
        header[8..].copy_from_slice(&u32::MAX.to_le_bytes());
        huge.write_all(&header).unwrap();
        assert!(closed(huge));
        assert!(mine.rx.try_recv().is_err());
    }

    /// Dropping an endpoint is prompt and leaves nothing behind: its
    /// thread is joined and its port refuses connections.
    #[test]
    fn a_dropped_endpoint_joins_its_thread_and_closes_its_port() {
        use std::collections::BTreeSet;
        use std::time::Instant;
        // The ids of the `mpi-progress` threads alive now.
        fn progress_threads() -> BTreeSet<String> {
            let named = |t: std::fs::DirEntry| {
                let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
                (comm.trim() == "mpi-progress").then(|| t.file_name().into_string().ok())?
            };
            let tasks = std::fs::read_dir("/proc/self/task").unwrap();
            tasks.filter_map(|t| named(t.ok()?)).collect()
        }
        // Other tests start endpoints too: ours is the one new thread once
        // it has accepted a connection. That connection stays open, so
        // only the drop can end the thread's wait.
        let (ep, tid, _open) = loop {
            let before = progress_threads();
            let ep = endpoint();
            let open = TcpStream::connect(ep.addr()).unwrap();
            let deadline = Instant::now() + WAIT;
            while ep.connections_accepted() == 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            let new: Vec<String> = progress_threads().difference(&before).cloned().collect();
            if let [tid] = &new[..] {
                break (ep, tid.clone(), open);
            }
        };
        let addr = ep.addr();
        let began = Instant::now();
        drop(ep);
        assert!(
            began.elapsed() < Duration::from_secs(1),
            "{:?}",
            began.elapsed()
        );
        // A joined thread may linger in `/proc` for the last steps of its exit.
        let task = format!("/proc/self/task/{tid}");
        while std::path::Path::new(&task).exists() {
            assert!(
                began.elapsed() < WAIT,
                "mpi-progress {tid} outlived its endpoint"
            );
            thread::sleep(Duration::from_millis(1));
        }
        let refused = TcpStream::connect(addr).map_err(|e| e.kind());
        assert_eq!(refused.err(), Some(io::ErrorKind::ConnectionRefused));
    }
}
