//! [`Poller`]: the one readiness queue, an epoll instance.
//!
//! Registrations and the wait take `&self`: the kernel already orders an
//! `epoll_ctl` change against a wait in progress, so one thread may add,
//! modify or remove descriptors while another blocks in
//! [`Poller::wait`]. The raw event buffer lives on the waiting thread's
//! stack, so the poller holds no lock. Registrations are level-triggered —
//! the reactor arms write interest only while a connection's outbox holds
//! bytes, which is the entire backpressure protocol — unless they are
//! one-shot ([`Interest::READ_ONCE`]). Each poller owns an eventfd:
//! [`Poller::wake`] makes the current or the next wait return.

use crate::sys;
use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};

/// Which readiness classes a registration wants delivered. Readable
/// events (and with them errors and hangups) always are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Deliver writable events too.
    pub write: bool,
    /// Deliver the next event only; the registration stays until removed
    /// and [`Poller::modify`] re-arms it.
    pub once: bool,
}

impl Interest {
    /// Read-only interest — the steady state of every connection.
    pub const READ: Interest = Interest {
        write: false,
        once: false,
    };
    /// Read and write interest — armed while an outbox holds bytes.
    pub const READ_WRITE: Interest = Interest {
        write: true,
        once: false,
    };
    /// The next readable event, once.
    pub const READ_ONCE: Interest = Interest {
        write: false,
        once: true,
    };
}

/// One readiness event, translated out of the epoll record.
///
/// Error and hangup conditions surface as `readable = true`: the next
/// nonblocking `read` then reports the EOF or error precisely, which
/// keeps the loop's teardown logic in one place.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Descriptor is readable (or in an error/hangup state).
    pub readable: bool,
    /// Descriptor is writable.
    pub writable: bool,
}

/// A readiness queue and its waker; see the module docs. One thread waits
/// at a time; any thread registers and wakes.
pub struct Poller {
    queue: OwnedFd,
    /// The eventfd behind [`Poller::wake`]: its counter is the pending wake.
    waker: OwnedFd,
}

/// The token the waker is registered under; no caller may use it.
const WAKE: u64 = u64::MAX;

/// Raw records one wait can return; more stay ready for the next wait.
const BATCH: usize = 256;

impl Poller {
    /// A poller with only its waker registered.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: integer arguments; what each returns is a new
        // descriptor or an error.
        let poller = unsafe {
            Poller {
                queue: sys::owned(sys::epoll_create1(sys::EPOLL_CLOEXEC))?,
                waker: sys::owned(sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC))?,
            }
        };
        poller.add(poller.waker.as_raw_fd(), WAKE, Interest::READ)?;
        Ok(poller)
    }

    /// Make the current wait, or the next one, return.
    pub fn wake(&self) {
        // Nonblocking; a counter near overflow already holds a wake.
        sys::write_fd(self.waker.as_raw_fd(), &1u64.to_ne_bytes());
    }

    /// Block until a registered descriptor is ready, [`Poller::wake`] is
    /// called or `timeout_ms` passes (−1 = forever); a signal may end it
    /// early too. The ready events replace `events`' contents; wakes are
    /// used up here and never reported.
    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        match self.poll(events, timeout_ms) {
            Err(err) if err.kind() == io::ErrorKind::Interrupted => return Ok(()),
            polled => polled?,
        }
        let ready = events.len();
        events.retain(|ev| ev.token != WAKE);
        if events.len() < ready {
            // One read takes the whole counter: every wake so far.
            sys::read_fd(self.waker.as_raw_fd(), &mut [0u8; 8]);
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest of an already registered `fd`, or re-arm a
    /// one-shot that fired.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregister `fd`; one that is not registered is fine.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        match self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::READ) {
            // `ENOENT` or `EBADF`: never registered, or closed first.
            Err(err) if matches!(err.raw_os_error(), Some(2 | 9)) => Ok(()),
            removed => removed,
        }
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut bits = sys::EPOLLIN | sys::EPOLLRDHUP;
        if interest.write {
            bits |= sys::EPOLLOUT;
        }
        if interest.once {
            bits |= sys::EPOLLONESHOT;
        }
        let mut ev = sys::EpollEvent {
            events: bits,
            data: token,
        };
        // SAFETY: `ev` is a live record the call only reads.
        if unsafe { sys::epoll_ctl(self.queue.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// One `epoll_wait` into `events`.
    fn poll(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; BATCH];
        let (queue, len) = (self.queue.as_raw_fd(), BATCH as i32);
        // SAFETY: `buf` has room for the `len` records the call may write.
        let n = unsafe { sys::epoll_wait(queue, buf.as_mut_ptr(), len, timeout_ms) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let hup = sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP;
        events.extend(buf[..n as usize].iter().map(|raw| Event {
            token: raw.data,
            readable: raw.events & hup != 0,
            writable: raw.events & sys::EPOLLOUT != 0,
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// Wait up to 5 s for the first non-empty batch.
    fn wait_some(p: &Poller, events: &mut Vec<Event>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while events.is_empty() && Instant::now() < deadline {
            p.wait(events, 100).unwrap();
        }
    }

    #[test]
    fn read_event_fires_when_bytes_arrive() {
        let (mut client, server) = pair();
        let p = Poller::new().unwrap();
        p.add(server.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no readiness before any bytes");
        client.write_all(b"hi").unwrap();
        wait_some(&p, &mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn write_interest_toggles_with_modify() {
        let (_client, server) = pair();
        let fd = server.as_raw_fd();
        let p = Poller::new().unwrap();
        p.add(fd, 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, 0).unwrap();
        assert!(!events.iter().any(|e| e.writable));
        // Arm write interest: an idle socket is immediately writable.
        p.modify(fd, 3, Interest::READ_WRITE).unwrap();
        p.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        // Disarm again: writability stops being reported.
        p.modify(fd, 3, Interest::READ).unwrap();
        p.wait(&mut events, 0).unwrap();
        assert!(!events.iter().any(|e| e.writable));
        p.remove(fd).unwrap();
    }

    /// A one-shot registration fires once, bytes or not already there, a
    /// `modify` re-arms it, and a removed one never fires. Registrations
    /// change while another thread waits.
    #[test]
    fn a_watch_reports_an_armed_descriptor_once() {
        let (mut client, server) = pair();
        let fd = server.as_raw_fd();
        let poller = Arc::new(Poller::new().unwrap());
        let (woke, woken) = mpsc::channel();
        let waiter = Arc::clone(&poller);
        let waiter = std::thread::spawn(move || {
            let mut events = Vec::new();
            while waiter.wait(&mut events, -1).is_ok() && woke.send(events.len()).is_ok() {}
        });
        let quiet = || woken.recv_timeout(Duration::from_millis(50)).is_err();
        client.write_all(b"a").unwrap();
        assert!(quiet(), "woken with nothing registered");
        // Bytes already waiting fire at the add.
        poller.add(fd, 1, Interest::READ_ONCE).unwrap();
        assert_eq!(woken.recv_timeout(Duration::from_secs(5)), Ok(1));
        client.write_all(b"b").unwrap();
        assert!(quiet(), "a one-shot fired twice");
        // Re-armed, then removed twice: both fine.
        poller.modify(fd, 1, Interest::READ_ONCE).unwrap();
        assert_eq!(woken.recv_timeout(Duration::from_secs(5)), Ok(1));
        poller.remove(fd).unwrap();
        poller.remove(fd).unwrap();
        // A wake ends the wait and is no event.
        poller.wake();
        assert_eq!(woken.recv_timeout(Duration::from_secs(5)), Ok(0));
        drop(woken);
        poller.wake();
        waiter.join().unwrap();
    }

    /// A wake with nobody waiting is kept for the next wait, and all the
    /// wakes before it are used up by that wait.
    #[test]
    fn a_wake_is_kept_for_the_next_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        poller.wake();
        poller.wake();
        let mut events = Vec::new();
        poller.wait(&mut events, -1).unwrap();
        assert!(events.is_empty(), "a wake was reported as an event");
        let (woke, woken) = mpsc::channel();
        let waiter = Arc::clone(&poller);
        let waiter = std::thread::spawn(move || {
            waiter.wait(&mut Vec::new(), -1).unwrap();
            woke.send(()).unwrap();
        });
        assert!(woken.recv_timeout(Duration::from_millis(50)).is_err());
        poller.wake();
        woken.recv_timeout(Duration::from_secs(5)).unwrap();
        waiter.join().unwrap();
    }

    /// A wake from another thread ends a wait on a poller with nothing
    /// registered: how a post reaches an idle event loop.
    #[test]
    fn a_wake_from_another_thread_ends_an_idle_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::clone(&poller);
        let waking = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let began = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, 10_000).unwrap();
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "the wake was lost"
        );
        assert!(events.is_empty());
        waking.join().unwrap();
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        let (client, server) = pair();
        let p = Poller::new().unwrap();
        p.add(server.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        wait_some(&p, &mut events);
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
    }
}
