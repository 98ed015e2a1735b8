//! [`Poller`]: the one readiness queue, epoll on Linux and kqueue on the
//! BSD family.
//!
//! Registrations and the wait take `&self`: the kernel already orders an
//! `epoll_ctl`/`kevent` change against a wait in progress, so one thread
//! may add, modify or remove descriptors while another blocks in
//! [`Poller::wait`]. The raw event buffer lives on the waiting thread's
//! stack, so the poller holds no lock. Registrations are level-triggered —
//! the reactor arms write interest only while a connection's outbox holds
//! bytes, which is the entire backpressure protocol — unless they are
//! one-shot ([`Interest::READ_ONCE`]). Each poller owns a self-pipe:
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

/// One readiness event, translated out of the platform record.
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
    /// The self-pipe behind [`Poller::wake`]: read end, write end.
    pipe: (OwnedFd, OwnedFd),
}

/// The token the wake pipe is registered under; no caller may use it.
const WAKE: u64 = u64::MAX;

/// Raw records one wait can return; more stay ready for the next wait.
const BATCH: usize = 256;

impl Poller {
    /// A poller with only its wake pipe registered.
    pub fn new() -> io::Result<Poller> {
        let poller = Poller {
            queue: new_queue()?,
            pipe: sys::wake_pipe()?,
        };
        poller.add(poller.pipe.0.as_raw_fd(), WAKE, Interest::READ)?;
        Ok(poller)
    }

    /// Make the current wait, or the next one, return.
    pub fn wake(&self) {
        // Nonblocking; a full pipe already holds a wake.
        sys::write_fd(self.pipe.1.as_raw_fd(), &[1]);
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
        // A short read empties the pipe; only a full buffer can leave
        // bytes behind.
        let (pipe, mut buf) = (self.pipe.0.as_raw_fd(), [0u8; 64]);
        while events.len() < ready && sys::read_fd(pipe, &mut buf) == buf.len() as isize {}
        Ok(())
    }
}

/// `ENOENT` or `EBADF` from a removal: never registered, or closed first.
fn gone(err: &io::Error) -> bool {
    matches!(err.raw_os_error(), Some(2 | 9))
}

#[cfg(not(unix))]
compile_error!("jets-reactor supports Unix platforms only (epoll/kqueue)");

#[cfg(target_os = "linux")]
use linux::new_queue;

#[cfg(target_os = "linux")]
mod linux {
    use super::*;
    use crate::sys::platform as p;

    impl Poller {
        /// Register `fd` under `token` with the given interest.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(p::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change the interest of an already registered `fd`, or re-arm a
        /// one-shot that fired.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(p::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Deregister `fd`; one that is not registered is fine.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            match self.ctl(p::EPOLL_CTL_DEL, fd, 0, Interest::READ) {
                Err(err) if gone(&err) => Ok(()),
                removed => removed,
            }
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut bits = p::EPOLLIN | p::EPOLLRDHUP;
            if interest.write {
                bits |= p::EPOLLOUT;
            }
            if interest.once {
                bits |= p::EPOLLONESHOT;
            }
            let mut ev = p::EpollEvent {
                events: bits,
                data: token,
            };
            // SAFETY: `ev` is a live record the call only reads.
            if unsafe { p::epoll_ctl(self.queue.as_raw_fd(), op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// One `epoll_wait` into `events`.
        pub(super) fn poll(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut buf = [p::EpollEvent { events: 0, data: 0 }; BATCH];
            let (queue, len) = (self.queue.as_raw_fd(), BATCH as i32);
            // SAFETY: `buf` has room for the `len` records the call may write.
            let n = unsafe { p::epoll_wait(queue, buf.as_mut_ptr(), len, timeout_ms) };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            events.extend(buf[..n as usize].iter().map(|raw| Event {
                token: raw.data,
                readable: raw.events & (p::EPOLLIN | p::EPOLLERR | p::EPOLLHUP | p::EPOLLRDHUP)
                    != 0,
                writable: raw.events & p::EPOLLOUT != 0,
            }));
            Ok(())
        }
    }

    /// A new epoll instance, closed on exec.
    pub fn new_queue() -> io::Result<OwnedFd> {
        // SAFETY: an integer argument; what it returns is a new
        // descriptor or an error.
        unsafe { sys::owned(p::epoll_create1(p::EPOLL_CLOEXEC)) }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
use bsd::new_queue;

/// The kqueue half. No CI job builds a BSD or macOS target, so it is kept
/// in step with the epoll half by reading.
#[cfg(all(unix, not(target_os = "linux")))]
mod bsd {
    use super::*;
    use crate::sys::platform as p;
    use std::os::raw::c_void;
    use std::ptr;

    fn kev(fd: RawFd, filter: i16, flags: u16, token: u64) -> p::KEvent {
        p::KEvent {
            ident: fd as usize,
            filter,
            flags,
            fflags: 0,
            data: 0,
            udata: token as *mut c_void,
        }
    }

    impl Poller {
        /// Register `fd` under `token` with the given interest. The write
        /// filter is added only when wanted: a pipe's read end refuses one.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let once = if interest.once { p::EV_ONESHOT } else { 0 };
            let read = kev(fd, p::EVFILT_READ, p::EV_ADD | once, token);
            match interest.write {
                true => self.apply(&[read, kev(fd, p::EVFILT_WRITE, p::EV_ADD, token)]),
                false => self.apply(&[read]),
            }
        }

        /// Change the interest of an already registered `fd`, or re-arm a
        /// one-shot that fired: the read filter is added again and the
        /// write filter enabled or disabled.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let once = if interest.once { p::EV_ONESHOT } else { 0 };
            let write = match interest.write {
                true => p::EV_ADD | p::EV_ENABLE,
                false => p::EV_ADD | p::EV_DISABLE,
            };
            self.apply(&[
                kev(fd, p::EVFILT_READ, p::EV_ADD | once, token),
                kev(fd, p::EVFILT_WRITE, write, token),
            ])
        }

        /// Deregister `fd`; one that is not registered is fine.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            // Either filter may be gone already (a fired one-shot, or a
            // write filter never added): delete them one at a time.
            for filter in [p::EVFILT_READ, p::EVFILT_WRITE] {
                match self.apply(&[kev(fd, filter, p::EV_DELETE, 0)]) {
                    Err(err) if !gone(&err) => return Err(err),
                    _ => {}
                }
            }
            Ok(())
        }

        fn apply(&self, changes: &[p::KEvent]) -> io::Result<()> {
            let (list, n) = (changes.as_ptr(), changes.len() as i32);
            let queue = self.queue.as_raw_fd();
            // SAFETY: `list` holds the `n` records the call reads; it writes none.
            if unsafe { p::kevent(queue, list, n, ptr::null_mut(), 0, ptr::null()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// One `kevent` wait into `events`.
        pub(super) fn poll(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let ts = p::Timespec {
                tv_sec: (timeout_ms / 1000) as isize,
                tv_nsec: ((timeout_ms % 1000) * 1_000_000) as isize,
            };
            let ts_ptr = match timeout_ms < 0 {
                true => ptr::null(),
                false => &ts as *const p::Timespec,
            };
            let mut buf = [kev(0, 0, 0, 0); BATCH];
            let (queue, len) = (self.queue.as_raw_fd(), BATCH as i32);
            // SAFETY: `buf` has room for the `len` records the call may
            // write; `ts_ptr` is null or points at `ts`.
            let n = unsafe { p::kevent(queue, ptr::null(), 0, buf.as_mut_ptr(), len, ts_ptr) };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            events.extend(buf[..n as usize].iter().map(|raw| {
                let error = raw.flags & p::EV_ERROR != 0;
                Event {
                    token: raw.udata as u64,
                    readable: raw.filter == p::EVFILT_READ || error,
                    writable: raw.filter == p::EVFILT_WRITE && !error,
                }
            }));
            Ok(())
        }
    }

    /// A new kqueue.
    pub fn new_queue() -> io::Result<OwnedFd> {
        // SAFETY: no arguments; what it returns is a new descriptor or
        // an error.
        unsafe { sys::owned(p::kqueue()) }
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
