//! The `Poller` trait and its platform backends.
//!
//! One poller per event-loop thread, owned by that thread alone — so
//! the backends need no internal locking. Registrations are
//! level-triggered: the loop re-arms write interest only while a
//! connection's outbox holds bytes, which is the entire backpressure
//! protocol.

use crate::sys;
use std::io;
use std::os::fd::RawFd;

/// Which readiness classes a registration wants delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Deliver readable events.
    pub read: bool,
    /// Deliver writable events.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of every connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read and write interest — armed while an outbox holds bytes.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
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

/// A readiness queue: epoll on Linux, kqueue on the BSD family.
pub trait Poller: Send {
    /// Register `fd` under `token` with the given interest.
    fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;
    /// Change the interest set of an already registered `fd`.
    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;
    /// Deregister `fd` entirely.
    fn remove(&mut self, fd: RawFd) -> io::Result<()>;
    /// Block until readiness or `timeout_ms` (−1 = forever); ready
    /// events are appended to `events` (cleared first).
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;
}

/// Construct the platform's poller backend.
pub fn new_poller() -> io::Result<Box<dyn Poller>> {
    platform_poller()
}

/// One thread's wait for a descriptor that other threads arm and disarm.
///
/// A [`Poller`] belongs to its loop thread (`&mut self`), so nobody can
/// arm it while that thread waits. A `Watch` is shared: a thread about to
/// be busy arms a descriptor for its next readable event (bytes, EOF or
/// an error), and disarms it once free again, while another thread
/// blocks in [`Watch::wait`] for that event or for [`Watch::wake`]. An
/// armed descriptor fires once. Neither `arm` nor `disarm` wakes the
/// waiter unless the descriptor is readable by then. One thread waits at
/// a time.
pub struct Watch {
    queue: RawFd,
    /// The self-pipe behind `wake`: read end, write end.
    pipe: (RawFd, RawFd),
}

impl Watch {
    /// A watch with nothing armed.
    pub fn new() -> io::Result<Watch> {
        let queue = new_queue()?;
        let pipe = sys::make_wake_pipe().inspect_err(|_| sys::close_fd(queue))?;
        // From here on, `drop` closes all three.
        let watch = Watch { queue, pipe };
        watch_pipe(queue, pipe.0)?;
        Ok(watch)
    }

    /// Report `fd`'s next readable event to [`Watch::wait`], once.
    pub fn arm(&self, fd: RawFd) -> io::Result<()> {
        arm(self.queue, fd)
    }

    /// Forget `fd`, whether or not its event fired; a descriptor that is
    /// not armed is fine.
    pub fn disarm(&self, fd: RawFd) -> io::Result<()> {
        match disarm(self.queue, fd) {
            // Never armed, or already closed.
            Err(err) if matches!(err.raw_os_error(), Some(2 | 9)) => Ok(()),
            done => done,
        }
    }

    /// Make the current wait, or the next one, return.
    pub fn wake(&self) {
        // A full pipe already holds a wake.
        sys::write_fd(self.pipe.1, &[1]);
    }

    /// Block until an armed descriptor fires or [`Watch::wake`] is
    /// called; a signal may end it early too. Wakes are used up here.
    pub fn wait(&self) -> io::Result<()> {
        let woken = match wait(self.queue) {
            Err(err) if err.kind() == io::ErrorKind::Interrupted => return Ok(()),
            woken => woken?,
        };
        let mut buf = [0u8; 64];
        while woken && sys::read_fd(self.pipe.0, &mut buf) == buf.len() as isize {}
        Ok(())
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        for fd in [self.queue, self.pipe.0, self.pipe.1] {
            sys::close_fd(fd);
        }
    }
}

/// The token a watch's wake pipe is registered under.
const WAKE: u64 = u64::MAX;

#[cfg(not(unix))]
compile_error!("jets-reactor supports Unix platforms only (epoll/kqueue)");

#[cfg(target_os = "linux")]
fn platform_poller() -> io::Result<Box<dyn Poller>> {
    Ok(Box::new(linux::EpollPoller::new()?))
}

#[cfg(all(unix, not(target_os = "linux")))]
fn platform_poller() -> io::Result<Box<dyn Poller>> {
    Ok(Box::new(bsd::KqueuePoller::new()?))
}

#[cfg(target_os = "linux")]
mod linux {
    use super::*;
    use crate::sys::platform as p;

    /// Level-triggered epoll instance.
    pub struct EpollPoller {
        epfd: RawFd,
        /// Scratch event buffer reused across `wait` calls.
        buf: Vec<p::EpollEvent>,
    }

    impl EpollPoller {
        pub fn new() -> io::Result<EpollPoller> {
            let epfd = new_queue()?;
            Ok(EpollPoller {
                epfd,
                buf: vec![p::EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut bits = p::EPOLLRDHUP;
            if interest.read {
                bits |= p::EPOLLIN;
            }
            if interest.write {
                bits |= p::EPOLLOUT;
            }
            ctl(self.epfd, op, fd, bits, token)
        }
    }

    impl Poller for EpollPoller {
        fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(p::EPOLL_CTL_ADD, fd, token, interest)
        }

        fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(p::EPOLL_CTL_MOD, fd, token, interest)
        }

        fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = p::EpollEvent { events: 0, data: 0 };
            if unsafe { p::epoll_ctl(self.epfd, p::EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                let err = io::Error::last_os_error();
                // Already gone (e.g. the fd was closed first): fine.
                if err.raw_os_error() != Some(2) && err.raw_os_error() != Some(9) {
                    return Err(err);
                }
            }
            Ok(())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let n = unsafe {
                p::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for raw in &self.buf[..n as usize] {
                let bits = raw.events;
                events.push(Event {
                    token: raw.data,
                    readable: bits & (p::EPOLLIN | p::EPOLLERR | p::EPOLLHUP | p::EPOLLRDHUP) != 0,
                    writable: bits & p::EPOLLOUT != 0,
                });
            }
            // A full buffer means more may be pending; grow so a burst
            // of 512+ connections does not take extra wait round-trips.
            if n as usize == self.buf.len() {
                self.buf
                    .resize(self.buf.len() * 2, p::EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            sys::close_fd(self.epfd);
        }
    }

    fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = p::EpollEvent { events, data };
        // SAFETY: `ev` is a live record the call only reads.
        if unsafe { p::epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// A new epoll instance, closed on exec.
    pub fn new_queue() -> io::Result<RawFd> {
        // SAFETY: an integer argument; the result is checked.
        match unsafe { p::epoll_create1(p::EPOLL_CLOEXEC) } {
            epfd if epfd < 0 => Err(io::Error::last_os_error()),
            epfd => Ok(epfd),
        }
    }

    pub fn watch_pipe(epfd: RawFd, pipe: RawFd) -> io::Result<()> {
        ctl(epfd, p::EPOLL_CTL_ADD, pipe, p::EPOLLIN, WAKE)
    }

    pub fn arm(epfd: RawFd, fd: RawFd) -> io::Result<()> {
        let bits = p::EPOLLIN | p::EPOLLRDHUP | p::EPOLLONESHOT;
        match ctl(epfd, p::EPOLL_CTL_ADD, fd, bits, fd as u64) {
            // Fired and not disarmed since: a one-shot stays registered.
            Err(err) if err.raw_os_error() == Some(p::EEXIST) => {
                ctl(epfd, p::EPOLL_CTL_MOD, fd, bits, fd as u64)
            }
            added => added,
        }
    }

    pub fn disarm(epfd: RawFd, fd: RawFd) -> io::Result<()> {
        ctl(epfd, p::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// One `epoll_wait`; true if the wake pipe was among what fired.
    pub fn wait(epfd: RawFd) -> io::Result<bool> {
        let mut buf = [p::EpollEvent { events: 0, data: 0 }; 2];
        // SAFETY: `buf` has room for the 2 records the call may write.
        let n = unsafe { p::epoll_wait(epfd, buf.as_mut_ptr(), 2, -1) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(buf[..n as usize].iter().any(|ev| ev.data == WAKE))
    }
}

#[cfg(target_os = "linux")]
use linux::{arm, disarm, new_queue, wait, watch_pipe};

#[cfg(all(unix, not(target_os = "linux")))]
use bsd::{arm, disarm, new_queue, wait, watch_pipe};

#[cfg(all(unix, not(target_os = "linux")))]
mod bsd {
    use super::*;
    use crate::sys::platform as p;
    use std::os::raw::c_void;
    use std::ptr;

    /// kqueue instance; read and write filters are registered together
    /// and toggled with `EV_ENABLE`/`EV_DISABLE` to mirror epoll's
    /// single-registration model.
    pub struct KqueuePoller {
        kq: RawFd,
        buf: Vec<p::KEvent>,
    }

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

    impl KqueuePoller {
        pub fn new() -> io::Result<KqueuePoller> {
            let kq = new_queue()?;
            Ok(KqueuePoller {
                kq,
                buf: vec![kev(0, 0, 0, 0); 256],
            })
        }

        fn apply(&mut self, changes: &[p::KEvent]) -> io::Result<()> {
            change(self.kq, changes)
        }
    }

    impl Poller for KqueuePoller {
        fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let read_flags = if interest.read {
                p::EV_ADD | p::EV_ENABLE
            } else {
                p::EV_ADD | p::EV_DISABLE
            };
            let write_flags = if interest.write {
                p::EV_ADD | p::EV_ENABLE
            } else {
                p::EV_ADD | p::EV_DISABLE
            };
            self.apply(&[
                kev(fd, p::EVFILT_READ, read_flags, token),
                kev(fd, p::EVFILT_WRITE, write_flags, token),
            ])
        }

        fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.add(fd, token, interest)
        }

        fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            // Either filter may already be gone; try them separately
            // and ignore "not found".
            for filter in [p::EVFILT_READ, p::EVFILT_WRITE] {
                if let Err(err) = self.apply(&[kev(fd, filter, p::EV_DELETE, 0)]) {
                    if err.raw_os_error() != Some(2) && err.raw_os_error() != Some(9) {
                        return Err(err);
                    }
                }
            }
            Ok(())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let ts;
            let ts_ptr = if timeout_ms < 0 {
                ptr::null()
            } else {
                ts = p::Timespec {
                    tv_sec: (timeout_ms / 1000) as isize,
                    tv_nsec: ((timeout_ms % 1000) * 1_000_000) as isize,
                };
                &ts as *const p::Timespec
            };
            let n = unsafe {
                p::kevent(
                    self.kq,
                    ptr::null(),
                    0,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    ts_ptr,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for raw in &self.buf[..n as usize] {
                let token = raw.udata as u64;
                let error = raw.flags & p::EV_ERROR != 0;
                events.push(Event {
                    token,
                    readable: raw.filter == p::EVFILT_READ || error,
                    writable: raw.filter == p::EVFILT_WRITE && !error,
                });
            }
            if n as usize == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, kev(0, 0, 0, 0));
            }
            Ok(())
        }
    }

    impl Drop for KqueuePoller {
        fn drop(&mut self) {
            sys::close_fd(self.kq);
        }
    }

    fn change(kq: RawFd, changes: &[p::KEvent]) -> io::Result<()> {
        let (list, n) = (changes.as_ptr(), changes.len() as i32);
        // SAFETY: `list` holds the `n` records the call reads; it writes none.
        if unsafe { p::kevent(kq, list, n, ptr::null_mut(), 0, ptr::null()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// A new kqueue.
    pub fn new_queue() -> io::Result<RawFd> {
        // SAFETY: no arguments; the result is checked.
        match unsafe { p::kqueue() } {
            kq if kq < 0 => Err(io::Error::last_os_error()),
            kq => Ok(kq),
        }
    }

    pub fn watch_pipe(kq: RawFd, pipe: RawFd) -> io::Result<()> {
        change(kq, &[kev(pipe, p::EVFILT_READ, p::EV_ADD, WAKE)])
    }

    pub fn arm(kq: RawFd, fd: RawFd) -> io::Result<()> {
        let flags = p::EV_ADD | p::EV_ONESHOT;
        change(kq, &[kev(fd, p::EVFILT_READ, flags, fd as u64)])
    }

    pub fn disarm(kq: RawFd, fd: RawFd) -> io::Result<()> {
        // A one-shot filter that fired is gone already: `ENOENT`.
        change(kq, &[kev(fd, p::EVFILT_READ, p::EV_DELETE, 0)])
    }

    /// One `kevent` wait; true if the wake pipe was among what fired.
    pub fn wait(kq: RawFd) -> io::Result<bool> {
        let mut buf = [kev(0, 0, 0, 0); 2];
        // SAFETY: `buf` has room for the 2 records the call may write.
        let n = unsafe { p::kevent(kq, ptr::null(), 0, buf.as_mut_ptr(), 2, ptr::null()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(buf[..n as usize].iter().any(|ev| ev.udata as u64 == WAKE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn read_event_fires_when_bytes_arrive() {
        let (mut client, server) = pair();
        let mut p = new_poller().unwrap();
        p.add(server.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no readiness before any bytes");
        client.write_all(b"hi").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while events.is_empty() && std::time::Instant::now() < deadline {
            p.wait(&mut events, 100).unwrap();
        }
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn write_interest_toggles_with_modify() {
        let (_client, server) = pair();
        let fd = server.as_raw_fd();
        let mut p = new_poller().unwrap();
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

    /// An armed descriptor fires once, bytes or not already there; a
    /// disarmed one never does.
    #[test]
    fn a_watch_reports_an_armed_descriptor_once() {
        use std::sync::{mpsc, Arc};
        let (mut client, server) = pair();
        let fd = server.as_raw_fd();
        let watch = Arc::new(Watch::new().unwrap());
        let (woke, woken) = mpsc::channel();
        let waiter = Arc::clone(&watch);
        let waiter = std::thread::spawn(
            move || {
                while waiter.wait().is_ok() && woke.send(()).is_ok() {}
            },
        );
        let quiet = || woken.recv_timeout(Duration::from_millis(50)).is_err();
        client.write_all(b"a").unwrap();
        assert!(quiet(), "woken while disarmed");
        // Bytes already waiting fire at the arm.
        watch.arm(fd).unwrap();
        woken.recv_timeout(Duration::from_secs(5)).unwrap();
        client.write_all(b"b").unwrap();
        assert!(quiet(), "a one-shot fired twice");
        // Armed again without a disarm, and disarmed twice: both fine.
        watch.arm(fd).unwrap();
        woken.recv_timeout(Duration::from_secs(5)).unwrap();
        watch.disarm(fd).unwrap();
        watch.disarm(fd).unwrap();
        watch.wake();
        woken.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(woken);
        watch.wake();
        waiter.join().unwrap();
    }

    /// A wake with nobody waiting is kept for the next wait, and all the
    /// wakes before it are used up by that wait.
    #[test]
    fn a_wake_is_kept_for_the_next_wait() {
        use std::sync::{mpsc, Arc};
        let watch = Arc::new(Watch::new().unwrap());
        watch.wake();
        watch.wake();
        watch.wait().unwrap();
        let (woke, woken) = mpsc::channel();
        let waiter = Arc::clone(&watch);
        let waiter = std::thread::spawn(move || {
            waiter.wait().unwrap();
            woke.send(()).unwrap();
        });
        assert!(woken.recv_timeout(Duration::from_millis(50)).is_err());
        watch.wake();
        woken.recv_timeout(Duration::from_secs(5)).unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        let (client, server) = pair();
        let mut p = new_poller().unwrap();
        p.add(server.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while events.is_empty() && std::time::Instant::now() < deadline {
            p.wait(&mut events, 100).unwrap();
        }
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
    }
}
