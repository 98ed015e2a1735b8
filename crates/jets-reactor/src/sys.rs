//! Hand-declared syscall bindings for the reactor.
//!
//! `std` already links the platform C library, so the readiness
//! syscalls the reactor needs are one `extern "C"` block away — no
//! `libc` crate, keeping this crate zero-dependency like jets-obs and
//! jets-lint. Only the handful of calls the poller backends and the
//! nonblocking dial use are declared, with the constants for the
//! supported platforms spelled out next to them. Constants are the
//! x86_64/aarch64 values; those are the only Linux architectures this
//! workspace targets.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
use std::os::raw::{c_int, c_void};

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
}

/// `SOCK_STREAM`, the same on every supported platform.
const SOCK_STREAM: c_int = 1;

/// Close a raw descriptor, ignoring errors (used on teardown paths
/// where there is nothing left to do about one).
pub fn close_fd(fd: RawFd) {
    unsafe {
        close(fd);
    }
}

/// Nonblocking byte read on a raw descriptor (the waker pipe).
pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> isize {
    unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) }
}

/// Nonblocking byte write on a raw descriptor (the waker pipe).
pub fn write_fd(fd: RawFd, buf: &[u8]) -> isize {
    unsafe { write(fd, buf.as_ptr() as *const c_void, buf.len()) }
}

/// Open a nonblocking TCP socket and start connecting it to `addr`.
/// `Ok` means the connect is under way (or done): the socket's first
/// readiness event says which way it went.
pub fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    use platform::{AF_INET, AF_INET6};
    // `sockaddr_in` / `sockaddr_in6` by hand: family, port in network
    // order, then the address (and the v6 flow and scope words).
    let mut sa = [0u8; 28];
    sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            sa[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            sa[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            sa[8..24].copy_from_slice(&a.ip().octets());
            sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, 28)
        }
    };
    // The family, native-endian; the BSDs put the length in front of it.
    sa[..2].copy_from_slice(&match cfg!(target_os = "linux") {
        true => (family as u16).to_ne_bytes(),
        false => [len as u8, family as u8],
    });
    // SAFETY: plain integer arguments; the result is checked.
    let fd = unsafe { socket(family, SOCK_STREAM | platform::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is the socket just opened, owned by nothing else.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nonblocking(true)?;
    // SAFETY: `sa` holds a `sockaddr` of `len` bytes, which `connect` reads.
    if unsafe { connect(fd, sa.as_ptr().cast(), len as u32) } < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(platform::EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// Create the loop's self-pipe waker: `(read_end, write_end)`, both
/// nonblocking and close-on-exec.
pub fn make_wake_pipe() -> io::Result<(RawFd, RawFd)> {
    platform::wake_pipe()
}

#[cfg(target_os = "linux")]
pub mod platform {
    //! Linux: `epoll` plus `pipe2`.
    use super::*;

    /// One epoll readiness record. Packed on x86_64 only — the kernel
    /// ABI quirk every binding reproduces.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Readiness bit set (`EPOLLIN` | …).
        pub events: u32,
        /// Caller-chosen cookie; the reactor stores the connection token.
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    }

    /// `EPOLL_CLOEXEC`.
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    /// `epoll_ctl` ops.
    pub const EPOLL_CTL_ADD: c_int = 1;
    /// Remove a descriptor.
    pub const EPOLL_CTL_DEL: c_int = 2;
    /// Change a registration's interest set.
    pub const EPOLL_CTL_MOD: c_int = 3;
    /// Readable.
    pub const EPOLLIN: u32 = 0x001;
    /// Writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition (delivered regardless of interest).
    pub const EPOLLERR: u32 = 0x008;
    /// Hangup (delivered regardless of interest).
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer closed its write half.
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// Fire once, then stay registered but disabled.
    pub const EPOLLONESHOT: u32 = 1 << 30;
    /// `epoll_ctl` add of a descriptor already registered.
    pub const EEXIST: i32 = 17;

    const O_NONBLOCK: c_int = 0o4000;
    const O_CLOEXEC: c_int = 0o2000000;
    /// `socket` address families, type flag and the in-progress errno.
    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 10;
    pub const SOCK_CLOEXEC: c_int = O_CLOEXEC;
    pub const EINPROGRESS: i32 = 115;

    pub(crate) fn wake_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((fds[0], fds[1]))
    }
}

#[cfg(not(target_os = "linux"))]
pub mod platform {
    //! BSD-family (macOS and friends): `kqueue` plus `pipe`+`fcntl`.
    use super::*;

    /// One kevent record (64-bit BSD layout).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct KEvent {
        /// Identifier (the file descriptor for socket filters).
        pub ident: usize,
        /// Filter (`EVFILT_READ` / `EVFILT_WRITE`).
        pub filter: i16,
        /// Action and status flags.
        pub flags: u16,
        /// Filter-specific flags.
        pub fflags: u32,
        /// Filter data (bytes available, …).
        pub data: isize,
        /// Caller-chosen cookie; the reactor stores the connection token.
        pub udata: *mut c_void,
    }

    /// `struct timespec` for the kevent timeout.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Timespec {
        /// Seconds.
        pub tv_sec: isize,
        /// Nanoseconds.
        pub tv_nsec: isize,
    }

    extern "C" {
        pub fn kqueue() -> c_int;
        pub fn kevent(
            kq: c_int,
            changelist: *const KEvent,
            nchanges: c_int,
            eventlist: *mut KEvent,
            nevents: c_int,
            timeout: *const Timespec,
        ) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    }

    /// Readable filter.
    pub const EVFILT_READ: i16 = -1;
    /// Writable filter.
    pub const EVFILT_WRITE: i16 = -2;
    /// Add (and implicitly enable) a filter.
    pub const EV_ADD: u16 = 0x0001;
    /// Remove a filter.
    pub const EV_DELETE: u16 = 0x0002;
    /// Enable a previously added filter.
    pub const EV_ENABLE: u16 = 0x0004;
    /// Disable a filter without removing it.
    pub const EV_DISABLE: u16 = 0x0008;
    /// Delete the filter once it has fired.
    pub const EV_ONESHOT: u16 = 0x0010;
    /// Returned: the filter itself reports an error in `data`.
    pub const EV_ERROR: u16 = 0x4000;

    const F_SETFD: c_int = 2;
    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const FD_CLOEXEC: c_int = 1;
    const O_NONBLOCK: c_int = 0x0004;
    /// `socket` address families (macOS numbering), no type flag (the
    /// descriptor is not close-on-exec) and the in-progress errno.
    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 30;
    pub const SOCK_CLOEXEC: c_int = 0;
    pub const EINPROGRESS: i32 = 36;

    pub(crate) fn wake_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        for &fd in &fds {
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            if flags < 0
                || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0
                || unsafe { fcntl(fd, F_SETFD, FD_CLOEXEC) } < 0
            {
                let err = io::Error::last_os_error();
                close_fd(fds[0]);
                close_fd(fds[1]);
                return Err(err);
            }
        }
        Ok((fds[0], fds[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_round_trips_a_byte() {
        let (rx, tx) = make_wake_pipe().unwrap();
        let mut buf = [0u8; 8];
        // Empty: nonblocking read reports would-block (negative).
        assert!(read_fd(rx, &mut buf) < 0);
        assert_eq!(write_fd(tx, &[1]), 1);
        // A pipe write is readable as soon as it returns.
        assert_eq!(read_fd(rx, &mut buf), 1);
        close_fd(rx);
        close_fd(tx);
    }
}
