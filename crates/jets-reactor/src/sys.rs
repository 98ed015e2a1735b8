//! Hand-declared Linux syscall bindings for the reactor.
//!
//! `std` already links the C library, so the readiness syscalls the
//! reactor needs are one `extern "C"` block away — no `libc` crate,
//! keeping this crate zero-dependency like jets-obs and jets-lint. Only
//! the calls the poller and the nonblocking dial use are declared: epoll,
//! eventfd, `socket` and `connect`, with their constants spelled out next
//! to them. Constants are the x86_64/aarch64 values; those are the only
//! Linux architectures this workspace targets.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_void};

extern "C" {
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
}

/// `SOCK_STREAM`.
const SOCK_STREAM: c_int = 1;

/// Own the descriptor a call just returned, or its error if negative.
///
/// # Safety
///
/// `fd` is negative, or open and owned by nothing else.
pub unsafe fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the caller's promise.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Nonblocking byte read on a raw descriptor (the waker eventfd).
pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> isize {
    unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) }
}

/// Nonblocking byte write on a raw descriptor (the waker eventfd).
pub fn write_fd(fd: RawFd, buf: &[u8]) -> isize {
    unsafe { write(fd, buf.as_ptr() as *const c_void, buf.len()) }
}

/// Open a nonblocking TCP socket and start connecting it to `addr`.
/// `Ok` means the connect is under way (or done): the socket's first
/// readiness event says which way it went.
pub fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
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
    sa[..2].copy_from_slice(&(family as u16).to_ne_bytes());
    // SAFETY: plain integer arguments; the result is checked.
    let fd = unsafe { socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is the socket just opened, owned by nothing else.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nonblocking(true)?;
    // SAFETY: `sa` holds a `sockaddr` of `len` bytes, which `connect` reads.
    if unsafe { connect(fd, sa.as_ptr().cast(), len as u32) } < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// One epoll readiness record. Packed on x86_64 only — the kernel ABI
/// quirk every binding reproduces.
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
    pub fn eventfd(initval: u32, flags: c_int) -> c_int;
}

/// `O_CLOEXEC`, which `EPOLL_CLOEXEC`, `EFD_CLOEXEC` and `SOCK_CLOEXEC`
/// all equal.
const O_CLOEXEC: c_int = 0o2000000;
/// `EPOLL_CLOEXEC`.
pub const EPOLL_CLOEXEC: c_int = O_CLOEXEC;
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
/// `EFD_NONBLOCK`: a read of a zero counter fails instead of blocking.
pub const EFD_NONBLOCK: c_int = 0o4000;
/// `EFD_CLOEXEC`.
pub const EFD_CLOEXEC: c_int = O_CLOEXEC;
/// `socket` address families, type flag and the in-progress errno.
const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_CLOEXEC: c_int = O_CLOEXEC;
const EINPROGRESS: i32 = 115;

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn the_waker_counts_wakes_and_one_read_takes_them() {
        // SAFETY: integer arguments; the result is checked.
        let waker = unsafe { owned(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) }.unwrap();
        let fd = waker.as_raw_fd();
        let mut buf = [0u8; 8];
        // Zero: a nonblocking read reports would-block (negative).
        assert!(read_fd(fd, &mut buf) < 0);
        assert_eq!(write_fd(fd, &1u64.to_ne_bytes()), 8);
        assert_eq!(write_fd(fd, &1u64.to_ne_bytes()), 8);
        // One read takes the whole counter, and the next would block.
        assert_eq!(read_fd(fd, &mut buf), 8);
        assert_eq!(u64::from_ne_bytes(buf), 2);
        assert!(read_fd(fd, &mut buf) < 0);
    }
}
