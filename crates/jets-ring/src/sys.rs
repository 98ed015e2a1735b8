//! Hand-declared Linux `mmap` bindings for the ring's memory.
//!
//! `std` already links the C library, so the three calls the flight
//! recorder needs are one `extern "C"` block away — no `libc` crate,
//! keeping this crate zero-dependency like jets-obs, jets-lint, and
//! jets-reactor (whose `sys.rs` set the precedent). Constants are
//! Linux's.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
}

/// `PROT_READ`: pages may be read.
const PROT_READ: c_int = 1;
/// `PROT_WRITE`: pages may be written.
const PROT_WRITE: c_int = 2;
/// `MAP_SHARED`: writes land in the page cache and reach the file —
/// this is what makes the recorder survive `kill -9` (the kernel owns
/// the dirty pages, not the process).
const MAP_SHARED: c_int = 1;
/// `MAP_PRIVATE`: copy-on-write, seen by this process only.
const MAP_PRIVATE: c_int = 2;

/// `MAP_ANONYMOUS`: no file behind the pages; they start zeroed.
const MAP_ANONYMOUS: c_int = 0x20;
/// `MS_SYNC`: `msync` returns once the pages are written.
const MS_SYNC: c_int = 4;

/// Map `len` bytes of `fd` shared, read-write (`writable`) or read-only.
pub fn map_shared(fd: RawFd, len: usize, writable: bool) -> io::Result<*mut u8> {
    let prot = if writable {
        PROT_READ | PROT_WRITE
    } else {
        PROT_READ
    };
    map(len, prot, MAP_SHARED, fd)
}

/// Map `len` zeroed bytes of private, read-write memory. The kernel
/// supplies each page on its first touch: what is never written is never
/// resident.
pub fn map_anon(len: usize) -> io::Result<*mut u8> {
    map(len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1)
}

fn map(len: usize, prot: c_int, flags: c_int, fd: RawFd) -> io::Result<*mut u8> {
    // SAFETY: a null hint lets the kernel place the mapping where nothing
    // of ours lives, so the call writes no memory this process uses; the
    // result is checked before anyone reads through it.
    let addr = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, fd, 0) };
    if addr as isize == -1 {
        return Err(io::Error::last_os_error());
    }
    Ok(addr as *mut u8)
}

/// Unmap a region mapped by [`map_shared`] or [`map_anon`]; teardown
/// path, errors are ignored (there is nothing left to do about one).
pub fn unmap(addr: *mut u8, len: usize) {
    unsafe {
        munmap(addr as *mut c_void, len);
    }
}

/// Synchronously flush a mapped region to its file. Not needed for
/// crash durability (`MAP_SHARED` dirty pages survive process death);
/// offered for clean-shutdown paths that want the bytes on disk *now*.
pub fn sync(addr: *mut u8, len: usize) -> io::Result<()> {
    if unsafe { msync(addr as *mut c_void, len, MS_SYNC) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
