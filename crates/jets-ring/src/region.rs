//! The shared word array under a ring: an anonymous private mapping
//! (in-process sharing via `Arc`) or a `MAP_SHARED` file mapping (the
//! crash-durable flight-recorder mode). The anonymous one faults in as
//! the ring fills: a fresh 2^17-slot ring costs its header page, not
//! 4 MiB.
//!
//! Every access goes through [`Region::word`], which hands out
//! `&AtomicU64` references into the raw memory. Nothing here is ever
//! touched as plain (non-atomic) data once a ring is live, so
//! concurrent writer/reader access is race-free by construction — the
//! torn-read *detection* lives in the stamp protocol one layer up
//! (`ring.rs`), not in the memory layer.

use std::fs::OpenOptions;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU64;

/// What keeps the words alive (and how they are released).
enum Backing {
    /// Zeroed heap words, where there is no mmap; dropped normally.
    #[cfg(not(unix))]
    Heap(#[allow(dead_code, reason = "held only to be dropped")] Box<[AtomicU64]>),
    /// `mmap(MAP_PRIVATE | MAP_ANONYMOUS)`: zero pages the kernel supplies
    /// on first touch; unmapped on drop.
    #[cfg(unix)]
    Anon { len: usize },
    /// `mmap(MAP_SHARED)` of a file; unmapped on drop. The descriptor
    /// is closed as soon as the mapping exists (the mapping keeps the
    /// file's pages reachable on its own).
    #[cfg(unix)]
    File { len: usize },
}

/// A fixed-size array of shared `u64` words.
pub(crate) struct Region {
    ptr: *const AtomicU64,
    words: usize,
    /// Read-only mappings (offline replay) must never be stored to.
    readonly: bool,
    backing: Backing,
}

// SAFETY: the region is a plain array of `AtomicU64`; all access is
// through atomic operations on immutably borrowed cells, which are
// `Sync`. The raw pointer is only a lifetime-erased view of memory
// owned (Heap) or mapped (Anon, File) by this struct for its whole life.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// A zeroed in-process region of `words` words. A mapping that fails
    /// is an allocation that failed.
    #[cfg(unix)]
    pub(crate) fn anon(words: usize) -> Region {
        let len = words * 8;
        let ptr = crate::sys::map_anon(len)
            .unwrap_or_else(|err| panic!("mapping a {len}-byte ring: {err}"));
        Region {
            ptr: ptr as *const AtomicU64,
            words,
            readonly: false,
            backing: Backing::Anon { len },
        }
    }

    /// A zeroed in-process region of `words` words.
    #[cfg(not(unix))]
    pub(crate) fn anon(words: usize) -> Region {
        let boxed: Box<[AtomicU64]> = (0..words).map(|_| AtomicU64::new(0)).collect();
        Region {
            ptr: boxed.as_ptr(),
            words,
            readonly: false,
            backing: Backing::Heap(boxed),
        }
    }

    /// Map `path` shared with exactly `bytes` bytes, creating and
    /// extending the file if needed. `bytes` must be a multiple of 8.
    /// An existing *longer* file is rejected rather than silently
    /// truncated — a capacity mismatch is the caller's to diagnose.
    #[cfg(unix)]
    pub(crate) fn file(path: &Path, bytes: usize) -> io::Result<Region> {
        use std::os::fd::AsRawFd;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let have = file.metadata()?.len();
        if have > bytes as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: file is {have} bytes, ring wants {bytes}",
                    path.display()
                ),
            ));
        }
        if have < bytes as u64 {
            file.set_len(bytes as u64)?;
        }
        let ptr = crate::sys::map_shared(file.as_raw_fd(), bytes, true)?;
        Ok(Region {
            ptr: ptr as *const AtomicU64,
            words: bytes / 8,
            readonly: false,
            backing: Backing::File { len: bytes },
        })
    }

    /// Map an existing file read-only (offline replay). The whole file
    /// is mapped; the caller validates the header before trusting it.
    #[cfg(unix)]
    pub(crate) fn file_readonly(path: &Path) -> io::Result<Region> {
        use std::os::fd::AsRawFd;
        let file = OpenOptions::new().read(true).open(path)?;
        let bytes = file.metadata()?.len() as usize;
        if bytes < 8 || !bytes.is_multiple_of(8) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {bytes} bytes is not a ring file", path.display()),
            ));
        }
        let ptr = crate::sys::map_shared(file.as_raw_fd(), bytes, false)?;
        Ok(Region {
            ptr: ptr as *const AtomicU64,
            words: bytes / 8,
            readonly: true,
            backing: Backing::File { len: bytes },
        })
    }

    #[cfg(not(unix))]
    pub(crate) fn file(path: &Path, _bytes: usize) -> io::Result<Region> {
        let _ = OpenOptions::new(); // keep the import meaningful
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "{}: file-backed rings need mmap (unix only)",
                path.display()
            ),
        ))
    }

    #[cfg(not(unix))]
    pub(crate) fn file_readonly(path: &Path) -> io::Result<Region> {
        Self::file(path, 0)
    }

    /// The shared word at `idx`.
    #[inline]
    pub(crate) fn word(&self, idx: usize) -> &AtomicU64 {
        debug_assert!(idx < self.words);
        // SAFETY: `idx` is in bounds of the owned/mapped array, the
        // memory lives as long as `self`, and `AtomicU64` has no
        // validity requirements beyond alignment (heap allocations of
        // `AtomicU64` and page-aligned mappings are both 8-aligned).
        unsafe { &*self.ptr.add(idx) }
    }

    /// Number of words.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// True when the mapping cannot be stored to.
    pub(crate) fn readonly(&self) -> bool {
        self.readonly
    }

    /// Flush a file-backed region to disk (no-op for anonymous ones).
    pub(crate) fn sync(&self) -> io::Result<()> {
        match &self.backing {
            #[cfg(not(unix))]
            Backing::Heap(_) => Ok(()),
            #[cfg(unix)]
            Backing::Anon { .. } => Ok(()),
            #[cfg(unix)]
            Backing::File { len } => crate::sys::sync(self.ptr as *mut u8, *len),
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        #[cfg(unix)]
        {
            let (Backing::Anon { len } | Backing::File { len }) = self.backing;
            crate::sys::unmap(self.ptr as *mut u8, len);
        }
    }
}
