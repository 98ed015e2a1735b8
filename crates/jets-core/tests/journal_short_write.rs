//! A journal append the disk cuts short leaves no partial frame behind,
//! so the records appended after it still replay.
//!
//! The short write comes from a file-size limit (`RLIMIT_FSIZE`), which
//! holds for the whole process: hence a test binary of its own, with one
//! test in it. The three calls are hand-declared, as jets-ring declares
//! `mmap`; the constants are Linux's.

#![cfg(target_os = "linux")]

use jets_core::journal::{scan, FsyncPolicy, Journal, Record};
use std::os::raw::c_int;

/// `struct rlimit`: the soft and the hard limit.
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const Rlimit) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
}

/// `RLIMIT_FSIZE`: the largest file the process may write.
const RLIMIT_FSIZE: c_int = 1;
/// `SIGXFSZ`, raised by a write past that limit. Ignored, the write fails
/// with `EFBIG` instead, as a full disk fails one with `ENOSPC`.
const SIGXFSZ: c_int = 25;
/// `SIG_IGN`.
const SIG_IGN: usize = 1;

fn set_file_size_limit(cur: u64, max: u64) {
    let limit = Rlimit { cur, max };
    // SAFETY: `limit` is a valid `struct rlimit` for the whole call.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &limit) }, 0, "setrlimit");
}

#[test]
fn a_short_write_is_cut_back_and_later_appends_replay() {
    let path = std::env::temp_dir().join(format!(
        "jets-journal-short-write-{}.wal",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let enqueued = |job| Record::Enqueued { job, attempts: 0 };
    let (j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
    j.append(&enqueued(1)).unwrap();
    let end = std::fs::metadata(&path).unwrap().len();

    let mut saved = Rlimit { cur: 0, max: 0 };
    // SAFETY: `saved` is a valid `struct rlimit` to write into, and
    // `SIG_IGN` installs no handler code.
    unsafe {
        assert_eq!(getrlimit(RLIMIT_FSIZE, &mut saved), 0, "getrlimit");
        signal(SIGXFSZ, SIG_IGN);
    }
    // Room for five more bytes: the next batch stops inside its first
    // frame.
    set_file_size_limit(end + 5, saved.max);
    let short = j.append_all(&[enqueued(2), enqueued(3)]);
    set_file_size_limit(saved.cur, saved.max);
    assert!(short.is_err(), "the write was cut short");
    let len = std::fs::metadata(&path).unwrap().len();
    assert_eq!(len, end, "the partial frame is cut back off");

    j.append(&enqueued(4)).unwrap();
    let summary = scan(&path).unwrap();
    assert_eq!(summary.records, [enqueued(1), enqueued(4)]);
    assert_eq!(summary.dropped_bytes(), 0);
    drop(j);
    std::fs::remove_file(&path).ok();
}
