//! A journal append the disk cuts short leaves no partial frame behind,
//! so the records appended after it still replay: through `append_all`,
//! and through `write_frames`, the dispatcher's one write per input of
//! the frames its facts encoded.
//!
//! The short write comes from a file-size limit (`RLIMIT_FSIZE`), which
//! holds for the whole process: hence a test binary of its own, with one
//! test in it. The three calls are hand-declared, as jets-ring declares
//! `mmap`; the constants are Linux's.

use jets_core::core::Fact;
use jets_core::journal::{scan, FsyncPolicy, Journal, Record};
use jets_core::spec::{CommandSpec, JobSpec};
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

    // One input's frames — a two-job batch: two `Submitted`, two
    // `Enqueued` — cut short inside its third frame: none of the four stay.
    let specs = [
        JobSpec::sequential(CommandSpec::builtin("noop", vec![])),
        JobSpec::mpi(2, CommandSpec::exec("/bin/sim", vec!["-n".into()])),
    ];
    let mut frames = Vec::new();
    let batch = Fact::Submitted {
        first: 5,
        specs: &specs,
    };
    assert_eq!(batch.wal(&mut frames).unwrap(), 4);
    let records = scan_frames(&frames);
    let end = std::fs::metadata(&path).unwrap().len();
    let third = frame_len(&frames) + frame_len(&frames[frame_len(&frames)..]) + 3;
    set_file_size_limit(end + third as u64, saved.max);
    let short = j.write_frames(&frames);
    set_file_size_limit(saved.cur, saved.max);
    assert!(short.is_err(), "the write was cut short");
    let len = std::fs::metadata(&path).unwrap().len();
    assert_eq!(len, end, "the step's whole frames are cut back off too");

    j.write_frames(&frames).unwrap();
    let summary = scan(&path).unwrap();
    let want = [vec![enqueued(1), enqueued(4)], records].concat();
    assert_eq!(summary.records, want);
    assert_eq!(summary.dropped_bytes(), 0);
    drop(j);
    std::fs::remove_file(&path).ok();
}

/// The length of the frame `frames` starts with, header included.
fn frame_len(frames: &[u8]) -> usize {
    let len = u32::from_le_bytes([frames[0], frames[1], frames[2], frames[3]]);
    8 + len as usize
}

/// The records in bare frames, as a journal holding them would read.
fn scan_frames(frames: &[u8]) -> Vec<Record> {
    let file = [&jets_core::journal::MAGIC[..], frames].concat();
    let summary = jets_core::journal::scan_bytes(&file).unwrap();
    assert_eq!(summary.dropped_bytes(), 0);
    summary.records
}
