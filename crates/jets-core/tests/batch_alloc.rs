//! A bulk submission costs its bytes once.
//!
//! `submit_all` of 20,000 jobs to a journaled dispatcher with no workers:
//! everything it keeps — queue entries, job-table rows and entries, the
//! returned ids — is still live when it returns. What it needed only on
//! the way — a copy of the batch as queue entries, a `Record` per journal
//! record with its own spec clone — would show as heap that came and
//! went. A counting global allocator (every thread: the batch is handled
//! on the dispatcher's event loop) keeps the live bytes and their
//! high-water mark; the high-water minus what is live after the call must
//! stay under the caller's own `Vec<JobSpec>` plus a few frame bytes per
//! job, and what is live after the call minus what was live before the
//! batch was built must stay under what a queued job should keep. Its
//! own binary: the allocator counts the whole process.

use jets_core::spec::{CommandSpec, JobSpec};
use jets_core::{Dispatcher, DispatcherConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const JOBS: usize = 20_000;

/// Transient bytes a job may cost beyond its spec in the caller's batch:
/// room for its two journal frames (about 40 bytes here) and the growth slack
/// of the buffer they are encoded into. The copies this test is for cost
/// more than that: a 224-byte queue entry, or two 152-byte `Record`s.
const FRAME_BYTES_PER_JOB: usize = 64;

/// Bytes a queued job may keep: its 24-byte queue entry and encoded
/// entry, its job-table row and spec, and its returned id, each in a
/// buffer that grows by doubling (about 165 bytes here). A queue that
/// kept each job as a 224-byte `QueuedJob` kept about 445.
const RETAINED_BYTES_PER_JOB: f64 = 256.0;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// Counts live heap bytes and their high-water mark, over every thread.
struct Counting;

// SAFETY: every method hands its caller's arguments to `System`
// unchanged and returns what `System` returns; the counting touches
// only two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    /// Counted as the size change alone: a growing buffer is not charged
    /// for its old and new blocks at once.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grew(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Relaxed),
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_bulk_submission_makes_no_batch_sized_copy() {
    let path = std::env::temp_dir().join(format!("jets-batch-alloc-{}.wal", std::process::id()));
    std::fs::remove_file(&path).ok();
    let d = Dispatcher::start(DispatcherConfig {
        journal: Some(path.clone()),
        ..DispatcherConfig::default()
    })
    .unwrap();
    let noop = || JobSpec::sequential(CommandSpec::builtin("noop", vec![]));
    let before = LIVE.load(Relaxed);
    let specs: Vec<JobSpec> = (0..JOBS).map(|_| noop()).collect();
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let ids = d.submit_all(specs);
    let (peak, live) = (PEAK.load(Relaxed), LIVE.load(Relaxed));
    assert_eq!(ids.len(), JOBS);
    assert_eq!(d.outstanding(), JOBS);
    let transient = peak.saturating_sub(live);
    let bound = (std::mem::size_of::<JobSpec>() + FRAME_BYTES_PER_JOB) * JOBS;
    let per_job = transient as f64 / JOBS as f64;
    assert!(
        transient <= bound,
        "submit_all held {transient} bytes it let go of ({per_job:.0} a job), bound {bound}"
    );
    let retained = live.saturating_sub(before) as f64 / JOBS as f64;
    assert!(
        retained <= RETAINED_BYTES_PER_JOB,
        "a queued job keeps {retained:.0} bytes, bound {RETAINED_BYTES_PER_JOB}"
    );
    // Everything the batch was journaled as is on disk.
    let records = jets_core::journal::scan(&path).unwrap().records;
    assert_eq!(records.len(), 2 * JOBS);
    drop(d);
    std::fs::remove_file(&path).ok();
}
