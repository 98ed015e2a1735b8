//! Crash-durable write-ahead journal for the dispatcher.
//!
//! A dispatcher restarted with the same journal path must reconstruct
//! every queued job, every in-flight gang, and the quarantine ledger —
//! so each state transition appends one record *before* the transition
//! becomes externally visible. A record is written with the wire codec:
//! [`Record`] implements [`Wire`] as `WorkerMsg` and `DispatcherMsg` do,
//! and a `Submitted` record carries its command and staging manifest in
//! the very bytes an `Assign` carries them in. `Record` is the read side:
//! the dispatcher writes each record's frame from the data its fact
//! borrows (`core::Fact::wal`), through the one encoder per record kind
//! that `Record::put` also calls, and appends an input's frames with
//! [`Journal::write_frames`].
//!
//! ## On-disk format
//!
//! ```text
//! file    := magic frame*
//! magic   := "JETSWAL2"                 (8 bytes)
//! frame   := len:u32 crc:u32 payload    (little-endian; len = payload
//!                                        length, crc = CRC-32/IEEE of it)
//! payload := tag fields…                (the wire codec: LEB128 integers,
//!                                        zigzag exit codes and priority,
//!                                        length-prefixed strings and lists)
//! tag     := 'S' Submitted | 'Q' Enqueued | 'A' Assigned | 'T' TaskEnded
//!          | 'F' Finished | 'R' Requeued | 'K' QuarantineStrike
//!          | 'U' QuarantineRelease | 'D' DeadlineExceeded | 'B' Restarted
//! ```
//!
//! Replay scans the longest valid prefix: the first frame that is short
//! (a torn tail from a crash mid-append), fails its CRC or does not
//! decode (corruption) ends the scan, and [`Journal::open`] truncates the
//! file back to that prefix before appending again. A torn final record
//! is therefore expected and silent; the byte counts in [`ReplaySummary`]
//! make the loss visible to `jets journal verify`. A file with any other
//! magic, `JETSWAL1` included, is refused and left as it is. An append
//! the disk cuts short is cut back off the file, so the records appended
//! after a transient write error still replay.
//!
//! ## Durability knob
//!
//! [`FsyncPolicy`] trades append latency against the crash window:
//! `Always` fsyncs every record (a crash loses nothing acknowledged),
//! `Interval` leaves syncing to the dispatcher's monitor tick (a crash
//! can lose up to one tick of records — replay still converges, jobs in
//! the gap are simply re-run), `Never` leaves it to the OS page cache.
//!
//! What the journal does *not* store: worker identities or connections.
//! Worker ids restart from 1 in a new dispatcher; the restart
//! reconciliation window re-keys surviving gangs by **task id**, which
//! [`recover`] keeps stable by resuming the task counter past the
//! journal's maximum.

use crate::protocol::{decode_msg, get_spec, put_spec, Wire, MAX_FRAME_BYTES};
use crate::spec::{JobId, JobSpec, TaskId, WorkerId};
use jets_ring::codec::{invalid, Get, Put};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File magic: identifies a JETS write-ahead log, version 2.
pub const MAGIC: &[u8; 8] = b"JETSWAL2";

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record: an acknowledged transition survives any
    /// crash. The safe default; each append pays one disk flush.
    Always,
    /// No fsync on append; the owner calls [`Journal::sync`] on a timer
    /// (the dispatcher's monitor tick). A crash loses at most one
    /// interval of records — replay still converges, the jobs in the
    /// gap are simply re-run from their last durable state.
    Interval,
    /// Never fsync explicitly; the OS decides. Fastest, weakest.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI spelling (`always` | `interval` | `never`).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "interval" => Some(FsyncPolicy::Interval),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// One journaled state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A job was accepted (`Core::submit`); carries the full spec so
    /// replay can requeue it without any other source of truth.
    Submitted {
        /// The job.
        job: JobId,
        /// Its full specification.
        spec: JobSpec,
    },
    /// The job entered the queue with `attempts` launches already spent.
    Enqueued {
        /// The job.
        job: JobId,
        /// Launch attempts consumed before this enqueue.
        attempts: u32,
    },
    /// An attempt shipped: the gang's task ids and the workers they went
    /// to. `attempt` counts this launch (first launch = 1).
    Assigned {
        /// The job.
        job: JobId,
        /// Attempt number including this launch.
        attempt: u32,
        /// `(worker, task)` pairs of the shipped gang.
        tasks: Vec<(WorkerId, TaskId)>,
    },
    /// One gang member reported (or was declared) finished.
    TaskEnded {
        /// The job.
        job: JobId,
        /// The task that ended.
        task: TaskId,
        /// Its exit code (may be a sentinel from `spec`'s registry).
        exit_code: i32,
    },
    /// The job reached a terminal state.
    Finished {
        /// The job.
        job: JobId,
        /// Whether every task exited zero.
        success: bool,
    },
    /// A failed attempt went back to the queue with retry budget left.
    Requeued {
        /// The job.
        job: JobId,
        /// Launch attempts consumed so far.
        attempts: u32,
    },
    /// A worker name earned a quarantine strike (died mid-gang).
    QuarantineStrike {
        /// The worker's registered name (stable across reconnects).
        name: String,
    },
    /// A benched worker's quarantine penalty expired.
    QuarantineRelease {
        /// The worker's registered name.
        name: String,
    },
    /// An attempt blew its wall-time budget (the cancel that follows is
    /// journaled through `TaskEnded`/`Requeued`/`Finished` as usual).
    DeadlineExceeded {
        /// The job.
        job: JobId,
    },
    /// A dispatcher re-opened this journal: everything before this mark
    /// happened in an earlier incarnation.
    Restarted,
}

impl Wire for Record {
    fn put(&self, p: &mut Put<'_>) {
        match self {
            Record::Submitted { job, spec } => put_submitted(p, *job, spec),
            Record::Enqueued { job, attempts } => put_enqueued(p, *job, *attempts),
            Record::Assigned {
                job,
                attempt,
                tasks,
            } => put_assigned(p, *job, *attempt, tasks.iter().copied()),
            Record::TaskEnded {
                job,
                task,
                exit_code,
            } => put_task_ended(p, *job, *task, *exit_code),
            Record::Finished { job, success } => put_finished(p, *job, *success),
            Record::Requeued { job, attempts } => put_requeued(p, *job, *attempts),
            Record::QuarantineStrike { name } => put_strike(p, name),
            Record::QuarantineRelease { name } => put_release(p, name),
            Record::DeadlineExceeded { job } => put_deadline(p, *job),
            Record::Restarted => put_restarted(p),
        }
    }

    fn get(g: &mut Get<'_>) -> io::Result<Self> {
        let rec = match g.u8() {
            b'S' => Record::Submitted {
                job: g.var(),
                spec: get_spec(g),
            },
            b'Q' => Record::Enqueued {
                job: g.var(),
                attempts: g.var_u32(),
            },
            b'A' => Record::Assigned {
                job: g.var(),
                attempt: g.var_u32(),
                tasks: g.list(|g| (g.var(), g.var())),
            },
            b'T' => Record::TaskEnded {
                job: g.var(),
                task: g.var(),
                exit_code: g.zig_i32(),
            },
            b'F' => Record::Finished {
                job: g.var(),
                success: g.bool(),
            },
            b'R' => Record::Requeued {
                job: g.var(),
                attempts: g.var_u32(),
            },
            b'K' => Record::QuarantineStrike { name: g.str() },
            b'U' => Record::QuarantineRelease { name: g.str() },
            b'D' => Record::DeadlineExceeded { job: g.var() },
            b'B' => Record::Restarted,
            _ => return Err(invalid()),
        };
        g.end()?;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// One encoder per record kind: `Record::put` and `Fact::wal` (which writes
// the frames of a fact from the data it borrows) both call these, so the
// bytes cannot drift.
// ---------------------------------------------------------------------------

/// A `Submitted` record's payload.
pub(crate) fn put_submitted(p: &mut Put<'_>, job: JobId, spec: &JobSpec) {
    p.u8(b'S');
    p.var(job);
    put_spec(p, spec);
}

/// An `Enqueued` record's payload.
pub(crate) fn put_enqueued(p: &mut Put<'_>, job: JobId, attempts: u32) {
    p.u8(b'Q');
    p.var(job);
    p.var(attempts.into());
}

/// An `Assigned` record's payload: the gang's `(worker, task)` pairs.
pub(crate) fn put_assigned(
    p: &mut Put<'_>,
    job: JobId,
    attempt: u32,
    tasks: impl ExactSizeIterator<Item = (WorkerId, TaskId)>,
) {
    p.u8(b'A');
    p.var(job);
    p.var(attempt.into());
    p.count(tasks.len());
    for (worker, task) in tasks {
        p.var(worker);
        p.var(task);
    }
}

/// A `TaskEnded` record's payload.
pub(crate) fn put_task_ended(p: &mut Put<'_>, job: JobId, task: TaskId, exit_code: i32) {
    p.u8(b'T');
    p.var(job);
    p.var(task);
    p.zig(exit_code.into());
}

/// A `Finished` record's payload.
pub(crate) fn put_finished(p: &mut Put<'_>, job: JobId, success: bool) {
    p.u8(b'F');
    p.var(job);
    p.bool(success);
}

/// A `Requeued` record's payload.
pub(crate) fn put_requeued(p: &mut Put<'_>, job: JobId, attempts: u32) {
    p.u8(b'R');
    p.var(job);
    p.var(attempts.into());
}

/// A `QuarantineStrike` record's payload.
pub(crate) fn put_strike(p: &mut Put<'_>, name: &str) {
    p.u8(b'K');
    p.str(name);
}

/// A `QuarantineRelease` record's payload.
pub(crate) fn put_release(p: &mut Put<'_>, name: &str) {
    p.u8(b'U');
    p.str(name);
}

/// A `DeadlineExceeded` record's payload.
pub(crate) fn put_deadline(p: &mut Put<'_>, job: JobId) {
    p.u8(b'D');
    p.var(job);
}

/// A `Restarted` record's payload.
pub(crate) fn put_restarted(p: &mut Put<'_>) {
    p.u8(b'B');
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected, poly 0xEDB88320) — table built at compile time.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32/IEEE of `data` (the checksum Ethernet, gzip, and PNG use).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Frames: the byte halves of append and scan, and the file around them.
// ---------------------------------------------------------------------------

/// Append one frame to `buf`: an 8-byte header, the payload `put`
/// encodes straight into `buf` behind it, then the header filled with
/// the payload's length and CRC. A payload [`scan_bytes`] could not read
/// back — [`MAX_FRAME_BYTES`] or more — is taken off again and refused
/// with `InvalidData`, leaving `buf` as it was.
pub(crate) fn put_frame(buf: &mut Vec<u8>, put: impl FnOnce(&mut Put<'_>)) -> io::Result<()> {
    let head = buf.len();
    buf.extend_from_slice(&[0; 8]);
    put(&mut Put(buf));
    let payload = &buf[head + 8..];
    if payload.len() >= MAX_FRAME_BYTES {
        buf.truncate(head);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal record exceeds MAX_FRAME_BYTES",
        ));
    }
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    buf[head..head + 4].copy_from_slice(&len);
    buf[head + 4..head + 8].copy_from_slice(&crc);
    Ok(())
}

/// Append `recs` to `buf` as frames (`put_frame` of each). A record
/// over the frame cap refuses the whole batch with `InvalidData` and
/// leaves `buf` as it was.
pub fn append_frames(buf: &mut Vec<u8>, recs: &[Record]) -> io::Result<()> {
    let start = buf.len();
    for rec in recs {
        put_frame(buf, |p| rec.put(p)).inspect_err(|_| buf.truncate(start))?;
    }
    Ok(())
}

/// What a full journal scan found.
#[derive(Debug)]
pub struct ReplaySummary {
    /// Every record of the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (magic + intact records).
    pub valid_len: u64,
    /// Total file length; `total_len - valid_len` bytes were torn or
    /// corrupt and will be discarded on the next [`Journal::open`].
    pub total_len: u64,
}

impl ReplaySummary {
    /// Bytes past the valid prefix (0 for a cleanly closed journal).
    pub fn dropped_bytes(&self) -> u64 {
        self.total_len - self.valid_len
    }
}

/// Read the longest valid prefix of a journal's bytes: what [`scan`]
/// does with a file's contents. No bytes ⇒ empty summary; any other
/// magic ⇒ `InvalidData` (refusing to append over a file that is not
/// this journal format); a torn, CRC-corrupt or undecodable frame ⇒
/// silently ends the prefix.
pub fn scan_bytes(data: &[u8]) -> io::Result<ReplaySummary> {
    let mut rest = match data.strip_prefix(MAGIC) {
        Some(frames) => frames,
        None if data.is_empty() => data,
        None => {
            let magic = String::from_utf8_lossy(&data[..data.len().min(MAGIC.len())]);
            let want = String::from_utf8_lossy(MAGIC);
            let why = format!("not a {want} journal: the file starts {magic:?}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
        }
    };
    let mut records = Vec::new();
    while let Some((rec, next)) = next_frame(rest) {
        records.push(rec);
        rest = next;
    }
    Ok(ReplaySummary {
        records,
        valid_len: (data.len() - rest.len()) as u64,
        total_len: data.len() as u64,
    })
}

/// The record in the frame `data` starts with, and the bytes after that
/// frame; `None` if the frame is cut short, fails its CRC or does not
/// decode.
fn next_frame(data: &[u8]) -> Option<(Record, &[u8])> {
    let ([l0, l1, l2, l3, c0, c1, c2, c3], rest) = data.split_first_chunk::<8>()?;
    let len = u32::from_le_bytes([*l0, *l1, *l2, *l3]) as usize;
    let (payload, rest) = rest.split_at_checked(len)?;
    if crc32(payload) != u32::from_le_bytes([*c0, *c1, *c2, *c3]) {
        return None;
    }
    Some((decode_msg(payload).ok()?, rest))
}

/// Scan the journal at `path` ([`scan_bytes`] of its contents); a
/// missing file scans as empty.
pub fn scan(path: &Path) -> io::Result<ReplaySummary> {
    match std::fs::read(path) {
        Ok(data) => scan_bytes(&data),
        Err(e) if e.kind() == io::ErrorKind::NotFound => scan_bytes(&[]),
        Err(e) => Err(e),
    }
}

/// The file handle and where its last whole frame ends, together under
/// one lock so concurrent appenders cannot interleave frames.
struct Writer {
    file: File,
    /// Where the last whole frame ends; `None` once a failed append could
    /// not be cut back off the file, after which every append is refused.
    end: Option<u64>,
}

/// An open, append-mode journal.
pub struct Journal {
    writer: Mutex<Writer>,
    policy: FsyncPolicy,
}

impl Journal {
    /// Open (or create) the journal at `path` for appending, first
    /// truncating any torn or corrupt tail, and return the surviving
    /// records for replay.
    pub fn open(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> io::Result<(Journal, Vec<Record>)> {
        let path = path.into();
        let summary = scan(&path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        if summary.total_len == 0 {
            file.write_all(MAGIC)?;
            file.sync_data()?;
        } else if summary.valid_len < summary.total_len {
            file.set_len(summary.valid_len)?;
            file.sync_data()?;
        }
        let end = file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                writer: Mutex::new(Writer {
                    file,
                    end: Some(end),
                }),
                policy,
            },
            summary.records,
        ))
    }

    /// Append one record (one frame, one write, fsync per policy).
    pub fn append(&self, rec: &Record) -> io::Result<()> {
        self.append_all(std::slice::from_ref(rec))
    }

    /// Append a batch of records as consecutive frames: encode them
    /// ([`append_frames`]) and [`Journal::write_frames`] the bytes.
    pub fn append_all(&self, recs: &[Record]) -> io::Result<()> {
        let mut frames = Vec::new();
        append_frames(&mut frames, recs)?;
        self.write_frames(&frames)
    }

    /// Append bytes that are already whole frames (`put_frame`'s, as
    /// `Fact::wal` writes them) under one lock acquisition, one write,
    /// and (under `Always`) one fsync — how the dispatcher appends what
    /// an input journaled. A write or fsync that fails leaves none of
    /// `frames` in the file: it is cut back to the last whole frame, so
    /// later appends stay readable.
    pub fn write_frames(&self, frames: &[u8]) -> io::Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        let mut w = match self.writer.lock() {
            Ok(w) => w,
            // A poisoned lock means an appender panicked mid-write; where
            // the file ends is unknown, so refuse further appends rather
            // than risk writing past a partial frame.
            Err(_) => return Err(io::Error::other("journal writer poisoned")),
        };
        let Writer { file, end } = &mut *w;
        let Some(at) = *end else {
            return Err(io::Error::other(
                "journal ends in a frame it could not remove",
            ));
        };
        // jets-lint: allow(lock-across-blocking) serializing appends through this write is the writer lock's entire job
        let written = file.write_all(frames).and_then(|()| match self.policy {
            FsyncPolicy::Always => file.sync_data(),
            FsyncPolicy::Interval | FsyncPolicy::Never => Ok(()),
        });
        *end = match written {
            Ok(()) => Some(at + frames.len() as u64),
            // A partial frame would end every later scan where it starts.
            Err(_) => file
                .set_len(at)
                .and_then(|()| file.seek(SeekFrom::Start(at)))
                .ok(),
        };
        written
    }

    /// Flush to disk now; the `Interval` policy's timer calls this.
    pub fn sync(&self) -> io::Result<()> {
        match self.writer.lock() {
            Ok(w) => w.file.sync_data(),
            Err(_) => Err(io::Error::other("journal writer poisoned")),
        }
    }
}

// ---------------------------------------------------------------------------
// Replay fold: records → the state a restarted dispatcher rebuilds.
// ---------------------------------------------------------------------------

/// Where a recovered non-terminal job stood at the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveredPhase {
    /// Waiting in the queue (or accepted but never enqueued — same
    /// thing after a restart).
    Queued,
    /// An attempt was in flight: these `(worker, task)` pairs had not
    /// reported, and `ended` exit codes had. Worker ids are the *old*
    /// incarnation's and are only useful as placeholders; task ids are
    /// the stable key reconciliation matches on.
    Active {
        /// Gang members still pending at the crash.
        tasks: Vec<(WorkerId, TaskId)>,
        /// Exit codes already reported by this attempt.
        ended: Vec<i32>,
    },
}

/// One job the journal proves was not terminal at the crash.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The job.
    pub id: JobId,
    /// Its specification, from the `Submitted` record.
    pub spec: JobSpec,
    /// Launch attempts consumed (including any in-flight one).
    pub attempts: u32,
    /// Queued or mid-attempt.
    pub phase: RecoveredPhase,
}

/// Everything [`recover`] folds out of a journal.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Non-terminal jobs in submission order.
    pub jobs: Vec<RecoveredJob>,
    /// Net quarantine strikes per worker name. Strike decay is wall-
    /// clock-based and does not survive a restart: replayed strikes are
    /// seeded as if freshly earned.
    pub strikes: Vec<(String, u32)>,
    /// Jobs that reached a terminal state before the crash (history the
    /// restarted dispatcher does not resurrect).
    pub finished: u64,
    /// First job id the restarted dispatcher may allocate.
    pub next_job: u64,
    /// First task id the restarted dispatcher may allocate. Strictly
    /// past every journaled task id, so a surviving worker's in-flight
    /// task id can never collide with a new assignment.
    pub next_task: u64,
}

/// An in-flight attempt: the tasks still assigned, and the exit codes
/// collected so far.
type ActiveAttempt = (Vec<(WorkerId, TaskId)>, Vec<i32>);

#[derive(Default)]
struct JobFold {
    spec: Option<JobSpec>,
    attempts: u32,
    active: Option<ActiveAttempt>,
    done: bool,
}

/// Fold a scanned record sequence into the restart state. Live jobs come
/// out in id order, which is submission order: ids are assigned as jobs
/// are submitted.
#[cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
pub fn recover(records: &[Record]) -> Recovered {
    let mut jobs: BTreeMap<JobId, JobFold> = BTreeMap::new();
    let mut strikes: BTreeMap<String, u32> = BTreeMap::new();
    let mut next_job = 1u64;
    let mut next_task = 1u64;
    for rec in records {
        match rec {
            Record::Submitted { job, spec } => {
                next_job = next_job.max(job + 1);
                jobs.entry(*job).or_default().spec = Some(spec.clone());
            }
            Record::Enqueued { job, attempts } | Record::Requeued { job, attempts } => {
                next_job = next_job.max(job + 1);
                if let Some(entry) = jobs.get_mut(job) {
                    entry.attempts = *attempts;
                    entry.active = None;
                    entry.done = false;
                }
            }
            Record::Assigned {
                job,
                attempt,
                tasks,
            } => {
                for &(_, t) in tasks {
                    next_task = next_task.max(t + 1);
                }
                if let Some(entry) = jobs.get_mut(job) {
                    entry.attempts = *attempt;
                    entry.active = Some((tasks.clone(), Vec::new()));
                }
            }
            Record::TaskEnded {
                job,
                task,
                exit_code,
            } => {
                next_task = next_task.max(task + 1);
                if let Some((pending, ended)) = jobs.get_mut(job).and_then(|e| e.active.as_mut()) {
                    if let Some(pos) = pending.iter().position(|&(_, t)| t == *task) {
                        pending.swap_remove(pos);
                        ended.push(*exit_code);
                    }
                }
            }
            Record::Finished { job, .. } => {
                if let Some(entry) = jobs.get_mut(job) {
                    entry.done = true;
                    entry.active = None;
                }
            }
            Record::QuarantineStrike { name } => {
                *strikes.entry(name.clone()).or_insert(0) += 1;
            }
            // Release ends the bench, not the strike count (decay does
            // that, on a wall clock that did not survive the crash);
            // recorded for the audit trail only.
            Record::QuarantineRelease { .. } => {}
            // Informational: the cancel it triggered is journaled via
            // TaskEnded / Requeued / Finished.
            Record::DeadlineExceeded { .. } => {}
            Record::Restarted => {}
        }
    }
    let finished = jobs.values().filter(|e| e.done).count() as u64;
    let live = jobs
        .into_iter()
        .filter(|(_, e)| !e.done)
        .filter_map(|(id, e)| {
            let phase = match e.active {
                Some((tasks, ended)) => RecoveredPhase::Active { tasks, ended },
                None => RecoveredPhase::Queued,
            };
            Some(RecoveredJob {
                id,
                spec: e.spec?,
                attempts: e.attempts,
                phase,
            })
        });
    Recovered {
        jobs: live.collect(),
        strikes: strikes.into_iter().collect(),
        finished,
        next_job,
        next_task,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommandSpec, StageFile};

    fn tmp(name: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "jets-journal-{name}-{}-{n}.wal",
            std::process::id()
        ))
    }

    fn spec() -> JobSpec {
        JobSpec::mpi_ppn(2, 3, CommandSpec::exec("/bin/sim", vec!["--fast".into()]))
            .with_retries(4)
            .with_priority(7)
            .with_stage(vec![StageFile::new("/data/params.dat")])
            .with_deadline(std::time::Duration::from_millis(1500))
    }

    fn all_kinds() -> Vec<Record> {
        vec![
            Record::Submitted {
                job: 1,
                spec: spec(),
            },
            Record::Enqueued {
                job: 1,
                attempts: 0,
            },
            Record::Assigned {
                job: 1,
                attempt: 1,
                tasks: vec![(10, 100), (11, 101)],
            },
            Record::TaskEnded {
                job: 1,
                task: 100,
                exit_code: crate::spec::EXIT_WORKER_LOST,
            },
            Record::Requeued {
                job: 1,
                attempts: 1,
            },
            Record::QuarantineStrike { name: "w3".into() },
            Record::QuarantineRelease { name: "w3".into() },
            Record::DeadlineExceeded { job: 1 },
            Record::Finished {
                job: 1,
                success: false,
            },
            Record::Restarted,
        ]
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_kind_round_trips() {
        let path = tmp("roundtrip");
        let originals = all_kinds();
        {
            let (j, prior) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            assert!(prior.is_empty());
            j.append_all(&originals).unwrap();
        }
        let (_, replayed) = Journal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replayed, originals);
        std::fs::remove_file(&path).ok();
    }

    /// A journal holding `recs`, and the offset each record's frame ends at.
    fn framed(recs: &[Record]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = MAGIC.to_vec();
        let ends = recs
            .iter()
            .map(|rec| {
                append_frames(&mut bytes, std::slice::from_ref(rec)).unwrap();
                bytes.len()
            })
            .collect();
        (bytes, ends)
    }

    #[test]
    fn torn_final_record_is_truncated_and_survivors_kept() {
        // A crash mid-append, at every byte: the cut keeps exactly the
        // records whose frames end before it.
        let originals = all_kinds();
        let (bytes, ends) = framed(&originals);
        for cut in MAGIC.len()..=bytes.len() {
            let summary = scan_bytes(&bytes[..cut]).unwrap();
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            assert_eq!(summary.records, originals[..whole], "cut at {cut}");
            let valid = ends[..whole].last().copied().unwrap_or(MAGIC.len());
            assert_eq!(summary.valid_len, valid as u64, "cut at {cut}");
            assert_eq!(summary.dropped_bytes(), (cut - valid) as u64);
        }
        // Reopen truncates the tail and appends continue cleanly.
        let path = tmp("torn");
        std::fs::write(&path, &bytes[..ends[3] + 5]).unwrap();
        {
            let (j, replayed) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            assert_eq!(replayed, originals[..4]);
            j.append(&Record::Restarted).unwrap();
        }
        let (_, after) = Journal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(after, [&originals[..4], &[Record::Restarted]].concat());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_corrupt_record_rejected_with_everything_after() {
        // One flipped bit anywhere in a frame, header or payload, rejects
        // it and every frame after it: a valid-prefix scan cannot trust
        // frame boundaries past a corrupt frame.
        let originals = all_kinds();
        let (bytes, ends) = framed(&originals);
        let mut rng = jets_ring::stdx::SplitMix64::new(0x0C0D_EC3C);
        let starts = std::iter::once(MAGIC.len()).chain(ends.iter().copied());
        for (i, (start, end)) in starts.zip(ends.iter().copied()).enumerate() {
            let mut data = bytes.clone();
            let at = rng.gen_range(start as u64..end as u64) as usize;
            data[at] ^= 1 << rng.gen_range(0..8);
            let summary = scan_bytes(&data).unwrap();
            assert_eq!(summary.records, originals[..i], "bit flipped at {at}");
            assert_eq!(summary.valid_len, start as u64);
        }
    }

    #[test]
    fn non_journal_file_is_refused() {
        let path = tmp("notwal");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        let err = scan(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(Journal::open(&path, FsyncPolicy::Always).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// An old journal is not mistaken for a torn one: truncating it to
    /// its magic would lose every record in it.
    #[test]
    fn a_version_1_journal_is_refused_and_left_as_it_is() {
        let path = tmp("v1");
        let v1 = [&b"JETSWAL1"[..], &13u32.to_le_bytes(), &[7; 17]].concat();
        std::fs::write(&path, &v1).unwrap();
        for err in [
            scan(&path).unwrap_err(),
            Journal::open(&path, FsyncPolicy::Always).err().unwrap(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("JETSWAL1"), "{err}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), v1);
        std::fs::remove_file(&path).ok();
    }

    /// A record the scan could not read back would end every later scan
    /// at itself, so it is refused with its batch before anything is
    /// written.
    #[test]
    fn a_record_over_the_frame_cap_is_refused_with_its_batch() {
        let path = tmp("huge");
        let (j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
        let huge = Record::QuarantineStrike {
            name: "x".repeat(MAX_FRAME_BYTES),
        };
        let err = j.append_all(&[Record::Restarted, huge]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        j.append(&Record::Restarted).unwrap();
        assert_eq!(scan(&path).unwrap().records, [Record::Restarted]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_scans_empty_and_open_creates() {
        let path = tmp("fresh");
        let summary = scan(&path).unwrap();
        assert!(summary.records.is_empty());
        assert_eq!(summary.total_len, 0);
        let (j, prior) = Journal::open(&path, FsyncPolicy::Interval).unwrap();
        assert!(prior.is_empty());
        j.append(&Record::Restarted).unwrap();
        j.sync().unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > MAGIC.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_folds_the_lifecycle() {
        let s = spec();
        let records = vec![
            // Job 1: finished before the crash — not resurrected.
            Record::Submitted {
                job: 1,
                spec: s.clone(),
            },
            Record::Enqueued {
                job: 1,
                attempts: 0,
            },
            Record::Assigned {
                job: 1,
                attempt: 1,
                tasks: vec![(4, 40)],
            },
            Record::TaskEnded {
                job: 1,
                task: 40,
                exit_code: 0,
            },
            Record::Finished {
                job: 1,
                success: true,
            },
            // Job 2: queued at the crash.
            Record::Submitted {
                job: 2,
                spec: s.clone(),
            },
            Record::Enqueued {
                job: 2,
                attempts: 0,
            },
            // Job 3: second attempt in flight, one member already ended.
            Record::Submitted {
                job: 3,
                spec: s.clone(),
            },
            Record::Enqueued {
                job: 3,
                attempts: 0,
            },
            Record::Assigned {
                job: 3,
                attempt: 1,
                tasks: vec![(5, 50)],
            },
            Record::TaskEnded {
                job: 3,
                task: 50,
                exit_code: crate::spec::EXIT_WORKER_LOST,
            },
            Record::Requeued {
                job: 3,
                attempts: 1,
            },
            Record::Assigned {
                job: 3,
                attempt: 2,
                tasks: vec![(6, 60), (7, 61)],
            },
            Record::TaskEnded {
                job: 3,
                task: 60,
                exit_code: 0,
            },
            // Strikes: two for w9, one struck-and-released for w5.
            Record::QuarantineStrike { name: "w9".into() },
            Record::QuarantineStrike { name: "w9".into() },
            Record::QuarantineStrike { name: "w5".into() },
            Record::QuarantineRelease { name: "w5".into() },
        ];
        let r = recover(&records);
        assert_eq!(r.finished, 1);
        assert_eq!(r.next_job, 4);
        assert_eq!(r.next_task, 62);
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(r.jobs[0].id, 2);
        assert_eq!(r.jobs[0].attempts, 0);
        assert_eq!(r.jobs[0].phase, RecoveredPhase::Queued);
        assert_eq!(r.jobs[1].id, 3);
        assert_eq!(r.jobs[1].attempts, 2);
        assert_eq!(
            r.jobs[1].phase,
            RecoveredPhase::Active {
                tasks: vec![(7, 61)],
                ended: vec![0],
            }
        );
        // Release does not erase the strike ledger; decay (not
        // journaled) is the only eraser, so both names reappear.
        assert_eq!(r.strikes, vec![("w5".into(), 1), ("w9".into(), 2)]);
        std::mem::drop(records);
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("interval"), Some(FsyncPolicy::Interval));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
