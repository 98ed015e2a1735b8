//! Crash-durable write-ahead journal for the dispatcher.
//!
//! A dispatcher restarted with the same journal path must reconstruct
//! every queued job, every in-flight gang, and the quarantine ledger —
//! so each state transition appends one fixed-layout record *before*
//! the transition becomes externally visible. The format is std-only:
//! no serde on this path, just hand-packed little-endian fields behind
//! a per-record CRC, in the spirit of the planned mmap flight-recorder
//! ring.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic records*
//! magic  := "JETSWAL1"                  (8 bytes)
//! record := len:u32 crc:u32 payload     (len = payload length,
//!                                        crc = CRC-32/IEEE of payload)
//! payload := tag:u8 fields…             (fixed layout per tag; strings
//!                                        and lists are u32-length-prefixed)
//! ```
//!
//! Replay scans the longest valid prefix: the first record whose frame
//! is short (a torn tail from a crash mid-append) or whose CRC
//! mismatches (corruption) ends the scan, and [`Journal::open`]
//! truncates the file back to that prefix before appending again. A
//! torn final record is therefore expected and silent; the byte counts
//! in [`ReplaySummary`] make the loss visible to `jets journal verify`.
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

use crate::spec::{CommandSpec, JobId, JobSpec, StageFile, TaskId, WorkerId};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File magic: identifies a JETS write-ahead log, version 1.
pub const MAGIC: &[u8; 8] = b"JETSWAL1";

/// Largest payload [`scan`] accepts; anything bigger is treated as a
/// corrupt length field (ends the valid prefix) rather than an
/// allocation request.
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

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

const TAG_SUBMITTED: u8 = 1;
const TAG_ENQUEUED: u8 = 2;
const TAG_ASSIGNED: u8 = 3;
const TAG_TASK_ENDED: u8 = 4;
const TAG_FINISHED: u8 = 5;
const TAG_REQUEUED: u8 = 6;
const TAG_STRIKE: u8 = 7;
const TAG_RELEASE: u8 = 8;
const TAG_DEADLINE: u8 = 9;
const TAG_RESTARTED: u8 = 10;

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
// Payload codec: hand-packed little-endian, length-prefixed strings/lists.
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_spec(buf: &mut Vec<u8>, spec: &JobSpec) {
    put_u32(buf, spec.nodes);
    put_u32(buf, spec.ppn);
    put_i32(buf, spec.priority);
    put_u32(buf, spec.max_retries);
    buf.push(spec.mpi as u8);
    match spec.deadline_ms {
        Some(ms) => {
            buf.push(1);
            put_u64(buf, ms);
        }
        None => buf.push(0),
    }
    let (variant, name, args, env) = match &spec.cmd {
        CommandSpec::Exec { program, args, env } => (0u8, program, args, env),
        CommandSpec::Builtin { app, args, env } => (1u8, app, args, env),
    };
    buf.push(variant);
    put_str(buf, name);
    put_u32(buf, args.len() as u32);
    for a in args {
        put_str(buf, a);
    }
    put_u32(buf, env.len() as u32);
    for (k, v) in env {
        put_str(buf, k);
        put_str(buf, v);
    }
    put_u32(buf, spec.stage.len() as u32);
    for f in &spec.stage {
        put_str(buf, &f.source);
        put_str(buf, &f.name);
    }
}

/// Bounds-checked reader over one CRC-validated payload. A truncation
/// *inside* a valid frame means the encoder and decoder disagree —
/// corruption the CRC happened to miss — so every getter errors instead
/// of panicking.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(bad("record payload truncated"));
        };
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self) -> io::Result<i32> {
        let b = self.bytes(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("record string not UTF-8"))
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("record payload has trailing bytes"))
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn get_spec(c: &mut Cursor<'_>) -> io::Result<JobSpec> {
    let nodes = c.u32()?;
    let ppn = c.u32()?;
    let priority = c.i32()?;
    let max_retries = c.u32()?;
    let mpi = c.u8()? != 0;
    let deadline_ms = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        _ => return Err(bad("bad deadline flag")),
    };
    let variant = c.u8()?;
    let name = c.str()?;
    let nargs = c.u32()? as usize;
    let mut args = Vec::with_capacity(nargs.min(1024));
    for _ in 0..nargs {
        args.push(c.str()?);
    }
    let nenv = c.u32()? as usize;
    let mut env = Vec::with_capacity(nenv.min(1024));
    for _ in 0..nenv {
        let k = c.str()?;
        let v = c.str()?;
        env.push((k, v));
    }
    let cmd = match variant {
        0 => CommandSpec::Exec {
            program: name,
            args,
            env,
        },
        1 => CommandSpec::Builtin {
            app: name,
            args,
            env,
        },
        _ => return Err(bad("bad command variant")),
    };
    let nstage = c.u32()? as usize;
    let mut stage = Vec::with_capacity(nstage.min(1024));
    for _ in 0..nstage {
        let source = c.str()?;
        let name = c.str()?;
        stage.push(StageFile { source, name });
    }
    Ok(JobSpec {
        nodes,
        ppn,
        cmd,
        priority,
        max_retries,
        mpi,
        stage,
        deadline_ms,
    })
}

/// Encode one record's payload (tag + fields) into `buf`.
fn encode_payload(rec: &Record, buf: &mut Vec<u8>) {
    match rec {
        Record::Submitted { job, spec } => {
            buf.push(TAG_SUBMITTED);
            put_u64(buf, *job);
            put_spec(buf, spec);
        }
        Record::Enqueued { job, attempts } => {
            buf.push(TAG_ENQUEUED);
            put_u64(buf, *job);
            put_u32(buf, *attempts);
        }
        Record::Assigned {
            job,
            attempt,
            tasks,
        } => {
            buf.push(TAG_ASSIGNED);
            put_u64(buf, *job);
            put_u32(buf, *attempt);
            put_u32(buf, tasks.len() as u32);
            for (w, t) in tasks {
                put_u64(buf, *w);
                put_u64(buf, *t);
            }
        }
        Record::TaskEnded {
            job,
            task,
            exit_code,
        } => {
            buf.push(TAG_TASK_ENDED);
            put_u64(buf, *job);
            put_u64(buf, *task);
            put_i32(buf, *exit_code);
        }
        Record::Finished { job, success } => {
            buf.push(TAG_FINISHED);
            put_u64(buf, *job);
            buf.push(*success as u8);
        }
        Record::Requeued { job, attempts } => {
            buf.push(TAG_REQUEUED);
            put_u64(buf, *job);
            put_u32(buf, *attempts);
        }
        Record::QuarantineStrike { name } => {
            buf.push(TAG_STRIKE);
            put_str(buf, name);
        }
        Record::QuarantineRelease { name } => {
            buf.push(TAG_RELEASE);
            put_str(buf, name);
        }
        Record::DeadlineExceeded { job } => {
            buf.push(TAG_DEADLINE);
            put_u64(buf, *job);
        }
        Record::Restarted => buf.push(TAG_RESTARTED),
    }
}

/// Decode one CRC-validated payload.
fn decode_payload(payload: &[u8]) -> io::Result<Record> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        TAG_SUBMITTED => Record::Submitted {
            job: c.u64()?,
            spec: get_spec(&mut c)?,
        },
        TAG_ENQUEUED => Record::Enqueued {
            job: c.u64()?,
            attempts: c.u32()?,
        },
        TAG_ASSIGNED => {
            let job = c.u64()?;
            let attempt = c.u32()?;
            let n = c.u32()? as usize;
            let mut tasks = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let w = c.u64()?;
                let t = c.u64()?;
                tasks.push((w, t));
            }
            Record::Assigned {
                job,
                attempt,
                tasks,
            }
        }
        TAG_TASK_ENDED => Record::TaskEnded {
            job: c.u64()?,
            task: c.u64()?,
            exit_code: c.i32()?,
        },
        TAG_FINISHED => Record::Finished {
            job: c.u64()?,
            success: c.u8()? != 0,
        },
        TAG_REQUEUED => Record::Requeued {
            job: c.u64()?,
            attempts: c.u32()?,
        },
        TAG_STRIKE => Record::QuarantineStrike { name: c.str()? },
        TAG_RELEASE => Record::QuarantineRelease { name: c.str()? },
        TAG_DEADLINE => Record::DeadlineExceeded { job: c.u64()? },
        TAG_RESTARTED => Record::Restarted,
        _ => return Err(bad("unknown record tag")),
    };
    c.done()?;
    Ok(rec)
}

// ---------------------------------------------------------------------------
// Scan / append.
// ---------------------------------------------------------------------------

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

/// Scan `path`, returning the longest valid prefix's records. Missing
/// file ⇒ empty summary; wrong magic ⇒ `InvalidData` (refusing to
/// append over a file that is not a journal); a torn or CRC-corrupt
/// tail ⇒ silently ends the prefix.
pub fn scan(path: &Path) -> io::Result<ReplaySummary> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(ReplaySummary {
                records: Vec::new(),
                valid_len: 0,
                total_len: 0,
            })
        }
        Err(e) => return Err(e),
    };
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    let total_len = data.len() as u64;
    if data.is_empty() {
        return Ok(ReplaySummary {
            records: Vec::new(),
            valid_len: 0,
            total_len,
        });
    }
    if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
        return Err(bad("not a JETS journal (bad magic)"));
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    loop {
        // Frame header: len + crc. A short header is a torn tail.
        if pos + 8 > data.len() {
            break;
        }
        let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        if len == 0 || len > MAX_RECORD_BYTES {
            break; // corrupt length field
        }
        let start = pos + 8;
        let Some(end) = start.checked_add(len as usize).filter(|&e| e <= data.len()) else {
            break; // torn payload
        };
        let payload = &data[start..end];
        if crc32(payload) != crc {
            break; // corrupt record: reject it and everything after
        }
        let Ok(rec) = decode_payload(payload) else {
            break; // CRC-valid but undecodable: treat as corruption
        };
        records.push(rec);
        pos = end;
    }
    Ok(ReplaySummary {
        records,
        valid_len: pos as u64,
        total_len,
    })
}

/// The file handle and its reusable encode buffer, together under one
/// lock so concurrent appenders cannot interleave frames.
struct Writer {
    file: File,
    buf: Vec<u8>,
}

/// An open, append-mode journal.
pub struct Journal {
    writer: Mutex<Writer>,
    policy: FsyncPolicy,
    path: PathBuf,
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
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                writer: Mutex::new(Writer {
                    file,
                    buf: Vec::with_capacity(256),
                }),
                policy,
                path,
            },
            summary.records,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record (one frame, one write, fsync per policy).
    pub fn append(&self, rec: &Record) -> io::Result<()> {
        self.append_all(std::slice::from_ref(rec))
    }

    /// Append a batch of records as consecutive frames under one lock
    /// acquisition, one write, and (under `Always`) one fsync — the
    /// submit-batch fast path.
    pub fn append_all(&self, recs: &[Record]) -> io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        let mut w = match self.writer.lock() {
            Ok(w) => w,
            // A poisoned lock means an appender panicked mid-frame; the
            // buffer state is unknown, so refuse further appends rather
            // than risk writing garbage.
            Err(_) => return Err(io::Error::other("journal writer poisoned")),
        };
        let Writer { file, buf } = &mut *w;
        buf.clear();
        let mut payload = Vec::with_capacity(128);
        for rec in recs {
            payload.clear();
            encode_payload(rec, &mut payload);
            put_u32(buf, payload.len() as u32);
            put_u32(buf, crc32(&payload));
            buf.extend_from_slice(&payload);
        }
        // jets-lint: allow(lock-across-blocking) serializing appends through this write is the writer lock's entire job
        file.write_all(buf)?;
        if self.policy == FsyncPolicy::Always {
            file.sync_data()?;
        }
        Ok(())
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
    order: usize,
}

/// Fold a scanned record sequence into the restart state.
pub fn recover(records: &[Record]) -> Recovered {
    let mut jobs: HashMap<JobId, JobFold> = HashMap::new();
    let mut strikes: HashMap<String, u32> = HashMap::new();
    let mut next_job = 1u64;
    let mut next_task = 1u64;
    let mut order = 0usize;
    for rec in records {
        match rec {
            Record::Submitted { job, spec } => {
                next_job = next_job.max(job + 1);
                let entry = jobs.entry(*job).or_insert_with(|| {
                    order += 1;
                    JobFold {
                        order,
                        ..JobFold::default()
                    }
                });
                entry.spec = Some(spec.clone());
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
    let mut live: Vec<(usize, RecoveredJob)> = jobs
        .into_iter()
        .filter(|(_, e)| !e.done && e.spec.is_some())
        .filter_map(|(id, e)| {
            let spec = e.spec?;
            let phase = match e.active {
                Some((tasks, ended)) => RecoveredPhase::Active { tasks, ended },
                None => RecoveredPhase::Queued,
            };
            Some((
                e.order,
                RecoveredJob {
                    id,
                    spec,
                    attempts: e.attempts,
                    phase,
                },
            ))
        })
        .collect();
    live.sort_by_key(|(order, _)| *order);
    let mut strikes: Vec<(String, u32)> = strikes.into_iter().collect();
    strikes.sort();
    Recovered {
        jobs: live.into_iter().map(|(_, j)| j).collect(),
        strikes,
        finished,
        next_job,
        next_task,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn torn_final_record_is_truncated_and_survivors_kept() {
        let path = tmp("torn");
        let originals = all_kinds();
        {
            let (j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
            j.append_all(&originals).unwrap();
        }
        // Simulate a crash mid-append: a frame header promising more
        // payload than the file holds.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&200u32.to_le_bytes()).unwrap();
            f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
            f.write_all(b"only a few bytes").unwrap();
        }
        let summary = scan(&path).unwrap();
        assert_eq!(summary.records, originals);
        assert_eq!(summary.valid_len, clean_len);
        assert!(summary.dropped_bytes() > 0);
        // Reopen truncates the tail and appends continue cleanly.
        {
            let (j, replayed) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            assert_eq!(replayed, originals);
            j.append(&Record::Restarted).unwrap();
        }
        let (_, after) = Journal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(after.len(), originals.len() + 1);
        assert_eq!(after.last(), Some(&Record::Restarted));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_corrupt_record_rejected_with_everything_after() {
        let path = tmp("corrupt");
        {
            let (j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
            for i in 0..5 {
                j.append(&Record::Enqueued {
                    job: i,
                    attempts: 0,
                })
                .unwrap();
            }
        }
        // Flip one payload byte in the third record: it and both
        // successors must be rejected (a valid-prefix scan cannot trust
        // frame boundaries after a corrupt frame).
        let mut data = std::fs::read(&path).unwrap();
        let frame = 8 + 13; // header + Enqueued payload (tag + u64 + u32)
        let third_payload = MAGIC.len() + 2 * frame + 8;
        data[third_payload + 3] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let summary = scan(&path).unwrap();
        assert_eq!(
            summary.records,
            vec![
                Record::Enqueued {
                    job: 0,
                    attempts: 0
                },
                Record::Enqueued {
                    job: 1,
                    attempts: 0
                },
            ]
        );
        assert_eq!(summary.dropped_bytes(), 3 * frame as u64);
        std::fs::remove_file(&path).ok();
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
