//! The ring itself: fixed-capacity slots, one claim cursor, per-slot
//! commit stamps, overwrite-oldest semantics.
//!
//! ## Layout (all little-endian `u64` words)
//!
//! ```text
//! header: | MAGIC | VERSION | SLOT_BYTES | CAPACITY | HEAD | EPOCH_US | PID | ROLE |
//! slots:  | stamp | payload word 0..=7 |  × capacity           (72 B per slot)
//! ```
//!
//! `HEAD` is the claim cursor: the sequence number of the *next* record
//! to be written, monotone over the whole life of the ring (it never
//! wraps; slot index is `seq & (capacity-1)`). Each slot carries a
//! stamp encoding what the slot holds:
//!
//! ```text
//! 0                  never written
//! 2·seq + 1          record `seq` is being written (torn if seen at rest)
//! 2·seq + 2          record `seq` is committed
//! 2·seq + 3          record `seq` was dropped: an older writer still
//!                    holds the slot (no `seq + 1` shares the slot, so
//!                    this cannot be mistaken for a write in progress)
//! ```
//!
//! A stamp never moves backwards. An odd stamp means a writer holds the
//! slot, and only that writer stores payload words or makes the stamp
//! even again; so two records never interleave in one slot, and a
//! reader that sees `committed(seq)` before and after its copy has
//! copied record `seq` and nothing else.
//!
//! ## Memory ordering
//!
//! The write/read protocol is the seqlock recipe used by
//! `crossbeam-utils`' `SeqLock` (per Boehm, *Can seqlocks get along
//! with programming models?*), applied per slot:
//!
//! * **Writer**: claim a seq (`HEAD.fetch_add`), take the slot by moving
//!   its stamp from even to *writing* with a `compare_exchange(Acquire)`
//!   (the Acquire pairs with the previous committer's Release on the same
//!   slot, ordering this overwrite after the previous record's
//!   publication), issue a `fence(Release)` so the *writing* mark is
//!   ordered before the payload stores, write the payload words
//!   (`Relaxed` — they are atomics, so concurrent readers race safely),
//!   then publish with a `compare_exchange(writing, committed, Release)`.
//! * **Reader**: load the stamp with `Acquire` (pairs with the
//!   writer's committing Release, making the payload words it covers
//!   visible), copy the payload (`Relaxed` loads), then
//!   `fence(Acquire)` and re-load the stamp `Relaxed`: if it moved,
//!   the copy may interleave two records and is discarded. The fence
//!   orders the payload loads before the validating re-load, so a
//!   writer that raced the copy cannot have its stamp update hidden.
//!
//! `HEAD` itself is *not* the publication point — slot stamps are.
//! Readers use `HEAD` only to bound their scan, and a stale value
//! merely means a reader looks at slightly old state; hence the
//! claim `fetch_add` can be (and is) `Relaxed`, with the reasoning
//! annotated inline.
//!
//! ## Writers and readers
//!
//! The ring is single-writer *per record*: each `push` claims its own
//! sequence number, so multiple threads may share one [`Ring`] handle
//! (the dispatcher's event producers do). Two pushes a whole `capacity`
//! apart can still meet on one slot when a writer is preempted between
//! its claim and its write. Then the older record is the one lost:
//!
//! * a stale writer that finds a newer stamp drops its record, which
//!   every reader already counts as lapped;
//! * a newer writer that finds the slot held drops *its* record and
//!   says so with `dropped(seq)`, which the holder turns even when it
//!   leaves (`dropped(seq) + 1`), so the slot is free again and readers
//!   count both records as lapped rather than waiting on either.
//!
//! No writer ever waits on another.
//!
//! Readers never write shared state: a [`RingReader`] owns its cursor
//! and lap/torn counters, so any number of them chase the writer
//! without a lock, a CAS, or any cross-core store at all.

use crate::region::Region;
use std::io;
use std::path::Path;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

/// `"JETSRNG1"` little-endian.
const MAGIC: u64 = u64::from_le_bytes(*b"JETSRNG1");
/// Bump when the slot layout changes. Version 1 had 128-byte slots;
/// its files are refused, not converted.
const VERSION: u64 = 2;

/// Header size, in words.
const HDR_WORDS: usize = 8;
const W_MAGIC: usize = 0;
const W_VERSION: usize = 1;
const W_SLOT_BYTES: usize = 2;
const W_CAPACITY: usize = 3;
const W_HEAD: usize = 4;
const W_EPOCH_US: usize = 5;
const W_PID: usize = 6;
const W_ROLE: usize = 7;

/// Words per slot (1 stamp + 8 payload words): the largest event
/// record is 62 bytes, so 64 payload bytes hold every one of them.
const SLOT_WORDS: usize = 9;
/// Bytes per slot.
pub const SLOT_BYTES: usize = SLOT_WORDS * 8;
/// Payload bytes per record; pushes larger than this are refused.
pub const PAYLOAD_BYTES: usize = SLOT_BYTES - 8;
const PAYLOAD_WORDS: usize = SLOT_WORDS - 1;

/// Largest claim cursor a file may carry: a stamp is at most
/// `2·seq + 3`, which must fit a word with room to keep pushing.
const MAX_SEQ: u64 = 1 << 62;

/// Smallest accepted capacity; see the module docs on same-slot races.
pub const MIN_CAPACITY: usize = 1024;

/// Which process wrote a flight-recorder file — the *lane* a merged
/// cross-process trace sorts its records into. Stamped into header
/// word 7 (previously reserved: legacy files read back as
/// [`WriterRole::Unknown`], so the version number does not change).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriterRole {
    /// Legacy file (header word 7 zero) or an in-memory ring.
    Unknown,
    /// The central dispatcher.
    Dispatcher,
    /// A relay daemon fronting a block of workers.
    Relay,
    /// A worker agent (pilot job).
    Worker,
}

impl WriterRole {
    /// The on-disk code stamped into header word 7.
    pub fn code(self) -> u64 {
        match self {
            WriterRole::Unknown => 0,
            WriterRole::Dispatcher => 1,
            WriterRole::Relay => 2,
            WriterRole::Worker => 3,
        }
    }

    /// Decode a header word; unknown codes (a newer build's roles)
    /// degrade to [`WriterRole::Unknown`] instead of failing the open.
    pub fn from_code(code: u64) -> WriterRole {
        match code {
            1 => WriterRole::Dispatcher,
            2 => WriterRole::Relay,
            3 => WriterRole::Worker,
            _ => WriterRole::Unknown,
        }
    }

    /// Stable lowercase label (`jets trace` lane names, Perfetto pids).
    pub fn as_str(self) -> &'static str {
        match self {
            WriterRole::Unknown => "unknown",
            WriterRole::Dispatcher => "dispatcher",
            WriterRole::Relay => "relay",
            WriterRole::Worker => "worker",
        }
    }
}

#[inline]
fn stamp_writing(seq: u64) -> u64 {
    2 * seq + 1
}

#[inline]
fn stamp_committed(seq: u64) -> u64 {
    2 * seq + 2
}

#[inline]
fn stamp_dropped(seq: u64) -> u64 {
    2 * seq + 3
}

/// The shared state under every handle cloned from one ring.
struct Shared {
    region: Region,
    /// Capacity in slots; always a power of two.
    cap: u64,
}

impl Shared {
    #[inline]
    fn slot_word(&self, seq: u64) -> usize {
        HDR_WORDS + ((seq & (self.cap - 1)) as usize) * SLOT_WORDS
    }
}

/// One fixed-size record copied out of the ring.
///
/// The copy is the price of a *validated* read: the payload bytes are
/// only trusted after the stamp re-check proves no writer touched the
/// slot mid-copy, so they must live on the reader's stack, not in the
/// shared memory. 64 bytes, no heap.
#[derive(Clone, Copy)]
pub struct Record {
    /// The record's sequence number (position in the journal).
    pub seq: u64,
    payload: [u8; PAYLOAD_BYTES],
}

impl Record {
    /// The fixed-size payload. Trailing bytes past the logical record
    /// are zero; the producer's codec knows the real length.
    pub fn payload(&self) -> &[u8; PAYLOAD_BYTES] {
        &self.payload
    }
}

/// Outcome of one validated slot read.
enum SlotRead {
    /// Committed and copied intact.
    Ok(Record),
    /// Claimed (or simply not reached) but not committed yet.
    Pending,
    /// Overwritten by a newer record before or during the copy.
    Gone,
}

/// A lock-free ring journal. Cloning shares the same memory; any clone
/// may push (each push claims its own slot) and any clone can mint
/// independent readers.
#[derive(Clone)]
pub struct Ring {
    shared: Arc<Shared>,
}

impl Ring {
    /// An in-process (anonymous-memory) ring of at least `capacity` slots,
    /// rounded up to a power of two.
    pub fn anon(capacity: usize) -> Ring {
        let cap = capacity.max(MIN_CAPACITY).next_power_of_two();
        let region = Region::anon(HDR_WORDS + cap * SLOT_WORDS);
        let ring = Ring {
            shared: Arc::new(Shared {
                region,
                cap: cap as u64,
            }),
        };
        ring.init_header(cap as u64);
        ring
    }

    /// Create (or re-open) a file-backed ring at `path` with at least
    /// `capacity` slots. Re-opening an existing recorder file keeps its
    /// contents and sequence cursor — a restarted daemon appends where
    /// the crashed one stopped. The capacity of an existing file must
    /// not exceed the requested one.
    pub fn create(path: &Path, capacity: usize) -> io::Result<Ring> {
        Ring::create_with_role(path, capacity, WriterRole::Unknown)
    }

    /// [`Ring::create`] with the writer's process role stamped into the
    /// header, so an offline merge ([`Ring::open_read`] across several
    /// files) can sort each file into its lane without guessing from
    /// file names. Passing [`WriterRole::Unknown`] leaves an existing
    /// file's role untouched.
    pub fn create_with_role(path: &Path, capacity: usize, role: WriterRole) -> io::Result<Ring> {
        let cap = capacity.max(MIN_CAPACITY).next_power_of_two();
        let bytes = (HDR_WORDS + cap * SLOT_WORDS) * 8;
        // A ring this build cannot read (another version or slot size) is
        // refused before the mapping below extends its file: it is left
        // as it was.
        if let Ok(old) = Region::file_readonly(path) {
            if old.words() >= HDR_WORDS && old.word(W_MAGIC).load(Ordering::Acquire) != 0 {
                validate_kind(&old, path)?;
            }
        }
        let region = Region::file(path, bytes)?;
        let shared = Shared {
            region,
            cap: cap as u64,
        };
        let magic = shared.region.word(W_MAGIC).load(Ordering::Acquire);
        if magic == 0 {
            let ring = Ring {
                shared: Arc::new(shared),
            };
            ring.init_header(cap as u64);
            ring.shared
                .region
                .word(W_ROLE)
                .store(role.code(), Ordering::Release);
            return Ok(ring);
        }
        let mut shared = shared;
        // An existing file dictates the live capacity: at most what is
        // mapped (a longer file was rejected by the region layer), which
        // a header claiming more fails.
        shared.cap = validate_header(&shared.region, path)?;
        // A slot still held is one its writer died in: past both records
        // an odd stamp can name (`+ 3`), so it reads as lost and is free.
        // Only a re-open pays this sweep, and it touches every page of
        // the mapping: ~2 ms for the default 2^17 slots (9 MiB), ~11 ms
        // for 2^20 (2-core Xeon, file in the page cache).
        for slot in 0..shared.cap {
            let stamp = shared.region.word(shared.slot_word(slot));
            let cur = stamp.load(Ordering::Acquire);
            if let (1, Some(free)) = (cur & 1, cur.checked_add(3)) {
                let _ = stamp.compare_exchange(cur, free, Ordering::AcqRel, Ordering::Relaxed);
            }
        }
        shared
            .region
            .word(W_PID)
            .store(std::process::id() as u64, Ordering::Release);
        if role != WriterRole::Unknown {
            shared
                .region
                .word(W_ROLE)
                .store(role.code(), Ordering::Release);
        }
        Ok(Ring {
            shared: Arc::new(shared),
        })
    }

    /// Map an existing recorder file read-only for offline replay.
    pub fn open_read(path: &Path) -> io::Result<Ring> {
        let region = Region::file_readonly(path)?;
        let cap = validate_header(&region, path)?;
        Ok(Ring {
            shared: Arc::new(Shared { region, cap }),
        })
    }

    fn init_header(&self, cap: u64) {
        let r = &self.shared.region;
        r.word(W_VERSION).store(VERSION, Ordering::Release);
        r.word(W_SLOT_BYTES)
            .store(SLOT_BYTES as u64, Ordering::Release);
        r.word(W_CAPACITY).store(cap, Ordering::Release);
        r.word(W_EPOCH_US).store(unix_micros(), Ordering::Release);
        r.word(W_PID)
            .store(std::process::id() as u64, Ordering::Release);
        // Magic last: a mapping with the magic set has a full header.
        r.word(W_MAGIC).store(MAGIC, Ordering::Release);
    }

    /// Append one record; returns its sequence number. Lock-free and
    /// allocation-free: one `fetch_add`, one stamp load, two stamp
    /// compare-exchanges, eight word stores. Payloads longer than
    /// [`PAYLOAD_BYTES`] are refused with a panic (producer bug, not
    /// data-dependent).
    pub fn push(&self, payload: &[u8]) -> u64 {
        assert!(
            payload.len() <= PAYLOAD_BYTES,
            "ring payload of {} bytes exceeds the {} byte slot",
            payload.len(),
            PAYLOAD_BYTES
        );
        let seq = self.push_claim();
        self.push_fill(seq, payload);
        seq
    }

    /// Claim the next sequence number.
    fn push_claim(&self) -> u64 {
        debug_assert!(
            !self.shared.region.readonly(),
            "push on a read-only (replay) ring"
        );
        let head = self.shared.region.word(W_HEAD);
        // jets-lint: allow(relaxed) HEAD only bounds reader scans; publication is the slot stamp's Release exchange
        head.fetch_add(1, Ordering::Relaxed)
    }

    /// Write claimed record `seq` into its slot; false if it was dropped
    /// because another writer had the slot (see the module docs).
    fn push_fill(&self, seq: u64, payload: &[u8]) -> bool {
        if !self.push_enter(seq) {
            return false;
        }
        let (s, base) = (&self.shared, self.shared.slot_word(seq));
        let mut i = 0;
        while i < PAYLOAD_WORDS {
            let lo = i * 8;
            let mut w = [0u8; 8];
            if lo < payload.len() {
                let take = (payload.len() - lo).min(8);
                w[..take].copy_from_slice(&payload[lo..lo + take]);
            }
            let cell = s.region.word(base + 1 + i);
            // jets-lint: allow(relaxed) payload words are covered by the stamp's Release/Acquire pair; see module docs
            cell.store(u64::from_le_bytes(w), Ordering::Relaxed);
            i += 1;
        }
        self.push_leave(seq)
    }

    /// Take `seq`'s slot for writing: true once its stamp reads
    /// *writing(seq)*. False — the record is dropped — if a newer record
    /// got there first, or if an older writer still holds the slot (its
    /// stamp then says `dropped(seq)`, for that writer to clear).
    fn push_enter(&self, seq: u64) -> bool {
        let stamp = self.shared.region.word(self.shared.slot_word(seq));
        let mut cur = stamp.load(Ordering::Acquire);
        loop {
            if cur > stamp_writing(seq) {
                return false;
            }
            let held = cur & 1 == 1;
            let next = match held {
                true => stamp_dropped(seq),
                false => stamp_writing(seq),
            };
            // Acquire pairs with the previous holder's Release on this
            // same stamp.
            match stamp.compare_exchange(cur, next, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) if held => return false,
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        // Order the *writing* mark before the payload stores.
        fence(Ordering::Release);
        true
    }

    /// Leave `seq`'s slot, making its stamp even: committed, unless a
    /// newer writer marked itself dropped meanwhile — then both records
    /// are gone. True if `seq` committed.
    fn push_leave(&self, seq: u64) -> bool {
        let s = &self.shared;
        let stamp = s.region.word(s.slot_word(seq));
        // Publish: the payload stores happen-before a reader's Acquire
        // load that observes this committed stamp.
        let (writing, committed) = (stamp_writing(seq), stamp_committed(seq));
        let Err(mut cur) =
            stamp.compare_exchange(writing, committed, Ordering::Release, Ordering::Relaxed)
        else {
            return true;
        };
        // A `dropped(..)` mark: step past it. Anything else means a
        // re-open settled the slot, as if this writer had died, and it
        // may be another writer's now: leave it be.
        let dropped_here =
            |cur: u64| cur & 1 == 1 && cur >= 3 && s.slot_word((cur - 3) / 2) == s.slot_word(seq);
        while dropped_here(cur) {
            match stamp.compare_exchange(cur, cur + 1, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        false
    }

    /// Total records ever pushed (the claim cursor). Monotone; survives
    /// re-opening a file-backed ring.
    pub fn seq(&self) -> u64 {
        self.shared.region.word(W_HEAD).load(Ordering::Acquire)
    }

    /// Capacity in slots (always a power of two).
    pub fn capacity(&self) -> u64 {
        self.shared.cap
    }

    /// Wall-clock microseconds (Unix epoch) when the ring was created —
    /// the anchor for interpreting record timestamps offline.
    pub fn epoch_unix_us(&self) -> u64 {
        self.shared.region.word(W_EPOCH_US).load(Ordering::Acquire)
    }

    /// Pid of the most recent writer process (diagnostics only).
    pub fn writer_pid(&self) -> u64 {
        self.shared.region.word(W_PID).load(Ordering::Acquire)
    }

    /// Role of the writer process — the file's lane in a merged
    /// cross-process trace. Legacy files report
    /// [`WriterRole::Unknown`].
    pub fn writer_role(&self) -> WriterRole {
        WriterRole::from_code(self.shared.region.word(W_ROLE).load(Ordering::Acquire))
    }

    /// The sequence number of the oldest record still retained.
    pub fn earliest(&self) -> u64 {
        let head = self.seq();
        head.saturating_sub(self.shared.cap)
    }

    /// A reader positioned at the oldest retained record.
    pub fn reader(&self) -> RingReader {
        self.reader_from(self.earliest())
    }

    /// A reader positioned at `seq` (clamped into the retained window
    /// on first poll). `reader_from(ring.seq())` tails only new records.
    pub fn reader_from(&self, seq: u64) -> RingReader {
        RingReader {
            shared: Arc::clone(&self.shared),
            next: seq,
            lapped: 0,
            torn: 0,
        }
    }

    /// Offline sweep of everything retained, tolerating torn slots (the
    /// crash case): committed records in sequence order, plus a count
    /// of slots lost to in-flight writes. Meant for quiescent rings
    /// (replay of a dead process's file); on a live ring a slot being
    /// written right now counts as torn.
    pub fn replay(&self) -> Replay {
        let head = self.seq();
        let lo = self.earliest();
        let mut records = Vec::with_capacity((head - lo) as usize);
        let mut torn = 0u64;
        for seq in lo..head {
            match self.read_slot(seq) {
                SlotRead::Ok(rec) => records.push(rec),
                SlotRead::Pending | SlotRead::Gone => torn += 1,
            }
        }
        Replay {
            records,
            torn,
            earliest: lo,
            head,
        }
    }

    /// Flush a file-backed ring to disk now (clean-shutdown nicety; a
    /// `MAP_SHARED` mapping survives `kill -9` without this).
    pub fn sync(&self) -> io::Result<()> {
        self.shared.region.sync()
    }

    fn read_slot(&self, seq: u64) -> SlotRead {
        read_slot(&self.shared, seq)
    }
}

/// Check a mapped file's header against this build and against the
/// mapping itself; returns the capacity it names, whose slots are all
/// inside the mapping.
fn validate_header(region: &Region, path: &Path) -> io::Result<u64> {
    validate_kind(region, path)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let cap = region.word(W_CAPACITY).load(Ordering::Acquire);
    if cap == 0 || !cap.is_power_of_two() {
        return Err(bad(format!(
            "{}: capacity {cap} is not a power of two",
            path.display()
        )));
    }
    let need = usize::try_from(cap)
        .ok()
        .and_then(|cap| cap.checked_mul(SLOT_WORDS))
        .and_then(|words| words.checked_add(HDR_WORDS));
    if need.is_none_or(|need| need > region.words()) {
        return Err(bad(format!(
            "{}: header claims {cap} slots but the file has {} words",
            path.display(),
            region.words()
        )));
    }
    let head = region.word(W_HEAD).load(Ordering::Acquire);
    if head > MAX_SEQ {
        return Err(bad(format!(
            "{}: cursor {head} is past the last sequence a stamp can name",
            path.display()
        )));
    }
    Ok(cap)
}

/// Check that a mapped file holds a ring this build reads: a header,
/// the magic, this version and this slot size.
fn validate_kind(region: &Region, path: &Path) -> io::Result<()> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if region.words() < HDR_WORDS {
        return Err(bad(format!(
            "{}: too short for a ring header",
            path.display()
        )));
    }
    if region.word(W_MAGIC).load(Ordering::Acquire) != MAGIC {
        return Err(bad(format!(
            "{}: not a jets-ring file (bad magic)",
            path.display()
        )));
    }
    let version = region.word(W_VERSION).load(Ordering::Acquire);
    if version != VERSION {
        return Err(bad(format!(
            "{}: ring version {version}, this build reads {VERSION}",
            path.display()
        )));
    }
    let slot = region.word(W_SLOT_BYTES).load(Ordering::Acquire);
    if slot != SLOT_BYTES as u64 {
        return Err(bad(format!(
            "{}: {slot}-byte slots, this build uses {SLOT_BYTES}",
            path.display()
        )));
    }
    Ok(())
}

fn read_slot(shared: &Shared, seq: u64) -> SlotRead {
    let base = shared.slot_word(seq);
    let stamp = shared.region.word(base);
    // Acquire pairs with the writer's committing Release: observing
    // `committed(seq)` makes that record's payload stores visible.
    let s1 = stamp.load(Ordering::Acquire);
    let committed = stamp_committed(seq);
    if s1 != committed {
        return if s1 < committed {
            SlotRead::Pending
        } else {
            SlotRead::Gone
        };
    }
    let mut payload = [0u8; PAYLOAD_BYTES];
    let mut i = 0;
    while i < PAYLOAD_WORDS {
        let cell = shared.region.word(base + 1 + i);
        let w = cell.load(Ordering::Relaxed);
        payload[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        i += 1;
    }
    // Validate: order the payload loads before the re-load, then check
    // no writer moved the stamp while we copied.
    fence(Ordering::Acquire);
    if stamp.load(Ordering::Relaxed) != s1 {
        return SlotRead::Gone;
    }
    SlotRead::Ok(Record { seq, payload })
}

/// Result of an offline [`Ring::replay`] sweep.
pub struct Replay {
    /// Committed records, in sequence order.
    pub records: Vec<Record>,
    /// Slots in the retained window lost to in-flight (torn) writes.
    pub torn: u64,
    /// Oldest sequence number the window could hold.
    pub earliest: u64,
    /// The claim cursor at sweep time (total records ever pushed).
    pub head: u64,
}

/// A lock-free cursor chasing the writer. Each reader owns its position
/// and counters — polling performs no store to shared memory, so any
/// number of readers run without slowing the writer or each other.
pub struct RingReader {
    shared: Arc<Shared>,
    next: u64,
    lapped: u64,
    torn: u64,
}

impl RingReader {
    /// Next committed record, or `None` when caught up (or when the
    /// next record in sequence is still being written — it will be
    /// committed nanoseconds later; poll again).
    ///
    /// A reader that falls more than `capacity` behind is *lapped*:
    /// the cursor jumps forward to the oldest retained record and
    /// [`RingReader::lapped`] grows by the number of records skipped.
    pub fn poll(&mut self) -> Option<Record> {
        loop {
            let head = self.shared.region.word(W_HEAD).load(Ordering::Acquire);
            let lo = head.saturating_sub(self.shared.cap);
            if self.next < lo {
                self.lapped += lo - self.next;
                self.next = lo;
            }
            if self.next >= head {
                return None;
            }
            match read_slot(&self.shared, self.next) {
                SlotRead::Ok(rec) => {
                    self.next += 1;
                    return Some(rec);
                }
                SlotRead::Pending => return None,
                SlotRead::Gone => {
                    // Overwritten between the head load and the copy:
                    // we were lapped mid-read. Count it and move on.
                    self.torn += 1;
                    self.lapped += 1;
                    self.next += 1;
                }
            }
        }
    }

    /// The sequence number the next successful poll will return.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Records this reader skipped because the writer overwrote them
    /// before they were read.
    pub fn lapped(&self) -> u64 {
        self.lapped
    }

    /// Of the lapped records, those lost mid-copy (stamp moved during
    /// the read) rather than before it.
    pub fn torn(&self) -> u64 {
        self.torn
    }
}

fn unix_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_read_round_trips() {
        let ring = Ring::anon(1024);
        assert_eq!(ring.push(b"alpha"), 0);
        assert_eq!(ring.push(b"beta"), 1);
        let mut r = ring.reader();
        let a = r.poll().expect("first record");
        assert_eq!(a.seq, 0);
        assert_eq!(&a.payload()[..5], b"alpha");
        assert_eq!(&a.payload()[5..8], &[0, 0, 0]);
        let b = r.poll().expect("second record");
        assert_eq!(b.seq, 1);
        assert_eq!(&b.payload()[..4], b"beta");
        assert!(r.poll().is_none());
        assert_eq!(r.lapped(), 0);
    }

    #[test]
    fn capacity_rounds_up_and_has_a_floor() {
        assert_eq!(Ring::anon(1).capacity(), MIN_CAPACITY as u64);
        assert_eq!(Ring::anon(1500).capacity(), 2048);
    }

    #[test]
    fn wraparound_overwrites_oldest_and_counts_laps() {
        let ring = Ring::anon(1024);
        let cap = ring.capacity();
        let total = cap + 300;
        let mut r = ring.reader(); // positioned at 0, then left behind
        for i in 0..total {
            ring.push(&i.to_le_bytes());
        }
        assert_eq!(ring.seq(), total);
        assert_eq!(ring.earliest(), 300);
        let first = r.poll().expect("retained record");
        assert_eq!(first.seq, 300, "oldest retained after one lap");
        assert_eq!(r.lapped(), 300, "everything before it was overwritten");
        let mut seen = 1u64;
        let mut last = first.seq;
        while let Some(rec) = r.poll() {
            assert_eq!(rec.seq, last + 1, "strictly sequential");
            last = rec.seq;
            seen += 1;
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&rec.payload()[..8]);
            assert_eq!(u64::from_le_bytes(bytes), rec.seq, "payload matches seq");
        }
        assert_eq!(seen, cap, "a full window was readable");
        assert_eq!(seen + r.lapped(), total);
    }

    #[test]
    fn tail_reader_sees_only_new_records() {
        let ring = Ring::anon(1024);
        ring.push(b"old");
        let mut tail = ring.reader_from(ring.seq());
        assert!(tail.poll().is_none());
        ring.push(b"new");
        let rec = tail.poll().expect("new record");
        assert_eq!(&rec.payload()[..3], b"new");
        assert_eq!(rec.seq, 1);
    }

    #[test]
    fn replay_matches_reader_view() {
        let ring = Ring::anon(1024);
        for i in 0u64..50 {
            ring.push(&i.to_le_bytes());
        }
        let replay = ring.replay();
        assert_eq!(replay.records.len(), 50);
        assert_eq!(replay.torn, 0);
        assert_eq!(replay.head, 50);
        assert_eq!(replay.earliest, 0);
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
    }

    #[test]
    fn oversized_payload_panics() {
        let ring = Ring::anon(1024);
        let too_big = [0u8; PAYLOAD_BYTES + 1];
        assert!(std::panic::catch_unwind(|| ring.push(&too_big)).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn file_backed_ring_survives_reopen() {
        let path =
            std::env::temp_dir().join(format!("jets-ring-reopen-{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let ring = Ring::create(&path, 1024).expect("create");
            for i in 0u64..10 {
                ring.push(&i.to_le_bytes());
            }
        } // dropped: unmapped, NOT flushed explicitly
        {
            let ring = Ring::create(&path, 1024).expect("reopen");
            assert_eq!(ring.seq(), 10, "claim cursor persisted");
            assert_eq!(ring.push(b"more"), 10, "appends continue the sequence");
        }
        let replay = Ring::open_read(&path).expect("open_read").replay();
        assert_eq!(replay.records.len(), 11);
        assert_eq!(replay.torn, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn writer_role_round_trips_and_survives_reopen() {
        let path = std::env::temp_dir().join(format!("jets-ring-role-{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let ring = Ring::create_with_role(&path, 1024, WriterRole::Relay).expect("create");
            assert_eq!(ring.writer_role(), WriterRole::Relay);
            ring.push(b"laned");
        }
        {
            // A role-less reopen (the legacy entry point) keeps the lane.
            let ring = Ring::create(&path, 1024).expect("reopen");
            assert_eq!(ring.writer_role(), WriterRole::Relay);
        }
        let reader = Ring::open_read(&path).expect("open_read");
        assert_eq!(reader.writer_role(), WriterRole::Relay);
        assert_eq!(reader.writer_role().as_str(), "relay");
        let _ = std::fs::remove_file(&path);

        // Legacy files (word 7 zero) and future codes degrade cleanly.
        assert_eq!(WriterRole::from_code(0), WriterRole::Unknown);
        assert_eq!(WriterRole::from_code(99), WriterRole::Unknown);
        for role in [
            WriterRole::Unknown,
            WriterRole::Dispatcher,
            WriterRole::Relay,
            WriterRole::Worker,
        ] {
            assert_eq!(WriterRole::from_code(role.code()), role);
        }
    }

    #[cfg(unix)]
    #[test]
    fn open_read_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("jets-ring-bad-{}.ring", std::process::id()));
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let err = Ring::open_read(&path)
            .err()
            .expect("garbage must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    /// A flight file of 1 024 slots holding one record, whose header
    /// claims `cap` slots.
    #[cfg(unix)]
    fn file_claiming(name: &str, cap: u64) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("jets-ring-{name}-{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Ring::create(&path, 1024).expect("create").push(b"one");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[W_CAPACITY * 8..W_CAPACITY * 8 + 8].copy_from_slice(&cap.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// A header that claims more slots than the file holds is refused,
    /// whatever the claim: 2^60 slots would overflow the size check.
    #[cfg(unix)]
    #[test]
    fn open_read_refuses_a_capacity_past_the_file() {
        for cap in [1u64 << 11, 1 << 20, 1 << 60, 1 << 63] {
            let path = file_claiming("lying-read", cap);
            let err = Ring::open_read(&path).err().expect("lying capacity");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{cap}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Re-opening for writing checks the header against the mapping
    /// too: the stale-stamp sweep must never walk past it.
    #[cfg(unix)]
    #[test]
    fn create_refuses_a_capacity_past_the_mapping() {
        for cap in [1u64 << 11, 1 << 20, 1 << 60, 1 << 63] {
            let path = file_claiming("lying-create", cap);
            let err = Ring::create(&path, 1024).err().expect("lying capacity");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{cap}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A version 1 file (128-byte slots) is refused by its version both
    /// ways, and left as it was: re-opened for a ring of the same
    /// capacity (the old file is longer) or of a larger one (it is
    /// shorter, and would have been extended).
    #[cfg(unix)]
    #[test]
    fn a_version_1_file_is_refused_and_left_as_it_is() {
        let path = std::env::temp_dir().join(format!("jets-ring-v1-{}.ring", std::process::id()));
        let mut v1 = vec![0u8; (HDR_WORDS + 1024 * 16) * 8];
        let header = [
            (W_MAGIC, MAGIC),
            (W_VERSION, 1),
            (W_SLOT_BYTES, 128),
            (W_CAPACITY, 1024),
            (W_HEAD, 10),
        ];
        for (w, value) in header {
            v1[w * 8..w * 8 + 8].copy_from_slice(&value.to_le_bytes());
        }
        std::fs::write(&path, &v1).unwrap();
        for err in [
            Ring::open_read(&path).err().expect("open_read"),
            Ring::create(&path, 1024).err().expect("same capacity"),
            Ring::create(&path, 4096).err().expect("larger capacity"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains("ring version 1, this build reads 2"),
                "{err}"
            );
        }
        assert!(std::fs::read(&path).unwrap() == v1, "the file was changed");
        let _ = std::fs::remove_file(&path);
    }

    /// Drain `r`, checking that every record carries its own seq as its
    /// payload; returns the seqs read.
    fn drain_checked(r: &mut RingReader) -> Vec<u64> {
        std::iter::from_fn(|| r.poll())
            .map(|rec| {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&rec.payload()[..8]);
                assert_eq!(
                    u64::from_le_bytes(bytes),
                    rec.seq,
                    "another record's payload"
                );
                rec.seq
            })
            .collect()
    }

    /// Push `n` records, each stamped with its own seq.
    fn push_stamped(ring: &Ring, n: u64) {
        for _ in 0..n {
            let seq = ring.push_claim();
            assert!(ring.push_fill(seq, &seq.to_le_bytes()));
        }
    }

    /// A writer preempted between its claim and its fill while the ring
    /// laps it: its record is dropped and the newer one it would have
    /// overwritten stays readable, stamp and payload.
    #[test]
    fn a_stale_fill_drops_its_record_and_never_moves_the_stamp_back() {
        let ring = Ring::anon(1024);
        let cap = ring.capacity();
        let stale = ring.push_claim();
        push_stamped(&ring, cap + 1); // seq `cap` takes the stale one's slot
        assert!(!ring.push_fill(stale, &stale.to_le_bytes()));
        let mut r = ring.reader_from(0);
        let seen = drain_checked(&mut r);
        assert_eq!(seen, (2..cap + 2).collect::<Vec<_>>());
        assert_eq!((r.lapped(), r.torn()), (2, 0));
        let replay = ring.replay();
        assert_eq!((replay.records.len() as u64, replay.torn), (cap, 0));
    }

    /// A writer that laps one still holding the slot drops its own
    /// record instead of writing under it; the holder's leave frees the
    /// slot, both records read as lapped, and the next lap writes there.
    #[test]
    fn a_writer_that_finds_its_slot_held_drops_and_the_holder_frees_it() {
        let ring = Ring::anon(1024);
        let cap = ring.capacity();
        let held = ring.push_claim();
        assert!(ring.push_enter(held));
        for _ in 0..=cap {
            let seq = ring.push_claim();
            assert_eq!(ring.push_fill(seq, &seq.to_le_bytes()), seq != cap);
        }
        assert!(!ring.push_leave(held), "a newer writer marked the slot");
        let mut r = ring.reader_from(0);
        let seen = drain_checked(&mut r);
        assert_eq!(seen.len() as u64, cap - 1);
        assert!(!seen.contains(&cap));
        assert_eq!((r.lapped(), r.torn()), (3, 1));
        assert_eq!(seen.len() as u64 + r.lapped(), ring.seq());
        let replay = ring.replay();
        assert_eq!(replay.records.len() as u64 + replay.torn, cap);
        assert_eq!(replay.torn, 1);
        push_stamped(&ring, cap);
        assert_eq!(drain_checked(&mut r).len() as u64, cap);
        assert_eq!(r.position(), ring.seq());
    }

    /// A record whose writer died mid-write leaves its slot held; the
    /// next incarnation frees it on re-open instead of losing the slot
    /// for good.
    #[cfg(unix)]
    #[test]
    fn a_reopened_file_frees_a_slot_its_writer_died_in() {
        let path = std::env::temp_dir().join(format!("jets-ring-held-{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let ring = Ring::create(&path, 1024).expect("create");
            let died = ring.push_claim();
            assert!(ring.push_enter(died)); // and never leaves
        }
        let ring = Ring::create(&path, 1024).expect("reopen");
        let cap = ring.capacity();
        push_stamped(&ring, cap);
        let replay = ring.replay();
        assert_eq!((replay.records.len() as u64, replay.torn), (cap, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn many_readers_never_stall_the_writer() {
        // The hammer shape the EventLog satellite asks for: readers
        // polling flat-out must not slow or block pushes. The writer
        // runs a fixed record count to completion while readers chase;
        // the assertion is completion plus exact accounting.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc as StdArc;
        let ring = Ring::anon(4096);
        let stop = StdArc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let mut r = ring.reader();
            let stop = StdArc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                let mut last: Option<u64> = None;
                while !stop.load(Ordering::Acquire) {
                    while let Some(rec) = r.poll() {
                        if let Some(prev) = last {
                            assert!(rec.seq > prev, "reader went backwards");
                        }
                        last = Some(rec.seq);
                        seen += 1;
                    }
                }
                while let Some(rec) = r.poll() {
                    if let Some(prev) = last {
                        assert!(rec.seq > prev);
                    }
                    last = Some(rec.seq);
                    seen += 1;
                }
                (seen, r.lapped())
            }));
        }
        const TOTAL: u64 = 200_000;
        for i in 0..TOTAL {
            ring.push(&i.to_le_bytes());
        }
        stop.store(true, Ordering::Release);
        for h in readers {
            let (seen, lapped) = h.join().expect("reader thread");
            assert_eq!(
                seen + lapped,
                TOTAL,
                "every record either read or accounted as lapped"
            );
        }
        assert_eq!(ring.seq(), TOTAL);
    }
}
