//! The ring itself: fixed-capacity 32-byte slots, one claim cursor,
//! per-slot commit stamps, overwrite-oldest semantics. A record takes as
//! many consecutive slots as its bytes need, one to [`MAX_RECORD_SLOTS`].
//!
//! ## Layout (all little-endian `u64` words)
//!
//! ```text
//! header: | MAGIC | VERSION | SLOT_BYTES | CAPACITY | HEAD | EPOCH_US | PID | ROLE |
//!         | SPILL | 0 | 0 | 0 |                                          (96 B)
//! slots:  | stamp | payload word 0..=2 |  × capacity                      (32 B per slot)
//! ```
//!
//! The header's last three words are zero: they round it up to whole
//! slots, so no slot straddles a cache line.
//!
//! `HEAD` is the claim cursor: the sequence number of the *next* slot to
//! be written, monotone over the whole life of the ring (it never wraps;
//! slot index is `seq & (capacity-1)`). A record is named by the seq of
//! its first slot, its *head*. `SPILL` counts the slots past the head
//! that records ever claimed, so `HEAD − SPILL` is the number of records
//! ever pushed.
//!
//! The first payload byte of a slot says what the slot holds: in a head,
//! the record's length in bytes (1 to [`PAYLOAD_BYTES`]); in the `j`-th
//! slot after it, `0x80 | j`. The other 23 bytes carry the record, so a
//! record of `n` bytes takes `⌈n / 23⌉` slots. Each slot carries a stamp
//! encoding what the slot holds:
//!
//! ```text
//! 0                  never written
//! 2·seq + 1          slot `seq` is being written (torn if seen at rest)
//! 2·seq + 2          slot `seq` is committed
//! 2·seq + 3          slot `seq` was dropped: an older writer still
//!                    holds the slot (no `seq + 1` shares the slot, so
//!                    this cannot be mistaken for a write in progress)
//! 2·seq + 4          slot `seq` is free and holds no record: its record
//!                    was dropped, or its writer died holding it
//! ```
//!
//! A stamp never moves backwards. An odd stamp means a writer holds the
//! slot, and only that writer stores payload words or makes the stamp
//! even again; so two records never interleave in one slot, and a
//! reader that sees `committed(seq)` before and after its copy has
//! copied slot `seq` of the record that claimed it and nothing else.
//!
//! ## Memory ordering
//!
//! The write/read protocol is the seqlock recipe used by
//! `crossbeam-utils`' `SeqLock` (per Boehm, *Can seqlocks get along
//! with programming models?*), applied per slot:
//!
//! * **Writer**: claim the record's slots (one `HEAD.fetch_add`), take
//!   each slot by moving its stamp from even to *writing* with a
//!   `compare_exchange(Acquire)` (the Acquire pairs with the previous
//!   committer's Release on the same slot, ordering this overwrite after
//!   the previous record's publication), issue a `fence(Release)` so the
//!   *writing* marks are ordered before the payload stores, write the
//!   payload words (`Relaxed` — they are atomics, so concurrent readers
//!   race safely), then publish each slot with a
//!   `compare_exchange(writing, committed, Release)`, the head last.
//! * **Reader**: load the head's stamp with `Acquire` (pairs with the
//!   writer's committing Release, making the payload words it covers —
//!   and every continuation slot's commit before it — visible), copy the
//!   payload (`Relaxed` loads), then `fence(Acquire)` and re-load the
//!   stamp `Relaxed`: if it moved, the copy may interleave two records
//!   and is discarded. The fence orders the payload loads before the
//!   validating re-load, so a writer that raced the copy cannot have its
//!   stamp update hidden. A record of several slots validates its
//!   continuations the same way, after the head has said how many.
//!
//! A reader returns a record only when every one of its slots validated
//! as committed for that record, and each continuation names its place
//! after the head. A head whose length is zero, past [`PAYLOAD_BYTES`] or
//! past the claim cursor, or whose continuations are not its own, reads
//! as torn: no reader ever splices two records into one.
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
//! sequence numbers, so multiple threads may share one [`Ring`] handle
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
//! A writer that drops its record in one slot still takes every other
//! slot it claimed, and leaves each of them free (`2·seq + 4`) instead
//! of committed, so no reader waits on a slot nobody will write.
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
/// Bump when the slot layout changes. Version 1 had 128-byte slots and
/// version 2 one 72-byte slot a record; their files are refused, not
/// converted.
const VERSION: u64 = 3;

/// Header size, in words.
const HDR_WORDS: usize = 12;
const W_MAGIC: usize = 0;
const W_VERSION: usize = 1;
const W_SLOT_BYTES: usize = 2;
const W_CAPACITY: usize = 3;
const W_HEAD: usize = 4;
const W_EPOCH_US: usize = 5;
const W_PID: usize = 6;
const W_ROLE: usize = 7;
const W_SPILL: usize = 8;

/// Words per slot: 1 stamp + 3 payload words.
const SLOT_WORDS: usize = 4;
/// Bytes per slot.
pub const SLOT_BYTES: usize = SLOT_WORDS * 8;
const SLOT_PAYLOAD_WORDS: usize = SLOT_WORDS - 1;
/// Record bytes one slot carries: its 24 payload bytes less the byte
/// that says what the slot is.
pub const SLOT_RECORD_BYTES: usize = SLOT_PAYLOAD_WORDS * 8 - 1;
/// Most slots one record may take.
pub const MAX_RECORD_SLOTS: usize = 4;
/// Largest record a push accepts, in bytes.
pub const PAYLOAD_BYTES: usize = MAX_RECORD_SLOTS * SLOT_RECORD_BYTES;
/// The first payload byte of a record's `j`-th continuation slot is
/// `CONTINUATION | j`; a head's is its length, which is below it.
const CONTINUATION: u8 = 0x80;
const MAX_LEN: u8 = PAYLOAD_BYTES as u8;
const FIRST_CONTINUATION: u8 = CONTINUATION | 1;
const LAST_CONTINUATION: u8 = CONTINUATION | (MAX_RECORD_SLOTS as u8 - 1);
const _: () = assert!(PAYLOAD_BYTES < CONTINUATION as usize);

/// Largest claim cursor a file may carry: a stamp is at most
/// `2·seq + 4`, which must fit a word with room to keep pushing.
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

/// What a slot's stamp says once the record it was claimed for is lost
/// (`dropped(seq) + 1`): even, so the next lap may take it, and past
/// `committed(seq)`, so no reader takes it for a record.
#[inline]
fn stamp_lost(seq: u64) -> u64 {
    2 * seq + 4
}

/// Slots a record of `len` bytes takes.
#[inline]
fn slots_for(len: usize) -> usize {
    len.div_ceil(SLOT_RECORD_BYTES)
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

    /// Copy slot `seq`'s payload words into `out`; returns its first
    /// byte, which says what the slot is. Not validated: the caller
    /// re-checks the stamp.
    #[inline]
    fn copy_slot(&self, seq: u64, out: &mut [u8]) -> u8 {
        let base = self.slot_word(seq) + 1;
        let mut bytes = [0u8; SLOT_PAYLOAD_WORDS * 8];
        for (i, chunk) in bytes.chunks_exact_mut(8).enumerate() {
            let w = self.region.word(base + i).load(Ordering::Relaxed);
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out.copy_from_slice(&bytes[1..1 + out.len()]);
        bytes[0]
    }
}

/// One record copied out of the ring.
///
/// The copy is the price of a *validated* read: the payload bytes are
/// only trusted after the stamp re-checks prove no writer touched the
/// record's slots mid-copy, so they must live on the reader's stack, not
/// in the shared memory. No heap.
#[derive(Clone, Copy)]
pub struct Record {
    /// The record's sequence number: the seq of its first slot.
    pub seq: u64,
    len: u8,
    bytes: [u8; PAYLOAD_BYTES],
}

impl Record {
    /// The record's bytes, as pushed.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// The slots the record takes in the ring.
    pub fn slots(&self) -> u64 {
        slots_for(self.len as usize) as u64
    }
}

/// Outcome of one validated read of the record whose head is `seq`.
enum Read {
    /// Committed and copied intact.
    Ok(Record),
    /// Claimed (or simply not reached) but not committed yet.
    Pending,
    /// Overwritten by a newer record, or lost, before or during the
    /// copy: the slots to step over (the record's own, once its head has
    /// said how many; else the one).
    Gone(u64),
    /// A committed continuation: the tail of a record whose head is
    /// before this slot (a lap overwrote it, or it was torn).
    Tail,
    /// A committed head no writer of this build leaves: a length of
    /// zero, past [`PAYLOAD_BYTES`] or past the claim cursor, or
    /// continuations that are not its own.
    Bad,
}

/// A lock-free ring journal. Cloning shares the same memory; any clone
/// may push (each push claims its own slots) and any clone can mint
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
        // the mapping: 4 MiB for the default 2^17 slots.
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
    /// allocation-free: for a record of one slot (up to
    /// [`SLOT_RECORD_BYTES`]), one `fetch_add`, one stamp load, two stamp
    /// compare-exchanges, three word stores; each further slot adds one
    /// `fetch_add` in all and a load, two compare-exchanges and three
    /// stores of its own. An empty payload, or one longer than
    /// [`PAYLOAD_BYTES`], is refused with a panic (producer bug, not
    /// data-dependent).
    pub fn push(&self, payload: &[u8]) -> u64 {
        assert!(
            (1..=PAYLOAD_BYTES).contains(&payload.len()),
            "ring payload of {} bytes: a record is 1 to {} bytes",
            payload.len(),
            PAYLOAD_BYTES
        );
        let seq = self.push_claim(slots_for(payload.len()) as u64);
        self.push_fill(seq, payload);
        seq
    }

    /// Claim `n` consecutive sequence numbers; returns the first.
    fn push_claim(&self, n: u64) -> u64 {
        debug_assert!(
            !self.shared.region.readonly(),
            "push on a read-only (replay) ring"
        );
        let (head, spill) = (
            self.shared.region.word(W_HEAD),
            self.shared.region.word(W_SPILL),
        );
        // jets-lint: allow(relaxed) HEAD only bounds reader scans; publication is the slot stamp's Release exchange
        let seq = head.fetch_add(n, Ordering::Relaxed);
        if n > 1 {
            // jets-lint: allow(relaxed) SPILL only counts records for `records()`; it orders nothing
            spill.fetch_add(n - 1, Ordering::Relaxed);
        }
        seq
    }

    /// Write claimed record `seq` into its slots; false if it was dropped
    /// because another writer had one of them (see the module docs).
    fn push_fill(&self, seq: u64, payload: &[u8]) -> bool {
        let n = slots_for(payload.len());
        // Every slot is taken, even past one that fails, so that none is
        // left for readers to wait on.
        let mut taken = [false; MAX_RECORD_SLOTS];
        for (j, taken) in taken[..n].iter_mut().enumerate() {
            *taken = self.push_enter(seq + j as u64);
        }
        let mut whole = taken[..n].iter().all(|&t| t);
        if whole {
            for (j, chunk) in payload.chunks(SLOT_RECORD_BYTES).enumerate() {
                let what = match j {
                    0 => payload.len() as u8,
                    j => CONTINUATION | j as u8,
                };
                self.push_write(seq + j as u64, what, chunk);
            }
        }
        // The head last: a reader that sees it committed finds every
        // continuation committed too. Once one slot is lost, the rest are
        // freed rather than committed.
        for j in (0..n).rev() {
            if taken[j] {
                whole = self.push_leave(seq + j as u64, whole);
            }
        }
        whole
    }

    /// Store slot `seq`'s payload words: the byte `what` says what the
    /// slot is, then `chunk`, then zeros.
    fn push_write(&self, seq: u64, what: u8, chunk: &[u8]) {
        let mut bytes = [0u8; SLOT_PAYLOAD_WORDS * 8];
        bytes[0] = what;
        bytes[1..1 + chunk.len()].copy_from_slice(chunk);
        let base = self.shared.slot_word(seq) + 1;
        for (i, w) in bytes.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
            let cell = self.shared.region.word(base + i);
            // jets-lint: allow(relaxed) payload words are covered by the stamp's Release/Acquire pair; see module docs
            cell.store(word, Ordering::Relaxed);
        }
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

    /// Leave `seq`'s slot, making its stamp even: committed if `commit`,
    /// else free. A newer writer that marked itself dropped meanwhile
    /// loses its record and this one: the slot is freed past its mark.
    /// True if `seq` committed.
    fn push_leave(&self, seq: u64, commit: bool) -> bool {
        let s = &self.shared;
        let stamp = s.region.word(s.slot_word(seq));
        // Publish: the payload stores happen-before a reader's Acquire
        // load that observes this committed stamp.
        let writing = stamp_writing(seq);
        let even = match commit {
            true => stamp_committed(seq),
            false => stamp_lost(seq),
        };
        let Err(mut cur) =
            stamp.compare_exchange(writing, even, Ordering::Release, Ordering::Relaxed)
        else {
            return commit;
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

    /// Total slots ever claimed (the claim cursor). Monotone; survives
    /// re-opening a file-backed ring.
    pub fn seq(&self) -> u64 {
        self.shared.region.word(W_HEAD).load(Ordering::Acquire)
    }

    /// Total records ever pushed, including any no longer retained.
    /// Exact on a quiescent ring; while pushes of several slots race
    /// it, it may be off by their spill for an instant.
    pub fn records(&self) -> u64 {
        let region = &self.shared.region;
        let spill = region.word(W_SPILL).load(Ordering::Acquire);
        region
            .word(W_HEAD)
            .load(Ordering::Acquire)
            .saturating_sub(spill)
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

    /// The sequence number of the oldest slot still retained.
    pub fn earliest(&self) -> u64 {
        let head = self.seq();
        head.saturating_sub(self.shared.cap)
    }

    /// A reader positioned at the oldest retained slot.
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
    /// of records lost to in-flight writes. Meant for quiescent rings
    /// (replay of a dead process's file); on a live ring a record being
    /// written right now counts as torn.
    pub fn replay(&self) -> Replay {
        let head = self.seq();
        let lo = self.earliest();
        let mut records = Vec::with_capacity((head - lo) as usize);
        let mut torn = 0u64;
        let mut seq = lo;
        while seq < head {
            seq += match read_record(&self.shared, seq, head) {
                Read::Ok(rec) => {
                    records.push(rec);
                    rec.slots()
                }
                Read::Pending | Read::Bad => {
                    torn += 1;
                    1
                }
                Read::Gone(n) => {
                    torn += 1;
                    n
                }
                Read::Tail => 1,
            };
        }
        Replay {
            records,
            torn,
            earliest: lo,
            head,
            recorded: self.records(),
        }
    }

    /// Flush a file-backed ring to disk now (clean-shutdown nicety; a
    /// `MAP_SHARED` mapping survives `kill -9` without this).
    pub fn sync(&self) -> io::Result<()> {
        self.shared.region.sync()
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

/// Read the record whose head is slot `seq`, with `head` the claim
/// cursor the caller bounds its scan by.
fn read_record(shared: &Shared, seq: u64, head: u64) -> Read {
    let stamp = shared.region.word(shared.slot_word(seq));
    // Acquire pairs with the writer's committing Release: observing
    // `committed(seq)` makes that slot's payload stores, and the commits
    // of the record's other slots, visible.
    let s1 = stamp.load(Ordering::Acquire);
    let committed = stamp_committed(seq);
    if s1 != committed {
        return if s1 < committed {
            Read::Pending
        } else {
            Read::Gone(1)
        };
    }
    let mut rec = Record {
        seq,
        len: 0,
        bytes: [0u8; PAYLOAD_BYTES],
    };
    let what = shared.copy_slot(seq, &mut rec.bytes[..SLOT_RECORD_BYTES]);
    // Validate: order the payload loads before the re-load, then check
    // no writer moved the stamp while we copied.
    fence(Ordering::Acquire);
    if stamp.load(Ordering::Relaxed) != s1 {
        return Read::Gone(1);
    }
    let len = match what {
        1..=MAX_LEN => what as usize,
        FIRST_CONTINUATION..=LAST_CONTINUATION => return Read::Tail,
        _ => return Read::Bad,
    };
    let n = slots_for(len);
    // A committed head's claim is below any cursor that covers it.
    if head.saturating_sub(seq) < n as u64 {
        return Read::Bad;
    }
    rec.len = len as u8;
    if n == 1 {
        return Read::Ok(rec);
    }
    let mut whats = [0u8; MAX_RECORD_SLOTS];
    for (j, what) in whats.iter_mut().enumerate().take(n).skip(1) {
        let at = seq + j as u64;
        let cont = shared.region.word(shared.slot_word(at));
        // The head's commit came after this slot's: below `committed`,
        // the slot is not this record's.
        match cont.load(Ordering::Acquire).cmp(&stamp_committed(at)) {
            std::cmp::Ordering::Less => return Read::Bad,
            std::cmp::Ordering::Greater => return Read::Gone(n as u64),
            std::cmp::Ordering::Equal => {}
        }
        let lo = j * SLOT_RECORD_BYTES;
        *what = shared.copy_slot(at, &mut rec.bytes[lo..lo + SLOT_RECORD_BYTES]);
    }
    fence(Ordering::Acquire);
    for (j, &what) in whats.iter().enumerate().take(n).skip(1) {
        let at = seq + j as u64;
        let cont = shared.region.word(shared.slot_word(at));
        if cont.load(Ordering::Relaxed) != stamp_committed(at) {
            return Read::Gone(n as u64);
        }
        if what != CONTINUATION | j as u8 {
            return Read::Bad;
        }
    }
    Read::Ok(rec)
}

/// Result of an offline [`Ring::replay`] sweep.
pub struct Replay {
    /// Committed records, in sequence order.
    pub records: Vec<Record>,
    /// Records in the retained window lost to in-flight (torn) writes
    /// or damage; a record torn across several slots may count once a
    /// slot.
    pub torn: u64,
    /// Oldest slot sequence number the window could hold.
    pub earliest: u64,
    /// The claim cursor at sweep time (total slots ever claimed).
    pub head: u64,
    /// Total records ever pushed ([`Ring::records`]).
    pub recorded: u64,
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
    /// A reader that falls more than `capacity` slots behind is
    /// *lapped*: the cursor jumps forward to the oldest retained slot
    /// and [`RingReader::lapped`] grows by the number of slots skipped.
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
            match read_record(&self.shared, self.next, head) {
                Read::Ok(rec) => {
                    self.next += rec.slots();
                    return Some(rec);
                }
                Read::Pending => return None,
                Read::Gone(n) => {
                    // Overwritten between the head load and the copy:
                    // we were lapped mid-read. Count it and move on.
                    self.torn += 1;
                    self.lapped += 1;
                    self.next += n;
                }
                Read::Bad => {
                    self.torn += 1;
                    self.lapped += 1;
                    self.next += 1;
                }
                // Counted with the head it follows.
                Read::Tail => self.next += 1,
            }
        }
    }

    /// The sequence number the next successful poll will return.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Records this reader skipped because the writer overwrote them
    /// before they were read. A lap counts the slots it skipped, so a
    /// record of several slots lost to a lap may count once a slot:
    /// records read plus `lapped` is at least the records pushed since
    /// the reader's start, and at most the slots.
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
        assert_eq!(a.payload(), b"alpha");
        let b = r.poll().expect("second record");
        assert_eq!(b.seq, 1);
        assert_eq!(b.payload(), b"beta");
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
        assert!(std::panic::catch_unwind(|| ring.push(&[])).is_err());
        assert_eq!(ring.seq(), 0, "a refused push claims nothing");
    }

    /// The payload of `len` bytes pushed under `seq`: every byte a
    /// function of both, so a record spliced from two reads wrong.
    fn patterned(seq: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (seq.wrapping_mul(0x9E37_79B9) as usize ^ (i * 131)) as u8)
            .collect()
    }

    /// A record takes the slots its bytes need, comes back at its real
    /// length, and counts once in `records()` however many slots it took.
    #[test]
    fn a_record_takes_the_slots_its_bytes_need() {
        let ring = Ring::anon(1024);
        let lens = [
            1,
            SLOT_RECORD_BYTES,
            SLOT_RECORD_BYTES + 1,
            46,
            47,
            PAYLOAD_BYTES,
        ];
        let slots = [1, 1, 2, 2, 3, MAX_RECORD_SLOTS as u64];
        let mut seq = 0;
        for (&len, &n) in lens.iter().zip(&slots) {
            assert_eq!(ring.push(&patterned(seq, len)), seq);
            seq += n;
        }
        assert_eq!(ring.seq(), seq, "the cursor counts slots");
        assert_eq!(ring.records(), lens.len() as u64, "records count once");
        let mut r = ring.reader();
        let read: Vec<Record> = std::iter::from_fn(|| r.poll()).collect();
        assert_eq!(read.len(), lens.len());
        for ((rec, &len), &n) in read.iter().zip(&lens).zip(&slots) {
            assert_eq!(rec.payload(), patterned(rec.seq, len));
            assert_eq!(rec.slots(), n);
        }
        assert_eq!((r.lapped(), r.torn(), r.position()), (0, 0, seq));
        let replay = ring.replay();
        assert_eq!((replay.records.len(), replay.torn), (lens.len(), 0));
        assert_eq!((replay.head, replay.recorded), (seq, lens.len() as u64));
    }

    /// A record of three slots whose head slot an older writer still
    /// holds is dropped, and its other two slots are left free: a reader
    /// steps over all three instead of waiting, and the holder's leave
    /// frees the head slot for the next lap.
    #[test]
    fn a_record_dropped_in_one_slot_frees_the_others() {
        let ring = Ring::anon(1024);
        let cap = ring.capacity();
        let held = ring.push_claim(1);
        assert!(ring.push_enter(held));
        push_stamped(&ring, cap - 1);
        let wide = patterned(cap, 2 * SLOT_RECORD_BYTES + 1);
        assert_eq!(ring.push_claim(3), cap);
        assert!(!ring.push_fill(cap, &wide), "its head slot is held");
        push_stamped(&ring, 1);
        let mut r = ring.reader_from(0);
        let seen = drain_checked(&mut r);
        // Slots 0–3 are the next lap's: the held one and the three the
        // wide record claimed, its last overwritten by the record after.
        assert_eq!(seen, (4..cap).chain([cap + 3]).collect::<Vec<_>>());
        assert_eq!(r.position(), ring.seq(), "no slot left pending");
        assert_eq!((r.lapped(), r.torn()), (4 + 3, 3));
        assert!(
            !ring.push_leave(held, true),
            "a newer writer marked the slot"
        );
        push_stamped(&ring, cap);
        assert_eq!(drain_checked(&mut r).len() as u64, cap);
        let replay = ring.replay();
        assert_eq!((replay.records.len() as u64, replay.torn), (cap, 0));
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

    /// A file of an older `version`, with its eight header words and
    /// 1 024 slots of `slot_bytes`, is refused by its version both ways,
    /// and left as it was: re-opened for a ring of the same capacity or
    /// of a larger one (the old file is shorter, and would have been
    /// extended).
    #[cfg(unix)]
    fn an_old_file_is_refused_and_left_as_it_is(version: u64, slot_bytes: usize) {
        let path =
            std::env::temp_dir().join(format!("jets-ring-v{version}-{}.ring", std::process::id()));
        let mut old = vec![0u8; 64 + 1024 * slot_bytes];
        let header = [
            (W_MAGIC, MAGIC),
            (W_VERSION, version),
            (W_SLOT_BYTES, slot_bytes as u64),
            (W_CAPACITY, 1024),
            (W_HEAD, 10),
        ];
        for (w, value) in header {
            old[w * 8..w * 8 + 8].copy_from_slice(&value.to_le_bytes());
        }
        std::fs::write(&path, &old).unwrap();
        for err in [
            Ring::open_read(&path).err().expect("open_read"),
            Ring::create(&path, 1024).err().expect("same capacity"),
            Ring::create(&path, 1 << 16).err().expect("larger capacity"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let named = format!("ring version {version}, this build reads 3");
            assert!(err.to_string().contains(&named), "{err}");
        }
        assert!(std::fs::read(&path).unwrap() == old, "the file was changed");
        let _ = std::fs::remove_file(&path);
    }

    /// Version 1 had 128-byte slots.
    #[cfg(unix)]
    #[test]
    fn a_version_1_file_is_refused_and_left_as_it_is() {
        an_old_file_is_refused_and_left_as_it_is(1, 128);
    }

    /// Version 2 had one 72-byte slot a record.
    #[cfg(unix)]
    #[test]
    fn a_version_2_file_is_refused_and_left_as_it_is() {
        an_old_file_is_refused_and_left_as_it_is(2, 72);
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
            let seq = ring.push_claim(1);
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
        let stale = ring.push_claim(1);
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
        let held = ring.push_claim(1);
        assert!(ring.push_enter(held));
        for _ in 0..=cap {
            let seq = ring.push_claim(1);
            assert_eq!(ring.push_fill(seq, &seq.to_le_bytes()), seq != cap);
        }
        assert!(
            !ring.push_leave(held, true),
            "a newer writer marked the slot"
        );
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
            let died = ring.push_claim(1);
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
