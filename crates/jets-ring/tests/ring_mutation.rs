//! The flight-ring file against damaged and hostile bytes.
//!
//! One source file — 1 024 slots, two and a half laps of records that
//! each carry their own seq, and the newest record's slot left with an
//! odd stamp (a writer that died mid-record) — is truncated at every
//! slot boundary and a byte either side, has every bit of its header
//! flipped, one bit of each stamp flipped (and one stamp set to
//! `u64::MAX`), a capacity of every power of two and some non-powers,
//! and cursors that lie. Each damaged copy is opened both ways a flight
//! file is opened: [`Ring::open_read`] (the offline dump) and
//! [`Ring::create`] (a restarted daemon re-opening its own file), and
//! replayed. Either way it is `Ok` or `InvalidData`, never a panic or a
//! read outside the mapping; opening and replaying never allocate more
//! than one [`Record`] per slot the file holds; and every record that
//! comes back is the one pushed under its seq. When only stamps were
//! damaged, every other record in the window comes back.
//!
//! A second source holds records of one, two and three slots, one of
//! them straddling the wrap point, and its window opening on the tail of
//! an overwritten record. Its damage is to one record at a time: a
//! continuation's stamp set stale or odd, a head's length set to zero,
//! past the largest record, past the claim cursor, past its own slots or
//! to a continuation's mark. Each loses that record whole and no other,
//! and never comes back spliced from two.

use jets_ring::{Record, Ring, SLOT_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The file layout this suite damages: twelve little-endian header
/// words, then `capacity` slots of one stamp word and the payload, whose
/// first byte is a head's length or a continuation's mark.
const HDR_BYTES: usize = 96;
const W_CAPACITY: usize = 3;
const W_HEAD: usize = 4;

/// The source file: capacity, records pushed, and the seq whose writer
/// died holding its slot.
const CAP: u64 = 1024;
const PUSHED: u64 = CAP * 5 / 2;
const DIED: u64 = PUSHED - 1;

/// Bytes opening and replaying may cost beyond one `Record` a slot: the
/// shared handle and an error message naming the path.
const SLACK: usize = 4096;

/// Counts the bytes this thread asks the allocator for while `counted`
/// runs; other threads (the test harness) are not counted.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATED.with(|a| a.set(a.get() + bytes));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATED.with(Cell::get))
}

/// A ring file of its own for one test; removed on drop.
struct TempRing(PathBuf);

impl TempRing {
    fn new(name: &str) -> TempRing {
        let path =
            std::env::temp_dir().join(format!("jets-ring-mut-{name}-{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempRing(path)
    }
}

impl Drop for TempRing {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Byte offset of `slot`'s stamp.
fn stamp_at(slot: u64) -> usize {
    HDR_BYTES + slot as usize * SLOT_BYTES
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn set_word(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// The source file's bytes, written through `file`: `PUSHED` records,
/// each its own seq, and `DIED`'s slot stamped *writing* — its writer
/// never left.
fn source(file: &TempRing) -> Vec<u8> {
    let ring = Ring::create(&file.0, CAP as usize).expect("create");
    assert_eq!(ring.capacity(), CAP);
    for seq in 0..PUSHED {
        assert_eq!(ring.push(&seq.to_le_bytes()), seq);
    }
    drop(ring);
    let mut bytes = std::fs::read(&file.0).unwrap();
    assert_eq!(bytes.len(), stamp_at(CAP));
    let died = stamp_at(DIED % CAP);
    assert_eq!(word(&bytes, died), 2 * DIED + 2, "committed");
    set_word(&mut bytes, died, 2 * DIED + 1);
    bytes
}

/// The record pushed under `seq` with `len` bytes: its seq, then (past
/// eight bytes) its length and bytes that are a function of both.
fn pushed(seq: u64, len: usize) -> Vec<u8> {
    let mut bytes = seq.to_le_bytes().to_vec();
    if len > 8 {
        bytes.push(len as u8);
        bytes.extend((9..len).map(|k| (seq.wrapping_mul(131) as usize ^ (k * 7)) as u8));
    }
    bytes
}

/// The seqs a replay returned, each checked to be the whole record
/// pushed under its seq.
fn seqs(records: &[Record], what: &str) -> Vec<u64> {
    records
        .iter()
        .map(|rec| {
            let payload = rec.payload();
            assert!(
                payload.len() >= 8,
                "{what}: a {}-byte record",
                payload.len()
            );
            assert_eq!(
                word(payload, 0),
                rec.seq,
                "{what}: another record's payload"
            );
            assert_eq!(payload, pushed(rec.seq, payload.len()), "{what}: spliced");
            rec.seq
        })
        .collect()
}

/// `f` on `path`'s ring, replayed: the seqs it returned, or the open's
/// error, which must be `InvalidData`. Panics name `what`; the bytes
/// counted are checked against `slots`, the slots `f` maps.
fn open_and_replay(
    path: &Path,
    slots: usize,
    what: &str,
    f: impl FnOnce(&Path) -> io::Result<Ring>,
) -> Option<(Ring, Vec<u64>)> {
    let bound = slots * std::mem::size_of::<Record>() + SLACK;
    let got = catch_unwind(AssertUnwindSafe(|| {
        counted(|| {
            f(path).map(|ring| {
                let replay = ring.replay();
                (ring, replay)
            })
        })
    }));
    let Ok((got, allocated)) = got else {
        panic!("{what}: panicked");
    };
    assert!(
        allocated <= bound,
        "{what}: {allocated} bytes allocated for a file of {slots} slots"
    );
    match got {
        Ok((ring, replay)) => {
            let seqs = seqs(&replay.records, what);
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{what}: out of order");
            Some((ring, seqs))
        }
        Err(err) => {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            None
        }
    }
}

/// `bytes` through both open paths; the seqs each recovered, `None` for
/// a refusal. A re-opened ring must also take a new record and replay
/// again, still only records carrying their own seq.
fn both_ways(file: &TempRing, bytes: &[u8], what: &str) -> [Option<Vec<u64>>; 2] {
    // `open_read` maps the file as it is and writes nothing, so one write
    // serves both opens; a re-open extends a short file to the capacity
    // asked for.
    let slots = bytes.len().saturating_sub(HDR_BYTES) / SLOT_BYTES;
    std::fs::write(&file.0, bytes).unwrap();
    let what_read = format!("{what}, open_read");
    let read = open_and_replay(&file.0, slots, &what_read, Ring::open_read).map(|(_, seqs)| seqs);
    let what = format!("{what}, create");
    let slots = slots.max(CAP as usize);
    let created = open_and_replay(&file.0, slots, &what, |p| Ring::create(p, CAP as usize)).map(
        |(ring, seqs)| {
            let seq = ring.seq();
            let pushed = catch_unwind(AssertUnwindSafe(|| ring.push(&seq.to_le_bytes())));
            assert_eq!(pushed.ok(), Some(seq), "{what}: push after re-open");
            let replay = catch_unwind(AssertUnwindSafe(|| ring.replay()));
            let Ok(replay) = replay else {
                panic!("{what}: replay after a push panicked");
            };
            self::seqs(&replay.records, &what);
            seqs
        },
    );
    [read, created]
}

/// The window the source file holds: everything since one lap ago,
/// except the record whose writer died.
fn window() -> Vec<u64> {
    (PUSHED - CAP..PUSHED).filter(|&s| s != DIED).collect()
}

#[test]
fn the_source_file_replays_whole_both_ways() {
    let file = TempRing::new("whole");
    let src = source(&file);
    let [read, created] = both_ways(&file, &src, "untouched");
    assert_eq!(read, Some(window()));
    assert_eq!(created, Some(window()));
}

#[test]
fn truncation_at_every_slot_boundary_is_refused_or_intact() {
    let (file, window) = (TempRing::new("cut"), window());
    let src = source(&file);
    let mut refused = 0;
    let boundaries = (0..HDR_BYTES).step_by(8).chain((0..=CAP).map(stamp_at));
    let cuts = boundaries.flat_map(|b| [b.saturating_sub(1), b, b + 1]);
    for cut in cuts.filter(|&cut| cut <= src.len()) {
        let [read, created] = both_ways(&file, &src[..cut], &format!("cut at {cut}"));
        refused += read.is_none() as usize;
        // A re-open extends a short file with empty slots: every record
        // whose stamp survived the cut is still there.
        let kept: Vec<u64> = window
            .iter()
            .copied()
            .filter(|s| stamp_at(s % CAP) + 8 <= cut)
            .collect();
        if let Some(seqs) = created {
            assert_eq!(seqs, kept, "cut at {cut}");
        }
    }
    // Offline, only the whole file is a ring.
    assert_eq!(refused, 3 * (HDR_BYTES / 8 + CAP as usize + 1) - 2);
}

#[test]
fn every_header_bit_flip_is_refused_or_replays_its_own_records() {
    let file = TempRing::new("header");
    let src = source(&file);
    for w in 0..HDR_BYTES / 8 {
        for bit in 0..64 {
            let mut bytes = src.clone();
            set_word(&mut bytes, w * 8, word(&src, w * 8) ^ (1 << bit));
            let what = format!("header word {w} bit {bit}");
            let both = both_ways(&file, &bytes, &what);
            match w {
                // Magic, version, slot size and capacity are all checked,
                // and so is a cursor no stamp can name.
                _ if w <= W_CAPACITY => assert_eq!(both, [None, None], "{what}"),
                W_HEAD if bit >= 62 => assert_eq!(both, [None, None], "{what}"),
                W_HEAD => assert!(both.iter().all(Option::is_some), "{what}"),
                // Epoch, pid and role are only read back.
                _ => assert_eq!(both, [Some(window()), Some(window())], "{what}"),
            }
        }
    }
}

#[test]
fn a_flipped_stamp_loses_its_own_record_and_no_other() {
    let file = TempRing::new("stamp");
    let src = source(&file);
    // One bit of each stamp, and the largest odd stamp there is, which a
    // re-open's sweep cannot step past.
    let flips = (0..CAP).map(|slot| (slot, word(&src, stamp_at(slot)) ^ (1 << (slot % 64))));
    for (slot, stamp) in flips.chain([(0, u64::MAX)]) {
        let mut bytes = src.clone();
        set_word(&mut bytes, stamp_at(slot), stamp);
        let what = format!("stamp of slot {slot} set to {stamp:#x}");
        let untouched: Vec<u64> = window().into_iter().filter(|s| s % CAP != slot).collect();
        for seqs in both_ways(&file, &bytes, &what) {
            let seqs = seqs.unwrap_or_else(|| panic!("{what}: refused"));
            assert_eq!(seqs, untouched, "{what}");
        }
    }
}

#[test]
fn a_capacity_that_lies_is_refused_or_replays_its_own_records() {
    let file = TempRing::new("cap");
    let src = source(&file);
    let powers = (0..64).map(|k| 1u64 << k);
    let others = [0, 3, 1000, 1025, CAP * 3 / 2, u64::MAX, u64::MAX - 1];
    for cap in powers.chain(others) {
        let mut bytes = src.clone();
        set_word(&mut bytes, W_CAPACITY * 8, cap);
        let [read, created] = both_ways(&file, &bytes, &format!("capacity {cap}"));
        // A smaller power of two is a shorter window over the same
        // slots; anything else is refused.
        let fits = cap.is_power_of_two() && cap <= CAP;
        assert_eq!(read.is_some(), fits, "capacity {cap}");
        assert_eq!(created.is_some(), fits, "capacity {cap}");
    }
}

#[test]
fn a_cursor_that_lies_is_refused_or_replays_its_own_records() {
    let file = TempRing::new("head");
    let src = source(&file);
    for head in [0, CAP - 1, u64::MAX] {
        let mut bytes = src.clone();
        set_word(&mut bytes, W_HEAD * 8, head);
        let [read, created] = both_ways(&file, &bytes, &format!("head {head}"));
        // No slot holds a record below the real window's start.
        let expect = (head != u64::MAX).then(Vec::new);
        assert_eq!(read, expect, "head {head}");
        assert_eq!(created, expect, "head {head}");
    }
}

/// Slot sequence numbers the second source's records start at, and
/// their lengths: one, two and three slots in turn, pushed past two and
/// a half laps.
fn multi_source(file: &TempRing) -> (Vec<u8>, Vec<(u64, usize)>) {
    let ring = Ring::create(&file.0, CAP as usize).expect("create");
    let mut records = Vec::new();
    for len in [8, 30, 60].into_iter().cycle() {
        if ring.seq() >= PUSHED {
            break;
        }
        let seq = ring.seq();
        assert_eq!(ring.push(&pushed(seq, len)), seq);
        records.push((seq, len));
    }
    drop(ring);
    (std::fs::read(&file.0).unwrap(), records)
}

/// Slots a record of `len` bytes takes: 23 record bytes a slot.
fn slots(len: usize) -> u64 {
    len.div_ceil(23) as u64
}

/// The second source's claim cursor and the records its window holds
/// whole.
fn multi_window(records: &[(u64, usize)]) -> (u64, Vec<(u64, usize)>) {
    let &(last, len) = records.last().unwrap();
    let head = last + slots(len);
    let window = records
        .iter()
        .copied()
        .filter(|&(seq, _)| seq >= head - CAP)
        .collect();
    (head, window)
}

#[test]
fn multi_slot_records_replay_whole_across_the_wrap() {
    let file = TempRing::new("multi");
    let (src, records) = multi_source(&file);
    let (head, window) = multi_window(&records);
    // The window opens on the tail of a record a lap overwrote, and one
    // record in it straddles the wrap point.
    assert!(!records.iter().any(|&(seq, _)| seq == head - CAP));
    let straddles = |&(seq, len): &(u64, usize)| seq % CAP + slots(len) > CAP;
    assert!(window.iter().any(straddles), "no record straddles the wrap");
    let replay = Ring::open_read(&file.0).unwrap().replay();
    assert_eq!(replay.recorded, records.len() as u64);
    assert_eq!((replay.head, replay.torn), (head, 0));
    let expect: Vec<u64> = window.iter().map(|&(seq, _)| seq).collect();
    let [read, created] = both_ways(&file, &src, "multi-slot");
    assert_eq!(read, Some(expect.clone()));
    assert_eq!(created, Some(expect));
}

#[test]
fn a_damaged_multi_slot_record_is_lost_whole_and_never_spliced() {
    let file = TempRing::new("multi-damage");
    let (src, records) = multi_source(&file);
    let (head, window) = multi_window(&records);
    let find = |n: u64, after: u64| {
        let hit = window.iter().find(|&&(seq, len)| {
            slots(len) == n && seq >= after && seq % CAP + n <= CAP && seq + n < head
        });
        hit.copied().expect("a record to damage")
    };
    let (one, two, three) = (find(1, 0), find(2, 0), find(3, 0));
    let (two_b, three_b) = (find(2, two.0 + 6), find(3, three.0 + 6));
    let (two_c, two_d) = (find(2, two_b.0 + 6), find(2, two_b.0 + 12));
    let straddler = *window
        .iter()
        .find(|&&(seq, len)| seq % CAP + slots(len) > CAP)
        .unwrap();
    let last = *window.last().unwrap();
    let lead = |seq: u64| stamp_at(seq % CAP) + 8;
    type Damage = Box<dyn Fn(&mut Vec<u8>)>;
    let stamp = |seq: u64, value: u64| -> Damage {
        Box::new(move |b: &mut Vec<u8>| set_word(b, stamp_at(seq % CAP), value))
    };
    let length =
        |seq: u64, value: u8| -> Damage { Box::new(move |b: &mut Vec<u8>| b[lead(seq)] = value) };
    let cases: Vec<(&str, (u64, usize), Damage)> = vec![
        (
            "a continuation's stamp a lap stale",
            three,
            stamp(three.0 + 1, 2 * (three.0 + 1 - CAP) + 2),
        ),
        (
            "a continuation's stamp odd",
            three_b,
            stamp(three_b.0 + 2, 2 * (three_b.0 + 2) + 1),
        ),
        (
            "the wrap's continuation odd",
            straddler,
            stamp(straddler.0 + 1, 2 * (straddler.0 + 1) + 1),
        ),
        ("a head past the cursor", last, length(last.0, 92)),
        ("a head past its own slots", one, length(one.0, 60)),
        ("a zero length", two, length(two.0, 0)),
        (
            "a length past the largest record",
            two_b,
            length(two_b.0, 93),
        ),
        ("a length of 255", two_c, length(two_c.0, 0xFF)),
        (
            "a head marked as a continuation",
            two_d,
            length(two_d.0, 0x81),
        ),
    ];
    for (what, lost, damage) in cases {
        let mut bytes = src.clone();
        damage(&mut bytes);
        let expect: Vec<u64> = window
            .iter()
            .filter(|&&r| r != lost)
            .map(|&(seq, _)| seq)
            .collect();
        let what = format!("{what} (record {}, {} bytes)", lost.0, lost.1);
        for seqs in both_ways(&file, &bytes, &what) {
            assert_eq!(seqs.as_ref(), Some(&expect), "{what}");
        }
    }
}
