//! Torture and crash-durability tests for the flight recorder.
//!
//! The crash test re-executes this test binary: `crash_child_write_loop`
//! is an ordinary (instantly-passing) test unless `JETS_RING_CRASH_PATH`
//! is set, in which case it opens a file-backed ring and pushes until
//! the parent test `kill -9`s it mid-write. The parent then maps the
//! file offline and proves the committed prefix is intact.

use jets_ring::{Ring, PAYLOAD_BYTES};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Many writers, many readers, a deliberately tiny window, sustained
/// wrap-around. Asserts the invariants every consumer relies on:
/// sequence numbers are unique across writers, each reader observes a
/// strictly increasing sequence, every record a reader returns carries
/// the payload pushed under its seq, and read + lapped accounts for
/// every record ever pushed.
#[test]
fn torture_multi_writer_multi_reader_wraparound() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 50_000;
    const TOTAL: u64 = WRITERS as u64 * PER_WRITER;

    let ring = Ring::anon(1024); // minimum window: laps constantly
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..3 {
        let mut cur = ring.reader();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            // (seq, writer, i) of every record read.
            let mut read: Vec<(u64, u64, u64)> = Vec::new();
            let drain = |cur: &mut jets_ring::RingReader, read: &mut Vec<(u64, u64, u64)>| {
                while let Some(rec) = cur.poll() {
                    if let Some(&(prev, ..)) = read.last() {
                        assert!(rec.seq > prev, "reader regressed: {} after {prev}", rec.seq);
                    }
                    let word = |k: usize| {
                        let mut w = [0u8; 8];
                        w.copy_from_slice(&rec.payload()[8 * k..8 * k + 8]);
                        u64::from_le_bytes(w)
                    };
                    read.push((rec.seq, word(0), word(1)));
                }
            };
            while !stop.load(Ordering::Acquire) {
                drain(&mut cur, &mut read);
                std::hint::spin_loop();
            }
            drain(&mut cur, &mut read);
            (read, cur.lapped())
        }));
    }

    let mut writers = Vec::new();
    for w in 0..WRITERS as u64 {
        let ring = ring.clone();
        writers.push(std::thread::spawn(move || {
            let mut seqs = Vec::with_capacity(PER_WRITER as usize);
            for i in 0..PER_WRITER {
                let mut payload = [0u8; 16];
                payload[..8].copy_from_slice(&w.to_le_bytes());
                payload[8..].copy_from_slice(&i.to_le_bytes());
                seqs.push(ring.push(&payload));
            }
            seqs
        }));
    }

    // What was pushed under each seq.
    let mut pushed: HashMap<u64, (u64, u64)> = HashMap::with_capacity(TOTAL as usize);
    for (w, h) in writers.into_iter().enumerate() {
        for (i, seq) in h.join().expect("writer thread").into_iter().enumerate() {
            let clash = pushed.insert(seq, (w as u64, i as u64));
            assert!(clash.is_none(), "sequence {seq} claimed twice");
        }
    }
    assert_eq!(pushed.len() as u64, TOTAL);
    assert_eq!(ring.seq(), TOTAL, "claim cursor covers every push");

    stop.store(true, Ordering::Release);
    for h in readers {
        let (read, lapped) = h.join().expect("reader thread");
        for &(seq, w, i) in &read {
            assert_eq!(
                pushed[&seq],
                (w, i),
                "seq {seq} read with another record's payload"
            );
        }
        let seen = read.len() as u64;
        assert_eq!(
            seen + lapped,
            TOTAL,
            "reader accounting must cover every record (seen {seen} + lapped {lapped})"
        );
        assert!(seen > 0, "a polling reader saw nothing at all");
    }
}

/// A `jets top`-shaped poller: periodic frames while the writer runs,
/// each frame a bounded drain that never waits on anything. The writer
/// pushes a fixed count; the poller keeps framing until it has caught
/// up, so it always drains the last window over several frames.
#[test]
fn torture_periodic_poller_never_blocks() {
    /// Records per frame: a quarter of the window, so catching up on a
    /// full window takes at least four frames.
    const FRAME: usize = 1_024;
    const PUSHES: u64 = 200_000;
    let ring = Ring::anon(4096);
    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let mut cur = ring.reader();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let (mut frames_with_records, mut seen) = (0u64, 0u64);
            let mut last: Option<u64> = None;
            let mut worst = Duration::ZERO;
            loop {
                // Read before the frame: once the writer is done, a
                // frame that comes up short has caught up for good.
                let writer_done = done.load(Ordering::Acquire);
                let t = Instant::now();
                let mut batch = 0;
                while let Some(rec) = cur.poll() {
                    if let Some(prev) = last {
                        assert!(rec.seq > prev, "poller regressed: {} after {prev}", rec.seq);
                    }
                    last = Some(rec.seq);
                    batch += 1;
                    if batch == FRAME {
                        break; // bounded drain, like a UI frame
                    }
                }
                worst = worst.max(t.elapsed());
                seen += batch as u64;
                frames_with_records += (batch > 0) as u64;
                if writer_done && batch < FRAME {
                    return (frames_with_records, seen, cur.lapped(), worst);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    for i in 0..PUSHES {
        ring.push(&i.to_le_bytes());
    }
    done.store(true, Ordering::Release);
    let (frames, seen, lapped, worst) = poller.join().expect("poller thread");
    assert!(frames >= 2, "records arrived in {frames} frame(s)");
    assert_eq!(seen + lapped, PUSHES, "seen {seen} + lapped {lapped}");
    // Generous bound: a bounded drain is microseconds of copying; a
    // second would mean the reader waited on the writer somewhere.
    assert!(worst < Duration::from_secs(1), "poll frame took {worst:?}");
}

/// The length of writer `w`'s `i`-th record in the mixed torture: one,
/// two or three slots, in an order no two writers share.
fn mixed_len(w: u64, i: u64) -> usize {
    [16, 40, 64][((w + i * 7) % 3) as usize]
}

/// Writer `w`'s `i`-th record: `w`, `i`, then bytes that are a function
/// of both and of their place, up to [`mixed_len`].
fn mixed_record(w: u64, i: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(mixed_len(w, i));
    bytes.extend_from_slice(&w.to_le_bytes());
    bytes.extend_from_slice(&i.to_le_bytes());
    let mix = (w << 32 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    bytes.extend((16..mixed_len(w, i)).map(|k| (mix >> (k % 57)) as u8 ^ k as u8));
    bytes
}

/// Writers pushing records of one, two and three slots into the smallest
/// window, with live readers chasing them: every record a reader returns
/// is one writer's whole record — its own length and every byte — in
/// sequence order, and what a reader read plus what it counts as lapped
/// lies between the records pushed and the slots they took.
#[test]
fn torture_mixed_slot_records_are_read_whole() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 30_000;
    const TOTAL: u64 = WRITERS * PER_WRITER;

    let ring = Ring::anon(1024);
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let mut cur = ring.reader();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut seen, mut last) = (0u64, None::<u64>);
                let mut drain = |cur: &mut jets_ring::RingReader| {
                    while let Some(rec) = cur.poll() {
                        assert!(last.is_none_or(|prev| rec.seq > prev), "reader regressed");
                        last = Some(rec.seq);
                        let p = rec.payload();
                        assert!(p.len() >= 16, "seq {}: a {}-byte record", rec.seq, p.len());
                        let word = |k: usize| u64::from_le_bytes(p[k..k + 8].try_into().unwrap());
                        let (w, i) = (word(0), word(8));
                        assert!(w < WRITERS && i < PER_WRITER, "seq {}: ({w}, {i})", rec.seq);
                        assert_eq!(
                            p,
                            mixed_record(w, i),
                            "seq {}: not one whole record",
                            rec.seq
                        );
                        assert_eq!(rec.slots(), p.len().div_ceil(23) as u64);
                        seen += 1;
                    }
                };
                while !stop.load(Ordering::Acquire) {
                    drain(&mut cur);
                    std::hint::spin_loop();
                }
                drain(&mut cur);
                (seen, cur.lapped())
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = ring.clone();
            std::thread::spawn(move || {
                (0..PER_WRITER)
                    .map(|i| {
                        (
                            ring.push(&mixed_record(w, i)),
                            mixed_len(w, i).div_ceil(23) as u64,
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut claims: Vec<(u64, u64)> = writers
        .into_iter()
        .flat_map(|h| h.join().expect("writer thread"))
        .collect();
    claims.sort_unstable();
    for pair in claims.windows(2) {
        assert!(
            pair[0].0 + pair[0].1 <= pair[1].0,
            "claims overlap: {pair:?}"
        );
    }
    let slots: u64 = claims.iter().map(|&(_, n)| n).sum();
    assert_eq!((ring.seq(), ring.records()), (slots, TOTAL));

    stop.store(true, Ordering::Release);
    for h in readers {
        let (seen, lapped) = h.join().expect("reader thread");
        assert!(seen > 0, "a polling reader saw nothing at all");
        assert!(
            (TOTAL..=slots).contains(&(seen + lapped)),
            "seen {seen} + lapped {lapped}: not between {TOTAL} records and {slots} slots"
        );
    }
}

#[test]
fn payload_cap_is_enforced_exactly() {
    let ring = Ring::anon(1024);
    ring.push(&[0u8; PAYLOAD_BYTES]); // exactly full: fine
    assert!(std::panic::catch_unwind(|| ring.push(&[0u8; PAYLOAD_BYTES + 1])).is_err());
}

/// Child half of the crash test; a no-op unless spawned by
/// `kill_nine_mid_write_replays_offline`. Writes `seq`-stamped records
/// as fast as possible until killed.
#[test]
fn crash_child_write_loop() {
    let Ok(path) = std::env::var("JETS_RING_CRASH_PATH") else {
        return; // normal test run: nothing to do
    };
    let ring = Ring::create(std::path::Path::new(&path), 4096).expect("child ring");
    let mut i = 0u64;
    loop {
        // Single pusher on a fresh file: claimed seq == i, so every
        // committed payload must equal its own sequence number.
        let seq = ring.push(&i.to_le_bytes());
        assert_eq!(seq, i);
        i += 1;
    }
}

#[cfg(unix)]
#[test]
fn kill_nine_mid_write_replays_offline() {
    let path = std::env::temp_dir().join(format!("jets-ring-crash-{}.ring", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args(["crash_child_write_loop", "--exact", "--nocapture"])
        .env("JETS_RING_CRASH_PATH", &path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn crash child");

    // Wait until the child has demonstrably written plenty, then kill
    // it with SIGKILL mid-stream — no destructor runs, no flush.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(ring) = Ring::open_read(&path) {
            if ring.seq() > 20_000 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "child never got going");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("kill -9 child");
    child.wait().expect("reap child");

    // Offline replay of the corpse's mapping.
    let ring = Ring::open_read(&path).expect("map crashed file");
    let replay = ring.replay();
    let window = replay.head - replay.earliest;
    assert!(replay.head > 20_000, "claim cursor persisted past the kill");
    assert!(
        replay.torn <= 1,
        "single writer: at most the one in-flight record may be torn, got {}",
        replay.torn
    );
    assert_eq!(
        replay.records.len() as u64 + replay.torn,
        window,
        "every retained slot is either committed or the torn one"
    );
    let mut expected = replay.records.first().expect("non-empty").seq;
    for rec in &replay.records {
        let mut w = [0u8; 8];
        w.copy_from_slice(&rec.payload()[..8]);
        assert_eq!(u64::from_le_bytes(w), rec.seq, "payload survived intact");
        assert!(rec.seq >= expected, "replay out of order");
        expected = rec.seq;
    }
    assert!(ring.writer_pid() > 0);
    let _ = std::fs::remove_file(&path);
}
