//! Record-path microbenchmark: the old `Mutex<Vec>` event log versus
//! the jets-ring slot write, plus a reader-chasing-writer run.
//!
//! The numbers this emits are committed as `BENCH_pr8.json`:
//!
//! ```text
//! cargo run --release --offline -p jets-ring --bin ringbench [OPS]
//! ```
//!
//! Emits one JSON object on stdout with per-op latency quantiles
//! (measured with `Instant`, one sample per operation) and
//! reader-chase throughput/lap accounting.

use jets_ring::Ring;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The payload shape `EventLog` actually writes: ~40 bytes of encoded
/// event, well inside one slot.
const PAYLOAD: &[u8] = &[0x5a; 40];

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct Summary {
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: f64,
    ops_per_sec: f64,
}

fn summarize(samples: &mut [u64], wall_ns: u64) -> Summary {
    samples.sort_unstable();
    let total: u64 = samples.iter().sum();
    Summary {
        p50_ns: quantile(samples, 0.50),
        p99_ns: quantile(samples, 0.99),
        max_ns: *samples.last().unwrap_or(&0),
        mean_ns: total as f64 / samples.len().max(1) as f64,
        ops_per_sec: samples.len() as f64 / (wall_ns as f64 / 1e9),
    }
}

/// Per-op latency of the pre-PR8 path: lock a `Mutex`, push a record
/// into a growable `Vec` (allocation cost shows up in the tail as the
/// vec doubles).
fn bench_mutex_vec(ops: usize) -> Summary {
    let log: Mutex<Vec<[u8; 40]>> = Mutex::new(Vec::new());
    let mut rec = [0u8; 40];
    rec.copy_from_slice(PAYLOAD);
    let mut samples = Vec::with_capacity(ops);
    let wall = Instant::now();
    for _ in 0..ops {
        let t = Instant::now();
        log.lock().unwrap().push(rec);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    summarize(&mut samples, wall_ns)
}

/// Per-op latency of the ring slot write.
fn bench_ring(ops: usize) -> Summary {
    let ring = Ring::anon(1 << 16);
    let mut samples = Vec::with_capacity(ops);
    let wall = Instant::now();
    for _ in 0..ops {
        let t = Instant::now();
        ring.push(PAYLOAD);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    summarize(&mut samples, wall_ns)
}

/// The question `jets top` poses: does a reader polling flat-out slow
/// the writer down? Returns (writer summary, records read, lapped).
fn bench_reader_chase(ops: usize) -> (Summary, u64, u64) {
    let ring = Ring::anon(1 << 16);
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let mut cur = ring.reader();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::Acquire) {
                while cur.poll().is_some() {
                    seen += 1;
                }
                std::hint::spin_loop();
            }
            while cur.poll().is_some() {
                seen += 1;
            }
            (seen, cur.lapped())
        })
    };
    let mut samples = Vec::with_capacity(ops);
    let wall = Instant::now();
    for _ in 0..ops {
        let t = Instant::now();
        ring.push(PAYLOAD);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    stop.store(true, Ordering::Release);
    let (seen, lapped) = reader.join().expect("reader thread");
    (summarize(&mut samples, wall_ns), seen, lapped)
}

fn emit(name: &str, s: &Summary, extra: &str) {
    println!(
        "    \"{name}\": {{\"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1}, \"ops_per_sec\": {:.0}{extra}}},",
        s.p50_ns, s.p99_ns, s.max_ns, s.mean_ns, s.ops_per_sec
    );
}

fn main() {
    let ops: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);

    // Warm up the allocator and the ring pages off the clock.
    bench_mutex_vec(ops / 10);
    bench_ring(ops / 10);

    let mutex = bench_mutex_vec(ops);
    let ring = bench_ring(ops);
    let (chased, seen, lapped) = bench_reader_chase(ops);

    println!("{{");
    println!("  \"bench\": \"micro_events\",");
    println!("  \"ops\": {ops},");
    println!("  \"payload_bytes\": {},", PAYLOAD.len());
    println!("  \"results\": {{");
    emit("mutex_vec_record", &mutex, "");
    emit("ring_record", &ring, "");
    emit(
        "ring_record_with_reader",
        &chased,
        &format!(", \"reader_records\": {seen}, \"reader_lapped\": {lapped}"),
    );
    println!(
        "    \"speedup_p50\": {:.2}",
        mutex.p50_ns as f64 / ring.p50_ns.max(1) as f64
    );
    println!("  }}");
    println!("}}");
}
