//! Multi-thread hammer tests for the metrics registry: counter
//! exactness, histogram total-count conservation, and scrape-while-write
//! consistency. These run in the offline shadow workspace too (jets-obs
//! has no dependencies), so they gate every environment.

use jets_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 8;
const OPS: u64 = 50_000;

#[test]
fn counter_is_exact_under_contention() {
    let c = Arc::new(Counter::default());
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let c = c.clone();
        handles.push(thread::spawn(move || {
            for i in 0..OPS {
                if i % 2 == 0 {
                    c.inc();
                } else {
                    c.add(1);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.get(), THREADS as u64 * OPS);
}

#[test]
fn gauge_inc_dec_balances() {
    let g = Arc::new(Gauge::default());
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let g = g.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..OPS {
                g.inc();
                g.dec();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(g.get(), 0);
}

#[test]
fn histogram_conserves_total_count_and_sum() {
    let h = Arc::new(Histogram::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = h.clone();
        handles.push(thread::spawn(move || {
            let mut local_sum = 0u64;
            for i in 0..OPS {
                // Deterministic spread across several octaves.
                let v = (i * 37 + t as u64 * 101) % 100_000;
                h.record(v);
                local_sum += v;
            }
            local_sum
        }));
    }
    let expected_sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(h.count(), THREADS as u64 * OPS, "samples lost or invented");
    assert_eq!(h.sum(), expected_sum, "sum drifted under contention");
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS as u64 * OPS, "bucket total != count");
    assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
}

#[test]
fn snapshot_while_recording_never_invents_samples() {
    let h = Arc::new(Histogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let h = h.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Acquire) {
                h.record(n % 4096);
                n += 1;
            }
            n
        })
    };
    // Concurrent snapshots must observe a bucket total no larger than
    // the (racy, monotone) count at any moment.
    for _ in 0..200 {
        let snap = h.snapshot();
        let ceiling = h.count();
        assert!(
            snap.count <= ceiling,
            "snapshot saw {} samples but only {} were recorded",
            snap.count,
            ceiling
        );
    }
    stop.store(true, Ordering::Release);
    let written = writer.join().unwrap();
    assert_eq!(h.count(), written);
}

#[test]
fn render_under_concurrent_recording_is_well_formed() {
    let r = Arc::new(Registry::new());
    let c = r.counter("jets_hammer_total", "hammered counter", &[]);
    let h = r.histogram(
        "jets_hammer_seconds",
        "hammered histogram",
        &[("phase", "x")],
    );
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        let (c, h) = (c.clone(), h.clone());
        thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Acquire) {
                c.inc();
                h.record(n % 10_000);
                n += 1;
            }
        })
    };
    for _ in 0..100 {
        let text = r.render();
        assert!(text.contains("# TYPE jets_hammer_total counter"));
        assert!(text.contains("# TYPE jets_hammer_seconds summary"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in line: {line}"
            );
        }
    }
    stop.store(true, Ordering::Release);
    writer.join().unwrap();
}
