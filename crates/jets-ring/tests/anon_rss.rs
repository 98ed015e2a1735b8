//! An anonymous ring is resident only as far as it has been written. One
//! test, alone in its process: another test's allocations would land in
//! its `VmRSS` readings.
#![cfg(target_os = "linux")]

use jets_ring::{Ring, SLOT_BYTES};

/// This process's resident set, in bytes.
fn rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .unwrap();
    kb.trim().parse::<usize>().unwrap() * 1024
}

#[test]
fn an_anonymous_ring_faults_in_as_it_fills() {
    const MIB: usize = 1 << 20;
    let capacity = 1 << 17;
    let before = rss();
    let ring = Ring::anon(capacity);
    let created = rss();
    assert!(
        created.saturating_sub(before) < MIB,
        "a fresh ring of {capacity} slots added {} bytes",
        created - before
    );
    let payload = [0x5a; 64];
    for _ in 0..capacity {
        ring.push(&payload);
    }
    let lap = rss().saturating_sub(created) as f64;
    let slots = (capacity * SLOT_BYTES) as f64;
    assert!(
        (0.9 * slots..1.1 * slots).contains(&lap),
        "one lap of {capacity} slots added {lap} bytes, not about {slots}"
    );
    // A second lap reuses the same pages.
    for _ in 0..capacity {
        ring.push(&payload);
    }
    let again = rss().saturating_sub(created) as f64;
    assert!(
        again < 1.1 * slots,
        "a second lap grew the ring to {again} bytes"
    );
}
