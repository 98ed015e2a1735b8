//! An anonymous ring is resident only as far as it has been written. One
//! test, alone in its process: another test's allocations would land in
//! its `VmRSS` readings.

use jets_ring::Ring;

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
    // One slot a record: a no-op job's records are this size.
    let payload = [0x5a; 20];
    for _ in 0..capacity {
        ring.push(&payload);
    }
    // 32 bytes a slot, spelled out rather than read from `SLOT_BYTES`,
    // so a slot that grows back fails here: 4 MiB, and no more than
    // 4.5 MiB with the pages around it.
    let lap = rss().saturating_sub(created) as f64;
    let slots = (capacity * 32) as f64;
    assert!(
        (0.9 * slots..4.5 * MIB as f64).contains(&lap),
        "one lap of {capacity} slots added {lap} bytes, not about {slots}"
    );
    // A second lap reuses the same pages.
    for _ in 0..capacity {
        ring.push(&payload);
    }
    let again = rss().saturating_sub(created) as f64;
    assert!(
        again < 4.5 * MIB as f64,
        "a second lap grew the ring to {again} bytes"
    );
}
