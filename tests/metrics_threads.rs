//! Each daemon is one thread: a dispatcher runs its event loop (plus the
//! output writer, only when `stdout_dir` is set), a relay runs its event
//! loop, and neither leaves a thread behind when dropped. `/metrics`
//! costs no thread: the endpoint is one more listener on each daemon's
//! own event loop.
//!
//! One test in its own binary, so no other test's threads move the
//! census, which reads `/proc/self`.

use jets::core::{Dispatcher, DispatcherConfig};
use jets::relay::{Relay, RelayConfig};
use std::time::{Duration, Instant};

/// The names of this process's threads, sorted.
fn census() -> Vec<String> {
    let comm = |t: std::fs::DirEntry| {
        let name = std::fs::read_to_string(t.path().join("comm")).ok()?;
        Some(name.trim_end().to_string())
    };
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|t| comm(t.ok()?))
        .collect();
    names.sort();
    names
}

/// The names in `now` that `then` did not have, sorted.
fn added(then: &[String], now: &[String]) -> Vec<String> {
    let (mut left, mut added) = (then.to_vec(), Vec::new());
    for name in now {
        match left.iter().position(|n| n == name) {
            Some(i) => drop(left.remove(i)),
            None => added.push(name.clone()),
        }
    }
    added
}

/// Wait (briefly: the kernel reaps a joined thread in microseconds) for
/// the census to return to `idle`.
fn back_to(idle: &[String], what: &str) {
    let deadline = Instant::now() + Duration::from_millis(50);
    while census() != idle && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(census(), idle, "a thread outlived {what}");
}

#[test]
fn serving_metrics_starts_no_thread() {
    let idle = census();
    let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let relay = Relay::start(RelayConfig::new(dispatcher.addr().to_string(), "census")).unwrap();
    // A thread takes its name once it runs: census only after every one
    // of them has done something.
    let deadline = Instant::now() + Duration::from_secs(20);
    while dispatcher.relay_count() != 1 || !relay.is_connected() {
        assert!(Instant::now() < deadline, "the relay never connected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = census();
    assert_eq!(added(&idle, &before), ["jets-reactor-0", "relay-loop-0"]);

    let d_addr = dispatcher.serve_metrics("127.0.0.1:0").unwrap().to_string();
    let r_addr = relay.serve_metrics("127.0.0.1:0").unwrap().to_string();
    let d_text = jets::obs::scrape(&d_addr, "/metrics").expect("scrape the dispatcher");
    let r_text = jets::obs::scrape(&r_addr, "/metrics").expect("scrape the relay");
    assert!(d_text.contains("jets_jobs_submitted_total"));
    assert!(r_text.contains("jets_relay_members"));

    assert_eq!(census(), before, "serving /metrics changed the thread set");
    relay.shutdown();
    dispatcher.shutdown();
    drop((relay, dispatcher));
    back_to(&idle, "its daemon");

    // Captured output to write: one more thread, the writer.
    let dir = std::env::temp_dir().join(format!("jets-census-{}", std::process::id()));
    let config = DispatcherConfig {
        stdout_dir: Some(dir),
        ..DispatcherConfig::default()
    };
    let dispatcher = Dispatcher::start(config).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !census().contains(&"jets-output".to_string()) {
        assert!(Instant::now() < deadline, "the writer never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = dispatcher.alive_workers(); // the loop has run too
    assert_eq!(added(&idle, &census()), ["jets-output", "jets-reactor-0"]);
    drop(dispatcher);
    back_to(&idle, "the dispatcher and its writer");
}
