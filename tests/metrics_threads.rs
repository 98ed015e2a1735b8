//! `/metrics` costs no thread: a dispatcher and a relay serving it run
//! exactly the threads, by name, that they ran before — the endpoint is
//! one more listener on each daemon's own event loop.
//!
//! One test in its own binary, so no other test's threads move the
//! census. Linux-only: the census reads `/proc/self`.
#![cfg(target_os = "linux")]

use jets::core::{Dispatcher, DispatcherConfig};
use jets::relay::{Relay, RelayConfig};
use std::time::{Duration, Instant};

/// The names of this process's threads, sorted.
fn census() -> Vec<String> {
    let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm")).ok();
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|t| comm(t.ok()?))
        .collect();
    names.sort();
    names
}

#[test]
fn serving_metrics_starts_no_thread() {
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

    let d_addr = dispatcher.serve_metrics("127.0.0.1:0").unwrap().to_string();
    let r_addr = relay.serve_metrics("127.0.0.1:0").unwrap().to_string();
    let d_text = jets::obs::scrape(&d_addr, "/metrics").expect("scrape the dispatcher");
    let r_text = jets::obs::scrape(&r_addr, "/metrics").expect("scrape the relay");
    assert!(d_text.contains("jets_jobs_submitted_total"));
    assert!(r_text.contains("jets_relay_members"));

    assert_eq!(census(), before, "serving /metrics changed the thread set");
    relay.shutdown();
    dispatcher.shutdown();
}
