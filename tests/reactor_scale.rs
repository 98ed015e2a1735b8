//! Tier-1 acceptance for the event-driven connection core: with 512
//! live worker connections, the dispatcher's OS thread count stays
//! O(event loops), not O(connections). Under the old design every
//! connection cost a blocking reader thread plus a writer thread, so
//! this workload would have added ~1024 threads; the reactor multiplexes
//! all of it onto the dispatcher's one event loop.
//!
//! Linux-only: the thread census reads `/proc/self`.
#![cfg(target_os = "linux")]

use jets::core::protocol::{DispatcherMsg, MsgReader, MsgWriter, WorkerMsg};
use jets::core::{Dispatcher, DispatcherConfig};
use std::io::BufReader;
use std::net::TcpStream;

/// Connections held open simultaneously (the issue's floor).
const CONNS: usize = 512;

/// Thread-count slack: the monitor, the test harness's own threads. Far
/// below one-per-connection either way.
const SLACK: usize = 32;

/// Threads of this process named `jets-reactor-*`: event loops.
fn event_loop_threads() -> usize {
    let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm")).ok();
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|t| comm(t.ok()?))
        .filter(|name| name.starts_with("jets-reactor"))
        .count()
}

/// `Threads:` from `/proc/self/status` — every thread in this process.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

#[test]
fn thread_bill_is_one_event_loop_at_512_connections() {
    let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let addr = d.addr().to_string();
    // Snapshot after start: the event loops and monitor are running, so
    // any growth from here on is attributable to connections.
    let before = thread_count();

    // 512 raw workers, registered sequentially over blocking sockets
    // and held open. No client-side threads: the register ack proves
    // the dispatcher processed each handshake.
    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let sock = TcpStream::connect(&addr).unwrap();
        let mut writer = MsgWriter::new(sock.try_clone().unwrap());
        let mut reader = MsgReader::new(BufReader::new(sock));
        writer
            .send(&WorkerMsg::Register {
                name: format!("scale-{i}"),
                cores: 1,
                location: "scale".to_string(),
            })
            .unwrap();
        let ack: Option<DispatcherMsg> = reader.recv().unwrap();
        assert!(
            matches!(ack, Some(DispatcherMsg::Registered { .. })),
            "connection {i}: expected Registered ack, got {ack:?}"
        );
        conns.push((reader, writer));
    }

    assert_eq!(d.alive_workers(), CONNS, "all raw workers registered");
    let after = thread_count();
    let grown = after.saturating_sub(before);
    assert!(
        grown < SLACK,
        "thread count grew by {grown} across {CONNS} connections \
         (before={before}, after={after}); the reactor should hold it O(event loops)"
    );
    assert_eq!(
        event_loop_threads(),
        1,
        "the dispatcher runs one event loop"
    );

    d.shutdown();
    drop(conns);
}
