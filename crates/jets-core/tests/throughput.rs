//! Loopback throughput and contention tests for the dispatcher hot path.
//!
//! These drive the real TCP socket path with raw-protocol workers using
//! the buffered wire API ([`MsgReader`]/[`MsgWriter`]), exercising:
//!
//! * many workers × many short jobs submitted as one batch, and a burst
//!   of `Request`s parked before any job exists, which one submission
//!   must drain;
//! * a heartbeat flood running concurrently with scheduling — each
//!   heartbeat is one input on the dispatcher's one event loop, and the
//!   loop takes one frame per connection per readiness event, so the
//!   flood must not stall job completion;
//! * oversized frames, which must drop the offending connection without
//!   taking the dispatcher down;
//! * a worker's `Done` and next `Request` arriving as one segment, or
//!   cut anywhere between two — the turnaround the agent's paired send
//!   puts on the wire.

use jets_core::protocol::{
    encode_msg_buf, DispatcherMsg, MsgReader, MsgWriter, WorkerMsg, MAX_FRAME_BYTES,
};
use jets_core::spec::{CommandSpec, JobSpec};
use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

/// A minimal raw-protocol worker on the buffered wire paths: requests
/// work and reports success until the dispatcher says `Shutdown`.
fn worker(addr: SocketAddr) -> thread::JoinHandle<usize> {
    thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).ok();
        let mut writer = MsgWriter::new(stream.try_clone().unwrap());
        let mut reader = MsgReader::new(BufReader::new(stream));
        writer
            .send(&WorkerMsg::Register {
                name: "loopback".into(),
                cores: 1,
                location: "rack-0".into(),
            })
            .unwrap();
        let Ok(Some(DispatcherMsg::Registered { .. })) = reader.recv::<DispatcherMsg>() else {
            panic!("expected Registered");
        };
        let mut done = 0usize;
        loop {
            writer.send(&WorkerMsg::Request).unwrap();
            match reader.recv::<DispatcherMsg>().unwrap() {
                Some(DispatcherMsg::Assign(a)) => {
                    writer
                        .send(&WorkerMsg::Done {
                            task_id: a.task_id,
                            exit_code: 0,
                            wall_ms: 0,
                            output: None,
                            trace: a.trace,
                        })
                        .unwrap();
                    done += 1;
                }
                Some(DispatcherMsg::Shutdown) | None => break,
                other => panic!("unexpected message: {other:?}"),
            }
        }
        let _ = writer.send(&WorkerMsg::Goodbye);
        done
    })
}

/// Many workers race through many short jobs submitted as one batch.
/// Every job must succeed and every completion must be accounted for —
/// no lost `Request`, no double assignment.
#[test]
fn loopback_many_workers_many_short_jobs() {
    const WORKERS: usize = 16;
    const JOBS: usize = 400;
    let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let handles: Vec<_> = (0..WORKERS).map(|_| worker(d.addr())).collect();
    let ids =
        d.submit_all((0..JOBS).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
    assert!(d.wait_idle(WAIT), "jobs did not drain");
    for id in ids {
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
    }
    // The batch can drain before the last worker thread has connected;
    // a shutdown now would refuse it, and it expects to register.
    while d.workers().len() < WORKERS {
        thread::sleep(Duration::from_millis(1));
    }
    d.shutdown();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, JOBS, "every job ran exactly once");
}

/// Workers all park *before* any job exists, so the one scheduling pass
/// of the submission must place every job on the parked workers.
#[test]
fn request_burst_before_submission_is_fully_absorbed() {
    const WORKERS: usize = 8;
    let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let handles: Vec<_> = (0..WORKERS).map(|_| worker(d.addr())).collect();
    // Wait for all workers to register and park their first Request.
    let deadline = std::time::Instant::now() + WAIT;
    while d.alive_workers() < WORKERS {
        assert!(
            std::time::Instant::now() < deadline,
            "workers never arrived"
        );
        thread::sleep(Duration::from_millis(5));
    }
    thread::sleep(Duration::from_millis(50));
    let ids =
        d.submit_all((0..WORKERS).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
    assert!(d.wait_idle(WAIT));
    for id in ids {
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
    }
    d.shutdown();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, WORKERS);
}

/// Registered workers hammer heartbeats as fast as the socket allows
/// while other workers churn through a batch. Heartbeats share the event
/// loop with everything else, so the flood must not stall scheduling.
#[test]
fn heartbeat_flood_does_not_stall_scheduling() {
    const FLOODERS: usize = 4;
    const WORKERS: usize = 4;
    const JOBS: usize = 200;
    let d = Dispatcher::start(DispatcherConfig {
        heartbeat_timeout: Some(Duration::from_secs(10)),
        ..DispatcherConfig::default()
    })
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = (0..FLOODERS)
        .map(|i| {
            let addr = d.addr();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = MsgWriter::new(stream.try_clone().unwrap());
                let mut reader = MsgReader::new(BufReader::new(stream));
                writer
                    .send(&WorkerMsg::Register {
                        name: format!("flood{i}"),
                        cores: 1,
                        location: "storm".into(),
                    })
                    .unwrap();
                let _ = reader.recv::<DispatcherMsg>().unwrap();
                let mut beats = 0u64;
                while !stop.load(Ordering::Acquire) {
                    if writer.send(&WorkerMsg::Heartbeat).is_err() {
                        break;
                    }
                    beats += 1;
                }
                let _ = writer.send(&WorkerMsg::Goodbye);
                beats
            })
        })
        .collect();

    let handles: Vec<_> = (0..WORKERS).map(|_| worker(d.addr())).collect();
    let ids =
        d.submit_all((0..JOBS).map(|_| JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
    assert!(
        d.wait_idle(WAIT),
        "scheduling stalled under heartbeat flood"
    );
    for id in ids {
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
    }
    stop.store(true, Ordering::Release);
    let beats: u64 = flooders.into_iter().map(|f| f.join().unwrap()).sum();
    assert!(beats > 0, "the flood never ran");
    d.shutdown();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, JOBS);
}

/// A connection that sends an oversized frame is dropped without
/// buffering the whole line, and the dispatcher keeps serving others.
#[test]
fn oversized_frame_drops_connection_not_dispatcher() {
    let d = Dispatcher::start(DispatcherConfig::default()).unwrap();

    let mut evil = TcpStream::connect(d.addr()).unwrap();
    // One newline-free blob just past the cap. The server may close the
    // connection before consuming it all, so a write error is fine.
    let blob = vec![b'x'; MAX_FRAME_BYTES + 2];
    let _ = evil.write_all(&blob);
    let _ = evil.flush();
    // The server must hang up (EOF or reset) instead of accumulating.
    evil.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut sink = [0u8; 64];
    match evil.read(&mut sink) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server sent {n} unexpected bytes"),
    }

    // The dispatcher is still healthy: a normal worker completes a job.
    let h = worker(d.addr());
    let id = d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![])));
    assert!(d.wait_idle(WAIT));
    assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
    d.shutdown();
    assert_eq!(h.join().unwrap(), 1);
}

/// A raw worker whose every turnaround is `Done` + `Request` back to
/// back, first as one segment and then cut at every byte boundary into
/// two writes (with a pause, so the halves land in separate reads).
/// Wherever the cut falls — inside `Done`, between the frames, inside
/// `Request` — the dispatcher must see exactly one completion and one
/// request: each job succeeds on its first attempt and the worker is
/// handed the next.
#[test]
fn coalesced_done_and_request_survive_any_segmentation() {
    let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let stream = TcpStream::connect(d.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(WAIT)).unwrap();
    let mut wire = stream.try_clone().unwrap();
    let mut reader = MsgReader::new(BufReader::new(stream));
    let mut buf = Vec::new();
    let mut frame = |msg: &WorkerMsg| {
        encode_msg_buf(msg, &mut buf).unwrap();
        buf.clone()
    };
    wire.write_all(&frame(&WorkerMsg::Register {
        name: "paired".into(),
        cores: 1,
        location: "rack-0".into(),
    }))
    .unwrap();
    let Ok(Some(DispatcherMsg::Registered { .. })) = reader.recv::<DispatcherMsg>() else {
        panic!("expected Registered");
    };
    wire.write_all(&frame(&WorkerMsg::Request)).unwrap();

    // One job per turnaround, so the parked `Request` of the previous
    // pair is what earns the next `Assign`. Cut 0 is the unsplit segment;
    // the sweep ends once the cut has passed the end of the pair.
    let mut ids = Vec::new();
    let mut pair_len = 0;
    for cut in 0.. {
        ids.push(d.submit(JobSpec::sequential(CommandSpec::builtin("ok", vec![]))));
        let Ok(Some(DispatcherMsg::Assign(a))) = reader.recv::<DispatcherMsg>() else {
            panic!("no Assign after turnaround {cut}");
        };
        let mut pair = frame(&WorkerMsg::Done {
            task_id: a.task_id,
            exit_code: 0,
            wall_ms: 0,
            output: None,
            trace: a.trace,
        });
        pair.extend(frame(&WorkerMsg::Request));
        pair_len = pair.len();
        if cut >= pair.len() {
            wire.write_all(&pair).unwrap();
            break;
        }
        wire.write_all(&pair[..cut]).unwrap();
        if cut > 0 {
            // Let the first part be read on its own.
            thread::sleep(Duration::from_millis(2));
        }
        wire.write_all(&pair[cut..]).unwrap();
    }
    let jobs = ids.len();
    assert!(
        jobs > pair_len,
        "the sweep covered a whole Done+Request pair"
    );
    assert!(d.wait_idle(WAIT), "jobs did not drain");
    for id in ids {
        let record = d.job_record(id).unwrap();
        assert_eq!(record.status, JobStatus::Succeeded);
        assert_eq!(record.attempts, 1, "a completion was lost or seen twice");
    }
    assert_eq!(d.metrics().jobs_completed_total.get(), jobs as u64);
    d.shutdown();
}
