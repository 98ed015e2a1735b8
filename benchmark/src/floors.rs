//! Per-layer floors: single-threaded timing loops over public
//! functions of one module each. A floor is the least a layer can cost
//! per operation with nothing else going on; the end-to-end runs show
//! what it costs under load. Each value is the median of at least five
//! batches. Only non-legacy entry points are timed.

use crate::metrics::Row;
use crate::util::{median, summarize, Scratch, SplitMix64};
use jets_core::events::{EventKind, EventLog, WriterRole};
use jets_core::group::{select_group_ids, GroupScratch, GroupingPolicy};
use jets_core::journal::{self, Journal, Record};
use jets_core::protocol::{decode_msg, encode_msg_buf, TaskAssignment, TaskKind};
use jets_core::queue::{JobQueue, QueuePolicy, QueuedJob};
use jets_core::ready::ReadyList;
use jets_core::{
    CommandSpec, DispatcherMetrics, DispatcherMsg, FsyncPolicy, JobSpec, SpanKind, WorkerMsg,
};
use jets_mpi::Communicator;
use jets_pmi::{PmiClient, PmiServer, PmiServerConfig};
use jets_reactor::{CloseReason, ConnHandler, Flow, Outbox, Reactor, ReactorConfig};
use jets_ring::Ring;
use jets_trace::TraceModel;
use jets_worker::apps::standard_registry;
use jets_worker::{CancelToken, Executor, TaskExecutor};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload column of floor rows: they belong to no workload.
pub const FLOORS: &str = "floors";

const MIN_BATCHES: usize = 5;

/// Runs `batch` at least [`MIN_BATCHES`] times, then until `budget` is
/// spent; each call returns one per-operation value.
fn floor(
    metric: &str,
    unit: &str,
    budget: Duration,
    mut batch: impl FnMut() -> io::Result<f64>,
) -> io::Result<Row> {
    let started = Instant::now();
    let mut values = Vec::new();
    while values.len() < MIN_BATCHES || started.elapsed() < budget {
        values.push(batch()?);
    }
    Ok(Row::new(FLOORS, metric, unit, summarize(&values)))
}

/// ns per call of `op`, over `n` calls.
fn ns_per_op(n: usize, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        op();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn noop_assignment() -> TaskAssignment {
    TaskAssignment {
        task_id: 123_456,
        job_id: 123_456,
        kind: TaskKind::Sequential {
            cmd: CommandSpec::builtin("noop", vec![]),
        },
        stage: Vec::new(),
        trace: 0x9E37_79B9_7F4A_7C15,
    }
}

fn noop_job(id: u64) -> QueuedJob {
    let now = Instant::now();
    QueuedJob {
        id,
        spec: JobSpec::sequential(CommandSpec::builtin("noop", vec![])),
        attempts: 0,
        excluded: Vec::new(),
        submitted_at: now,
        enqueued_at: now,
        trace: id,
    }
}

/// Echoes every frame back: the smallest possible `ConnHandler`.
struct Echo {
    outbox: Option<Arc<Outbox>>,
    buf: Vec<u8>,
}

impl ConnHandler for Echo {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
    }

    fn on_frame(&mut self, frame: &[u8]) -> Flow {
        self.buf.clear();
        self.buf.extend_from_slice(frame);
        self.buf.push(b'\n');
        match &self.outbox {
            Some(out) if out.send(&self.buf) => Flow::Continue,
            _ => Flow::Close,
        }
    }

    fn on_close(&mut self, _reason: CloseReason) {}
}

/// A one-loop reactor running [`Echo`], and a blocking client on it.
fn echo_pair() -> io::Result<(Reactor, BufReader<TcpStream>)> {
    let reactor = Reactor::start(ReactorConfig {
        event_loops: 1,
        ..ReactorConfig::default()
    })?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    reactor.listen(
        listener,
        Arc::new(|_: &TcpStream, _| {
            Some(Box::new(Echo {
                outbox: None,
                buf: Vec::new(),
            }) as Box<dyn ConnHandler>)
        }),
    )?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok((reactor, BufReader::new(stream)))
}

/// Four PMI clients of one fresh server, each on its own thread,
/// running `body(rank, client)`; returns the results in rank order.
fn with_pmi4<T: Send + 'static>(
    jobid: &str,
    body: impl Fn(u32, PmiClient) -> io::Result<T> + Send + Sync + 'static,
) -> io::Result<(PmiServer, Vec<T>)> {
    let server = PmiServer::start(PmiServerConfig::new(jobid, 4))?;
    let addr = server.addr().to_string();
    let body = Arc::new(body);
    let handles: Vec<_> = (0..4u32)
        .map(|rank| {
            let (addr, jobid, body) = (addr.clone(), jobid.to_string(), Arc::clone(&body));
            std::thread::spawn(move || {
                let client =
                    PmiClient::connect(&addr, rank, 4, &jobid).map_err(io::Error::other)?;
                body(rank, client)
            })
        })
        .collect();
    let mut results = Vec::with_capacity(4);
    for h in handles {
        results.push(
            h.join()
                .map_err(|_| io::Error::other("rank thread panicked"))??,
        );
    }
    Ok((server, results))
}

pub fn all(scratch: &Scratch, seed: u64, budget: Duration) -> io::Result<Vec<Row>> {
    let mut rows = Vec::new();
    let each = budget / 27;
    let mut rng = SplitMix64::new(seed);

    // protocol: the wire codec, through the stand-in serde (README).
    let assign = DispatcherMsg::Assign(noop_assignment());
    let done = WorkerMsg::Done {
        task_id: 123_456,
        exit_code: 0,
        wall_ms: 0,
        output: None,
        trace: 0x9E37_79B9_7F4A_7C15,
    };
    let mut buf = Vec::new();
    rows.push(floor("protocol.encode_assign_ns", "ns", each, || {
        Ok(ns_per_op(20_000, || {
            encode_msg_buf(black_box(&assign), &mut buf).expect("encode");
        }))
    })?);
    let frame = buf[..buf.len() - 1].to_vec();
    rows.push(Row::single(
        FLOORS,
        "protocol.assign_frame_bytes",
        "bytes",
        buf.len() as f64,
        1,
    ));
    rows.push(floor("protocol.decode_assign_ns", "ns", each, || {
        Ok(ns_per_op(20_000, || {
            black_box(decode_msg::<DispatcherMsg>(black_box(&frame)).expect("decode"));
        }))
    })?);
    rows.push(floor("protocol.encode_done_ns", "ns", each, || {
        Ok(ns_per_op(20_000, || {
            encode_msg_buf(black_box(&done), &mut buf).expect("encode");
        }))
    })?);
    let frame = buf[..buf.len() - 1].to_vec();
    rows.push(floor("protocol.decode_done_ns", "ns", each, || {
        Ok(ns_per_op(20_000, || {
            black_box(decode_msg::<WorkerMsg>(black_box(&frame)).expect("decode"));
        }))
    })?);

    // reactor: one connection through one event loop.
    {
        let (_reactor, mut conn) = echo_pair()?;
        let mut line = Vec::new();
        rows.push(floor("reactor.echo_rtt_p50_us", "us", each, || {
            let mut rtts = Vec::with_capacity(500);
            for _ in 0..500 {
                let t = Instant::now();
                conn.get_mut()
                    .write_all(b"ping-frame-of-32-bytes-or-so....\n")?;
                line.clear();
                conn.read_until(b'\n', &mut line)?;
                rtts.push(us(t.elapsed()));
            }
            Ok(median(&rtts))
        })?);
        rows.push(floor("reactor.echo_frames_per_s", "1/s", each, || {
            const FRAMES: usize = 20_000;
            const WINDOW: usize = 64;
            let t = Instant::now();
            for sent in 0..FRAMES + WINDOW {
                if sent < FRAMES {
                    conn.get_mut()
                        .write_all(b"ping-frame-of-32-bytes-or-so....\n")?;
                }
                if sent >= WINDOW {
                    line.clear();
                    conn.read_until(b'\n', &mut line)?;
                }
            }
            Ok(FRAMES as f64 / t.elapsed().as_secs_f64())
        })?);
    }

    // queue / ready / group: the scheduler's data structures.
    rows.push(floor("queue.push_pick_ns", "ns", each, || {
        const OPS: usize = 10_000;
        let mut q = JobQueue::new(QueuePolicy::Fifo);
        for id in 0..10_000 {
            q.push(noop_job(id));
        }
        let mut fresh: Vec<QueuedJob> = (0..OPS as u64).map(noop_job).collect();
        let mut picked = Vec::with_capacity(OPS);
        let t = Instant::now();
        while let Some(job) = fresh.pop() {
            q.push(job);
            picked.push(q.pick(1));
        }
        Ok(t.elapsed().as_nanos() as f64 / OPS as f64)
    })?);
    rows.push(floor("ready.park_take_ns", "ns", each, || {
        let mut ready = ReadyList::new();
        let mut out = Vec::with_capacity(8);
        Ok(ns_per_op(20_000, || {
            for w in 0..8 {
                ready.park(w, 0);
            }
            out.clear();
            ready.take_front(8, &mut out);
            black_box(&out);
        }) / 8.0)
    })?);
    // 4 of 8 under the default policy (what `mpi_gang4` runs); 64 of
    // 1024 over 16 locations under the location-aware one, the only
    // number for allocation sizes this host cannot run.
    let ready8: Vec<(u64, u32)> = (0..8).map(|w| (w, 0)).collect();
    let ready1024: Vec<(u64, u32)> = (0..1024).map(|w| (w, rng.range(0, 15) as u32)).collect();
    let mut group_scratch = GroupScratch::new();
    rows.push(floor("group.select4of8_ns", "ns", each, || {
        Ok(ns_per_op(50_000, || {
            black_box(select_group_ids(
                GroupingPolicy::Fcfs,
                black_box(&ready8),
                4,
                &mut group_scratch,
            ));
        }))
    })?);
    rows.push(floor("group.select64of1024_ns", "ns", each, || {
        Ok(ns_per_op(2_000, || {
            black_box(select_group_ids(
                GroupingPolicy::LocationAware,
                black_box(&ready1024),
                64,
                &mut group_scratch,
            ));
        }))
    })?);

    // journal: append per fsync policy, then the read side.
    let wal = scratch.path("floor.wal");
    let ended = Record::TaskEnded {
        job: 123_456,
        task: 123_456,
        exit_code: 0,
    };
    rows.push(floor("journal.append_ns", "ns", each, || {
        std::fs::remove_file(&wal).ok();
        let (j, _) = Journal::open(&wal, FsyncPolicy::Never)?;
        Ok(ns_per_op(10_000, || j.append(&ended).expect("append")))
    })?);
    // Disk-dependent; informational.
    rows.push(floor("journal.append_fsync_us", "us", each, || {
        std::fs::remove_file(&wal).ok();
        let (j, _) = Journal::open(&wal, FsyncPolicy::Always)?;
        Ok(ns_per_op(10, || j.append(&ended).expect("append")) / 1e3)
    })?);
    std::fs::remove_file(&wal).ok();
    {
        let (j, _) = Journal::open(&wal, FsyncPolicy::Never)?;
        let batch: Vec<Record> = (0..10_000u64)
            .flat_map(|job| {
                [
                    Record::Submitted {
                        job,
                        spec: JobSpec::sequential(CommandSpec::builtin("noop", vec![])),
                    },
                    Record::Enqueued { job, attempts: 0 },
                ]
            })
            .collect();
        j.append_all(&batch)?;
    }
    let mut records = Vec::new();
    rows.push(floor("journal.scan_ns_per_record", "ns", each, || {
        let t = Instant::now();
        records = journal::scan(&wal)?.records;
        Ok(t.elapsed().as_nanos() as f64 / records.len() as f64)
    })?);
    rows.push(floor("journal.recover_ns_per_record", "ns", each, || {
        let t = Instant::now();
        black_box(journal::recover(black_box(&records)));
        Ok(t.elapsed().as_nanos() as f64 / records.len() as f64)
    })?);

    // events / ring: the flight recorder's write path.
    let log = EventLog::with_capacity(1 << 16);
    rows.push(floor("events.record_ns", "ns", each, || {
        Ok(ns_per_op(50_000, || {
            log.record(black_box(EventKind::TaskStarted {
                task: 1,
                job: 2,
                worker: 3,
                ranks: 1,
            }));
        }))
    })?);
    rows.push(floor("events.span_pair_ns", "ns", each, || {
        Ok(ns_per_op(50_000, || {
            log.span_start(7, SpanKind::Sched, WriterRole::Dispatcher, 2, 0);
            log.span_end(7, SpanKind::Sched, WriterRole::Dispatcher, 2, 0);
        }))
    })?);
    let ring = Ring::anon(1 << 16);
    let payload = [0xA5u8; 64];
    rows.push(floor("ring.push_ns", "ns", each, || {
        Ok(ns_per_op(100_000, || {
            black_box(ring.push(black_box(&payload)));
        }))
    })?);
    {
        let stop = Arc::new(AtomicBool::new(false));
        let mut reader = ring.reader();
        let reader_stop = Arc::clone(&stop);
        let spinner = std::thread::spawn(move || {
            while !reader_stop.load(Ordering::Relaxed) {
                while black_box(reader.poll()).is_some() {}
            }
        });
        let row = floor("ring.push_with_reader_ns", "ns", each, || {
            Ok(ns_per_op(100_000, || {
                black_box(ring.push(black_box(&payload)));
            }))
        });
        stop.store(true, Ordering::Relaxed);
        spinner
            .join()
            .map_err(|_| io::Error::other("ring reader panicked"))?;
        rows.push(row?);
    }

    // obs: the metric surface.
    let metrics = DispatcherMetrics::new();
    rows.push(floor("obs.histogram_record_ns", "ns", each, || {
        let mut v = 1u64;
        Ok(ns_per_op(100_000, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            metrics.phase_queue.record(black_box(v >> 44));
        }))
    })?);
    rows.push(floor("obs.render_us", "us", each, || {
        Ok(ns_per_op(50, || {
            black_box(metrics.render());
        }) / 1e3)
    })?);

    // pmi: server + 4 client threads, put / fence / get per round.
    rows.push(floor("pmi.fence4_p50_us", "us", each, || {
        let (server, rounds) = with_pmi4("bench-fence", |rank, mut c| {
            let mut rounds = Vec::with_capacity(50);
            for i in 0..50 {
                let t = Instant::now();
                c.put(&format!("k{rank}-{i}"), "v")
                    .map_err(io::Error::other)?;
                c.fence().map_err(io::Error::other)?;
                c.get(&format!("k{}-{i}", (rank + 1) % 4))
                    .map_err(io::Error::other)?;
                rounds.push(us(t.elapsed()));
            }
            c.finalize().map_err(io::Error::other)?;
            Ok(rounds)
        })?;
        drop(server);
        Ok(median(&rounds[0]))
    })?);

    // mpi: TCP wire-up through PMI, then barriers on the wired mesh.
    let mut barrier_p50s = Vec::new();
    rows.push(floor("mpi.wireup4_p50_us", "us", each, || {
        let mut wireups = Vec::with_capacity(5);
        for _ in 0..5 {
            let t = Instant::now();
            let (server, ranks) = with_pmi4("bench-wireup", |_, mut pmi| {
                let comm = Communicator::via_pmi(&mut pmi).map_err(io::Error::other)?;
                Ok((pmi, comm))
            })?;
            wireups.push(us(t.elapsed()));
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|(mut pmi, mut comm)| {
                    std::thread::spawn(move || -> io::Result<Vec<f64>> {
                        let mut barriers = Vec::with_capacity(100);
                        for _ in 0..100 {
                            let t = Instant::now();
                            comm.barrier().map_err(io::Error::other)?;
                            barriers.push(us(t.elapsed()));
                        }
                        comm.finalize().map_err(io::Error::other)?;
                        pmi.finalize().map_err(io::Error::other)?;
                        Ok(barriers)
                    })
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                let barriers = h.join().map_err(|_| io::Error::other("rank panicked"))??;
                if rank == 0 {
                    barrier_p50s.push(median(&barriers));
                }
            }
            drop(server);
        }
        Ok(median(&wireups))
    })?);
    rows.push(Row::new(
        FLOORS,
        "mpi.barrier4_p50_us",
        "us",
        summarize(&barrier_p50s),
    ));

    // worker: the executor alone, no agent, no socket.
    let executor = Executor::new(standard_registry());
    let (assignment, cancel) = (noop_assignment(), CancelToken::new());
    rows.push(floor("worker.execute_noop_ns", "ns", each, || {
        Ok(ns_per_op(50_000, || {
            black_box(executor.execute_cancellable(black_box(&assignment), &cancel));
        }))
    })?);

    // trace: merging a dispatcher lane of 5 000 six-span jobs.
    let lane = scratch.path("floor.ring");
    {
        let log = EventLog::file_backed_with_role(&lane, 1 << 17, WriterRole::Dispatcher)?;
        for job in 1..=5_000u64 {
            for kind in [
                SpanKind::Submit,
                SpanKind::Queue,
                SpanKind::Sched,
                SpanKind::Ship,
                SpanKind::Run,
                SpanKind::Report,
            ] {
                log.span_start(job, kind, WriterRole::Dispatcher, job, 0);
                log.span_end(job, kind, WriterRole::Dispatcher, job, 0);
            }
        }
        log.sync()?;
    }
    rows.push(floor("trace.build_us_per_kspan", "us", each, || {
        let t = Instant::now();
        let model = TraceModel::from_files(&[&lane])?;
        Ok(us(t.elapsed()) / (model.spans.len() as f64 / 1e3))
    })?);

    // swiftlite: the parser over a 1 000-statement script.
    let script: String = (0..250)
        .map(|i| {
            format!(
                "int n{i} = {i} + 2 * 3;\nstring s{i} = strcat(\"a\", n{i});\n\
                 foreach j{i} in [0:9] {{ trace(j{i}); }}\n\
                 if (n{i} %% 2 == 1) {{ trace(1); }} else {{ trace(2); }}\n"
            )
        })
        .collect();
    rows.push(floor("swiftlite.parse_us_per_kstmt", "us", each, || {
        let t = Instant::now();
        let program = swiftlite::parse(black_box(&script)).map_err(io::Error::other)?;
        Ok(us(t.elapsed()) / (program.body.len() as f64 / 1e3))
    })?);

    Ok(rows)
}
