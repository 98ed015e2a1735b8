//! Dispatcher ⇄ worker wire protocol.
//!
//! One TCP connection per worker, carrying newline-delimited JSON
//! messages. The worker speaks first (`Register`), then loops
//! `Request → Assign → Done`. Fault detection rests on this connection:
//! an EOF or read error is the dispatcher's signal that the pilot job
//! died, exactly as in the paper's faulty-allocation experiment (Fig. 10).
//!
//! ## Buffer-reuse contract
//!
//! The hot paths on both sides of the connection reuse one encode buffer
//! (`Vec<u8>`) per writer and one line buffer (`String`) per reader, so a
//! steady stream of `Request`/`Assign`/`Done`/`Heartbeat` messages makes
//! **zero** allocations once the buffers have grown to the workload's
//! high-water mark. [`write_msg_buf`] / [`read_msg_buf`] expose the
//! buffers explicitly; [`MsgWriter`] / [`MsgReader`] own them for callers
//! that keep a connection around. The legacy [`write_msg`] / [`read_msg`]
//! entry points allocate fresh buffers per call and remain for one-shot
//! use and tests; both paths produce identical bytes on the wire.
//!
//! Every frame (one JSON line, newline included) is capped at
//! [`MAX_FRAME_BYTES`]: a corrupt or hostile peer cannot OOM the process
//! with a single unbounded line — the read fails with
//! [`io::ErrorKind::InvalidData`] and the connection is torn down.

use crate::spec::{CommandSpec, JobId, StageFile, TaskId};
use serde::{de::DeserializeOwned, Deserialize, Serialize};
use std::io::{self, BufRead, Read, Write};

/// Messages a worker sends to the dispatcher.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerMsg {
    /// First message on the connection: announce this pilot job.
    Register {
        /// Human-readable worker name (diagnostics only).
        name: String,
        /// Cores the node offers (capacity metadata).
        cores: u32,
        /// Network location label (cluster/rack); used by the
        /// location-aware grouping policy.
        location: String,
    },
    /// Ready for work; the dispatcher replies when it has an assignment.
    Request,
    /// A previously assigned task finished.
    Done {
        /// Which task.
        task_id: TaskId,
        /// Process (or builtin) exit code; 0 is success.
        exit_code: i32,
        /// Wall time of the execution in milliseconds.
        wall_ms: u64,
        /// Captured standard output (tail), routed app → proxy →
        /// dispatcher exactly as the paper's Section 6.1.6 describes.
        #[serde(default)]
        output: Option<String>,
        /// The job's trace id, echoed from the assignment so span
        /// events on both ends of the wire join one timeline (0 from
        /// peers predating tracing).
        #[serde(default)]
        trace: u64,
    },
    /// Liveness signal while busy or idle.
    Heartbeat,
    /// Orderly sign-off (allocation expiring).
    Goodbye,
    /// First message on a **relay** connection: this peer is not a worker
    /// but a relay daemon fronting a block of workers (`jets-relay`). The
    /// dispatcher replies with [`DispatcherMsg::Registered`] carrying the
    /// relay's own id, then expects only relay-scoped frames
    /// (`RelayRegister` / `RelayRequest` / `RelayDone` /
    /// `BatchedHeartbeat` / `RelayWorkerGone`) on this connection.
    RelayHello {
        /// Human-readable relay name (diagnostics only).
        name: String,
        /// Location label the relay fronts (cluster/rack).
        location: String,
    },
    /// A worker registered at the relay; the relay forwards the
    /// registration upstream. `local` is the relay's own handle for the
    /// worker — the dispatcher echoes it back in
    /// [`DispatcherMsg::RelayRegistered`] together with the global
    /// [`WorkerId`](crate::spec) it assigned, so the relay can fill its
    /// routing table.
    RelayRegister {
        /// Relay-local worker handle (unique per relay lifetime).
        local: u64,
        /// Worker name, as in [`WorkerMsg::Register`].
        name: String,
        /// Cores the node offers.
        cores: u32,
        /// Network location label.
        location: String,
    },
    /// Routed envelope for a relayed worker's `Request`.
    RelayRequest {
        /// Dispatcher-assigned id of the requesting worker.
        worker: u64,
    },
    /// Routed envelope for a relayed worker's `Done`.
    RelayDone {
        /// Dispatcher-assigned id of the reporting worker.
        worker: u64,
        /// Which task.
        task_id: TaskId,
        /// Process (or builtin) exit code; 0 is success.
        exit_code: i32,
        /// Wall time of the execution in milliseconds.
        wall_ms: u64,
        /// Captured standard output (tail).
        #[serde(default)]
        output: Option<String>,
        /// The job's trace id, echoed from the assignment (0 from
        /// peers predating tracing).
        #[serde(default)]
        trace: u64,
    },
    /// Coalesced liveness for a relay's whole block: one periodic frame
    /// replaces per-worker `Heartbeat` traffic upstream. Each listed
    /// worker was heard from recently at the relay; the dispatcher feeds
    /// every id into the same lock-free AtomicU64 liveness path a direct
    /// heartbeat takes.
    BatchedHeartbeat {
        /// Dispatcher-assigned ids of workers the relay vouches for.
        workers: Vec<u64>,
    },
    /// A relayed worker disconnected from its relay (death or partition).
    /// The dispatcher treats this exactly like a direct worker's EOF:
    /// `Core::worker_down`, gang cancellation for its in-flight task.
    RelayWorkerGone {
        /// Dispatcher-assigned id of the departed worker.
        worker: u64,
    },
    /// Sent by a direct worker right after a [`DispatcherMsg::Registered`]
    /// ack when it is carrying state from a previous dispatcher session:
    /// the task still running from before the outage, if any. A freshly
    /// restarted dispatcher uses these claims during its reconciliation
    /// window to re-adopt surviving gangs instead of relaunching them; an
    /// established dispatcher answers an unknown claim with
    /// [`DispatcherMsg::Cancel`] so the worker frees itself.
    SessionState {
        /// `(task, job)` the worker is still running, or `None` if it
        /// re-registered idle.
        running: Option<(TaskId, JobId)>,
    },
    /// Relay-routed equivalent of [`WorkerMsg::SessionState`]: after the
    /// relay re-registers a member upstream, it reports the member's
    /// in-flight task so a restarted dispatcher can re-adopt the gang.
    RelayMemberState {
        /// Dispatcher-assigned id of the member (from the fresh
        /// [`DispatcherMsg::RelayRegistered`] ack).
        worker: u64,
        /// The task the member is still running.
        task_id: TaskId,
        /// The job that task belongs to.
        job_id: JobId,
    },
}

/// Messages the dispatcher sends to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DispatcherMsg {
    /// Registration accepted; `worker_id` names this worker from now on.
    Registered {
        /// Dispatcher-assigned identifier.
        worker_id: u64,
    },
    /// Run this task (reply to `Request`).
    Assign(TaskAssignment),
    /// Kill the named in-flight task: its gang is being torn down (a peer
    /// died, the job's deadline passed, or an assignment was
    /// undeliverable). The worker kills the task's processes, reports
    /// `Done` with [`EXIT_CANCELED`], and goes back to requesting work.
    /// Ignored if the task already completed (the race is benign: the
    /// dispatcher drops the stale report).
    Cancel {
        /// The task to kill.
        task_id: TaskId,
    },
    /// No more work will come; the worker should exit.
    Shutdown,
    /// Ack of a [`WorkerMsg::RelayRegister`]: the dispatcher assigned
    /// `worker_id` to the relay-local worker `local`. The relay records
    /// the `local ↔ worker_id` mapping and forwards a plain
    /// [`DispatcherMsg::Registered`] downstream.
    RelayRegistered {
        /// The relay-local handle echoed from the registration.
        local: u64,
        /// The dispatcher-assigned global worker id.
        worker_id: u64,
    },
    /// Routed envelope for an `Assign` to a relayed worker: the relay
    /// unwraps it and delivers a plain [`DispatcherMsg::Assign`] to the
    /// addressed worker.
    RelayAssign {
        /// Dispatcher-assigned id of the target worker.
        worker: u64,
        /// The assignment itself.
        assignment: TaskAssignment,
    },
    /// Routed envelope for a `Cancel` to a relayed worker.
    RelayCancel {
        /// Dispatcher-assigned id of the target worker.
        worker: u64,
        /// The task to kill.
        task_id: TaskId,
    },
}

// The synthetic exit-code registry lives in `spec.rs` (the one file
// allowed to write the sentinel literals; see jets-lint rule J5).
// Re-exported here because every protocol peer needs them alongside the
// envelope types.
pub use crate::spec::{EXIT_CANCELED, EXIT_DEADLINE, EXIT_UNDELIVERABLE, EXIT_WORKER_LOST};

/// One unit of work shipped to one worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskAssignment {
    /// Unique task identifier.
    pub task_id: TaskId,
    /// Job this task belongs to.
    pub job_id: JobId,
    /// Sequential command or MPI proxy description.
    pub kind: TaskKind,
    /// Files the worker must stage to node-local storage first.
    #[serde(default)]
    pub stage: Vec<StageFile>,
    /// The job's 64-bit trace id, minted at submission. Rides every
    /// `Assign`/`RelayAssign` so the relay and worker can emit span
    /// events into their own flight recorders under the same id (0
    /// from dispatchers predating tracing).
    #[serde(default)]
    pub trace: u64,
}

/// The two shapes of work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// A single-process job (no PMI involved).
    Sequential {
        /// What to run.
        cmd: CommandSpec,
    },
    /// One MPI proxy: start `ranks.len()` ranks of an MPI job of `size`
    /// total ranks, each configured (via `PMI_*` environment) to connect
    /// back to the job's PMI server at `pmi_addr`.
    MpiProxy {
        /// What each rank runs.
        cmd: CommandSpec,
        /// The ranks this node hosts.
        ranks: Vec<u32>,
        /// Total ranks in the job.
        size: u32,
        /// `host:port` of the job's PMI server.
        pmi_addr: String,
        /// PMI job identifier.
        pmi_jobid: String,
    },
}

impl TaskAssignment {
    /// The command this assignment runs.
    pub fn cmd(&self) -> &CommandSpec {
        match &self.kind {
            TaskKind::Sequential { cmd } => cmd,
            TaskKind::MpiProxy { cmd, .. } => cmd,
        }
    }
}

/// Upper bound on one wire frame — a JSON line, its trailing newline
/// included. Large enough for any sane task assignment or output tail
/// (16 MiB), small enough that a corrupt length-less stream cannot OOM
/// the dispatcher through a single `read_line`.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Write one message as a JSON line (allocates a fresh buffer; see
/// [`write_msg_buf`] for the reusable-buffer variant the hot paths use).
pub fn write_msg<M: Serialize>(writer: &mut impl Write, msg: &M) -> io::Result<()> {
    let mut buf = Vec::with_capacity(128);
    write_msg_buf(writer, msg, &mut buf)
}

/// Write one message as a JSON line, encoding into `buf` (cleared first,
/// capacity kept) so steady-state traffic never allocates. Frames larger
/// than [`MAX_FRAME_BYTES`] are refused with `InvalidData` before
/// anything reaches the wire.
pub fn write_msg_buf<M: Serialize>(
    writer: &mut impl Write,
    msg: &M,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    encode_msg_buf(msg, buf)?;
    writer.write_all(buf)
}

/// Encode one message as a newline-terminated JSON frame into `buf`
/// (cleared first, capacity kept) without touching any socket. This is
/// the half of [`write_msg_buf`] the reactor paths use: the frame is
/// queued on a nonblocking outbox instead of written inline, so the
/// encoder must never block. Frames larger than [`MAX_FRAME_BYTES`]
/// are refused with `InvalidData` before anything is queued.
pub fn encode_msg_buf<M: Serialize>(msg: &M, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    encode_msg_append(msg, buf)
}

/// Append one newline-terminated JSON frame to `buf`, keeping whatever
/// whole frames it already holds — how several messages become one
/// `write`. A refused frame (encode error, or larger than
/// [`MAX_FRAME_BYTES`]) is rolled back: `buf` never ends in a partial
/// frame.
fn encode_msg_append<M: Serialize>(msg: &M, buf: &mut Vec<u8>) -> io::Result<()> {
    let start = buf.len();
    let encoded = serde_json::to_writer(&mut *buf, msg)
        .map_err(io::Error::other)
        .and_then(|()| {
            buf.push(b'\n');
            let len = buf.len() - start;
            if len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("outgoing frame of {len} bytes exceeds MAX_FRAME_BYTES"),
                ));
            }
            Ok(())
        });
    if encoded.is_err() {
        buf.truncate(start);
    }
    encoded
}

/// Decode one already-reassembled frame body into a message. This is
/// the read-side half of [`encode_msg_buf`] for reactor paths: the
/// reactor delivers complete frames (trailing newline stripped), so no
/// buffered reader is involved.
pub fn decode_msg<M: DeserializeOwned>(frame: &[u8]) -> io::Result<M> {
    let text =
        std::str::from_utf8(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    serde_json::from_str(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Read one JSON-line message; `Ok(None)` on clean EOF (allocates a fresh
/// frame buffer; see [`read_msg_buf`] for the reusable-buffer variant).
pub fn read_msg<M: DeserializeOwned>(reader: &mut impl BufRead) -> io::Result<Option<M>> {
    read_msg_buf(reader, &mut Vec::new())
}

/// Read one JSON-line message into the reused `frame` buffer (emptied
/// once the message is decoded, capacity kept); `Ok(None)` on clean EOF.
/// A read that fails part-way — `WouldBlock`/`TimedOut` from a socket
/// with a read timeout — leaves what arrived in `frame`, and the next
/// call with the same buffer carries on from it, losing no byte. Frames
/// longer than [`MAX_FRAME_BYTES`] yield `InvalidData` instead of
/// growing without bound — the connection should be dropped, since the
/// remainder of the oversized line is still in flight.
pub fn read_msg_buf<M: DeserializeOwned>(
    reader: &mut impl BufRead,
    frame: &mut Vec<u8>,
) -> io::Result<Option<M>> {
    // `take` bounds how much one frame can pull in; one extra byte
    // distinguishes "exactly at the cap" from "over it".
    let room = (MAX_FRAME_BYTES + 1).saturating_sub(frame.len()) as u64;
    let n = (&mut *reader).take(room).read_until(b'\n', frame)?;
    if n == 0 && frame.is_empty() {
        return Ok(None);
    }
    let msg = if frame.len() > MAX_FRAME_BYTES {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "incoming frame exceeds MAX_FRAME_BYTES",
        ))
    } else {
        decode_msg(frame)
    };
    frame.clear();
    msg.map(Some)
}

/// A connection write half plus its reused encode buffer.
///
/// Owns the buffer-reuse contract for long-lived connections: every
/// [`MsgWriter::send`] encodes into the same `Vec<u8>`. Frames can also
/// be [`queue`](MsgWriter::queue)d and then written together by one
/// [`flush`](MsgWriter::flush), so messages that are ready at the same
/// moment cost the peer one read instead of one each.
#[derive(Debug)]
pub struct MsgWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> MsgWriter<W> {
    /// Wrap a write half.
    pub fn new(inner: W) -> Self {
        MsgWriter {
            inner,
            buf: Vec::with_capacity(256),
        }
    }

    /// Encode one message behind the frames already queued, writing
    /// nothing. A refused message queues nothing.
    pub fn queue<M: Serialize>(&mut self, msg: &M) -> io::Result<()> {
        encode_msg_append(msg, &mut self.buf)
    }

    /// Write every queued frame with a single `write_all`. The queue is
    /// empty afterwards whether or not the write succeeded: a frame that
    /// missed a dying wire is the caller's to replay on the next one, and
    /// must not ride along with whatever this writer is handed later.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.inner.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// Send one message (plus anything queued before it) now.
    pub fn send<M: Serialize>(&mut self, msg: &M) -> io::Result<()> {
        self.queue(msg)?;
        self.flush()
    }

    /// Send two messages as one write — a worker's `Done` and its next
    /// `Request`. Either both frames reach the writer or neither does.
    pub fn send_pair<A: Serialize, B: Serialize>(
        &mut self,
        first: &A,
        second: &B,
    ) -> io::Result<()> {
        let mark = self.buf.len();
        if let Err(err) = self.queue(first).and_then(|()| self.queue(second)) {
            self.buf.truncate(mark);
            return Err(err);
        }
        self.flush()
    }

    /// Access the underlying writer (e.g. to shut a socket down).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Mutable access to the underlying writer (e.g. to drain a sink
    /// between benchmark iterations).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

/// A connection read half plus its reused frame buffer.
#[derive(Debug)]
pub struct MsgReader<R: BufRead> {
    inner: R,
    frame: Vec<u8>,
}

impl<R: BufRead> MsgReader<R> {
    /// Wrap a (buffered) read half.
    pub fn new(inner: R) -> Self {
        MsgReader {
            inner,
            frame: Vec::with_capacity(256),
        }
    }

    /// Receive one message, reusing the internal frame buffer; `Ok(None)`
    /// on clean EOF. As with [`read_msg_buf`], a frame cut short by a
    /// read timeout is completed by the next call.
    pub fn recv<M: DeserializeOwned>(&mut self) -> io::Result<Option<M>> {
        read_msg_buf(&mut self.inner, &mut self.frame)
    }

    /// Access the underlying reader (e.g. to set a socket read timeout).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip<M: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(msg: M) {
        let mut buf = Vec::new();
        write_msg(&mut buf, &msg).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        let back: M = read_msg(&mut reader).unwrap().unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn worker_messages_round_trip() {
        round_trip(WorkerMsg::Register {
            name: "node-007".into(),
            cores: 4,
            location: "rack-3".into(),
        });
        round_trip(WorkerMsg::Request);
        round_trip(WorkerMsg::Done {
            task_id: 42,
            exit_code: -1,
            wall_ms: 10_500,
            output: Some("ETITLE: TS   BOND\n".to_string()),
            trace: 0xFEED_F00D,
        });
        round_trip(WorkerMsg::Heartbeat);
        round_trip(WorkerMsg::Goodbye);
    }

    #[test]
    fn dispatcher_messages_round_trip() {
        round_trip(DispatcherMsg::Registered { worker_id: 9 });
        round_trip(DispatcherMsg::Shutdown);
        round_trip(DispatcherMsg::Cancel { task_id: 17 });
        round_trip(DispatcherMsg::Assign(TaskAssignment {
            task_id: 1,
            job_id: 2,
            trace: 77,
            kind: TaskKind::MpiProxy {
                cmd: CommandSpec::builtin("sleep", vec!["10".into()]),
                ranks: vec![4, 5],
                size: 8,
                pmi_addr: "127.0.0.1:4444".into(),
                pmi_jobid: "job-2".into(),
            },
            stage: vec![StageFile::new("/gpfs/apps/namd2")],
        }));
    }

    #[test]
    fn relay_worker_messages_round_trip() {
        round_trip(WorkerMsg::RelayHello {
            name: "relay-0".into(),
            location: "rack-3".into(),
        });
        round_trip(WorkerMsg::RelayRegister {
            local: 3,
            name: "node-0003".into(),
            cores: 4,
            location: "rack-3".into(),
        });
        round_trip(WorkerMsg::RelayRequest { worker: 12 });
        round_trip(WorkerMsg::RelayDone {
            worker: 12,
            task_id: 42,
            exit_code: 0,
            wall_ms: 99,
            output: Some("tail".into()),
            trace: 77,
        });
        round_trip(WorkerMsg::BatchedHeartbeat {
            workers: vec![3, 5, 8, 13],
        });
        round_trip(WorkerMsg::BatchedHeartbeat { workers: vec![] });
        round_trip(WorkerMsg::RelayWorkerGone { worker: 8 });
        round_trip(WorkerMsg::RelayMemberState {
            worker: 8,
            task_id: 42,
            job_id: 7,
        });
    }

    #[test]
    fn session_state_messages_round_trip() {
        round_trip(WorkerMsg::SessionState { running: None });
        round_trip(WorkerMsg::SessionState {
            running: Some((42, 7)),
        });
    }

    #[test]
    fn relay_dispatcher_messages_round_trip() {
        round_trip(DispatcherMsg::RelayRegistered {
            local: 3,
            worker_id: 12,
        });
        round_trip(DispatcherMsg::RelayCancel {
            worker: 12,
            task_id: 42,
        });
        round_trip(DispatcherMsg::RelayAssign {
            worker: 12,
            assignment: TaskAssignment {
                task_id: 1,
                job_id: 2,
                trace: 77,
                kind: TaskKind::Sequential {
                    cmd: CommandSpec::builtin("noop", vec![]),
                },
                stage: Vec::new(),
            },
        });
    }

    /// A batched frame for a big block must still be one line well under
    /// the frame cap (the whole point of coalescing).
    #[test]
    fn batched_heartbeat_scales_within_frame_cap() {
        let msg = WorkerMsg::BatchedHeartbeat {
            workers: (0..4096u64).collect(),
        };
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).unwrap();
        assert!(wire.len() < MAX_FRAME_BYTES / 16);
        let got: WorkerMsg = read_msg(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn sequential_assignment_cmd_accessor() {
        let a = TaskAssignment {
            task_id: 0,
            job_id: 0,
            trace: 0,
            kind: TaskKind::Sequential {
                cmd: CommandSpec::exec("echo", vec!["hi".into()]),
            },
            stage: Vec::new(),
        };
        assert_eq!(a.cmd().name(), "echo");
    }

    #[test]
    fn eof_reads_as_none() {
        let empty: &[u8] = &[];
        let mut reader = BufReader::new(empty);
        let got: Option<WorkerMsg> = read_msg(&mut reader).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        let mut reader = BufReader::new(&b"not json\n"[..]);
        let got: io::Result<Option<WorkerMsg>> = read_msg(&mut reader);
        assert!(got.is_err());
    }

    /// Both write paths must produce byte-identical frames, and each
    /// read path must decode frames produced by either writer.
    #[test]
    fn legacy_and_buffered_paths_interoperate() {
        let msg = WorkerMsg::Done {
            task_id: 7,
            exit_code: 0,
            wall_ms: 12,
            output: Some("tail".into()),
            trace: 7,
        };
        let mut legacy = Vec::new();
        write_msg(&mut legacy, &msg).unwrap();
        let mut buffered = Vec::new();
        let mut buf = Vec::new();
        write_msg_buf(&mut buffered, &msg, &mut buf).unwrap();
        assert_eq!(legacy, buffered);

        // legacy write → buffered read
        let mut line = Vec::new();
        let mut reader = BufReader::new(&legacy[..]);
        let got: WorkerMsg = read_msg_buf(&mut reader, &mut line).unwrap().unwrap();
        assert_eq!(got, msg);
        // buffered write → legacy read
        let mut reader = BufReader::new(&buffered[..]);
        let got: WorkerMsg = read_msg(&mut reader).unwrap().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn buffered_reader_writer_round_trip_many() {
        let mut wire = Vec::new();
        {
            let mut w = MsgWriter::new(&mut wire);
            for i in 0..100u64 {
                w.send(&WorkerMsg::Done {
                    task_id: i,
                    exit_code: 0,
                    wall_ms: i,
                    output: None,
                    trace: i,
                })
                .unwrap();
                w.send(&WorkerMsg::Heartbeat).unwrap();
            }
        }
        let mut r = MsgReader::new(BufReader::new(&wire[..]));
        for i in 0..100u64 {
            match r.recv::<WorkerMsg>().unwrap().unwrap() {
                WorkerMsg::Done { task_id, .. } => assert_eq!(task_id, i),
                other => panic!("unexpected: {other:?}"),
            }
            assert_eq!(
                r.recv::<WorkerMsg>().unwrap().unwrap(),
                WorkerMsg::Heartbeat
            );
        }
        assert!(r.recv::<WorkerMsg>().unwrap().is_none());
    }

    /// A sink that records each `write` call and can be told to fail.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<Vec<u8>>,
        fail_next: bool,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.fail_next) {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn done(task_id: u64, output: Option<String>) -> WorkerMsg {
        WorkerMsg::Done {
            task_id,
            exit_code: 0,
            wall_ms: 1,
            output,
            trace: 9,
        }
    }

    #[test]
    fn paired_send_is_one_write_of_two_whole_frames() {
        let mut w = MsgWriter::new(CountingSink::default());
        w.send_pair(&done(5, None), &WorkerMsg::Request).unwrap();
        assert_eq!(w.get_ref().writes.len(), 1, "Done+Request share a write");
        let mut separate = Vec::new();
        write_msg(&mut separate, &done(5, None)).unwrap();
        write_msg(&mut separate, &WorkerMsg::Request).unwrap();
        assert_eq!(w.get_ref().writes[0], separate, "frames are unchanged");
        // queue + queue + flush is the same thing spelled out.
        w.queue(&done(6, None)).unwrap();
        w.queue(&WorkerMsg::Request).unwrap();
        assert_eq!(w.get_ref().writes.len(), 1, "queue writes nothing");
        w.flush().unwrap();
        assert_eq!(w.get_ref().writes.len(), 2);
        w.flush().unwrap();
        assert_eq!(w.get_ref().writes.len(), 2, "empty flush is no write");
    }

    /// The agent stashes a `Done` whose send failed and replays it on
    /// the next wire; the failed writer must not also keep a copy.
    #[test]
    fn failed_flush_leaves_no_half_queued_frame_behind() {
        let mut w = MsgWriter::new(CountingSink::default());
        w.get_mut().fail_next = true;
        assert!(w.send_pair(&done(1, None), &WorkerMsg::Request).is_err());
        w.send(&WorkerMsg::Heartbeat).unwrap();
        let mut only = Vec::new();
        write_msg(&mut only, &WorkerMsg::Heartbeat).unwrap();
        assert_eq!(w.get_ref().writes, vec![only]);
    }

    #[test]
    fn refused_frame_queues_nothing_and_drops_its_partner() {
        let mut w = MsgWriter::new(CountingSink::default());
        let huge = done(2, Some("y".repeat(MAX_FRAME_BYTES)));
        w.queue(&WorkerMsg::Heartbeat).unwrap();
        assert!(w.queue(&huge).is_err());
        assert!(w.send_pair(&WorkerMsg::Request, &huge).is_err());
        assert!(w.get_ref().writes.is_empty(), "nothing reached the wire");
        w.flush().unwrap();
        let mut only = Vec::new();
        write_msg(&mut only, &WorkerMsg::Heartbeat).unwrap();
        assert_eq!(w.get_ref().writes, vec![only], "earlier frame intact");
    }

    #[test]
    fn oversized_incoming_frame_is_rejected_gracefully() {
        // A line (sans newline) just over the cap must be InvalidData on
        // both read paths, not an OOM or a panic.
        let mut wire = vec![b'x'; MAX_FRAME_BYTES + 16];
        wire.push(b'\n');
        let err = read_msg::<WorkerMsg>(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut frame = Vec::new();
        let err =
            read_msg_buf::<WorkerMsg>(&mut BufReader::new(&wire[..]), &mut frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// What a socket with a read timeout looks like: each chunk arrives
    /// whole, and between two chunks the read times out.
    struct TimingOut<'a>(std::slice::Iter<'a, &'a [u8]>, bool);

    impl io::Read for TimingOut<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if !self.1 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let chunk = self.0.next().copied().unwrap_or_default();
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn reader_resumes_a_frame_after_a_timed_out_read() {
        let done = WorkerMsg::Done {
            task_id: 7,
            exit_code: 0,
            wall_ms: 3,
            output: Some("naïve".into()),
            trace: 9,
        };
        let mut wire = Vec::new();
        write_msg(&mut wire, &done).unwrap();
        write_msg(&mut wire, &WorkerMsg::Request).unwrap();
        // Every cut, the ones inside the two-byte `ï` included.
        for cut in 1..wire.len() {
            let chunks = [&wire[..cut], &wire[cut..]];
            let mut r = MsgReader::new(BufReader::new(TimingOut(chunks.iter(), false)));
            let mut frames = Vec::new();
            loop {
                match r.recv::<WorkerMsg>() {
                    Ok(Some(msg)) => frames.push(msg),
                    Ok(None) => break,
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "cut {cut}"),
                }
            }
            assert_eq!(frames, [done.clone(), WorkerMsg::Request], "cut {cut}");
        }
    }

    #[test]
    fn oversized_outgoing_frame_is_refused() {
        let msg = WorkerMsg::Done {
            task_id: 1,
            exit_code: 0,
            wall_ms: 0,
            output: Some("y".repeat(MAX_FRAME_BYTES)),
            trace: 0,
        };
        let mut sink = Vec::new();
        let err = write_msg(&mut sink, &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn frame_at_the_cap_still_reads() {
        // Exactly MAX_FRAME_BYTES including the newline is legal.
        let payload = "z".repeat(MAX_FRAME_BYTES - "\"\"\n".len());
        let mut wire = format!("{payload:?}").into_bytes();
        wire.push(b'\n');
        assert_eq!(wire.len(), MAX_FRAME_BYTES);
        let got: String = read_msg(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert_eq!(got.len(), payload.len());
    }

    #[test]
    fn multiple_messages_stream() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &WorkerMsg::Request).unwrap();
        write_msg(&mut buf, &WorkerMsg::Heartbeat).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        assert_eq!(
            read_msg::<WorkerMsg>(&mut reader).unwrap().unwrap(),
            WorkerMsg::Request
        );
        assert_eq!(
            read_msg::<WorkerMsg>(&mut reader).unwrap().unwrap(),
            WorkerMsg::Heartbeat
        );
        assert!(read_msg::<WorkerMsg>(&mut reader).unwrap().is_none());
    }
}
