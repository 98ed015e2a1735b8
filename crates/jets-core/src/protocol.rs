//! Dispatcher ⇄ worker wire protocol.
//!
//! One TCP connection per worker, carrying one binary frame per message,
//! each ended by a `\n` byte. The worker speaks first (`Register`), then
//! loops `Request → Assign → Done`. Fault detection rests on this
//! connection: an EOF or read error is the dispatcher's signal that the
//! pilot job died, exactly as in the paper's faulty-allocation experiment
//! (Fig. 10).
//!
//! ## Frames
//!
//! A frame is a tag byte naming the variant, then its fields in
//! declaration order, written with the [`jets_ring::codec`] primitives:
//! integers as LEB128 (signed ones zigzagged), trace ids as eight
//! little-endian bytes, strings and lists as a length and then their
//! bytes or elements, an `Option` as a 0/1 byte and then the value. The
//! codec escapes `\n` out of every frame, so the reactor, PMI's text
//! lines and [`MsgReader`] all find a frame's end by that one byte. Tags
//! are printable ASCII and a relay envelope's tag is the lowercase of
//! the frame it routes (`D` is `Done`, `d` is `RelayDone`), so a hexdump
//! of the wire reads. A no-op `Assign` is 26 bytes. The write-ahead
//! journal's records are bodies of the same codec
//! ([`journal`](crate::journal)), framed by length and CRC on disk.
//!
//! [`decode_msg`] reads a frame in one pass, straight into the message:
//! no intermediate value and no unescaped copy. Damaged input — a cut,
//! a flipped bit, a length that lies, a tag from the future — is
//! [`io::ErrorKind::InvalidData`], never a panic, and no length field
//! can reserve more than the frame's own size
//! (`tests/wire_mutation.rs`).
//!
//! ## Buffer-reuse contract
//!
//! The hot paths on both sides of the connection reuse one encode buffer
//! (`Vec<u8>`) per writer and one frame buffer per reader: a reactor
//! connection encodes with [`encode_msg_buf`] into a buffer it keeps and
//! decodes the frames the reactor hands it with [`decode_msg`];
//! [`MsgWriter`] / [`MsgReader`] own their buffers for the blocking
//! callers that keep a connection around. A steady stream of
//! `Request`/`Assign`/`Done`/`Heartbeat` encodes without allocating once
//! the buffers have grown to the workload's high-water mark.
//!
//! Every frame, its delimiter included, is capped at [`MAX_FRAME_BYTES`]:
//! a corrupt or hostile peer cannot OOM the process with a single
//! unbounded frame — the read fails with [`io::ErrorKind::InvalidData`]
//! and the connection is torn down.
//!
//! The message types keep serde derives for one reader only:
//! `benchmark/tests/serde_shim.rs` checks the JSON stand-in the
//! benchmark owns against them. Nothing on the wire goes through them.

use crate::spec::{CommandSpec, JobId, JobSpec, StageFile, TaskId};
use jets_ring::codec::{invalid, Get, Put, END};
use std::io::{self, BufRead, Read, Write};

/// Messages a worker sends to the dispatcher.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
        /// events on both ends of the wire join one timeline (0 when
        /// the job is untraced).
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
        /// The job's trace id, echoed from the assignment (0 when the
        /// job is untraced).
        #[serde(default)]
        trace: u64,
    },
    /// Coalesced liveness for a relay's whole block: one periodic frame
    /// replaces per-worker `Heartbeat` traffic upstream. Each listed
    /// worker was heard from recently at the relay; the dispatcher feeds
    /// the ids of members this relay registered to the core as one
    /// heartbeat input.
    BatchedHeartbeat {
        /// Dispatcher-assigned ids of workers the relay vouches for.
        workers: Vec<u64>,
    },
    /// A relayed worker disconnected from its relay (death or partition).
    /// The dispatcher treats this exactly like a direct worker's EOF:
    /// the worker goes down, gang cancellation for its in-flight task.
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
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
    /// when the job is untraced).
    #[serde(default)]
    pub trace: u64,
}

/// The two shapes of work.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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

/// Upper bound on one wire frame, its trailing newline included. Large
/// enough for any sane task assignment or output tail (16 MiB), small
/// enough that a corrupt stream with no delimiter cannot OOM the
/// dispatcher through one frame.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// A message with a wire encoding: [`WorkerMsg`] and [`DispatcherMsg`],
/// and the journal's [`Record`](crate::journal::Record), whose bodies the
/// journal frames with a length and a CRC instead of a `\n`.
pub trait Wire: Sized {
    /// Append the frame body (everything but the delimiter).
    fn put(&self, p: &mut Put<'_>);
    /// Read a frame body, all of it: an unknown tag, any damaged field
    /// and any byte left over are `InvalidData` (checked once, by
    /// [`Get::end`], before the message is put together).
    fn get(g: &mut Get<'_>) -> io::Result<Self>;
}

impl Wire for WorkerMsg {
    fn put(&self, p: &mut Put<'_>) {
        match self {
            WorkerMsg::Register {
                name,
                cores,
                location,
            } => {
                p.u8(b'R');
                p.str(name);
                p.var((*cores).into());
                p.str(location);
            }
            WorkerMsg::Request => p.u8(b'Q'),
            WorkerMsg::Done {
                task_id,
                exit_code,
                wall_ms,
                output,
                trace,
            } => {
                p.u8(b'D');
                put_result(p, *task_id, *exit_code, *wall_ms, output, *trace);
            }
            WorkerMsg::Heartbeat => p.u8(b'B'),
            WorkerMsg::Goodbye => p.u8(b'G'),
            WorkerMsg::SessionState { running } => {
                p.u8(b'S');
                p.bool(running.is_some());
                if let Some((task, job)) = running {
                    p.var(*task);
                    p.var(*job);
                }
            }
            WorkerMsg::RelayHello { name, location } => {
                p.u8(b'h');
                p.str(name);
                p.str(location);
            }
            WorkerMsg::RelayRegister {
                local,
                name,
                cores,
                location,
            } => {
                p.u8(b'r');
                p.var(*local);
                p.str(name);
                p.var((*cores).into());
                p.str(location);
            }
            WorkerMsg::RelayRequest { worker } => {
                p.u8(b'q');
                p.var(*worker);
            }
            WorkerMsg::RelayDone {
                worker,
                task_id,
                exit_code,
                wall_ms,
                output,
                trace,
            } => {
                p.u8(b'd');
                p.var(*worker);
                put_result(p, *task_id, *exit_code, *wall_ms, output, *trace);
            }
            WorkerMsg::BatchedHeartbeat { workers } => {
                p.u8(b'b');
                p.count(workers.len());
                workers.iter().for_each(|&w| p.var(w));
            }
            WorkerMsg::RelayWorkerGone { worker } => {
                p.u8(b'g');
                p.var(*worker);
            }
            WorkerMsg::RelayMemberState {
                worker,
                task_id,
                job_id,
            } => {
                p.u8(b's');
                p.var(*worker);
                p.var(*task_id);
                p.var(*job_id);
            }
        }
    }

    fn get(g: &mut Get<'_>) -> io::Result<Self> {
        let msg = match g.u8() {
            b'R' => WorkerMsg::Register {
                name: g.str(),
                cores: g.var_u32(),
                location: g.str(),
            },
            b'Q' => WorkerMsg::Request,
            b'D' => WorkerMsg::Done {
                task_id: g.var(),
                exit_code: g.zig_i32(),
                wall_ms: g.var(),
                output: get_output(g),
                trace: g.u64le(),
            },
            b'B' => WorkerMsg::Heartbeat,
            b'G' => WorkerMsg::Goodbye,
            b'S' => WorkerMsg::SessionState {
                running: g.bool().then(|| (g.var(), g.var())),
            },
            b'h' => WorkerMsg::RelayHello {
                name: g.str(),
                location: g.str(),
            },
            b'r' => WorkerMsg::RelayRegister {
                local: g.var(),
                name: g.str(),
                cores: g.var_u32(),
                location: g.str(),
            },
            b'q' => WorkerMsg::RelayRequest { worker: g.var() },
            b'd' => WorkerMsg::RelayDone {
                worker: g.var(),
                task_id: g.var(),
                exit_code: g.zig_i32(),
                wall_ms: g.var(),
                output: get_output(g),
                trace: g.u64le(),
            },
            b'b' => WorkerMsg::BatchedHeartbeat {
                workers: g.list(Get::var),
            },
            b'g' => WorkerMsg::RelayWorkerGone { worker: g.var() },
            b's' => WorkerMsg::RelayMemberState {
                worker: g.var(),
                task_id: g.var(),
                job_id: g.var(),
            },
            _ => return Err(invalid()),
        };
        g.end()?;
        Ok(msg)
    }
}

impl Wire for DispatcherMsg {
    fn put(&self, p: &mut Put<'_>) {
        match self {
            DispatcherMsg::Registered { worker_id } => {
                p.u8(b'R');
                p.var(*worker_id);
            }
            DispatcherMsg::Assign(assignment) => {
                p.u8(b'A');
                put_assignment(p, assignment);
            }
            DispatcherMsg::Cancel { task_id } => {
                p.u8(b'C');
                p.var(*task_id);
            }
            DispatcherMsg::Shutdown => p.u8(b'X'),
            DispatcherMsg::RelayRegistered { local, worker_id } => {
                p.u8(b'r');
                p.var(*local);
                p.var(*worker_id);
            }
            DispatcherMsg::RelayAssign { worker, assignment } => {
                p.u8(b'a');
                p.var(*worker);
                put_assignment(p, assignment);
            }
            DispatcherMsg::RelayCancel { worker, task_id } => {
                p.u8(b'c');
                p.var(*worker);
                p.var(*task_id);
            }
        }
    }

    fn get(g: &mut Get<'_>) -> io::Result<Self> {
        let msg = match g.u8() {
            b'R' => DispatcherMsg::Registered { worker_id: g.var() },
            b'A' => return get_assignment(g, None),
            b'C' => DispatcherMsg::Cancel { task_id: g.var() },
            b'X' => DispatcherMsg::Shutdown,
            b'r' => DispatcherMsg::RelayRegistered {
                local: g.var(),
                worker_id: g.var(),
            },
            b'a' => {
                let worker = g.var();
                return get_assignment(g, Some(worker));
            }
            b'c' => DispatcherMsg::RelayCancel {
                worker: g.var(),
                task_id: g.var(),
            },
            _ => return Err(invalid()),
        };
        g.end()?;
        Ok(msg)
    }
}

/// The fields `Done` and `RelayDone` share.
fn put_result(
    p: &mut Put<'_>,
    task: TaskId,
    exit: i32,
    wall_ms: u64,
    out: &Option<String>,
    trace: u64,
) {
    p.var(task);
    p.zig(exit.into());
    p.var(wall_ms);
    p.bool(out.is_some());
    if let Some(out) = out {
        p.str(out);
    }
    p.u64le(trace);
}

fn get_output(g: &mut Get<'_>) -> Option<String> {
    g.bool().then(|| g.str())
}

fn put_assignment(p: &mut Put<'_>, a: &TaskAssignment) {
    p.var(a.task_id);
    p.var(a.job_id);
    match &a.kind {
        TaskKind::Sequential { cmd } => {
            p.u8(b'S');
            put_cmd(p, cmd);
        }
        TaskKind::MpiProxy {
            cmd,
            ranks,
            size,
            pmi_addr,
            pmi_jobid,
        } => {
            p.u8(b'M');
            put_cmd(p, cmd);
            p.count(ranks.len());
            ranks.iter().for_each(|&r| p.var(r.into()));
            p.var((*size).into());
            p.str(pmi_addr);
            p.str(pmi_jobid);
        }
    }
    put_stage(p, &a.stage);
    p.u64le(a.trace);
}

/// An `Assign`, or with `relay` a `RelayAssign`, read in full into
/// locals and put together only once the frame has proved valid.
fn get_assignment(g: &mut Get<'_>, relay: Option<u64>) -> io::Result<DispatcherMsg> {
    let (task_id, job_id, kind) = (g.var(), g.var(), g.u8());
    let cmd = get_cmd(g);
    let mpi = kind == b'M';
    let (ranks, size, pmi_addr, pmi_jobid) = match mpi {
        true => (g.list(Get::var_u32), g.var_u32(), g.str(), g.str()),
        false => Default::default(),
    };
    let stage = get_stage(g);
    let trace = g.u64le();
    if !matches!(kind, b'S' | b'M') {
        g.fail();
    }
    g.end()?;
    let kind = match mpi {
        true => TaskKind::MpiProxy {
            cmd,
            ranks,
            size,
            pmi_addr,
            pmi_jobid,
        },
        false => TaskKind::Sequential { cmd },
    };
    let assignment = TaskAssignment {
        task_id,
        job_id,
        kind,
        stage,
        trace,
    };
    Ok(match relay {
        None => DispatcherMsg::Assign(assignment),
        Some(worker) => DispatcherMsg::RelayAssign { worker, assignment },
    })
}

/// A command, as an `Assign` and a job's specification both carry it:
/// its shape (`E` exec, `B` builtin), name, arguments and environment.
pub(crate) fn put_cmd(p: &mut Put<'_>, cmd: &CommandSpec) {
    p.u8(match cmd {
        CommandSpec::Exec { .. } => b'E',
        CommandSpec::Builtin { .. } => b'B',
    });
    p.str(cmd.name());
    p.count(cmd.args().len());
    cmd.args().iter().for_each(|arg| p.str(arg));
    p.count(cmd.env().len());
    for (key, value) in cmd.env() {
        p.str(key);
        p.str(value);
    }
}

/// Read what [`put_cmd`] wrote; an unknown shape marks the record invalid.
pub(crate) fn get_cmd(g: &mut Get<'_>) -> CommandSpec {
    let (shape, name, args) = (g.u8(), g.str(), g.list(Get::str));
    let env = g.list(|g| (g.str(), g.str()));
    if !matches!(shape, b'E' | b'B') {
        g.fail();
    }
    match shape {
        b'E' => CommandSpec::Exec {
            program: name,
            args,
            env,
        },
        _ => CommandSpec::Builtin {
            app: name,
            args,
            env,
        },
    }
}

/// A staging manifest, as an `Assign` and a job's specification carry it.
pub(crate) fn put_stage(p: &mut Put<'_>, stage: &[StageFile]) {
    p.count(stage.len());
    for file in stage {
        p.str(&file.source);
        p.str(&file.name);
    }
}

/// Read what [`put_stage`] wrote.
pub(crate) fn get_stage(g: &mut Get<'_>) -> Vec<StageFile> {
    g.list(|g| StageFile {
        source: g.str(),
        name: g.str(),
    })
}

/// A job specification, as the journal's `Submitted` record and the
/// dispatcher's job table both carry it: its shape, then the command and
/// staging manifest in the bytes an `Assign` carries them in.
pub(crate) fn put_spec(p: &mut Put<'_>, spec: &JobSpec) {
    p.var(spec.nodes.into());
    p.var(spec.ppn.into());
    p.zig(spec.priority.into());
    p.var(spec.max_retries.into());
    p.bool(spec.mpi);
    p.bool(spec.deadline_ms.is_some());
    if let Some(ms) = spec.deadline_ms {
        p.var(ms);
    }
    put_cmd(p, &spec.cmd);
    put_stage(p, &spec.stage);
}

/// Read what [`put_spec`] wrote.
pub(crate) fn get_spec(g: &mut Get<'_>) -> JobSpec {
    JobSpec {
        nodes: g.var_u32(),
        ppn: g.var_u32(),
        priority: g.zig_i32(),
        max_retries: g.var_u32(),
        mpi: g.bool(),
        deadline_ms: g.bool().then(|| g.var()),
        cmd: get_cmd(g),
        stage: get_stage(g),
    }
}

/// Encode one message as a newline-terminated frame into `buf` (cleared
/// first, capacity kept) without touching any socket: the frame is
/// queued on a nonblocking outbox instead of written inline, so the
/// encoder must never block. Frames larger than [`MAX_FRAME_BYTES`] are
/// refused with `InvalidData` before anything is queued.
pub fn encode_msg_buf<M: Wire>(msg: &M, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    encode_msg_append(msg, buf)
}

/// Append one newline-terminated frame to `buf`, keeping whatever whole
/// frames it already holds — how several messages become one `write`. A
/// frame larger than [`MAX_FRAME_BYTES`] is rolled back: `buf` never ends
/// in a partial frame.
fn encode_msg_append<M: Wire>(msg: &M, buf: &mut Vec<u8>) -> io::Result<()> {
    let start = buf.len();
    msg.put(&mut Put(buf));
    buf.push(END);
    let len = buf.len() - start;
    if len > MAX_FRAME_BYTES {
        buf.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("outgoing frame of {len} bytes exceeds MAX_FRAME_BYTES"),
        ));
    }
    Ok(())
}

/// Decode one frame body (its trailing newline already stripped, as the
/// reactor delivers frames) into a message. A frame that is not exactly
/// one valid encoding — cut short, followed by trailing bytes, over the
/// cap — is `InvalidData`.
pub fn decode_msg<M: Wire>(frame: &[u8]) -> io::Result<M> {
    if frame.len() >= MAX_FRAME_BYTES {
        return Err(invalid());
    }
    M::get(&mut Get::new(frame))
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
    pub fn queue<M: Wire>(&mut self, msg: &M) -> io::Result<()> {
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
    pub fn send<M: Wire>(&mut self, msg: &M) -> io::Result<()> {
        self.queue(msg)?;
        self.flush()
    }

    /// Send two messages as one write — a worker's `Done` and its next
    /// `Request`. Either both frames reach the writer or neither does.
    pub fn send_pair<A: Wire, B: Wire>(&mut self, first: &A, second: &B) -> io::Result<()> {
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

    /// Receive one message, reusing the internal frame buffer (emptied
    /// once the message is decoded, capacity kept); `Ok(None)` on clean
    /// EOF, `UnexpectedEof` on an EOF inside a frame. A read that fails
    /// part-way — `WouldBlock`/`TimedOut` from a socket with a read
    /// timeout — leaves what arrived in the buffer, and the next call
    /// carries on from it, losing no byte. Frames longer than
    /// [`MAX_FRAME_BYTES`] yield `InvalidData` instead of growing without
    /// bound — the connection should be dropped, since the remainder of
    /// the oversized frame is still in flight.
    pub fn recv<M: Wire>(&mut self) -> io::Result<Option<M>> {
        let frame = &mut self.frame;
        // `take` bounds how much one frame can pull in; one extra byte
        // distinguishes "exactly at the cap" from "over it".
        let room = (MAX_FRAME_BYTES + 1).saturating_sub(frame.len()) as u64;
        let n = (&mut self.inner).take(room).read_until(END, frame)?;
        if n == 0 && frame.is_empty() {
            return Ok(None);
        }
        let msg = match frame.split_last() {
            _ if frame.len() > MAX_FRAME_BYTES => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "incoming frame exceeds MAX_FRAME_BYTES",
            )),
            Some((&END, body)) => decode_msg(body),
            _ => Err(io::ErrorKind::UnexpectedEof.into()),
        };
        frame.clear();
        msg.map(Some)
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

    fn frame<M: Wire>(msg: &M) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_msg_buf(msg, &mut buf).unwrap();
        buf
    }

    fn round_trip<M: Wire + PartialEq + std::fmt::Debug>(msg: M) {
        let mut wire = Vec::new();
        MsgWriter::new(&mut wire).send(&msg).unwrap();
        let mut reader = MsgReader::new(&wire[..]);
        let back: M = reader.recv().unwrap().unwrap();
        assert_eq!(back, msg);
        assert!(reader.recv::<M>().unwrap().is_none());
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

    /// A batched frame for a big block must still be one frame well under
    /// the cap (the whole point of coalescing).
    #[test]
    fn batched_heartbeat_scales_within_frame_cap() {
        let msg = WorkerMsg::BatchedHeartbeat {
            workers: (0..4096u64).collect(),
        };
        let wire = frame(&msg);
        assert!(wire.len() < MAX_FRAME_BYTES / 16);
        assert_eq!(wire.iter().filter(|&&b| b == END).count(), 1);
        let got: WorkerMsg = decode_msg(&wire[..wire.len() - 1]).unwrap();
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
        let got: Option<WorkerMsg> = MsgReader::new(empty).recv().unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        let got = MsgReader::new(&b"not a frame\n"[..]).recv::<WorkerMsg>();
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
        // A frame cut by EOF is no frame, even when its prefix would be.
        let mut cut = frame(&WorkerMsg::Request);
        cut.pop();
        let got = MsgReader::new(&cut[..]).recv::<WorkerMsg>();
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    /// The writer and the reactor-side encoder put the same bytes on the
    /// wire, and each read path decodes what the other side wrote.
    #[test]
    fn writer_and_encoder_frames_interoperate() {
        let msg = WorkerMsg::Done {
            task_id: 7,
            exit_code: 0,
            wall_ms: 12,
            output: Some("tail".into()),
            trace: 7,
        };
        let mut written = Vec::new();
        MsgWriter::new(&mut written).send(&msg).unwrap();
        let encoded = frame(&msg);
        assert_eq!(written, encoded);
        let got: WorkerMsg = MsgReader::new(&encoded[..]).recv().unwrap().unwrap();
        assert_eq!(got, msg);
        let got: WorkerMsg = decode_msg(&written[..written.len() - 1]).unwrap();
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
        let mut separate = frame(&done(5, None));
        separate.extend(frame(&WorkerMsg::Request));
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
        assert_eq!(w.get_ref().writes, vec![frame(&WorkerMsg::Heartbeat)]);
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
        let only = frame(&WorkerMsg::Heartbeat);
        assert_eq!(w.get_ref().writes, vec![only], "earlier frame intact");
    }

    #[test]
    fn oversized_incoming_frame_is_rejected_gracefully() {
        // A frame just over the cap must be InvalidData, not an OOM or a
        // panic, whether the reader or the reactor reassembled it.
        let mut wire = vec![b'x'; MAX_FRAME_BYTES + 16];
        let err = decode_msg::<WorkerMsg>(&wire).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        wire.push(END);
        let mut r = MsgReader::new(BufReader::new(&wire[..]));
        let err = r.recv::<WorkerMsg>().unwrap_err();
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
            output: Some("naïve\n".into()),
            trace: 9,
        };
        let mut wire = frame(&done);
        wire.extend(frame(&WorkerMsg::Request));
        // Every cut, the ones inside the two-byte `ï` and the escaped
        // newline included.
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
        let mut w = MsgWriter::new(Vec::new());
        let err = w.send(&msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(w.get_ref().is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn frame_at_the_cap_still_reads() {
        // Exactly MAX_FRAME_BYTES including the newline is legal: a `Done`
        // whose output fills the frame (tag, task, exit, wall, `Some`,
        // 4-byte length, output, trace, newline).
        let output = "z".repeat(MAX_FRAME_BYTES - 18);
        let msg = done(1, Some(output));
        let wire = frame(&msg);
        assert_eq!(wire.len(), MAX_FRAME_BYTES);
        let got: WorkerMsg = MsgReader::new(&wire[..]).recv().unwrap().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn multiple_messages_stream() {
        let mut buf = Vec::new();
        let mut w = MsgWriter::new(&mut buf);
        w.send(&WorkerMsg::Request).unwrap();
        w.send(&WorkerMsg::Heartbeat).unwrap();
        let mut reader = MsgReader::new(BufReader::new(&buf[..]));
        assert_eq!(
            reader.recv::<WorkerMsg>().unwrap().unwrap(),
            WorkerMsg::Request
        );
        assert_eq!(
            reader.recv::<WorkerMsg>().unwrap().unwrap(),
            WorkerMsg::Heartbeat
        );
        assert!(reader.recv::<WorkerMsg>().unwrap().is_none());
    }
}
