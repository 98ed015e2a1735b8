//! Timestamped event log of dispatcher activity, stored in a
//! [`jets_ring`] flight recorder.
//!
//! Every consequential dispatcher action is recorded against a shared
//! epoch. The evaluation section of the paper is computed entirely from
//! such records: utilization (Eq. 1), load level over time (Fig. 13),
//! nodes-available versus running-jobs timelines under fault injection
//! (Fig. 10), and task run-time distributions (Fig. 11). See
//! [`crate::stats`] for the derived series.
//!
//! ## Storage
//!
//! [`EventLog::record`] encodes the event into a tag byte and LEB128
//! fields (no serde) and pushes it into a lock-free ring of 32-byte
//! slots — no `Mutex`, no allocation, no unbounded growth. Every record
//! a no-op job writes takes one slot; only ids, times and durations far
//! past a benchmark run's spill into a second. Consumers
//! ([`EventLog::snapshot`], [`EventCursor`], the Prometheus gauges,
//! `jets top`) are independent ring readers that never block the
//! writer; a reader that falls a full window behind is *lapped* and its
//! cursor reports how many records it missed.
//!
//! With [`EventLog::file_backed_with_role`] the ring lives in a
//! `MAP_SHARED` mmap (`--flight-recorder FILE`): the journal survives
//! `kill -9` and [`read_flight`] replays it offline. That file is the
//! log's one on-disk form: `jets flight dump FILE --stats` recomputes
//! every series in [`crate::stats`] from it, and `jets trace` merges
//! several of them into one timeline.

use crate::spec::{JobId, TaskId, WorkerId};
pub use jets_ring::WriterRole;
use jets_ring::{Ring, RingReader, PAYLOAD_BYTES};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime};

/// The lifecycle phase a trace span measures, in submit→report order.
///
/// Every phase of one job's journey across the three process roles is
/// one span kind: the dispatcher owns `Submit`/`Queue`/`Sched`/`Ship`/
/// `PmiBarrier`/`Run`/`Report`, a relay owns `RelayForward`, and a
/// worker owns `Stage`/`Exec`. `jets trace` pairs each
/// [`EventKind::SpanStart`]/[`EventKind::SpanEnd`] by
/// `(trace, kind, task)` when assembling the cross-process timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Submission accepted (dispatcher): batch parse → queue insert.
    Submit,
    /// Queue wait (dispatcher): enqueue → workers selected.
    Queue,
    /// Scheduling (dispatcher): workers selected → assignments built.
    Sched,
    /// Shipping (dispatcher): assignments built → all sends issued.
    Ship,
    /// Relay fan-out (relay): upstream `RelayAssign` received →
    /// delivered to the member worker.
    RelayForward,
    /// Input staging (worker): assignment received → staged files ready.
    Stage,
    /// Execution (worker): process spawn → exit collected.
    Exec,
    /// PMI negotiation (dispatcher): assignments shipped → first
    /// barrier released.
    PmiBarrier,
    /// Run (dispatcher): tasks shipped → last task reported.
    Run,
    /// Result report (dispatcher): last `Done` received → terminal
    /// state recorded.
    Report,
}

impl SpanKind {
    /// The on-wire code (one byte in the ring codec).
    pub fn code(self) -> u8 {
        match self {
            SpanKind::Submit => 0,
            SpanKind::Queue => 1,
            SpanKind::Sched => 2,
            SpanKind::Ship => 3,
            SpanKind::RelayForward => 4,
            SpanKind::Stage => 5,
            SpanKind::Exec => 6,
            SpanKind::PmiBarrier => 7,
            SpanKind::Run => 8,
            SpanKind::Report => 9,
        }
    }

    /// Decode a ring-codec byte; `None` on a newer build's codes.
    pub fn from_code(code: u8) -> Option<SpanKind> {
        Some(match code {
            0 => SpanKind::Submit,
            1 => SpanKind::Queue,
            2 => SpanKind::Sched,
            3 => SpanKind::Ship,
            4 => SpanKind::RelayForward,
            5 => SpanKind::Stage,
            6 => SpanKind::Exec,
            7 => SpanKind::PmiBarrier,
            8 => SpanKind::Run,
            9 => SpanKind::Report,
            _ => return None,
        })
    }

    /// Stable lowercase label ([`EventRecord::span`], Perfetto span
    /// name, `jets trace critical-path` phase column).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Submit => "submit",
            SpanKind::Queue => "queue",
            SpanKind::Sched => "sched",
            SpanKind::Ship => "ship",
            SpanKind::RelayForward => "relay-forward",
            SpanKind::Stage => "stage",
            SpanKind::Exec => "exec",
            SpanKind::PmiBarrier => "pmi-barrier",
            SpanKind::Run => "run",
            SpanKind::Report => "report",
        }
    }

    /// Parse the [`SpanKind::as_str`] label back
    /// ([`EventRecord::into_event`]).
    pub fn from_name(name: &str) -> Option<SpanKind> {
        Some(match name {
            "submit" => SpanKind::Submit,
            "queue" => SpanKind::Queue,
            "sched" => SpanKind::Sched,
            "ship" => SpanKind::Ship,
            "relay-forward" => SpanKind::RelayForward,
            "stage" => SpanKind::Stage,
            "exec" => SpanKind::Exec,
            "pmi-barrier" => SpanKind::PmiBarrier,
            "run" => SpanKind::Run,
            "report" => SpanKind::Report,
            _ => return None,
        })
    }

    /// Every span kind, in lifecycle order (exhaustive-iteration guard
    /// for tests and the trace assembler's phase tables).
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Submit,
        SpanKind::Queue,
        SpanKind::Sched,
        SpanKind::Ship,
        SpanKind::RelayForward,
        SpanKind::Stage,
        SpanKind::Exec,
        SpanKind::PmiBarrier,
        SpanKind::Run,
        SpanKind::Report,
    ];
}

/// Parse a [`WriterRole::as_str`] label back ([`EventRecord::into_event`]).
fn role_from_name(name: &str) -> Option<WriterRole> {
    Some(match name {
        "unknown" => WriterRole::Unknown,
        "dispatcher" => WriterRole::Dispatcher,
        "relay" => WriterRole::Relay,
        "worker" => WriterRole::Worker,
        _ => return None,
    })
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A worker registered.
    WorkerUp {
        /// The worker.
        worker: WorkerId,
    },
    /// A worker died or signed off.
    WorkerDown {
        /// The worker.
        worker: WorkerId,
    },
    /// A job entered the queue.
    JobSubmitted {
        /// The job.
        job: JobId,
        /// Its node count.
        nodes: u32,
        /// Its ranks-per-node.
        ppn: u32,
    },
    /// A job's workers were selected and its tasks were shipped. No
    /// longer recorded (the `sched` [`EventKind::SpanStart`] marks the
    /// same instant); still decoded from older flight files.
    JobStarted {
        /// The job.
        job: JobId,
        /// Its node count.
        nodes: u32,
        /// Its ranks-per-node.
        ppn: u32,
    },
    /// A job finished (all tasks reported, or failure was established).
    JobCompleted {
        /// The job.
        job: JobId,
        /// Its node count.
        nodes: u32,
        /// Its ranks-per-node.
        ppn: u32,
        /// Whether every task exited zero.
        success: bool,
    },
    /// Per-phase latency breakdown of a finished job's final attempt,
    /// emitted alongside its terminal [`EventKind::JobCompleted`]. The
    /// same durations feed the live `jets_job_phase_seconds` histograms,
    /// so offline analysis (`jets flight dump --stats`) matches `/metrics`
    /// one-to-one.
    JobPhases {
        /// The job.
        job: JobId,
        /// Its node count (the per-size key used by `--stats`).
        nodes: u32,
        /// Queue wait: last enqueue → workers selected.
        queue_us: u64,
        /// Always 0: a scheduling pass is one instant on the core's clock,
        /// and the `sched` and `ship` spans carry its real microseconds.
        /// Kept so recorded files keep their shape.
        launch_us: u64,
        /// PMI negotiation: assignments shipped → first barrier
        /// released. `None` for jobs that never fence (sequential).
        pmi_us: Option<u64>,
        /// Run: start of execution → terminal state.
        run_us: u64,
        /// End-to-end: first submission → terminal state (includes
        /// requeued attempts).
        total_us: u64,
    },
    /// A failed job went back into the queue.
    JobRequeued {
        /// The job.
        job: JobId,
    },
    /// A running attempt blew its wall-time budget; its gang was
    /// canceled and the failure charged against the retry budget.
    DeadlineExceeded {
        /// The job.
        job: JobId,
    },
    /// A re-registering worker was benched for killing recent gangs.
    WorkerQuarantined {
        /// The worker (the fresh connection's id).
        worker: WorkerId,
        /// Live strikes against the worker's name.
        strikes: u32,
        /// Release time, milliseconds since the registry epoch.
        until_ms: u64,
    },
    /// One task (proxy or sequential execution) was assigned to a worker.
    TaskStarted {
        /// The task.
        task: TaskId,
        /// Its job.
        job: JobId,
        /// The worker executing it.
        worker: WorkerId,
        /// Ranks this task hosts (1 for sequential tasks).
        ranks: u32,
    },
    /// A relay daemon connected and was assigned an id.
    RelayUp {
        /// The relay (ids share the worker id space).
        relay: WorkerId,
    },
    /// A relay's connection dropped; every worker it fronted is treated
    /// as down.
    RelayDown {
        /// The relay.
        relay: WorkerId,
    },
    /// A task completed (the worker reported `Done`).
    TaskEnded {
        /// The task.
        task: TaskId,
        /// Its job.
        job: JobId,
        /// The worker that executed it.
        worker: WorkerId,
        /// Ranks this task hosted.
        ranks: u32,
        /// Exit code (0 = success).
        exit_code: i32,
        /// The job's trace id (0 for records from builds or peers that
        /// predate tracing).
        trace: u64,
    },
    /// A restarted dispatcher re-adopted a journaled in-flight gang: every
    /// member re-registered and claimed its task, so the attempt keeps
    /// running instead of being relaunched.
    GangReadopted {
        /// The job.
        job: JobId,
    },
    /// A relay's bounded upstream queue overflowed and dropped its oldest
    /// frames. Rate-limited to one event per reporting interval per relay;
    /// `dropped` is the cumulative drop count at emission, so consecutive
    /// events show the loss rate.
    UpQueueDropped {
        /// The relay (ids share the worker id space).
        relay: WorkerId,
        /// Cumulative frames dropped by this relay so far.
        dropped: u64,
    },
    /// A traced phase opened in this process. Paired with the matching
    /// [`EventKind::SpanEnd`] by `(trace, kind, task)`; `jets trace`
    /// merges these across the dispatcher/relay/worker flight files
    /// into one per-job timeline.
    SpanStart {
        /// The job's 64-bit trace id, minted at submission and carried
        /// through the wire protocol.
        trace: u64,
        /// Which lifecycle phase opened.
        kind: SpanKind,
        /// The emitting process's role (its lane in the merge).
        role: WriterRole,
        /// The job (0 when not yet known, e.g. a relay forward for a
        /// job the relay never learns).
        job: JobId,
        /// The task, for per-task spans; 0 for job-wide spans.
        task: TaskId,
    },
    /// A traced phase closed in this process. See
    /// [`EventKind::SpanStart`].
    SpanEnd {
        /// The job's trace id.
        trace: u64,
        /// Which lifecycle phase closed.
        kind: SpanKind,
        /// The emitting process's role.
        role: WriterRole,
        /// The job.
        job: JobId,
        /// The task; 0 for job-wide spans.
        task: TaskId,
    },
}

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Time since the log's epoch.
    pub t: Duration,
    /// What happened.
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Ring codec: LEB128 t_us, tag byte, then the variant's fields — LEB128
// for ids, counts and durations, zigzag for `exit_code`, the trace id
// as 8 fixed little-endian bytes (it is all bits). Every record a no-op
// job writes is at most 23 bytes, one ring slot; the widest variant at
// its widest values is 77 bytes against the ring's 92. No serde, no
// allocation — this runs on the record hot path.

const TAG_WORKER_UP: u8 = 1;
const TAG_WORKER_DOWN: u8 = 2;
const TAG_JOB_SUBMITTED: u8 = 3;
const TAG_JOB_STARTED: u8 = 4;
const TAG_JOB_COMPLETED: u8 = 5;
const TAG_JOB_PHASES: u8 = 6;
const TAG_JOB_REQUEUED: u8 = 7;
const TAG_DEADLINE_EXCEEDED: u8 = 8;
const TAG_WORKER_QUARANTINED: u8 = 9;
const TAG_TASK_STARTED: u8 = 10;
const TAG_RELAY_UP: u8 = 11;
const TAG_RELAY_DOWN: u8 = 12;
const TAG_TASK_ENDED: u8 = 13;
const TAG_GANG_READOPTED: u8 = 14;
const TAG_UP_QUEUE_DROPPED: u8 = 15;
const TAG_SPAN_START: u8 = 16;
const TAG_SPAN_END: u8 = 17;

/// Encoder over a stack buffer as long as the ring's largest record.
struct Enc<'a> {
    buf: &'a mut [u8; PAYLOAD_BYTES],
    at: usize,
}

impl Enc<'_> {
    #[inline]
    fn u8(&mut self, v: u8) {
        self.buf[self.at] = v;
        self.at += 1;
    }
    /// LEB128: seven bits a byte, low bits first.
    #[inline]
    fn var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }
    #[inline]
    fn zig(&mut self, v: i32) {
        self.var(((v << 1) ^ (v >> 31)) as u32 as u64);
    }
    #[inline]
    fn u64(&mut self, v: u64) {
        self.buf[self.at..self.at + 8].copy_from_slice(&v.to_le_bytes());
        self.at += 8;
    }
    /// A span's kind and its writer's role share one byte.
    #[inline]
    fn span(&mut self, kind: SpanKind, role: WriterRole) {
        self.u8(kind.code() | (role.code() as u8) << 4);
    }
}

/// Encode one event into `buf`; returns the encoded length.
fn encode_event(t_us: u64, kind: &EventKind, buf: &mut [u8; PAYLOAD_BYTES]) -> usize {
    let mut e = Enc { buf, at: 0 };
    e.var(t_us);
    match kind {
        EventKind::WorkerUp { worker } => {
            e.u8(TAG_WORKER_UP);
            e.var(*worker);
        }
        EventKind::WorkerDown { worker } => {
            e.u8(TAG_WORKER_DOWN);
            e.var(*worker);
        }
        EventKind::JobSubmitted { job, nodes, ppn } => {
            e.u8(TAG_JOB_SUBMITTED);
            e.var(*job);
            e.var((*nodes).into());
            e.var((*ppn).into());
        }
        EventKind::JobStarted { job, nodes, ppn } => {
            e.u8(TAG_JOB_STARTED);
            e.var(*job);
            e.var((*nodes).into());
            e.var((*ppn).into());
        }
        EventKind::JobCompleted {
            job,
            nodes,
            ppn,
            success,
        } => {
            e.u8(TAG_JOB_COMPLETED);
            e.var(*job);
            e.var((*nodes).into());
            e.var((*ppn).into());
            e.u8(*success as u8);
        }
        EventKind::JobPhases {
            job,
            nodes,
            queue_us,
            launch_us,
            pmi_us,
            run_us,
            total_us,
        } => {
            e.u8(TAG_JOB_PHASES);
            e.var(*job);
            e.var((*nodes).into());
            e.var(*queue_us);
            e.var(*launch_us);
            e.var(*run_us);
            e.var(*total_us);
            e.u8(pmi_us.is_some() as u8);
            if let Some(pmi_us) = pmi_us {
                e.var(*pmi_us);
            }
        }
        EventKind::JobRequeued { job } => {
            e.u8(TAG_JOB_REQUEUED);
            e.var(*job);
        }
        EventKind::DeadlineExceeded { job } => {
            e.u8(TAG_DEADLINE_EXCEEDED);
            e.var(*job);
        }
        EventKind::WorkerQuarantined {
            worker,
            strikes,
            until_ms,
        } => {
            e.u8(TAG_WORKER_QUARANTINED);
            e.var(*worker);
            e.var((*strikes).into());
            e.var(*until_ms);
        }
        EventKind::TaskStarted {
            task,
            job,
            worker,
            ranks,
        } => {
            e.u8(TAG_TASK_STARTED);
            e.var(*task);
            e.var(*job);
            e.var(*worker);
            e.var((*ranks).into());
        }
        EventKind::RelayUp { relay } => {
            e.u8(TAG_RELAY_UP);
            e.var(*relay);
        }
        EventKind::RelayDown { relay } => {
            e.u8(TAG_RELAY_DOWN);
            e.var(*relay);
        }
        EventKind::TaskEnded {
            task,
            job,
            worker,
            ranks,
            exit_code,
            trace,
        } => {
            e.u8(TAG_TASK_ENDED);
            e.var(*task);
            e.var(*job);
            e.var(*worker);
            e.var((*ranks).into());
            e.zig(*exit_code);
            e.u64(*trace);
        }
        EventKind::GangReadopted { job } => {
            e.u8(TAG_GANG_READOPTED);
            e.var(*job);
        }
        EventKind::UpQueueDropped { relay, dropped } => {
            e.u8(TAG_UP_QUEUE_DROPPED);
            e.var(*relay);
            e.var(*dropped);
        }
        EventKind::SpanStart {
            trace,
            kind,
            role,
            job,
            task,
        } => {
            e.u8(TAG_SPAN_START);
            e.u64(*trace);
            e.span(*kind, *role);
            e.var(*job);
            e.var(*task);
        }
        EventKind::SpanEnd {
            trace,
            kind,
            role,
            job,
            task,
        } => {
            e.u8(TAG_SPAN_END);
            e.u64(*trace);
            e.span(*kind, *role);
            e.var(*job);
            e.var(*task);
        }
    }
    e.at
}

/// Bounds-checked decoder over a record payload.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Dec<'_> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.at)?;
        self.at += 1;
        Some(v)
    }
    /// LEB128; more than 64 bits of value is refused.
    fn var(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let bits = u64::from(b & 0x7F);
            // The tenth byte has room for one bit.
            if shift == 63 && bits > 1 {
                return None;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }
    fn var_u32(&mut self) -> Option<u32> {
        u32::try_from(self.var()?).ok()
    }
    fn zig(&mut self) -> Option<i32> {
        let v = self.var_u32()?;
        Some((v >> 1) as i32 ^ -((v & 1) as i32))
    }
    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
    /// A span's kind and role byte; `None` on a kind this build lacks.
    fn span(&mut self) -> Option<(SpanKind, WriterRole)> {
        let b = self.u8()?;
        let kind = SpanKind::from_code(b & 0x0F)?;
        Some((kind, WriterRole::from_code((b >> 4).into())))
    }
}

/// Decode one ring payload back into an [`Event`]. `None` on an
/// unknown tag, a short payload or bytes past the event (a record from a
/// newer build, or damage — the caller counts, not crashes).
fn decode_event(payload: &[u8]) -> Option<Event> {
    let mut d = Dec {
        buf: payload,
        at: 0,
    };
    let t_us = d.var()?;
    let kind = match d.u8()? {
        TAG_WORKER_UP => EventKind::WorkerUp { worker: d.var()? },
        TAG_WORKER_DOWN => EventKind::WorkerDown { worker: d.var()? },
        TAG_JOB_SUBMITTED => EventKind::JobSubmitted {
            job: d.var()?,
            nodes: d.var_u32()?,
            ppn: d.var_u32()?,
        },
        TAG_JOB_STARTED => EventKind::JobStarted {
            job: d.var()?,
            nodes: d.var_u32()?,
            ppn: d.var_u32()?,
        },
        TAG_JOB_COMPLETED => EventKind::JobCompleted {
            job: d.var()?,
            nodes: d.var_u32()?,
            ppn: d.var_u32()?,
            success: match d.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            },
        },
        TAG_JOB_PHASES => EventKind::JobPhases {
            job: d.var()?,
            nodes: d.var_u32()?,
            queue_us: d.var()?,
            launch_us: d.var()?,
            run_us: d.var()?,
            total_us: d.var()?,
            pmi_us: match d.u8()? {
                0 => None,
                1 => Some(d.var()?),
                _ => return None,
            },
        },
        TAG_JOB_REQUEUED => EventKind::JobRequeued { job: d.var()? },
        TAG_DEADLINE_EXCEEDED => EventKind::DeadlineExceeded { job: d.var()? },
        TAG_WORKER_QUARANTINED => EventKind::WorkerQuarantined {
            worker: d.var()?,
            strikes: d.var_u32()?,
            until_ms: d.var()?,
        },
        TAG_TASK_STARTED => EventKind::TaskStarted {
            task: d.var()?,
            job: d.var()?,
            worker: d.var()?,
            ranks: d.var_u32()?,
        },
        TAG_RELAY_UP => EventKind::RelayUp { relay: d.var()? },
        TAG_RELAY_DOWN => EventKind::RelayDown { relay: d.var()? },
        TAG_TASK_ENDED => EventKind::TaskEnded {
            task: d.var()?,
            job: d.var()?,
            worker: d.var()?,
            ranks: d.var_u32()?,
            exit_code: d.zig()?,
            trace: d.u64()?,
        },
        TAG_GANG_READOPTED => EventKind::GangReadopted { job: d.var()? },
        TAG_UP_QUEUE_DROPPED => EventKind::UpQueueDropped {
            relay: d.var()?,
            dropped: d.var()?,
        },
        tag @ (TAG_SPAN_START | TAG_SPAN_END) => {
            let trace = d.u64()?;
            let (kind, role) = d.span()?;
            let job = d.var()?;
            let task = d.var()?;
            if tag == TAG_SPAN_START {
                EventKind::SpanStart {
                    trace,
                    kind,
                    role,
                    job,
                    task,
                }
            } else {
                EventKind::SpanEnd {
                    trace,
                    kind,
                    role,
                    job,
                    task,
                }
            }
        }
        _ => return None,
    };
    (d.at == payload.len()).then_some(Event {
        t: Duration::from_micros(t_us),
        kind,
    })
}

/// Flat serde form of one [`Event`]: microseconds since the epoch, the
/// variant name as a string tag, every payload field optional.
///
/// No log is stored in this form (the ring is the only one); it stays,
/// derives and all, because `benchmark/tests/serde_shim.rs` round-trips
/// it through the serde stand-ins.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Microseconds since the log's epoch.
    pub t_us: u64,
    /// Event tag: the `EventKind` variant name.
    pub kind: String,
    /// Worker id (worker/task events).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub worker: Option<u64>,
    /// Relay id (relay events).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub relay: Option<u64>,
    /// Job id (job/task events).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub job: Option<u64>,
    /// Task id (task events).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub task: Option<u64>,
    /// Job node count.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub nodes: Option<u32>,
    /// Job ranks-per-node.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ppn: Option<u32>,
    /// Ranks hosted by a task.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ranks: Option<u32>,
    /// Task exit code.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub exit_code: Option<i32>,
    /// Job success flag.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub success: Option<bool>,
    /// Quarantine strike count.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub strikes: Option<u32>,
    /// Quarantine release time (ms since registry epoch).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub until_ms: Option<u64>,
    /// Queue-wait phase duration (`JobPhases`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub queue_us: Option<u64>,
    /// Launch phase duration (`JobPhases`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub launch_us: Option<u64>,
    /// PMI-negotiation phase duration (`JobPhases`; absent for jobs
    /// that never fence).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pmi_us: Option<u64>,
    /// Run phase duration (`JobPhases`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub run_us: Option<u64>,
    /// End-to-end duration (`JobPhases`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub total_us: Option<u64>,
    /// Cumulative dropped-frame count (`UpQueueDropped`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dropped: Option<u64>,
    /// Trace id (`SpanStart`/`SpanEnd`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<u64>,
    /// Span phase label (`SpanStart`/`SpanEnd`; [`SpanKind::as_str`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub span: Option<String>,
    /// Emitting process role (`SpanStart`/`SpanEnd`;
    /// [`WriterRole::as_str`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub role: Option<String>,
}

impl From<&Event> for EventRecord {
    fn from(e: &Event) -> Self {
        let mut r = EventRecord {
            t_us: e.t.as_micros() as u64,
            ..EventRecord::default()
        };
        match &e.kind {
            EventKind::WorkerUp { worker } => {
                r.kind = "WorkerUp".into();
                r.worker = Some(*worker);
            }
            EventKind::WorkerDown { worker } => {
                r.kind = "WorkerDown".into();
                r.worker = Some(*worker);
            }
            EventKind::RelayUp { relay } => {
                r.kind = "RelayUp".into();
                r.relay = Some(*relay);
            }
            EventKind::RelayDown { relay } => {
                r.kind = "RelayDown".into();
                r.relay = Some(*relay);
            }
            EventKind::JobSubmitted { job, nodes, ppn } => {
                r.kind = "JobSubmitted".into();
                r.job = Some(*job);
                r.nodes = Some(*nodes);
                r.ppn = Some(*ppn);
            }
            EventKind::JobStarted { job, nodes, ppn } => {
                r.kind = "JobStarted".into();
                r.job = Some(*job);
                r.nodes = Some(*nodes);
                r.ppn = Some(*ppn);
            }
            EventKind::JobCompleted {
                job,
                nodes,
                ppn,
                success,
            } => {
                r.kind = "JobCompleted".into();
                r.job = Some(*job);
                r.nodes = Some(*nodes);
                r.ppn = Some(*ppn);
                r.success = Some(*success);
            }
            EventKind::JobPhases {
                job,
                nodes,
                queue_us,
                launch_us,
                pmi_us,
                run_us,
                total_us,
            } => {
                r.kind = "JobPhases".into();
                r.job = Some(*job);
                r.nodes = Some(*nodes);
                r.queue_us = Some(*queue_us);
                r.launch_us = Some(*launch_us);
                r.pmi_us = *pmi_us;
                r.run_us = Some(*run_us);
                r.total_us = Some(*total_us);
            }
            EventKind::JobRequeued { job } => {
                r.kind = "JobRequeued".into();
                r.job = Some(*job);
            }
            EventKind::DeadlineExceeded { job } => {
                r.kind = "DeadlineExceeded".into();
                r.job = Some(*job);
            }
            EventKind::WorkerQuarantined {
                worker,
                strikes,
                until_ms,
            } => {
                r.kind = "WorkerQuarantined".into();
                r.worker = Some(*worker);
                r.strikes = Some(*strikes);
                r.until_ms = Some(*until_ms);
            }
            EventKind::TaskStarted {
                task,
                job,
                worker,
                ranks,
            } => {
                r.kind = "TaskStarted".into();
                r.task = Some(*task);
                r.job = Some(*job);
                r.worker = Some(*worker);
                r.ranks = Some(*ranks);
            }
            EventKind::TaskEnded {
                task,
                job,
                worker,
                ranks,
                exit_code,
                trace,
            } => {
                r.kind = "TaskEnded".into();
                r.task = Some(*task);
                r.job = Some(*job);
                r.worker = Some(*worker);
                r.ranks = Some(*ranks);
                r.exit_code = Some(*exit_code);
                // The untraced sentinel is omitted, as in records from
                // pre-tracing builds.
                r.trace = (*trace != 0).then_some(*trace);
            }
            EventKind::GangReadopted { job } => {
                r.kind = "GangReadopted".into();
                r.job = Some(*job);
            }
            EventKind::UpQueueDropped { relay, dropped } => {
                r.kind = "UpQueueDropped".into();
                r.relay = Some(*relay);
                r.dropped = Some(*dropped);
            }
            EventKind::SpanStart {
                trace,
                kind,
                role,
                job,
                task,
            } => {
                r.kind = "SpanStart".into();
                r.trace = Some(*trace);
                r.span = Some(kind.as_str().into());
                r.role = Some(role.as_str().into());
                r.job = Some(*job);
                r.task = Some(*task);
            }
            EventKind::SpanEnd {
                trace,
                kind,
                role,
                job,
                task,
            } => {
                r.kind = "SpanEnd".into();
                r.trace = Some(*trace);
                r.span = Some(kind.as_str().into());
                r.role = Some(role.as_str().into());
                r.job = Some(*job);
                r.task = Some(*task);
            }
        }
        r
    }
}

impl EventRecord {
    /// Reconstruct the in-memory [`Event`]. Fails with `InvalidData` on
    /// an unknown tag or a missing payload field.
    pub fn into_event(self) -> io::Result<Event> {
        let missing = || io::Error::new(io::ErrorKind::InvalidData, "event record missing field");
        let kind = match self.kind.as_str() {
            "WorkerUp" => EventKind::WorkerUp {
                worker: self.worker.ok_or_else(missing)?,
            },
            "WorkerDown" => EventKind::WorkerDown {
                worker: self.worker.ok_or_else(missing)?,
            },
            "RelayUp" => EventKind::RelayUp {
                relay: self.relay.ok_or_else(missing)?,
            },
            "RelayDown" => EventKind::RelayDown {
                relay: self.relay.ok_or_else(missing)?,
            },
            "JobSubmitted" => EventKind::JobSubmitted {
                job: self.job.ok_or_else(missing)?,
                nodes: self.nodes.ok_or_else(missing)?,
                ppn: self.ppn.ok_or_else(missing)?,
            },
            "JobStarted" => EventKind::JobStarted {
                job: self.job.ok_or_else(missing)?,
                nodes: self.nodes.ok_or_else(missing)?,
                ppn: self.ppn.ok_or_else(missing)?,
            },
            "JobCompleted" => EventKind::JobCompleted {
                job: self.job.ok_or_else(missing)?,
                nodes: self.nodes.ok_or_else(missing)?,
                ppn: self.ppn.ok_or_else(missing)?,
                success: self.success.ok_or_else(missing)?,
            },
            "JobPhases" => EventKind::JobPhases {
                job: self.job.ok_or_else(missing)?,
                nodes: self.nodes.ok_or_else(missing)?,
                queue_us: self.queue_us.ok_or_else(missing)?,
                launch_us: self.launch_us.ok_or_else(missing)?,
                pmi_us: self.pmi_us,
                run_us: self.run_us.ok_or_else(missing)?,
                total_us: self.total_us.ok_or_else(missing)?,
            },
            "JobRequeued" => EventKind::JobRequeued {
                job: self.job.ok_or_else(missing)?,
            },
            "DeadlineExceeded" => EventKind::DeadlineExceeded {
                job: self.job.ok_or_else(missing)?,
            },
            "WorkerQuarantined" => EventKind::WorkerQuarantined {
                worker: self.worker.ok_or_else(missing)?,
                strikes: self.strikes.ok_or_else(missing)?,
                until_ms: self.until_ms.ok_or_else(missing)?,
            },
            "TaskStarted" => EventKind::TaskStarted {
                task: self.task.ok_or_else(missing)?,
                job: self.job.ok_or_else(missing)?,
                worker: self.worker.ok_or_else(missing)?,
                ranks: self.ranks.ok_or_else(missing)?,
            },
            "TaskEnded" => EventKind::TaskEnded {
                task: self.task.ok_or_else(missing)?,
                job: self.job.ok_or_else(missing)?,
                worker: self.worker.ok_or_else(missing)?,
                ranks: self.ranks.ok_or_else(missing)?,
                exit_code: self.exit_code.ok_or_else(missing)?,
                // Absent on records from pre-tracing builds.
                trace: self.trace.unwrap_or(0),
            },
            "GangReadopted" => EventKind::GangReadopted {
                job: self.job.ok_or_else(missing)?,
            },
            "UpQueueDropped" => EventKind::UpQueueDropped {
                relay: self.relay.ok_or_else(missing)?,
                dropped: self.dropped.ok_or_else(missing)?,
            },
            tag @ ("SpanStart" | "SpanEnd") => {
                let trace = self.trace.ok_or_else(missing)?;
                let kind = self
                    .span
                    .as_deref()
                    .and_then(SpanKind::from_name)
                    .ok_or_else(missing)?;
                let role = self
                    .role
                    .as_deref()
                    .and_then(role_from_name)
                    .ok_or_else(missing)?;
                let job = self.job.ok_or_else(missing)?;
                let task = self.task.ok_or_else(missing)?;
                if tag == "SpanStart" {
                    EventKind::SpanStart {
                        trace,
                        kind,
                        role,
                        job,
                        task,
                    }
                } else {
                    EventKind::SpanEnd {
                        trace,
                        kind,
                        role,
                        job,
                        task,
                    }
                }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown event kind {other:?}"),
                ))
            }
        };
        Ok(Event {
            t: Duration::from_micros(self.t_us),
            kind,
        })
    }
}

/// Default ring capacity in slots (2^17 × 32 B = 4 MiB, one slot a
/// record at a no-op job's sizes): comfortably larger than the event
/// count of any tier-1 run, so `snapshot()` is lossless there, while
/// bounding memory forever on long-lived daemons.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 17;

/// Shared, thread-safe, append-only event log on a lock-free ring.
///
/// [`EventLog::record`] takes no lock and performs no allocation; any
/// number of readers ([`EventLog::snapshot`], [`EventCursor`]) run
/// concurrently without ever stalling the writer. The ring holds the
/// most recent [`EventLog::capacity`] events — older ones are
/// overwritten, and cursors report how many they missed via
/// [`EventCursor::lapped`].
#[derive(Clone)]
pub struct EventLog {
    /// The instant this handle's timeline anchors to.
    epoch: Instant,
    /// Time already on the journal's clock when this handle opened it
    /// (non-zero only for a re-opened flight-recorder file, so a
    /// restarted daemon continues the crashed one's timeline).
    base: Duration,
    ring: Ring,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    /// A fresh in-memory log whose epoch is now.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A fresh in-memory log retaining at least `capacity` events
    /// (rounded up to a power of two, floor [`jets_ring::MIN_CAPACITY`]).
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            epoch: Instant::now(),
            base: Duration::ZERO,
            ring: Ring::anon(capacity),
        }
    }

    /// A log backed by a `MAP_SHARED` flight-recorder file: every
    /// record lands in kernel-owned pages and survives `kill -9`, for
    /// offline replay with [`read_flight`] / `jets flight dump`.
    /// Re-opening an existing file continues its sequence numbers and
    /// its timeline (timestamps stay relative to the *original* epoch).
    /// `role` is stamped into the ring header — the file's *lane* when
    /// `jets trace` merges several processes' flight recorders into one
    /// timeline.
    pub fn file_backed_with_role(
        path: &Path,
        capacity: usize,
        role: WriterRole,
    ) -> io::Result<Self> {
        let ring = Ring::create_with_role(path, capacity, role)?;
        let wall_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        // For a file created just now this is ~0; for a re-opened one
        // it is the age of the journal, keeping new timestamps past
        // the crashed run's instead of restarting at zero.
        let base = Duration::from_micros(wall_us.saturating_sub(ring.epoch_unix_us()));
        Ok(EventLog {
            epoch: Instant::now(),
            base,
            ring,
        })
    }

    /// The log's epoch (the instant `t == 0`, reconstructed for
    /// re-opened flight files).
    pub fn epoch(&self) -> Instant {
        self.epoch.checked_sub(self.base).unwrap_or(self.epoch)
    }

    /// Time since the epoch.
    pub fn now(&self) -> Duration {
        self.base + self.epoch.elapsed()
    }

    /// Append an event stamped with the current time.
    ///
    /// Hot path: an encode into a stack buffer and one lock-free ring
    /// push — no `Mutex`, no allocation (lint-enforced).
    pub fn record(&self, kind: EventKind) {
        let t_us = self.now().as_micros() as u64;
        let mut buf = [0u8; PAYLOAD_BYTES];
        let len = encode_event(t_us, &kind, &mut buf);
        self.ring.push(&buf[..len]);
    }

    /// Open a traced phase: record a [`EventKind::SpanStart`]. Hot
    /// path with the same contract as [`EventLog::record`] — no lock,
    /// no allocation, one ring push (lint-enforced, rule J8).
    pub fn span_start(
        &self,
        trace: u64,
        kind: SpanKind,
        role: WriterRole,
        job: JobId,
        task: TaskId,
    ) {
        self.record(EventKind::SpanStart {
            trace,
            kind,
            role,
            job,
            task,
        });
    }

    /// Close a traced phase: record a [`EventKind::SpanEnd`]. Same
    /// hot-path contract as [`EventLog::span_start`].
    pub fn span_end(&self, trace: u64, kind: SpanKind, role: WriterRole, job: JobId, task: TaskId) {
        self.record(EventKind::SpanEnd {
            trace,
            kind,
            role,
            job,
            task,
        });
    }

    /// Snapshot the retained window, in recording order. This is a ring
    /// *read* — it copies slots without taking any lock, so a snapshot
    /// of any size never stalls recording. If more than
    /// [`EventLog::capacity`] events were ever recorded, the oldest are
    /// gone from the window (use a flight-recorder file for full
    /// history).
    pub fn snapshot(&self) -> Vec<Event> {
        let replay = self.ring.replay();
        let mut events = Vec::with_capacity(replay.records.len());
        for rec in &replay.records {
            if let Some(ev) = decode_event(rec.payload()) {
                events.push(ev);
            }
        }
        events
    }

    /// Total events ever recorded (including any no longer retained).
    pub fn len(&self) -> usize {
        self.ring.records() as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring slots: the events the ring retains before overwriting the
    /// oldest, while each takes one slot.
    pub fn capacity(&self) -> usize {
        self.ring.capacity() as usize
    }

    /// A cursor over the whole retained window, then the live stream.
    /// Polling never blocks the writer (or anything else).
    pub fn reader(&self) -> EventCursor {
        EventCursor {
            inner: self.ring.reader(),
            decode_errors: 0,
        }
    }

    /// Flush a file-backed log to disk now (clean-shutdown nicety; the
    /// mmap survives `kill -9` without it). No-op for in-memory logs.
    pub fn sync(&self) -> io::Result<()> {
        self.ring.sync()
    }
}

/// A lock-free cursor over an [`EventLog`]'s ring. Each cursor owns its
/// position: polling copies committed slots and never takes a lock, so
/// live consumers (`jets top`, the Prometheus gauges) cannot stall the
/// dispatcher's record path.
pub struct EventCursor {
    inner: RingReader,
    decode_errors: u64,
}

impl EventCursor {
    /// Next event, or `None` when caught up with the writer.
    pub fn poll(&mut self) -> Option<Event> {
        loop {
            let rec = self.inner.poll()?;
            match decode_event(rec.payload()) {
                Some(ev) => return Some(ev),
                None => self.decode_errors += 1,
            }
        }
    }

    /// Events this cursor missed because the writer lapped it (one a
    /// slot skipped, for an event that took several: see
    /// [`jets_ring::RingReader::lapped`]).
    pub fn lapped(&self) -> u64 {
        self.inner.lapped()
    }

    /// The ring slot the next poll will look at.
    pub fn position(&self) -> u64 {
        self.inner.position()
    }

    /// Records that could not be decoded (newer build's tags, or
    /// damage).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Of the lapped records, those lost mid-copy (the writer moved the
    /// slot stamp during the read) rather than before it.
    pub fn torn(&self) -> u64 {
        self.inner.torn()
    }
}

/// An offline replay of a flight-recorder file (typically from a
/// process that no longer exists — `kill -9`, OOM, power loss).
#[derive(Debug)]
pub struct FlightView {
    /// Every committed, decodable event, in recording order.
    pub events: Vec<Event>,
    /// Events lost to writes in flight at the moment of death (0 or 1
    /// for a quiescent file, whose writers claim one record at a time;
    /// see [`jets_ring::Replay::torn`]).
    pub torn: u64,
    /// Committed records whose payload did not decode (a newer build's
    /// event tags, or corruption).
    pub undecodable: u64,
    /// Events overwritten before the crash (total recorded − retained −
    /// torn).
    pub overwritten: u64,
    /// Total events ever recorded by the dead process(es).
    pub total_recorded: u64,
    /// Ring slots the retained records take (decodable or not).
    pub slots: u64,
    /// Wall-clock microseconds (Unix epoch) of the journal's `t == 0`.
    pub epoch_unix_us: u64,
    /// PID of the most recent writer process.
    pub writer_pid: u64,
    /// The writer's process role — this file's lane in a merged
    /// cross-process trace ([`WriterRole::Unknown`] for legacy files).
    pub role: WriterRole,
}

/// Map a flight-recorder file read-only and replay everything it
/// retains. The file need not come from a clean shutdown — that is the
/// point.
pub fn read_flight(path: &Path) -> io::Result<FlightView> {
    let ring = Ring::open_read(path)?;
    let replay = ring.replay();
    let mut events = Vec::with_capacity(replay.records.len());
    let (mut undecodable, mut slots) = (0u64, 0u64);
    for rec in &replay.records {
        slots += rec.slots();
        match decode_event(rec.payload()) {
            Some(ev) => events.push(ev),
            None => undecodable += 1,
        }
    }
    let retained = replay.records.len() as u64 + replay.torn;
    Ok(FlightView {
        events,
        torn: replay.torn,
        undecodable,
        overwritten: replay.recorded.saturating_sub(retained),
        total_recorded: replay.recorded,
        slots,
        epoch_unix_us: ring.epoch_unix_us(),
        writer_pid: ring.writer_pid(),
        role: ring.writer_role(),
    })
}

/// A live follow of *another process's* flight-recorder file: the ring
/// is mapped read-only and the cursor starts at the current head, so
/// polling yields only events the writer records after this call — the
/// `jets flight tail` shape. The writer never knows we exist.
pub struct FlightTail {
    ring: Ring,
    cursor: EventCursor,
}

/// Open `path` read-only and seat a cursor at the live head.
pub fn tail_flight(path: &Path) -> io::Result<FlightTail> {
    let ring = Ring::open_read(path)?;
    let cursor = EventCursor {
        inner: ring.reader_from(ring.seq()),
        decode_errors: 0,
    };
    Ok(FlightTail { ring, cursor })
}

impl FlightTail {
    /// Next event recorded since the last poll, or `None` when caught up.
    pub fn poll(&mut self) -> Option<Event> {
        self.cursor.poll()
    }

    /// Events missed because the writer lapped this cursor (a tail that
    /// polls slower than the writer records).
    pub fn lapped(&self) -> u64 {
        self.cursor.lapped()
    }

    /// Wall-clock microseconds (Unix epoch) of the writer's `t == 0`.
    pub fn epoch_unix_us(&self) -> u64 {
        self.ring.epoch_unix_us()
    }

    /// PID the writer stamped into the header at open.
    pub fn writer_pid(&self) -> u64 {
        self.ring.writer_pid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn records_are_time_ordered() {
        let log = EventLog::new();
        log.record(EventKind::WorkerUp { worker: 1 });
        thread::sleep(Duration::from_millis(2));
        log.record(EventKind::WorkerDown { worker: 1 });
        let evs = log.snapshot();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].t <= evs[1].t);
        assert_eq!(evs[0].kind, EventKind::WorkerUp { worker: 1 });
    }

    #[test]
    fn clones_share_the_log() {
        let log = EventLog::new();
        let log2 = log.clone();
        log2.record(EventKind::JobRequeued { job: 3 });
        assert_eq!(log.len(), 1);
        assert_eq!(log.epoch(), log2.epoch());
    }

    /// Record one of every variant; returns what was recorded, in
    /// order, so callers can compare storage against ground truth.
    fn one_of_each(log: &EventLog) -> Vec<EventKind> {
        let kinds = vec![
            EventKind::WorkerUp { worker: 1 },
            EventKind::RelayUp { relay: 7 },
            EventKind::JobSubmitted {
                job: 2,
                nodes: 4,
                ppn: 2,
            },
            EventKind::JobStarted {
                job: 2,
                nodes: 4,
                ppn: 2,
            },
            EventKind::TaskStarted {
                task: 3,
                job: 2,
                worker: 1,
                ranks: 2,
            },
            EventKind::TaskEnded {
                task: 3,
                job: 2,
                worker: 1,
                ranks: 2,
                exit_code: crate::spec::EXIT_CANCELED,
                trace: 0xDEAD_BEEF_CAFE_F00D,
            },
            EventKind::JobCompleted {
                job: 2,
                nodes: 4,
                ppn: 2,
                success: false,
            },
            EventKind::JobPhases {
                job: 2,
                nodes: 4,
                queue_us: 1_500,
                launch_us: 200,
                pmi_us: Some(900),
                run_us: 10_000,
                total_us: 12_600,
            },
            // A sequential job has no PMI phase: `pmi_us` must
            // round-trip as absent, not as zero.
            EventKind::JobPhases {
                job: 5,
                nodes: 1,
                queue_us: 10,
                launch_us: 5,
                pmi_us: None,
                run_us: 50,
                total_us: 65,
            },
            EventKind::JobRequeued { job: 2 },
            EventKind::DeadlineExceeded { job: 2 },
            EventKind::WorkerQuarantined {
                worker: 1,
                strikes: 3,
                until_ms: 99,
            },
            EventKind::GangReadopted { job: 2 },
            EventKind::UpQueueDropped {
                relay: 7,
                dropped: 31,
            },
            EventKind::SpanStart {
                trace: 0xDEAD_BEEF_CAFE_F00D,
                kind: SpanKind::Exec,
                role: WriterRole::Worker,
                job: 2,
                task: 3,
            },
            EventKind::SpanEnd {
                trace: 0xDEAD_BEEF_CAFE_F00D,
                kind: SpanKind::Exec,
                role: WriterRole::Worker,
                job: 2,
                task: 3,
            },
            EventKind::RelayDown { relay: 7 },
            EventKind::WorkerDown { worker: 1 },
        ];
        for k in &kinds {
            log.record(k.clone());
        }
        kinds
    }

    /// Every `EventKind` variant has its [`EventRecord`] tag, and the
    /// record converts back to the same event; a record with an unknown
    /// tag or a missing field is refused.
    #[test]
    fn every_kind_maps_to_its_record_tag() {
        let log = EventLog::new();
        one_of_each(&log);
        let original = log.snapshot();

        // Exhaustiveness guard: this wildcard-free match breaks the
        // build when a variant is added, and the count below fails until
        // the new variant is actually exercised above.
        fn tag(k: &EventKind) -> &'static str {
            match k {
                EventKind::WorkerUp { .. } => "WorkerUp",
                EventKind::WorkerDown { .. } => "WorkerDown",
                EventKind::JobSubmitted { .. } => "JobSubmitted",
                EventKind::JobStarted { .. } => "JobStarted",
                EventKind::JobCompleted { .. } => "JobCompleted",
                EventKind::JobPhases { .. } => "JobPhases",
                EventKind::JobRequeued { .. } => "JobRequeued",
                EventKind::DeadlineExceeded { .. } => "DeadlineExceeded",
                EventKind::WorkerQuarantined { .. } => "WorkerQuarantined",
                EventKind::TaskStarted { .. } => "TaskStarted",
                EventKind::RelayUp { .. } => "RelayUp",
                EventKind::RelayDown { .. } => "RelayDown",
                EventKind::TaskEnded { .. } => "TaskEnded",
                EventKind::GangReadopted { .. } => "GangReadopted",
                EventKind::UpQueueDropped { .. } => "UpQueueDropped",
                EventKind::SpanStart { .. } => "SpanStart",
                EventKind::SpanEnd { .. } => "SpanEnd",
            }
        }
        let covered: std::collections::BTreeSet<&str> =
            original.iter().map(|e| tag(&e.kind)).collect();
        assert_eq!(covered.len(), 17, "a variant is not exercised: {covered:?}");
        for o in &original {
            let rec = EventRecord::from(o);
            assert_eq!(rec.kind, tag(&o.kind));
            assert_eq!(&rec.into_event().unwrap(), o);
        }

        for kind in ["NoSuchKind", "WorkerUp"] {
            let rec = EventRecord {
                kind: kind.into(),
                ..EventRecord::default()
            };
            assert!(rec.into_event().is_err(), "{kind} with no fields");
        }
    }

    /// The ring codec is the *primary* storage now: every variant must
    /// survive the encode → slot → decode trip bit-exactly. No serde
    /// anywhere on this path, so this test genuinely runs in the
    /// offline stub workspace too.
    #[test]
    fn ring_codec_round_trips_every_kind() {
        let log = EventLog::new();
        let recorded = one_of_each(&log);
        let back = log.snapshot();
        assert_eq!(back.len(), recorded.len(), "nothing lost in the ring");
        for (b, k) in back.iter().zip(&recorded) {
            assert_eq!(&b.kind, k);
        }
        for pair in back.windows(2) {
            assert!(pair[0].t <= pair[1].t, "timestamps stay monotone");
        }

        // Garbage payloads decode to None, never panic.
        assert!(decode_event(&[]).is_none());
        assert!(decode_event(&[0xff; 9]).is_none());
    }

    /// Every variant at its widest — `u64::MAX` ids and times, a `Some`
    /// PMI phase, every span kind in every role — fits one ring record,
    /// across as many slots as it needs, and comes back out of a ring
    /// intact, and every proper prefix of it, and every extension, is
    /// refused. A field added later fails here, not as a `push`
    /// assertion on the hot path.
    #[test]
    fn every_event_fits_its_slot() {
        const M: u64 = u64::MAX;
        const N: u32 = u32::MAX;
        let mut widest = vec![
            EventKind::WorkerUp { worker: M },
            EventKind::WorkerDown { worker: M },
            EventKind::JobSubmitted {
                job: M,
                nodes: N,
                ppn: N,
            },
            EventKind::JobStarted {
                job: M,
                nodes: N,
                ppn: N,
            },
            EventKind::JobCompleted {
                job: M,
                nodes: N,
                ppn: N,
                success: true,
            },
            EventKind::JobPhases {
                job: M,
                nodes: N,
                queue_us: M,
                launch_us: M,
                pmi_us: Some(M),
                run_us: M,
                total_us: M,
            },
            EventKind::JobRequeued { job: M },
            EventKind::DeadlineExceeded { job: M },
            EventKind::WorkerQuarantined {
                worker: M,
                strikes: N,
                until_ms: M,
            },
            EventKind::TaskStarted {
                task: M,
                job: M,
                worker: M,
                ranks: N,
            },
            EventKind::RelayUp { relay: M },
            EventKind::RelayDown { relay: M },
            EventKind::TaskEnded {
                task: M,
                job: M,
                worker: M,
                ranks: N,
                exit_code: i32::MIN,
                trace: M,
            },
            EventKind::GangReadopted { job: M },
            EventKind::UpQueueDropped {
                relay: M,
                dropped: M,
            },
        ];
        let roles = [
            WriterRole::Unknown,
            WriterRole::Dispatcher,
            WriterRole::Relay,
            WriterRole::Worker,
        ];
        for kind in SpanKind::ALL {
            for role in roles {
                let (trace, job, task) = (M, M, M);
                widest.push(EventKind::SpanStart {
                    trace,
                    kind,
                    role,
                    job,
                    task,
                });
                widest.push(EventKind::SpanEnd {
                    trace,
                    kind,
                    role,
                    job,
                    task,
                });
            }
        }
        // Exhaustive: a new variant does not compile until it has an
        // index here, and fails until it has an entry above.
        fn variant(kind: &EventKind) -> usize {
            match kind {
                EventKind::WorkerUp { .. } => 0,
                EventKind::WorkerDown { .. } => 1,
                EventKind::JobSubmitted { .. } => 2,
                EventKind::JobStarted { .. } => 3,
                EventKind::JobCompleted { .. } => 4,
                EventKind::JobPhases { .. } => 5,
                EventKind::JobRequeued { .. } => 6,
                EventKind::DeadlineExceeded { .. } => 7,
                EventKind::WorkerQuarantined { .. } => 8,
                EventKind::TaskStarted { .. } => 9,
                EventKind::RelayUp { .. } => 10,
                EventKind::RelayDown { .. } => 11,
                EventKind::TaskEnded { .. } => 12,
                EventKind::GangReadopted { .. } => 13,
                EventKind::UpQueueDropped { .. } => 14,
                EventKind::SpanStart { .. } => 15,
                EventKind::SpanEnd { .. } => 16,
            }
        }
        let covered: std::collections::BTreeSet<usize> = widest.iter().map(variant).collect();
        assert_eq!(covered.len(), 17, "a variant has no widest entry");

        let ring = Ring::anon(widest.len());
        let mut longest = 0;
        for kind in &widest {
            let (len, buf) = std::panic::catch_unwind(|| {
                let mut buf = [0u8; PAYLOAD_BYTES];
                (encode_event(M, kind, &mut buf), buf)
            })
            .unwrap_or_else(|_| panic!("{kind:?} overflows a {PAYLOAD_BYTES}-byte payload"));
            longest = longest.max(len);
            let rec = ring.push(&buf[..len]);
            let back = ring
                .reader_from(rec)
                .poll()
                .expect("the record just pushed");
            assert_eq!(back.payload(), &buf[..len]);
            assert_eq!(
                back.slots(),
                len.div_ceil(jets_ring::SLOT_RECORD_BYTES) as u64
            );
            let event = decode_event(back.payload()).expect("decodes");
            assert_eq!((event.t, &event.kind), (Duration::from_micros(M), kind));
            for cut in 0..len {
                assert!(decode_event(&buf[..cut]).is_none(), "{kind:?} cut at {cut}");
            }
            assert!(
                decode_event(&buf[..len + 1]).is_none(),
                "{kind:?} and a byte"
            );
        }
        // JobPhases is the widest: 77 bytes, four slots.
        assert_eq!(longest, 77);
    }

    /// The 17 records a no-op job writes on the dispatcher, with `job`
    /// as its job and task id, worker 127 (the last one-byte id), an
    /// all-bits trace id and phases of about a second.
    fn no_op_job(t_us: u64, job: u64) -> Vec<(u64, EventKind)> {
        let (task, worker, trace) = (job, 127, u64::MAX);
        let span = |kind, end| {
            let role = WriterRole::Dispatcher;
            match end {
                false => EventKind::SpanStart {
                    trace,
                    kind,
                    role,
                    job,
                    task: 0,
                },
                true => EventKind::SpanEnd {
                    trace,
                    kind,
                    role,
                    job,
                    task: 0,
                },
            }
        };
        let mut kinds = vec![
            EventKind::JobSubmitted {
                job,
                nodes: 1,
                ppn: 1,
            },
            EventKind::TaskStarted {
                task,
                job,
                worker,
                ranks: 1,
            },
            EventKind::TaskEnded {
                task,
                job,
                worker,
                ranks: 1,
                exit_code: -1,
                trace,
            },
            EventKind::JobCompleted {
                job,
                nodes: 1,
                ppn: 1,
                success: true,
            },
            EventKind::JobPhases {
                job,
                nodes: 1,
                queue_us: 999_999,
                launch_us: 0,
                pmi_us: None,
                run_us: 999_999,
                total_us: 1_999_999,
            },
        ];
        for kind in [
            SpanKind::Submit,
            SpanKind::Queue,
            SpanKind::Sched,
            SpanKind::Ship,
            SpanKind::Run,
            SpanKind::Report,
        ] {
            kinds.extend([span(kind, false), span(kind, true)]);
        }
        kinds.into_iter().map(|k| (t_us, k)).collect()
    }

    /// Each of the 17 records of a no-op job encodes into one ring slot
    /// at values past any benchmark run's: `t` just under 2^35 µs (9.5
    /// hours; a 20 s run stays under 2^28) and job and task ids just
    /// under 2^21 (a run finishes about 10^6 jobs). `TaskEnded` is the
    /// one with no byte to spare. A field added later that pushes a
    /// record into a second slot fails here instead of doubling the
    /// dispatcher's ring quietly.
    #[test]
    fn a_no_op_job_writes_one_slot_a_record() {
        let records = no_op_job((1 << 35) - 1, (1 << 21) - 1);
        assert_eq!(records.len(), 17);
        for (t_us, kind) in &records {
            let mut buf = [0u8; PAYLOAD_BYTES];
            let len = encode_event(*t_us, kind, &mut buf);
            assert!(
                len <= jets_ring::SLOT_RECORD_BYTES,
                "{kind:?} is {len} bytes, past one slot's {}",
                jets_ring::SLOT_RECORD_BYTES
            );
        }
    }

    /// The default ring keeps its capacity's worth of no-op job records
    /// whole: 2^17 of them, every one decoded.
    #[test]
    fn the_default_ring_retains_its_capacity_in_no_op_records() {
        let log = EventLog::new();
        assert_eq!(log.capacity(), DEFAULT_EVENT_CAPACITY);
        let records = (0..).flat_map(|job| no_op_job(0, job));
        for (_, kind) in records.take(DEFAULT_EVENT_CAPACITY + 100) {
            log.record(kind);
        }
        assert_eq!(log.len(), DEFAULT_EVENT_CAPACITY + 100);
        let snap = log.snapshot();
        assert_eq!(snap.len(), DEFAULT_EVENT_CAPACITY);
        let mut cursor = log.reader();
        let seen = std::iter::from_fn(|| cursor.poll()).count();
        assert_eq!((seen, cursor.decode_errors()), (DEFAULT_EVENT_CAPACITY, 0));
    }

    /// A flight file feeds the stats module unchanged: the series
    /// recomputed from [`read_flight`] match the live log's.
    #[cfg(unix)]
    #[test]
    fn reloaded_log_recomputes_stats() {
        let path = std::env::temp_dir().join(format!("jets-stats-{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = EventLog::file_backed_with_role(&path, 1024, WriterRole::Dispatcher).unwrap();
        log.record(EventKind::WorkerUp { worker: 1 });
        log.record(EventKind::TaskStarted {
            task: 1,
            job: 1,
            worker: 1,
            ranks: 4,
        });
        thread::sleep(Duration::from_millis(5));
        log.record(EventKind::TaskEnded {
            task: 1,
            job: 1,
            worker: 1,
            ranks: 4,
            exit_code: 0,
            trace: 0,
        });
        let back = read_flight(&path).unwrap().events;
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, log.snapshot());
        let live = crate::stats::measured_utilization(&log.snapshot(), 4);
        let offline = crate::stats::measured_utilization(&back, 4);
        assert!(live > 0.0 && (live - offline).abs() < 1e-6);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let log = EventLog::new();
        let mut handles = Vec::new();
        for w in 0..8u64 {
            let l = log.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    l.record(EventKind::WorkerUp { worker: w });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 800);
        assert_eq!(log.snapshot().len(), 800);
    }

    /// The window is bounded: overflowing it overwrites the oldest
    /// events, `len()` keeps counting, and a cursor reports the lap.
    #[test]
    fn overwrite_oldest_with_lap_accounting() {
        let log = EventLog::with_capacity(1024); // the ring's floor
        assert_eq!(log.capacity(), 1024);
        let mut cursor = log.reader();
        for i in 0..1500u64 {
            log.record(EventKind::WorkerUp { worker: i });
        }
        assert_eq!(log.len(), 1500, "total recorded keeps counting");
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1024, "window holds the newest capacity-many");
        assert_eq!(
            snap[0].kind,
            EventKind::WorkerUp { worker: 476 },
            "oldest retained is total - capacity"
        );
        let mut seen = 0u64;
        while cursor.poll().is_some() {
            seen += 1;
        }
        assert_eq!(seen + cursor.lapped(), 1500, "cursor accounts for the lap");
        assert_eq!(cursor.lapped(), 476);
        assert_eq!(cursor.decode_errors(), 0);
    }

    /// The snapshot-stall satellite: readers hammering `snapshot()` and
    /// cursors must never stall `record`. The writer runs a fixed count
    /// flat-out; the test passes iff it completes with full accounting
    /// while three readers spin — with the old `Mutex<Vec>` log this
    /// shape serialized every snapshot clone against the writer.
    #[test]
    fn snapshot_hammer_never_stalls_the_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let log = EventLog::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut hammers = Vec::new();
        for _ in 0..2 {
            let l = log.clone();
            let stop = Arc::clone(&stop);
            hammers.push(thread::spawn(move || {
                let mut snaps = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let _ = l.snapshot();
                    snaps += 1;
                }
                snaps
            }));
        }
        let mut cursor = log.reader();
        const TOTAL: u64 = 100_000;
        for i in 0..TOTAL {
            log.record(EventKind::WorkerUp { worker: i });
        }
        stop.store(true, Ordering::Release);
        for h in hammers {
            assert!(h.join().unwrap() > 0, "snapshots ran during the storm");
        }
        let mut seen = 0u64;
        while cursor.poll().is_some() {
            seen += 1;
        }
        assert_eq!(seen + cursor.lapped(), TOTAL);
        assert_eq!(log.len() as u64, TOTAL);
    }

    #[cfg(unix)]
    #[test]
    fn file_backed_log_replays_offline() {
        let path = std::env::temp_dir().join(format!("jets-events-{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let log = EventLog::file_backed_with_role(&path, 2048, WriterRole::Dispatcher).unwrap();
            one_of_each(&log);
            assert_eq!(log.len(), 18);
        } // dropped without sync(): the mmap still has everything
        let view = read_flight(&path).unwrap();
        assert_eq!(view.events.len(), 18);
        assert_eq!(view.torn, 0);
        assert_eq!(view.undecodable, 0);
        assert_eq!(view.overwritten, 0);
        assert_eq!(view.total_recorded, 18);
        assert!(view.epoch_unix_us > 0);
        assert_eq!(view.role, WriterRole::Dispatcher, "lane survives replay");
        assert!(view.writer_pid > 0);
        assert_eq!(view.events[0].kind, EventKind::WorkerUp { worker: 1 });

        // Re-opening continues the sequence and the timeline.
        {
            let log = EventLog::file_backed_with_role(&path, 2048, WriterRole::Dispatcher).unwrap();
            assert_eq!(log.len(), 18);
            let before = view.events.last().unwrap().t;
            log.record(EventKind::WorkerDown { worker: 9 });
            let view2 = read_flight(&path).unwrap();
            assert_eq!(view2.events.len(), 19);
            assert!(
                view2.events.last().unwrap().t >= before,
                "restarted run's clock continues, never rewinds"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
