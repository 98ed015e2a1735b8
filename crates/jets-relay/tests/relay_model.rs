//! The relay core under a virtual clock: a model check over seeded fault
//! schedules, and one zero-sleep test per decision the relay makes.
//!
//! [`World`] puts the real [`RelayCore`] between the real dispatcher
//! [`Core`] — behind [`World::on_relay`], the shell's translation of the
//! seven relay frames, and [`DFx`], whose sends are routed envelopes — and
//! the real [`PilotCore`], five behind the relay and two beside it, each
//! behind [`PFx`]: seeded task durations, tasks that ignore their grace,
//! runner results that arrive late. Every hop is FIFO with seeded delay,
//! so a `Done` is in flight when a link dies, a `Cancel` crosses a `Done`,
//! and a dead session's frames are still being read after the next one is
//! up. [`RFx`] and [`PFx`] check each frame and fact as it is emitted;
//! [`World::audit`] checks the rest after every input. A failure names
//! seed and case: `CASE=n cargo test -p jets-relay --test relay_model
//! replay -- --ignored --nocapture` prints its frames.

use jets_core::core::{Core, CoreConfig, Effects as DispatcherEffects, Fact as DispatcherFact};
use jets_core::events::EventKind;
use jets_core::journal::{self, Record};
use jets_core::protocol::{TaskAssignment, TaskKind};
use jets_core::{CommandSpec, DispatcherMsg, GroupingPolicy, JobId, JobSpec, QueuePolicy};
use jets_core::{TaskId, WorkerId, WorkerMsg};
use jets_relay::core::{DoneFrame, Effects, Fact, RelayCore};
use jets_ring::stdx::{check, SplitMix64};
use jets_worker::core::{Effects as PilotEffects, Fact as PilotFact, PilotCore};
use jets_worker::executor::TaskOutcome;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const SEED: u64 = 0x5EED_4E1A;
/// Pilots behind the relay; `ALL` counts the two beside it, on
/// connections of their own numbered `DIRECT` + the inputs so far.
const PILOTS: u64 = 5;
const ALL: usize = 7;
const DIRECT: u64 = 1 << 32;
const GRACE: Duration = Duration::from_millis(8);

/// One frame on its way somewhere.
#[derive(Debug, Clone, PartialEq)]
enum Hop {
    /// Relay → dispatcher, stamped with the session it left on.
    Up(u64, WorkerMsg),
    /// Dispatcher → relay, likewise.
    Down(u64, DispatcherMsg),
    /// A pilot → its peer, on connection `local` (or `DIRECT + n`).
    Say(u64, WorkerMsg),
    /// The peer → that pilot.
    Hear(u64, DispatcherMsg),
}

/// The relay's effects: this input's frames, checked as they are emitted.
#[derive(Default)]
struct RFx {
    out: Vec<Hop>,
    facts: Vec<Fact>,
    /// The acks the current session has delivered: global → local.
    acked: BTreeMap<WorkerId, u64>,
    /// Results forwarded under the current session.
    forwarded: BTreeSet<(WorkerId, TaskId)>,
    /// Per input and worker, the last kind sent up: claim 0 → result 1 →
    /// request 2.
    rank: BTreeMap<WorkerId, u8>,
    /// Every frame since the start, when `Some`.
    trace: Option<Vec<Hop>>,
}

impl RFx {
    fn routed(&mut self, worker: WorkerId, rank: u8) {
        let acked = self.acked.contains_key(&worker);
        assert!(acked, "a frame for worker {worker} ahead of its ack");
        let last = self.rank.insert(worker, rank).unwrap_or(0);
        assert!(last <= rank, "worker {worker}: {rank} sent after {last}");
    }

    fn emit(&mut self, hop: Hop) {
        self.trace.iter_mut().for_each(|t| t.push(hop.clone()));
        self.out.push(hop);
    }

    /// This input's frames, taken.
    fn sent(&mut self) -> Vec<Hop> {
        self.rank.clear();
        std::mem::take(&mut self.out)
    }

    /// Forget the frames and facts so far.
    fn reset(&mut self) {
        self.facts.clear();
        self.sent();
    }
}

impl Effects for RFx {
    fn to_member(&mut self, local: u64, msg: &DispatcherMsg) {
        if let DispatcherMsg::Registered { worker_id } = msg {
            let acked = self.acked.get(worker_id);
            assert_eq!(acked, Some(&local), "an ack nobody delivered");
        }
        self.emit(Hop::Hear(local, msg.clone()));
    }

    fn to_upstream(&mut self, msg: &WorkerMsg) {
        match *msg {
            WorkerMsg::RelayMemberState { worker, .. } => self.routed(worker, 0),
            WorkerMsg::RelayDone {
                worker, task_id, ..
            } => {
                self.routed(worker, 1);
                let first = self.forwarded.insert((worker, task_id));
                assert!(first, "task {task_id} reported twice in one session");
            }
            WorkerMsg::RelayRequest { worker } => self.routed(worker, 2),
            _ => {}
        }
        self.emit(Hop::Up(0, msg.clone()));
    }

    fn fact(&mut self, fact: Fact) {
        self.facts.push(fact);
    }
}

/// The dispatcher's effects: sends become routed envelopes on the relay's
/// connection, facts keep the job ledger and the write-ahead log.
#[derive(Default)]
struct DFx {
    /// Frames for the relay, in send order; `None` with no relay connected.
    out: Option<Vec<DispatcherMsg>>,
    /// The direct workers' connections, and the frames for those.
    direct: BTreeMap<WorkerId, u64>,
    to_direct: Vec<(u64, DispatcherMsg)>,
    /// The journal file's bytes, across incarnations.
    wal: Vec<u8>,
    unfinished: BTreeSet<JobId>,
}

impl DFx {
    fn send(&mut self, msg: DispatcherMsg) -> bool {
        self.out.as_mut().map(|out| out.push(msg)).is_some()
    }

    /// Append records to the journal's bytes, framed as the shell's
    /// `Journal` writes them (behind the magic, as it opens a new file).
    fn journal(&mut self, recs: &[Record]) {
        if self.wal.is_empty() {
            self.wal.extend_from_slice(journal::MAGIC);
        }
        journal::append_frames(&mut self.wal, recs).expect("records fit a frame");
    }
}

impl DispatcherEffects for DFx {
    fn send_assign(&mut self, worker: WorkerId, assignment: TaskAssignment) -> bool {
        match self.direct.get(&worker) {
            Some(&conn) => self
                .to_direct
                .push((conn, DispatcherMsg::Assign(assignment))),
            None => return self.send(DispatcherMsg::RelayAssign { worker, assignment }),
        }
        true
    }
    fn send_cancel(&mut self, worker: WorkerId, task_id: TaskId) -> bool {
        match self.direct.get(&worker) {
            Some(&conn) => self
                .to_direct
                .push((conn, DispatcherMsg::Cancel { task_id })),
            None => return self.send(DispatcherMsg::RelayCancel { worker, task_id }),
        }
        true
    }
    fn pmi_start(&mut self, _: JobId, _: &str, _: u32) -> std::io::Result<String> {
        Ok("127.0.0.1:9".to_string())
    }
    fn pmi_abort(&mut self, _: JobId, _: &str) {}
    fn pmi_stop(&mut self, _: JobId) -> Option<Instant> {
        None
    }
    fn fact(&mut self, fact: DispatcherFact<'_>) {
        let mut recs = Vec::new();
        fact.wal(&mut recs);
        self.journal(&recs);
        match fact {
            DispatcherFact::Submitted { jobs } => {
                let fresh = jobs.iter().all(|j| self.unfinished.insert(j.id));
                assert!(fresh, "job id reused");
            }
            DispatcherFact::JobFinished { job, .. } => {
                assert!(self.unfinished.remove(&job), "job {job} finished twice");
            }
            _ => {}
        }
    }
}

/// A pilot's effects: seeded runners, every frame and fact checked as it
/// is emitted.
#[derive(Default)]
struct PFx {
    /// The time, this input's random bits, this input's frames.
    now: u64,
    dice: u64,
    out: Vec<WorkerMsg>,
    /// The connection; writes on it succeed from `Registered` on.
    link: Option<u64>,
    wire: bool,
    gone: bool,
    /// Runner results on their way: when, whose, exit code, and whether
    /// the task left the pilot without it.
    results: Vec<(u64, u64, i32, bool)>,
    /// Tasks accepted with no `Done` on a wire yet, and whether tripped.
    owed: BTreeMap<TaskId, bool>,
    /// The exec span: 0 none, 1 open, 2 closed and awaiting `TaskEnded`.
    span: u8,
}

impl PilotEffects for PFx {
    fn send(&mut self, msg: &WorkerMsg) -> bool {
        assert!(!self.gone, "{msg:?} after Goodbye");
        let claimed = matches!(self.out.first(), Some(WorkerMsg::SessionState { .. }));
        match msg {
            WorkerMsg::Done { task_id, .. } if self.wire => {
                let tripped = self.owed.remove(task_id).expect("a second Done");
                assert!(!(claimed && tripped), "a canceled Done was stashed");
                assert!(self.out.last() != Some(&WorkerMsg::Request), "Done late");
            }
            WorkerMsg::Request => assert_eq!(self.span, 0, "Request with a task in flight"),
            WorkerMsg::SessionState { .. } => assert_eq!(self.out, [], "a late claim"),
            _ => {}
        }
        self.gone = self.wire && *msg == WorkerMsg::Goodbye;
        self.out.extend(self.wire.then(|| msg.clone()));
        self.wire
    }
    fn send_pair(&mut self, done: &WorkerMsg, request: &WorkerMsg) -> bool {
        self.send(done) && self.send(request)
    }
    fn run(&mut self, runner: u64, _fresh: bool) {
        let idle = self.results.iter().all(|r| r.1 != runner || r.3);
        assert!(idle, "runner {runner} handed a second task");
        let (due, failed) = (
            self.now + 1 + self.dice % 50,
            (self.dice >> 8).is_multiple_of(10),
        );
        self.results.push((due, runner, failed as i32, false));
    }
    fn trip(&mut self, task: TaskId) {
        self.owed.insert(task, true);
        // One in three stands down at once; the others ignore their grace.
        let obeys = (self.dice >> 16).is_multiple_of(3);
        if let Some(r) = self.results.iter_mut().rfind(|r| obeys && !r.3) {
            r.0 = self.now + (self.dice >> 24) % 3;
        }
    }
    fn hang_up_read(&mut self) {}
    fn fact(&mut self, fact: PilotFact) {
        let (from, to) = match fact {
            PilotFact::Event(EventKind::SpanStart { .. }) => (0, 1),
            PilotFact::Event(EventKind::SpanEnd { .. }) => (1, 2),
            PilotFact::Event(EventKind::TaskEnded { .. }) => (2, 0),
            _ => return,
        };
        assert_eq!(self.span, from, "{fact:?}");
        // Once the task has left, whatever a runner still owes is late.
        self.span = to;
        self.results.iter_mut().for_each(|r| r.3 |= to == 0);
    }
}

struct Pilot {
    core: PilotCore,
    fx: PFx,
}

struct World {
    rng: SplitMix64,
    t0: Instant,
    now: u64,
    config: CoreConfig,
    disp: Core,
    dfx: DFx,
    /// The dispatcher's end of the live relay connection: session stamp,
    /// relay id, the members it registered.
    conn: Option<(u64, WorkerId, BTreeSet<WorkerId>)>,
    relay: RelayCore,
    rfx: RFx,
    /// The session the relay believes in, how many there have been, and
    /// when the relay notices that the wire died.
    session: Option<u64>,
    sessions: u64,
    eof: Option<u64>,
    /// Frames in flight, in send order, each with its arrival time.
    wire: Vec<(u64, Hop)>,
    pilots: Vec<Pilot>,
    /// Pilot outages with a task in flight, `Cancel`s that crossed the
    /// `Done`, grace expiries.
    seen: [u64; 3],
    /// What the relay has forwarded and not seen end, by member.
    inflight: BTreeMap<u64, (TaskId, JobId)>,
    /// `Cancel`s the last relay input sent to members.
    cancels: BTreeSet<(u64, TaskId)>,
    inputs: u64,
    losses: u64,
    crashes: u64,
}

impl World {
    fn new(seed: u64, upqueue_limit: usize, heartbeat_timeout: Option<Duration>) -> World {
        let t0 = Instant::now();
        let config = CoreConfig {
            queue_policy: QueuePolicy::Fifo,
            grouping: GroupingPolicy::Fcfs,
            quarantine: None,
            heartbeat_timeout,
            reconcile_window: Duration::from_millis(60),
            trace_seed: 7,
        };
        World {
            rng: SplitMix64::new(seed),
            t0,
            now: 0,
            disp: Core::new(config.clone(), t0),
            config,
            dfx: DFx::default(),
            conn: None,
            relay: RelayCore::new("r".into(), "rack".into(), 100, upqueue_limit),
            rfx: RFx::default(),
            session: None,
            sessions: 0,
            eof: None,
            wire: Vec::new(),
            pilots: (0..ALL).map(|_| World::boot()).collect(),
            seen: [0; 3],
            inflight: BTreeMap::new(),
            cancels: BTreeSet::new(),
            inputs: 0,
            losses: 0,
            crashes: 0,
        }
    }

    /// A pilot process, started.
    fn boot() -> Pilot {
        let (core, fx) = (PilotCore::new(GRACE, None), PFx::default());
        Pilot { core, fx }
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }

    /// Put `hop` on its link: FIFO, arriving within `delay` ms or right
    /// behind the frame ahead of it.
    fn send(&mut self, hop: Hop, delay: u64) {
        let link = |h: &Hop| match h {
            Hop::Up(..) | Hop::Down(..) => (std::mem::discriminant(h), 0),
            Hop::Say(l, _) | Hop::Hear(l, _) => (std::mem::discriminant(h), *l),
        };
        let ahead = self.wire.iter().rev().find(|f| link(&f.1) == link(&hop));
        let ahead = ahead.map_or(0, |f| f.0);
        let due = (self.now + self.pick(delay + 1)).max(ahead);
        self.wire.push((due, hop));
    }

    /// One input into the relay core: its frames go onto the links, then
    /// every invariant is checked.
    fn relay<R>(&mut self, input: impl FnOnce(&mut RelayCore, &mut RFx, u64) -> R) -> R {
        let out = input(&mut self.relay, &mut self.rfx, self.now);
        self.inputs += 1;
        self.cancels.clear();
        for hop in self.rfx.sent() {
            match &hop {
                Hop::Hear(local, DispatcherMsg::Assign(a)) => {
                    self.inflight.insert(*local, (a.task_id, a.job_id));
                }
                Hop::Hear(local, DispatcherMsg::Cancel { task_id }) => {
                    self.cancels.insert((*local, *task_id));
                }
                _ => {}
            }
            match hop {
                Hop::Up(_, msg) => {
                    let n = self.session.expect("an upstream frame with no session up");
                    self.send(Hop::Up(n, msg), 3);
                }
                hop => self.send(hop, 3),
            }
        }
        self.audit();
        out
    }

    /// One input into the dispatcher core.
    fn disp(&mut self, input: impl FnOnce(&mut Core, &mut DFx, Instant)) {
        let at = self.t0 + Duration::from_millis(self.now);
        input(&mut self.disp, &mut self.dfx, at);
        self.inputs += 1;
        let out = self.dfx.out.as_mut().map(std::mem::take);
        if let (Some(out), Some(n)) = (out, self.conn.as_ref().map(|c| c.0)) {
            out.into_iter()
                .for_each(|msg| self.send(Hop::Down(n, msg), 9));
        }
        for (conn, msg) in std::mem::take(&mut self.dfx.to_direct) {
            self.send(Hop::Hear(conn, msg), 9);
        }
        self.audit();
    }

    /// One input into pilot `p`'s core: its frames go onto its connection.
    fn pilot<R>(&mut self, p: usize, f: impl FnOnce(&mut PilotCore, &mut PFx, Instant) -> R) -> R {
        let (at, dice) = (
            self.t0 + Duration::from_millis(self.now),
            self.rng.next_u64(),
        );
        let Pilot { core, fx } = &mut self.pilots[p];
        (fx.now, fx.dice) = (self.now, dice);
        let out = f(core, fx, at);
        let (frames, link) = (std::mem::take(&mut fx.out), fx.link);
        for msg in frames {
            let hop = Hop::Say(link.expect("a frame and no connection"), msg);
            self.rfx.trace.iter_mut().for_each(|t| t.push(hop.clone()));
            self.send(hop, 3);
        }
        out
    }

    fn audit(&self) {
        // `by_global` ⊆ acked members — here, exactly this session's acks.
        let acked = self.rfx.acked.iter().map(|(&g, &l)| (g, l));
        assert!(self.relay.routes().eq(acked), "routes differ from the acks");
        for (&g, &l) in &self.rfx.acked {
            assert_eq!(self.relay.global(l), Some(g));
        }
        // No job lost, none held twice: queued ∪ running = unfinished.
        let mut held = BTreeSet::new();
        let queued = self.disp.queue().iter().map(|j| j.id);
        for id in queued.chain(self.disp.active().map(|a| a.0)) {
            assert!(held.insert(id), "job {id} is held twice");
        }
        assert_eq!(held, self.dfx.unfinished, "jobs lost or resurrected");
    }

    /// `DispatcherConn::on_relay`, frame for frame, on the dispatcher core.
    fn on_relay(&mut self, n: u64, msg: WorkerMsg) {
        if let WorkerMsg::RelayHello { .. } = msg {
            self.dfx.out = Some(Vec::new());
            self.conn = Some((n, 0, BTreeSet::new()));
            let mut relay = 0;
            self.disp(|core, fx, _| {
                relay = core.relay_up(fx);
                fx.send(DispatcherMsg::Registered { worker_id: relay });
            });
            return self.conn = Some((n, relay, BTreeSet::new()));
        }
        // A frame off a connection that is already closed goes nowhere.
        let Some((_, relay, mut members)) = self.conn.take_if(|c| c.0 == n) else {
            return;
        };
        let heard = members.contains(match &msg {
            WorkerMsg::RelayRequest { worker }
            | WorkerMsg::RelayDone { worker, .. }
            | WorkerMsg::RelayWorkerGone { worker }
            | WorkerMsg::RelayMemberState { worker, .. } => worker,
            _ => &0,
        });
        self.conn = Some((n, relay, BTreeSet::new())); // `disp` reads the stamp
        self.disp(|core, fx, at| match msg {
            WorkerMsg::RelayRegister {
                local,
                name,
                cores,
                location,
            } => {
                let worker_id = core.register(at, (name, cores, location), Some(relay), fx);
                members.insert(worker_id);
                fx.send(DispatcherMsg::RelayRegistered { local, worker_id });
            }
            WorkerMsg::RelayRequest { worker } if heard => core.request(at, worker, fx),
            WorkerMsg::RelayDone {
                worker,
                task_id,
                exit_code,
                output,
                ..
            } if heard => core.done(at, worker, task_id, exit_code, output, fx),
            WorkerMsg::BatchedHeartbeat { mut workers } => {
                workers.retain(|w| members.contains(w));
                core.heard(at, &workers);
            }
            WorkerMsg::RelayWorkerGone { worker } if heard => {
                members.remove(&worker);
                core.worker_down(at, worker, fx);
            }
            WorkerMsg::RelayMemberState {
                worker,
                task_id,
                job_id,
            } if heard && !core.claim(at, worker, (task_id, job_id), fx) => {
                fx.send(DispatcherMsg::RelayCancel { worker, task_id });
            }
            _ => {}
        });
        self.conn = Some((n, relay, members));
    }

    /// One frame read off upstream session `n` — possibly a dead one.
    fn relay_reads(&mut self, n: u64, msg: DispatcherMsg) {
        let member = |l: u64| self.pilots.iter().any(|p| p.fx.link == Some(l));
        match msg {
            _ if self.session != Some(n) => {}
            DispatcherMsg::RelayRegistered { local, worker_id } if member(local) => {
                self.rfx.acked.insert(worker_id, local);
            }
            DispatcherMsg::RelayCancel { worker, task_id } => {
                let local = self.rfx.acked.get(&worker).copied().unwrap_or(u64::MAX);
                if self.inflight.get(&local).is_some_and(|r| r.0 == task_id) {
                    self.inflight.remove(&local);
                }
            }
            _ => {}
        }
        self.relay(|core, fx, _| core.upstream(n, msg, fx));
    }

    /// `DispatcherConn::on_direct` for a direct pilot's frame, the relay's
    /// `MemberConn::on_frame` for a member's; `Goodbye` closes either.
    fn pilot_says(&mut self, link: u64, msg: WorkerMsg) {
        let worker = self.dfx.direct.iter().find(|d| *d.1 == link).map(|d| *d.0);
        match (msg, worker) {
            (WorkerMsg::Goodbye, _) => {
                let p = self.pilots.iter().position(|p| p.fx.link == Some(link));
                p.into_iter().for_each(|p| self.disconnect(p, true));
            }
            (WorkerMsg::Request, Some(w)) => self.disp(|core, fx, at| core.request(at, w, fx)),
            (WorkerMsg::SessionState { running: Some(r) }, Some(w)) => self.disp(|core, fx, at| {
                let _ = core.claim(at, w, r, fx) || fx.send_cancel(w, r.0);
            }),
            (
                WorkerMsg::Done {
                    task_id: t,
                    exit_code: e,
                    wall_ms,
                    output,
                    trace,
                },
                w,
            ) => match w {
                Some(w) => self.disp(|core, fx, at| core.done(at, w, t, e, output, fx)),
                None if link < DIRECT => {
                    self.inflight.remove(&link);
                    self.relay(|core, fx, now| {
                        core.done(now, link, (t, e, wall_ms, output, trace), fx)
                    });
                }
                None => {}
            },
            _ if link >= DIRECT => {}
            (WorkerMsg::Request, _) => self.relay(|core, fx, now| core.request(now, link, fx)),
            (WorkerMsg::SessionState { running }, _) => {
                running.map(|r| self.inflight.insert(link, r));
                self.relay(|core, fx, now| core.session_state(now, link, running, fx));
            }
            _ => {}
        }
    }

    /// The agent's session loop: one frame off connection `link`.
    fn pilot_hears(&mut self, link: u64, msg: DispatcherMsg) {
        let on_link = |p: &Pilot| p.fx.link == Some(link) && !p.fx.gone;
        let Some(p) = self.pilots.iter().position(on_link) else {
            return;
        };
        let (running, up) = (self.pilots[p].core.running(), self.pilots[p].fx.wire);
        let crossed = |task_id| up && running.map(|r| r.0) != Some(task_id);
        self.seen[1] += matches!(msg, DispatcherMsg::Cancel { task_id } if crossed(task_id)) as u64;
        let staged = self.pick(12) > 0;
        self.pilot(p, |core, fx, now| match msg {
            DispatcherMsg::Registered { worker_id } if !up => {
                fx.wire = true;
                core.session_up(now, worker_id, fx);
                let claim = WorkerMsg::SessionState { running };
                assert!(running.is_none() || fx.out == [claim], "unclaimed");
            }
            // The handshake is not over: the shell would resync.
            _ if !up => {}
            DispatcherMsg::Assign(a) => {
                assert_eq!(running, None, "pilot {p} double-assigned");
                fx.owed.insert(a.task_id, false);
                core.assign(now, &a, staged, fx);
            }
            DispatcherMsg::Cancel { task_id } => core.cancel(now, task_id, fx),
            DispatcherMsg::Shutdown => core.shutdown(fx),
            _ => {}
        });
    }

    /// Pilot `p`'s runners deliver what is due — a late result must change
    /// nothing — and its clock ticks.
    fn pilot_runs(&mut self, p: usize) {
        let now = self.now;
        while let Some(i) = self.pilots[p].fx.results.iter().position(|r| r.0 <= now) {
            let (_, runner, exit_code, late) = self.pilots[p].fx.results.remove(i);
            let (output, was) = (None, self.pilots[p].core.running());
            self.pilot(p, |core, fx, at| {
                let counted = core.finished(at, runner, TaskOutcome { exit_code, output }, fx);
                assert_eq!(counted, !late, "runner {runner}'s result");
                assert!(!late || (fx.out.is_empty() && core.running() == was));
            });
        }
        self.seen[2] += self.pilot(p, |core, fx, at| {
            let expired = core.deadline().is_some_and(|deadline| deadline <= at);
            core.tick(at, fx);
            expired as u64
        });
    }

    /// Time passes: the relay notices a dead wire, due tasks end, and
    /// every frame that is due arrives, in send order.
    fn pass(&mut self, ms: u64) {
        self.now += ms;
        if self.eof.take_if(|at| *at <= self.now).is_some() {
            let n = self.session.take().expect("EOF on no session");
            self.rfx.acked.clear();
            self.relay(|core, _, _| core.session_down(n));
        }
        (0..ALL).for_each(|p| self.pilot_runs(p));
        while let Some(i) = self.wire.iter().position(|f| f.0 <= self.now) {
            match self.wire.remove(i).1 {
                Hop::Up(n, msg) => self.on_relay(n, msg),
                Hop::Down(n, msg) => self.relay_reads(n, msg),
                Hop::Say(link, msg) => self.pilot_says(link, msg),
                Hop::Hear(link, msg) => self.pilot_hears(link, msg),
            }
        }
    }

    /// Pilot `p` — a fresh process, if the last said `Goodbye` — connects
    /// and says `Register`; the ack is on its way.
    fn connect(&mut self, p: usize) {
        if self.pilots[p].fx.link.is_some() {
            return;
        }
        if self.pilots[p].fx.gone {
            self.pilots[p] = World::boot();
        }
        let who = (format!("p{p}"), 1, format!("rack{}", p % 2));
        let conn = DIRECT + self.inputs;
        self.pilots[p].fx.link = Some(match p < PILOTS as usize {
            true => self.relay(|core, fx, now| core.register(now, who, fx)),
            // `DispatcherConn::on_handshake`
            false => {
                self.disp(|core, fx, at| {
                    let worker_id = core.register(at, who, None, fx);
                    fx.direct.insert(worker_id, conn);
                    let registered = DispatcherMsg::Registered { worker_id };
                    fx.to_direct.push((conn, registered));
                });
                conn
            }
        });
    }

    /// Pilot `p`'s end of its connection closes — with the process
    /// (`dies`) or without; returns which connection it was.
    fn hang_up(&mut self, p: usize, dies: bool) -> Option<u64> {
        let link = self.pilots[p].fx.link.take()?;
        self.seen[0] += (!dies && self.pilots[p].core.running().is_some()) as u64;
        self.pilots[p].fx.wire = false;
        self.pilot(p, |core, fx, now| core.session_down(now, fx));
        if dies {
            self.pilots[p] = World::boot();
        }
        Some(link)
    }

    /// Pilot `p`'s connection drops. At the relay, the local fan-out
    /// reaches exactly the same-job siblings.
    fn disconnect(&mut self, p: usize, dies: bool) {
        let Some(local) = self.hang_up(p, dies) else {
            return;
        };
        let worker = self.dfx.direct.iter().find(|d| *d.1 == local).map(|d| *d.0);
        if let Some(worker) = worker {
            self.dfx.direct.remove(&worker);
            return self.disp(|core, fx, at| core.worker_down(at, worker, fx));
        }
        let job = self.inflight.remove(&local).map(|r| r.1);
        let same_job = |(_, r): &(&u64, &(TaskId, JobId))| Some(r.1) == job;
        let siblings = self.inflight.iter().filter(same_job);
        let expected: BTreeSet<(u64, TaskId)> = siblings.map(|(&l, r)| (l, r.0)).collect();
        self.rfx.acked.retain(|_, l| *l != local);
        self.rfx.facts.clear();
        self.relay(|core, fx, _| core.gone(local, fx));
        assert_eq!(self.cancels, expected, "local cancel fan-out");
        let counted = Fact::LocalCancels(expected.len() as u64);
        assert_eq!(self.rfx.facts.contains(&counted), !expected.is_empty());
    }

    /// The relay, knowing it has no session, connects a new one.
    fn connect_upstream(&mut self) {
        if self.session.is_none() {
            self.sessions += 1;
            let n = self.sessions;
            self.session = Some(n);
            self.rfx.forwarded.clear();
            self.relay(|core, fx, _| core.session_up(n, fx));
        }
    }

    /// The wire dies: frames on their way up are lost, the dispatcher
    /// hangs up at once (unless it is what died), the relay finds out a
    /// little later — and keeps reading what the dead session sent down.
    fn lose_upstream(&mut self, crashed: bool) {
        if self.session.is_none() || self.eof.is_some() {
            return;
        }
        self.losses += 1;
        self.wire.retain(|f| !matches!(f.1, Hop::Up(..)));
        self.eof = Some(self.now + self.pick(6));
        self.dfx.out = None;
        if let Some((_, relay, _)) = self.conn.take().filter(|_| !crashed) {
            self.disp(|core, fx, at| core.relay_down(at, relay, fx));
        }
    }

    /// The dispatcher dies and its successor restores from the journal.
    fn crash(&mut self) {
        self.crashes += 1;
        self.lose_upstream(true);
        (self.conn, self.dfx.out) = (None, None);
        (PILOTS as usize..ALL).for_each(|p| _ = self.hang_up(p, false));
        self.dfx.direct.clear();
        let scanned = journal::scan_bytes(&self.dfx.wal).expect("a journal");
        assert_eq!(scanned.dropped_bytes(), 0, "a record did not decode");
        let recovered = journal::recover(&scanned.records);
        self.dfx.journal(&[Record::Restarted]);
        self.disp = Core::new(self.config.clone(), self.t0);
        self.disp(|core, fx, at| core.restore(at, recovered, fx));
    }

    fn tick(&mut self) {
        self.disp(|core, fx, at| core.tick(at, fx));
        self.relay(|core, fx, now| core.tick(now, fx));
    }

    /// One step of the schedule: time passes and one thing happens.
    fn step(&mut self) {
        let (ms, p) = (self.pick(8), self.pick(ALL as u64) as usize);
        self.pass(ms);
        match self.pick(100) {
            0..=14 => {
                let cmd = CommandSpec::builtin("ok", vec![]);
                let spec = match self.pick(4) {
                    0 => JobSpec::mpi(2 + self.pick(2) as u32, cmd),
                    _ => JobSpec::sequential(cmd),
                };
                let spec = match self.pick(3) {
                    0 => spec.with_deadline(Duration::from_millis(10 + self.pick(30))),
                    _ => spec,
                };
                let spec = spec.with_retries(self.pick(3) as u32);
                self.disp(|core, fx, at| drop(core.submit(at, vec![spec], fx)));
            }
            15..=30 => self.tick(),
            31..=50 => self.connect(p),
            51..=67 => self.connect_upstream(),
            68..=72 => self.disconnect(p, true),
            73..=80 => self.disconnect(p, false),
            // Somebody tells the pilot to go, mid-task or not.
            81..=83 => self.pilots[p].fx.link.into_iter().for_each(|link| {
                self.send(Hop::Hear(link, DispatcherMsg::Shutdown), 3);
            }),
            84..=95 => self.lose_upstream(false),
            _ => self.crash(),
        }
    }

    /// One schedule: a two-slot outage buffer (so it overflows), ≥ 200
    /// inputs of faults; then faults stop, everything heals, every job
    /// submitted reaches its terminal state, exactly once, and every pilot
    /// is idle, owing nothing but the `Done`s of canceled tasks.
    fn schedule(seed: u64, trace: bool) -> World {
        let mut w = World::new(seed, 2, None);
        w.rfx.trace = trace.then(Vec::new);
        w.connect_upstream();
        (0..ALL).for_each(|p| w.connect(p));
        while w.inputs < 200 {
            w.step();
        }
        let idle = |p: &Pilot| {
            let quit = p.fx.wire && p.core.running().is_none() && p.fx.span == 0;
            quit && p.fx.owed.values().all(|tripped| *tripped)
        };
        for _ in 0..2_000 {
            if w.dfx.unfinished.is_empty() && w.pilots.iter().all(idle) {
                break;
            }
            w.pass(12);
            w.connect_upstream();
            (0..ALL).for_each(|p| w.connect(p));
            w.tick();
        }
        assert!(w.dfx.unfinished.is_empty(), "stuck: {:?}", w.dfx.unfinished);
        assert!(w.disp.running() == 0 && w.disp.queue().is_empty());
        let owing = w.pilots.iter().position(|p| !idle(p));
        assert_eq!(owing, None, "a pilot still runs, or lost a Done");
        w
    }
}

#[test]
fn seeded_fault_schedules_keep_every_invariant() {
    const SCHEDULES: u64 = 2_000;
    let started = Instant::now();
    let (mut inputs, mut losses, mut crashes, mut seen) = (0, 0, 0, [0; 3]);
    check(SEED, SCHEDULES, |rng| {
        let w = World::schedule(rng.next_u64(), false);
        (inputs, losses, crashes) = (inputs + w.inputs, losses + w.losses, crashes + w.crashes);
        seen = std::array::from_fn(|i| seen[i] + w.seen[i]);
    });
    let secs = started.elapsed().as_secs_f64();
    println!(
        "relay_model: {SCHEDULES} schedules, {inputs} inputs, {losses} upstream losses \
         ({crashes} of them dispatcher crash/restores); pilot outages mid-task, Cancels \
         crossing a Done, grace expiries: {seen:?}; {secs:.2} s"
    );
    assert!(losses - crashes >= SCHEDULES && crashes >= SCHEDULES);
    assert!(seen.iter().all(|n| *n >= SCHEDULES), "{seen:?}");
}

#[test]
fn the_same_seed_gives_the_same_effect_trace() {
    let run = |seed| World::schedule(seed, true).rfx.trace.unwrap();
    let (a, b, other) = (run(SEED), run(SEED), run(SEED + 1));
    assert!(a.len() > 100, "{} frames", a.len());
    assert!(a == b, "two runs of one seed diverged");
    assert!(a != other, "the seed does not matter");
}

/// Replay the schedule `stdx::check` named, printing its frames.
#[test]
#[ignore = "a debugging aid: replays the schedule named by $CASE"]
fn replay_one_case_with_its_trace() {
    let case: u64 = std::env::var("CASE").map_or(0, |s| s.parse().unwrap());
    let run = || World::schedule(SplitMix64::new(SEED + case).next_u64(), true);
    if let Ok(w) = std::panic::catch_unwind(run) {
        w.rfx.trace.iter().flatten().for_each(|h| println!("{h:?}"));
    }
}

// ---------------------------------------------------------------------------
// Scripted driving: the decisions, one at a time.

/// A relay core with `n` members acked as workers 100, 101, … under
/// session 1, and its fake.
fn block(n: u64, upqueue_limit: usize) -> (RelayCore, RFx) {
    let mut core = RelayCore::new("r".into(), "rack".into(), 100, upqueue_limit);
    let mut fx = RFx::default();
    core.session_up(1, &mut fx);
    for local in 0..n {
        let who = (format!("m{local}"), 1, "rack".to_string());
        assert_eq!(core.register(0, who, &mut fx), local);
    }
    ack(&mut core, &mut fx, 1, 0..n);
    (core, fx)
}

/// Session `n` acks `locals` as workers `100 n + local`; returns what the
/// relay sent because of it.
fn ack(core: &mut RelayCore, fx: &mut RFx, n: u64, locals: std::ops::Range<u64>) -> Vec<Hop> {
    fx.sent();
    for local in locals {
        let worker_id = 100 * n + local;
        fx.acked.insert(worker_id, local);
        assert!(core.upstream(n, DispatcherMsg::RelayRegistered { local, worker_id }, fx));
    }
    fx.sent()
}

fn assign(core: &mut RelayCore, fx: &mut RFx, worker: WorkerId, task_id: TaskId, job_id: JobId) {
    let cmd = CommandSpec::builtin("ok", vec![]);
    let (kind, stage, trace) = (TaskKind::Sequential { cmd }, Vec::new(), 9);
    let assignment = TaskAssignment {
        task_id,
        job_id,
        kind,
        stage,
        trace,
    };
    assert!(core.upstream(1, DispatcherMsg::RelayAssign { worker, assignment }, fx));
}

fn done(task_id: TaskId) -> DoneFrame {
    (task_id, 0, 1, None, 9)
}

fn relayed(worker: WorkerId, task_id: TaskId) -> Hop {
    let (exit_code, wall_ms, output, trace) = (0, 1, None, 9);
    let done = WorkerMsg::RelayDone {
        worker,
        task_id,
        exit_code,
        wall_ms,
        output,
        trace,
    };
    Hop::Up(0, done)
}

fn cancel(local: u64, task_id: TaskId) -> Hop {
    Hop::Hear(local, DispatcherMsg::Cancel { task_id })
}

fn gone(worker: WorkerId) -> Hop {
    Hop::Up(0, WorkerMsg::RelayWorkerGone { worker })
}

fn request(worker: WorkerId) -> Hop {
    Hop::Up(0, WorkerMsg::RelayRequest { worker })
}

#[test]
fn a_job_crosses_the_relay_inside_one_span_and_reports_in_arrival_order() {
    let (mut core, mut fx) = block(1, 8);
    core.request(0, 0, &mut fx);
    assert_eq!(fx.sent(), [request(100)]);
    assign(&mut core, &mut fx, 100, 5, 3);
    assert!(matches!(&fx.sent()[..], [Hop::Hear(0, DispatcherMsg::Assign(a))] if a.task_id == 5));
    let edge = |f: &Fact| match f {
        Fact::Event(EventKind::SpanStart { trace: 9, .. }) => "start",
        Fact::Event(EventKind::SpanEnd { trace: 9, .. }) => "end",
        other => panic!("{other:?}"),
    };
    let edges: Vec<&str> = fx.facts.iter().map(edge).collect();
    assert_eq!(edges, ["start", "end"], "one closed relay-forward span");
    // The agent's paired send: the dispatcher must see the result before
    // the request that makes the worker assignable again.
    core.done(1, 0, done(5), &mut fx);
    core.request(1, 0, &mut fx);
    assert_eq!(fx.sent(), [relayed(100, 5), request(100)]);
    // An assignment for a member that just left is bounced, not dropped.
    core.gone(0, &mut fx);
    assign(&mut core, &mut fx, 100, 6, 4);
    assert_eq!(fx.sent(), [gone(100), gone(100)]);
}

#[test]
fn member_death_cancels_same_gang_locally() {
    let (mut core, mut fx) = block(3, 8);
    assign(&mut core, &mut fx, 100, 1, 7);
    assign(&mut core, &mut fx, 101, 2, 7);
    assign(&mut core, &mut fx, 102, 3, 8); // another job: a bystander
    fx.reset();
    core.gone(0, &mut fx);
    assert_eq!(fx.sent(), [cancel(1, 2), gone(100)]);
    assert_eq!(fx.facts, [Fact::LocalCancels(1)]);
    // An idle member's death cancels nobody.
    core.done(0, 2, done(3), &mut fx);
    fx.reset();
    core.gone(2, &mut fx);
    assert_eq!((fx.sent(), fx.facts.len()), (vec![gone(102)], 0));
}

#[test]
fn gang_cancellation_fans_out_at_the_relay() {
    let (mut core, mut fx) = block(4, 8);
    (0..4).for_each(|i| assign(&mut core, &mut fx, 100 + i, 10 + i, 7));
    // A fifth member, registered but not acked yet, never existed
    // upstream: its death is not reported there.
    let late = core.register(0, ("late".into(), 1, "rack".into()), &mut fx);
    fx.reset();
    core.gone(late, &mut fx);
    assert_eq!(fx.sent(), []);
    core.gone(0, &mut fx);
    let cancels = [cancel(1, 11), cancel(2, 12), cancel(3, 13), gone(100)];
    assert_eq!(
        (fx.sent(), &fx.facts[..]),
        (cancels.to_vec(), &[Fact::LocalCancels(3)][..])
    );
    // The dispatcher's own cancel arrives a round-trip later; it is
    // forwarded (the agent ignores the duplicate) and counted nowhere.
    let (worker, task_id) = (101, 11);
    assert!(core.upstream(1, DispatcherMsg::RelayCancel { worker, task_id }, &mut fx));
    assert_eq!((fx.sent(), fx.facts.len()), (vec![cancel(1, 11)], 1));
}

#[test]
fn upqueue_overflow_is_surfaced_on_the_event_log() {
    let (mut core, mut fx) = block(1, 1);
    core.session_down(1);
    fx.acked.clear();
    fx.reset();
    // One slot: every result after the first evicts its predecessor. The
    // counter sees each drop; the log sees one event per second, carrying
    // the cumulative count.
    for (task, now) in [(1, 0), (2, 10), (3, 500), (4, 999), (5, 1_010), (6, 1_500)] {
        core.done(now, 0, done(task), &mut fx);
    }
    let drops = fx.facts.iter().filter(|f| **f == Fact::Dropped).count();
    let event = |f: &Fact| match f {
        Fact::Event(EventKind::UpQueueDropped { dropped, .. }) => Some(*dropped),
        _ => None,
    };
    let events: Vec<u64> = fx.facts.iter().filter_map(event).collect();
    assert_eq!((drops, core.held()), (5, 1));
    assert_eq!(events, [1, 4], "rate limit: at 10 ms and at 1 010 ms");
    // The survivor — the newest — is what the next ack replays.
    core.session_up(2, &mut fx);
    let registered = Hop::Hear(0, DispatcherMsg::Registered { worker_id: 200 });
    assert_eq!(
        ack(&mut core, &mut fx, 2, 0..1),
        [registered, relayed(200, 6)]
    );
}

#[test]
fn ticks_during_an_outage_are_inputs_not_queued_frames() {
    let (mut core, mut fx) = block(8, 8);
    (0..8).for_each(|i| assign(&mut core, &mut fx, 100 + i, 10 + i, 50 + i));
    core.session_down(1);
    fx.acked.clear();
    fx.reset();
    // Eight results fill the buffer to its limit; fifty liveness periods
    // of outage must not push one of them out.
    (0..8).for_each(|i| core.done(5, i, done(10 + i), &mut fx));
    (1..=50).for_each(|i| core.tick(5 + 100 * i, &mut fx));
    assert_eq!((fx.sent(), fx.facts.len(), core.held()), (vec![], 0, 8));
    core.session_up(2, &mut fx);
    assert_eq!(fx.sent().len(), 1 + 8, "hello, then the block");
    (0..8).for_each(|i| core.heartbeat(5_100, i));
    let replayed = ack(&mut core, &mut fx, 2, 0..8);
    let results = replayed.iter().filter(|h| matches!(h, Hop::Up(..)));
    let all_eight: Vec<Hop> = (0..8).map(|i| relayed(200 + i, 10 + i)).collect();
    assert!(results.eq(&all_eight), "{replayed:?}");
    core.tick(5_105, &mut fx);
    let workers = (200..208).collect();
    let vouched = Hop::Up(0, WorkerMsg::BatchedHeartbeat { workers });
    assert_eq!((fx.sent(), core.held()), (vec![vouched], 0));
    assert_eq!(fx.facts, [Fact::Heartbeat], "no drop, one heartbeat");
}

#[test]
fn a_dead_sessions_frames_are_dropped_on_arrival() {
    let (mut core, mut fx) = block(0, 8);
    let local = core.register(0, ("m".into(), 1, "rack".into()), &mut fx);
    core.request(0, local, &mut fx);
    // Session 1's reader is slow: its ack is applied after the session
    // was replaced. Installing it would route session 2 under a dead id.
    core.session_down(1);
    core.session_up(2, &mut fx);
    fx.sent();
    let worker_id = 100;
    assert!(core.upstream(
        1,
        DispatcherMsg::RelayRegistered { local, worker_id },
        &mut fx
    ));
    assert!(
        core.upstream(1, DispatcherMsg::Shutdown, &mut fx),
        "even this"
    );
    assert_eq!((fx.sent(), core.global(local)), (vec![], None));
    assert_eq!(core.routes().count(), 0);
    // Session 2's own ack lands: handshake, then the standing request.
    let registered = Hop::Hear(local, DispatcherMsg::Registered { worker_id: 200 });
    assert_eq!(ack(&mut core, &mut fx, 2, 0..1), [registered, request(200)]);
    // The dispatcher's shutdown fans out to the block and ends the relay.
    assert!(!core.upstream(2, DispatcherMsg::Shutdown, &mut fx));
    assert_eq!(fx.sent(), [Hop::Hear(local, DispatcherMsg::Shutdown)]);
}

/// The block stays alive on batched frames alone, a member that goes
/// silent drops out of them, and a relay that stops ticking loses the
/// block to the dispatcher's hang detection.
#[test]
fn batched_liveness_keeps_relayed_workers_alive() {
    let mut w = World::new(1, 8, Some(Duration::from_millis(400)));
    w.connect_upstream();
    (0..4).for_each(|p| w.connect(p));
    // `beating` members beat the relay every 50 ms, which vouches for
    // them upstream once per period — if it `ticks`.
    let run = |w: &mut World, periods: u64, beating: u64, ticks: bool| {
        for _ in 0..periods {
            w.pass(50);
            (0..beating).for_each(|l| w.relay(|core, _, now| core.heartbeat(now, l)));
            w.disp(|core, fx, at| core.tick(at, fx));
            if ticks {
                w.relay(|core, fx, now| core.tick(now, fx));
            }
        }
        w.disp.registry().alive_count()
    };
    assert_eq!(run(&mut w, 32, 4, true), 4, "four timeout windows");
    let vouched = w.rfx.facts.iter().filter(|f| **f == Fact::Heartbeat);
    assert!(vouched.count() >= 30);
    // Member 3 goes silent: stale at the relay after 100 ms, out of the
    // frames, and hung to the dispatcher one timeout later.
    assert_eq!(run(&mut w, 12, 3, true), 3);
    assert_eq!(run(&mut w, 10, 3, false), 0, "nobody vouches, nobody lives");
}
