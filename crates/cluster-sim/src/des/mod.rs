//! One deterministic world: the four real cores under one seeded clock.
//!
//! [`World`] runs the real dispatcher [`Core`] behind [`Fx`] (its WAL kept
//! as the journal's bytes, its PMI service the real `PmiService`), one
//! [`RelayCore`] behind [`RFx`] and seven [`PilotCore`]s — five relayed,
//! two direct. An `MpiProxy`'s rank sends the lines `PmiClient` sends:
//! `init` (under the PMI job id its assignment carries), `put bc.<rank>`,
//! `fence`, then `finalize` — or `abort`. Time is virtual µs; every hop is
//! a one-way FIFO link with seeded delay, and a closing connection
//! delivers what was written, then end-of-file.
//!
//! Pilots say `Register` over their links, and every frame reaches its
//! core through the router the shell calls: [`Core::peer_frame`] over the
//! dispatcher's [`Peer`], or [`RelayCore::member_frame`].
//!
//! Faults, drawn per step: a pilot dies, drops its connection, hangs and
//! comes back, or is told `Shutdown`; the relay loses its upstream; the
//! dispatcher crashes (`journal::scan_bytes` → `recover` → `restore`; its
//! PMI service and sockets die with it) or cannot bind a PMI job; a rank
//! starts past the fence time-out, dies in the fence or aborts.
//!
//! The fakes check every frame and fact as it is emitted, `audit` the rest
//! after every input (no job lost or held twice, `ready ⊆ Idle`, no worker
//! in two gangs, routes = acks (and, once quiet, cover the dispatcher's
//! live relayed workers), a PMI job lives as long as its attempt and is
//! joined by its own ranks only, no rank waits in an aborted fence, no
//! pilot the dispatcher believes in
//! runs an ended task once the links between them are quiet); then the
//! process and link faults stop and everything drains: every job finishes
//! once, every pilot is idle, Eq. (1) is conserved.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

mod dispatcher;
mod pilot;
mod relay;

pub use dispatcher::{Fx, Job};
pub use relay::{Out, RFx};

use dispatcher::FENCE_TIMEOUT;
use jets_core::core::{Core, CoreConfig, Peer};
use jets_core::protocol::{DispatcherMsg, WorkerMsg};
use jets_core::registry::{QuarantinePolicy, WorkerState};
use jets_core::spec::{CommandSpec, JobId, JobSpec, TaskId, WorkerId};
use jets_core::{GroupingPolicy, QueuePolicy};
use jets_pmi::service::ConnId;
use jets_pmi::Message;
use jets_relay::core::{Fact, RelayCore};
use jets_ring::stdx::SplitMix64;
use jets_worker::core::PilotCore;
use jets_worker::executor::TaskOutcome;
use pilot::{Owed, PFx, Proxy};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::take;
use std::time::{Duration, Instant};

/// Pilots behind the relay; the two after them are direct, on
/// connections numbered from `DIRECT` (a member's are below it, and the
/// relay's to the dispatcher is numbered by its session).
const MEMBERS: usize = 5;
const ALL: usize = 7;
const DIRECT: u64 = 1 << 32;
const MS: u64 = 1_000;
const GRACE: Duration = Duration::from_millis(8);
const BEAT: Duration = Duration::from_millis(20);
/// The dispatcher's monitor tick and the relay's liveness flush.
const MONITOR: u64 = 5 * MS;
const FLUSH: u64 = 20 * MS;

/// What the seeded schedules count, in [`World::seen`]'s order.
pub const SEEN: [&str; 8] = [
    "dispatcher crash/restores",
    "upstream losses",
    "pilot outages mid-task",
    "Cancels crossing a Done",
    "grace expiries",
    "fences released",
    "rank deaths mid-fence",
    "fence time-outs",
];

/// One frame on its way; `None` is end-of-file. `Up`/`Down` run between
/// relay and dispatcher, stamped with the session; `Say`/`Hear` between a
/// pilot and its peer, on its connection; `Rank`/`Pmi` between a rank
/// and the PMI service.
#[derive(Debug, Clone, PartialEq)]
enum Hop {
    Up(u64, WorkerMsg),
    Down(u64, DispatcherMsg),
    Say(u64, Option<WorkerMsg>),
    Hear(u64, Option<DispatcherMsg>),
    Rank(ConnId, Option<Message>),
    Pmi(ConnId, Option<Message>),
}

impl Hop {
    /// Which FIFO link it travels.
    fn link(&self) -> (u8, u64) {
        match *self {
            Hop::Up(..) => (0, 0),
            Hop::Down(..) => (1, 0),
            Hop::Say(l, _) => (2, l),
            Hop::Hear(l, _) => (3, l),
            Hop::Rank(c, _) => (4, c),
            Hop::Pmi(c, _) => (5, c),
        }
    }
}

struct Pilot {
    core: PilotCore,
    fx: PFx,
    /// Stopped: no beats, no reports, no reads, ranks frozen.
    hung: bool,
}

/// Where a rank's script stands: not yet connected, its `fence` out (it
/// dies at `due`, if that is set), computing until `due`, or its
/// `finalize` out.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    Launch,
    Fence,
    Run,
    Finalize,
}

/// One MPI rank: a scripted PMI client on pilot `p`'s runner, told of the
/// PMI service at `addr` and its job `jobid`. Its fate: 0–2 dies in the
/// fence, 3 aborts, 4–6 exits 1, else 0.
struct Rank {
    p: usize,
    runner: u64,
    task: TaskId,
    addr: String,
    jobid: String,
    step: Step,
    due: u64,
    fate: u64,
}

/// The world. See the module docs.
pub struct World {
    rng: SplitMix64,
    disp: Core,
    fx: Fx,
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
    ranks: BTreeMap<ConnId, Rank>,
    /// The attempt each rank connection was launched for.
    launched: BTreeMap<ConnId, u32>,
    /// Connections opened so far: ranks' and pilots'.
    conns: ConnId,
    /// When the monitor ticks and the relay flushes next.
    next: (u64, u64),
    /// Inputs to the four cores so far.
    pub inputs: u64,
    /// Counts, by [`SEEN`].
    pub seen: [u64; 8],
}

/// The policies the world's dispatcher decides under: FIFO, first-come
/// groups, quarantine after two strikes, hung after 100 ms of silence,
/// 80 ms to reconcile after a restart.
pub fn config() -> CoreConfig {
    CoreConfig {
        queue_policy: QueuePolicy::Fifo,
        grouping: GroupingPolicy::Fcfs,
        quarantine: Some(QuarantinePolicy {
            threshold: 2,
            penalty: Duration::from_millis(30),
            decay: Duration::from_millis(400),
            max_penalty: Duration::from_millis(120),
        }),
        heartbeat_timeout: Some(Duration::from_millis(100)),
        reconcile_window: Duration::from_millis(80),
        trace_seed: 7,
    }
}

fn boot() -> Pilot {
    let (core, fx) = (PilotCore::new(GRACE, Some(BEAT)), PFx::default());
    let hung = false;
    Pilot { core, fx, hung }
}

impl World {
    /// A world at time zero, nobody connected, drawing from `seed`; with
    /// `trace`, it keeps every fact, effect, frame and PMI line.
    pub fn new(seed: u64, trace: bool) -> World {
        #[expect(
            clippy::disallowed_methods,
            reason = "the origin of virtual time: the world reads only offsets from it"
        )]
        let t0 = Instant::now();
        let mut w = World {
            rng: SplitMix64::new(seed),
            disp: Core::new(config(), t0),
            fx: Fx::new(t0),
            relay: RelayCore::new("r".into(), "rack".into(), 50, 2),
            rfx: RFx::default(),
            session: None,
            sessions: 0,
            eof: None,
            wire: Vec::new(),
            pilots: (0..ALL).map(|_| boot()).collect(),
            ranks: BTreeMap::new(),
            launched: BTreeMap::new(),
            conns: 1,
            next: (MONITOR, FLUSH),
            inputs: 0,
            seen: [0; 8],
        };
        w.fx.trace = trace.then(Vec::new);
        w
    }

    /// One schedule: ≥ 300 inputs of faults with a two-slot outage buffer
    /// (so it overflows); then the process and link faults stop (ranks
    /// keep their fates), everything heals, every job submitted reaches its
    /// terminal state exactly once, and every pilot is idle, owing nothing
    /// but the `Done`s of canceled tasks.
    pub fn run(&mut self) {
        self.connect_upstream();
        (0..ALL).for_each(|p| self.connect(p));
        while self.inputs < 300 {
            self.step();
        }
        self.drain();
    }

    /// The trace kept so far.
    pub fn trace(&mut self) -> Vec<String> {
        self.fx.trace.take().unwrap_or_default()
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }

    /// Put `hop` on its link: FIFO, arriving within `delay` µs or right
    /// behind the frame ahead of it.
    fn send(&mut self, hop: Hop, delay: u64) {
        let ahead = self.wire.iter().rev().find(|f| f.1.link() == hop.link());
        let ahead = ahead.map_or(0, |f| f.0);
        let due = (self.fx.now + self.pick(delay + 1)).max(ahead);
        self.wire.push((due, hop));
    }

    /// One input into the dispatcher core; its frames go onto the links.
    fn disp<R>(&mut self, input: impl FnOnce(&mut Core, &mut Fx, Instant) -> R) -> R {
        let at = self.fx.at();
        let out = input(&mut self.disp, &mut self.fx, at);
        self.inputs += 1;
        for (link, msg) in take(&mut self.fx.sent) {
            match link >= DIRECT {
                true => self.send(Hop::Hear(link, Some(msg)), 9 * MS),
                false => self.send(Hop::Down(link, msg), 9 * MS),
            }
        }
        self.pmi_out();
        out
    }

    /// What the PMI service said goes onto the rank links; then the audit.
    fn pmi_out(&mut self) {
        for (conn, msg) in take(&mut self.fx.wire.out) {
            self.send(Hop::Pmi(conn, msg), MS);
        }
        self.audit();
    }

    /// One input into the relay core; its frames go onto the links.
    fn relay<R>(&mut self, input: impl FnOnce(&mut RelayCore, &mut RFx, u64) -> R) -> R {
        self.rfx.cancels.clear();
        let out = input(&mut self.relay, &mut self.rfx, self.fx.now / MS);
        self.inputs += 1;
        for out in self.rfx.sent() {
            let hop = match out {
                // A member's link is what its registration bound.
                Out::Down(local, msg) => Hop::Hear(self.rfx.links[&local], Some(msg)),
                Out::Up(msg) => Hop::Up(self.session.expect("a frame up, no session"), msg),
            };
            self.send(hop, 3 * MS);
        }
        self.audit();
        out
    }

    /// One input into pilot `p`'s core: its frames go onto its connection,
    /// its runners take what it handed them.
    fn pilot<R>(&mut self, p: usize, f: impl FnOnce(&mut PilotCore, &mut PFx, Instant) -> R) -> R {
        let (at, dice) = (self.fx.at(), self.rng.next_u64());
        let Pilot { core, fx, .. } = &mut self.pilots[p];
        (fx.now, fx.dice) = (self.fx.now, dice);
        let out = f(core, fx, at);
        self.inputs += 1;
        let say = |msg| Hop::Say(fx.link.expect("a frame and no connection"), Some(msg));
        let frames: Vec<Hop> = take(&mut fx.out).into_iter().map(say).collect();
        let (spawned, killed) = (take(&mut fx.spawned), take(&mut fx.killed));
        frames.into_iter().for_each(|hop| self.send(hop, 3 * MS));
        spawned.into_iter().for_each(|proxy| self.spawn(p, proxy));
        self.kill(|r| r.p == p && killed.contains(&r.task));
        out
    }

    /// The ranks `doomed` picks die: their connections close.
    fn kill(&mut self, doomed: impl Fn(&Rank) -> bool) {
        let doomed = self.ranks.iter().filter(|r| doomed(r.1));
        for conn in doomed.map(|r| *r.0).collect::<Vec<_>>() {
            self.end(conn, 1);
        }
    }

    /// Has the dispatcher declared `worker` dead (or never heard of it)?
    fn dead(&self, worker: WorkerId) -> bool {
        let state = self.disp.registry().get(worker).map(|w| w.state);
        state.is_none_or(|s| s == WorkerState::Dead)
    }

    /// The dispatcher's connection to the relay: its session number.
    fn upstream(&self) -> Option<u64> {
        self.fx.peers.keys().next().copied().filter(|&n| n < DIRECT)
    }

    /// The worker id the dispatcher knows pilot `p`'s session by, if any.
    fn believed(&self, p: usize) -> Option<WorkerId> {
        let link = self.pilots[p].fx.link?;
        if link >= DIRECT {
            let Some(&Peer::Direct(worker)) = self.fx.peers.get(&link) else {
                return None;
            };
            return Some(worker);
        }
        let local = (*self.rfx.peers.get(&link)?)?;
        let current = self.upstream().is_some_and(|n| self.session == Some(n));
        self.relay.global(local).filter(|_| current)
    }

    /// Nothing is in flight between pilot `p` and the dispatcher.
    fn quiet(&self, p: usize) -> bool {
        let link = self.pilots[p].fx.link;
        !self.wire.iter().any(|f| match f.1 {
            Hop::Say(l, _) | Hop::Hear(l, _) => Some(l) == link,
            Hop::Up(..) | Hop::Down(..) => link.is_some_and(|l| l < DIRECT),
            Hop::Rank(..) | Hop::Pmi(..) => false,
        })
    }

    /// Every invariant that holds after every input.
    fn audit(&self) {
        let (core, fx) = (&self.disp, &self.fx);
        // `by_global` ⊆ acked members — here, exactly this session's acks.
        let acked = self.rfx.acked.iter().map(|(&g, &l)| (g, l));
        assert!(self.relay.routes().eq(acked), "routes differ from the acks");
        // Once nothing is in flight between them, every worker the
        // dispatcher believes the relay fronts is one the relay routes.
        let between = |f: &(u64, Hop)| matches!(f.1, Hop::Up(..) | Hop::Down(..));
        let peer = self.upstream().and_then(|n| fx.peers.get(&n));
        if let Some(&Peer::Relay(relay, _)) = peer.filter(|_| !self.wire.iter().any(between)) {
            let routed = |w: &WorkerId| self.relay.routes().any(|(g, _)| g == *w);
            let stale = core
                .registry()
                .relayed_by(relay)
                .into_iter()
                .find(|w| !routed(w));
            assert_eq!(stale, None, "a relayed worker outlived its member");
        }
        for worker in core.ready().iter() {
            let idle = core.registry().get(worker).map(|w| w.state) == Some(WorkerState::Idle);
            assert!(idle, "worker {worker} is parked but not idle");
        }
        // No job lost, none held twice: queued ∪ running = unfinished.
        let mut held: Vec<JobId> = core.queue().iter().map(|j| j.id).collect();
        let (mut members, mut mpi) = (Vec::new(), Vec::new());
        for (id, attempts, pending) in core.active() {
            held.push(id);
            let spec = &fx.jobs[&id].spec;
            assert!(attempts <= spec.max_retries + 1);
            mpi.extend(spec.is_mpi().then_some(id));
            // Orphans are listed under a dead incarnation's ids.
            let live = |(_, t): &&(WorkerId, TaskId)| fx.open.get(t).is_some_and(|t| !t.orphan);
            members.extend(pending.iter().filter(live).map(|m| m.0));
        }
        held.sort_unstable();
        let kept = held.iter().eq(&fx.unfinished);
        assert!(kept, "jobs lost, resurrected or held twice: {held:?}");
        members.sort_unstable();
        let twice = members.windows(2).find(|w| w[0] == w[1]);
        assert_eq!(twice, None, "a worker is in two gangs");
        // A PMI job lives exactly as long as its attempt.
        assert!(fx.pmi_jobs.keys().eq(&mpi), "PMI jobs {:?}", fx.pmi_jobs);
        fx.wire.audit(&fx.pmi, &fx.pmi_jobs);
        // No zombie: once every frame between them has arrived, a pilot
        // the dispatcher believes in runs only what the dispatcher counts
        // as running, or what it was told to cancel.
        for (p, pilot) in self.pilots.iter().enumerate() {
            let Some((task, _)) = pilot.core.running().filter(|_| pilot.fx.wire) else {
                continue;
            };
            let ended = !fx.open.contains_key(&task) && pilot.core.deadline().is_none();
            let believed = || self.believed(p).is_some_and(|w| !self.dead(w));
            let zombie = ended && believed() && self.quiet(p);
            assert!(!zombie, "p{p} still runs ended task {task}");
        }
    }

    /// A frame, or end-of-file (`None`), off the dispatcher's connection
    /// `conn`, if it is open: into its router, or its close arm. A sever
    /// closes the connection, and the other end reads end-of-file.
    fn read(&mut self, conn: u64, msg: Option<WorkerMsg>) {
        let Some(mut peer) = self.fx.peers.remove(&conn) else {
            return;
        };
        if let Some(msg) = msg {
            let kept = self.disp(|core, fx, at| {
                fx.from = conn;
                let keep = core.peer_frame(at, &mut peer, msg, fx);
                if keep {
                    fx.peers.insert(conn, take(&mut peer));
                }
                keep
            });
            if kept {
                return;
            }
            assert!(conn >= DIRECT, "the dispatcher severed the relay");
            self.send(Hop::Hear(conn, None), MS);
        }
        self.disp(|core, fx, at| core.peer_closed(at, peer, fx));
    }

    /// One frame read off upstream session `n` — possibly a dead one.
    fn relay_reads(&mut self, n: u64, msg: DispatcherMsg) {
        if let DispatcherMsg::RelayRegistered { local, worker_id } = msg {
            if self.session == Some(n) && self.rfx.links.contains_key(&local) {
                self.rfx.acked.insert(worker_id, local);
            }
        }
        self.relay(|core, fx, _| core.upstream(n, msg, fx));
    }

    /// A frame, or end-of-file, off the relay's member connection `conn`,
    /// if it is open: into its router, or `gone`. A sever closes it too.
    fn member_says(&mut self, conn: u64, msg: Option<WorkerMsg>) {
        let Some(mut local) = self.rfx.peers.remove(&conn) else {
            return;
        };
        if let Some(msg) = msg {
            let kept = self.relay(|core, fx, now| {
                fx.from = conn;
                let keep = core.member_frame(now, &mut local, msg, fx);
                if keep {
                    fx.peers.insert(conn, local);
                }
                keep
            });
            if kept {
                return;
            }
            self.send(Hop::Hear(conn, None), 3 * MS);
        }
        let Some(local) = local else {
            return;
        };
        // At the relay, the local fan-out reaches exactly the siblings it
        // holds running the same job.
        let job = self.relay.inflight(local).map(|r| r.1);
        let same = |l: &u64| {
            self.relay
                .inflight(*l)
                .filter(|r| *l != local && Some(r.1) == job)
        };
        let expected: BTreeSet<(u64, TaskId)> = self
            .rfx
            .links
            .keys()
            .filter_map(|l| Some((*l, same(l)?.0)))
            .collect();
        self.rfx.links.remove(&local);
        self.rfx.acked.retain(|_, l| *l != local);
        self.rfx.facts.clear();
        self.relay(|core, fx, _| core.gone(local, fx));
        assert_eq!(self.rfx.cancels, expected, "local cancel fan-out");
        let counted = Fact::LocalCancels(expected.len() as u64);
        assert_eq!(self.rfx.facts.contains(&counted), !expected.is_empty());
    }

    /// The agent's session loop: one frame off connection `link`.
    fn pilot_hears(&mut self, link: u64, msg: Option<DispatcherMsg>) {
        let on_link = |p: &Pilot| p.fx.link == Some(link) && !p.fx.gone;
        let Some(p) = self.pilots.iter().position(on_link) else {
            return;
        };
        let Some(msg) = msg else {
            self.hang_up(p, false);
            return;
        };
        let (running, up) = (self.pilots[p].core.running(), self.pilots[p].fx.wire);
        let crossed = |task_id| up && running.map(|r| r.0) != Some(task_id);
        self.seen[3] += matches!(msg, DispatcherMsg::Cancel { task_id } if crossed(task_id)) as u64;
        let staged = self.pick(12) > 0;
        self.pilot(p, |core, fx, now| match msg {
            DispatcherMsg::Registered { worker_id } if !up => {
                fx.wire = true;
                core.session_up(now, worker_id, fx);
                let claim = WorkerMsg::SessionState { running };
                assert!(running.is_none() || fx.out == [claim], "unclaimed");
            }
            DispatcherMsg::Assign(a) if up => {
                assert_eq!(running, None, "pilot {p} double-assigned");
                fx.owed.insert(a.task_id, false);
                fx.assigning = Some(a.clone());
                core.assign(now, &a, staged, fx);
            }
            DispatcherMsg::Cancel { task_id } if up => core.cancel(now, task_id, fx),
            DispatcherMsg::Shutdown if up => core.shutdown(fx),
            // Before the ack the shell would resync; after it a duplicate
            // ack is ignored, and relay envelopes never reach a pilot.
            DispatcherMsg::Assign(_)
            | DispatcherMsg::Cancel { .. }
            | DispatcherMsg::Shutdown
            | DispatcherMsg::Registered { .. }
            | DispatcherMsg::RelayAssign { .. }
            | DispatcherMsg::RelayCancel { .. }
            | DispatcherMsg::RelayRegistered { .. } => {}
        });
    }

    /// Pilot `p`'s process: a `Goodbye` ends it; its runners deliver what
    /// is due — a late result must change nothing — and its clock ticks.
    fn pilot_runs(&mut self, p: usize) {
        if self.pilots[p].fx.gone {
            return self.disconnect(p, true);
        }
        let now = self.fx.now;
        while let Some(i) = self.pilots[p].fx.results.iter().position(|r| r.0 <= now) {
            let (_, runner, task, exit_code) = self.pilots[p].fx.results.remove(i);
            let was = self.pilots[p].core.running();
            let late = was.map(|r| r.0) != Some(task);
            let outcome = TaskOutcome {
                exit_code,
                output: None,
            };
            self.pilot(p, |core, fx, at| {
                let counted = core.finished(at, runner, outcome, fx);
                assert_eq!(counted, !late, "runner {runner}'s result");
                assert!(!late || (fx.out.is_empty() && core.running() == was));
            });
        }
        let (core, at) = (&self.pilots[p].core, self.fx.at());
        let expired = core.deadline().is_some_and(|d| d <= at);
        if expired || core.heartbeat_due().is_some_and(|d| d <= at) {
            self.seen[4] += expired as u64;
            self.pilot(p, |core, fx, at| core.tick(at, fx));
        }
    }

    /// Pilot `p`'s runner starts a proxy's rank: it connects after a short
    /// delay — or, one time in six, past the fence time-out.
    fn spawn(&mut self, p: usize, (runner, task, place, addr, jobid): Proxy) {
        let late = match self.pick(6) {
            0 => FENCE_TIMEOUT.as_micros() as u64 + 5 * MS + self.pick(20 * MS),
            _ => self.pick(2 * MS),
        };
        let (conn, step, due, fate) = (self.conns, Step::Launch, self.fx.now + late, self.pick(24));
        self.conns += 1;
        self.fx.wire.ranks.insert(conn, place);
        self.launched.insert(conn, self.fx.attempts[&task]);
        let rank = Rank {
            p,
            runner,
            task,
            addr,
            jobid,
            step,
            due,
            fate,
        };
        self.ranks.insert(conn, rank);
    }

    /// Rank `conn` ends with `exit_code`: its connection closes, its
    /// runner reports.
    fn end(&mut self, conn: ConnId, exit_code: i32) {
        let r = self.ranks.remove(&conn).expect("a rank");
        if r.step != Step::Launch {
            self.send(Hop::Rank(conn, None), MS);
        }
        let mut owed = self.pilots[r.p].fx.results.iter_mut();
        let ours = |o: &&mut Owed| (o.0, o.1, o.2) == (u64::MAX, r.runner, r.task);
        if let Some(o) = owed.find(ours) {
            (o.0, o.3) = (self.fx.now, exit_code);
        }
    }

    /// Rank `conn`'s timed step is due.
    fn rank_runs(&mut self, conn: ConnId) {
        let r = &self.ranks[&conn];
        let line = |msg| Hop::Rank(conn, Some(msg));
        match r.step {
            // Refused: the service it was told of died with its dispatcher.
            Step::Launch if r.addr != self.fx.wire.addr => self.end(conn, 1),
            Step::Launch => {
                let (jobid, fate) = (r.jobid.clone(), r.fate);
                let (_, rank, size) = self.fx.wire.ranks[&conn];
                let (key, value) = (format!("bc.{rank}"), format!("10.0.0.{}:4000/{rank}", r.p));
                self.send(line(Message::Init { rank, size, jobid }), MS);
                self.send(line(Message::Put { key, value }), MS);
                let reason = "the program failed".to_string();
                let last = (fate == 3).then_some(Message::Abort { reason });
                self.send(line(last.unwrap_or(Message::Fence)), MS);
                let dies = match fate {
                    0..=2 => self.fx.now + self.pick(3 * MS),
                    3 => self.fx.now,
                    _ => u64::MAX,
                };
                let r = self.ranks.get_mut(&conn).unwrap();
                (r.step, r.due) = (Step::Fence, dies);
            }
            Step::Fence => {
                self.seen[6] += (r.fate <= 2) as u64;
                self.end(conn, 1);
            }
            Step::Run => {
                self.send(line(Message::Finalize), MS);
                let r = self.ranks.get_mut(&conn).unwrap();
                (r.step, r.due) = (Step::Finalize, u64::MAX);
            }
            Step::Finalize => unreachable!("waits for a reply"),
        }
    }

    /// A reply (or end-of-file) from the PMI service reaches rank `conn`.
    fn rank_hears(&mut self, conn: ConnId, msg: Option<Message>) {
        let Some(r) = self.ranks.get_mut(&conn) else {
            return;
        };
        match (msg, r.step) {
            (Some(Message::InitAck | Message::PutAck), _) => {}
            // One that was to die in the fence dies just after it.
            (Some(Message::FenceAck { .. }), Step::Fence) if r.fate <= 2 => self.end(conn, 1),
            (Some(Message::FenceAck { .. }), Step::Fence) => {
                let compute = MS * (1 + self.rng.gen_range(0..30));
                (r.step, r.due) = (Step::Run, self.fx.now + compute);
            }
            (Some(Message::FinalizeAck), Step::Finalize) => {
                let exit_code = (4..=6).contains(&r.fate) as i32;
                self.end(conn, exit_code);
            }
            (Some(Message::Abort { .. }) | None, _) => self.end(conn, 1),
            (other, _) => panic!("rank on conn {conn} heard {other:?}"),
        }
    }

    /// The PMI service reads rank `conn`'s next line, or its end-of-file.
    /// Lines behind one the service closed the connection on are not
    /// inputs, and a dead incarnation's connections reach nobody.
    fn pmi_hears(&mut self, conn: ConnId, msg: Option<Message>) {
        let wire = &self.fx.wire;
        if !wire.ranks.contains_key(&conn) || wire.closed.contains(&conn) {
            return;
        }
        // A first fence's release is the hub's `on_release`: the same event.
        let mut released = false;
        let init = matches!(msg, Some(Message::Init { .. }));
        self.disp(|core, fx, at| {
            let Some(msg) = msg else {
                fx.wire.gone(conn);
                return fx.pmi.on_disconnect(conn, &mut fx.wire);
            };
            if msg == Message::Fence {
                fx.wire.fencing(conn);
            }
            let first = fx
                .pmi
                .on_frame(conn, msg.encode().as_bytes(), at, &mut fx.wire);
            if let Some((job, at)) = first {
                core.fence_released(job, at, fx);
                released = true;
            }
        });
        self.seen[5] += released as u64;
        // A straggler of an earlier attempt names that attempt's job.
        if init && self.fx.wire.open.contains_key(&conn) {
            let (job, launched) = (self.fx.wire.ranks[&conn].0, self.launched[&conn]);
            let live = self.fx.jobs[&job].attempts;
            assert_eq!(
                launched, live,
                "a rank of job {job}'s attempt {launched} joined attempt {live}"
            );
        }
    }

    /// Can `hop` be read now? Not by a hung process.
    fn readable(&self, hop: &Hop) -> bool {
        match *hop {
            Hop::Hear(l, _) => !self.pilots.iter().any(|p| p.hung && p.fx.link == Some(l)),
            Hop::Pmi(c, _) => self.ranks.get(&c).is_none_or(|r| !self.pilots[r.p].hung),
            Hop::Up(..) | Hop::Down(..) | Hop::Say(..) | Hop::Rank(..) => true,
        }
    }

    /// Time passes: the periodic duties run, the relay notices a dead
    /// wire, due tasks and ranks move, and every frame that is due
    /// arrives, in send order.
    fn pass(&mut self, us: u64) {
        self.fx.now += us;
        let now = self.fx.now;
        // The monitor's tick: fence time-outs, then the core's duties.
        if self.next.0 <= now {
            let at = self.fx.at();
            self.next.0 = now + MONITOR;
            self.seen[7] += self.fx.pmi.next_deadline().is_some_and(|d| d <= at) as u64;
            self.disp(|core, fx, at| {
                fx.pmi.tick(at, &mut fx.wire);
                core.tick(at, fx);
            });
        }
        if self.next.1 <= now {
            self.next.1 = now + FLUSH;
            self.relay(|core, fx, now| core.tick(now, fx));
        }
        if self.eof.take_if(|at| *at <= now).is_some() {
            let n = self.session.take().expect("EOF on no session");
            self.rfx.acked.clear();
            self.relay(|core, _, _| core.session_down(n));
        }
        for p in 0..ALL {
            if !self.pilots[p].hung {
                self.pilot_runs(p);
            }
        }
        let timed =
            |(c, r): (&ConnId, &Rank)| (r.due <= now && !self.pilots[r.p].hung).then_some(*c);
        for conn in self.ranks.iter().filter_map(timed).collect::<Vec<_>>() {
            if self.ranks.get(&conn).is_some_and(|r| r.due <= now) {
                self.rank_runs(conn);
            }
        }
        let due = |w: &Self| w.wire.iter().position(|f| f.0 <= now && w.readable(&f.1));
        while let Some(i) = due(self) {
            let hop = self.wire.remove(i).1;
            #[expect(
                clippy::wildcard_enum_match_arm,
                reason = "every other hop is noted as it prints"
            )]
            self.fx.note(|| match &hop {
                Hop::Rank(c, Some(m)) => format!("{c} -> pmi: {}", m.encode()),
                Hop::Pmi(c, Some(m)) => format!("pmi -> {c}: {}", m.encode()),
                hop => format!("{hop:?}"),
            });
            match hop {
                Hop::Up(n, msg) => self.read(n, Some(msg)),
                Hop::Down(n, msg) => self.relay_reads(n, msg),
                // A pilot's frame reaches the dispatcher, or the relay.
                Hop::Say(link @ DIRECT.., msg) => self.read(link, msg),
                Hop::Say(link, msg) => self.member_says(link, msg),
                Hop::Hear(link, msg) => self.pilot_hears(link, msg),
                Hop::Rank(conn, msg) => self.pmi_hears(conn, msg),
                Hop::Pmi(conn, msg) => self.rank_hears(conn, msg),
            }
        }
    }

    /// Pilot `p` — a fresh process, if the last one ended — connects, to
    /// the relay or the dispatcher, and says `Register`.
    fn connect(&mut self, p: usize) {
        match &self.pilots[p] {
            pilot if pilot.fx.link.is_some() || pilot.hung => return,
            pilot if pilot.fx.gone => self.pilots[p] = boot(),
            _ => {}
        }
        let link = self.conns + if p < MEMBERS { 0 } else { DIRECT };
        self.conns += 1;
        if link < DIRECT {
            self.rfx.peers.insert(link, None);
        } else {
            self.fx.peers.insert(link, Peer::Handshake);
        }
        self.pilots[p].fx.link = Some(link);
        let (name, cores, location) = (format!("p{p}"), 1, format!("rack{}", p % 2));
        let register = WorkerMsg::Register {
            name,
            cores,
            location,
        };
        self.send(Hop::Say(link, Some(register)), 3 * MS);
    }

    /// Pilot `p`'s end of its connection is gone — with the process
    /// (`dies`) or without: its session is over. Returns which it was.
    fn hang_up(&mut self, p: usize, dies: bool) -> Option<u64> {
        let link = self.pilots[p].fx.link.take()?;
        self.seen[2] += (!dies && self.pilots[p].core.running().is_some()) as u64;
        self.pilots[p].fx.wire = false;
        self.pilot(p, |core, fx, now| core.session_down(now, fx));
        Some(link)
    }

    /// Pilot `p` closes its connection — with its process (`dies`: the
    /// ranks' sockets close too) or without. Its peer reads what was
    /// written, then end-of-file; the dispatcher's sends fail at once.
    fn disconnect(&mut self, p: usize, dies: bool) {
        if let Some(link) = self.hang_up(p, dies) {
            self.send(Hop::Say(link, None), 3 * MS);
            self.fx.conns.retain(|_, c| *c != (link, false));
        }
        if dies {
            self.kill(|r| r.p == p);
            self.pilots[p] = boot();
        }
    }

    /// The relay, knowing it has no session, connects a new one.
    fn connect_upstream(&mut self) {
        if self.session.is_none() {
            self.sessions += 1;
            let n = self.sessions;
            self.session = Some(n);
            self.fx.peers.insert(n, Peer::Handshake);
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
        self.seen[1] += !crashed as u64;
        self.wire.retain(|f| !matches!(f.1, Hop::Up(..)));
        self.eof = Some(self.fx.now + self.pick(6 * MS));
        let peer = self.upstream().and_then(|n| self.fx.peers.remove(&n));
        if let Some(peer) = peer.filter(|_| !crashed) {
            self.disp(|core, fx, at| core.peer_closed(at, peer, fx));
        }
    }

    /// The dispatcher dies and its successor restores from the journal.
    /// What was on its way in dies with it; what it wrote still arrives,
    /// then end-of-file, on every connection it had.
    fn crash(&mut self) {
        self.seen[0] += 1;
        self.lose_upstream(true);
        let inbound = |h: &Hop| matches!(*h, Hop::Rank(..) | Hop::Say(DIRECT.., _));
        self.wire.retain(|f| !inbound(&f.1));
        let direct: Vec<u64> = self
            .fx
            .peers
            .keys()
            .copied()
            .filter(|&l| l >= DIRECT)
            .collect();
        for link in direct {
            self.send(Hop::Hear(link, None), MS);
        }
        let wire = &self.fx.wire;
        let open = wire.ranks.keys().filter(|c| !wire.closed.contains(c));
        for conn in open.copied().collect::<Vec<_>>() {
            self.send(Hop::Pmi(conn, None), MS);
        }
        let recovered = self.fx.crash();
        self.disp = Core::new(config(), self.fx.t0);
        self.disp(|core, fx, at| core.restore(at, recovered, fx));
    }

    fn submit(&mut self) {
        let cmd = CommandSpec::builtin("ok", vec![]);
        let spec = match self.pick(2) {
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

    /// One step of the schedule: time passes and one thing happens —
    /// mostly work, sometimes a fault.
    fn step(&mut self) {
        let (us, p) = (self.pick(8 * MS), self.pick(ALL as u64) as usize);
        self.pass(us);
        match self.pick(100) {
            0..=14 => self.submit(),
            15..=34 => self.connect(p),
            35..=46 => self.connect_upstream(),
            47..=50 => self.disconnect(p, true),
            51..=68 => self.disconnect(p, false),
            69..=71 => self.pilots[p].hung = true,
            72..=75 => self.pilots[p].hung = false,
            // Somebody tells the pilot to go, mid-task or not.
            76..=78 => self.pilots[p].fx.link.into_iter().for_each(|link| {
                self.send(Hop::Hear(link, Some(DispatcherMsg::Shutdown)), 3 * MS);
            }),
            79..=89 => self.lose_upstream(false),
            90..=93 => self.fx.pmi_fail = true,
            94..=95 => {}
            _ => self.crash(),
        }
    }

    /// Is pilot `p` done: registered, nothing in flight, owing nothing
    /// but the `Done`s of canceled tasks?
    fn idle(&self, p: usize) -> bool {
        let p = &self.pilots[p];
        let quit = p.fx.wire && p.core.running().is_none() && p.fx.span == 0;
        quit && p.fx.owed.values().all(|tripped| *tripped)
    }

    /// Faults stop, everything heals — a relayed pilot the dispatcher
    /// declared hung is restarted (a direct one is severed on its next
    /// frame and reconnects) — and the work drains.
    fn drain(&mut self) {
        for _ in 0..2_000 {
            if self.fx.unfinished.is_empty() && (0..ALL).all(|p| self.idle(p)) {
                break;
            }
            for p in 0..ALL {
                self.pilots[p].hung = false;
                let dead = self.believed(p).is_some_and(|w| self.dead(w));
                let relayed = self.pilots[p].fx.link.is_some_and(|l| l < DIRECT);
                if relayed && self.pilots[p].fx.wire && self.quiet(p) && dead {
                    self.disconnect(p, true);
                }
            }
            self.pass(12 * MS);
            self.connect_upstream();
            (0..ALL).for_each(|p| self.connect(p));
        }
        self.fx.drained(ALL);
        assert!(self.disp.running() == 0 && self.disp.queue().is_empty());
        let owing = (0..ALL).find(|&p| !self.idle(p));
        assert_eq!(owing, None, "a pilot still runs, or lost a Done");
    }
}

/// Run `schedules` worlds drawn from `seed` under `stdx::check`; print the
/// input rate and the [`SEEN`] counts, and assert each ≥ one per schedule.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness times itself; no schedule reads the clock"
)]
pub fn check_schedules(seed: u64, schedules: u64) {
    let started = std::time::Instant::now();
    let (mut inputs, mut seen) = (0, [0; SEEN.len()]);
    jets_ring::stdx::check(seed, schedules, |rng| {
        let mut w = World::new(rng.next_u64(), false);
        w.run();
        inputs += w.inputs;
        seen = std::array::from_fn(|i| seen[i] + w.seen[i]);
    });
    let secs = started.elapsed().as_secs_f64();
    let rate = inputs as f64 / secs;
    println!("world: {schedules} schedules, {inputs} inputs in {secs:.2} s ({rate:.0} inputs/s)");
    SEEN.iter()
        .zip(seen)
        .for_each(|(name, n)| println!("  {name}: {n}"));
    let thin: Vec<_> = SEEN.iter().zip(seen).filter(|s| s.1 < schedules).collect();
    assert!(thin.is_empty(), "fewer than one per schedule: {thin:?}");
}

/// Case `case` of [`check_schedules`] from `seed`, run with its trace
/// kept: did every invariant hold, and the trace.
pub fn traced(seed: u64, case: u64) -> (bool, Vec<String>) {
    let mut w = World::new(SplitMix64::new(seed + case).next_u64(), true);
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run()));
    (ok.is_ok(), w.trace())
}

/// FNV-1a over the trace lines of cases `0..cases` from `seed`, each
/// ended by a newline: one number that moves if any decision in those
/// schedules does.
pub fn trace_digest(seed: u64, cases: u64) -> u64 {
    let lines = (0..cases).flat_map(|case| traced(seed, case).1);
    lines.fold(0xcbf2_9ce4_8422_2325, |h, line| {
        let bytes = line.bytes().chain([b'\n']);
        bytes.fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The seeded tests of a model file, over [`check_schedules`]'s `$n`
/// schedules from `$seed`: every invariant holds; two runs of case 0 give
/// a byte-identical trace, PMI lines included, and case 1 another; the
/// first 64 traces still [digest](trace_digest) to `$digest`; and a
/// replay of a failing case, `CASE=n cargo test -p <crate> --test <file>
/// replay -- --ignored --nocapture`, printing its last 200 trace lines.
#[macro_export]
macro_rules! seeded_world_tests {
    ($seed:expr, $n:expr, $digest:expr) => {
        #[test]
        fn seeded_fault_schedules_keep_every_invariant() {
            $crate::des::check_schedules($seed, $n);
        }

        #[test]
        fn the_same_seed_gives_the_same_effect_trace() {
            let run = |case| $crate::des::traced($seed, case);
            let ((held, a), b, other) = (run(0), run(0).1, run(1).1);
            assert!(held, "case 0 fails");
            assert!(a.iter().any(|l| l.contains("cmd=fence")), "no PMI lines");
            assert!(a.len() > 500, "{} lines", a.len());
            assert!(a == b, "two runs of one seed diverged");
            assert!(a != other, "the seed does not matter");
        }

        /// A change that must not move a decision — an ordered table for
        /// a hashed one, a refactor of a router — proves it did not here.
        /// A change that means to move one commits the new digest.
        #[test]
        fn the_world_traces_match_their_committed_digest() {
            let (digest, want): (u64, u64) = ($crate::des::trace_digest($seed, 64), $digest);
            assert!(
                digest == want,
                "the first 64 traces digest to {digest:#018x}, not {want:#018x}"
            );
        }

        #[test]
        #[ignore = "a debugging aid: replays the schedule named by $CASE"]
        fn replay_one_case_with_its_trace() {
            let case: u64 = std::env::var("CASE").map_or(0, |s| s.parse().unwrap());
            let (held, trace) = $crate::des::traced($seed, case);
            let tail = trace.iter().skip(trace.len().saturating_sub(200));
            tail.for_each(|l| println!("{l}"));
            assert!(held, "case {case} fails; its last effects are above");
        }
    };
}
