//! The dispatcher core's decisions, one at a time, under a virtual clock:
//! one zero-sleep test per decision, scripted on [`Bench`], whose workers
//! and relays speak frames through the core's router. The fake is
//! `cluster_sim::des::Fx`, the one the seeded world (its tests end this
//! file) drives the same core with: every fact checked as emitted, the WAL
//! kept as the journal's bytes (a crash here is the restart path), each
//! gang's job opened in the real PMI service.

use cluster_sim::des::{config, Fx};
use jets_core::core::{Core, Peer};
use jets_core::journal::{self, Record};
use jets_core::protocol::{
    DispatcherMsg, WorkerMsg, EXIT_CANCELED, EXIT_DEADLINE, EXIT_UNDELIVERABLE, EXIT_WORKER_LOST,
};
use jets_core::registry::WorkerState;
use jets_core::spec::{CommandSpec, JobId, JobSpec, TaskId, WorkerId};
use jets_core::JobStatus as Status;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// As `des::config` sets them.
const HEARTBEAT_TIMEOUT_MS: u64 = 100;
const RECONCILE_WINDOW_MS: u64 = 80;

/// A frame the core sent: an assignment or a cancel, to whom, of what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sent {
    Assign(WorkerId, TaskId),
    Cancel(WorkerId, TaskId),
}

// ---------------------------------------------------------------------------
// Scripted driving: the decisions, one at a time.

/// A core, its fake, a virtual clock, the connection each worker and
/// relay registered on, and how many connections were opened.
struct Bench {
    core: Core,
    fx: Fx,
    conns: BTreeMap<WorkerId, u64>,
    opened: u64,
}

impl Bench {
    fn new() -> Bench {
        let t0 = Instant::now();
        Bench {
            core: Core::new(config(), t0),
            fx: Fx::new(t0),
            conns: BTreeMap::new(),
            opened: 0,
        }
    }

    fn now(&self) -> Instant {
        self.fx.at()
    }

    fn advance(&mut self, ms: u64) {
        self.fx.now += 1_000 * ms;
    }

    /// One frame on connection `conn` through the core's router; false if
    /// it severed the connection.
    fn say(&mut self, conn: u64, msg: WorkerMsg) -> bool {
        let mut peer = self.fx.peers.remove(&conn).unwrap_or_default();
        self.fx.from = conn;
        let keep = self
            .core
            .peer_frame(self.now(), &mut peer, msg, &mut self.fx);
        self.fx.peers.insert(conn, peer);
        keep
    }

    /// `worker`'s frame: `direct` on its own connection, `routed` in its
    /// relay's.
    fn says(&mut self, worker: WorkerId, direct: WorkerMsg, routed: WorkerMsg) -> bool {
        let conn = self.conns[&worker];
        let relayed = matches!(self.fx.peers[&conn], Peer::Relay(..));
        self.say(conn, if relayed { routed } else { direct })
    }

    /// The connection `id` registered on closes: the core's close arm.
    fn close(&mut self, id: WorkerId) {
        let peer = self.fx.peers.remove(&self.conns[&id]).expect("open");
        self.core.peer_closed(self.now(), peer, &mut self.fx);
    }

    /// Say `hello` on a new connection, or `relay`'s, and take the ack.
    fn handshake(&mut self, hello: WorkerMsg, relay: Option<WorkerId>) -> WorkerId {
        self.opened += relay.is_none() as u64;
        let conn = relay.map_or(self.opened, |r| self.conns[&r]);
        assert!(self.say(conn, hello));
        let id = match self.fx.sent.pop() {
            Some((_, DispatcherMsg::Registered { worker_id }))
            | Some((_, DispatcherMsg::RelayRegistered { worker_id, .. })) => worker_id,
            other => panic!("no ack: {other:?}"),
        };
        self.conns.insert(id, conn);
        id
    }

    /// A relay says hello on a new connection.
    fn relay(&mut self) -> WorkerId {
        let (name, location) = ("r".to_string(), "rack".to_string());
        self.handshake(WorkerMsg::RelayHello { name, location }, None)
    }

    /// Register a worker, directly or behind `relay`.
    fn register(&mut self, name: &str, relay: Option<WorkerId>) -> WorkerId {
        let (name, cores, location) = (name.to_string(), 1, "rack".to_string());
        let hello = match relay {
            Some(_) => WorkerMsg::RelayRegister {
                local: 0,
                name,
                cores,
                location,
            },
            None => WorkerMsg::Register {
                name,
                cores,
                location,
            },
        };
        self.handshake(hello, relay)
    }

    /// Register a direct worker and park its first `Request`.
    fn worker(&mut self, name: &str) -> WorkerId {
        let id = self.register(name, None);
        self.request(id);
        id
    }

    fn request(&mut self, worker: WorkerId) {
        self.says(
            worker,
            WorkerMsg::Request,
            WorkerMsg::RelayRequest { worker },
        );
    }

    /// A heartbeat from each of `workers`: a relay's members in one
    /// batch, a direct worker on its own.
    fn heard(&mut self, workers: &[WorkerId]) {
        let mut batches: BTreeMap<u64, Vec<WorkerId>> = BTreeMap::new();
        for &w in workers {
            batches.entry(self.conns[&w]).or_default().push(w);
        }
        for workers in batches.into_values() {
            let first = workers[0];
            let batch = WorkerMsg::BatchedHeartbeat { workers };
            self.says(first, WorkerMsg::Heartbeat, batch);
        }
    }

    /// `worker` claims `running` after a restart: true if adopted, false
    /// if answered with a `Cancel`.
    fn claim(&mut self, worker: WorkerId, (task_id, job_id): (TaskId, JobId)) -> bool {
        let running = Some((task_id, job_id));
        let routed = WorkerMsg::RelayMemberState {
            worker,
            task_id,
            job_id,
        };
        self.says(worker, WorkerMsg::SessionState { running }, routed);
        let refused = matches!(self.fx.sent.last(), Some((_, DispatcherMsg::Cancel { task_id: t }))
            | Some((_, DispatcherMsg::RelayCancel { task_id: t, .. })) if *t == task_id);
        if refused {
            self.fx.sent.pop();
        }
        !refused
    }

    fn submit(&mut self, spec: JobSpec) -> JobId {
        self.core.submit(self.now(), vec![spec], &mut self.fx)[0]
    }

    fn done(&mut self, worker: WorkerId, task_id: TaskId, exit_code: i32) {
        let (wall_ms, output, trace) = (1, None, 0);
        let direct = WorkerMsg::Done {
            task_id,
            exit_code,
            wall_ms,
            output: output.clone(),
            trace,
        };
        let routed = WorkerMsg::RelayDone {
            worker,
            task_id,
            exit_code,
            wall_ms,
            output,
            trace,
        };
        self.says(worker, direct, routed);
    }

    fn tick(&mut self) {
        self.core.tick(self.now(), &mut self.fx);
    }

    /// Kill the dispatcher and start its successor from the journal.
    fn crash(&mut self) {
        let recovered = self.fx.crash();
        self.core = Core::new(config(), self.fx.t0);
        self.core.restore(self.now(), recovered, &mut self.fx);
    }

    /// The frames sent since the last call, each named by the worker it
    /// is for.
    fn sent(&mut self) -> Vec<Sent> {
        let sent = std::mem::take(&mut self.fx.sent).into_iter();
        let direct = |conn| {
            self.conns
                .iter()
                .find(|c| *c.1 == conn)
                .map(|c| *c.0)
                .unwrap()
        };
        sent.map(|(conn, msg)| match msg {
            DispatcherMsg::Assign(a) => Sent::Assign(direct(conn), a.task_id),
            DispatcherMsg::RelayAssign { worker, assignment } => {
                Sent::Assign(worker, assignment.task_id)
            }
            DispatcherMsg::Cancel { task_id } => Sent::Cancel(direct(conn), task_id),
            DispatcherMsg::RelayCancel { worker, task_id } => Sent::Cancel(worker, task_id),
            other => panic!("{other:?}"),
        })
        .collect()
    }

    /// The one assignment among the frames sent since the last call.
    fn assigned(&mut self) -> (WorkerId, TaskId) {
        match self.sent()[..] {
            [Sent::Assign(worker, task)] => (worker, task),
            ref other => panic!("expected one assignment, got {other:?}"),
        }
    }

    fn job(&self, id: JobId) -> (Status, u32, &[i32]) {
        let j = &self.fx.jobs[&id];
        (j.status, j.attempts, &j.exit_codes)
    }

    fn state(&self, worker: WorkerId) -> WorkerState {
        self.core.registry().get(worker).unwrap().state
    }
}

fn seq() -> JobSpec {
    JobSpec::sequential(CommandSpec::builtin("ok", vec![]))
}

fn gang(nodes: u32) -> JobSpec {
    JobSpec::mpi(nodes, CommandSpec::builtin("mpi", vec![]))
}

/// With budget left, each failure requeues first: the job fails once,
/// after exactly `1 + max_retries` attempts.
#[test]
fn a_nonzero_exit_without_retry_budget_fails_the_job() {
    for retries in [0, 2] {
        let mut b = Bench::new();
        let w = b.worker("a");
        let id = b.submit(seq().with_retries(retries));
        for _ in 0..=retries {
            let (_, task) = b.assigned();
            b.done(w, task, 7);
            b.request(w);
        }
        assert_eq!(b.job(id), (Status::Failed, retries + 1, &[7][..]));
        assert_eq!(b.state(w), WorkerState::Idle);
        assert_eq!(b.fx.requeues, retries as u64);
        assert_eq!(b.sent(), []);
    }
}

#[test]
fn a_job_larger_than_the_pool_waits_until_workers_arrive() {
    let mut b = Bench::new();
    let id = b.submit(gang(2));
    b.worker("a");
    assert_eq!(b.job(id).0, Status::Pending);
    assert!(b.sent().is_empty(), "nothing can run yet");
    b.worker("b");
    assert_eq!(b.job(id).0, Status::Running);
    assert_eq!(b.sent().len(), 2, "the whole gang ships at once");
}

#[test]
fn a_failed_attempt_requeues_with_budget_and_steers_away_from_the_blamed_worker() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let id = b.submit(gang(2).with_retries(1));
    let c = b.worker("c");
    let shipped = b.sent();
    let d = b.worker("d");
    // `a` reports a failure, its peer `c` a success: the attempt fails
    // when the last member is in, and only `a` is blamed.
    let [Sent::Assign(_, task), Sent::Assign(_, peer)] = shipped[..] else {
        panic!("{shipped:?}");
    };
    b.done(a, task, 9);
    assert_eq!(
        b.job(id).0,
        Status::Running,
        "a gang waits for every member"
    );
    // The blamed `a` asks again at once and `e` registers after it, so
    // when the attempt fails the ready list is [d, a, e]: oldest-first
    // would hand the retry to `a`.
    b.request(a);
    let e = b.worker("e");
    b.done(c, peer, 0);
    assert_eq!(b.fx.requeues, 1);
    let workers = |sent: Vec<Sent>| -> Vec<WorkerId> {
        let worker = |s: &Sent| match *s {
            Sent::Assign(worker, _) => worker,
            other => panic!("{other:?}"),
        };
        sent.iter().map(worker).collect()
    };
    assert_eq!(workers(b.sent()), [d, e], "excluded hint honoured");
    assert_eq!(b.job(id).1, 2);
    assert!(b.core.ready().contains(a), "the blamed worker stays parked");
    // The hint is best effort: with only the blamed worker left, it runs.
    let lone = b.submit(seq().with_retries(1));
    let (w, task) = b.assigned();
    assert_eq!(w, a);
    b.done(a, task, 3);
    b.request(a);
    assert_eq!(
        b.assigned().0,
        a,
        "hint waived rather than starving the job"
    );
    assert_eq!(b.job(lone).1, 2);
}

#[test]
fn worker_death_fails_the_job_without_budget_and_requeues_it_with() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let doomed = b.submit(seq());
    b.close(a);
    assert_eq!(b.job(doomed), (Status::Failed, 1, &[EXIT_WORKER_LOST][..]));
    assert_eq!(b.state(a), WorkerState::Dead);
    let c = b.worker("c");
    let lucky = b.submit(seq().with_retries(2));
    b.sent();
    b.close(c);
    assert_eq!(b.job(lucky), (Status::Pending, 1, &[EXIT_WORKER_LOST][..]));
    let e = b.worker("e");
    let (w, task) = b.assigned();
    assert_eq!(w, e);
    b.done(e, task, 0);
    assert_eq!(b.job(lucky), (Status::Succeeded, 2, &[0][..]));
}

#[test]
fn an_undeliverable_assignment_tears_the_gang_down_and_requeues() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let c = b.worker("c");
    b.fx.conns.remove(&c);
    let id = b.submit(gang(2).with_retries(1));
    let sent = b.sent();
    let [Sent::Assign(worker, task), Sent::Cancel(w2, t2)] = sent[..] else {
        panic!("{sent:?}");
    };
    assert_eq!((worker, w2, task), (a, a, t2));
    assert_eq!(
        b.job(id),
        (Status::Pending, 1, &[EXIT_UNDELIVERABLE, EXIT_CANCELED][..])
    );
    assert!(b.fx.pmi_jobs.is_empty(), "the gang's PMI job went with it");
}

#[test]
fn a_pmi_service_that_cannot_start_fails_the_job_and_frees_the_workers() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let c = b.worker("c");
    b.fx.pmi_fail = true;
    let id = b.submit(gang(2).with_retries(3));
    assert_eq!(b.job(id), (Status::Failed, 1, &[][..]));
    assert!(b.sent().is_empty());
    assert!(b.core.ready().contains(a) && b.core.ready().contains(c));
}

#[test]
fn relay_death_downs_every_member_and_only_its_members() {
    let mut b = Bench::new();
    let relay = b.relay();
    let members: Vec<WorkerId> = ["m0", "m1", "m2"]
        .iter()
        .map(|name| b.register(name, Some(relay)))
        .collect();
    let direct = b.worker("direct");
    b.sent();
    b.request(members[0]);
    let id = b.submit(seq());
    b.submit(seq());
    b.sent();
    b.close(relay);
    assert_eq!(std::mem::take(&mut b.fx.downs), members);
    assert!(members.iter().all(|&m| b.state(m) == WorkerState::Dead));
    assert_ne!(b.state(direct), WorkerState::Dead);
    // The job that was on a member is lost with it; the one on the
    // direct worker is untouched.
    let lost =
        b.fx.jobs
            .values()
            .filter(|j| j.status == Status::Failed)
            .count();
    assert_eq!(lost, 1);
    assert!(b.job(id).2.contains(&EXIT_WORKER_LOST) || b.job(id).0 == Status::Running);
}

#[test]
fn a_deadline_ends_the_attempt_with_exit_deadline_and_charges_one_retry() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let id = b.submit(
        seq()
            .with_deadline(Duration::from_millis(50))
            .with_retries(1),
    );
    let (_, task) = b.assigned();
    b.advance(49);
    b.tick();
    assert_eq!(b.job(id).0, Status::Running, "one millisecond early");
    b.advance(1);
    b.tick();
    assert_eq!(b.sent(), [Sent::Cancel(a, task)]);
    assert_eq!(b.job(id), (Status::Pending, 1, &[EXIT_DEADLINE][..]));
    assert!(b
        .fx
        .records()
        .contains(&Record::DeadlineExceeded { job: id }));
    // The cancelled worker's late report is stale: it frees the worker
    // and changes nothing else. A deadline blames nobody, so the retry
    // may land on the same worker — and the second expiry is final.
    b.done(a, task, EXIT_CANCELED);
    b.request(a);
    let (w, retry) = b.assigned();
    assert_eq!((w, b.job(id).1), (a, 2));
    b.advance(50);
    b.tick();
    assert_eq!(b.job(id), (Status::Failed, 2, &[EXIT_DEADLINE][..]));
    assert_eq!(b.sent(), [Sent::Cancel(a, retry)]);
}

#[test]
fn quarantine_holds_a_request_and_replays_it_when_the_bench_expires() {
    let mut b = Bench::new();
    // Two deaths mid-task earn the name two strikes.
    for _ in 0..2 {
        let w = b.worker("flaky");
        b.submit(seq());
        b.close(w);
    }
    let strikes =
        b.fx.records()
            .iter()
            .filter(|r| matches!(r, Record::QuarantineStrike { .. }))
            .count();
    assert_eq!(strikes, 2);
    // The third registration is benched for penalty × strikes = 60 ms:
    // its Request is held, and a queued job waits.
    b.sent();
    let w = b.worker("flaky");
    assert_eq!(b.state(w), WorkerState::Quarantined { until_ms: 60 });
    let id = b.submit(seq());
    b.advance(59);
    b.tick();
    assert_eq!(b.job(id).0, Status::Pending);
    assert!(b.sent().is_empty());
    // At expiry the held request is replayed: no second Request needed.
    b.advance(1);
    b.tick();
    assert_eq!(b.assigned().0, w);
    assert!(b.fx.records().contains(&Record::QuarantineRelease {
        name: "flaky".into()
    }));
}

#[test]
fn heartbeat_silence_downs_the_worker_and_cancels_its_gang() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let c = b.worker("c");
    let id = b.submit(gang(2).with_retries(1));
    let sent = b.sent();
    let Sent::Assign(_, task_a) = sent[0] else {
        panic!()
    };
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&[a]);
    b.tick();
    assert_eq!(
        b.state(c),
        WorkerState::Busy(id),
        "silent for exactly the timeout: not yet"
    );
    b.advance(1);
    b.heard(&[a]);
    b.tick();
    assert_eq!(b.state(c), WorkerState::Dead);
    assert_eq!(b.sent(), [Sent::Cancel(a, task_a)]);
    assert_eq!(
        b.job(id),
        (Status::Pending, 1, &[EXIT_WORKER_LOST, EXIT_CANCELED][..])
    );
    // A report from the dead does not resurrect it.
    let Sent::Assign(_, task_c) = sent[1] else {
        panic!()
    };
    b.done(c, task_c, 0);
    assert_eq!(b.state(c), WorkerState::Dead);
}

/// Liveness is an input like any other: a worker that does nothing but
/// beat outlives the timeout many times over, busy or idle.
#[test]
fn a_worker_heard_only_through_heartbeats_stays_alive_past_the_timeout() {
    let mut b = Bench::new();
    let a = b.worker("a");
    let idle = b.worker("idle");
    let id = b.submit(seq());
    assert_eq!(b.assigned().0, a);
    for _ in 0..10 {
        b.advance(HEARTBEAT_TIMEOUT_MS / 2);
        b.heard(&[a]);
        b.heard(&[idle]);
        b.tick();
    }
    assert_eq!(b.fx.now, 5_000 * HEARTBEAT_TIMEOUT_MS);
    assert!(b.fx.downs.is_empty(), "downed {:?}", b.fx.downs);
    assert_eq!(b.state(a), WorkerState::Busy(id));
    assert_eq!(b.state(idle), WorkerState::Idle);
    assert!(b.core.ready().contains(idle));
}

/// A silent worker is downed on the first tick past the timeout — not
/// one millisecond earlier — and only once, however many ticks follow.
#[test]
fn a_silent_worker_is_downed_exactly_once_on_the_first_tick_past_the_timeout() {
    let mut b = Bench::new();
    let loud = b.worker("loud");
    b.advance(10);
    let silent = b.worker("silent");
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&[loud]);
    b.tick();
    assert!(b.fx.downs.is_empty(), "silent for exactly the timeout");
    b.advance(1);
    b.tick();
    assert_eq!(std::mem::take(&mut b.fx.downs), [silent]);
    assert_eq!(b.state(silent), WorkerState::Dead);
    assert!(!b.core.ready().contains(silent));
    for _ in 0..5 {
        b.advance(HEARTBEAT_TIMEOUT_MS);
        b.heard(&[loud]);
        b.tick();
    }
    assert!(b.fx.downs.is_empty(), "downed again: {:?}", b.fx.downs);
    // A heartbeat from the dead does not resurrect it.
    b.heard(&[silent]);
    b.tick();
    assert_eq!(b.state(silent), WorkerState::Dead);
    assert_eq!(b.state(loud), WorkerState::Idle);
}

/// A direct worker declared hung would have its requests dropped: its next
/// frame, whatever it is, severs its connection (so it reconnects), and
/// the close arm finds it already down. A relayed member's frames come in
/// its relay's envelope and sever nothing.
#[test]
fn a_hung_direct_worker_is_severed_on_its_next_frame() {
    let mut b = Bench::new();
    let relay = b.relay();
    let member = b.register("m", Some(relay));
    let hung = b.worker("hung");
    let loud = b.worker("loud");
    b.advance(HEARTBEAT_TIMEOUT_MS + 1);
    b.heard(&[loud]);
    b.tick();
    assert_eq!(std::mem::take(&mut b.fx.downs), [member, hung]);
    let running = Some((1, 1));
    for msg in [
        WorkerMsg::Heartbeat,
        WorkerMsg::Request,
        WorkerMsg::SessionState { running },
    ] {
        assert!(!b.says(hung, msg, WorkerMsg::Goodbye), "kept");
    }
    assert!(
        b.sent().is_empty(),
        "a severed frame is answered with nothing"
    );
    b.close(hung);
    assert!(b.fx.downs.is_empty(), "downed twice");
    assert!(b.says(
        member,
        WorkerMsg::Goodbye,
        WorkerMsg::RelayRequest { worker: member }
    ));
    assert!(b.says(loud, WorkerMsg::Heartbeat, WorkerMsg::Goodbye));
    assert_eq!(b.state(member), WorkerState::Dead);
}

/// A relay's members are heard through its batches alone, under the
/// same rules: one batch keeps every member it names alive, and a member
/// the batches stop naming is downed once, on the first tick past the
/// timeout, its gang with it.
#[test]
fn a_relayed_member_kept_alive_only_by_batched_heartbeats_follows_the_same_rules() {
    let mut b = Bench::new();
    let relay = b.relay();
    let members: Vec<WorkerId> = ["m0", "m1", "m2"]
        .iter()
        .map(|name| {
            let id = b.register(name, Some(relay));
            b.request(id);
            id
        })
        .collect();
    let id = b.submit(gang(2).with_retries(1));
    assert_eq!(b.sent().len(), 2, "m0 and m1 run the gang");
    for _ in 0..4 {
        b.advance(HEARTBEAT_TIMEOUT_MS / 2);
        b.heard(&members);
        b.tick();
    }
    assert!(b.fx.downs.is_empty(), "downed {:?}", b.fx.downs);
    // The relay stops vouching for m1.
    let batch = [members[0], members[2]];
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&batch);
    b.tick();
    assert!(b.fx.downs.is_empty(), "silent for exactly the timeout");
    b.advance(1);
    b.heard(&batch);
    b.tick();
    assert_eq!(std::mem::take(&mut b.fx.downs), [members[1]]);
    assert_eq!(b.job(id).0, Status::Pending, "the gang went down with it");
    b.advance(HEARTBEAT_TIMEOUT_MS);
    b.heard(&batch);
    b.tick();
    assert!(b.fx.downs.is_empty(), "downed again: {:?}", b.fx.downs);
    assert_ne!(b.state(members[0]), WorkerState::Dead);
    assert_ne!(b.state(members[2]), WorkerState::Dead);
}

/// Five jobs on two workers, crashed with two in flight.
fn crashed_mid_run() -> (Bench, Vec<JobId>) {
    let mut b = Bench::new();
    b.worker("a");
    b.worker("c");
    let specs = (0..5).map(|_| seq().with_retries(0)).collect();
    let ids = b.core.submit(b.now(), specs, &mut b.fx);
    b.advance(10);
    b.crash();
    (b, ids)
}

#[test]
fn queued_jobs_replay_and_a_clean_finish_leaves_nothing_to_replay() {
    let (mut b, ids) = crashed_mid_run();
    assert!(b.core.recovering(), "two orphans to reconcile");
    let queued: Vec<JobId> = b.core.queue().iter().map(|j| j.id).collect();
    assert_eq!(queued, ids[2..], "the queue comes back in submission order");
    assert_eq!(b.job(ids[0]).0, Status::Running);
    assert_eq!(b.job(ids[4]), (Status::Pending, 0, &[][..]));
    // New ids start past everything journaled.
    b.fx.trace = Some(Vec::new());
    b.advance(RECONCILE_WINDOW_MS);
    b.tick();
    let trace = b.fx.trace.take().unwrap();
    let undelivered = trace
        .iter()
        .filter(|l| l.starts_with("Cancel") && l.ends_with("false"));
    assert_eq!(
        undelivered.count(),
        2,
        "a Cancel per unclaimed orphan, to ids nobody holds"
    );
    let w = b.worker("n");
    let fresh = b.submit(seq());
    assert!(fresh > ids[4]);
    // Drain everything; the journal then proves every job terminal.
    let mut ran = 0;
    while let [Sent::Assign(worker, task)] = b.sent()[..] {
        assert_eq!(worker, w);
        b.done(w, task, 0);
        b.request(w);
        ran += 1;
    }
    assert_eq!(ran, 6);
    assert!(b.fx.unfinished.is_empty());
    let rec = journal::recover(&b.fx.records());
    assert!(rec.jobs.is_empty());
    assert_eq!(rec.finished, 6);
}

#[test]
fn the_reconcile_window_expires_into_a_requeue_with_the_attempt_refunded() {
    let (mut b, ids) = crashed_mid_run();
    // No retry budget, and the crashed attempt was attempt 1: only a
    // refund lets these two run again.
    b.advance(RECONCILE_WINDOW_MS - 1);
    b.tick();
    assert!(b.core.recovering());
    let w = b.worker("late");
    assert!(b.sent().is_empty(), "no launches while the window is open");
    b.advance(1);
    b.tick();
    assert!(!b.core.recovering());
    assert_eq!(b.fx.requeues, 2);
    // The orphans go to the queue front, attempts back at zero — so the
    // parked worker gets one of them at once, as attempt 1 again.
    assert_eq!(b.job(ids[0]), (Status::Pending, 0, &[][..]));
    assert_eq!(b.job(ids[1]), (Status::Running, 1, &[][..]));
    let sent = b.sent();
    let Some(&Sent::Assign(_, task)) = sent.last() else {
        panic!("{sent:?}");
    };
    b.done(w, task, 0);
    assert_eq!(b.job(ids[1]), (Status::Succeeded, 1, &[0][..]));
}

#[test]
fn the_window_closes_early_once_every_orphan_is_claimed_or_reported() {
    let (mut b, ids) = crashed_mid_run();
    let orphans: Vec<(JobId, TaskId)> = b.core.active().map(|(j, _, p)| (j, p[0].1)).collect();
    assert_eq!(orphans.len(), 2);
    // One survivor re-registers and claims its task; a wrong claim is
    // refused (the caller answers with a Cancel).
    let a = b.register("a", None);
    let (job, task) = orphans[0];
    assert!(!b.claim(a, (task, job + 100)));
    assert!(b.claim(a, (task, job)));
    assert_eq!(b.state(a), WorkerState::Busy(job));
    assert!(b.core.recovering(), "one orphan still out");
    // The other finished during the outage and replays its result.
    let c = b.register("c", None);
    let (job2, task2) = orphans[1];
    b.done(c, task2, 0);
    assert_eq!(b.job(job2), (Status::Succeeded, 1, &[0][..]));
    b.tick();
    assert!(!b.core.recovering(), "closed well before the deadline");
    assert_eq!(b.fx.requeues, 0);
    // Re-adopted, not relaunched: the claimed task's report finishes it.
    b.done(a, task, 0);
    assert_eq!(b.job(job), (Status::Succeeded, 1, &[0][..]));
    assert!(ids.contains(&job) && !b.claim(a, (task, job)));
}

/// A restore opens the span its successor closes: `run` for the orphaned
/// in-flight job, `queue` for the queued one. The orphan's window then
/// expires into a requeue (`run` closed, `queue` opened), and after the
/// drain every `SpanEnd` since the restart has had its `SpanStart` (the
/// fake asserts each as it comes) and none is left open.
#[test]
fn a_restore_opens_the_spans_its_successor_closes() {
    let mut b = Bench::new();
    b.worker("a");
    let specs = vec![seq().with_retries(0), seq()];
    let ids = b.core.submit(b.now(), specs, &mut b.fx);
    b.advance(10);
    b.fx.trace = Some(Vec::new());
    b.crash();
    assert_eq!(b.job(ids[0]).0, Status::Running, "in flight: an orphan");
    assert_eq!(b.job(ids[1]).0, Status::Pending, "queued");
    b.advance(RECONCILE_WINDOW_MS);
    b.tick();
    assert_eq!(b.fx.requeues, 1, "the unclaimed orphan");
    let w = b.worker("n");
    while let [Sent::Assign(worker, task)] = b.sent()[..] {
        b.done(worker, task, 0);
        b.request(w);
    }
    assert!(b.fx.unfinished.is_empty());
    assert!(b.fx.spans.is_empty(), "left open: {:?}", b.fx.spans);

    // `SpanStart { trace: .., kind: Queue, role: .., job: 2, task: 0 }`
    let field = |line: &str, name: &str| {
        let rest = line.split(&format!(" {name}: ")).nth(1).unwrap();
        rest.split([',', ' ']).next().unwrap().to_string()
    };
    let trace = b.fx.trace.take().unwrap();
    let spans: Vec<(bool, String, JobId)> = trace
        .iter()
        .filter(|l| l.starts_with("SpanStart") || l.starts_with("SpanEnd"))
        .map(|l| {
            let job = field(l, "job").parse().unwrap();
            (l.starts_with("SpanStart"), field(l, "kind"), job)
        })
        .collect();
    let opened = |kind: &str, job| (true, kind.to_string(), job);
    assert_eq!(spans[..2], [opened("Run", ids[0]), opened("Queue", ids[1])]);
    // queue, sched, ship, run, report a job, and the orphan's restored run.
    let starts = spans.iter().filter(|s| s.0).count();
    assert_eq!((starts, spans.len()), (5 + 5 + 1, 2 * (5 + 5 + 1)));
}

#[test]
fn the_facts_tell_the_story_in_order() {
    let mut b = Bench::new();
    b.fx.trace = Some(Vec::new());
    let w = b.worker("a");
    b.submit(seq());
    let (_, task) = b.assigned();
    b.done(w, task, 0);
    let trace = b.fx.trace.take().unwrap();
    let story: Vec<&str> = trace
        .iter()
        .map(|l| l.split([' ', '(']).next().unwrap())
        .collect();
    #[rustfmt::skip]
    assert_eq!(story, [
        "WorkerUp", "reply", "JobSubmitted", "SpanStart", "Submitted", "SpanEnd", "SpanStart",
        "JobStarted", "SpanEnd", "SpanStart", "Assigned", "SpanEnd", "SpanStart",
        "TaskStarted", "assign", "SpanEnd", "SpanStart",
        "TaskEnded", "Reported", "SpanEnd", "JobCompleted", "SpanStart", "JobPhases", "JobFinished", "SpanEnd",
    ]);
    // 17 ring records per sequential job, six spans, all closed; the
    // `JobStarted` fact books the attempt and records nothing.
    let ring = story
        .iter()
        .filter(|s| {
            ![
                "WorkerUp",
                "reply",
                "Reported",
                "Submitted",
                "JobStarted",
                "Assigned",
                "assign",
                "JobFinished",
            ]
            .contains(s)
        })
        .count();
    assert_eq!(ring, 17);
    assert!(b.fx.spans.is_empty());
    assert_eq!(
        b.fx.records().len(),
        5,
        "Submitted, Enqueued, Assigned, TaskEnded, Finished"
    );
}

// The world's first 1 000 schedules; `relay_model` runs the next 1 000.
cluster_sim::seeded_world_tests!(0x05EE_DDE5, 1_000, 0xf62e_70a3_f21a_658d);
