//! The relay core's decisions, one at a time: zero-sleep tests on the real
//! [`RelayCore`] behind `cluster_sim::des::RFx`, the fake the seeded world
//! (its tests end this file) runs the same core with, which checks each
//! frame as it is emitted. Members speak frames through the core's router;
//! the protocol table pins both routers, the dispatcher's included.

use cluster_sim::des::{Fx, Out, RFx};
use jets_core::core::{Core, CoreConfig, Peer};
use jets_core::events::EventKind;
use jets_core::protocol::{TaskAssignment, TaskKind};
use jets_core::{CommandSpec, DispatcherMsg, JobId};
use jets_core::{TaskId, WorkerId, WorkerMsg};
use jets_relay::core::{Fact, RelayCore};
use std::time::{Duration, Instant};

/// A relay core with `n` members acked as workers 100, 101, … under
/// session 1, and its fake.
fn block(n: u64, upqueue_limit: usize) -> (RelayCore, RFx) {
    let mut core = RelayCore::new("r".into(), "rack".into(), 100, upqueue_limit);
    let mut fx = RFx::default();
    core.session_up(1, &mut fx);
    for local in 0..n {
        assert_eq!(join(&mut core, &mut fx, 0), local);
    }
    ack(&mut core, &mut fx, 1, 0..n);
    (core, fx)
}

fn register(name: &str) -> WorkerMsg {
    let (name, cores, location) = (name.to_string(), 1, "rack".to_string());
    WorkerMsg::Register {
        name,
        cores,
        location,
    }
}

/// A new member connection says `Register` at `now`; returns its local id.
fn join(core: &mut RelayCore, fx: &mut RFx, now: u64) -> u64 {
    let mut local = None;
    fx.from = fx.links.len() as u64;
    assert!(core.member_frame(now, &mut local, register("m"), fx));
    local.expect("registered")
}

/// Member `local` says `msg` at `now`; false if the relay severed it.
fn says(core: &mut RelayCore, fx: &mut RFx, now: u64, local: u64, msg: WorkerMsg) -> bool {
    core.member_frame(now, &mut Some(local), msg, fx)
}

/// Session `n` acks `locals` as workers `100 n + local`; returns what the
/// relay sent because of it.
fn ack(core: &mut RelayCore, fx: &mut RFx, n: u64, locals: std::ops::Range<u64>) -> Vec<Out> {
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

fn done(task_id: TaskId) -> WorkerMsg {
    let (exit_code, wall_ms, output, trace) = (0, 1, None, 9);
    WorkerMsg::Done {
        task_id,
        exit_code,
        wall_ms,
        output,
        trace,
    }
}

fn relayed(worker: WorkerId, task_id: TaskId) -> Out {
    let (exit_code, wall_ms, output, trace) = (0, 1, None, 9);
    let done = WorkerMsg::RelayDone {
        worker,
        task_id,
        exit_code,
        wall_ms,
        output,
        trace,
    };
    Out::Up(done)
}

fn cancel(local: u64, task_id: TaskId) -> Out {
    Out::Down(local, DispatcherMsg::Cancel { task_id })
}

fn gone(worker: WorkerId) -> Out {
    Out::Up(WorkerMsg::RelayWorkerGone { worker })
}

fn request(worker: WorkerId) -> Out {
    Out::Up(WorkerMsg::RelayRequest { worker })
}

#[test]
fn a_job_crosses_the_relay_inside_one_span_and_reports_in_arrival_order() {
    let (mut core, mut fx) = block(1, 8);
    says(&mut core, &mut fx, 0, 0, WorkerMsg::Request);
    assert_eq!(fx.sent(), [request(100)]);
    assign(&mut core, &mut fx, 100, 5, 3);
    assert!(matches!(&fx.sent()[..], [Out::Down(0, DispatcherMsg::Assign(a))] if a.task_id == 5));
    let edge = |f: &Fact| match f {
        Fact::Event(EventKind::SpanStart { trace: 9, .. }) => "start",
        Fact::Event(EventKind::SpanEnd { trace: 9, .. }) => "end",
        other => panic!("{other:?}"),
    };
    let edges: Vec<&str> = fx.facts.iter().map(edge).collect();
    assert_eq!(edges, ["start", "end"], "one closed relay-forward span");
    // The agent's paired send: the dispatcher must see the result before
    // the request that makes the worker assignable again.
    says(&mut core, &mut fx, 1, 0, done(5));
    says(&mut core, &mut fx, 1, 0, WorkerMsg::Request);
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
    says(&mut core, &mut fx, 0, 2, done(3));
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
    let late = join(&mut core, &mut fx, 0);
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
        says(&mut core, &mut fx, now, 0, done(task));
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
    let registered = Out::Down(0, DispatcherMsg::Registered { worker_id: 200 });
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
    (0..8).for_each(|i| _ = says(&mut core, &mut fx, 5, i, done(10 + i)));
    (1..=50).for_each(|i| core.tick(5 + 100 * i, &mut fx));
    assert_eq!((fx.sent(), fx.facts.len(), core.held()), (vec![], 0, 8));
    core.session_up(2, &mut fx);
    assert_eq!(fx.sent().len(), 1 + 8, "hello, then the block");
    (0..8).for_each(|i| _ = says(&mut core, &mut fx, 5_100, i, WorkerMsg::Heartbeat));
    let replayed = ack(&mut core, &mut fx, 2, 0..8);
    let results = replayed.iter().filter(|h| matches!(h, Out::Up(..)));
    let all_eight: Vec<Out> = (0..8).map(|i| relayed(200 + i, 10 + i)).collect();
    assert!(results.eq(&all_eight), "{replayed:?}");
    core.tick(5_105, &mut fx);
    let workers = (200..208).collect();
    let vouched = Out::Up(WorkerMsg::BatchedHeartbeat { workers });
    assert_eq!((fx.sent(), core.held()), (vec![vouched], 0));
    assert_eq!(fx.facts, [Fact::Heartbeat], "no drop, one heartbeat");
}

#[test]
fn a_dead_sessions_frames_are_dropped_on_arrival() {
    let (mut core, mut fx) = block(0, 8);
    let local = join(&mut core, &mut fx, 0);
    says(&mut core, &mut fx, 0, local, WorkerMsg::Request);
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
    let registered = Out::Down(local, DispatcherMsg::Registered { worker_id: 200 });
    assert_eq!(ack(&mut core, &mut fx, 2, 0..1), [registered, request(200)]);
    // The dispatcher's shutdown fans out to the block and ends the relay.
    assert!(!core.upstream(2, DispatcherMsg::Shutdown, &mut fx));
    assert_eq!(fx.sent(), [Out::Down(local, DispatcherMsg::Shutdown)]);
}

/// The block stays alive on batched frames alone, a member that goes
/// silent drops out of them, and a relay that stops ticking loses the
/// block to the dispatcher's hang detection.
#[test]
fn batched_liveness_keeps_relayed_workers_alive() {
    let t0 = Instant::now();
    let config = CoreConfig {
        quarantine: None,
        heartbeat_timeout: Some(Duration::from_millis(400)),
        ..cluster_sim::des::config()
    };
    let (mut disp, mut dfx) = (Core::new(config, t0), Fx::new(t0));
    let (mut relay, mut fx) = block(0, 8);
    // The relay's session, through the dispatcher's router.
    let mut peer = Peer::Handshake;
    let (name, location) = ("r".to_string(), "rack".to_string());
    let hello = WorkerMsg::RelayHello { name, location };
    assert!(disp.peer_frame(t0, &mut peer, hello, &mut dfx));
    for local in 0..4 {
        assert_eq!(join(&mut relay, &mut fx, 0), local);
        let Some(Out::Up(register)) = fx.sent().pop() else {
            panic!("no RelayRegister");
        };
        assert!(disp.peer_frame(t0, &mut peer, register, &mut dfx));
        let Some((_, acked)) = dfx.sent.pop() else {
            panic!("no ack");
        };
        let DispatcherMsg::RelayRegistered { worker_id, .. } = acked else {
            panic!("{acked:?}");
        };
        fx.acked.insert(worker_id, local);
        assert!(relay.upstream(1, acked, &mut fx));
    }
    // `beating` members beat the relay every 50 ms, which vouches for
    // them upstream once per period — if it `ticks`.
    let mut now = 0;
    let mut run = |periods: u64, beating: u64, ticks: bool| {
        for _ in 0..periods {
            now += 50;
            let at = t0 + Duration::from_millis(now);
            (0..beating).for_each(|l| _ = says(&mut relay, &mut fx, now, l, WorkerMsg::Heartbeat));
            disp.tick(at, &mut dfx);
            if ticks {
                relay.tick(now, &mut fx);
            }
            for out in fx.sent() {
                if let Out::Up(batch @ WorkerMsg::BatchedHeartbeat { .. }) = out {
                    assert!(disp.peer_frame(at, &mut peer, batch, &mut dfx));
                }
            }
        }
        disp.registry().alive_count()
    };
    assert_eq!(run(32, 4, true), 4, "four timeout windows");
    // Member 3 goes silent: stale at the relay after 100 ms, out of the
    // frames, and hung to the dispatcher one timeout later.
    assert_eq!(run(12, 3, true), 3);
    assert_eq!(run(10, 3, false), 0, "nobody vouches, nobody lives");
    let vouched = fx.facts.iter().filter(|f| **f == Fact::Heartbeat);
    assert!(vouched.count() >= 40);
}

/// Row of the protocol table for `msg`: exhaustive, so a new `WorkerMsg`
/// variant does not compile until it has one.
fn row(msg: &WorkerMsg) -> usize {
    match msg {
        WorkerMsg::Register { .. } => 0,
        WorkerMsg::Request => 1,
        WorkerMsg::Done { .. } => 2,
        WorkerMsg::Heartbeat => 3,
        WorkerMsg::Goodbye => 4,
        WorkerMsg::RelayHello { .. } => 5,
        WorkerMsg::RelayRegister { .. } => 6,
        WorkerMsg::RelayRequest { .. } => 7,
        WorkerMsg::RelayDone { .. } => 8,
        WorkerMsg::BatchedHeartbeat { .. } => 9,
        WorkerMsg::RelayWorkerGone { .. } => 10,
        WorkerMsg::SessionState { .. } => 11,
        WorkerMsg::RelayMemberState { .. } => 12,
    }
}

/// One frame of each kind, routed ones naming `worker`.
fn every_frame(worker: WorkerId) -> Vec<WorkerMsg> {
    let (name, location, cores, task_id, job_id) = ("w".to_string(), "rack".to_string(), 1, 1, 1);
    let (exit_code, wall_ms, output, trace) = (0, 1, None, 9);
    vec![
        register("w"),
        WorkerMsg::Request,
        done(task_id),
        WorkerMsg::Heartbeat,
        WorkerMsg::Goodbye,
        WorkerMsg::RelayHello {
            name: name.clone(),
            location: location.clone(),
        },
        WorkerMsg::RelayRegister {
            local: 0,
            name,
            cores,
            location,
        },
        WorkerMsg::RelayRequest { worker },
        WorkerMsg::RelayDone {
            worker,
            task_id,
            exit_code,
            wall_ms,
            output,
            trace,
        },
        WorkerMsg::BatchedHeartbeat {
            workers: vec![worker],
        },
        WorkerMsg::RelayWorkerGone { worker },
        WorkerMsg::SessionState {
            running: Some((task_id, job_id)),
        },
        WorkerMsg::RelayMemberState {
            worker,
            task_id,
            job_id,
        },
    ]
}

/// "kept" or "sever", then what went out: the dispatcher's replies and
/// the workers it downed (`-w`), the relay's frames up (`^`) and down
/// (`v`), by name.
fn cell(keep: bool, out: Vec<String>) -> String {
    let verdict = if keep { "kept" } else { "sever" };
    match out.is_empty() {
        true => verdict.to_string(),
        false => format!("{verdict}: {}", out.join(" ")),
    }
}

fn name(msg: &impl std::fmt::Debug) -> String {
    let text = format!("{msg:?}");
    text.split([' ', '(', '{']).next().unwrap().to_string()
}

/// For every worker frame, in every state the two routers know — the
/// dispatcher's before the handshake, on a direct worker's connection and
/// on a relay's; the relay's on a member's before and after `Register` —
/// whether the connection stays and what is answered. Each cell starts
/// from a fresh core; routed frames name the relay's one member, or the
/// direct worker.
#[test]
fn every_worker_frame_is_kept_or_severed_as_the_protocol_table_says() {
    #[rustfmt::skip]
    const TABLE: [(&str, [&str; 3], [&str; 2]); 13] = [
        //                   before hello          direct               relay                         member, new                  registered
        ("Register",         ["kept: Registered", "sever",             "sever"],                     ["kept: ^RelayRegister", "sever"]),
        ("Request",          ["sever",            "kept",              "sever"],                     ["sever", "kept: ^RelayRequest"]),
        ("Done",             ["sever",            "kept",              "sever"],                     ["sever", "kept: ^RelayDone"]),
        ("Heartbeat",        ["sever",            "kept",              "kept"],                      ["sever", "kept"]),
        ("Goodbye",          ["sever",            "sever",             "sever"],                     ["sever", "sever"]),
        ("RelayHello",       ["kept: Registered", "sever",             "sever"],                     ["sever", "sever"]),
        ("RelayRegister",    ["sever",            "sever",             "kept: RelayRegistered"],     ["sever", "sever"]),
        ("RelayRequest",     ["sever",            "sever",             "kept"],                      ["sever", "sever"]),
        ("RelayDone",        ["sever",            "sever",             "kept"],                      ["sever", "sever"]),
        ("BatchedHeartbeat", ["sever",            "sever",             "kept"],                      ["sever", "sever"]),
        ("RelayWorkerGone",  ["sever",            "sever",             "kept: -w2"],                 ["sever", "sever"]),
        ("SessionState",     ["sever",            "kept: Cancel",      "sever"],                     ["sever", "kept: ^RelayMemberState"]),
        ("RelayMemberState", ["sever",            "sever",             "kept: RelayCancel"],         ["sever", "sever"]),
    ];
    let t0 = Instant::now();
    // The dispatcher's three states: `hellos` bring a fresh core's peer
    // there. Routed frames name worker 2: on a relay's connection its one
    // member, on a direct worker's (worker 1) nobody.
    let dispatcher = |hellos: &[WorkerMsg], msg: WorkerMsg| {
        let (mut core, mut fx) = (Core::new(cluster_sim::des::config(), t0), Fx::new(t0));
        let mut peer = Peer::Handshake;
        for hello in hellos {
            assert!(core.peer_frame(t0, &mut peer, hello.clone(), &mut fx));
        }
        fx.sent.clear();
        let keep = core.peer_frame(t0, &mut peer, msg, &mut fx);
        let downs = fx.downs.iter().map(|w| format!("-w{w}"));
        cell(
            keep,
            fx.sent.iter().map(|(_, m)| name(m)).chain(downs).collect(),
        )
    };
    let (name_, location) = ("r".to_string(), "rack".to_string());
    let hello = WorkerMsg::RelayHello {
        name: name_,
        location,
    };
    let member = every_frame(2)[6].clone();
    let states: [Vec<WorkerMsg>; 3] = [vec![], vec![register("w")], vec![hello, member]];
    // The relay's two: a member connection, fresh or registered and acked
    // as worker 2, under session 1.
    let relay = |registered: bool, msg: WorkerMsg| {
        let (mut core, mut fx) = block(0, 8);
        let mut local = None;
        if registered {
            local = Some(join(&mut core, &mut fx, 0));
            fx.acked.insert(2, 0);
            let ack = DispatcherMsg::RelayRegistered {
                local: 0,
                worker_id: 2,
            };
            assert!(core.upstream(1, ack, &mut fx));
        }
        fx.reset();
        let keep = core.member_frame(0, &mut local, msg, &mut fx);
        let out = fx.sent().into_iter().map(|o| match o {
            Out::Up(m) => format!("^{}", name(&m)),
            Out::Down(_, m) => format!("v{}", name(&m)),
        });
        cell(keep, out.collect())
    };
    let frames = every_frame(2);
    let rows: Vec<usize> = frames.iter().map(row).collect();
    assert_eq!(
        rows,
        (0..TABLE.len()).collect::<Vec<_>>(),
        "one frame per row"
    );
    for msg in frames {
        let (kind, expected, member) = TABLE[row(&msg)];
        assert_eq!(name(&msg), kind);
        for (state, want) in states.iter().zip(expected) {
            let got = dispatcher(state, msg.clone());
            assert_eq!(got, want, "dispatcher, {kind} after {state:?}");
        }
        for (registered, want) in [false, true].into_iter().zip(member) {
            let got = relay(registered, msg.clone());
            assert_eq!(
                got, want,
                "relay, {kind} from a member registered: {registered}"
            );
        }
    }
}

// The world's second 1 000 schedules, from where `core_model`'s end.
cluster_sim::seeded_world_tests!(0x05EE_DDE5 + 1_000, 1_000, 0x3ce7_d3db_45aa_391b);
