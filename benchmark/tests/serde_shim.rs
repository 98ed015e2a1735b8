//! The functional serde stand-in against the types the tree derives
//! on: every variant round-trips, the text matches what the real
//! `serde_json` writes, and damaged input is an error, never a panic.

use jets_core::events::{Event, EventKind, EventRecord, SpanKind, WriterRole};
use jets_core::protocol::{DispatcherMsg, TaskAssignment, TaskKind, WorkerMsg};
use jets_core::spec::{CommandSpec, JobSpec, StageFile};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt::Debug;
use std::time::Duration;

fn round_trip<T: Serialize + DeserializeOwned + PartialEq + Debug>(value: &T) -> String {
    let text = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(&back, value, "{text}");
    let mut via_writer = Vec::new();
    serde_json::to_writer(&mut via_writer, value).expect("to_writer");
    assert_eq!(via_writer, text.as_bytes());
    // Every proper prefix is damaged input: an error, not a panic.
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert!(
            serde_json::from_str::<T>(&text[..cut]).is_err(),
            "prefix {:?} of {text} parsed",
            &text[..cut]
        );
    }
    text
}

fn awkward() -> String {
    "tab\t quote\" back\\slash \n nul\u{0} bell\u{7} é 漢 😀".to_string()
}

fn assignment(kind: TaskKind) -> TaskAssignment {
    TaskAssignment {
        task_id: u64::MAX,
        job_id: 2,
        kind,
        stage: vec![
            StageFile::new("/gpfs/apps/namd2"),
            StageFile::named("a", "b"),
        ],
        trace: 0xFEED_F00D_DEAD_BEEF,
    }
}

fn commands() -> Vec<CommandSpec> {
    vec![
        CommandSpec::builtin("noop", vec![]),
        CommandSpec::Exec {
            program: "/bin/echo".into(),
            args: vec!["hi".into(), awkward()],
            env: vec![("K".into(), "V".into()), (awkward(), String::new())],
        },
        CommandSpec::Builtin {
            app: "mpi-sleep".into(),
            args: vec!["20".into()],
            env: vec![("PMI_RANK".into(), "3".into())],
        },
    ]
}

fn task_kinds() -> Vec<TaskKind> {
    let mut kinds: Vec<TaskKind> = commands()
        .into_iter()
        .map(|cmd| TaskKind::Sequential { cmd })
        .collect();
    kinds.push(TaskKind::MpiProxy {
        cmd: CommandSpec::builtin("mpi-sleep", vec!["10".into()]),
        ranks: vec![4, 5],
        size: 8,
        pmi_addr: "127.0.0.1:4444".into(),
        pmi_jobid: "job-2".into(),
    });
    kinds
}

#[test]
fn every_worker_msg_variant_round_trips() {
    let msgs = vec![
        WorkerMsg::Register {
            name: "node-007".into(),
            cores: 4,
            location: "rack-3".into(),
        },
        WorkerMsg::Request,
        WorkerMsg::Done {
            task_id: 42,
            exit_code: i32::MIN,
            wall_ms: 10_500,
            output: Some(awkward()),
            trace: 7,
        },
        WorkerMsg::Done {
            task_id: 42,
            exit_code: 0,
            wall_ms: 0,
            output: None,
            trace: 0,
        },
        WorkerMsg::Heartbeat,
        WorkerMsg::Goodbye,
        WorkerMsg::RelayHello {
            name: "relay-0".into(),
            location: "rack-3".into(),
        },
        WorkerMsg::RelayRegister {
            local: 3,
            name: "node-0003".into(),
            cores: 4,
            location: "rack-3".into(),
        },
        WorkerMsg::RelayRequest { worker: 12 },
        WorkerMsg::RelayDone {
            worker: 12,
            task_id: 42,
            exit_code: -5,
            wall_ms: 99,
            output: Some("tail".into()),
            trace: 77,
        },
        WorkerMsg::BatchedHeartbeat {
            workers: vec![3, 5, 8, 13],
        },
        WorkerMsg::BatchedHeartbeat { workers: vec![] },
        WorkerMsg::RelayWorkerGone { worker: 8 },
        WorkerMsg::SessionState { running: None },
        WorkerMsg::SessionState {
            running: Some((42, 7)),
        },
        WorkerMsg::RelayMemberState {
            worker: 8,
            task_id: 42,
            job_id: 7,
        },
    ];
    for m in &msgs {
        round_trip(m);
    }
}

#[test]
fn every_dispatcher_msg_variant_round_trips() {
    let mut msgs = vec![
        DispatcherMsg::Registered { worker_id: 9 },
        DispatcherMsg::Cancel { task_id: 17 },
        DispatcherMsg::Shutdown,
        DispatcherMsg::RelayRegistered {
            local: 3,
            worker_id: 12,
        },
        DispatcherMsg::RelayCancel {
            worker: 12,
            task_id: 42,
        },
    ];
    for kind in task_kinds() {
        msgs.push(DispatcherMsg::Assign(assignment(kind.clone())));
        msgs.push(DispatcherMsg::RelayAssign {
            worker: 12,
            assignment: assignment(kind),
        });
    }
    for m in &msgs {
        round_trip(m);
    }
}

#[test]
fn specs_round_trip() {
    for cmd in commands() {
        round_trip(&cmd);
        round_trip(&JobSpec::sequential(cmd.clone()));
        round_trip(
            &JobSpec::mpi_ppn(4, 2, cmd)
                .with_stage(vec![StageFile::new("/x/y")])
                .with_retries(3)
                .with_priority(-5)
                .with_deadline(Duration::from_millis(1500)),
        );
    }
    for kind in task_kinds() {
        round_trip(&kind);
    }
}

#[test]
fn every_event_kind_round_trips_through_its_record() {
    let (trace, kind, role) = (9, SpanKind::RelayForward, WriterRole::Relay);
    let kinds = vec![
        EventKind::WorkerUp { worker: 1 },
        EventKind::WorkerDown { worker: 1 },
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
        EventKind::JobCompleted {
            job: 2,
            nodes: 4,
            ppn: 2,
            success: false,
        },
        EventKind::JobPhases {
            job: 2,
            nodes: 4,
            queue_us: 1,
            launch_us: 2,
            pmi_us: Some(3),
            run_us: 4,
            total_us: 10,
        },
        EventKind::JobPhases {
            job: 2,
            nodes: 1,
            queue_us: 1,
            launch_us: 2,
            pmi_us: None,
            run_us: 4,
            total_us: 10,
        },
        EventKind::JobRequeued { job: 2 },
        EventKind::DeadlineExceeded { job: 2 },
        EventKind::WorkerQuarantined {
            worker: 1,
            strikes: 3,
            until_ms: 99,
        },
        EventKind::TaskStarted {
            task: 5,
            job: 2,
            worker: 1,
            ranks: 2,
        },
        EventKind::RelayUp { relay: 7 },
        EventKind::RelayDown { relay: 7 },
        EventKind::TaskEnded {
            task: 5,
            job: 2,
            worker: 1,
            ranks: 2,
            exit_code: -7,
            trace: 9,
        },
        EventKind::GangReadopted { job: 2 },
        EventKind::UpQueueDropped {
            relay: 7,
            dropped: 11,
        },
        EventKind::SpanStart {
            trace,
            kind,
            role,
            job: 2,
            task: 5,
        },
        EventKind::SpanEnd {
            trace,
            kind,
            role,
            job: 2,
            task: 5,
        },
    ];
    for kind in kinds {
        let event = Event {
            t: Duration::from_micros(123_456),
            kind,
        };
        let record = EventRecord::from(&event);
        let text = round_trip(&record);
        let back: EventRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.into_event().unwrap(), event);
    }
}

/// The stand-in must put the same bytes on the wire as the real crate,
/// or `protocol.*` and `reactor.bytes_*` would measure something else.
#[test]
fn text_matches_real_serde_json() {
    assert_eq!(
        round_trip(&WorkerMsg::Done {
            task_id: 1,
            exit_code: -3,
            wall_ms: 5,
            output: Some("a\"b\n".into()),
            trace: 9,
        }),
        r#"{"Done":{"task_id":1,"exit_code":-3,"wall_ms":5,"output":"a\"b\n","trace":9}}"#
    );
    assert_eq!(round_trip(&WorkerMsg::Request), r#""Request""#);
    assert_eq!(
        round_trip(&WorkerMsg::SessionState {
            running: Some((4, 2))
        }),
        r#"{"SessionState":{"running":[4,2]}}"#
    );
    assert_eq!(
        round_trip(&WorkerMsg::SessionState { running: None }),
        r#"{"SessionState":{"running":null}}"#
    );
    assert_eq!(
        round_trip(&DispatcherMsg::Assign(TaskAssignment {
            task_id: 1,
            job_id: 2,
            kind: TaskKind::Sequential {
                cmd: CommandSpec::builtin("noop", vec![]),
            },
            stage: Vec::new(),
            trace: 3,
        })),
        r#"{"Assign":{"task_id":1,"job_id":2,"kind":{"Sequential":{"cmd":{"Builtin":{"app":"noop","args":[],"env":[]}}}},"stage":[],"trace":3}}"#
    );
    // `skip_serializing_if` drops the `None`s, commas stay right.
    let record = EventRecord {
        t_us: 7,
        kind: "TaskEnded".into(),
        worker: Some(1),
        exit_code: Some(-1),
        ..EventRecord::default()
    };
    assert_eq!(
        round_trip(&record),
        r#"{"t_us":7,"kind":"TaskEnded","worker":1,"exit_code":-1}"#
    );
    assert_eq!(
        round_trip(&"ctl\u{1}\u{1f}".to_string()),
        r#""ctl\u0001\u001f""#
    );
}

#[test]
fn lenient_where_serde_is_lenient() {
    // Missing `#[serde(default)]` and `Option` fields, unknown keys of
    // any shape, whitespace, and a unit variant in object form.
    let done: WorkerMsg = serde_json::from_str(
        r#" { "Done" : { "future" : {"a":[1,2.5e3,{"b":null}],"c":"é"} ,
            "task_id" : 1 , "exit_code" : 0 , "wall_ms" : 2 } } "#,
    )
    .unwrap();
    assert_eq!(
        done,
        WorkerMsg::Done {
            task_id: 1,
            exit_code: 0,
            wall_ms: 2,
            output: None,
            trace: 0
        }
    );
    let record: EventRecord = serde_json::from_str(r#"{"t_us":1,"kind":"WorkerUp"}"#).unwrap();
    assert_eq!(record.worker, None);
    assert_eq!(
        serde_json::from_str::<WorkerMsg>(r#"{"Request":null}"#).unwrap(),
        WorkerMsg::Request
    );
    assert_eq!(
        serde_json::from_str::<String>(r#""😀\/é""#).unwrap(),
        "😀/é"
    );
}

#[test]
fn strict_where_serde_is_strict() {
    let bad = [
        "not json",
        "",
        r#""Bogus""#,
        r#"{"Bogus":{}}"#,
        r#""Done""#,                            // struct variant as a bare string
        r#"{"Request":null,"Heartbeat":null}"#, // two variants
        r#"{"Registered":{}}"#,                 // missing required field
        r#"{"Registered":{"worker_id":-1}}"#,   // negative for u64
        r#"{"Registered":{"worker_id":1.5}}"#,  // float for integer
        r#"{"Registered":{"worker_id":"1"}}"#,  // string for integer
        r#"{"Registered":{"worker_id":99999999999999999999}}"#,
        r#"{"Registered":{"worker_id":1}} x"#, // trailing characters
        r#"{"Registered":{"worker_id":1,}}"#,  // trailing comma
        r#"{"RelayHello":{"name":"a","location":"\ud83d"}}"#, // lone surrogate
        r#"{"RelayHello":{"name":"a","location":"\q"}}"#,
        "{\"RelayHello\":{\"name\":\"a\nb\",\"location\":\"\"}}", // raw control char
    ];
    for text in bad {
        assert!(serde_json::from_str::<WorkerMsg>(text).is_err(), "{text}");
    }
    // u32 field fed a u64-sized value.
    let text = r#"{"Register":{"name":"n","cores":4294967296,"location":"l"}}"#;
    assert!(serde_json::from_str::<WorkerMsg>(text).is_err());
    // A hostile unknown value cannot blow the stack.
    let deep = format!(
        r#"{{"Registered":{{"x":{}1{},"worker_id":1}}}}"#,
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    assert!(serde_json::from_str::<DispatcherMsg>(&deep).is_err());
}
