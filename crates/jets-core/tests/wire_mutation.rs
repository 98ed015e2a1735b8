//! The wire decoder against damaged and hostile frames.
//!
//! A corpus with every `WorkerMsg` and `DispatcherMsg` variant, and every
//! journal `Record` (a WAL payload is the same codec) — the lists are
//! checked against exhaustive `match`es, so a new variant cannot ship
//! without a codec arm and a place here — round-trips, and then every
//! frame of it is cut at every byte, bit-flipped, given lengths that lie,
//! unknown tags and broken escapes, and pushed to `MAX_FRAME_BYTES` ± 1.
//! Each damaged frame decodes to `InvalidData` or to some message that
//! itself round-trips; none panics, and none makes the decoder reserve
//! more than one element per byte of the frame — the widest element being
//! a pair of `String`s — plus the byte itself.
//!
//! The mutations are seeded (`stdx::check`): a failure names the seed and
//! case, and `SEED`/`CASES` below replay or widen it.

use jets_core::journal::Record;
use jets_core::protocol::{
    decode_msg, encode_msg_buf, DispatcherMsg, MsgReader, TaskAssignment, TaskKind, Wire,
    WorkerMsg, MAX_FRAME_BYTES,
};
use jets_core::spec::{CommandSpec, JobSpec, StageFile};
use jets_ring::codec::{Put, END, ESC};
use jets_ring::stdx::{check, SplitMix64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::io;
use std::time::Duration;

const SEED: u64 = 0x5eed_c0de;
const CASES: u64 = 3_000;

/// Bytes one frame byte may cost the decoder: the widest list element
/// (an environment entry, a staged file) and the byte itself.
const ALLOC_PER_BYTE: usize = std::mem::size_of::<(String, String)>() + 1;

/// Counts the bytes this thread asks the allocator for while `counted`
/// runs; other threads (the test harness) are not counted.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATED.with(|a| a.set(a.get() + bytes));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATED.with(Cell::get))
}

/// Strings that exercise the escape: a newline, and `ۀ`, whose UTF-8
/// (`DB 80`) starts with the escape byte.
fn awkward() -> String {
    "tab\t nl\n esc ۀ end\n".to_string()
}

fn commands() -> Vec<CommandSpec> {
    vec![
        CommandSpec::builtin("noop", vec![]),
        CommandSpec::Exec {
            program: "/bin/echo".into(),
            args: vec!["hi".into(), awkward(), String::new()],
            env: vec![("K".into(), "V".into()), (awkward(), String::new())],
        },
    ]
}

fn assignments() -> Vec<TaskAssignment> {
    let mut kinds: Vec<TaskKind> = commands()
        .into_iter()
        .map(|cmd| TaskKind::Sequential { cmd })
        .collect();
    kinds.push(TaskKind::MpiProxy {
        cmd: CommandSpec::builtin("mpi-sleep", vec!["10".into()]),
        ranks: vec![4, 5, 10, 0xDB],
        size: 8,
        pmi_addr: "127.0.0.1:4444".into(),
        pmi_jobid: "job-2".into(),
    });
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TaskAssignment {
            // 10 is the delimiter and 0xDB the escape, as bytes.
            task_id: [123_456, 10, u64::MAX][i % 3],
            job_id: 0xDB,
            kind,
            stage: match i {
                0 => Vec::new(),
                _ => vec![
                    StageFile::new("/gpfs/apps/namd2"),
                    StageFile::named("a", ""),
                ],
            },
            trace: [0x9E37_79B9_7F4A_7C15, 0x0A0A_DBDB_0A0A_DBDB, 0][i % 3],
        })
        .collect()
}

fn worker_msgs() -> Vec<WorkerMsg> {
    let done = |output: Option<String>, exit_code| WorkerMsg::Done {
        task_id: 42,
        exit_code,
        wall_ms: 10_500,
        output,
        trace: 0x0A0A_0A0A_0A0A_0A0A,
    };
    vec![
        WorkerMsg::Register {
            name: "node-007".into(),
            cores: u32::MAX,
            location: awkward(),
        },
        WorkerMsg::Request,
        done(None, 0),
        done(Some(awkward()), i32::MIN),
        done(Some(String::new()), i32::MAX),
        WorkerMsg::Heartbeat,
        WorkerMsg::Goodbye,
        WorkerMsg::RelayHello {
            name: "relay-0".into(),
            location: String::new(),
        },
        WorkerMsg::RelayRegister {
            local: 10,
            name: "node-0003".into(),
            cores: 4,
            location: "rack-3".into(),
        },
        WorkerMsg::RelayRequest { worker: 0xDB },
        WorkerMsg::RelayDone {
            worker: 12,
            task_id: 10,
            exit_code: -5,
            wall_ms: 99,
            output: Some("tail".into()),
            trace: 77,
        },
        WorkerMsg::BatchedHeartbeat {
            workers: vec![3, 10, 0xDB, u64::MAX],
        },
        WorkerMsg::BatchedHeartbeat { workers: vec![] },
        WorkerMsg::RelayWorkerGone { worker: 8 },
        WorkerMsg::SessionState { running: None },
        WorkerMsg::SessionState {
            running: Some((42, 10)),
        },
        WorkerMsg::RelayMemberState {
            worker: 8,
            task_id: 42,
            job_id: 7,
        },
    ]
}

fn dispatcher_msgs() -> Vec<DispatcherMsg> {
    let mut msgs = vec![
        DispatcherMsg::Registered { worker_id: 10 },
        DispatcherMsg::Cancel { task_id: 17 },
        DispatcherMsg::Shutdown,
        DispatcherMsg::RelayRegistered {
            local: 0xDB,
            worker_id: 12,
        },
        DispatcherMsg::RelayCancel {
            worker: 12,
            task_id: 42,
        },
    ];
    for assignment in assignments() {
        msgs.push(DispatcherMsg::Assign(assignment.clone()));
        msgs.push(DispatcherMsg::RelayAssign {
            worker: 10,
            assignment,
        });
    }
    msgs
}

/// The journal's records: a WAL payload is one of these bodies.
fn records() -> Vec<Record> {
    let spec = |cmd| {
        JobSpec::mpi_ppn(10, 0xDB, cmd)
            .with_priority(-10)
            .with_retries(u32::MAX)
            .with_deadline(Duration::from_millis(u64::MAX))
    };
    let mut recs: Vec<Record> = commands()
        .into_iter()
        .zip([10, 0xDB])
        .map(|(cmd, job)| Record::Submitted {
            job,
            spec: spec(cmd),
        })
        .collect();
    recs.push(Record::Submitted {
        job: u64::MAX,
        spec: JobSpec::sequential(CommandSpec::builtin("noop", vec![]))
            .with_stage(vec![StageFile::named(awkward(), "")]),
    });
    recs.extend([
        Record::Enqueued {
            job: 10,
            attempts: 0,
        },
        Record::Assigned {
            job: 0xDB,
            attempt: u32::MAX,
            tasks: vec![(10, 0xDB), (u64::MAX, 0)],
        },
        Record::Assigned {
            job: 1,
            attempt: 1,
            tasks: vec![],
        },
        Record::TaskEnded {
            job: 10,
            task: 123_456,
            exit_code: i32::MIN,
        },
        Record::Finished {
            job: 10,
            success: true,
        },
        Record::Requeued {
            job: 10,
            attempts: 0xDB,
        },
        Record::QuarantineStrike { name: awkward() },
        Record::QuarantineRelease {
            name: String::new(),
        },
        Record::DeadlineExceeded { job: 0xDB },
        Record::Restarted,
    ]);
    recs
}

/// Which variant: no wildcard, so a new variant fails to compile here
/// until it has an index — and then `every_variant_round_trips` fails
/// until the corpus carries one.
fn worker_variant(m: &WorkerMsg) -> usize {
    match m {
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
const WORKER_VARIANTS: usize = 13;

/// As [`worker_variant`], down through what an assignment carries.
fn dispatcher_variant(m: &DispatcherMsg) -> usize {
    let shape = |a: &TaskAssignment| match &a.kind {
        TaskKind::Sequential {
            cmd: CommandSpec::Exec { .. },
        } => 0,
        TaskKind::Sequential {
            cmd: CommandSpec::Builtin { .. },
        } => 1,
        TaskKind::MpiProxy { .. } => 2,
    };
    match m {
        DispatcherMsg::Registered { .. } => 0,
        DispatcherMsg::Cancel { .. } => 1,
        DispatcherMsg::Shutdown => 2,
        DispatcherMsg::RelayRegistered { .. } => 3,
        DispatcherMsg::RelayCancel { .. } => 4,
        DispatcherMsg::Assign(a) => 5 + shape(a),
        DispatcherMsg::RelayAssign { assignment, .. } => 8 + shape(assignment),
    }
}
const DISPATCHER_VARIANTS: usize = 11;

/// As [`worker_variant`], for the journal's records.
fn record_variant(r: &Record) -> usize {
    match r {
        Record::Submitted { .. } => 0,
        Record::Enqueued { .. } => 1,
        Record::Assigned { .. } => 2,
        Record::TaskEnded { .. } => 3,
        Record::Finished { .. } => 4,
        Record::Requeued { .. } => 5,
        Record::QuarantineStrike { .. } => 6,
        Record::QuarantineRelease { .. } => 7,
        Record::DeadlineExceeded { .. } => 8,
        Record::Restarted => 9,
    }
}
const RECORD_VARIANTS: usize = 10;

fn frame<M: Wire>(msg: &M) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_msg_buf(msg, &mut buf).expect("corpus frames fit the cap");
    buf
}

/// A frame body (what the reactor hands `decode_msg`).
fn body<M: Wire>(msg: &M) -> Vec<u8> {
    let mut buf = frame(msg);
    assert_eq!(buf.pop(), Some(END));
    buf
}

/// Decode `bytes`, however damaged: `InvalidData` or a message that
/// round-trips, within the allocation bound, never a panic.
fn decode_damaged<M: Wire + PartialEq + Debug>(bytes: &[u8]) -> Option<M> {
    let (got, allocated) = counted(|| decode_msg::<M>(bytes));
    let bound = ALLOC_PER_BYTE * bytes.len();
    assert!(
        allocated <= bound,
        "{allocated} bytes allocated for a {}-byte frame",
        bytes.len()
    );
    match got {
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
            None
        }
        Ok(msg) if bytes.contains(&END) => panic!("a bare delimiter inside {msg:?}"),
        Ok(msg) => {
            assert_eq!(decode_msg::<M>(&body(&msg)).as_ref().ok(), Some(&msg));
            Some(msg)
        }
    }
}

fn assert_invalid<M: Wire + PartialEq + Debug>(bytes: &[u8], what: &str) {
    let (got, allocated) = counted(|| decode_msg::<M>(bytes));
    match got {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}"),
        Ok(msg) => panic!("{what}: decoded {msg:?}"),
    }
    assert!(
        allocated <= ALLOC_PER_BYTE * bytes.len(),
        "{what}: {allocated} bytes"
    );
}

#[test]
fn every_variant_round_trips() {
    let (workers, dispatchers) = (worker_msgs(), dispatcher_msgs());
    let mut seen = [false; WORKER_VARIANTS];
    workers.iter().for_each(|m| seen[worker_variant(m)] = true);
    assert!(
        seen.iter().all(|&s| s),
        "WorkerMsg variants missing: {seen:?}"
    );
    let mut seen = [false; DISPATCHER_VARIANTS];
    dispatchers
        .iter()
        .for_each(|m| seen[dispatcher_variant(m)] = true);
    assert!(
        seen.iter().all(|&s| s),
        "DispatcherMsg shapes missing: {seen:?}"
    );
    let records = records();
    let mut seen = [false; RECORD_VARIANTS];
    records.iter().for_each(|r| seen[record_variant(r)] = true);
    assert!(seen.iter().all(|&s| s), "Record variants missing: {seen:?}");

    fn one<M: Wire + PartialEq + Debug>(msgs: &[M]) {
        let mut stream = Vec::new();
        for msg in msgs {
            let f = frame(msg);
            let delimiters = f.iter().filter(|&&b| b == END).count();
            assert_eq!((delimiters, f.last()), (1, Some(&END)), "{msg:?}");
            assert_eq!(&decode_msg::<M>(&f[..f.len() - 1]).unwrap(), msg);
            stream.extend(f);
        }
        // And back to back, the way a socket carries them.
        let mut reader = MsgReader::new(&stream[..]);
        for msg in msgs {
            assert_eq!(&reader.recv::<M>().unwrap().unwrap(), msg);
        }
        assert!(reader.recv::<M>().unwrap().is_none());
    }
    one(&workers);
    one(&dispatchers);
    one(&records);
}

/// The encoding is prefix-free: no proper prefix of a frame is a frame.
#[test]
fn truncation_at_every_byte_is_invalid() {
    fn one<M: Wire + PartialEq + Debug>(msgs: &[M]) {
        for msg in msgs {
            let b = body(msg);
            for cut in 0..b.len() {
                assert_invalid::<M>(&b[..cut], &format!("{msg:?} cut at {cut}"));
            }
        }
    }
    one(&worker_msgs());
    one(&dispatcher_msgs());
    one(&records());
}

/// One mutation of `b`, drawn from `rng`.
fn mutate(rng: &mut SplitMix64, mut b: Vec<u8>) -> Vec<u8> {
    let at = |rng: &mut SplitMix64, len: usize| rng.gen_range(0..len as u64 + 1) as usize;
    match rng.gen_range(0..6) {
        // A single bit flip.
        0 if !b.is_empty() => {
            let i = at(rng, b.len() - 1);
            b[i] ^= 1 << rng.gen_range(0..8);
        }
        // A length (or any integer) that lies: a long LEB128 spliced in.
        1 => {
            let i = at(rng, b.len());
            let mut lie = Vec::new();
            Put(&mut lie).var(rng.next_u64() >> rng.gen_range(0..64));
            b.splice(i..i, lie);
        }
        // A byte overwritten with a tag from the future, a reserved byte,
        // or anything at all.
        2 if !b.is_empty() => {
            let i = at(rng, b.len() - 1);
            b[i] = [0x7F, END, ESC, rng.next_u64() as u8][rng.gen_range(0..4) as usize];
        }
        // A dangling or broken escape.
        3 => {
            let i = at(rng, b.len());
            let code = [None, Some(0x00), Some(0xDC), Some(0xDD)][rng.gen_range(0..4) as usize];
            b.splice(i..i, std::iter::once(ESC).chain(code));
        }
        // Duplicated or dropped bytes.
        4 if !b.is_empty() => {
            let i = at(rng, b.len() - 1);
            let j = at(rng, b.len() - i - 1) + i;
            let dup = b[i..=j].to_vec();
            match rng.gen_range(0..2) {
                0 => drop(b.drain(i..=j)),
                _ => drop(b.splice(j..j, dup)),
            }
        }
        // Trailing bytes.
        _ => b.extend((0..rng.gen_range(1..4)).map(|_| rng.next_u64() as u8)),
    }
    b
}

/// One corpus frame, mutated `rounds` times, through [`decode_damaged`]:
/// whether it still decoded.
fn mutated<M: Wire + PartialEq + Debug>(rng: &mut SplitMix64, corpus: &[M], rounds: u64) -> bool {
    let msg = &corpus[rng.gen_range(0..corpus.len() as u64) as usize];
    let mut b = body(msg);
    for _ in 0..rounds {
        b = mutate(rng, b);
    }
    decode_damaged::<M>(&b).is_some()
}

#[test]
fn seeded_mutations_are_invalid_or_round_trip() {
    let (workers, dispatchers, records) = (worker_msgs(), dispatcher_msgs(), records());
    let (mut decoded, mut rejected) = (0, 0);
    check(SEED, CASES, |rng| {
        // Several mutations stacked on one frame, sometimes.
        let rounds = 1 + rng.gen_range(0..3);
        let ok = match rng.gen_range(0..3) {
            0 => mutated(rng, &workers, rounds),
            1 => mutated(rng, &dispatchers, rounds),
            _ => mutated(rng, &records, rounds),
        };
        match ok {
            true => decoded += 1,
            false => rejected += 1,
        }
    });
    // The mutations mostly break frames; some land in a string and leave
    // a valid one.
    assert!(
        rejected > CASES / 2,
        "{rejected} rejected, {decoded} decoded"
    );
}

#[test]
fn lying_lengths_allocate_nothing() {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    // A heartbeat batch claiming 2^40 workers, a name claiming 1,000
    // bytes, and an argument list claiming more elements than bytes left.
    for claim in [1u64 << 40, 1_000, 5] {
        let mut b = Vec::new();
        let mut p = Put(&mut b);
        p.u8(b'b');
        p.var(claim);
        p.var(7);
        frames.push(b.clone());
        b.clear();
        let mut p = Put(&mut b);
        p.u8(b'R');
        p.var(claim);
        p.0.extend_from_slice(b"abc");
        frames.push(b);
    }
    for f in &frames {
        let (got, allocated) = counted(|| decode_msg::<WorkerMsg>(f));
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(allocated, 0, "{f:?}");
    }
    // The same claims as a journal record's task list and a strike's name.
    for claim in [1u64 << 40, 1_000, 5] {
        let mut b = Vec::new();
        let mut p = Put(&mut b);
        p.u8(b'A');
        p.var(1);
        p.var(1);
        p.var(claim);
        p.var(7);
        let (got, allocated) = counted(|| decode_msg::<Record>(&b));
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(allocated, 0, "{b:?}");
        b.clear();
        let mut p = Put(&mut b);
        p.u8(b'K');
        p.var(claim);
        p.0.extend_from_slice(b"abc");
        let (got, allocated) = counted(|| decode_msg::<Record>(&b));
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(allocated, 0, "{b:?}");
    }
    let mut b = body(&DispatcherMsg::Assign(assignments().remove(0)));
    // The first assignment's `args` count follows its command's name.
    let args_at = b.windows(4).position(|w| w == b"noop").unwrap() + 4;
    assert_eq!(b[args_at], 0);
    b[args_at] = 0x7F;
    let (got, allocated) = counted(|| decode_msg::<DispatcherMsg>(&b));
    assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
    assert!(allocated <= "noop".len(), "{allocated}");
}

#[test]
fn unknown_tags_and_broken_escapes_are_invalid() {
    let worker_tags = b"RQDBGhrqdbgSs";
    let dispatcher_tags = b"RACXrac";
    let record_tags = b"SQATFRKUDB";
    for tag in 0..=u8::MAX {
        if !worker_tags.contains(&tag) {
            assert_invalid::<WorkerMsg>(&[tag], &format!("worker tag {tag:#x}"));
        }
        if !dispatcher_tags.contains(&tag) {
            assert_invalid::<DispatcherMsg>(&[tag], &format!("dispatcher tag {tag:#x}"));
        }
        if !record_tags.contains(&tag) {
            assert_invalid::<Record>(&[tag], &format!("record tag {tag:#x}"));
        }
    }
    // Inner tags: the task shape and the command shape of an `Assign`,
    // just ahead of the command name's length.
    let b = body(&DispatcherMsg::Assign(assignments().remove(0)));
    let name_at = b.windows(4).position(|w| w == b"noop").unwrap();
    assert_eq!(&b[name_at - 3..name_at - 1], b"SB");
    for at in [name_at - 3, name_at - 2] {
        let mut bad = b.clone();
        bad[at] = b'?';
        assert_invalid::<DispatcherMsg>(&bad, &format!("inner tag at {at}"));
    }
    let request = body(&WorkerMsg::Request);
    for tail in [&[ESC][..], &[ESC, 0x00], &[ESC, ESC], &[END], &[ESC, END]] {
        let bad = [&request[..], tail].concat();
        assert_invalid::<WorkerMsg>(&bad, &format!("escape tail {tail:?}"));
    }
}

#[test]
fn frames_at_the_cap_plus_and_minus_one() {
    // Tag, task, exit, wall, `Some`, a four-byte length, output, trace:
    // 17 bytes around the output, plus the delimiter.
    let done = |len: usize| WorkerMsg::Done {
        task_id: 1,
        exit_code: 0,
        wall_ms: 1,
        output: Some("z".repeat(len)),
        trace: 9,
    };
    let at_cap = MAX_FRAME_BYTES - 18;
    let mut buf = Vec::new();
    encode_msg_buf(&done(at_cap - 1), &mut buf).unwrap();
    assert_eq!(buf.len(), MAX_FRAME_BYTES - 1);
    encode_msg_buf(&done(at_cap), &mut buf).unwrap();
    assert_eq!(buf.len(), MAX_FRAME_BYTES);
    assert_eq!(
        decode_msg::<WorkerMsg>(&buf[..buf.len() - 1]).unwrap(),
        done(at_cap)
    );
    let refused = encode_msg_buf(&done(at_cap + 1), &mut buf).unwrap_err();
    assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
    // A body one byte over what fits under the cap, built by hand since
    // the encoder refuses it: well-formed, and still refused.
    let mut over = Vec::new();
    let mut p = Put(&mut over);
    p.u8(b'D');
    p.var(1);
    p.zig(0);
    p.var(1);
    p.bool(true);
    p.str(&"z".repeat(at_cap + 1));
    p.u64le(9);
    assert_eq!(over.len(), MAX_FRAME_BYTES);
    assert_invalid::<WorkerMsg>(&over, "a body over the cap");
}
