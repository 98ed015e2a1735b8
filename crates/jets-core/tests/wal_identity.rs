//! The write-ahead path's bytes are the journal format's, byte for byte.
//!
//! `Fact::wal` encodes each record straight from the data the fact
//! borrows; `journal::Record` is the read side. Over seeded specs of every
//! shape — `Exec` with environment, `Builtin`, staged files, deadline,
//! priority, MPI — and every fact that journals, the frames `Fact::wal`
//! writes must equal `journal::append_frames` over the records each fact
//! stands for, and scan back to them. `data/facts.wal` holds the same
//! story as written by the write path before this one, which built a
//! `Record` per fact and framed it: the bytes must match it, and a
//! dispatcher must replay it, each job back in the state it was left in.

use jets_core::core::Fact;
use jets_core::events::EventKind;
use jets_core::journal::{self, Record, RecoveredPhase};
use jets_core::protocol::{TaskAssignment, TaskKind};
use jets_core::spec::{
    CommandSpec, JobId, JobSpec, StageFile, WorkerId, EXIT_DEADLINE, EXIT_WORKER_LOST,
};
use jets_core::{Dispatcher, DispatcherConfig, FsyncPolicy, JobStatus};
use jets_ring::stdx::SplitMix64;

const SEED: u64 = 0x0A1B_17E5;
const JOBS: usize = 48;

/// The journal an earlier build wrote for `story(&Run::new(SEED))`.
const WRITTEN_BEFORE: &[u8] = include_bytes!("data/facts.wal");

/// Up to `max` characters, some of them multi-byte or framing-special.
fn text(rng: &mut SplitMix64, max: u64) -> String {
    const POOL: [char; 12] = [
        'a',
        'z',
        '0',
        '/',
        '-',
        '=',
        ' ',
        '\n',
        '\\',
        'é',
        '→',
        '\u{1F980}',
    ];
    let len = rng.gen_range(1..max + 1);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len() as u64) as usize])
        .collect()
}

fn strings(rng: &mut SplitMix64, max: u64) -> Vec<String> {
    (0..rng.gen_range(0..max + 1))
        .map(|_| text(rng, 12))
        .collect()
}

/// A spec of a seeded shape: either command kind, environment or none,
/// sequential or MPI, and each optional field set or not.
fn spec(rng: &mut SplitMix64) -> JobSpec {
    let env = (0..rng.gen_range(0..3))
        .map(|_| (text(rng, 6), text(rng, 10)))
        .collect();
    let (name, args) = (text(rng, 16), strings(rng, 4));
    let cmd = match rng.gen_range(0..2) {
        0 => CommandSpec::Exec {
            program: name,
            args,
            env,
        },
        _ => CommandSpec::Builtin {
            app: name,
            args,
            env,
        },
    };
    let mut spec = match rng.gen_range(0..3) {
        0 => {
            let (nodes, ppn) = (rng.gen_range(1..5) as u32, rng.gen_range(1..4) as u32);
            JobSpec::mpi_ppn(nodes, ppn, cmd)
        }
        _ => JobSpec::sequential(cmd),
    };
    spec.priority = rng.gen_range(0..2001) as i32 - 1000;
    spec.max_retries = rng.gen_range(0..5) as u32;
    if rng.gen_range(0..2) == 0 {
        let files = (0..rng.gen_range(1..4)).map(|_| match rng.gen_range(0..2) {
            0 => StageFile::new(text(rng, 20)),
            _ => StageFile::named(text(rng, 20), text(rng, 8)),
        });
        spec.stage = files.collect();
    }
    if rng.gen_range(0..2) == 0 {
        spec.deadline_ms = Some(rng.gen_range(1..1 << 40));
    }
    spec
}

/// One job's fate after submission, and what it needs for it.
struct Plan {
    /// 0 stays queued, 1 runs to its end, 2 loses a worker and requeues,
    /// 3 blows its deadline, and its first member is still out.
    fate: u64,
    gang: Vec<(WorkerId, TaskAssignment)>,
    exits: Vec<i32>,
    name: String,
}

/// Everything the story's facts borrow.
struct Run {
    specs: Vec<JobSpec>,
    plans: Vec<Plan>,
}

impl Run {
    fn new(seed: u64) -> Run {
        let mut rng = SplitMix64::new(seed);
        let specs: Vec<JobSpec> = (0..JOBS).map(|_| spec(&mut rng)).collect();
        let plans = (1..).zip(&specs).map(|(job, spec): (JobId, _)| {
            let gang = (0..spec.nodes as u64).map(|k| {
                let cmd = spec.cmd.clone();
                let assignment = TaskAssignment {
                    task_id: job * 100 + k,
                    job_id: job,
                    kind: TaskKind::Sequential { cmd },
                    stage: spec.stage.clone(),
                    trace: rng.next_u64(),
                };
                (rng.gen_range(1..1 << 20), assignment)
            });
            let gang: Vec<_> = gang.collect();
            let exits = gang
                .iter()
                .map(|_| rng.gen_range(0..3) as i32 - 1)
                .collect();
            Plan {
                fate: rng.gen_range(0..4),
                exits,
                gang,
                name: text(&mut rng, 24),
            }
        });
        let plans = plans.collect();
        Run { specs, plans }
    }
}

/// The facts a dispatcher emits for `run`, in order, each with the
/// records it stands for — the journal format's definition.
fn story(run: &Run, mut each: impl FnMut(Fact<'_>, Vec<Record>)) {
    let (first, specs) = (1, &run.specs[..]);
    let submitted = (first..).zip(specs).flat_map(|(job, spec)| {
        let spec = spec.clone();
        [
            Record::Submitted { job, spec },
            Record::Enqueued { job, attempts: 0 },
        ]
    });
    each(Fact::Submitted { first, specs }, submitted.collect());
    for (job, plan) in (first..).zip(&run.plans) {
        if plan.fate == 0 {
            continue;
        }
        let nodes = run.specs[job as usize - 1].nodes;
        let started = Fact::JobStarted {
            job,
            attempt: 1,
            nodes,
        };
        each(started, Vec::new());
        let tasks = plan.gang.iter().map(|(w, a)| (*w, a.task_id)).collect();
        let gang = &plan.gang[..];
        let assigned = Fact::Assigned {
            job,
            attempt: 1,
            tasks: gang,
        };
        let attempt = 1;
        each(
            assigned,
            vec![Record::Assigned {
                job,
                attempt,
                tasks,
            }],
        );
        let ended = |(worker, a): &(WorkerId, TaskAssignment), exit_code| {
            let (task, trace, ranks) = (a.task_id, a.trace, 1);
            let fact = Fact::Event(EventKind::TaskEnded {
                task,
                job,
                worker: *worker,
                ranks,
                exit_code,
                trace,
            });
            (
                fact,
                vec![Record::TaskEnded {
                    job,
                    task,
                    exit_code,
                }],
            )
        };
        match plan.fate {
            1 => {
                for (member, &exit) in gang.iter().zip(&plan.exits) {
                    let (fact, recs) = ended(member, exit);
                    each(fact, recs);
                }
                let success = plan.exits.iter().all(|&c| c == 0);
                let finished = Fact::JobFinished {
                    job,
                    success,
                    wall: None,
                    exit_codes: plan.exits.clone(),
                    outputs: vec![plan.name.clone()],
                };
                each(finished, vec![Record::Finished { job, success }]);
            }
            2 => {
                let (fact, recs) = ended(&gang[0], EXIT_WORKER_LOST);
                each(fact, recs);
                let name = plan.name.as_str();
                let down = Fact::WorkerDown {
                    worker: gang[0].0,
                    strike: Some(name),
                };
                each(down, vec![Record::QuarantineStrike { name: name.into() }]);
                let requeued = Fact::JobRequeued {
                    job,
                    attempts: 1,
                    wall: None,
                    exit_codes: vec![EXIT_WORKER_LOST],
                    outputs: Vec::new(),
                };
                each(requeued, vec![Record::Requeued { job, attempts: 1 }]);
                let released = Fact::QuarantineReleased { name };
                each(
                    released,
                    vec![Record::QuarantineRelease { name: name.into() }],
                );
            }
            _ => {
                let late = Fact::Event(EventKind::DeadlineExceeded { job });
                each(late, vec![Record::DeadlineExceeded { job }]);
                for member in &gang[1..] {
                    let (fact, recs) = ended(member, EXIT_DEADLINE);
                    each(fact, recs);
                }
            }
        }
    }
}

/// The story as `Fact::wal` journals it, and the records it stands for.
fn journaled(run: &Run) -> (Vec<u8>, Vec<Record>) {
    let (mut bytes, mut records) = (journal::MAGIC.to_vec(), Vec::new());
    story(run, |fact, recs| {
        let before = bytes.len();
        let n = fact.wal(&mut bytes).expect("every record fits a frame");
        assert_eq!(n, recs.len(), "{fact:?}");
        let mut framed = Vec::new();
        journal::append_frames(&mut framed, &recs).unwrap();
        assert_eq!(bytes[before..], framed, "{fact:?}");
        records.extend(recs);
    });
    (bytes, records)
}

#[test]
fn fact_frames_are_the_records_frames_and_scan_back() {
    let run = Run::new(SEED);
    let (bytes, records) = journaled(&run);
    let shapes = |f: &dyn Fn(&JobSpec) -> bool| run.specs.iter().filter(|s| f(s)).count();
    assert!(shapes(&|s| matches!(s.cmd, CommandSpec::Exec { .. })) > 0);
    assert!(shapes(&|s| matches!(s.cmd, CommandSpec::Builtin { .. })) > 0);
    assert!(shapes(&|s| !s.cmd.env().is_empty()) > 0);
    assert!(shapes(&|s| !s.stage.is_empty()) > 0);
    assert!(shapes(&|s| s.deadline_ms.is_some()) > 0);
    assert!(shapes(&|s| s.is_mpi()) > 0);
    let fates = |n| run.plans.iter().filter(|p| p.fate == n).count();
    assert!((0..4).all(|n| fates(n) > 0), "every fate is told");
    let scanned = journal::scan_bytes(&bytes).unwrap();
    assert_eq!(scanned.dropped_bytes(), 0);
    assert_eq!(scanned.records, records);
}

#[test]
fn the_bytes_are_the_ones_the_record_path_wrote() {
    let (bytes, records) = journaled(&Run::new(SEED));
    assert_eq!(bytes.len(), WRITTEN_BEFORE.len());
    assert!(
        bytes == WRITTEN_BEFORE,
        "the frames differ from data/facts.wal"
    );
    let scanned = journal::scan_bytes(WRITTEN_BEFORE).unwrap();
    assert_eq!(scanned.records, records);
}

/// A dispatcher started on the journal an earlier build wrote restores
/// every job it left non-terminal, each with its spec.
#[test]
fn a_journal_written_before_replays() {
    let path = std::env::temp_dir().join(format!("jets-wal-identity-{}.wal", std::process::id()));
    std::fs::write(&path, WRITTEN_BEFORE).unwrap();
    let run = Run::new(SEED);
    let records = journal::scan_bytes(WRITTEN_BEFORE).unwrap().records;
    let live = journal::recover(&records).jobs;
    assert!(!live.is_empty());
    let d = Dispatcher::start(DispatcherConfig {
        journal: Some(path.clone()),
        fsync_policy: FsyncPolicy::Never,
        ..DispatcherConfig::default()
    })
    .unwrap();
    assert_eq!(d.outstanding(), live.len());
    assert_eq!(d.metrics().journal_replayed_jobs.get(), live.len() as i64);
    let mut orphans = 0;
    for job in &live {
        let record = d.job_record(job.id).expect("a restored job");
        assert_eq!(record.spec, run.specs[job.id as usize - 1]);
        // A sequential attempt still out at the crash waits for its
        // worker's claim; anything else is back in the queue.
        let out = matches!(&job.phase, RecoveredPhase::Active { tasks, .. } if !tasks.is_empty());
        let status = match out && !record.spec.is_mpi() {
            true => JobStatus::Running,
            false => JobStatus::Pending,
        };
        assert_eq!(record.status, status, "job {}", job.id);
        orphans += usize::from(status == JobStatus::Running);
    }
    assert!(orphans > 0 && d.recovering(), "an orphan is restored");
    let finished = (1..).zip(&run.plans).filter(|(_, p)| p.fate == 1);
    for (id, _) in finished {
        assert!(d.job_record(id).is_none(), "finished job {id} came back");
    }
    d.kill();
    std::fs::remove_file(&path).ok();
}
