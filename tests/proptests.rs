//! Property tests over cross-crate invariants: seeded generate-and-check
//! (`jets_ring::stdx::check`), no shrinking; a failure names its seed and
//! case, and editing `SEED` reruns others.

use jets::core::queue::{JobQueue, QueuedJob};
use jets::core::spec::{parse_input, CommandSpec, JobSpec, StageFile};
use jets::core::QueuePolicy;
use jets::mpi::{runner, NetModel, ReduceOp};
use jets::pmi::wire::{escape, unescape, Message};
use jets::pmi::{ManualLauncher, RankLayout};
use jets_ring::stdx::{check, SplitMix64};
use std::time::{Duration, Instant};

const SEED: u64 = 0x5EED_0002;
const CASES: u64 = 64;
/// Collective correctness spawns threads; keep the case count low.
const THREADED_CASES: u64 = 8;

/// Up to `max_len` characters: a third from the ones PMI framing and
/// escaping treat specially, a third printable ASCII, a third any scalar.
fn any_string(rng: &mut SplitMix64, max_len: u64) -> String {
    const SPECIAL: [char; 8] = [' ', '=', '\n', '\\', '%', ';', '\t', '\0'];
    (0..rng.gen_range(0..max_len + 1))
        .map(|_| match rng.gen_range(0..3) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len() as u64) as usize],
            1 => char::from(rng.gen_range(0x20..0x7F) as u8),
            _ => char::from_u32(rng.gen_range(0..0x11_0000) as u32).unwrap_or('\u{FFFD}'),
        })
        .collect()
}

/// One to 29 MPI job sizes, each in `1..max_nodes`.
fn job_sizes(rng: &mut SplitMix64, max_nodes: u64) -> Vec<u32> {
    (0..rng.gen_range(1..30))
        .map(|_| rng.gen_range(1..max_nodes) as u32)
        .collect()
}

fn queued(id: usize, nodes: u32) -> QueuedJob {
    QueuedJob {
        id: id as u64,
        spec: JobSpec::mpi(nodes, CommandSpec::builtin("x", vec![])),
        attempts: 0,
        excluded: Vec::new(),
        submitted_at: std::time::Instant::now(),
        enqueued_at: std::time::Instant::now(),
        trace: 0,
    }
}

/// PMI escaping is lossless for arbitrary strings.
#[test]
fn pmi_escape_round_trips() {
    check(SEED, CASES, |rng| {
        let s = any_string(rng, 64);
        assert_eq!(unescape(&escape(&s)).unwrap(), s);
    });
}

/// Escaped text never contains characters that would break framing.
#[test]
fn pmi_escape_output_is_frame_safe() {
    check(SEED, CASES, |rng| {
        let e = escape(&any_string(rng, 64));
        assert!(!e.contains(' ') && !e.contains('=') && !e.contains('\n'));
    });
}

/// Arbitrary put messages survive the wire.
#[test]
fn pmi_put_messages_round_trip() {
    check(SEED, CASES, |rng| {
        let m = Message::Put {
            key: any_string(rng, 40),
            value: any_string(rng, 80),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    });
}

/// The manual launcher covers every rank exactly once, whatever the
/// layout.
#[test]
fn proxy_commands_partition_ranks() {
    check(SEED, CASES, |rng| {
        let layout = RankLayout {
            nodes: rng.gen_range(1..40) as u32,
            ppn: rng.gen_range(1..8) as u32,
        };
        let cmds = ManualLauncher.proxy_commands("j", layout, "h:1");
        let mut all: Vec<u32> = cmds.iter().flat_map(|c| c.ranks.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..layout.size()).collect::<Vec<_>>());
    });
}

/// FIFO never reorders; every pushed job comes out exactly once.
#[test]
fn fifo_queue_preserves_order() {
    check(SEED, CASES, |rng| {
        let sizes = job_sizes(rng, 8);
        let mut q = JobQueue::new(QueuePolicy::Fifo);
        for (i, &n) in sizes.iter().enumerate() {
            q.push(queued(i, n));
        }
        let mut out = Vec::new();
        while let Some(j) = q.pick(usize::MAX) {
            out.push(j.id);
        }
        assert_eq!(out, (0..sizes.len() as u64).collect::<Vec<_>>());
    });
}

/// Backfill never loses or duplicates jobs either, and only emits
/// jobs that fit.
#[test]
fn backfill_queue_conserves_jobs() {
    check(SEED, CASES, |rng| {
        let sizes = job_sizes(rng, 10);
        let free = rng.gen_range(1..10) as usize;
        let mut q = JobQueue::new(QueuePolicy::PriorityBackfill);
        for (i, &n) in sizes.iter().enumerate() {
            q.push(queued(i, n));
        }
        let mut emitted = Vec::new();
        while let Some(j) = q.pick(free) {
            assert!(j.spec.nodes as usize <= free);
            emitted.push(j.id);
        }
        let expected: Vec<u64> = sizes
            .iter()
            .enumerate()
            .filter(|(_, &n)| n as usize <= free)
            .map(|(i, _)| i as u64)
            .collect();
        let mut sorted = emitted.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected);
        assert_eq!(q.len(), sizes.len() - emitted.len());
    });
}

/// Under backfill, batches of mixed priorities, picks and requeues leave
/// the queue in the order the linear-scan definition gives: a push lands
/// behind the last job of priority ≥ its own, a requeue ahead of its
/// equal-priority peers, a pick takes the first job that fits — and the
/// job a pick returns is, field for field, the one pushed.
#[test]
fn backfill_queue_orders_as_the_linear_scan_does() {
    let shrank = queue_model(QueuePolicy::PriorityBackfill);
    assert!(shrank > 0, "no case compacted its queue");
}

/// The same model under FIFO: a push lands at the back, a requeue at the
/// front, and only the head is ever picked.
#[test]
fn fifo_queue_orders_as_the_linear_scan_does() {
    let shrank = queue_model(QueuePolicy::Fifo);
    assert!(shrank > 0, "no case compacted its queue");
}

/// Churn a queue under `policy` against a `Vec<QueuedJob>` model; the
/// number of times its memory shrank while jobs were pending (a
/// compaction) is returned.
fn queue_model(policy: QueuePolicy) -> u64 {
    let base = Instant::now();
    let mut shrank = 0;
    check(SEED, CASES * 8, |rng| {
        let mut q = JobQueue::new(policy);
        // The queue's jobs, in the definition's order.
        let mut model: Vec<QueuedJob> = Vec::new();
        let (mut picked, mut next): (Vec<QueuedJob>, u64) = (Vec::new(), 0);
        for _ in 0..rng.gen_range(1..40) {
            let bytes = q.bytes();
            match rng.gen_range(0..3) {
                0 => {
                    for _ in 0..rng.gen_range(1..32) {
                        let job = any_queued(rng, next, base);
                        let priority = job.spec.priority;
                        let at = match policy {
                            QueuePolicy::Fifo => None,
                            QueuePolicy::PriorityBackfill => {
                                model.iter().position(|m| m.spec.priority < priority)
                            }
                        };
                        model.insert(at.unwrap_or(model.len()), job.clone());
                        q.push(job);
                        next += 1;
                    }
                }
                1 => {
                    let free = rng.gen_range(1..8) as u32;
                    for _ in 0..rng.gen_range(1..24) {
                        let fits = |m: &QueuedJob| m.spec.nodes <= free;
                        let at = match policy {
                            QueuePolicy::Fifo => model.first().filter(|m| fits(m)).map(|_| 0),
                            QueuePolicy::PriorityBackfill => model.iter().position(fits),
                        };
                        let job = q.pick(free as usize);
                        assert_eq!(job, at.map(|at| model.remove(at)));
                        picked.extend(job);
                    }
                }
                _ => {
                    if picked.is_empty() {
                        continue;
                    }
                    let mut job: QueuedJob =
                        picked.swap_remove(rng.gen_range(0..picked.len() as u64) as usize);
                    job.attempts += 1;
                    job.enqueued_at = any_instant(rng, base);
                    job.excluded = (0..rng.gen_range(0..4)).map(|_| rng.next_u64()).collect();
                    let priority = job.spec.priority;
                    let at = match policy {
                        QueuePolicy::Fifo => Some(0),
                        QueuePolicy::PriorityBackfill => {
                            model.iter().position(|m| m.spec.priority <= priority)
                        }
                    };
                    model.insert(at.unwrap_or(model.len()), job.clone());
                    q.push_front(job);
                }
            }
            if !q.is_empty() && q.bytes() < bytes {
                shrank += 1;
            }
            let order: Vec<u64> = q.iter().map(|j| j.id).collect();
            assert_eq!(order, model.iter().map(|m| m.id).collect::<Vec<_>>());
        }
        // What is still queued comes back as it went in, too.
        while let Some(job) = q.pick(usize::MAX) {
            assert_eq!(job, model.remove(0));
        }
        assert!(model.is_empty());
    });
    shrank
}

/// A job with any spec the queue's codec must carry: either shape, env,
/// stage files, a deadline, a negative priority, strings holding the
/// codec's reserved bytes, excluded workers, and instants on either side
/// of whatever the queue takes as its anchor.
fn any_queued(rng: &mut SplitMix64, id: u64, base: Instant) -> QueuedJob {
    let strings = |rng: &mut SplitMix64, n: u64| -> Vec<String> {
        (0..rng.gen_range(0..n))
            .map(|_| codec_string(rng))
            .collect()
    };
    let env = (0..rng.gen_range(0..3))
        .map(|_| (codec_string(rng), codec_string(rng)))
        .collect();
    let cmd = match rng.gen_range(0..2) {
        0 => CommandSpec::Exec {
            program: codec_string(rng),
            args: strings(rng, 4),
            env,
        },
        _ => CommandSpec::Builtin {
            app: codec_string(rng),
            args: strings(rng, 4),
            env,
        },
    };
    let nodes = rng.gen_range(1..8) as u32;
    let mut spec = match rng.gen_range(0..2) {
        0 => JobSpec::mpi_ppn(nodes, rng.gen_range(1..5) as u32, cmd),
        _ => JobSpec {
            nodes,
            ..JobSpec::sequential(cmd)
        },
    }
    .with_priority(rng.gen_range(0..7) as i32 - 3)
    .with_retries(rng.gen_range(0..4) as u32);
    if rng.gen_range(0..2) == 0 {
        spec = spec.with_deadline(Duration::from_millis(
            rng.next_u64() >> rng.gen_range(0..64),
        ));
    }
    let stage = (0..rng.gen_range(0..3))
        .map(|_| StageFile::named(codec_string(rng), codec_string(rng)))
        .collect();
    QueuedJob {
        id,
        spec: spec.with_stage(stage),
        attempts: rng.gen_range(0..3) as u32,
        excluded: (0..rng.gen_range(0..3)).map(|_| rng.next_u64()).collect(),
        submitted_at: any_instant(rng, base),
        enqueued_at: any_instant(rng, base),
        trace: rng.next_u64(),
    }
}

/// A string for the queue's codec: mostly [`any_string`], with the codec's
/// delimiter (`\n`) and a char whose UTF-8 holds its escape byte (U+06C0,
/// `DB 80`) mixed in.
fn codec_string(rng: &mut SplitMix64) -> String {
    let mut s = any_string(rng, 12);
    for _ in 0..rng.gen_range(0..3) {
        s.push(['\n', '\u{6c0}'][rng.gen_range(0..2) as usize]);
    }
    s
}

/// Within about 18 minutes of `base`, either way.
fn any_instant(rng: &mut SplitMix64, base: Instant) -> Instant {
    let d = Duration::from_nanos(rng.gen_range(0..1 << 40));
    match rng.gen_range(0..2) {
        0 => base.checked_sub(d).unwrap_or(base),
        _ => base + d,
    }
}

/// Input-file parsing accepts every well-formed MPI line.
#[test]
fn input_lines_parse() {
    const ARG_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._/-";
    check(SEED, CASES, |rng| {
        let (nodes, ppn) = (rng.gen_range(1..100) as u32, rng.gen_range(1..8) as u32);
        let arg: String = (0..rng.gen_range(1..21))
            .map(|_| char::from(ARG_CHARS[rng.gen_range(0..ARG_CHARS.len() as u64) as usize]))
            .collect();
        let text = format!("MPI: {nodes} ppn={ppn} prog {arg}\n");
        let jobs = parse_input(&text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].nodes, nodes);
        assert_eq!(jobs[0].ppn, ppn);
        assert_eq!(jobs[0].cmd.args(), &[arg]);
    });
}

/// Metropolis acceptance is certain for non-negative deltas and a pure
/// function of (delta, generator state) otherwise.
#[test]
fn metropolis_bounds() {
    check(SEED, CASES, |rng| {
        let delta = rng.gen_f64() * 60.0 - 30.0;
        let seed = rng.gen_range(0..1000);
        let accepted = jets::namd::metropolis_accept(delta, &mut SplitMix64::new(seed));
        if delta >= 0.0 {
            assert!(accepted);
        }
        let again = jets::namd::metropolis_accept(delta, &mut SplitMix64::new(seed));
        assert_eq!(accepted, again);
    });
}

/// Allreduce(SUM) agrees with a sequential reduction for arbitrary
/// inputs, sizes, and vector lengths.
#[test]
fn allreduce_matches_sequential() {
    check(SEED, THREADED_CASES, |rng| {
        let size = rng.gen_range(1..6) as u32;
        let data: Vec<i64> = (0..rng.gen_range(1..8))
            .map(|_| rng.gen_range(0..2000) as i64 - 1000)
            .collect();
        let len = data.len();
        let data2 = data.clone();
        let results = runner::run_threads(size, NetModel::ideal(), move |comm| {
            // Rank r contributes data rotated by r so every rank differs.
            let mine: Vec<i64> = (0..len)
                .map(|i| data2[(i + comm.rank() as usize) % len])
                .collect();
            comm.allreduce(&mine, ReduceOp::Sum).unwrap()
        })
        .unwrap();
        let mut expected = vec![0i64; len];
        for r in 0..size as usize {
            for (i, e) in expected.iter_mut().enumerate() {
                *e += data[(i + r) % len];
            }
        }
        for got in results {
            assert_eq!(&got, &expected);
        }
    });
}

/// Broadcast delivers the root's data bit-exactly to every rank for
/// any root and size.
#[test]
fn bcast_delivers_exact_data() {
    check(SEED, THREADED_CASES, |rng| {
        let size = rng.gen_range(1..6) as u32;
        // Any non-NaN bit pattern (NaN != NaN would fail the comparison).
        let payload: Vec<f64> = (0..rng.gen_range(0..16))
            .map(|_| f64::from_bits(rng.next_u64()))
            .filter(|f| !f.is_nan())
            .collect();
        for root in 0..size {
            let p = payload.clone();
            let results = runner::run_threads(size, NetModel::ideal(), move |comm| {
                let data = if comm.rank() == root {
                    p.clone()
                } else {
                    Vec::new()
                };
                comm.bcast(root, data).unwrap()
            })
            .unwrap();
            for got in results {
                assert_eq!(&got, &payload);
            }
        }
    });
}
