//! What one MPI gang costs in threads, TCP connections and PMI round
//! trips, counted by the kernel, the reactor and the client. One test in
//! its own binary: every thread of the process is in the census.

use jets_core::spec::{CommandSpec, JobSpec};
use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
use jets_worker::apps::standard_registry;
use jets_worker::{Executor, TaskContext, Worker, WorkerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(60);
const PILOTS: usize = 8;
const GANGS: u64 = 50;

/// The name of every live thread of this process, sorted.
fn thread_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect();
    names.sort_unstable();
    names
}

fn run_gangs(d: &Dispatcher, n: u64) {
    let gang = || JobSpec::mpi(4, CommandSpec::builtin("mpi-counted", vec![]));
    let ids = d.submit_all((0..n).map(|_| gang()));
    assert!(d.wait_idle(WAIT));
    for id in ids {
        assert_eq!(d.job_record(id).unwrap().status, JobStatus::Succeeded);
    }
    // Idle is the last `Done`; the counts below also want the `Request`
    // behind it in: every pilot parked again.
    let deadline = Instant::now() + WAIT;
    while d.metrics().workers_ready.get() < PILOTS as i64 {
        assert!(Instant::now() < deadline, "the pilots never all parked");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Before: per gang 21 thread spawns (`pmi-accept`, four `pmi-conn-*`,
/// four `rank-N`, four `mpi-accept-N`, eight `mpi-read`), five listener
/// binds, twelve TCP connections and eight PMI round trips per rank. Now a
/// steady-state gang starts no thread and binds nothing: its ranks run on
/// the pilots' runners, receive through the pilots' endpoints, and talk to
/// the one PMI service on the dispatcher's reactor — a wire-up and a
/// finalize each.
#[test]
fn a_steady_state_gang_adds_no_thread_twelve_connections_and_two_pmi_round_trips_a_rank() {
    let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
    // Round trips each rank had paid once wired up and through its barriers.
    let (ranks, wireup_trips) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let executors: Vec<Arc<Executor>> = (0..PILOTS)
        .map(|_| {
            let executor = Executor::new(standard_registry());
            let (ranks, wireup_trips) = (Arc::clone(&ranks), Arc::clone(&wireup_trips));
            executor
                .registry()
                .register("mpi-counted", move |ctx: &TaskContext| {
                    let Ok(mut job) = ctx.mpi() else { return 3 };
                    if job.comm.barrier().is_err() || job.comm.barrier().is_err() {
                        return 4;
                    }
                    ranks.fetch_add(1, Ordering::Relaxed);
                    wireup_trips.fetch_add(job.pmi_round_trips(), Ordering::Relaxed);
                    job.finalize().map_or(5, |()| 0)
                });
            Arc::new(executor)
        })
        .collect();
    let workers: Vec<Worker> = executors
        .iter()
        .enumerate()
        .map(|(i, executor)| {
            let config = WorkerConfig::new(d.addr().to_string(), format!("p{i}"));
            Worker::spawn(config, Arc::clone(executor) as _)
        })
        .collect();
    // Warm up until every pilot has hosted a rank: its runner thread and
    // its endpoint exist from then on.
    let accepted = || -> Vec<u64> {
        let of = |e: &Arc<Executor>| e.mpi_connections_accepted();
        executors.iter().map(of).collect()
    };
    for _ in 0..20 {
        run_gangs(&d, 4);
        if accepted().iter().all(|&n| n > 0) {
            break;
        }
    }
    assert!(
        accepted().iter().all(|&n| n > 0),
        "a pilot never ran a rank"
    );

    let stats = d.reactor_stats();
    let before = (
        thread_names(),
        stats.connections_registered(),
        accepted().iter().sum::<u64>(),
        stats.frames_in(),
        ranks.load(Ordering::Relaxed),
        wireup_trips.load(Ordering::Relaxed),
    );
    run_gangs(&d, GANGS);
    let after = thread_names();

    assert_eq!(after, before.0, "a gang left a thread behind, or took one");
    let expected = [("mpi-progress", PILOTS), ("task", PILOTS)];
    for (name, n) in expected {
        assert_eq!(after.iter().filter(|t| *t == name).count(), n, "{after:?}");
    }
    let spawned_per_gang = ["rank-", "pmi-", "mpi-accept", "mpi-read"];
    let stray = |t: &&String| spawned_per_gang.iter().any(|p| t.starts_with(p));
    assert_eq!(after.iter().find(stray), None);

    // Four rank → PMI connections on the dispatcher's reactor; the mesh is
    // what a four-rank dissemination barrier needs, two peers per rank.
    let pmi_conns = stats.connections_registered() - before.1;
    let mesh_conns = accepted().iter().sum::<u64>() - before.2;
    assert_eq!(pmi_conns, 4 * GANGS);
    // ...which are not worker or relay connections: that count is the
    // one the relay tier exists to shrink, and it has not moved.
    assert_eq!(d.connections_accepted(), PILOTS as u64);
    assert!(mesh_conns <= 8 * GANGS, "{mesh_conns} mesh connections");

    // A rank's PMI traffic is four lines — `init`, `put`, `fence` and,
    // after the task, `finalize` — and it waits for the service twice:
    // once for all of wire-up, once for the finalize. Beside them the
    // reactor sees each pilot's `Request` and `Done`.
    let hosted = ranks.load(Ordering::Relaxed) - before.4;
    assert_eq!(hosted, 4 * GANGS);
    assert_eq!(wireup_trips.load(Ordering::Relaxed) - before.5, hosted);
    assert_eq!(stats.frames_in() - before.3, (4 + 2) * hosted);

    d.shutdown();
    for worker in workers {
        worker.join();
    }
}
