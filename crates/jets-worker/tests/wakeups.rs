//! Thread wake-ups a pilot pays per task, counted by the kernel. One
//! test in its own binary: the threads are told apart by name, and no
//! other pilot may share the process.

use jets_core::spec::{CommandSpec, JobSpec};
use jets_core::{Dispatcher, DispatcherConfig};
use jets_worker::apps::standard_registry;
use jets_worker::{Executor, Worker, WorkerConfig};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

/// `(name, voluntary context switches)` of every live pilot thread: the
/// first thread (`worker-*`), its partner (`task`), a heartbeat (`hb-*`),
/// and the per-session reader (`rx-*`) the agent used to have.
fn pilot_threads() -> Vec<(String, u64)> {
    let mut threads = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = entry.unwrap().path();
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let name = comm.trim().to_string();
        let of_pilot = ["worker-", "hb-", "rx-"]
            .iter()
            .any(|p| name.starts_with(p));
        if of_pilot || name == "task" {
            let switches = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .expect("a voluntary_ctxt_switches line");
            threads.push((name, switches.trim().parse().unwrap()));
        }
    }
    threads
}

fn run_noops(d: &Dispatcher, n: usize) {
    d.submit_all((0..n).map(|_| JobSpec::sequential(CommandSpec::builtin("noop", vec![]))));
    assert!(d.wait_idle(WAIT));
}

/// Socket → the thread that reads the `Assign`, runs it and writes
/// `Done` + `Request` → socket: one thread goes to sleep once per task.
/// The other waits on the socket only while a task runs, and no frame
/// arrives then, so it never wakes. It was 2.0 with an agent handing each
/// task to a runner over a channel, and 4.4 with a reader thread in front
/// of the agent and the runner's result going back through it.
#[test]
fn a_task_costs_the_pilot_one_wakeup_and_two_threads() {
    const TASKS: usize = 2000;
    let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let w = Worker::spawn(
        WorkerConfig::new(d.addr().to_string(), "census"),
        Arc::new(Executor::new(standard_registry())),
    );
    // The first task starts the second thread.
    run_noops(&d, 1);
    let before = pilot_threads();
    run_noops(&d, TASKS);
    let after = pilot_threads();

    let mut names: Vec<&str> = after.iter().map(|(name, _)| name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, ["task", "worker-census"]);
    let total = |threads: &[(String, u64)]| threads.iter().map(|(_, n)| n).sum::<u64>();
    let per_task = (total(&after) - total(&before)) as f64 / TASKS as f64;
    eprintln!("{per_task:.3} voluntary context switches per task");
    assert!(
        per_task <= 1.5,
        "{per_task:.2} voluntary context switches per task: {before:?} -> {after:?}"
    );
    d.shutdown();
    w.join();
}
