//! Seeded chaos harness: ~200 short gangs under a deterministic fault
//! plan of kills and partitions.
//!
//! The run is replayable: the fault plan is generated up front from a
//! fixed seed, and two hand-placed events (one partition, one kill) are
//! appended so the reconnect and permanent-death paths are exercised on
//! every run regardless of what the seeded draw produces. The assertions
//! are the PR's acceptance criteria: every job reaches `Succeeded`
//! within its retry budget, reconnecting workers re-register (more
//! `WorkerUp` events than nodes), and no task outlives the job deadline
//! by more than the cancellation slack.

use jets::core::registry::QuarantinePolicy;
use jets::core::spec::{CommandSpec, JobSpec};
use jets::core::{Dispatcher, DispatcherConfig, EventKind, JobStatus};
use jets::sim::{
    science_registry, Allocation, AllocationConfig, ChaosInjector, FaultAction, FaultEvent,
    FaultMix, FaultPlan,
};
use jets::worker::{Executor, ReconnectPolicy};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xC0FFEE;
const NODES: u32 = 8;
const WAIT: Duration = Duration::from_secs(120);
const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn seeded_chaos_run_converges() {
    let dispatcher = Dispatcher::start(DispatcherConfig {
        heartbeat_timeout: Some(Duration::from_secs(2)),
        quarantine: Some(QuarantinePolicy {
            threshold: 1,
            penalty: Duration::from_millis(100),
            decay: Duration::from_secs(60),
            max_penalty: Duration::from_secs(1),
        }),
        monitor_tick: Duration::from_millis(10),
        ..DispatcherConfig::default()
    })
    .unwrap();
    let mut alloc_config = AllocationConfig::new(NODES).with_reconnect(ReconnectPolicy::default());
    alloc_config.heartbeat = Some(Duration::from_millis(100));
    let allocation = Arc::new(Allocation::start(
        &dispatcher.addr().to_string(),
        alloc_config,
        Arc::new(Executor::new(science_registry())),
    ));
    while dispatcher.alive_workers() < NODES as usize {
        std::thread::sleep(Duration::from_millis(5));
    }

    // ~200 short gangs: 4 sequential tasks then 1 two-node MPI job,
    // repeated. Retry budgets are generous; the assertion is that the
    // budget *suffices*, not that it is barely grazed.
    let specs: Vec<JobSpec> = (0..200)
        .map(|i| {
            let spec = if i % 5 == 4 {
                JobSpec::mpi(2, CommandSpec::builtin("mpi-sleep", vec!["20".into()]))
            } else {
                JobSpec::sequential(CommandSpec::builtin("sleep", vec!["30".into()]))
            };
            spec.with_retries(40).with_deadline(DEADLINE)
        })
        .collect();
    let ids = dispatcher.submit_all(specs);
    assert_eq!(ids.len(), 200);

    // Mostly partitions, at most 2 seeded kills — the pool can never
    // drop below 5 of 8 nodes, so 2-wide MPI gangs always stay
    // placeable. Two hand-placed events after the seeded window make
    // the reconnect and kill paths deterministic whatever the draw.
    let mut plan = FaultPlan::seeded(
        SEED,
        24,
        Duration::from_millis(100),
        FaultMix {
            kill: 1,
            partition: 6,
            calm: 1,
            max_kills: 2,
        },
    );
    plan.events.push(FaultEvent {
        at: Duration::from_millis(2500),
        action: FaultAction::Partition,
        roll: 3,
    });
    plan.events.push(FaultEvent {
        at: Duration::from_millis(2600),
        action: FaultAction::Kill,
        roll: 5,
    });
    let injector = ChaosInjector::start(Arc::clone(&allocation), plan);
    let faults = injector.join();
    assert!(
        faults.iter().any(|(a, _)| *a == FaultAction::Partition),
        "plan must partition at least one live worker"
    );
    let kills = faults
        .iter()
        .filter(|(a, _)| *a == FaultAction::Kill)
        .count();
    assert!(kills <= 3, "kill cap breached: {kills}");

    assert!(dispatcher.wait_idle(WAIT), "chaos run wedged");
    assert_eq!(dispatcher.outstanding(), 0);

    // Every job succeeded within its retry budget.
    for id in &ids {
        let rec = dispatcher.job_record(*id).unwrap();
        assert_eq!(
            rec.status,
            JobStatus::Succeeded,
            "job {id} ended {:?} after {} attempts",
            rec.status,
            rec.attempts
        );
        assert!(
            rec.attempts <= 41,
            "job {id} used {} attempts",
            rec.attempts
        );
    }

    let events = dispatcher.events().snapshot();

    // Partitioned agents reconnected and re-registered: strictly more
    // registrations than the allocation has nodes.
    let ups = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerUp { .. }))
        .count();
    assert!(ups > NODES as usize, "no reconnects observed ({ups} ups)");

    // The metrics surface agrees with the event log: every registration
    // beyond the allocation size was a pilot coming back under a known
    // name, every job reached exactly one terminal completion, and each
    // got a phase breakdown.
    let m = dispatcher.metrics();
    assert_eq!(m.reconnects_total.get(), (ups - NODES as usize) as u64);
    assert_eq!(m.jobs_completed_total.get(), ids.len() as u64);
    assert_eq!(m.jobs_failed_total.get(), 0);
    assert_eq!(m.phase_total.count(), ids.len() as u64);

    // No task outlived its job's deadline by more than the cancel slack
    // (monitor tick + executor grace, padded generously).
    let slack = Duration::from_secs(2);
    let mut started: HashMap<u64, Duration> = HashMap::new();
    for e in &events {
        match e.kind {
            EventKind::TaskStarted { task, .. } => {
                started.insert(task, e.t);
            }
            EventKind::TaskEnded { task, .. } => {
                if let Some(t0) = started.remove(&task) {
                    let ran = e.t.saturating_sub(t0);
                    assert!(
                        ran <= DEADLINE + slack,
                        "task {task} ran {ran:?}, past deadline {DEADLINE:?} + slack"
                    );
                }
            }
            _ => {}
        }
    }
    assert!(started.is_empty(), "tasks with no end event: {started:?}");

    // Attempt accounting reconciles: one JobCompleted per launch
    // attempt, no double finish from monitor/reader races.
    let mut completions: HashMap<u64, u32> = HashMap::new();
    for e in &events {
        if let EventKind::JobCompleted { job, .. } = e.kind {
            *completions.entry(job).or_default() += 1;
        }
    }
    for id in &ids {
        let rec = dispatcher.job_record(*id).unwrap();
        assert_eq!(
            completions.get(id).copied().unwrap_or(0),
            rec.attempts,
            "job {id}: completions != attempts"
        );
    }

    dispatcher.shutdown();
    allocation.join_all();
}
