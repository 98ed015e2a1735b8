//! The end-to-end smoke of the relay tier: 16 workers behind 2 relays run
//! a multi-gang batch to completion while the dispatcher observes exactly
//! 2 inbound connections, and killing one relay mid-run still converges
//! on the surviving block. What a relay *decides* (local gang
//! cancellation, batched liveness, replay across an outage) is checked
//! without sockets or sleeps in `crates/jets-relay/tests/relay_model.rs`
//! and the seeded world it runs, `cluster_sim::des`.

use jets::core::spec::{CommandSpec, JobSpec};
use jets::core::{Dispatcher, DispatcherConfig, EventKind, JobStatus};
use jets::sim::{science_registry, RelayedAllocation, RelayedAllocationConfig};
use jets::worker::{Executor, TaskExecutor};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn executor() -> Arc<dyn TaskExecutor> {
    Arc::new(Executor::new(science_registry()))
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// 16 workers / 2 relays / 2 dispatcher connections; a mixed batch of
/// sequential jobs and MPI gangs converges even when one relay is
/// killed mid-run.
#[test]
fn two_relay_topology_survives_relay_death() {
    let dispatcher = Dispatcher::start(DispatcherConfig {
        heartbeat_timeout: Some(Duration::from_secs(2)),
        monitor_tick: Duration::from_millis(10),
        ..DispatcherConfig::default()
    })
    .unwrap();
    let topo = RelayedAllocation::start(
        &dispatcher.addr().to_string(),
        RelayedAllocationConfig::new(2, 8)
            .with_heartbeat(Duration::from_millis(50))
            .with_liveness_flush(Duration::from_millis(50)),
        executor(),
    )
    .unwrap();
    wait_until("16 relayed workers", || dispatcher.alive_workers() == 16);

    // The dispatcher fronts 16 workers over exactly 2 sockets.
    assert_eq!(dispatcher.connections_accepted(), 2);
    assert_eq!(dispatcher.relay_count(), 2);
    assert_eq!(topo.total_nodes(), 16);

    // Multi-gang batch: sequential filler plus 2- and 4-wide gangs. The
    // retry budget absorbs every task lost with the killed block (the
    // widest gang still fits the surviving 8-node block).
    let specs: Vec<JobSpec> = (0..60)
        .map(|i| {
            let spec = match i % 6 {
                4 => JobSpec::mpi(2, CommandSpec::builtin("mpi-sleep", vec!["20".into()])),
                5 => JobSpec::mpi(4, CommandSpec::builtin("mpi-sleep", vec!["20".into()])),
                _ => JobSpec::sequential(CommandSpec::builtin("sleep", vec!["20".into()])),
            };
            spec.with_retries(40)
        })
        .collect();
    let ids = dispatcher.submit_all(specs);

    // Let the batch make real progress through both relays, then kill
    // one block's relay abruptly mid-run.
    wait_until("first third of the batch", || {
        ids.iter()
            .filter(|id| {
                dispatcher
                    .job_record(**id)
                    .is_some_and(|r| r.status == JobStatus::Succeeded)
            })
            .count()
            >= 20
    });
    assert!(topo.kill_relay(0));
    wait_until("killed block declared down", || {
        dispatcher.alive_workers() == 8
    });

    assert!(dispatcher.wait_idle(WAIT), "batch never converged");
    for id in &ids {
        let rec = dispatcher.job_record(*id).unwrap();
        assert_eq!(
            rec.status,
            JobStatus::Succeeded,
            "job {id} ended {:?} after {} attempts",
            rec.status,
            rec.attempts
        );
    }

    // The event log saw both relays come up and the killed one go down.
    let events = dispatcher.events().snapshot();
    let relay_ups = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RelayUp { .. }))
        .count();
    let relay_downs = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RelayDown { .. }))
        .count();
    assert_eq!(relay_ups, 2, "expected exactly two relay registrations");
    assert!(relay_downs >= 1, "relay death never recorded");

    dispatcher.shutdown();
    topo.join_all();
}
