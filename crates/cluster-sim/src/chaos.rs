//! Deterministic chaos: a seeded fault plan replayed against an allocation.
//!
//! A **plan** is a timed sequence of fault events (kill / partition /
//! calm tick) generated *up front* from a seed, so a failing test run
//! replays exactly by reusing the seed, and the mix of fault types is a
//! declared knob instead of an accident of timing. The paper's Fig. 10
//! experiment — "a fault injection script ... terminated randomly
//! selected pilot jobs, one at a time, at regular 10-s intervals"
//! (Section 6.1.5) — is the kill-only plan:
//! `FaultPlan::seeded(seed, n, interval, FaultMix { kill: 1, partition: 0,
//! calm: 0, max_kills: n })`.
//!
//! Two fault flavours map onto the two worker-agent primitives:
//!
//! * **Kill** — `Worker::kill`: the pilot dies for good (the paper's
//!   Fig. 10 fault).
//! * **Partition** — `Worker::disconnect`: the socket drops but the agent
//!   lives; with a reconnect policy it re-registers after backoff, which
//!   exercises the dispatcher's gang cancellation, quarantine, and
//!   re-admission paths.

use crate::allocation::Allocation;
use jets_ring::stdx::SplitMix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill a randomly chosen live worker permanently.
    Kill,
    /// Sever a randomly chosen live worker's connection; a reconnecting
    /// agent comes back.
    Partition,
    /// A calm tick: inject nothing.
    Calm,
    /// Kill the dispatcher abruptly — no goodbyes, journal left where
    /// it lies — via [`DispatcherHooks::kill`]. Fires only on injectors
    /// started with [`ChaosInjector::start_with_dispatcher`]; seeded
    /// plans never draw it (dispatcher faults are scripted, not rolled).
    KillDispatcher,
    /// Bring the dispatcher back (typically restarting from its
    /// journal) via [`DispatcherHooks::restart`].
    RestartDispatcher,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Offset from injector start.
    pub at: Duration,
    /// What to do.
    pub action: FaultAction,
    /// Deterministic victim selector: the live worker at index
    /// `roll % live.len()` is hit.
    pub roll: u64,
}

/// Relative weights of the fault flavours in a seeded plan.
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Weight of permanent kills.
    pub kill: u32,
    /// Weight of partitions.
    pub partition: u32,
    /// Weight of calm ticks.
    pub calm: u32,
    /// Hard cap on kills in one plan (excess kill draws become
    /// partitions), so a long plan cannot exhaust the allocation.
    pub max_kills: u32,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            kill: 1,
            partition: 6,
            calm: 1,
            max_kills: 2,
        }
    }
}

/// A precomputed, replayable schedule of fault events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The events, in firing order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generate a `ticks`-event plan, one event per `interval`, from a
    /// deterministic RNG seeded with `seed`. The same seed always yields
    /// the same plan.
    pub fn seeded(seed: u64, ticks: u32, interval: Duration, mix: FaultMix) -> FaultPlan {
        let total = mix.kill + mix.partition + mix.calm;
        assert!(total > 0, "fault mix must have nonzero weight");
        let mut rng = SplitMix64::new(seed);
        let mut kills = 0u32;
        let mut events = Vec::with_capacity(ticks as usize);
        for t in 0..ticks {
            let w = rng.gen_range(0..u64::from(total)) as u32;
            let mut action = if w < mix.kill {
                FaultAction::Kill
            } else if w < mix.kill + mix.partition {
                FaultAction::Partition
            } else {
                FaultAction::Calm
            };
            if action == FaultAction::Kill {
                if kills >= mix.max_kills {
                    action = FaultAction::Partition;
                } else {
                    kills += 1;
                }
            }
            events.push(FaultEvent {
                at: interval * (t + 1),
                action,
                roll: rng.next_u64(),
            });
        }
        FaultPlan { events }
    }

    /// A plan from an explicit event list (sorted by firing time).
    /// This is how dispatcher faults enter a plan: a crash-recovery
    /// test scripts `KillDispatcher` / `RestartDispatcher` at chosen
    /// offsets, optionally splicing them into a seeded worker-fault
    /// storm.
    pub fn scripted(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }
}

/// Recorded target index for dispatcher-scoped faults (there is no
/// worker victim to name).
pub const DISPATCHER_TARGET: usize = usize::MAX;

/// Callbacks the chaos thread fires for dispatcher-scoped faults.
///
/// Worker faults act on the [`Allocation`] handle the injector holds;
/// the dispatcher belongs to the test harness, so killing and
/// restarting it are delegated to these hooks — typically closures over
/// the harness's dispatcher slot and its journal path.
pub struct DispatcherHooks {
    /// Fired on [`FaultAction::KillDispatcher`].
    pub kill: Box<dyn FnMut() + Send>,
    /// Fired on [`FaultAction::RestartDispatcher`].
    pub restart: Box<dyn FnMut() + Send>,
}

/// A running chaos injector replaying a [`FaultPlan`].
pub struct ChaosInjector {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<(FaultAction, usize)>>>,
}

impl ChaosInjector {
    /// Start replaying `plan` against `allocation` on a background
    /// thread. Event times are measured from this call. Dispatcher
    /// faults in the plan are skipped (no hooks); use
    /// [`ChaosInjector::start_with_dispatcher`] to honour them.
    pub fn start(allocation: Arc<Allocation>, plan: FaultPlan) -> ChaosInjector {
        Self::launch(allocation, plan, None)
    }

    /// Start replaying `plan`, with dispatcher-scoped faults delegated
    /// to `hooks`. Dispatcher faults record
    /// [`DISPATCHER_TARGET`] as their applied index.
    pub fn start_with_dispatcher(
        allocation: Arc<Allocation>,
        plan: FaultPlan,
        hooks: DispatcherHooks,
    ) -> ChaosInjector {
        Self::launch(allocation, plan, Some(hooks))
    }

    fn launch(
        allocation: Arc<Allocation>,
        plan: FaultPlan,
        mut hooks: Option<DispatcherHooks>,
    ) -> ChaosInjector {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("chaos-injector".to_string())
            .spawn(move || {
                let epoch = Instant::now();
                let mut applied = Vec::new();
                for ev in plan.events {
                    loop {
                        if stop2.load(Ordering::Acquire) {
                            return applied;
                        }
                        let now = epoch.elapsed();
                        if now >= ev.at {
                            break;
                        }
                        thread::sleep((ev.at - now).min(Duration::from_millis(10)));
                    }
                    let roll = ev.roll as usize;
                    let hit = match ev.action {
                        FaultAction::Kill => allocation.kill_one_of(|live| live[roll % live.len()]),
                        FaultAction::Partition => {
                            allocation.partition_one_of(|live| live[roll % live.len()])
                        }
                        FaultAction::Calm => None,
                        FaultAction::KillDispatcher => hooks.as_mut().map(|h| {
                            (h.kill)();
                            DISPATCHER_TARGET
                        }),
                        FaultAction::RestartDispatcher => hooks.as_mut().map(|h| {
                            (h.restart)();
                            DISPATCHER_TARGET
                        }),
                    };
                    if let Some(idx) = hit {
                        applied.push((ev.action, idx));
                    }
                }
                applied
            })
            .expect("spawn chaos injector");
        ChaosInjector {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop early and return the faults applied so far, in order.
    pub fn stop(mut self) -> Vec<(FaultAction, usize)> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .expect("stop called once")
            .join()
            .unwrap_or_default()
    }

    /// Wait until the whole plan has been replayed; returns the faults
    /// applied, in order.
    pub fn join(mut self) -> Vec<(FaultAction, usize)> {
        self.handle
            .take()
            .expect("join called once")
            .join()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationConfig;
    use jets_core::{Dispatcher, DispatcherConfig};

    /// `n` pilots that stay live against a dispatcher with no jobs: each
    /// sits idle until a fault kills it.
    fn idle_allocation(n: u32) -> (Dispatcher, Arc<Allocation>) {
        let d = Dispatcher::start(DispatcherConfig::default()).expect("dispatcher");
        let alloc = Arc::new(Allocation::start(
            &d.addr().to_string(),
            AllocationConfig::new(n),
            Arc::new(jets_worker::Executor::default()),
        ));
        (d, alloc)
    }

    /// The paper's Fig. 10 script: `n` kills, one per `interval`.
    fn kills(n: u32, interval: Duration) -> FaultPlan {
        let mix = FaultMix {
            kill: 1,
            partition: 0,
            calm: 0,
            max_kills: n,
        };
        FaultPlan::seeded(42, n, interval, mix)
    }

    fn wait_live(alloc: &Allocation, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while alloc.live_count() != n {
            assert!(
                Instant::now() < deadline,
                "{} live, want {n}",
                alloc.live_count()
            );
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn injector_kills_everyone_eventually() {
        let (_dispatcher, alloc) = idle_allocation(5);
        let plan = kills(5, Duration::from_millis(100));
        let applied = ChaosInjector::start(Arc::clone(&alloc), plan).join();
        let mut killed: Vec<usize> = applied
            .iter()
            .map(|&(action, idx)| {
                assert_eq!(action, FaultAction::Kill);
                idx
            })
            .collect();
        killed.sort_unstable();
        assert_eq!(killed, vec![0, 1, 2, 3, 4], "distinct live workers");
        wait_live(&alloc, 0);
        alloc.join_all();
    }

    #[test]
    fn injector_stops_on_request() {
        let (_dispatcher, alloc) = idle_allocation(4);
        // One kill now, the rest an hour away: `stop` must not wait them out.
        let mut plan = kills(4, Duration::from_secs(3600));
        plan.events[0].at = Duration::ZERO;
        let injector = ChaosInjector::start(Arc::clone(&alloc), plan);
        wait_live(&alloc, 3);
        let applied = injector.stop();
        assert_eq!(applied.len(), 1, "applied: {applied:?}");
        assert_eq!(alloc.live_count(), 3);
        for i in 0..4 {
            alloc.kill(i);
        }
        alloc.join_all();
    }

    #[test]
    fn same_seed_same_plan() {
        let mix = FaultMix::default();
        let a = FaultPlan::seeded(42, 50, Duration::from_millis(10), mix);
        let b = FaultPlan::seeded(42, 50, Duration::from_millis(10), mix);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 50, Duration::from_millis(10), mix);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn kill_cap_is_respected() {
        let mix = FaultMix {
            kill: 10,
            partition: 1,
            calm: 1,
            max_kills: 2,
        };
        let plan = FaultPlan::seeded(7, 200, Duration::from_millis(1), mix);
        let kills = plan
            .events
            .iter()
            .filter(|e| e.action == FaultAction::Kill)
            .count();
        assert_eq!(kills, 2, "kill-heavy mix must still respect the cap");
    }

    #[test]
    fn scripted_dispatcher_faults_fire_hooks_in_order() {
        use std::sync::atomic::AtomicU32;
        // No live workers needed: the plan touches only the dispatcher.
        let d = jets_core::Dispatcher::start(jets_core::DispatcherConfig::default()).unwrap();
        let alloc = Arc::new(crate::allocation::Allocation::start(
            &d.addr().to_string(),
            crate::allocation::AllocationConfig::new(0),
            Arc::new(jets_worker::Executor::new(
                jets_worker::apps::standard_registry(),
            )),
        ));
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at: Duration::from_millis(30),
                action: FaultAction::RestartDispatcher,
                roll: 0,
            },
            FaultEvent {
                at: Duration::from_millis(10),
                action: FaultAction::KillDispatcher,
                roll: 0,
            },
        ]);
        // scripted() sorts by firing time: kill precedes restart.
        assert_eq!(plan.events[0].action, FaultAction::KillDispatcher);
        let seq = Arc::new(AtomicU32::new(0));
        let (ks, rs) = (Arc::clone(&seq), Arc::clone(&seq));
        let kill_at = Arc::new(AtomicU32::new(0));
        let restart_at = Arc::new(AtomicU32::new(0));
        let (ka, ra) = (Arc::clone(&kill_at), Arc::clone(&restart_at));
        let hooks = DispatcherHooks {
            kill: Box::new(move || {
                ka.store(ks.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            }),
            restart: Box::new(move || {
                ra.store(rs.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            }),
        };
        let applied = ChaosInjector::start_with_dispatcher(alloc, plan, hooks).join();
        assert_eq!(
            applied,
            vec![
                (FaultAction::KillDispatcher, DISPATCHER_TARGET),
                (FaultAction::RestartDispatcher, DISPATCHER_TARGET),
            ]
        );
        assert_eq!(kill_at.load(Ordering::SeqCst), 1, "kill fired first");
        assert_eq!(restart_at.load(Ordering::SeqCst), 2, "restart fired second");
        d.shutdown();
    }

    #[test]
    fn events_are_time_ordered() {
        let plan = FaultPlan::seeded(1, 20, Duration::from_millis(5), FaultMix::default());
        assert_eq!(plan.events.len(), 20);
        for pair in plan.events.windows(2) {
            assert!(pair[0].at < pair[1].at);
        }
    }
}
