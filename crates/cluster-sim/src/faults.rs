//! Fault injection: the paper's faulty-allocation experiment.
//!
//! "A fault injection script was run on the submit site that terminated
//! randomly selected pilot jobs, one at a time, at regular 10-s
//! intervals" (Section 6.1.5). [`FaultInjector`] is that script: given an
//! [`Allocation`], it kills one uniformly-chosen live worker per tick
//! until stopped or the allocation is empty.

use crate::allocation::Allocation;
use jets_ring::stdx::SplitMix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A running fault injector.
pub struct FaultInjector {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<usize>>>,
}

impl FaultInjector {
    /// Start killing one random live worker of `allocation` every
    /// `interval`, using a deterministic RNG seeded with `seed`.
    pub fn start(allocation: Arc<Allocation>, interval: Duration, seed: u64) -> FaultInjector {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("fault-injector".to_string())
            .spawn(move || {
                let mut rng = SplitMix64::new(seed);
                let mut killed = Vec::new();
                loop {
                    thread::sleep(interval);
                    if stop2.load(Ordering::Acquire) {
                        return killed;
                    }
                    match allocation
                        .kill_one_of(|live| live[rng.gen_range(0..live.len() as u64) as usize])
                    {
                        Some(idx) => killed.push(idx),
                        None => return killed, // everyone is dead
                    }
                }
            })
            .expect("spawn fault injector");
        FaultInjector {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop injecting and return the indices killed, in order.
    pub fn stop(mut self) -> Vec<usize> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .expect("stop called once")
            .join()
            .unwrap_or_default()
    }

    /// Wait until the injector exhausts the allocation, returning the
    /// kill order.
    pub fn join(mut self) -> Vec<usize> {
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
    use jets_worker::apps::standard_registry;
    use jets_worker::Executor;

    #[test]
    fn injector_kills_everyone_eventually() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let alloc = Arc::new(Allocation::start(
            &d.addr().to_string(),
            AllocationConfig::new(5),
            Arc::new(Executor::new(standard_registry())),
        ));
        // Wait for boot.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while d.alive_workers() < 5 {
            assert!(std::time::Instant::now() < deadline);
            thread::sleep(Duration::from_millis(10));
        }
        let injector = FaultInjector::start(Arc::clone(&alloc), Duration::from_millis(20), 42);
        let killed = injector.join();
        assert_eq!(killed.len(), 5);
        // All distinct indices.
        let mut sorted = killed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert_eq!(alloc.live_count(), 0);
        alloc.join_all();
    }

    #[test]
    fn injector_stops_on_request() {
        let d = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let alloc = Arc::new(Allocation::start(
            &d.addr().to_string(),
            AllocationConfig::new(4),
            Arc::new(Executor::new(standard_registry())),
        ));
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while d.alive_workers() < 4 {
            assert!(std::time::Instant::now() < deadline);
            thread::sleep(Duration::from_millis(10));
        }
        let injector = FaultInjector::start(Arc::clone(&alloc), Duration::from_millis(30), 7);
        thread::sleep(Duration::from_millis(100));
        let killed = injector.stop();
        assert!(!killed.is_empty() && killed.len() < 4, "killed: {killed:?}");
        assert!(alloc.live_count() >= 1);
        d.shutdown();
        alloc.join_all();
    }
}
