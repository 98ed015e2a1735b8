//! The Coasters "multiple-job-size spectrum" allocator — §7 future work.
//!
//! Paper, Section 7: "We plan to add the 'multiple-job-size spectrum'
//! allocator of the Coasters mechanism to JETS to enable it to request
//! resources from the underlying system scheduler in a 'spectrum' of
//! various node counts, to enable it to obtain resources quickly in the
//! face of unknown queue compositions and system load conditions."
//!
//! The insight: one monolithic N-node request waits for N nodes to free
//! up at once; a spectrum of blocks (say N/2 + N/4 + N/8 + …) lets the
//! small blocks start immediately while the big ones queue, so useful
//! work begins far sooner. [`SpectrumAllocator`] models the underlying
//! system scheduler's queue with a configurable wait model (bigger
//! requests wait longer) and boots each granted block as an
//! [`Allocation`] against the dispatcher.

use crate::allocation::{Allocation, AllocationConfig};
use jets_worker::TaskExecutor;
use std::sync::Arc;
use std::time::Duration;

/// How long the (modelled) system scheduler queues a block request of a
/// given size before granting it.
pub type QueueWaitModel = Arc<dyn Fn(u32) -> Duration + Send + Sync>;

/// A queue-wait model linear in the request size: `base + per_node × n`.
/// The shape the paper's motivation assumes — big requests wait longer.
pub fn linear_wait(base: Duration, per_node: Duration) -> QueueWaitModel {
    Arc::new(move |nodes| base + per_node * nodes)
}

/// Split `total` into a halving spectrum of block sizes:
/// `total/2, total/4, …` with a final block absorbing the remainder, and
/// no block smaller than `min_block`.
pub fn halving_spectrum(total: u32, min_block: u32) -> Vec<u32> {
    assert!(total > 0 && min_block > 0, "sizes must be positive");
    let mut blocks = Vec::new();
    let mut remaining = total;
    let mut next = (total / 2).max(min_block);
    while remaining > 0 {
        let mut block = next.min(remaining);
        // A sub-minimum tail would be a useless queue request; fold it
        // into this block instead.
        let tail = remaining - block;
        if tail > 0 && tail < min_block {
            block = remaining;
        }
        blocks.push(block.max(1));
        remaining -= block;
        next = (next / 2).max(min_block);
    }
    blocks
}

/// A set of allocation blocks granted (after modelled queue waits)
/// against one dispatcher.
pub struct SpectrumAllocator {
    blocks: Vec<Arc<Allocation>>,
    sizes: Vec<u32>,
}

impl SpectrumAllocator {
    /// Request `blocks` of nodes from the modelled system scheduler. Each
    /// block's workers boot `wait_model(block_size)` after the request —
    /// staggered inside the workers themselves, so this returns
    /// immediately (exactly like real pilot jobs clearing a queue).
    pub fn start(
        dispatcher_addr: &str,
        blocks: &[u32],
        wait_model: QueueWaitModel,
        executor: Arc<dyn TaskExecutor>,
    ) -> SpectrumAllocator {
        assert!(!blocks.is_empty(), "need at least one block");
        let mut allocations = Vec::with_capacity(blocks.len());
        for &size in blocks {
            let delay = wait_model(size);
            // All workers of a block arrive together once the block
            // clears the queue (the wait itself is a uniform connect
            // delay inside the workers).
            let config = AllocationConfig::new(size).with_locations(vec![format!("block-{size}")]);
            let alloc = Allocation::start_delayed(dispatcher_addr, config, executor.clone(), delay);
            allocations.push(Arc::new(alloc));
        }
        SpectrumAllocator {
            blocks: allocations,
            sizes: blocks.to_vec(),
        }
    }

    /// Total nodes across all blocks.
    pub fn total_nodes(&self) -> u32 {
        self.sizes.iter().sum()
    }

    /// Block sizes, in request order.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Live workers right now (blocks still queued contribute none).
    pub fn live_count(&self) -> usize {
        self.blocks.iter().map(|b| b.live_count()).sum()
    }

    /// Join every block's workers.
    pub fn join_all(&self) {
        for b in &self.blocks {
            b.join_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::science_registry;
    use jets_core::spec::{CommandSpec, JobSpec};
    use jets_core::{Dispatcher, DispatcherConfig};
    use jets_worker::Executor;

    #[test]
    fn halving_spectrum_covers_total() {
        for (total, min_block) in [(64u32, 4u32), (100, 8), (7, 2), (1, 1), (512, 16)] {
            let blocks = halving_spectrum(total, min_block);
            assert_eq!(blocks.iter().sum::<u32>(), total, "{blocks:?}");
            assert!(
                blocks.iter().all(|&b| b >= min_block.min(total)),
                "{blocks:?}"
            );
            // The first block is the largest (it anchors the spectrum).
            assert!(blocks.iter().all(|&b| b <= blocks[0]), "{blocks:?}");
        }
    }

    #[test]
    fn linear_wait_scales_with_size() {
        let model = linear_wait(Duration::from_millis(10), Duration::from_millis(2));
        assert_eq!(model(0), Duration::from_millis(10));
        assert_eq!(model(32), Duration::from_millis(74));
    }

    #[test]
    fn spectrum_blocks_arrive_small_first() {
        let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let executor: Arc<dyn jets_worker::TaskExecutor> =
            Arc::new(Executor::new(science_registry()));
        // 3 blocks: 8, 4, 2 nodes; waits 300/150/50 ms.
        let model = linear_wait(Duration::from_millis(10), Duration::from_millis(36));
        let spectrum =
            SpectrumAllocator::start(&dispatcher.addr().to_string(), &[8, 4, 2], model, executor);
        assert_eq!(spectrum.total_nodes(), 14);
        // The 2-node block clears the queue first.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while dispatcher.alive_workers() < 2 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            dispatcher.alive_workers() < 14,
            "large blocks must still be queued when the small one lands"
        );
        // Work can start on the early block immediately.
        let id = dispatcher.submit(JobSpec::mpi(
            2,
            CommandSpec::builtin("mpi-sleep", vec!["5".into()]),
        ));
        assert!(dispatcher.wait_job(id, Duration::from_secs(30)).is_some());
        // Eventually everyone arrives.
        while dispatcher.alive_workers() < 14 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        dispatcher.shutdown();
        spectrum.join_all();
    }
}
