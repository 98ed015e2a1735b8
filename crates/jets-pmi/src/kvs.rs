//! Per-job key-value space with fence (collective barrier) semantics.
//!
//! The KVS is the rendezvous mechanism of PMI: every rank `put`s its
//! *business card* (how peers can reach it), all ranks `fence`, and then
//! every rank can `get` every other rank's card. Real PMI-1 only guarantees
//! visibility of a put *after* the fence; we make puts immediately visible
//! (a strict superset of the guarantee) and implement the fence as a
//! generation-counted barrier so it can be reused any number of times.

use jets_ring::stdx::{wait_for, Mutex};
use std::collections::HashMap;
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// Outcome of waiting on a fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceResult {
    /// All participants arrived; the fence completed.
    Released,
    /// The job was aborted while waiting.
    Aborted,
    /// The wait timed out before all participants arrived.
    TimedOut,
}

#[derive(Default)]
struct KvsState {
    map: HashMap<String, String>,
    /// Number of participants currently waiting in the fence.
    fence_waiting: u32,
    /// Completed fence generations; waiting threads watch this advance.
    fence_generation: u64,
    aborted: Option<String>,
}

/// A shared, thread-safe key-value space for one PMI job.
///
/// Cloning is cheap (it is an `Arc` internally); all clones view the same
/// space.
#[derive(Clone)]
pub struct KeyValueSpace {
    inner: Arc<(Mutex<KvsState>, Condvar)>,
    participants: u32,
}

impl KeyValueSpace {
    /// Create a space fenced by `participants` ranks.
    ///
    /// # Panics
    /// Panics if `participants` is zero: a fence over zero ranks is
    /// meaningless and would release immediately forever.
    pub fn new(participants: u32) -> Self {
        assert!(participants > 0, "KVS needs at least one participant");
        KeyValueSpace {
            inner: Arc::new((Mutex::new(KvsState::default()), Condvar::new())),
            participants,
        }
    }

    /// Number of ranks that must arrive to release a fence.
    pub fn participants(&self) -> u32 {
        self.participants
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: &str, value: &str) {
        let mut st = self.inner.0.lock();
        st.map.insert(key.to_string(), value.to_string());
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<String> {
        self.inner.0.lock().map.get(key).cloned()
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.inner.0.lock().map.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enter the fence and block until all `participants` ranks have
    /// entered, the job aborts, or `timeout` elapses.
    pub fn fence(&self, timeout: Duration) -> FenceResult {
        let (lock, cvar) = &*self.inner;
        let mut st = lock.lock();
        if st.aborted.is_some() {
            return FenceResult::Aborted;
        }
        st.fence_waiting += 1;
        if st.fence_waiting == self.participants {
            // Last arrival releases everyone and starts a new generation.
            st.fence_waiting = 0;
            st.fence_generation += 1;
            cvar.notify_all();
            return FenceResult::Released;
        }
        let my_generation = st.fence_generation;
        loop {
            let timed_out;
            (st, timed_out) = wait_for(cvar, st, timeout);
            if timed_out {
                // Withdraw our arrival so a later retry is consistent.
                if st.fence_generation == my_generation && st.aborted.is_none() {
                    st.fence_waiting = st.fence_waiting.saturating_sub(1);
                    return FenceResult::TimedOut;
                }
            }
            if st.aborted.is_some() {
                return FenceResult::Aborted;
            }
            if st.fence_generation != my_generation {
                return FenceResult::Released;
            }
        }
    }

    /// Abort the job: all present and future fence waiters return
    /// [`FenceResult::Aborted`].
    pub fn abort(&self, reason: &str) {
        let (lock, cvar) = &*self.inner;
        let mut st = lock.lock();
        if st.aborted.is_none() {
            st.aborted = Some(reason.to_string());
        }
        cvar.notify_all();
    }

    /// The abort reason, if the job aborted.
    pub fn abort_reason(&self) -> Option<String> {
        self.inner.0.lock().aborted.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn put_get_round_trip() {
        let kvs = KeyValueSpace::new(1);
        kvs.put("bc.0", "127.0.0.1:5000");
        assert_eq!(kvs.get("bc.0").as_deref(), Some("127.0.0.1:5000"));
        assert_eq!(kvs.get("bc.1"), None);
    }

    #[test]
    fn put_overwrites() {
        let kvs = KeyValueSpace::new(1);
        kvs.put("k", "a");
        kvs.put("k", "b");
        assert_eq!(kvs.get("k").as_deref(), Some("b"));
        assert_eq!(kvs.len(), 1);
    }

    #[test]
    fn single_participant_fence_releases_immediately() {
        let kvs = KeyValueSpace::new(1);
        assert_eq!(kvs.fence(LONG), FenceResult::Released);
        assert_eq!(kvs.fence(LONG), FenceResult::Released);
    }

    #[test]
    fn fence_blocks_until_all_arrive() {
        let kvs = KeyValueSpace::new(4);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let k = kvs.clone();
            handles.push(thread::spawn(move || k.fence(LONG)));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), FenceResult::Released);
        }
    }

    #[test]
    fn fence_is_reusable_across_generations() {
        let kvs = KeyValueSpace::new(2);
        for _ in 0..3 {
            let k = kvs.clone();
            let h = thread::spawn(move || k.fence(LONG));
            assert_eq!(kvs.fence(LONG), FenceResult::Released);
            assert_eq!(h.join().unwrap(), FenceResult::Released);
        }
    }

    #[test]
    fn fence_times_out_when_peers_never_arrive() {
        let kvs = KeyValueSpace::new(2);
        assert_eq!(kvs.fence(Duration::from_millis(20)), FenceResult::TimedOut);
        // After the timeout the withdrawn arrival must not poison a later
        // successful fence.
        let k = kvs.clone();
        let h = thread::spawn(move || k.fence(LONG));
        assert_eq!(kvs.fence(LONG), FenceResult::Released);
        assert_eq!(h.join().unwrap(), FenceResult::Released);
    }

    #[test]
    fn abort_wakes_fence_waiters() {
        let kvs = KeyValueSpace::new(2);
        let k = kvs.clone();
        let h = thread::spawn(move || k.fence(LONG));
        // Give the waiter time to park.
        thread::sleep(Duration::from_millis(10));
        kvs.abort("injected failure");
        assert_eq!(h.join().unwrap(), FenceResult::Aborted);
        assert_eq!(kvs.abort_reason().as_deref(), Some("injected failure"));
    }

    #[test]
    fn fence_after_abort_returns_aborted() {
        let kvs = KeyValueSpace::new(3);
        kvs.abort("dead");
        assert_eq!(kvs.fence(LONG), FenceResult::Aborted);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = KeyValueSpace::new(0);
    }
}
