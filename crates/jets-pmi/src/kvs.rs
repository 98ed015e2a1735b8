//! Per-job key-value space with fence (collective barrier) semantics.
//!
//! The KVS is the rendezvous mechanism of PMI: every rank `put`s its
//! *business card* (how peers can reach it), all ranks `fence`, and then
//! every rank can `get` every other rank's card. Real PMI-1 only guarantees
//! visibility of a put *after* the fence; a put here is visible at once (a
//! strict superset). The fence is a generation-counted barrier that never
//! blocks: an arrival either waits (the caller parks the connection) or
//! releases everyone parked, handing back who they are and what the
//! generation committed. Bounded, plain data: [`crate::PmiService`] owns
//! one per job, and times fences out by deadline and [`KeyValueSpace::abort`].

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use std::collections::BTreeMap;

/// Longest key or value a rank may `put`, in bytes.
pub const MAX_VALUE: usize = 4096;

/// What entering the fence did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FenceResult {
    /// Others are still to come; the arrival is parked.
    Waiting,
    /// The last arrival: everyone parked, in arrival order, and the pairs
    /// put since the previous release, in put order.
    Released(Vec<u64>, Vec<(String, String)>),
    /// The job was aborted, for this reason.
    Aborted(String),
}

/// The key-value space of one PMI job.
pub struct KeyValueSpace {
    participants: usize,
    /// Value and the fence generation it was put in.
    map: BTreeMap<String, (String, u64)>,
    /// Keys put in the current generation, each once, in put order.
    fresh: Vec<String>,
    /// Arrivals parked in the current generation.
    waiting: Vec<u64>,
    generation: u64,
    aborted: Option<String>,
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
            participants: participants as usize,
            map: BTreeMap::new(),
            fresh: Vec::new(),
            waiting: Vec::new(),
            generation: 0,
            aborted: None,
        }
    }

    /// Keys the space holds before a `put` of a new one is refused:
    /// sixteen per rank, and never fewer than 256.
    pub fn capacity(&self) -> usize {
        (16 * self.participants).max(256)
    }

    /// Insert or overwrite a key. `Err` says why the space refused: it is
    /// full, or the key or value is longer than [`MAX_VALUE`].
    pub fn put(&mut self, key: &str, value: &str) -> Result<(), String> {
        if key.len().max(value.len()) > MAX_VALUE {
            return Err(format!("put of {key:.32}: longer than {MAX_VALUE} bytes"));
        }
        let known = self.map.get(key).map(|(_, generation)| *generation);
        if known.is_none() && self.map.len() >= self.capacity() {
            return Err(format!("kvs full: {} keys", self.map.len()));
        }
        if known != Some(self.generation) {
            self.fresh.push(key.to_string());
        }
        let slot = (value.to_string(), self.generation);
        self.map.insert(key.to_string(), slot);
        Ok(())
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|(value, _)| value.as_str())
    }

    /// `who` enters the fence.
    pub fn arrive(&mut self, who: u64) -> FenceResult {
        if let Some(reason) = &self.aborted {
            return FenceResult::Aborted(reason.clone());
        }
        self.waiting.push(who);
        if self.waiting.len() < self.participants {
            return FenceResult::Waiting;
        }
        // Last arrival releases everyone and starts a new generation.
        self.generation += 1;
        let value = |key: &String| self.get(key).unwrap_or_default().to_string();
        let committed = self.fresh.iter().map(|k| (k.clone(), value(k))).collect();
        self.fresh.clear();
        FenceResult::Released(std::mem::take(&mut self.waiting), committed)
    }

    /// Abort the job: every later fence returns [`FenceResult::Aborted`].
    /// Returns the arrivals that were parked — withdrawn, as after a
    /// time-out — and the reason on record, which is the first one given.
    pub fn abort(&mut self, reason: String) -> (Vec<u64>, String) {
        let reason = self.aborted.get_or_insert(reason).clone();
        (std::mem::take(&mut self.waiting), reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn released(arrivals: &[u64]) -> FenceResult {
        FenceResult::Released(arrivals.to_vec(), Vec::new())
    }

    #[test]
    fn put_get_round_trip() {
        let mut kvs = KeyValueSpace::new(1);
        kvs.put("bc.0", "127.0.0.1:5000").unwrap();
        assert_eq!(kvs.get("bc.0"), Some("127.0.0.1:5000"));
        assert_eq!(kvs.get("bc.1"), None);
    }

    #[test]
    fn put_overwrites() {
        let mut kvs = KeyValueSpace::new(1);
        kvs.put("k", "a").unwrap();
        kvs.put("k", "b").unwrap();
        assert_eq!(kvs.get("k"), Some("b"));
        assert_eq!(kvs.map.len(), 1);
    }

    #[test]
    fn single_participant_fence_releases_immediately() {
        let mut kvs = KeyValueSpace::new(1);
        assert_eq!(kvs.arrive(7), released(&[7]));
        assert_eq!(kvs.arrive(7), released(&[7]));
    }

    #[test]
    fn fence_blocks_until_all_arrive() {
        let mut kvs = KeyValueSpace::new(4);
        for who in 0..3 {
            assert_eq!(kvs.arrive(who), FenceResult::Waiting);
        }
        assert_eq!(kvs.arrive(3), released(&[0, 1, 2, 3]));
    }

    #[test]
    fn fence_is_reusable_across_generations() {
        let mut kvs = KeyValueSpace::new(2);
        for _ in 0..3 {
            assert_eq!(kvs.arrive(0), FenceResult::Waiting);
            assert_eq!(kvs.arrive(1), released(&[0, 1]));
        }
    }

    #[test]
    fn fence_times_out_when_peers_never_arrive() {
        let mut kvs = KeyValueSpace::new(2);
        assert_eq!(kvs.arrive(0), FenceResult::Waiting);
        // A time-out is the owner's deadline and an abort: the arrival is
        // withdrawn, and whoever comes later hears why.
        let why = "fence timed out".to_string();
        assert_eq!(kvs.abort(why.clone()), (vec![0], why.clone()));
        assert!(kvs.waiting.is_empty());
        assert_eq!(kvs.arrive(1), FenceResult::Aborted(why));
    }

    #[test]
    fn abort_wakes_fence_waiters() {
        let mut kvs = KeyValueSpace::new(2);
        assert_eq!(kvs.arrive(0), FenceResult::Waiting);
        let why = "injected failure".to_string();
        assert_eq!(kvs.abort(why.clone()), (vec![0], why.clone()));
        // The first reason sticks.
        assert_eq!(kvs.abort("again".to_string()), (vec![], why));
    }

    #[test]
    fn fence_after_abort_returns_aborted() {
        let mut kvs = KeyValueSpace::new(3);
        kvs.abort("dead".to_string());
        assert_eq!(kvs.arrive(0), FenceResult::Aborted("dead".to_string()));
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = KeyValueSpace::new(0);
    }

    #[test]
    fn a_release_commits_each_fresh_key_once_with_its_last_value() {
        let mut kvs = KeyValueSpace::new(1);
        kvs.put("a", "1").unwrap();
        kvs.put("b", "2").unwrap();
        kvs.put("a", "3").unwrap();
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
        let FenceResult::Released(_, committed) = kvs.arrive(0) else {
            panic!("a one-rank fence releases");
        };
        assert_eq!(committed, [pair("a", "3"), pair("b", "2")]);
        // The next generation carries only what changed in it.
        kvs.put("b", "4").unwrap();
        let FenceResult::Released(_, committed) = kvs.arrive(0) else {
            panic!("a one-rank fence releases");
        };
        assert_eq!(committed, [pair("b", "4")]);
    }

    #[test]
    fn the_space_is_bounded() {
        let mut kvs = KeyValueSpace::new(2);
        for i in 0..kvs.capacity() {
            kvs.put(&format!("k{i}"), "v").unwrap();
        }
        assert!(kvs.put("one-too-many", "v").unwrap_err().contains("full"));
        kvs.put("k0", "overwriting is not growth").unwrap();
        let long = "x".repeat(MAX_VALUE + 1);
        assert!(kvs.put("k1", &long).unwrap_err().contains("longer"));
        assert!(kvs.put(&long, "v").is_err());
        assert_eq!(kvs.map.len(), kvs.capacity());
    }
}
