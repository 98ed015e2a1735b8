//! Worker registry: who is alive, where, and what they are doing.
//!
//! Workers are persistent pilot jobs; the dispatcher tracks each one from
//! registration to death. Death is detected two ways, per the paper's
//! fault-tolerance feature ("JETS automatically disregards workers that
//! fail or hang"): the connection dropping (fail) and silence (hang).
//!
//! ## Liveness is plain core state
//!
//! Each worker's last-seen clock is a `u64` of milliseconds since the
//! registry's epoch, in its [`WorkerInfo`]. The core refreshes it on
//! every input it takes from that worker — registration, `Request`,
//! `Done`, a claim, a heartbeat ([`Registry::touch`]) — and
//! [`Registry::stale`] reads it on the monitor tick. The dispatcher takes
//! every input on one event loop, so nothing here is shared or atomic.
//!
//! ## No clock in here
//!
//! Every time-dependent method takes the caller's `now`: the registry is
//! part of the dispatcher core ([`crate::core`]), which runs under
//! whatever clock its caller keeps — the wall clock in the dispatcher
//! shell, a virtual one in the model check.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::group::{LocId, LocationInterner};
use crate::spec::{JobId, WorkerId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Whole milliseconds from `epoch` to `now`, zero if `now` is earlier.
fn ms_between(epoch: Instant, now: Instant) -> u64 {
    now.saturating_duration_since(epoch).as_millis() as u64
}

/// What a worker is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Connected, waiting to be handed work.
    Idle,
    /// Executing a task of the given job.
    Busy(JobId),
    /// Connected but benched: this worker's *name* killed too many recent
    /// gangs, so the scheduler skips it until the penalty expires at
    /// `until_ms` (milliseconds since the registry epoch). Quarantined
    /// workers still count as alive and their `Request` is held, not
    /// dropped.
    Quarantined {
        /// Release time, in milliseconds since the registry's epoch.
        until_ms: u64,
    },
    /// Gone (EOF, error, heartbeat timeout, or orderly goodbye).
    Dead,
}

/// Policy for benching workers that keep killing gangs.
///
/// Strikes are charged to the worker's *name*, not its connection: a
/// pilot that dies mid-gang and reconnects gets a fresh `WorkerId` but
/// inherits its record. A strike older than `decay` clears the whole
/// record (the node has been behaving), and a worker re-registering with
/// `threshold` or more live strikes is admitted `Quarantined` for
/// `penalty × strikes`, capped at `max_penalty`.
#[derive(Debug, Clone)]
pub struct QuarantinePolicy {
    /// Live strikes at which a re-registering worker is benched.
    pub threshold: u32,
    /// Bench time per live strike.
    pub penalty: Duration,
    /// A strike this old clears the record.
    pub decay: Duration,
    /// Upper bound on one bench period.
    pub max_penalty: Duration,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 2,
            penalty: Duration::from_millis(500),
            decay: Duration::from_secs(60),
            max_penalty: Duration::from_secs(10),
        }
    }
}

/// What the registry keeps of a worker *name*, across reconnects.
#[derive(Debug, Clone, Copy, Default)]
struct NameRecord {
    /// The name has registered: a registration under it now is a
    /// reconnect (journal replay seeds strikes without registering).
    registered: bool,
    /// Live gang-kill strikes; zero is a clean record.
    strikes: u32,
    /// When the last strike was charged, in ms since the epoch.
    last_ms: u64,
}

/// Everything the dispatcher knows about one worker.
#[derive(Debug, Clone)]
pub struct WorkerInfo {
    /// Dispatcher-assigned identifier.
    pub id: WorkerId,
    /// Self-reported name.
    pub name: String,
    /// Cores on the node.
    pub cores: u32,
    /// Network location label (used by location-aware grouping).
    pub location: String,
    /// The label's interned id (what the scheduling hot path uses).
    pub loc: LocId,
    /// Current state.
    pub state: WorkerState,
    /// When the worker was last heard from, in milliseconds since the
    /// registry's epoch.
    pub last_seen_ms: u64,
    /// Completed task count.
    pub tasks_done: u64,
    /// The relay this worker registered through (`None` for a direct
    /// connection). Relayed workers share their relay's TCP connection;
    /// their liveness arrives in `BatchedHeartbeat` frames.
    pub relay: Option<WorkerId>,
}

/// The set of known workers.
#[derive(Debug)]
pub struct Registry {
    /// Ordered, so every sweep (`stale`, `release_expired`, `relayed_by`)
    /// reports in id order and a seeded schedule replays bit for bit.
    workers: BTreeMap<WorkerId, WorkerInfo>,
    locations: LocationInterner,
    /// The instant liveness and quarantine clocks count from.
    epoch: Instant,
    /// Gang-kill strikes and first contact by worker *name*, surviving
    /// reconnects. A registration whose name is already registered is a
    /// *reconnect* — the same pilot coming back after a disconnect —
    /// which the dispatcher surfaces as `reconnects_total`.
    names: BTreeMap<String, NameRecord>,
    quarantine: Option<QuarantinePolicy>,
}

impl Registry {
    /// An empty registry whose clocks count from `epoch`, benching repeat
    /// gang-killers per `policy` (`None`: every registration is `Idle`).
    pub fn new(epoch: Instant, policy: Option<QuarantinePolicy>) -> Self {
        Registry {
            workers: BTreeMap::new(),
            locations: LocationInterner::new(),
            epoch,
            names: BTreeMap::new(),
            quarantine: policy,
        }
    }

    /// Record a worker registered (and so heard from) at `now` through
    /// `relay` (`None` for a direct connection). Admitted `Idle` unless
    /// the name has `threshold`+ live strikes under the quarantine
    /// policy, in which case it starts `Quarantined`.
    pub fn insert(
        &mut self,
        id: WorkerId,
        name: String,
        cores: u32,
        location: String,
        relay: Option<WorkerId>,
        now: Instant,
    ) {
        let loc = self.locations.intern(&location);
        let state = self.admission_state(&name, now);
        self.names.entry(name.clone()).or_default().registered = true;
        self.workers.insert(
            id,
            WorkerInfo {
                id,
                name,
                cores,
                location,
                loc,
                state,
                last_seen_ms: ms_between(self.epoch, now),
                tasks_done: 0,
                relay,
            },
        );
    }

    /// Ids of live workers registered through `relay`, in id order.
    pub fn relayed_by(&self, relay: WorkerId) -> Vec<WorkerId> {
        self.workers
            .values()
            .filter(|w| w.relay == Some(relay) && w.state != WorkerState::Dead)
            .map(|w| w.id)
            .collect()
    }

    /// Decide a (re-)registering name's initial state under the
    /// quarantine policy, pruning decayed strike records on the way.
    fn admission_state(&mut self, name: &str, now: Instant) -> WorkerState {
        let Some(policy) = &self.quarantine else {
            return WorkerState::Idle;
        };
        let now = ms_between(self.epoch, now);
        let decay_ms = policy.decay.as_millis() as u64;
        let Some(rec) = self.names.get_mut(name).filter(|r| r.strikes > 0) else {
            return WorkerState::Idle;
        };
        if now.saturating_sub(rec.last_ms) > decay_ms {
            rec.strikes = 0;
            return WorkerState::Idle;
        }
        if rec.strikes < policy.threshold {
            return WorkerState::Idle;
        }
        let bench = (policy.penalty * rec.strikes).min(policy.max_penalty);
        WorkerState::Quarantined {
            until_ms: now + bench.as_millis() as u64,
        }
    }

    /// Charge a gang-kill strike to `id`'s name (the worker died or hung
    /// while a task was in flight). Returns the name's live strike count,
    /// or `None` when the id is unknown or no quarantine policy is set.
    pub fn record_fault(&mut self, id: WorkerId, now: Instant) -> Option<u32> {
        self.quarantine.as_ref()?;
        let name = self.workers.get(&id)?.name.clone();
        let now = ms_between(self.epoch, now);
        let rec = self.names.entry(name).or_default();
        rec.strikes += 1;
        rec.last_ms = now;
        Some(rec.strikes)
    }

    /// Seed `strikes` live strikes against `name` — journal replay after
    /// a dispatcher restart. The decay clock restarts at `now`: the
    /// journal records strike counts, not the wall-clock instants they
    /// were earned (those died with the previous incarnation's epoch).
    pub fn seed_strikes(&mut self, name: &str, strikes: u32, now: Instant) {
        if self.quarantine.is_none() || strikes == 0 {
            return;
        }
        let now = ms_between(self.epoch, now);
        let rec = self.names.entry(name.to_string()).or_default();
        (rec.strikes, rec.last_ms) = (strikes, now);
    }

    /// Live strike count against a worker's name (diagnostics; does not
    /// prune decayed records).
    pub fn strikes(&self, id: WorkerId) -> u32 {
        self.workers
            .get(&id)
            .and_then(|w| self.names.get(&w.name))
            .map_or(0, |r| r.strikes)
    }

    /// Release every quarantined worker whose penalty has expired by
    /// `now`, returning their ids (now `Idle`) in id order.
    pub fn release_expired(&mut self, now: Instant) -> Vec<WorkerId> {
        let now = ms_between(self.epoch, now);
        let mut released = Vec::new();
        for w in self.workers.values_mut() {
            if let WorkerState::Quarantined { until_ms } = w.state {
                if now >= until_ms {
                    w.state = WorkerState::Idle;
                    released.push(w.id);
                }
            }
        }
        released
    }

    /// Look up a worker.
    pub fn get(&self, id: WorkerId) -> Option<&WorkerInfo> {
        self.workers.get(&id)
    }

    /// The interned-location table (label ↔ id).
    pub fn locations(&self) -> &LocationInterner {
        &self.locations
    }

    /// The worker was heard from at `now`.
    pub fn touch(&mut self, id: WorkerId, now: Instant) {
        if let Some(w) = self.workers.get_mut(&id) {
            w.last_seen_ms = ms_between(self.epoch, now);
        }
    }

    /// Transition a worker to `Busy(job)`. An assignment restarts its
    /// silence clock.
    pub fn mark_busy(&mut self, id: WorkerId, job: JobId, now: Instant) {
        if let Some(w) = self.workers.get_mut(&id) {
            w.state = WorkerState::Busy(job);
            w.last_seen_ms = ms_between(self.epoch, now);
        }
    }

    /// Transition a worker back to `Idle`, crediting a completed task.
    /// Dead and quarantined workers stay put: a late `Done` (stale report
    /// after a hang verdict or a cancellation) must not resurrect or
    /// un-bench them.
    pub fn mark_idle(&mut self, id: WorkerId) {
        if let Some(w) = self.workers.get_mut(&id) {
            if let WorkerState::Busy(_) = w.state {
                w.tasks_done += 1;
                w.state = WorkerState::Idle;
            }
        }
    }

    /// Transition a worker to `Dead`; returns the job it was running, if
    /// any, so the dispatcher can requeue it.
    pub fn mark_dead(&mut self, id: WorkerId) -> Option<JobId> {
        let w = self.workers.get_mut(&id)?;
        let job = match w.state {
            WorkerState::Busy(j) => Some(j),
            WorkerState::Idle | WorkerState::Quarantined { .. } | WorkerState::Dead => None,
        };
        w.state = WorkerState::Dead;
        job
    }

    /// Workers not heard from for longer than `timeout` at `now` (hang
    /// detection), in id order. Does not report already-dead workers.
    pub fn stale(&self, now: Instant, timeout: Duration) -> Vec<WorkerId> {
        let (now, timeout_ms) = (ms_between(self.epoch, now), timeout.as_millis() as u64);
        let silent = |w: &&WorkerInfo| now.saturating_sub(w.last_seen_ms) > timeout_ms;
        self.workers
            .values()
            .filter(|w| w.state != WorkerState::Dead)
            .filter(silent)
            .map(|w| w.id)
            .collect()
    }

    /// Number of workers in any live state.
    pub fn alive_count(&self) -> usize {
        self.workers
            .values()
            .filter(|w| w.state != WorkerState::Dead)
            .count()
    }

    /// Number of busy workers.
    pub fn busy_count(&self) -> usize {
        self.workers
            .values()
            .filter(|w| matches!(w.state, WorkerState::Busy(_)))
            .count()
    }

    /// Number of currently quarantined workers (the live value behind
    /// the `jets_quarantined_current` gauge).
    pub fn quarantined_count(&self) -> usize {
        self.workers
            .values()
            .filter(|w| matches!(w.state, WorkerState::Quarantined { .. }))
            .count()
    }

    /// True if `name` has registered before — i.e. a registration under
    /// this name now would be a reconnect, not a first contact.
    pub fn known_name(&self, name: &str) -> bool {
        self.names.get(name).is_some_and(|r| r.registered)
    }

    /// All workers (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &WorkerInfo> {
        self.workers.values()
    }

    /// Total workers ever registered.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when no worker has ever registered.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ms` milliseconds after `t0` on the tests' virtual clock.
    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    fn reg_with(t0: Instant, ids: &[WorkerId]) -> Registry {
        let mut r = Registry::new(t0, None);
        for &id in ids {
            r.insert(id, format!("w{id}"), 4, "rack-0".into(), None, t0);
        }
        r
    }

    #[test]
    fn lifecycle_idle_busy_idle() {
        let t0 = Instant::now();
        let mut r = reg_with(t0, &[1]);
        assert_eq!(r.get(1).unwrap().state, WorkerState::Idle);
        r.mark_busy(1, 77, t0);
        assert_eq!(r.get(1).unwrap().state, WorkerState::Busy(77));
        assert_eq!(r.busy_count(), 1);
        r.mark_idle(1);
        assert_eq!(r.get(1).unwrap().state, WorkerState::Idle);
        assert_eq!(r.get(1).unwrap().tasks_done, 1);
    }

    #[test]
    fn idle_to_idle_does_not_inflate_task_count() {
        let t0 = Instant::now();
        let mut r = reg_with(t0, &[1]);
        r.mark_idle(1);
        assert_eq!(r.get(1).unwrap().tasks_done, 0);
    }

    #[test]
    fn death_reports_inflight_job() {
        let t0 = Instant::now();
        let mut r = reg_with(t0, &[1, 2]);
        r.mark_busy(1, 5, t0);
        assert_eq!(r.mark_dead(1), Some(5));
        assert_eq!(r.mark_dead(2), None);
        assert_eq!(r.alive_count(), 0);
    }

    #[test]
    fn stale_detection_skips_dead_workers() {
        let t0 = Instant::now();
        let mut r = reg_with(t0, &[1, 2]);
        r.mark_dead(2);
        let stale = r.stale(at(t0, 15), Duration::from_millis(5));
        assert_eq!(stale, vec![1]);
        // Touch resets staleness.
        r.touch(1, at(t0, 15));
        assert!(r.stale(at(t0, 15), Duration::from_millis(5)).is_empty());
    }

    /// A touch restarts the silence clock to the millisecond, and a
    /// reading from before the last touch counts no silence at all.
    #[test]
    fn a_touch_restarts_the_silence_clock() {
        let t0 = Instant::now();
        let mut r = reg_with(t0, &[1]);
        let timeout = Duration::from_millis(5);
        assert_eq!(r.stale(at(t0, 15), timeout), vec![1]);
        r.touch(1, at(t0, 15));
        assert_eq!(r.get(1).unwrap().last_seen_ms, 15);
        assert!(r.stale(at(t0, 20), timeout).is_empty());
        assert_eq!(r.stale(at(t0, 21), timeout), vec![1]);
        assert!(r.stale(at(t0, 10), timeout).is_empty());
    }

    #[test]
    fn locations_are_interned_per_registry() {
        let t0 = Instant::now();
        let mut r = Registry::new(t0, None);
        r.insert(1, "a".into(), 1, "rack-0".into(), None, t0);
        r.insert(2, "b".into(), 1, "rack-1".into(), None, t0);
        r.insert(3, "c".into(), 1, "rack-0".into(), None, t0);
        assert_eq!(r.get(1).unwrap().loc, r.get(3).unwrap().loc);
        assert_ne!(r.get(1).unwrap().loc, r.get(2).unwrap().loc);
        assert_eq!(r.locations().len(), 2);
        assert_eq!(r.locations().name(r.get(2).unwrap().loc), "rack-1");
    }

    #[test]
    fn counts() {
        let t0 = Instant::now();
        let mut r = reg_with(t0, &[1, 2, 3]);
        r.mark_busy(2, 1, t0);
        r.mark_dead(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.alive_count(), 2);
        assert_eq!(r.busy_count(), 1);
        assert!(!r.is_empty());
    }

    fn quarantine_policy(penalty_ms: u64, decay_ms: u64) -> Option<QuarantinePolicy> {
        Some(QuarantinePolicy {
            threshold: 2,
            penalty: Duration::from_millis(penalty_ms),
            decay: Duration::from_millis(decay_ms),
            max_penalty: Duration::from_secs(10),
        })
    }

    #[test]
    fn strikes_quarantine_a_reconnecting_name() {
        let t0 = Instant::now();
        let mut r = Registry::new(t0, quarantine_policy(50, 10_000));
        // First incarnation dies mid-gang twice (reconnect between).
        r.insert(1, "flaky".into(), 1, "rack-0".into(), None, t0);
        r.mark_busy(1, 9, t0);
        assert_eq!(r.record_fault(1, t0), Some(1));
        r.mark_dead(1);
        r.insert(2, "flaky".into(), 1, "rack-0".into(), None, t0);
        assert_eq!(
            r.get(2).unwrap().state,
            WorkerState::Idle,
            "one strike is tolerated"
        );
        r.mark_busy(2, 10, t0);
        assert_eq!(r.record_fault(2, t0), Some(2));
        r.mark_dead(2);
        // Third incarnation is benched for penalty × strikes.
        r.insert(3, "flaky".into(), 1, "rack-0".into(), None, at(t0, 7));
        assert_eq!(
            r.get(3).unwrap().state,
            WorkerState::Quarantined { until_ms: 107 }
        );
        // Quarantined still counts as alive, and a stale Done does not
        // un-bench it.
        assert_eq!(r.alive_count(), 1);
        r.mark_idle(3);
        assert!(matches!(
            r.get(3).unwrap().state,
            WorkerState::Quarantined { .. }
        ));
        // The penalty expires — to the millisecond — and it is released.
        assert!(r.release_expired(at(t0, 106)).is_empty());
        assert_eq!(r.release_expired(at(t0, 107)), vec![3]);
        assert_eq!(r.get(3).unwrap().state, WorkerState::Idle);
    }

    #[test]
    fn strikes_decay() {
        let t0 = Instant::now();
        let mut r = Registry::new(t0, quarantine_policy(50, 20));
        r.insert(1, "w".into(), 1, "rack-0".into(), None, t0);
        r.mark_busy(1, 1, t0);
        r.record_fault(1, t0);
        r.record_fault(1, t0);
        r.mark_dead(1);
        // Strikes are stale: the name re-registers Idle.
        r.insert(2, "w".into(), 1, "rack-0".into(), None, at(t0, 21));
        assert_eq!(r.get(2).unwrap().state, WorkerState::Idle);
    }

    #[test]
    fn seeded_strikes_quarantine_like_earned_ones() {
        let t0 = Instant::now();
        let mut r = Registry::new(t0, quarantine_policy(50, 10_000));
        r.seed_strikes("flaky", 2, t0);
        r.seed_strikes("fine", 0, t0); // no-op
        r.insert(1, "flaky".into(), 1, "rack-0".into(), None, t0);
        assert!(matches!(
            r.get(1).unwrap().state,
            WorkerState::Quarantined { .. }
        ));
        assert_eq!(r.strikes(1), 2);
        r.insert(2, "fine".into(), 1, "rack-0".into(), None, t0);
        assert_eq!(r.get(2).unwrap().state, WorkerState::Idle);
        // Without a policy, seeding is a no-op.
        let mut bare = Registry::new(t0, None);
        bare.seed_strikes("flaky", 5, t0);
        bare.insert(3, "flaky".into(), 1, "rack-0".into(), None, t0);
        assert_eq!(bare.get(3).unwrap().state, WorkerState::Idle);
    }

    #[test]
    fn no_policy_means_no_quarantine() {
        let t0 = Instant::now();
        let mut r = reg_with(t0, &[1]);
        r.mark_busy(1, 1, t0);
        assert_eq!(r.record_fault(1, t0), None);
        r.mark_dead(1);
        r.insert(2, "w1".into(), 4, "rack-0".into(), None, t0);
        assert_eq!(r.get(2).unwrap().state, WorkerState::Idle);
        assert!(r.release_expired(at(t0, 60_000)).is_empty());
    }

    #[test]
    fn relayed_workers_are_tracked_per_relay() {
        let t0 = Instant::now();
        let mut r = Registry::new(t0, None);
        r.insert(1, "direct".into(), 4, "rack-0".into(), None, t0);
        r.insert(2, "a".into(), 4, "rack-0".into(), Some(100), t0);
        r.insert(3, "b".into(), 4, "rack-0".into(), Some(100), t0);
        r.insert(4, "c".into(), 4, "rack-0".into(), Some(200), t0);
        assert_eq!(r.get(1).unwrap().relay, None);
        assert_eq!(r.get(2).unwrap().relay, Some(100));
        assert_eq!(r.relayed_by(100), vec![2, 3]);
        r.mark_dead(3);
        assert_eq!(r.relayed_by(100), vec![2]);
        assert_eq!(r.relayed_by(200), vec![4]);
        assert!(r.relayed_by(999).is_empty());
    }

    #[test]
    fn unknown_ids_are_harmless() {
        let t0 = Instant::now();
        let mut r = Registry::new(t0, None);
        r.touch(9, t0);
        r.mark_busy(9, 1, t0);
        r.mark_idle(9);
        assert_eq!(r.mark_dead(9), None);
        assert!(r.get(9).is_none());
    }
}
