//! Worker-group selection: turning idle workers into an MPI-capable group.
//!
//! "The default JETS behavior is to group nodes in first come, first
//! served order" (paper, Section 6.1.4). Section 7 notes that grouping
//! with respect to network location would matter for workflows spanning
//! multiple clusters — joining MPI processes on the same cluster should be
//! preferred to running MPI jobs across clusters. Both policies live here
//! and are compared in `bench/ablation_grouping`.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::spec::WorkerId;
use std::collections::BTreeMap;

/// An interned network-location label.
///
/// The dispatcher's hot path never compares location *strings*: each
/// distinct label is interned to a dense `LocId` at worker registration,
/// and group selection works on ids alone (see [`select_group_ids`]).
pub type LocId = u32;

/// Interns location labels to dense [`LocId`]s.
///
/// Lives with the worker registry; `LocId`s are stable for the life of
/// the dispatcher and index directly into [`GroupScratch`]'s per-location
/// tallies.
#[derive(Debug, Default)]
pub struct LocationInterner {
    ids: BTreeMap<String, LocId>,
    names: Vec<String>,
}

impl LocationInterner {
    /// An empty interner.
    pub fn new() -> Self {
        LocationInterner::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> LocId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as LocId;
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// The label behind `id` (panics on an id this interner never issued).
    pub fn name(&self, id: LocId) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// How to choose which idle workers form a job's group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingPolicy {
    /// First come, first served: the `need` longest-waiting idle workers,
    /// regardless of where they are (the paper's default).
    #[default]
    Fcfs,
    /// Prefer a group entirely within one network location; fall back to
    /// FCFS across locations only when no single location has enough idle
    /// workers.
    LocationAware,
}

/// An idle worker as seen by the selector: identity plus location label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The worker.
    pub worker: WorkerId,
    /// Its network location label.
    pub location: String,
}

/// Select `need` workers from `ready` (ordered oldest-request-first).
/// Returns the chosen indices into `ready`, oldest first, or `None` if
/// fewer than `need` candidates exist.
pub fn select_group(
    policy: GroupingPolicy,
    ready: &[Candidate],
    need: usize,
) -> Option<Vec<usize>> {
    if need == 0 || ready.len() < need {
        return None;
    }
    match policy {
        GroupingPolicy::Fcfs => Some((0..need).collect()),
        GroupingPolicy::LocationAware => {
            // Count candidates per location, preserving FCFS inside each.
            let mut by_location: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for (idx, c) in ready.iter().enumerate() {
                by_location
                    .entry(c.location.as_str())
                    .or_default()
                    .push(idx);
            }
            // Among locations that can host the whole group, pick the one
            // whose oldest candidate has waited longest (keeps FCFS
            // fairness across locations); ties broken by the scan order of
            // the first index.
            let mut best: Option<&Vec<usize>> = None;
            for indices in by_location.values() {
                if indices.len() >= need && best.is_none_or(|b| indices[0] < b[0]) {
                    best = Some(indices);
                }
            }
            match best {
                Some(indices) => Some(indices[..need].to_vec()),
                // No single location suffices: cross-location FCFS.
                None => Some((0..need).collect()),
            }
        }
    }
}

/// Per-location tally slot for [`GroupScratch`] (generation-stamped so a
/// scheduling pass never has to clear the whole table).
#[derive(Debug, Clone, Copy, Default)]
struct LocStat {
    gen: u64,
    count: usize,
    first: usize,
}

/// Reusable scratch space for [`select_group_ids`].
///
/// One instance lives in the dispatcher's scheduling state; repeated
/// selection passes reuse its buffers, so steady-state scheduling makes
/// no allocations (buffers only grow to the high-water mark of distinct
/// locations / group sizes).
#[derive(Debug, Default)]
pub struct GroupScratch {
    /// Chosen indices (ascending) from the last successful selection.
    selected: Vec<usize>,
    /// Per-`LocId` tallies, generation-stamped.
    stats: Vec<LocStat>,
    /// Current generation; bumping it invalidates all `stats` slots.
    gen: u64,
}

impl GroupScratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        GroupScratch::default()
    }

    /// The indices chosen by the last [`select_group_ids`] call that
    /// returned `true`, in ascending (oldest-request-first) order.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }
}

/// Select `need` workers from `ready` (ordered oldest-request-first,
/// locations interned), writing the chosen indices — ascending — into
/// `scratch.selected`. Returns `false` if fewer than `need` candidates
/// exist (or `need == 0`).
///
/// Semantics match [`select_group`] exactly; this variant avoids the
/// per-call `String` clones and map builds by tallying interned
/// ids into reusable, generation-stamped scratch buffers.
pub fn select_group_ids(
    policy: GroupingPolicy,
    ready: &[(WorkerId, LocId)],
    need: usize,
    scratch: &mut GroupScratch,
) -> bool {
    scratch.selected.clear();
    if need == 0 || ready.len() < need {
        return false;
    }
    match policy {
        GroupingPolicy::Fcfs => {
            scratch.selected.extend(0..need);
            true
        }
        GroupingPolicy::LocationAware => {
            scratch.gen += 1;
            let gen = scratch.gen;
            // Pass 1: tally count and first index per location; track the
            // viable location whose oldest candidate has waited longest.
            let mut best: Option<(usize, LocId)> = None; // (first index, loc)
            for (idx, &(_, loc)) in ready.iter().enumerate() {
                if scratch.stats.len() <= loc as usize {
                    scratch.stats.resize(loc as usize + 1, LocStat::default());
                }
                let stat = &mut scratch.stats[loc as usize];
                if stat.gen != gen {
                    *stat = LocStat {
                        gen,
                        count: 0,
                        first: idx,
                    };
                }
                stat.count += 1;
                if stat.count >= need && best.is_none_or(|(f, _)| stat.first < f) {
                    best = Some((stat.first, loc));
                }
            }
            match best {
                Some((_, best_loc)) => {
                    // Pass 2: collect the location's oldest `need` indices.
                    for (idx, &(_, loc)) in ready.iter().enumerate() {
                        if loc == best_loc {
                            scratch.selected.push(idx);
                            if scratch.selected.len() == need {
                                break;
                            }
                        }
                    }
                }
                // No single location suffices: cross-location FCFS.
                None => scratch.selected.extend(0..need),
            }
            true
        }
    }
}

/// How many of the group's workers share its most common location — the
/// metric the grouping ablation reports (1.0 = fully co-located).
pub fn colocation_fraction(locations: &[&str]) -> f64 {
    if locations.is_empty() {
        return 1.0;
    }
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for l in locations {
        *counts.entry(l).or_default() += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    max as f64 / locations.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(spec: &[(WorkerId, &str)]) -> Vec<Candidate> {
        spec.iter()
            .map(|&(worker, loc)| Candidate {
                worker,
                location: loc.to_string(),
            })
            .collect()
    }

    #[test]
    fn fcfs_takes_the_oldest() {
        let ready = cands(&[(1, "a"), (2, "b"), (3, "a")]);
        assert_eq!(
            select_group(GroupingPolicy::Fcfs, &ready, 2),
            Some(vec![0, 1])
        );
    }

    #[test]
    fn insufficient_workers_yields_none() {
        let ready = cands(&[(1, "a")]);
        assert_eq!(select_group(GroupingPolicy::Fcfs, &ready, 2), None);
        assert_eq!(select_group(GroupingPolicy::LocationAware, &ready, 2), None);
        assert_eq!(select_group(GroupingPolicy::Fcfs, &ready, 0), None);
    }

    #[test]
    fn location_aware_colocates_when_possible() {
        // FCFS would pick indices 0,1 (a cross-cluster group); the
        // location-aware policy should find the all-"b" group.
        let ready = cands(&[(1, "a"), (2, "b"), (3, "b")]);
        assert_eq!(
            select_group(GroupingPolicy::LocationAware, &ready, 2),
            Some(vec![1, 2])
        );
    }

    #[test]
    fn location_aware_prefers_longest_waiting_viable_location() {
        let ready = cands(&[(1, "a"), (2, "b"), (3, "a"), (4, "b")]);
        // Both locations have 2 candidates; "a" has the oldest (index 0).
        assert_eq!(
            select_group(GroupingPolicy::LocationAware, &ready, 2),
            Some(vec![0, 2])
        );
    }

    #[test]
    fn location_aware_falls_back_to_fcfs() {
        let ready = cands(&[(1, "a"), (2, "b"), (3, "c")]);
        assert_eq!(
            select_group(GroupingPolicy::LocationAware, &ready, 3),
            Some(vec![0, 1, 2])
        );
    }

    /// The interned selector must agree with the string-based one on
    /// every policy for a representative spread of layouts.
    #[test]
    fn interned_selection_matches_string_selection() {
        let layouts: Vec<Vec<(WorkerId, &str)>> = vec![
            vec![(1, "a"), (2, "b"), (3, "b")],
            vec![(1, "a"), (2, "b"), (3, "a"), (4, "b")],
            vec![(1, "a"), (2, "b"), (3, "c")],
            vec![(10, "x"); 5],
            vec![(1, "a"), (2, "a"), (3, "b"), (4, "b"), (5, "b"), (6, "a")],
        ];
        let mut scratch = GroupScratch::new();
        for spec in &layouts {
            let ready = cands(spec);
            let mut interner = LocationInterner::new();
            let interned: Vec<(WorkerId, LocId)> = spec
                .iter()
                .map(|&(w, loc)| (w, interner.intern(loc)))
                .collect();
            for need in 0..=spec.len() + 1 {
                for policy in [GroupingPolicy::Fcfs, GroupingPolicy::LocationAware] {
                    let old = select_group(policy, &ready, need);
                    let ok = select_group_ids(policy, &interned, need, &mut scratch);
                    match old {
                        None => assert!(!ok, "{policy:?} need={need}"),
                        Some(idx) => {
                            assert!(ok, "{policy:?} need={need}");
                            assert_eq!(scratch.selected(), &idx[..], "{policy:?} need={need}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interner_is_stable_and_dense() {
        let mut i = LocationInterner::new();
        assert!(i.is_empty());
        let a = i.intern("rack-a");
        let b = i.intern("rack-b");
        assert_eq!(i.intern("rack-a"), a);
        assert_ne!(a, b);
        assert_eq!(i.name(a), "rack-a");
        assert_eq!(i.name(b), "rack-b");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn colocation_metric() {
        assert_eq!(colocation_fraction(&["a", "a", "a"]), 1.0);
        assert_eq!(colocation_fraction(&["a", "b"]), 0.5);
        assert_eq!(colocation_fraction(&[]), 1.0);
        let f = colocation_fraction(&["a", "a", "b", "c"]);
        assert!((f - 0.5).abs() < 1e-12);
    }
}
