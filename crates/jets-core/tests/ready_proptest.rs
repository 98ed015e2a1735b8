//! Property tests for the scheduling hot path's data structures.
//!
//! Seeded generate-and-check (`jets_ring::stdx::check`): no shrinking; a
//! failure names its seed and case, and editing `SEED` reruns others.
//!
//! * [`ReadyList`] is driven with random operation sequences against a
//!   naive ordered-vector model. The invariants under test are the ones
//!   the dispatcher relies on: a worker is parked at most once (no
//!   double assignment), nothing is ever lost (every parked worker is
//!   either still parked, taken exactly once, or removed), and FCFS
//!   order is arrival order.
//! * [`select_group_ids`] must agree with the legacy string-based
//!   [`select_group`] on arbitrary layouts, needs, and policies.

use jets_core::group::{
    select_group, select_group_ids, Candidate, GroupScratch, GroupingPolicy, LocId,
    LocationInterner,
};
use jets_core::ready::ReadyList;
use jets_core::spec::WorkerId;
use jets_ring::stdx::{check, SplitMix64};

const SEED: u64 = 0x5EED_0001;

#[derive(Debug, Clone)]
enum Op {
    Park(WorkerId, LocId),
    Remove(WorkerId),
    /// Take up to this many from the front (clamped to the current len).
    TakeFront(usize),
    /// Take the entries whose index bit is set in this mask (indices
    /// ≥ 64 are never selected; that's fine for these sequences).
    TakeIndices(u64),
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.gen_range(0..4) {
        0 => Op::Park(rng.gen_range(0..24), rng.gen_range(0..5) as LocId),
        1 => Op::Remove(rng.gen_range(0..24)),
        2 => Op::TakeFront(rng.gen_range(0..10) as usize),
        _ => Op::TakeIndices(rng.next_u64()),
    }
}

#[test]
fn ready_list_matches_ordered_model() {
    check(SEED, 128, |rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..80)).map(|_| gen_op(rng)).collect();
        let mut real = ReadyList::new();
        // The model: parked (worker, loc) pairs in arrival order.
        let mut model: Vec<(WorkerId, LocId)> = Vec::new();
        // Workers handed out by take_*; used to prove no double assignment.
        let mut assigned: Vec<WorkerId> = Vec::new();

        for op in ops {
            match op {
                Op::Park(w, l) => {
                    let expect_new = !model.iter().any(|&(m, _)| m == w);
                    assert_eq!(real.park(w, l), expect_new);
                    if expect_new {
                        model.push((w, l));
                    }
                }
                Op::Remove(w) => {
                    let expect_present = model.iter().any(|&(m, _)| m == w);
                    assert_eq!(real.remove(w), expect_present);
                    model.retain(|&(m, _)| m != w);
                }
                Op::TakeFront(n) => {
                    let n = n.min(model.len());
                    let mut out = Vec::new();
                    real.take_front(n, &mut out);
                    let expected: Vec<WorkerId> = model.drain(..n).map(|(w, _)| w).collect();
                    assert_eq!(&out, &expected, "take_front must be FCFS");
                    assigned.extend(out);
                }
                Op::TakeIndices(mask) => {
                    let indices: Vec<usize> = (0..model.len().min(64))
                        .filter(|i| mask & (1u64 << i) != 0)
                        .collect();
                    let mut out = Vec::new();
                    real.take_indices(&indices, &mut out);
                    let expected: Vec<WorkerId> = indices.iter().map(|&i| model[i].0).collect();
                    assert_eq!(&out, &expected, "take_indices order");
                    for &i in indices.iter().rev() {
                        model.remove(i);
                    }
                    assigned.extend(out);
                }
            }
            // Core invariants after every operation.
            assert_eq!(real.len(), model.len());
            let order: Vec<WorkerId> = real.iter().collect();
            let model_order: Vec<WorkerId> = model.iter().map(|&(w, _)| w).collect();
            assert_eq!(order, model_order, "arrival order must be preserved");
            let entries: Vec<(WorkerId, LocId)> = real.entries().to_vec();
            assert_eq!(&entries, &model, "locations must track workers");
            // No double assignment: a worker taken by the scheduler is no
            // longer parked until it parks again (model membership is the
            // ground truth the `contains` set must agree with).
            for &(w, _) in &model {
                assert!(real.contains(w));
            }
            for &w in &assigned {
                let parked = model.iter().any(|&(m, _)| m == w);
                assert_eq!(real.contains(w), parked);
            }
        }
    });
}

/// The interned selector is a drop-in for the legacy string selector:
/// identical accept/reject decisions and identical chosen indices.
#[test]
fn interned_group_selection_matches_legacy() {
    check(SEED, 128, |rng| {
        let labels: Vec<String> = (0..rng.gen_range(0..24))
            .map(|_| format!("loc{}", rng.gen_range(0..5)))
            .collect();
        let need = rng.gen_range(0..10) as usize;
        let ready_strings: Vec<Candidate> = labels
            .iter()
            .enumerate()
            .map(|(i, label)| Candidate {
                worker: i as WorkerId,
                location: label.clone(),
            })
            .collect();
        let mut interner = LocationInterner::new();
        let ready_ids: Vec<(WorkerId, LocId)> = labels
            .iter()
            .enumerate()
            .map(|(i, label)| (i as WorkerId, interner.intern(label)))
            .collect();
        let policy = if rng.gen_range(0..2) == 1 {
            GroupingPolicy::LocationAware
        } else {
            GroupingPolicy::Fcfs
        };
        let mut scratch = GroupScratch::new();
        let legacy = select_group(policy, &ready_strings, need);
        let ok = select_group_ids(policy, &ready_ids, need, &mut scratch);
        match legacy {
            None => assert!(!ok),
            Some(idx) => {
                assert!(ok);
                assert_eq!(scratch.selected(), &idx[..]);
            }
        }
    });
}
