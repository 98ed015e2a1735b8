//! The relay's side of the world: [`RFx`], the fake behind the real
//! [`RelayCore`](jets_relay::core::RelayCore)'s `Effects`, checking each
//! frame as it is emitted.

use jets_core::protocol::{DispatcherMsg, WorkerMsg};
use jets_core::spec::{JobId, TaskId, WorkerId};
use jets_relay::core::{Effects, Fact};
use std::collections::{BTreeMap, BTreeSet};

/// One frame the relay sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Out {
    /// To the dispatcher, on the current session.
    Up(WorkerMsg),
    /// To member `local`.
    Down(u64, DispatcherMsg),
}

/// The relay's effects: this input's frames, checked as they are emitted.
#[derive(Default)]
pub struct RFx {
    /// Counter and event-log updates so far.
    pub facts: Vec<Fact>,
    /// The acks the current session has delivered: global → local.
    pub acked: BTreeMap<WorkerId, u64>,
    /// Results forwarded under the current session.
    pub(crate) forwarded: BTreeSet<(WorkerId, TaskId)>,
    /// What has been forwarded to each member and not seen end.
    pub(crate) inflight: BTreeMap<u64, (TaskId, JobId)>,
    /// The `Cancel`s sent to members (the world clears it per input).
    pub(crate) cancels: BTreeSet<(u64, TaskId)>,
    out: Vec<Out>,
    /// Per input and worker, the last kind sent up: claim 0 → result 1 →
    /// request 2.
    rank: BTreeMap<WorkerId, u8>,
}

impl RFx {
    fn routed(&mut self, worker: WorkerId, rank: u8) {
        let acked = self.acked.contains_key(&worker);
        assert!(acked, "a frame for worker {worker} ahead of its ack");
        let last = self.rank.insert(worker, rank).unwrap_or(0);
        assert!(last <= rank, "worker {worker}: {rank} sent after {last}");
    }

    /// This input's frames, taken.
    pub fn sent(&mut self) -> Vec<Out> {
        self.rank.clear();
        std::mem::take(&mut self.out)
    }

    /// Forget the frames and facts so far.
    pub fn reset(&mut self) {
        self.facts.clear();
        self.sent();
    }
}

impl Effects for RFx {
    fn to_member(&mut self, local: u64, msg: &DispatcherMsg) {
        if let DispatcherMsg::Registered { worker_id } = msg {
            let acked = self.acked.get(worker_id);
            assert_eq!(acked, Some(&local), "an ack nobody delivered");
        } else if let DispatcherMsg::Assign(a) = msg {
            self.inflight.insert(local, (a.task_id, a.job_id));
        } else if let DispatcherMsg::Cancel { task_id } = *msg {
            self.cancels.insert((local, task_id));
        }
        self.out.push(Out::Down(local, msg.clone()));
    }

    fn to_upstream(&mut self, msg: &WorkerMsg) {
        if let WorkerMsg::RelayMemberState { worker, .. } = *msg {
            self.routed(worker, 0);
        } else if let WorkerMsg::RelayDone {
            worker, task_id, ..
        } = *msg
        {
            self.routed(worker, 1);
            let first = self.forwarded.insert((worker, task_id));
            assert!(first, "task {task_id} reported twice in one session");
        } else if let WorkerMsg::RelayRequest { worker } = *msg {
            self.routed(worker, 2);
        }
        self.out.push(Out::Up(msg.clone()));
    }

    fn fact(&mut self, fact: Fact) {
        self.facts.push(fact);
    }
}
