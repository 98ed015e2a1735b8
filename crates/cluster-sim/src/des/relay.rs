//! The relay's side of the world: [`RFx`], the fake behind the real
//! [`RelayCore`](jets_relay::core::RelayCore)'s `Effects`, checking each
//! frame as it is emitted, and the relay's end of every member
//! connection.

use jets_core::protocol::{DispatcherMsg, WorkerMsg};
use jets_core::spec::{TaskId, WorkerId};
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
    /// The relay's end of each member connection: the member's local id,
    /// once it has registered.
    pub peers: BTreeMap<u64, Option<u64>>,
    /// The member connection the current frame was read from.
    pub from: u64,
    /// Where each bound member's frames go: local id → connection.
    pub links: BTreeMap<u64, u64>,
    /// Results forwarded under the current session.
    pub(crate) forwarded: BTreeSet<(WorkerId, TaskId)>,
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

    fn bind(&mut self, local: u64) {
        let fresh = self.links.insert(local, self.from).is_none();
        assert!(fresh, "member {local} bound twice");
    }

    fn fact(&mut self, fact: Fact) {
        self.facts.push(fact);
    }
}
