//! A pilot's side of the world: [`PFx`], the fake behind the real
//! [`PilotCore`](jets_worker::core::PilotCore)'s `Effects` — the process
//! around the core: its runners, with seeded durations, tasks that ignore
//! their grace and results that arrive late — checking every frame and
//! fact as it is emitted.

use jets_core::events::EventKind;
use jets_core::protocol::{TaskAssignment, TaskKind, WorkerMsg};
use jets_core::spec::{JobId, TaskId};
use jets_worker::core::{Effects, Fact};
use std::collections::BTreeMap;

/// What a runner owes: when (`u64::MAX` while its MPI ranks still run),
/// which runner, for which task, and the exit code.
pub(crate) type Owed = (u64, u64, TaskId, i32);

/// An MPI proxy handed to a runner: the runner, the task, its job's id,
/// rank and world size, and the PMI address and job id it was told of.
pub(crate) type Proxy = (u64, TaskId, (JobId, u32, u32), String, String);

/// One pilot process's effects: the time, this input's random bits and
/// frames; the connection (writable from `Registered` on) and `Goodbye`;
/// the assignment being handed over; runner results on their way; this
/// input's new MPI proxies and the tasks whose ranks stand down at once;
/// tasks accepted with no `Done` on a wire yet, and whether tripped; the
/// exec span (0 none, 1 open, 2 closed and awaiting `TaskEnded`).
#[derive(Default)]
pub(crate) struct PFx {
    pub(crate) now: u64,
    pub(crate) dice: u64,
    pub(crate) out: Vec<WorkerMsg>,
    pub(crate) link: Option<u64>,
    pub(crate) wire: bool,
    pub(crate) gone: bool,
    pub(crate) assigning: Option<TaskAssignment>,
    pub(crate) results: Vec<Owed>,
    pub(crate) spawned: Vec<Proxy>,
    pub(crate) killed: Vec<TaskId>,
    pub(crate) owed: BTreeMap<TaskId, bool>,
    pub(crate) span: u8,
}

impl Effects for PFx {
    fn send(&mut self, msg: &WorkerMsg) -> bool {
        assert!(!self.gone, "{msg:?} after Goodbye");
        let claimed = matches!(self.out.first(), Some(WorkerMsg::SessionState { .. }));
        if let (WorkerMsg::Done { task_id, .. }, true) = (msg, self.wire) {
            let tripped = self.owed.remove(task_id).expect("a second Done");
            assert!(!(claimed && tripped), "a canceled Done was stashed");
            assert!(self.out.last() != Some(&WorkerMsg::Request), "Done late");
        }
        let request = *msg == WorkerMsg::Request;
        assert!(!request || self.span == 0, "Request with a task in flight");
        let claim = matches!(msg, WorkerMsg::SessionState { .. });
        assert!(!claim || self.out.is_empty(), "a late claim");
        self.gone = self.wire && *msg == WorkerMsg::Goodbye;
        self.out.extend(self.wire.then(|| msg.clone()));
        self.wire
    }

    fn send_pair(&mut self, done: &WorkerMsg, request: &WorkerMsg) -> bool {
        self.send(done) && self.send(request)
    }

    fn run(&mut self, runner: u64, _fresh: bool) {
        let idle = self.results.iter().all(|r| r.1 != runner);
        assert!(idle, "runner {runner} handed a second task");
        let a = self.assigning.take().expect("a run with no assignment");
        if let TaskKind::MpiProxy {
            ranks,
            size,
            pmi_addr,
            pmi_jobid,
            ..
        } = a.kind
        {
            self.results.push((u64::MAX, runner, a.task_id, 0));
            let place = (a.job_id, ranks[0], size);
            let proxy = (runner, a.task_id, place, pmi_addr, pmi_jobid);
            return self.spawned.push(proxy);
        }
        let due = self.now + 1_000 * (1 + self.dice % 50);
        let failed = (self.dice >> 8).is_multiple_of(10);
        self.results.push((due, runner, a.task_id, failed as i32));
    }

    fn trip(&mut self, task: TaskId) {
        self.owed.insert(task, true);
        // One in three stands down at once; the others ignore their grace.
        let obeys = (self.dice >> 16).is_multiple_of(3);
        let owed = self
            .results
            .iter_mut()
            .find(|r| r.2 == task && r.0 != u64::MAX);
        if let Some(r) = owed.filter(|_| obeys) {
            r.0 = self.now + 1_000 * ((self.dice >> 24) % 3);
        }
        self.killed.extend(obeys.then_some(task));
    }

    fn hang_up_read(&mut self) {}

    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a task's span order is all the world checks here"
    )]
    fn fact(&mut self, fact: Fact) {
        let (from, to) = match fact {
            Fact::Event(EventKind::SpanStart { .. }) => (0, 1),
            Fact::Event(EventKind::SpanEnd { .. }) => (1, 2),
            Fact::Event(EventKind::TaskEnded { .. }) => (2, 0),
            _ => return,
        };
        assert_eq!(self.span, from, "{fact:?}");
        self.span = to;
    }
}
