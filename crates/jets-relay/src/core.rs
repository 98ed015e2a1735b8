//! The relay's decision procedure, and nothing else.
//!
//! [`RelayCore`] is the routing and multiplexing logic of the relay tier:
//! the member table, the local↔global id maps, what each member has in
//! flight or is waiting for, the bounded outage buffer, who was heard
//! when, and which upstream session is current. It is single-threaded and
//! owns no resource. Every entry point is one input — one frame off a
//! member connection (`member_frame`, the member-side protocol: `Register`
//! first, then `Request` / `Done` / `Heartbeat` / `SessionState`), a
//! member's connection closing (`gone`), an upstream `session_up` /
//! `session_down`, one `upstream` frame, a `tick` — taking the caller's
//! `now` (milliseconds on the caller's clock) where the decision depends
//! on it, and everything it causes leaves through the [`Effects`] the
//! caller passes in: frames to members, frames to the dispatcher, the
//! binding of a new member to its connection, and one [`Fact`] per
//! counter or event-log update.
//!
//! What this file may not contain (the shell's `the_core_is_pure` test
//! fails if it does): a clock read, a lock, a shared counter, a spawned
//! worker, a socket, a file or the event ring. The shell in
//! [`crate::daemon`] owns all of those. `cluster_sim::des` drives this
//! same core between the real dispatcher, pilot and PMI cores over delayed
//! links under a seeded fault schedule, which is what the one interface
//! here is for.
//!
//! Two rules carry most of the guarantees. A member has a global id only
//! while the session that acked it is up (`session_down` forgets every
//! id), so nothing is ever routed under a dead session's id; and a frame
//! stamped with any session but the current one is dropped on arrival.
//! Member sweeps iterate in local-id order, so equal inputs give equal
//! effects.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::upqueue::UpQueue;
use jets_core::events::{EventKind, SpanKind, WriterRole};
use jets_core::protocol::{DispatcherMsg, WorkerMsg};
use jets_core::spec::{JobId, TaskId, WorkerId};
use std::collections::BTreeMap;

/// Everything the core can cause. The caller applies each call as it is
/// made: frames on one link leave in call order.
pub trait Effects {
    /// Queue `msg` for member `local` (dropped if its connection is gone).
    fn to_member(&mut self, local: u64, msg: &DispatcherMsg);
    /// Queue `msg` on the current upstream session.
    fn to_upstream(&mut self, msg: &WorkerMsg);
    /// Member `local`, just registered, is the connection the current
    /// frame was read from: route its `to_member` frames there.
    fn bind(&mut self, local: u64);
    /// One counter or event-log update, emitted once.
    fn fact(&mut self, fact: Fact);
}

/// What the shell's metric surface and event log learn from the core.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// A record for the relay's own event log: the `relay-forward` span
    /// edges and the rate-limited `UpQueueDropped`.
    Event(EventKind),
    /// The dispatcher acked the current session's hello.
    HelloAcked,
    /// The outage buffer evicted its oldest result.
    Dropped,
    /// This many same-job siblings of a dead member were cancelled
    /// locally, without an upstream round-trip.
    LocalCancels(u64),
    /// One batched liveness frame went upstream.
    Heartbeat,
}

/// A member's task result as it arrived: task, exit code, wall time in
/// milliseconds, output tail, trace id.
pub type DoneFrame = (TaskId, i32, u64, Option<String>, u64);

/// At most one `UpQueueDropped` event per this many milliseconds: a
/// sustained overflow must not flood the log it reports on.
const DROP_EVENT_GAP_MS: u64 = 1_000;

/// One downstream worker, as the relay sees it.
struct Member {
    /// Name, cores and location, as registered.
    who: (String, u32, String),
    /// Dispatcher-assigned id under the current session; `None` until
    /// that session's `RelayRegistered` ack lands.
    global: Option<WorkerId>,
    /// When the member was last heard.
    heard: u64,
    /// The task/job the member is executing, for local gang fan-out and
    /// for claiming it after a re-registration.
    inflight: Option<(TaskId, JobId)>,
    /// True between the member's `Request` and its next `Assign`; the
    /// request is re-issued after every re-registration ack.
    wants_work: bool,
}

/// Routing state and the transitions over it. See the module docs.
///
/// Invariant: `by_global` holds exactly the members whose `global` is
/// set, and both are empty while no session is up.
pub struct RelayCore {
    /// Relay name and location, for `RelayHello`.
    hello: (String, String),
    stale_ms: u64,
    members: BTreeMap<u64, Member>,
    by_global: BTreeMap<WorkerId, u64>,
    session: Option<u64>,
    /// This relay's id under the last acked hello (0 before the first);
    /// stamps its event records.
    relay_id: WorkerId,
    /// Results with no acked id to travel under, by member.
    held: UpQueue<(u64, DoneFrame)>,
    dropped: u64,
    drop_reported_at: Option<u64>,
    next_local: u64,
}

fn routed_done(worker: WorkerId, done: DoneFrame) -> WorkerMsg {
    let (task_id, exit_code, wall_ms, output, trace) = done;
    WorkerMsg::RelayDone {
        worker,
        task_id,
        exit_code,
        wall_ms,
        output,
        trace,
    }
}

fn announce<E: Effects>(local: u64, m: &Member, fx: &mut E) {
    let (name, cores, location) = m.who.clone();
    fx.to_upstream(&WorkerMsg::RelayRegister {
        local,
        name,
        cores,
        location,
    });
}

impl RelayCore {
    /// An empty core for the relay `name` at `location`. A member silent
    /// for more than `stale_ms` drops out of the batched liveness frames;
    /// the outage buffer holds at most `upqueue_limit` results.
    pub fn new(name: String, location: String, stale_ms: u64, upqueue_limit: usize) -> RelayCore {
        RelayCore {
            hello: (name, location),
            stale_ms,
            members: BTreeMap::new(),
            by_global: BTreeMap::new(),
            session: None,
            relay_id: 0,
            held: UpQueue::new(upqueue_limit),
            dropped: 0,
            drop_reported_at: None,
            next_local: 0,
        }
    }

    /// Currently connected members.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Results waiting in the outage buffer.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Member `local`'s id under the current session, once acked.
    pub fn global(&self, local: u64) -> Option<WorkerId> {
        self.members.get(&local)?.global
    }

    /// The routing table: current-session global id → local id.
    pub fn routes(&self) -> impl Iterator<Item = (WorkerId, u64)> + '_ {
        self.by_global.iter().map(|(&g, &l)| (g, l))
    }

    /// What member `local` is running, as far as the relay knows.
    pub fn inflight(&self, local: u64) -> Option<(TaskId, JobId)> {
        self.members.get(&local)?.inflight
    }

    /// One frame off a member connection; `local` is the member's
    /// relay-local id once it has said `Register` — the first frame, and
    /// only the first. False: sever the connection (`Goodbye`, anything
    /// but `Register` first or `Register` twice, a relay-scoped frame:
    /// relays do not chain); [`RelayCore::gone`] then unwinds the member.
    pub fn member_frame<E: Effects>(
        &mut self,
        now: u64,
        local: &mut Option<u64>,
        msg: WorkerMsg,
        fx: &mut E,
    ) -> bool {
        let found = local.and_then(|l| Some((l, self.members.get_mut(&l)?)));
        let Some((l, m)) = found else {
            let (
                None,
                WorkerMsg::Register {
                    name,
                    cores,
                    location,
                },
            ) = (*local, msg)
            else {
                return false;
            };
            // Its own `Registered` is sent only once the dispatcher acks,
            // so a member never races ahead of its global id.
            let member = Member {
                who: (name, cores, location),
                global: None,
                heard: now,
                inflight: None,
                wants_work: false,
            };
            let l = self.next_local;
            self.next_local += 1;
            if self.session.is_some() {
                announce(l, &member, fx);
            }
            self.members.insert(l, member);
            fx.bind(l);
            *local = Some(l);
            return true;
        };
        m.heard = now;
        match msg {
            // Un-acked, the wish is only remembered: the ack re-issues it.
            WorkerMsg::Request => {
                m.wants_work = true;
                if let Some(worker) = m.global {
                    fx.to_upstream(&WorkerMsg::RelayRequest { worker });
                }
            }
            WorkerMsg::Done {
                task_id,
                exit_code,
                wall_ms,
                output,
                trace,
            } => {
                m.inflight = None;
                let done = (task_id, exit_code, wall_ms, output, trace);
                match m.global {
                    Some(worker) => fx.to_upstream(&routed_done(worker, done)),
                    None => self.hold(now, l, done, fx),
                }
            }
            // Heartbeats stop here; `tick` batches them.
            WorkerMsg::Heartbeat => {}
            // Re-registered carrying a task across its own outage: adopt
            // the claim and forward it under the member's id — now, or
            // from the ack if that is still in flight.
            WorkerMsg::SessionState { running } => {
                if let Some((task_id, job_id)) = running {
                    m.inflight = running;
                    if let Some(worker) = m.global {
                        fx.to_upstream(&WorkerMsg::RelayMemberState {
                            worker,
                            task_id,
                            job_id,
                        });
                    }
                }
            }
            WorkerMsg::Register { .. }
            | WorkerMsg::Goodbye
            | WorkerMsg::RelayHello { .. }
            | WorkerMsg::RelayRegister { .. }
            | WorkerMsg::RelayRequest { .. }
            | WorkerMsg::RelayDone { .. }
            | WorkerMsg::BatchedHeartbeat { .. }
            | WorkerMsg::RelayWorkerGone { .. }
            | WorkerMsg::RelayMemberState { .. } => return false,
        }
        true
    }

    /// Hold member `local`'s result, which has no acked id to travel
    /// under, for replay after the next ack; at the mark the oldest held
    /// result is dropped.
    fn hold<E: Effects>(&mut self, now: u64, local: u64, done: DoneFrame, fx: &mut E) {
        if self.held.push((local, done)) {
            self.dropped += 1;
            fx.fact(Fact::Dropped);
            // The event carries the cumulative count, so consecutive
            // events show the loss rate across the gap.
            let due = |at| now.saturating_sub(at) >= DROP_EVENT_GAP_MS;
            if self.drop_reported_at.is_none_or(due) {
                self.drop_reported_at = Some(now);
                let (relay, dropped) = (self.relay_id, self.dropped);
                fx.fact(Fact::Event(EventKind::UpQueueDropped { relay, dropped }));
            }
        }
    }

    /// Member `local`'s connection dropped. Same-job members are
    /// cancelled here, without waiting for the dispatcher round-trip (its
    /// own `RelayCancel` arrives later and the worker ignores the
    /// duplicate), and the dispatcher is told — unless the member was
    /// never acked, in which case it never existed upstream.
    pub fn gone<E: Effects>(&mut self, local: u64, fx: &mut E) {
        let Some(m) = self.members.remove(&local) else {
            return;
        };
        self.held.extract(|(l, _)| *l == local);
        if let Some((_, job)) = m.inflight {
            let mut cancels = 0;
            for (&sibling, s) in &self.members {
                if let Some((task_id, _)) = s.inflight.filter(|&(_, j)| j == job) {
                    fx.to_member(sibling, &DispatcherMsg::Cancel { task_id });
                    cancels += 1;
                }
            }
            if cancels > 0 {
                fx.fact(Fact::LocalCancels(cancels));
            }
        }
        if let Some(worker) = m.global {
            self.by_global.remove(&worker);
            fx.to_upstream(&WorkerMsg::RelayWorkerGone { worker });
        }
    }

    /// Upstream session `n` is connected: say hello and re-register the
    /// whole block (new session, new global ids).
    pub fn session_up<E: Effects>(&mut self, n: u64, fx: &mut E) {
        self.forget_session();
        self.session = Some(n);
        let (name, location) = self.hello.clone();
        fx.to_upstream(&WorkerMsg::RelayHello { name, location });
        for (&local, m) in &self.members {
            announce(local, m, fx);
        }
    }

    /// Upstream session `n` is over; a session already replaced is
    /// ignored.
    pub fn session_down(&mut self, n: u64) {
        if self.session == Some(n) {
            self.forget_session();
        }
    }

    fn forget_session(&mut self) {
        self.session = None;
        self.by_global.clear();
        for m in self.members.values_mut() {
            m.global = None;
        }
    }

    /// One dispatcher frame read off session `n`. A frame from any
    /// session but the current one is dropped: its ids mean nothing now.
    /// Returns false when the dispatcher ordered shutdown.
    pub fn upstream<E: Effects>(&mut self, n: u64, msg: DispatcherMsg, fx: &mut E) -> bool {
        if self.session != Some(n) {
            return true;
        }
        match msg {
            // The relay's own hello ack.
            DispatcherMsg::Registered { worker_id } => {
                self.relay_id = worker_id;
                fx.fact(Fact::HelloAcked);
            }
            DispatcherMsg::RelayRegistered { local, worker_id } => self.acked(local, worker_id, fx),
            DispatcherMsg::RelayAssign { worker, assignment } => {
                let Some((local, m)) = self.routed(worker) else {
                    // Assigned to a member that just died; tell the
                    // dispatcher so it tears the gang down promptly.
                    fx.to_upstream(&WorkerMsg::RelayWorkerGone { worker });
                    return true;
                };
                let (trace, job, task) = (assignment.trace, assignment.job_id, assignment.task_id);
                (m.inflight, m.wants_work) = (Some((task, job)), false);
                // The forward span covers unwrap → member queue; the
                // socket drain shows as the gap to the worker's stage span.
                let (kind, role) = (SpanKind::RelayForward, WriterRole::Relay);
                let start = EventKind::SpanStart {
                    trace,
                    kind,
                    role,
                    job,
                    task,
                };
                let end = EventKind::SpanEnd {
                    trace,
                    kind,
                    role,
                    job,
                    task,
                };
                fx.fact(Fact::Event(start));
                fx.to_member(local, &DispatcherMsg::Assign(assignment));
                fx.fact(Fact::Event(end));
            }
            DispatcherMsg::RelayCancel { worker, task_id } => {
                if let Some((local, m)) = self.routed(worker) {
                    m.inflight.take_if(|(t, _)| *t == task_id);
                    fx.to_member(local, &DispatcherMsg::Cancel { task_id });
                }
            }
            DispatcherMsg::Shutdown => {
                for &local in self.members.keys() {
                    fx.to_member(local, &DispatcherMsg::Shutdown);
                }
                return false;
            }
            // Unrouted worker-directed frames on the relay connection are
            // a dispatcher bug; drop them rather than guessing a member.
            DispatcherMsg::Assign(_) | DispatcherMsg::Cancel { .. } => {}
        }
        true
    }

    /// The member a routed envelope for `worker` addresses, if it is
    /// still here.
    fn routed(&mut self, worker: WorkerId) -> Option<(u64, &mut Member)> {
        let local = *self.by_global.get(&worker)?;
        Some((local, self.members.get_mut(&local)?))
    }

    /// The dispatcher acked member `local` as `worker`: complete the
    /// member's handshake, then replay what the outage held, in the order
    /// the dispatcher needs — the claim on a task still running (so a
    /// restarted dispatcher re-adopts instead of relaunching), the held
    /// results, the standing request.
    fn acked<E: Effects>(&mut self, local: u64, worker: WorkerId, fx: &mut E) {
        let Some(m) = self.members.get_mut(&local) else {
            // The member left between registration and ack.
            return fx.to_upstream(&WorkerMsg::RelayWorkerGone { worker });
        };
        m.global = Some(worker);
        self.by_global.insert(worker, local);
        // A re-registration's duplicate is ignored by the agent.
        fx.to_member(local, &DispatcherMsg::Registered { worker_id: worker });
        if let Some((task_id, job_id)) = m.inflight {
            fx.to_upstream(&WorkerMsg::RelayMemberState {
                worker,
                task_id,
                job_id,
            });
        }
        for (_, done) in self.held.extract(|(l, _)| *l == local) {
            fx.to_upstream(&routed_done(worker, done));
        }
        if m.wants_work {
            fx.to_upstream(&WorkerMsg::RelayRequest { worker });
        }
    }

    /// The liveness period elapsed: one `BatchedHeartbeat` vouching for
    /// every acked member heard within the staleness window. A no-op
    /// while no session is up — a tick is an input, never a queued frame.
    pub fn tick<E: Effects>(&mut self, now: u64, fx: &mut E) {
        if self.session.is_none() {
            return;
        }
        let fresh = |m: &&Member| now.saturating_sub(m.heard) <= self.stale_ms;
        let heard = self.members.values().filter(fresh);
        let workers: Vec<WorkerId> = heard.filter_map(|m| m.global).collect();
        if !workers.is_empty() {
            fx.to_upstream(&WorkerMsg::BatchedHeartbeat { workers });
            fx.fact(Fact::Heartbeat);
        }
    }
}
