//! The process-manager side of PMI as a table: each open job's size,
//! key-value space, fence deadline, finalize count, outcome and first fence
//! release, keyed by job id — what `mpiexec` keeps serving under
//! `launcher=manual` while someone else starts the proxies.
//!
//! [`PmiService`] has no socket, clock, lock or thread in it: one `&mut self`
//! entry point per input (a line from a connection, a disconnect, the
//! manager's `open_job` / `abort_job` / `close_job`, a `tick`), `now` passed
//! in where a deadline depends on it, every reply through [`Effects`].
//! [`crate::PmiState`] makes it the state of the event loop serving its
//! ranks: the dispatcher's, or a stand-alone [`crate::PmiServer`]'s.
//!
//! A connection that breaks the protocol — an undecodable line, anything
//! before `init`, `init` twice, a job that is not open, a rank out of range
//! or taken — is answered `cmd=abort`, closed and counted; if it spoke for a
//! rank, that rank's job, and no other, aborts.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::kvs::{FenceResult, KeyValueSpace};
use crate::wire::Message;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How the service names a connection; the shell picks the numbers.
pub type ConnId = u64;

/// Longest line a rank may send: a `put` of a fully escaped key and value.
pub const MAX_LINE: usize = 32 * 1024;

/// Final status of a PMI job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every rank connected, initialized, and finalized.
    Success,
    /// The job aborted (explicit `cmd=abort`, early disconnect, or fence
    /// failure). Carries the first abort reason observed.
    Aborted(String),
    /// [`crate::PmiServer::wait`] gave up before the job finished.
    TimedOut,
}

/// Where the service's replies go.
pub trait Effects {
    /// Queue `msg` on each of `to` (a connection already gone is skipped).
    fn send(&mut self, to: &[ConnId], msg: &Message);
    /// Close `conn` once what was queued on it is written.
    fn close(&mut self, conn: ConnId);
}

/// What a line may do besides its replies: complete a job's *first* fence.
/// The opener's tag for that job, and when.
pub type Released = Option<(u64, Instant)>;

struct Job {
    tag: u64,
    size: u32,
    kvs: KeyValueSpace,
    fence_timeout: Duration,
    /// When the fence the parked arrivals wait in gives up.
    deadline: Option<Instant>,
    /// The connection speaking for each rank.
    ranks: Vec<Option<ConnId>>,
    finalized: u32,
    outcome: Option<JobOutcome>,
    first_fence: Option<Instant>,
}

struct Member {
    jobid: String,
    rank: u32,
    finalized: bool,
}

/// The PMI jobs of one manager and the rank connections speaking for them.
/// Both tables are ordered, so a sweep (`tick`) answers in job-id order
/// and equal inputs give equal replies, bit for bit.
#[derive(Default)]
pub struct PmiService {
    jobs: BTreeMap<String, Job>,
    members: BTreeMap<ConnId, Member>,
    protocol_errors: u64,
}

type Fx<'a> = &'a mut dyn Effects;

impl PmiService {
    /// Open `jobid` for `size` ranks, `tag` being the opener's name for it;
    /// a fence waits `fence_timeout` from its first arrival. False if that
    /// id is already open.
    pub fn open_job(&mut self, jobid: &str, tag: u64, size: u32, fence_timeout: Duration) -> bool {
        if self.jobs.contains_key(jobid) {
            return false;
        }
        let job = Job {
            tag,
            size,
            kvs: KeyValueSpace::new(size),
            fence_timeout,
            deadline: None,
            ranks: vec![None; size as usize],
            finalized: 0,
            outcome: None,
            first_fence: None,
        };
        self.jobs.insert(jobid.to_string(), job);
        true
    }

    /// Abort `jobid` from the manager side (e.g. a worker died before its
    /// proxy connected): ranks parked in its fence are answered
    /// `cmd=abort`, and so is every later fence.
    pub fn abort_job(&mut self, jobid: &str, reason: &str, fx: Fx) {
        if let Some(job) = self.jobs.get_mut(jobid) {
            fail(job, &mut self.members, reason, fx);
        }
    }

    /// Forget `jobid`, closing whatever connections it still has. Returns
    /// when its first fence released, if one did.
    pub fn close_job(&mut self, jobid: &str, fx: Fx) -> Option<Instant> {
        let job = self.jobs.remove(jobid)?;
        for conn in job.ranks.into_iter().flatten() {
            if self.members.remove(&conn).is_some() {
                fx.close(conn);
            }
        }
        job.first_fence
    }

    /// One line from `conn`, newline stripped.
    pub fn on_frame(&mut self, conn: ConnId, line: &[u8], now: Instant, fx: Fx) -> Released {
        let text = std::str::from_utf8(line).ok();
        match text.filter(|l| l.len() <= MAX_LINE).map(Message::decode) {
            Some(Ok(msg)) => self.on_message(conn, msg, now, fx),
            Some(Err(e)) => self.violation(conn, &e.to_string(), fx),
            None => self.violation(conn, "line too long or not utf-8", fx),
        }
    }

    /// One decoded message from `conn`.
    pub fn on_message(&mut self, conn: ConnId, msg: Message, now: Instant, fx: Fx) -> Released {
        let Some(member) = self.members.get_mut(&conn) else {
            return match msg {
                Message::Init { rank, size, jobid } => self.init(conn, rank, size, jobid, fx),
                other => self.violation(conn, &format!("{other:?} before init"), fx),
            };
        };
        let job = self.jobs.get_mut(&member.jobid)?; // members go with their job
        let rank = member.rank;
        match msg {
            Message::Put { key, value } => match job.kvs.put(&key, &value) {
                Ok(()) => fx.send(&[conn], &Message::PutAck),
                Err(why) => {
                    let reason = format!("rank {rank}: {why}");
                    fx.send(&[conn], &Message::Abort { reason: why });
                    self.drop_conn(conn, &reason, fx);
                }
            },
            Message::Get { key } => match job.kvs.get(&key) {
                Some(value) => {
                    let value = value.to_string();
                    fx.send(&[conn], &Message::GetAck { value });
                }
                None => fx.send(&[conn], &Message::GetFail { key }),
            },
            Message::Fence => match job.kvs.arrive(conn) {
                FenceResult::Waiting => {
                    job.deadline.get_or_insert(now + job.fence_timeout);
                }
                FenceResult::Released(arrivals, pairs) => {
                    job.deadline = None;
                    fx.send(&arrivals, &Message::FenceAck { pairs });
                    if job.first_fence.is_none() {
                        job.first_fence = Some(now);
                        return Some((job.tag, now));
                    }
                }
                FenceResult::Aborted(reason) => {
                    fx.send(&[conn], &Message::Abort { reason });
                    self.members.remove(&conn); // the abort is on record
                    fx.close(conn);
                }
            },
            Message::Finalize => {
                fx.send(&[conn], &Message::FinalizeAck);
                if !std::mem::replace(&mut member.finalized, true) {
                    job.finalized += 1;
                }
                if job.finalized == job.size && job.outcome.is_none() {
                    job.outcome = Some(JobOutcome::Success);
                }
            }
            Message::Abort { reason } => {
                self.drop_conn(conn, &format!("rank {rank} aborted: {reason}"), fx);
            }
            other => return self.violation(conn, &format!("unexpected {other:?}"), fx),
        }
        None
    }

    /// `conn` is gone. Before its `finalize` that aborts its job.
    pub fn on_disconnect(&mut self, conn: ConnId, fx: Fx) {
        if let Some(rank) = self.members.get(&conn).map(|m| m.rank) {
            let reason = format!("rank {rank} disconnected before finalize");
            self.drop_conn(conn, &reason, fx);
        }
    }

    /// Abort every job whose fence has waited past its deadline.
    pub fn tick(&mut self, now: Instant, fx: Fx) {
        for job in self.jobs.values_mut() {
            if job.deadline.is_some_and(|deadline| now >= deadline) {
                let reason = format!("fence timed out after {:?}", job.fence_timeout);
                fail(job, &mut self.members, &reason, fx);
            }
        }
    }

    /// The earliest fence deadline: when [`PmiService::tick`] next has work.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.jobs.values().filter_map(|job| job.deadline).min()
    }

    /// `jobid`'s outcome, once it has one.
    pub fn outcome(&self, jobid: &str) -> Option<&JobOutcome> {
        self.jobs.get(jobid)?.outcome.as_ref()
    }

    /// Connections refused or closed for breaking the protocol.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }

    fn init(&mut self, conn: ConnId, rank: u32, size: u32, jobid: String, fx: Fx) -> Released {
        let Some(job) = self.jobs.get_mut(&jobid) else {
            return self.violation(conn, &format!("job {jobid} is not open"), fx);
        };
        if size != job.size {
            // A rank launched with the wrong world size: the job cannot
            // complete, whoever else connects.
            let reason = format!("rank {rank} announced size {size}, expected {}", job.size);
            fail(job, &mut self.members, &reason, fx);
            return self.violation(conn, &reason, fx);
        }
        match job.ranks.get_mut(rank as usize) {
            Some(slot @ None) => *slot = Some(conn),
            Some(Some(_)) => return self.violation(conn, &format!("rank {rank} is taken"), fx),
            None => return self.violation(conn, &format!("rank {rank} of {size}"), fx),
        }
        let member = Member {
            jobid,
            rank,
            finalized: false,
        };
        self.members.insert(conn, member);
        fx.send(&[conn], &Message::InitAck);
        None
    }

    /// `conn` broke the protocol: answer, close, count — and abort the
    /// job it spoke for, if it spoke for one.
    fn violation(&mut self, conn: ConnId, why: &str, fx: Fx) -> Released {
        self.protocol_errors += 1;
        let reason = format!("pmi protocol error: {why}");
        let told = Message::Abort {
            reason: reason.clone(),
        };
        fx.send(&[conn], &told);
        self.drop_conn(conn, &reason, fx);
        None
    }

    /// Close `conn`; unless it had finalized, its job aborts with `reason`.
    fn drop_conn(&mut self, conn: ConnId, reason: &str, fx: Fx) {
        fx.close(conn);
        let Some(member) = self.members.remove(&conn).filter(|m| !m.finalized) else {
            return;
        };
        if let Some(job) = self.jobs.get_mut(&member.jobid) {
            fail(job, &mut self.members, reason, fx);
        }
    }
}

/// Record the abort (the first reason sticks) and answer everyone parked
/// in the job's fence.
fn fail(job: &mut Job, members: &mut BTreeMap<ConnId, Member>, reason: &str, fx: Fx) {
    let reason = reason.to_string();
    job.outcome
        .get_or_insert(JobOutcome::Aborted(reason.clone()));
    job.deadline = None;
    let (parked, reason) = job.kvs.abort(reason);
    if !parked.is_empty() {
        fx.send(&parked, &Message::Abort { reason });
    }
    for conn in parked {
        members.remove(&conn);
        fx.close(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_ring::stdx::{check, SplitMix64};

    const PATIENCE: Duration = Duration::from_secs(60);

    /// What the service did, in order.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(ConnId, Message)>,
        closed: Vec<ConnId>,
    }

    impl Effects for Recorder {
        fn send(&mut self, to: &[ConnId], msg: &Message) {
            self.sent.extend(to.iter().map(|&conn| (conn, msg.clone())));
        }
        fn close(&mut self, conn: ConnId) {
            self.closed.push(conn);
        }
    }

    impl Recorder {
        /// The replies since the last call, as `(conn, reply)`.
        fn take(&mut self) -> Vec<(ConnId, Message)> {
            std::mem::take(&mut self.sent)
        }
    }

    fn init(rank: u32, size: u32, jobid: &str) -> Message {
        let jobid = jobid.to_string();
        Message::Init { rank, size, jobid }
    }

    fn put(key: &str, value: &str) -> Message {
        let (key, value) = (key.to_string(), value.to_string());
        Message::Put { key, value }
    }

    fn abort(reason: &str) -> Message {
        let reason = reason.to_string();
        Message::Abort { reason }
    }

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        let own = |(k, v): &(&str, &str)| (k.to_string(), v.to_string());
        kv.iter().map(own).collect()
    }

    /// A service with `jobid` open and ranks `0..size` initialised on
    /// connections `base..base + size`.
    fn with_job(jobid: &str, size: u32, base: ConnId) -> (PmiService, Recorder, Instant) {
        let (mut s, mut fx, t0) = (PmiService::default(), Recorder::default(), Instant::now());
        join(&mut s, &mut fx, jobid, size, base, t0);
        (s, fx, t0)
    }

    fn join(
        s: &mut PmiService,
        fx: &mut Recorder,
        jobid: &str,
        size: u32,
        base: ConnId,
        t: Instant,
    ) {
        assert!(s.open_job(jobid, base, size, PATIENCE));
        for rank in 0..size {
            let conn = base + rank as u64;
            assert_eq!(s.on_message(conn, init(rank, size, jobid), t, fx), None);
            assert_eq!(fx.take(), [(conn, Message::InitAck)]);
        }
    }

    #[test]
    fn a_fence_releases_once_per_generation_and_only_when_all_ranks_arrived() {
        let (mut s, mut fx, t0) = with_job("j", 3, 10);
        for generation in 0..3u64 {
            let now = t0 + Duration::from_millis(generation);
            let key = format!("k{generation}");
            assert_eq!(s.on_message(11, put(&key, "v"), now, &mut fx), None);
            assert_eq!(fx.take(), [(11, Message::PutAck)]);
            for conn in [12, 10] {
                assert_eq!(s.on_message(conn, Message::Fence, now, &mut fx), None);
                assert_eq!(fx.take(), [], "a parked rank hears nothing");
            }
            assert_eq!(s.next_deadline(), Some(now + PATIENCE));
            // Only the job's first release is reported, with the opener's tag.
            let released = s.on_message(11, Message::Fence, now, &mut fx);
            assert_eq!(released, (generation == 0).then_some((10, now)));
            let ack = Message::FenceAck {
                pairs: pairs(&[(&key, "v")]),
            };
            let acks = [12, 10, 11].map(|conn| (conn, ack.clone()));
            assert_eq!(fx.take(), acks, "everyone is answered, in arrival order");
            assert_eq!(s.next_deadline(), None);
        }
        assert!(fx.closed.is_empty());
        assert_eq!(s.close_job("j", &mut fx), Some(t0), "the first release");
    }

    #[test]
    fn every_rank_finalizing_is_success_and_leaving_after_that_is_not_an_abort() {
        let (mut s, mut fx, t0) = with_job("j", 2, 1);
        assert_eq!(s.on_message(1, Message::Finalize, t0, &mut fx), None);
        assert_eq!(s.outcome("j"), None);
        s.on_disconnect(1, &mut fx);
        assert_eq!(s.outcome("j"), None, "rank 0 had finalized");
        s.on_message(2, Message::Finalize, t0, &mut fx);
        assert_eq!(s.outcome("j"), Some(&JobOutcome::Success));
        let acks = [1, 2].map(|conn| (conn, Message::FinalizeAck));
        assert_eq!(fx.take(), acks);
        s.on_disconnect(2, &mut fx);
        assert_eq!(s.outcome("j"), Some(&JobOutcome::Success));
    }

    #[test]
    fn a_disconnect_before_finalize_aborts_the_job_and_answers_the_parked() {
        let (mut s, mut fx, t0) = with_job("j", 3, 1);
        s.on_message(1, Message::Fence, t0, &mut fx);
        s.on_message(2, Message::Fence, t0, &mut fx);
        s.on_disconnect(3, &mut fx);
        let why = "rank 2 disconnected before finalize";
        assert_eq!(s.outcome("j"), Some(&JobOutcome::Aborted(why.to_string())));
        assert_eq!(fx.take(), [1, 2].map(|conn| (conn, abort(why))));
        assert_eq!(fx.closed, [3, 1, 2]);
        assert_eq!(s.next_deadline(), None);
        assert_eq!(s.protocol_errors(), 0);
    }

    #[test]
    fn a_manager_abort_answers_each_parked_rank_and_every_later_fence() {
        let (mut s, mut fx, t0) = with_job("j", 4, 1);
        for conn in [1, 2, 3] {
            s.on_message(conn, Message::Fence, t0, &mut fx);
        }
        s.abort_job("j", "scheduler killed the job", &mut fx);
        let told = abort("scheduler killed the job");
        assert_eq!(fx.take(), [1, 2, 3].map(|conn| (conn, told.clone())));
        assert_eq!(fx.closed, [1, 2, 3]);
        // The straggler is told when it gets there; the first reason sticks.
        s.abort_job("j", "again", &mut fx);
        assert_eq!(s.on_message(4, Message::Fence, t0, &mut fx), None);
        assert_eq!(fx.take(), [(4, told)]);
        assert_eq!(fx.closed, [1, 2, 3, 4]);
    }

    #[test]
    fn a_tick_past_the_deadline_aborts_and_withdraws() {
        let (mut s, mut fx, t0) = with_job("j", 2, 1);
        s.on_message(1, Message::Fence, t0, &mut fx);
        s.tick(t0 + PATIENCE - Duration::from_millis(1), &mut fx);
        assert_eq!((fx.take(), s.outcome("j")), (vec![], None));
        s.tick(t0 + PATIENCE, &mut fx);
        let why = format!("fence timed out after {PATIENCE:?}");
        assert_eq!(fx.take(), [(1, abort(&why))]);
        assert_eq!(s.outcome("j"), Some(&JobOutcome::Aborted(why)));
        assert_eq!((s.next_deadline(), &fx.closed[..]), (None, &[1][..]));
        s.tick(t0 + 2 * PATIENCE, &mut fx);
        assert_eq!(fx.take(), [], "nobody is parked any more");
    }

    /// Two fences expiring in one tick abort in job-id order, whatever the
    /// process: a hashed table answered in an order that changed with
    /// every fresh service.
    #[test]
    fn fences_expiring_in_one_tick_abort_in_job_id_order() {
        for _ in 0..64 {
            let (mut s, mut fx, t0) = with_job("b", 2, 20);
            join(&mut s, &mut fx, "a", 2, 10, t0);
            for conn in [20, 10] {
                s.on_message(conn, Message::Fence, t0, &mut fx);
            }
            s.tick(t0 + PATIENCE, &mut fx);
            let told: Vec<ConnId> = fx.take().into_iter().map(|(conn, _)| conn).collect();
            assert_eq!((told, &fx.closed[..]), (vec![10, 20], &[10, 20][..]));
        }
    }

    #[test]
    fn closing_a_job_closes_its_live_connections_and_returns_its_first_fence() {
        let (mut s, mut fx, t0) = with_job("j", 2, 1);
        s.on_message(1, Message::Fence, t0, &mut fx);
        s.on_message(2, Message::Fence, t0, &mut fx);
        s.on_disconnect(2, &mut fx);
        assert_eq!(s.close_job("j", &mut fx), Some(t0));
        assert_eq!(fx.closed, [2, 1], "2 when it left, 1 with the job");
        assert_eq!(s.close_job("j", &mut fx), None);
        // The id can be opened again (a retried attempt); the old
        // connection is nobody now.
        assert!(s.open_job("j", 0, 2, PATIENCE));
        assert_eq!(s.on_message(1, Message::Fence, t0, &mut fx), None);
        assert_eq!(s.protocol_errors(), 1);
        assert_eq!(
            s.close_job("j", &mut fx),
            None,
            "the new attempt never fenced"
        );
    }

    #[test]
    fn two_jobs_on_one_service_never_see_each_others_keys() {
        let (mut s, mut fx, t0) = with_job("a", 2, 10);
        join(&mut s, &mut fx, "b", 2, 20, t0);
        for (conn, value) in [(10, "a0"), (20, "b0"), (21, "b1"), (11, "a1")] {
            s.on_message(conn, put("bc", value), t0, &mut fx);
            s.on_message(conn, Message::Fence, t0, &mut fx);
        }
        let replies = fx.take();
        let ack = |v| Message::FenceAck {
            pairs: pairs(&[("bc", v)]),
        };
        assert!(replies.ends_with(&[(10, ack("a1")), (11, ack("a1"))]));
        assert!(replies.contains(&(20, ack("b1"))) && replies.contains(&(21, ack("b1"))));
        let get = Message::Get {
            key: "bc".to_string(),
        };
        s.on_message(10, get, t0, &mut fx);
        let value = "a1".to_string();
        assert_eq!(fx.take(), [(10, Message::GetAck { value })]);
        // One job's abort is not the other's.
        s.on_disconnect(20, &mut fx);
        assert!(matches!(s.outcome("b"), Some(JobOutcome::Aborted(_))));
        assert_eq!((s.outcome("a"), &fx.closed[..]), (None, &[20][..]));
    }

    #[test]
    fn bad_inits_are_refused_and_only_a_wrong_size_aborts_the_job() {
        let (mut s, mut fx, t0) = with_job("j", 2, 1);
        let refused = [
            (7, init(0, 2, "nobody")), // a job that is not open
            (8, init(2, 2, "j")),      // out of range
            (9, init(1, 2, "j")),      // taken
            (10, Message::Fence),      // before init
            (11, Message::InitAck),    // not a rank's line at all
        ];
        for (n, (conn, msg)) in refused.into_iter().enumerate() {
            assert_eq!(s.on_message(conn, msg, t0, &mut fx), None);
            assert!(matches!(&fx.take()[..], [(c, Message::Abort { .. })] if *c == conn));
            assert_eq!(fx.closed.last(), Some(&conn));
            assert_eq!(s.protocol_errors(), n as u64 + 1);
        }
        assert_eq!(s.outcome("j"), None, "strangers do not hurt the job");
        // `init` twice is the rank's own fault, and its job's.
        s.on_message(1, init(0, 2, "j"), t0, &mut fx);
        assert!(
            matches!(s.outcome("j"), Some(JobOutcome::Aborted(why)) if why.contains("protocol"))
        );
        // A wrong world size can never complete: the job aborts at once.
        assert!(s.open_job("k", 0, 2, PATIENCE));
        s.on_message(30, init(0, 3, "k"), t0, &mut fx);
        let why = "rank 0 announced size 3, expected 2".to_string();
        assert_eq!(s.outcome("k"), Some(&JobOutcome::Aborted(why)));
        assert_eq!(fx.closed.last(), Some(&30));
    }

    #[test]
    fn a_job_that_overfills_its_kvs_is_aborted_with_the_reason() {
        let (mut s, mut fx, t0) = with_job("greedy", 1, 1);
        join(&mut s, &mut fx, "modest", 1, 2, t0);
        for i in 0..256 {
            s.on_message(1, put(&format!("k{i}"), "v"), t0, &mut fx);
        }
        assert_eq!(fx.take(), vec![(1, Message::PutAck); 256]);
        s.on_message(1, put("one-too-many", "v"), t0, &mut fx);
        assert_eq!(fx.take(), [(1, abort("kvs full: 256 keys"))]);
        let why = "rank 0: kvs full: 256 keys".to_string();
        assert_eq!(s.outcome("greedy"), Some(&JobOutcome::Aborted(why)));
        assert_eq!((s.outcome("modest"), &fx.closed[..]), (None, &[1][..]));
        let long = "x".repeat(crate::kvs::MAX_VALUE + 1);
        s.on_message(2, put("k", &long), t0, &mut fx);
        assert!(
            matches!(s.outcome("modest"), Some(JobOutcome::Aborted(why)) if why.contains("longer"))
        );
    }

    /// A clean two-rank session, as `(conn, line)`.
    fn session(jobid: &str, base: ConnId) -> Vec<(ConnId, Vec<u8>)> {
        let mut lines = Vec::new();
        for step in 0..4 {
            for rank in 0..2u32 {
                let msg = match step {
                    0 => init(rank, 2, jobid),
                    1 => put(&format!("bc.{rank}"), &format!("10.0.0.{rank}:4000/{rank}")),
                    2 => Message::Fence,
                    _ => Message::Finalize,
                };
                lines.push((base + rank as u64, msg.encode().into_bytes()));
            }
        }
        lines
    }

    /// Feed `victim`'s lines, each followed by one of a clean bystander
    /// session's, the way a reactor would (nothing more from a connection
    /// once it was closed). The bystander must not notice.
    fn bystander_is_untouched(victim: &[(ConnId, Vec<u8>)]) -> PmiService {
        let (mut s, mut fx, t0) = (PmiService::default(), Recorder::default(), Instant::now());
        assert!(s.open_job("victim", 1, 2, PATIENCE) && s.open_job("bystander", 2, 2, PATIENCE));
        let bystander = session("bystander", 100);
        let mut theirs = bystander.iter();
        for (conn, line) in victim {
            if !fx.closed.contains(conn) {
                s.on_frame(*conn, line, t0, &mut fx);
            }
            if let Some((conn, line)) = theirs.next() {
                s.on_frame(*conn, line, t0, &mut fx);
            }
        }
        for (conn, line) in theirs {
            s.on_frame(*conn, line, t0, &mut fx);
        }
        assert_eq!(s.outcome("bystander"), Some(&JobOutcome::Success));
        assert!(fx.closed.iter().all(|conn| *conn < 100), "{:?}", fx.closed);
        let (mut clean, mut clean_fx) = (PmiService::default(), Recorder::default());
        clean.open_job("bystander", 2, 2, PATIENCE);
        for (conn, line) in &bystander {
            clean.on_frame(*conn, line, t0, &mut clean_fx);
        }
        fx.sent.retain(|(conn, _)| *conn >= 100);
        assert_eq!(fx.sent, clean_fx.sent);
        s
    }

    #[test]
    fn hostile_lines_never_panic_and_never_reach_another_job() {
        let clean = session("victim", 1);
        assert_eq!(
            bystander_is_untouched(&clean).outcome("victim"),
            Some(&JobOutcome::Success)
        );
        // One line damaged — cut short at every byte, then a bit flipped
        // or grown past the limit — costs at most one connection and one count.
        let one_damaged = |at: usize, line: Vec<u8>| {
            let mut lines = clean.clone();
            lines[at].1 = line;
            let s = bystander_is_untouched(&lines);
            assert!(s.protocol_errors() <= 1, "{} errors", s.protocol_errors());
            s.protocol_errors()
        };
        for (at, (_, line)) in clean.iter().enumerate() {
            let refused: u64 = (0..line.len())
                .map(|cut| one_damaged(at, line[..cut].to_vec()))
                .sum();
            assert!(refused > 0, "no cut of line {at} was refused");
        }
        check(0x23, 3_000, |rng: &mut SplitMix64| {
            let at = rng.gen_range(0..clean.len() as u64) as usize;
            let mut line = clean[at].1.clone();
            if rng.gen_range(0..8) == 0 {
                line.resize(MAX_LINE + 1 + rng.gen_range(0..64) as usize, b'x');
            } else {
                let bit = rng.gen_range(0..line.len() as u64 * 8) as usize;
                line[bit / 8] ^= 1 << (bit % 8);
            }
            one_damaged(at, line);
        });
        // Commands out of order: any shuffle of the clean lines.
        check(0x24, 1_000, |rng: &mut SplitMix64| {
            let mut lines = clean.clone();
            for i in (1..lines.len()).rev() {
                lines.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
            }
            let s = bystander_is_untouched(&lines);
            assert!(s.protocol_errors() <= 2, "one per connection at most");
        });
    }
}
