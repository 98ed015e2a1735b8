//! The dispatcher's job table: what it remembers about every job it has
//! seen, at a few dozen bytes a job.
//!
//! Job ids are dense — the core mints them from a counter — so a job's
//! row is found at `id - first`, not hashed. A row is fixed-size: status,
//! attempts, and where the job's two entries start in one append-only
//! byte arena. The entries are written with the wire codec: the job's
//! specification once, when it is submitted or restored ([`put_spec`],
//! the bytes the journal's `Submitted` record carries), and its latest
//! attempt's result — wall time, exit codes, output tails — when that
//! attempt ends. Each entry ends in the codec's [`END`], which no encoded
//! byte is, so an entry's extent is found without a length field. A
//! [`JobRecord`] is decoded from its row and entries on demand.
//!
//! A requeued job's newer result is appended and its row pointed at it;
//! the older result stays behind as dead bytes, at most `max_retries` of
//! them per job. Restored jobs arrive in queue order, not id order, with
//! gaps where jobs finished before the crash: a row below `first` is made
//! room for at the front (amortized O(1) a row), and a gap is a vacant
//! row, which reads as unknown.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::dispatcher::{JobRecord, JobStatus};
use crate::protocol::{get_spec, put_spec};
use crate::spec::{JobId, JobSpec};
use jets_ring::codec::{Get, Put, END};
use std::collections::VecDeque;
use std::time::Duration;

/// One job's fixed-size part.
#[derive(Clone, Copy)]
struct Row {
    /// Where the job's specification starts in the arena.
    spec: u64,
    /// Where its latest result starts; 0 until an attempt has ended (the
    /// job's specification precedes it, so no result starts at 0).
    result: u64,
    /// Launch attempts made so far.
    attempts: u32,
    /// `None` for a vacant row: no job with this id is known.
    status: Option<JobStatus>,
}

const VACANT: Row = Row {
    spec: 0,
    result: 0,
    attempts: 0,
    status: None,
};

/// Every job the dispatcher has seen, by id. Cloning copies two flat
/// buffers, which is how a snapshot leaves the lock before it is decoded.
#[derive(Clone, Default)]
pub(crate) struct JobTable {
    /// The id of `rows[0]`.
    first: JobId,
    rows: VecDeque<Row>,
    arena: Vec<u8>,
}

impl JobTable {
    /// Job `id` exists, with `spec`, in `status` after `attempts` launches.
    pub(crate) fn insert(&mut self, id: JobId, spec: &JobSpec, status: JobStatus, attempts: u32) {
        let spec = self.append(|p| put_spec(p, spec));
        *self.slot(id) = Row {
            spec,
            result: 0,
            attempts,
            status: Some(status),
        };
    }

    /// Attempt `attempt` of job `id` has its workers.
    pub(crate) fn started(&mut self, id: JobId, attempt: u32) {
        if let Some(i) = self.index(id) {
            let row = &mut self.rows[i];
            (row.status, row.attempts) = (Some(JobStatus::Running), attempt);
        }
    }

    /// An attempt of job `id` ended, leaving it in `status` (and, when
    /// given, charged `attempts`); its result replaces the previous one.
    pub(crate) fn ended(
        &mut self,
        id: JobId,
        status: JobStatus,
        attempts: Option<u32>,
        wall: Option<Duration>,
        exit_codes: &[i32],
        outputs: &[String],
    ) {
        let Some(i) = self.index(id) else {
            return;
        };
        let result = self.append(|p| put_outcome(p, wall, exit_codes, outputs));
        let row = &mut self.rows[i];
        (row.result, row.status) = (result, Some(status));
        row.attempts = attempts.unwrap_or(row.attempts);
    }

    /// Job `id`'s status, without decoding its record.
    pub(crate) fn status(&self, id: JobId) -> Option<JobStatus> {
        self.rows[self.index(id)?].status
    }

    /// Job `id`'s record, decoded; `None` for an id never seen.
    pub(crate) fn get(&self, id: JobId) -> Option<JobRecord> {
        let row = self.rows[self.index(id)?];
        let mut g = self.entry(row.spec);
        let spec = get_spec(&mut g);
        debug_assert!(
            g.end().is_ok(),
            "job {id}: its specification does not decode"
        );
        let (wall, exit_codes, outputs) = match row.result {
            0 => (None, Vec::new(), Vec::new()),
            at => {
                let mut g = self.entry(at);
                let outcome = get_outcome(&mut g);
                debug_assert!(g.end().is_ok(), "job {id}: its result does not decode");
                outcome
            }
        };
        Some(JobRecord {
            id,
            spec,
            status: row.status?,
            attempts: row.attempts,
            wall,
            exit_codes,
            outputs,
        })
    }

    /// Every known job's record, in ascending id order.
    pub(crate) fn records(&self) -> Vec<JobRecord> {
        (0..self.rows.len() as u64)
            .filter_map(|i| self.get(self.first + i))
            .collect()
    }

    /// What the table holds in memory, spare capacity included.
    pub(crate) fn bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Row>() + self.arena.capacity()
    }

    /// Write one entry at the arena's end; returns where it starts.
    fn append(&mut self, put: impl FnOnce(&mut Put<'_>)) -> u64 {
        let at = self.arena.len() as u64;
        put(&mut Put(&mut self.arena));
        self.arena.push(END);
        at
    }

    /// The entry starting at `at`, up to its `END`.
    fn entry(&self, at: u64) -> Get<'_> {
        let rest = &self.arena[at as usize..];
        let len = rest.iter().position(|&b| b == END).unwrap_or(rest.len());
        Get::new(&rest[..len])
    }

    /// Where known job `id`'s row is.
    fn index(&self, id: JobId) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.first)?).ok()?;
        self.rows.get(i)?.status.is_some().then_some(i)
    }

    /// The row for `id`, vacant rows added to reach it at either end.
    #[expect(
        clippy::expect_used,
        reason = "ids are dense from the first: no table spans more than memory"
    )]
    fn slot(&mut self, id: JobId) -> &mut Row {
        if self.rows.is_empty() {
            self.first = id;
        }
        while id < self.first {
            self.rows.push_front(VACANT);
            self.first -= 1;
        }
        let i = usize::try_from(id - self.first).expect("the table spans more ids than memory");
        if i >= self.rows.len() {
            self.rows.resize(i + 1, VACANT);
        }
        &mut self.rows[i]
    }
}

/// An attempt's result: wall time, exit codes, output tails.
fn put_outcome(p: &mut Put<'_>, wall: Option<Duration>, exit_codes: &[i32], outputs: &[String]) {
    p.bool(wall.is_some());
    if let Some(wall) = wall {
        p.var(wall.as_secs());
        p.var(wall.subsec_nanos().into());
    }
    p.count(exit_codes.len());
    exit_codes.iter().for_each(|&code| p.zig(code.into()));
    p.count(outputs.len());
    outputs.iter().for_each(|out| p.str(out));
}

/// Read what [`put_outcome`] wrote.
fn get_outcome(g: &mut Get<'_>) -> (Option<Duration>, Vec<i32>, Vec<String>) {
    let wall = g
        .bool()
        .then(|| Duration::new(g.var(), g.var_u32().min(999_999_999)));
    (wall, g.list(Get::zig_i32), g.list(Get::str))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommandSpec, StageFile};

    fn noop() -> JobSpec {
        JobSpec::sequential(CommandSpec::builtin("noop", vec![]))
    }

    /// Field by field: `JobRecord` has no `PartialEq`.
    fn assert_record(rec: &JobRecord, id: JobId, spec: &JobSpec, status: JobStatus) {
        assert_eq!(rec.id, id);
        assert_eq!(&rec.spec, spec);
        assert_eq!(rec.status, status);
    }

    #[test]
    fn every_field_round_trips() {
        // U+06C0 is `ESC` `0x80` in UTF-8.
        let mut env = CommandSpec::exec("/bin/sim", vec!["--fast".into(), "ü ∞ \n".into()]);
        if let CommandSpec::Exec { env, .. } = &mut env {
            env.push(("OMP_NUM_THREADS".into(), "4".into()));
            env.push(("RESERVED".into(), "\u{6c0}\n".into()));
        }
        let specs = [
            noop(),
            JobSpec::mpi_ppn(3, 4, env)
                .with_stage(vec![
                    StageFile::new("/shared/lib/libfoo.so"),
                    StageFile::named("/shared/in\n1.pdb", "in.pdb"),
                ])
                .with_deadline(Duration::from_millis(1_500))
                .with_priority(-7)
                .with_retries(5),
            JobSpec::sequential(CommandSpec::builtin("fail", vec!["3".into()]))
                .with_priority(i32::MAX)
                .with_deadline(Duration::from_millis(u64::MAX)),
        ];
        // Outputs holding the codec's two reserved bytes, and non-ASCII text.
        let outputs = vec![
            "line one\nline two\n".to_string(),
            "\u{6c0}\u{6ff}".to_string(),
            "ÿ — 日本語".to_string(),
            String::new(),
        ];
        let wall = Some(Duration::new(12, 345_678_901));
        let mut t = JobTable::default();
        for (i, spec) in specs.iter().enumerate() {
            t.insert(i as u64 + 1, spec, JobStatus::Pending, 0);
        }
        t.started(2, 1);
        t.ended(
            2,
            JobStatus::Failed,
            None,
            wall,
            &[0, -9, i32::MIN, 255],
            &outputs,
        );
        t.started(3, 1);
        t.ended(3, JobStatus::Succeeded, None, None, &[i32::MAX], &[]);

        let one = t.get(1).unwrap();
        assert_record(&one, 1, &specs[0], JobStatus::Pending);
        assert_eq!((one.attempts, one.wall), (0, None));
        assert!(one.exit_codes.is_empty() && one.outputs.is_empty());
        let two = t.get(2).unwrap();
        assert_record(&two, 2, &specs[1], JobStatus::Failed);
        assert_eq!((two.attempts, two.wall), (1, wall));
        assert_eq!(two.exit_codes, [0, -9, i32::MIN, 255]);
        assert_eq!(two.outputs, outputs);
        let three = t.get(3).unwrap();
        assert_record(&three, 3, &specs[2], JobStatus::Succeeded);
        assert_eq!((three.wall, three.exit_codes), (None, vec![i32::MAX]));
        // A restored record keeps the status and attempts it came back with.
        t.insert(9, &specs[1], JobStatus::Running, 4);
        let nine = t.get(9).unwrap();
        assert_record(&nine, 9, &specs[1], JobStatus::Running);
        assert_eq!(nine.attempts, 4);
    }

    #[test]
    fn a_requeued_job_keeps_only_its_latest_result() {
        let mut t = JobTable::default();
        let spec = noop().with_retries(2);
        t.insert(1, &spec, JobStatus::Pending, 0);
        t.started(1, 1);
        let first = ["worker lost".to_string()];
        t.ended(1, JobStatus::Pending, Some(1), None, &[-1], &first);
        let requeued = t.get(1).unwrap();
        assert_eq!(
            (requeued.status, requeued.attempts),
            (JobStatus::Pending, 1)
        );
        assert_eq!(
            (requeued.exit_codes, requeued.outputs),
            (vec![-1], first.to_vec())
        );
        t.started(1, 2);
        assert_eq!(t.status(1), Some(JobStatus::Running));
        let wall = Some(Duration::from_millis(3));
        t.ended(1, JobStatus::Succeeded, None, wall, &[0], &["ok".into()]);
        let rec = t.get(1).unwrap();
        assert_record(&rec, 1, &spec, JobStatus::Succeeded);
        assert_eq!((rec.attempts, rec.wall), (2, wall));
        assert_eq!(
            (rec.exit_codes, rec.outputs),
            (vec![0], vec!["ok".to_string()])
        );
    }

    #[test]
    fn sparse_restored_ids_out_of_order_then_new_ids_read_in_order() {
        let mut t = JobTable::default();
        let restored = [40u64, 7, 23, 1_000, 8, 3];
        for (n, &id) in restored.iter().enumerate() {
            let spec = noop().with_priority(id as i32);
            t.insert(id, &spec, JobStatus::Pending, n as u32);
        }
        for id in 1_001..1_004 {
            t.insert(id, &noop(), JobStatus::Pending, 0);
        }
        let ids: Vec<JobId> = t.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, [3, 7, 8, 23, 40, 1_000, 1_001, 1_002, 1_003]);
        for (n, &id) in restored.iter().enumerate() {
            let rec = t.get(id).unwrap();
            assert_eq!((rec.spec.priority, rec.attempts), (id as i32, n as u32));
        }
        // The gaps are unknown, and so is everything outside the span.
        for id in [0, 2, 4, 9, 24, 999, 1_004, u64::MAX] {
            assert!(t.get(id).is_none() && t.status(id).is_none(), "{id}");
        }
    }

    #[test]
    fn an_unknown_id_is_none_and_its_updates_are_ignored() {
        let mut t = JobTable::default();
        assert!(t.get(1).is_none() && t.records().is_empty());
        t.insert(5, &noop(), JobStatus::Pending, 0);
        t.started(6, 1);
        t.ended(4, JobStatus::Failed, None, None, &[1], &[]);
        assert!(t.get(4).is_none() && t.get(6).is_none());
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.get(5).unwrap().status, JobStatus::Pending);
    }

    /// The point of the table: a finished no-op job costs a few dozen
    /// bytes — a row and two short entries — where a `HashMap` entry
    /// with a cloned spec cost 330–600.
    #[test]
    fn a_finished_noop_job_costs_at_most_96_bytes() {
        const JOBS: u64 = 100_000;
        let mut t = JobTable::default();
        let spec = noop();
        for id in 1..=JOBS {
            t.insert(id, &spec, JobStatus::Pending, 0);
        }
        let wall = Some(Duration::from_micros(1_234));
        for id in 1..=JOBS {
            t.started(id, 1);
            t.ended(id, JobStatus::Succeeded, None, wall, &[0], &[String::new()]);
        }
        let per_job = t.bytes() as f64 / JOBS as f64;
        assert!(per_job <= 96.0, "{per_job:.1} B per job");
        let last = t.get(JOBS).unwrap();
        assert_eq!(
            (last.status, last.exit_codes),
            (JobStatus::Succeeded, vec![0])
        );
    }
}
