//! Job specifications and the stand-alone input-file format.
//!
//! The `jets` tool is driven by a text file of command lines, one job per
//! line (Section 5.1 of the paper):
//!
//! ```text
//! MPI: 4 namd2.sh input-1.pdb output-1.log
//! MPI: 8 namd2.sh input-2.pdb output-2.log
//! MPI: 6 ppn=2 namd2.sh input-3.pdb output-3.log
//! post-process.sh output-1.log
//! ```
//!
//! `MPI: <nodes> [ppn=<k>] <cmd> <args...>` declares a parallel job of
//! `nodes × ppn` ranks; a bare command line declares a sequential job.
//! Hostnames are never specified — the dispatcher assembles groups from
//! whatever workers are available at run time. A command whose program
//! begins with `@` names a *builtin* application registered with the
//! worker's executor instead of an executable on disk (used by the
//! simulated-allocation substrate).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a submitted job.
pub type JobId = u64;
/// Identifier of one task (one proxy launch or one sequential execution).
pub type TaskId = u64;
/// Identifier the dispatcher assigns to a registered worker.
pub type WorkerId = u64;

/// A file to place on node-local storage before a task runs (paper
/// Section 5, feature 2: caching libraries, tools, and user data on
/// node-local storage "boosts startup performance and thus utilization
/// for ensembles of short jobs").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageFile {
    /// Path on the shared filesystem.
    pub source: String,
    /// Name inside the node-local cache directory.
    pub name: String,
}

impl StageFile {
    /// Stage `source` under its own file name.
    pub fn new(source: impl Into<String>) -> StageFile {
        let source = source.into();
        let name = std::path::Path::new(&source)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| source.clone());
        StageFile { source, name }
    }

    /// Stage `source` under an explicit local `name`.
    pub fn named(source: impl Into<String>, name: impl Into<String>) -> StageFile {
        StageFile {
            source: source.into(),
            name: name.into(),
        }
    }
}

/// What a task runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandSpec {
    /// Execute a program on disk (real-process mode).
    Exec {
        /// Path or name of the executable.
        program: String,
        /// Command-line arguments.
        args: Vec<String>,
        /// Additional environment variables.
        env: Vec<(String, String)>,
    },
    /// Run an application registered in the worker's in-process registry
    /// (simulated-allocation mode).
    Builtin {
        /// Registered application name.
        app: String,
        /// Application arguments.
        args: Vec<String>,
        /// Additional environment variables.
        env: Vec<(String, String)>,
    },
}

impl CommandSpec {
    /// An `Exec` command with no extra environment.
    pub fn exec(program: impl Into<String>, args: Vec<String>) -> Self {
        CommandSpec::Exec {
            program: program.into(),
            args,
            env: Vec::new(),
        }
    }

    /// A `Builtin` command with no extra environment.
    pub fn builtin(app: impl Into<String>, args: Vec<String>) -> Self {
        CommandSpec::Builtin {
            app: app.into(),
            args,
            env: Vec::new(),
        }
    }

    /// The program or application name.
    pub fn name(&self) -> &str {
        match self {
            CommandSpec::Exec { program, .. } => program,
            CommandSpec::Builtin { app, .. } => app,
        }
    }

    /// The argument list.
    pub fn args(&self) -> &[String] {
        match self {
            CommandSpec::Exec { args, .. } | CommandSpec::Builtin { args, .. } => args,
        }
    }

    /// Extra environment entries.
    pub fn env(&self) -> &[(String, String)] {
        match self {
            CommandSpec::Exec { env, .. } | CommandSpec::Builtin { env, .. } => env,
        }
    }
}

/// A job to be scheduled: `nodes` workers, `ppn` ranks per worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Number of workers (nodes) to aggregate.
    pub nodes: u32,
    /// Ranks per node; total MPI size is `nodes * ppn`.
    pub ppn: u32,
    /// What each rank runs.
    pub cmd: CommandSpec,
    /// Scheduling priority (higher runs earlier under
    /// [`crate::queue::QueuePolicy::PriorityBackfill`]; ignored by FIFO).
    pub priority: i32,
    /// How many times the job may be requeued after a worker failure.
    pub max_retries: u32,
    /// Launch through the MPI path (PMI server + proxies) even for a
    /// single rank — `mpiexec -n 1` still gives its process PMI. Forced
    /// on when `nodes × ppn > 1`.
    pub mpi: bool,
    /// Files to stage to node-local storage before the task runs.
    #[serde(default)]
    pub stage: Vec<StageFile>,
    /// Wall-time budget per attempt, in milliseconds. When an attempt
    /// runs longer the dispatcher cancels the whole gang and the failure
    /// counts against `max_retries` (a requeued attempt gets a fresh
    /// budget). `None` means no deadline.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A sequential (single-node, single-rank) job.
    pub fn sequential(cmd: CommandSpec) -> Self {
        JobSpec {
            nodes: 1,
            ppn: 1,
            cmd,
            priority: 0,
            max_retries: 0,
            mpi: false,
            stage: Vec::new(),
            deadline_ms: None,
        }
    }

    /// An MPI job over `nodes` workers, one rank each.
    pub fn mpi(nodes: u32, cmd: CommandSpec) -> Self {
        JobSpec {
            nodes,
            ppn: 1,
            cmd,
            priority: 0,
            max_retries: 0,
            mpi: true,
            stage: Vec::new(),
            deadline_ms: None,
        }
    }

    /// An MPI job over `nodes` workers with `ppn` ranks per worker.
    pub fn mpi_ppn(nodes: u32, ppn: u32, cmd: CommandSpec) -> Self {
        JobSpec {
            nodes,
            ppn,
            cmd,
            priority: 0,
            max_retries: 0,
            mpi: true,
            stage: Vec::new(),
            deadline_ms: None,
        }
    }

    /// Builder-style staging manifest.
    pub fn with_stage(mut self, stage: Vec<StageFile>) -> Self {
        self.stage = stage;
        self
    }

    /// Builder-style retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Builder-style priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style per-attempt wall-time deadline.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline_ms = Some(deadline.as_millis() as u64);
        self
    }

    /// Total number of MPI ranks (tasks) this job launches.
    pub fn size(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// True when the job needs MPI wire-up (PMI server and proxies).
    pub fn is_mpi(&self) -> bool {
        self.mpi || self.size() > 1
    }
}

/// Error from parsing a job input file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse the stand-alone `jets` input format into job specs.
pub fn parse_input(text: &str) -> Result<Vec<JobSpec>, ParseError> {
    let mut jobs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };
        if let Some(rest) = line.strip_prefix("MPI:") {
            let mut tokens = rest.split_whitespace();
            let nodes: u32 = tokens
                .next()
                .ok_or_else(|| err("MPI: line needs a node count".to_string()))?
                .parse()
                .map_err(|_| err("node count must be a positive integer".to_string()))?;
            if nodes == 0 {
                return Err(err("node count must be at least 1".to_string()));
            }
            let mut ppn = 1u32;
            let mut words: Vec<String> = Vec::new();
            for t in tokens {
                if words.is_empty() {
                    if let Some(v) = t.strip_prefix("ppn=") {
                        ppn = v
                            .parse()
                            .map_err(|_| err("ppn must be a positive integer".to_string()))?;
                        if ppn == 0 {
                            return Err(err("ppn must be at least 1".to_string()));
                        }
                        continue;
                    }
                }
                words.push(t.to_string());
            }
            if words.is_empty() {
                return Err(err("MPI: line needs a command".to_string()));
            }
            if nodes.checked_mul(ppn).is_none() {
                return Err(err(format!(
                    "rank count {nodes} × {ppn} does not fit a u32"
                )));
            }
            let cmd = command_from_words(words);
            jobs.push(JobSpec::mpi_ppn(nodes, ppn, cmd));
        } else {
            let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            let cmd = command_from_words(words);
            jobs.push(JobSpec::sequential(cmd));
        }
    }
    Ok(jobs)
}

fn command_from_words(mut words: Vec<String>) -> CommandSpec {
    let program = words.remove(0);
    if let Some(app) = program.strip_prefix('@') {
        CommandSpec::builtin(app, words)
    } else {
        CommandSpec::exec(program, words)
    }
}

// ---------------------------------------------------------------------------
// Exit-code registry.
//
// The dispatcher synthesizes *negative* exit codes for tasks that never
// produced one of their own; they can't collide with a real process
// status (0..=255) or the worker's positive spawn-failure conventions.
// This table is the single place such sentinels may be written as
// literals — jets-lint rule J5 (`exit-code`) flags the raw numbers
// anywhere else in the tree.
// ---------------------------------------------------------------------------

/// Synthetic exit code the dispatcher records when a worker dies (EOF,
/// error, or heartbeat silence) while its task was in flight.
pub const EXIT_WORKER_LOST: i32 = -127;
/// Synthetic exit code for an assignment that could not be delivered:
/// the worker vanished between parking and assignment.
pub const EXIT_UNDELIVERABLE: i32 = -128;
/// Exit code for a task killed by gang cancellation (a peer worker died
/// or the assignment was partially undeliverable). Recorded by the
/// dispatcher when it sends a `Cancel` envelope and reported by the
/// worker once the kill lands.
pub const EXIT_CANCELED: i32 = -125;
/// Exit code for a task killed because its job exceeded its wall-time
/// deadline ([`JobSpec::deadline_ms`]).
pub const EXIT_DEADLINE: i32 = -126;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_example_file() {
        let text = "\
MPI: 4 namd2.sh input-1.pdb output-1.log
MPI: 8 namd2.sh input-2.pdb output-2.log
MPI: 6 namd2.sh input-3.pdb output-3.log
";
        let jobs = parse_input(text).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].nodes, 4);
        assert_eq!(jobs[1].nodes, 8);
        assert_eq!(jobs[2].nodes, 6);
        for j in &jobs {
            assert_eq!(j.ppn, 1);
            assert_eq!(j.cmd.name(), "namd2.sh");
            assert!(j.is_mpi());
        }
        assert_eq!(
            jobs[0].cmd.args(),
            &["input-1.pdb".to_string(), "output-1.log".to_string()]
        );
    }

    #[test]
    fn parses_sequential_lines() {
        let jobs = parse_input("echo hello world\n").unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].nodes, 1);
        assert!(!jobs[0].is_mpi());
        assert_eq!(jobs[0].cmd.name(), "echo");
    }

    #[test]
    fn parses_ppn_option() {
        let jobs = parse_input("MPI: 6 ppn=2 app x\n").unwrap();
        assert_eq!(jobs[0].nodes, 6);
        assert_eq!(jobs[0].ppn, 2);
        assert_eq!(jobs[0].size(), 12);
        assert_eq!(jobs[0].cmd.args(), &["x".to_string()]);
    }

    #[test]
    fn at_sign_selects_builtin() {
        let jobs = parse_input("MPI: 2 @sleep 100\n").unwrap();
        assert!(matches!(
            &jobs[0].cmd,
            CommandSpec::Builtin { app, .. } if app == "sleep"
        ));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let jobs = parse_input("# a comment\n\n  \nMPI: 1 x\n").unwrap();
        assert_eq!(jobs.len(), 1);
    }

    #[test]
    fn rejects_zero_nodes() {
        let e = parse_input("MPI: 0 x\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("at least 1"));
    }

    #[test]
    fn rejects_a_rank_count_past_u32_with_its_line() {
        let e = parse_input("MPI: 1 x\nMPI: 65536 ppn=65536 x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("does not fit"), "{}", e.message);
        assert!(parse_input("MPI: 65535 ppn=65537 x\n").is_ok());
    }

    #[test]
    fn rejects_missing_command() {
        assert!(parse_input("MPI: 4\n").is_err());
        assert!(parse_input("MPI: 4 ppn=2\n").is_err());
    }

    #[test]
    fn rejects_bad_node_count() {
        let e = parse_input("MPI: four x\n").unwrap_err();
        assert!(e.message.contains("positive integer"));
    }

    #[test]
    fn ppn_only_recognized_before_command() {
        // `ppn=2` after the program is an ordinary argument.
        let jobs = parse_input("MPI: 2 prog ppn=2\n").unwrap();
        assert_eq!(jobs[0].ppn, 1);
        assert_eq!(jobs[0].cmd.args(), &["ppn=2".to_string()]);
    }

    #[test]
    fn spec_builders() {
        let s = JobSpec::mpi_ppn(4, 2, CommandSpec::builtin("b", vec![]))
            .with_retries(3)
            .with_priority(5);
        assert_eq!(s.size(), 8);
        assert_eq!(s.max_retries, 3);
        assert_eq!(s.priority, 5);
    }
}
