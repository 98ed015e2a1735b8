//! Task execution: builtin in-process applications and real processes.

use jets_core::protocol::{TaskAssignment, TaskKind, EXIT_CANCELED};
use jets_core::spec::CommandSpec;
use jets_mpi::{Communicator, Endpoint, MpiError};
use jets_pmi::PmiClient;
use jets_ring::stdx::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::IpAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Cooperative cancellation flag shared between a worker agent and the
/// task it is running. Cloning shares the flag: the agent trips it when
/// the dispatcher cancels the task (gang teardown, deadline), and the
/// executor polls it to kill child processes.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token. Irreversible.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Everything a builtin application sees when it runs.
pub struct TaskContext {
    /// Application arguments from the command spec.
    pub args: Vec<String>,
    /// Merged environment: command env plus (for MPI ranks) the rank's
    /// `PMI_*` variables.
    pub env: Vec<(String, String)>,
    /// The rank this invocation hosts (None for sequential tasks).
    pub rank: Option<u32>,
    /// Total ranks in the job (1 for sequential tasks).
    pub size: u32,
    /// The executor's MPI endpoint, for [`TaskContext::mpi`].
    endpoint: PilotEndpoint,
}

/// A pilot's one MPI endpoint, bound by the first rank that wires up —
/// a pilot that only ever runs sequential tasks pays nothing — and shared
/// by every rank after it. Cloning shares the cell.
#[derive(Clone, Default)]
struct PilotEndpoint(Arc<Mutex<Option<Arc<Endpoint>>>>);

impl PilotEndpoint {
    /// The endpoint, on `ip`: the interface a rank's PMI connection left
    /// by, i.e. the one that routes to the dispatcher. Should that ever
    /// change, a new endpoint replaces the old for the ranks to come.
    fn on(&self, ip: IpAddr) -> std::io::Result<Arc<Endpoint>> {
        let mut cell = self.0.lock();
        if let Some(endpoint) = cell.as_ref().filter(|e| e.addr().ip() == ip) {
            return Ok(Arc::clone(endpoint));
        }
        let endpoint = Arc::new(Endpoint::bind(ip)?);
        *cell = Some(Arc::clone(&endpoint));
        Ok(endpoint)
    }
}

impl TaskContext {
    /// Look up a variable in the task environment.
    pub fn env(&self, key: &str) -> Option<String> {
        self.env
            .iter()
            .rev() // later entries (PMI vars) override command env
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    /// Wire up an MPI communicator for this rank: PMI handshake, business
    /// card exchange, TCP mesh — the full MPICH-over-sockets path.
    ///
    /// Fails for sequential tasks (no `PMI_*` environment).
    pub fn mpi(&self) -> Result<MpiJob, MpiError> {
        let mut pmi =
            PmiClient::from_lookup(|k| self.env(k)).map_err(|e| MpiError::Pmi(e.to_string()))?;
        let endpoint = self.endpoint.on(pmi.local_ip()?)?;
        let comm = Communicator::via_endpoint(&mut pmi, endpoint)?;
        Ok(MpiJob { pmi, comm })
    }
}

/// A wired-up MPI rank: communicator plus its PMI connection.
pub struct MpiJob {
    pmi: PmiClient,
    /// The rank's communicator.
    pub comm: Communicator,
}

impl MpiJob {
    /// PMI round trips this rank has paid so far (wire-up is one).
    pub fn pmi_round_trips(&self) -> u64 {
        self.pmi.round_trips()
    }

    /// Orderly MPI + PMI teardown. Call at the end of the application.
    pub fn finalize(mut self) -> Result<(), MpiError> {
        self.comm.finalize()?;
        self.pmi
            .finalize()
            .map_err(|e| MpiError::Pmi(e.to_string()))
    }
}

/// A builtin application: takes a context, returns an exit code.
pub type AppFn = Arc<dyn Fn(&TaskContext) -> i32 + Send + Sync>;

/// Named in-process applications available to `Builtin` commands.
#[derive(Clone, Default)]
pub struct AppRegistry {
    apps: Arc<RwLock<HashMap<String, AppFn>>>,
}

impl AppRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) an application.
    pub fn register(
        &self,
        name: impl Into<String>,
        f: impl Fn(&TaskContext) -> i32 + Send + Sync + 'static,
    ) {
        self.apps.write().insert(name.into(), Arc::new(f));
    }

    /// Fetch an application by name.
    pub fn get(&self, name: &str) -> Option<AppFn> {
        self.apps.read().get(name).cloned()
    }

    /// Registered application names (sorted, for diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.apps.read().keys().cloned().collect();
        v.sort();
        v
    }
}

/// Result of executing one assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutcome {
    /// Exit code (0 = success).
    pub exit_code: i32,
    /// Captured standard-output tail, if the executor captures output.
    pub output: Option<String>,
}

/// Upper bound on captured output shipped back to the dispatcher. The
/// paper's largest run produced 16 MB of stdout over 11 minutes without
/// congesting this channel; we keep the per-task tail small and let bulk
/// output go to files.
pub const OUTPUT_CAPTURE_LIMIT: usize = 4096;

/// Runs assignments; implemented by [`Executor`] and by test doubles.
pub trait TaskExecutor: Send + Sync {
    /// Execute under a cancellation token, capturing standard output
    /// where supported. An executor that can kill the task's child
    /// processes does so when the token trips and returns
    /// [`EXIT_CANCELED`]; the agent's grace-period abandonment bounds one
    /// that cannot.
    fn execute_cancellable(&self, assignment: &TaskAssignment, cancel: &CancelToken)
        -> TaskOutcome;

    /// Execute the assignment to completion, returning its exit code.
    fn execute(&self, assignment: &TaskAssignment) -> i32 {
        self.execute_cancellable(assignment, &CancelToken::new())
            .exit_code
    }
}

/// Keep the *tail* of output (the end usually carries the verdict).
fn truncate_output(mut s: String) -> Option<String> {
    if s.is_empty() {
        return None;
    }
    if s.len() > OUTPUT_CAPTURE_LIMIT {
        let cut = s.len() - OUTPUT_CAPTURE_LIMIT;
        // Cut on a char boundary.
        let boundary = (cut..s.len()).find(|&i| s.is_char_boundary(i)).unwrap_or(0);
        s = format!("[... truncated ...]{}", &s[boundary..]);
    }
    Some(s)
}

/// Exit code when a builtin application is not registered.
pub const EXIT_UNKNOWN_APP: i32 = 127;
/// Exit code when a process could not be spawned or awaited.
pub const EXIT_SPAWN_FAILED: i32 = 126;
/// Exit code when a rank thread panicked.
pub const EXIT_RANK_PANIC: i32 = 125;

/// The standard executor: builtins in-process, `Exec` as OS processes.
#[derive(Clone, Default)]
pub struct Executor {
    registry: AppRegistry,
    endpoint: PilotEndpoint,
}

impl Executor {
    /// An executor over the given registry.
    pub fn new(registry: AppRegistry) -> Self {
        Executor {
            registry,
            endpoint: PilotEndpoint::default(),
        }
    }

    /// TCP connections the MPI endpoint has accepted, over every rank
    /// this executor hosted (zero before the first one wires up).
    pub fn mpi_connections_accepted(&self) -> u64 {
        let endpoint = self.endpoint.0.lock();
        endpoint.as_ref().map_or(0, |e| e.connections_accepted())
    }

    /// The executor's registry (register more apps through this).
    pub fn registry(&self) -> &AppRegistry {
        &self.registry
    }

    /// Run one command to completion: a builtin in-process, an `Exec` as
    /// an OS process whose standard output is captured, polling `cancel`
    /// while the child runs and killing it when the token trips. Builtins
    /// run to completion — in-process code cannot be safely killed; the
    /// agent abandons the task thread after its cancel grace instead.
    fn run_one(
        &self,
        cmd: &CommandSpec,
        extra_env: Vec<(String, String)>,
        rank: Option<u32>,
        size: u32,
        cancel: &CancelToken,
    ) -> TaskOutcome {
        let (program, args, env) = match cmd {
            CommandSpec::Exec { program, args, env } => (program, args, env),
            CommandSpec::Builtin { app, args, env } => {
                let Some(f) = self.registry.get(app) else {
                    return TaskOutcome {
                        exit_code: EXIT_UNKNOWN_APP,
                        output: None,
                    };
                };
                let mut merged = env.clone();
                merged.extend(extra_env);
                let ctx = TaskContext {
                    args: args.clone(),
                    env: merged,
                    rank,
                    size,
                    endpoint: self.endpoint.clone(),
                };
                return TaskOutcome {
                    exit_code: f(&ctx),
                    output: None,
                };
            }
        };
        let mut command = Command::new(program);
        command.args(args);
        for (k, v) in env.iter().chain(extra_env.iter()) {
            command.env(k, v);
        }
        command.stdout(Stdio::piped());
        let mut child = match command.spawn() {
            Ok(c) => c,
            Err(_) => {
                return TaskOutcome {
                    exit_code: EXIT_SPAWN_FAILED,
                    output: None,
                }
            }
        };
        // Drain stdout on a side thread so a chatty child never blocks on
        // a full pipe while this thread polls `try_wait`.
        let drain = child.stdout.take().map(|mut out| {
            thread::spawn(move || {
                use std::io::Read;
                let mut buf = String::new();
                let _ = out.read_to_string(&mut buf);
                buf
            })
        });
        let exit_code = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.code().unwrap_or(EXIT_SPAWN_FAILED),
                Ok(None) => {
                    if cancel.is_canceled() {
                        let _ = child.kill();
                        let _ = child.wait();
                        break EXIT_CANCELED;
                    }
                    thread::sleep(Duration::from_millis(10));
                }
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break EXIT_SPAWN_FAILED;
                }
            }
        };
        let output = drain.and_then(|h| h.join().ok()).and_then(truncate_output);
        TaskOutcome { exit_code, output }
    }

    /// Run an MPI proxy's local ranks (like a Hydra proxy forking one
    /// process per local rank): the first on the calling thread — the
    /// pilot's long-lived runner — and a thread each for the rest,
    /// concatenating their captured output tails in rank order. Each
    /// rank's `Exec` child is killed when `cancel` trips.
    fn proxy_captured(
        &self,
        cmd: &CommandSpec,
        ranks: &[u32],
        (size, pmi_addr, pmi_jobid): (u32, &str, &str),
        cancel: &CancelToken,
    ) -> TaskOutcome {
        let run = |rank: u32| {
            let pmi_env = jets_pmi::rank_env(rank, size, pmi_addr, pmi_jobid);
            self.run_one(cmd, pmi_env, Some(rank), size, cancel)
        };
        let (first, rest) = (ranks.first(), ranks.get(1..).unwrap_or_default());
        let outcomes: Vec<thread::Result<TaskOutcome>> = thread::scope(|s| {
            let spawned: Vec<_> = rest
                .iter()
                .map(|&rank| {
                    thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(512 * 1024)
                        .spawn_scoped(s, move || run(rank))
                        .expect("spawn rank thread")
                })
                .collect();
            let first = first.map(|&rank| catch_unwind(AssertUnwindSafe(|| run(rank))));
            let rest = spawned.into_iter().map(|h| h.join());
            first.into_iter().chain(rest).collect()
        });
        let mut exit = 0;
        let mut combined = String::new();
        for outcome in outcomes {
            match outcome {
                Ok(outcome) => {
                    if outcome.exit_code != 0 && exit == 0 {
                        exit = outcome.exit_code;
                    }
                    if let Some(o) = outcome.output {
                        combined.push_str(&o);
                    }
                }
                Err(_) if exit == 0 => exit = EXIT_RANK_PANIC,
                Err(_) => {}
            }
        }
        TaskOutcome {
            exit_code: exit,
            output: truncate_output(combined),
        }
    }
}

impl TaskExecutor for Executor {
    fn execute_cancellable(
        &self,
        assignment: &TaskAssignment,
        cancel: &CancelToken,
    ) -> TaskOutcome {
        match &assignment.kind {
            TaskKind::Sequential { cmd } => self.run_one(cmd, Vec::new(), None, 1, cancel),
            // MPI proxies route each rank's output through the proxy; we
            // concatenate the local ranks' tails in rank order.
            TaskKind::MpiProxy {
                cmd,
                ranks,
                size,
                pmi_addr,
                pmi_jobid,
            } => self.proxy_captured(cmd, ranks, (*size, pmi_addr, pmi_jobid), cancel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_core::spec::CommandSpec;
    use jets_pmi::{PmiServer, PmiServerConfig};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn seq(cmd: CommandSpec) -> TaskAssignment {
        TaskAssignment {
            task_id: 1,
            job_id: 1,
            kind: TaskKind::Sequential { cmd },
            stage: Vec::new(),
            trace: 0,
        }
    }

    #[test]
    fn builtin_app_runs_with_args() {
        let exec = Executor::default();
        exec.registry().register("add", |ctx: &TaskContext| {
            let a: i32 = ctx.args[0].parse().unwrap();
            let b: i32 = ctx.args[1].parse().unwrap();
            a + b
        });
        let code = exec.execute(&seq(CommandSpec::builtin(
            "add",
            vec!["3".into(), "4".into()],
        )));
        assert_eq!(code, 7);
    }

    #[test]
    fn unknown_builtin_returns_127() {
        let exec = Executor::default();
        assert_eq!(
            exec.execute(&seq(CommandSpec::builtin("ghost", vec![]))),
            EXIT_UNKNOWN_APP
        );
    }

    #[test]
    fn exec_command_runs_real_process() {
        let exec = Executor::default();
        assert_eq!(exec.execute(&seq(CommandSpec::exec("true", vec![]))), 0);
        assert_eq!(exec.execute(&seq(CommandSpec::exec("false", vec![]))), 1);
    }

    #[test]
    fn exec_missing_program_returns_126() {
        let exec = Executor::default();
        assert_eq!(
            exec.execute(&seq(CommandSpec::exec("/no/such/prog", vec![]))),
            EXIT_SPAWN_FAILED
        );
    }

    #[test]
    fn env_lookup_prefers_pmi_overrides() {
        let ctx = TaskContext {
            args: vec![],
            env: vec![("K".into(), "cmd".into()), ("K".into(), "pmi".into())],
            rank: Some(0),
            size: 1,
            endpoint: PilotEndpoint::default(),
        };
        assert_eq!(ctx.env("K").as_deref(), Some("pmi"));
        assert_eq!(ctx.env("missing"), None);
    }

    #[test]
    fn mpi_proxy_runs_all_local_ranks_with_pmi() {
        // A 1-node, 4-rank proxy: the executor must start 4 rank threads
        // that all complete the PMI + MPI wire-up and a barrier.
        let server = PmiServer::start(PmiServerConfig::new("exec-test", 4)).unwrap();
        let counted = Arc::new(AtomicU32::new(0));
        let exec = Executor::default();
        let c2 = Arc::clone(&counted);
        exec.registry()
            .register("mpi-count", move |ctx: &TaskContext| {
                let job = ctx.mpi().unwrap();
                let mut job = job;
                job.comm.barrier().unwrap();
                c2.fetch_add(1, Ordering::SeqCst);
                job.finalize().unwrap();
                0
            });
        let assignment = TaskAssignment {
            task_id: 1,
            job_id: 1,
            kind: TaskKind::MpiProxy {
                cmd: CommandSpec::builtin("mpi-count", vec![]),
                ranks: vec![0, 1, 2, 3],
                size: 4,
                pmi_addr: server.addr().to_string(),
                pmi_jobid: "exec-test".into(),
            },
            stage: Vec::new(),
            trace: 0,
        };
        assert_eq!(exec.execute(&assignment), 0);
        assert_eq!(counted.load(Ordering::SeqCst), 4);
        assert_eq!(
            server.wait(std::time::Duration::from_secs(10)),
            jets_pmi::JobOutcome::Success
        );
    }

    #[test]
    fn proxy_exit_code_is_first_failure() {
        let server = PmiServer::start(PmiServerConfig::new("fail-test", 2)).unwrap();
        let exec = Executor::default();
        exec.registry().register("rank-fail", |ctx: &TaskContext| {
            // Both ranks connect to PMI so the server is not left hanging,
            // then rank 1 reports failure.
            let mut pmi = PmiClient::from_lookup(|k| ctx.env(k)).unwrap();
            pmi.finalize().unwrap();
            if ctx.rank == Some(1) {
                3
            } else {
                0
            }
        });
        let assignment = TaskAssignment {
            task_id: 1,
            job_id: 1,
            kind: TaskKind::MpiProxy {
                cmd: CommandSpec::builtin("rank-fail", vec![]),
                ranks: vec![0, 1],
                size: 2,
                pmi_addr: server.addr().to_string(),
                pmi_jobid: "fail-test".into(),
            },
            stage: Vec::new(),
            trace: 0,
        };
        assert_eq!(exec.execute(&assignment), 3);
    }

    #[test]
    fn registry_lists_names() {
        let r = AppRegistry::new();
        r.register("b", |_: &TaskContext| 0);
        r.register("a", |_: &TaskContext| 0);
        assert_eq!(r.names(), vec!["a".to_string(), "b".to_string()]);
    }
}
