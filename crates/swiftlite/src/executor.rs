//! App execution backends for swiftlite workflows.
//!
//! The language resolves an app call into an [`AppCall`] — a rendered
//! command line plus MPI shape — and hands it to an [`AppExecutor`]. Three
//! executors ship with the crate:
//!
//! * [`ProcessExecutor`] — run the command as a local OS process
//!   (`nodes`/`ppn` collapse to one process; Swift's "local" provider).
//! * [`FnExecutor`] — dispatch to registered Rust closures; used by tests
//!   and by harnesses that want app bodies in-process.
//! * `JetsExecutor` (in [`crate::jets`]) — submit through the JETS
//!   dispatcher, the MPICH/Coasters configuration of the paper.

use jets_ring::stdx::RwLock;
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::sync::Arc;

/// One resolved app invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppCall {
    /// Executable (or `@builtin` name for in-process application sets).
    pub executable: String,
    /// Rendered argument words.
    pub args: Vec<String>,
    /// Path to redirect standard output to, if the app body used
    /// `stdout=@x`.
    pub stdout: Option<String>,
    /// MPI nodes (1 = sequential).
    pub nodes: u32,
    /// MPI ranks per node.
    pub ppn: u32,
    /// True when the app declared an `mpi(...)` attribute: launch through
    /// the MPI path (PMI wire-up) even at 1×1, like `mpiexec -n 1`.
    pub mpi: bool,
}

/// Executes app calls to completion.
pub trait AppExecutor: Send + Sync {
    /// Run the call, blocking until it finishes. `Err` carries a
    /// diagnostic and fails the workflow.
    fn run(&self, call: &AppCall) -> Result<(), String>;
}

/// Runs apps as local OS processes.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcessExecutor;

impl AppExecutor for ProcessExecutor {
    fn run(&self, call: &AppCall) -> Result<(), String> {
        let mut command = Command::new(&call.executable);
        command.args(&call.args);
        match &call.stdout {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create stdout file {path}: {e}"))?;
                command.stdout(Stdio::from(file));
            }
            None => {
                command.stdout(Stdio::null());
            }
        }
        let status = command
            .status()
            .map_err(|e| format!("cannot spawn {}: {e}", call.executable))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!(
                "{} exited with {:?}",
                call.executable,
                status.code()
            ))
        }
    }
}

/// A closure-backed app implementation.
pub type AppImpl = Arc<dyn Fn(&AppCall) -> Result<(), String> + Send + Sync>;

/// Dispatches app calls to registered closures by executable name.
#[derive(Clone, Default)]
pub struct FnExecutor {
    apps: Arc<RwLock<HashMap<String, AppImpl>>>,
}

impl FnExecutor {
    /// An empty executor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an implementation for `executable`.
    pub fn register(
        &self,
        executable: impl Into<String>,
        f: impl Fn(&AppCall) -> Result<(), String> + Send + Sync + 'static,
    ) {
        self.apps.write().insert(executable.into(), Arc::new(f));
    }
}

impl AppExecutor for FnExecutor {
    fn run(&self, call: &AppCall) -> Result<(), String> {
        let f = self
            .apps
            .read()
            .get(&call.executable)
            .cloned()
            .ok_or_else(|| format!("no implementation registered for '{}'", call.executable))?;
        f(call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_executor_runs_true_and_false() {
        let exec = ProcessExecutor;
        let ok = AppCall {
            executable: "true".into(),
            args: vec![],
            stdout: None,
            nodes: 1,
            ppn: 1,
            mpi: false,
        };
        assert!(exec.run(&ok).is_ok());
        let bad = AppCall {
            executable: "false".into(),
            ..ok.clone()
        };
        assert!(exec.run(&bad).is_err());
    }

    #[test]
    fn process_executor_redirects_stdout() {
        let dir = std::env::temp_dir().join(format!("swift-exec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("echo.out");
        let call = AppCall {
            executable: "echo".into(),
            args: vec!["hello".into(), "world".into()],
            stdout: Some(out.to_string_lossy().into_owned()),
            nodes: 1,
            ppn: 1,
            mpi: false,
        };
        ProcessExecutor.run(&call).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap().trim(), "hello world");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn process_executor_reports_missing_binary() {
        let call = AppCall {
            executable: "/no/such/binary".into(),
            args: vec![],
            stdout: None,
            nodes: 1,
            ppn: 1,
            mpi: false,
        };
        let err = ProcessExecutor.run(&call).unwrap_err();
        assert!(err.contains("cannot spawn"));
    }

    #[test]
    fn fn_executor_dispatches_by_name() {
        let exec = FnExecutor::new();
        exec.register("work", |call: &AppCall| {
            if call.args == ["ok"] {
                Ok(())
            } else {
                Err("bad args".to_string())
            }
        });
        let ok = AppCall {
            executable: "work".into(),
            args: vec!["ok".into()],
            stdout: None,
            nodes: 2,
            ppn: 4,
            mpi: true,
        };
        assert!(exec.run(&ok).is_ok());
        let bad = AppCall {
            args: vec!["nope".into()],
            ..ok.clone()
        };
        assert!(exec.run(&bad).is_err());
        let missing = AppCall {
            executable: "ghost".into(),
            ..ok
        };
        assert!(exec.run(&missing).unwrap_err().contains("ghost"));
    }
}
