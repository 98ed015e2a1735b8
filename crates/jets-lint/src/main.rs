//! jets-lint CLI.
//!
//! ```text
//! jets-lint [--workspace] [--deny] [<file.rs> ...]
//! ```
//!
//! `--workspace` walks every Rust source of the repository that holds
//! the current directory, except build output (`target/`), `.git/` and
//! the lint's fixtures.
//! `--deny` exits non-zero when any finding survives suppression — that
//! is the CI mode. Findings go to stdout, one per line, as
//! `path:line: [Jn/key] message [chain: …]`.

use jets_lint::{lint_paths, workspace_files};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workspace = false;
    let mut deny = false;
    let mut files: Vec<PathBuf> = Vec::new();

    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny" => deny = true,
            "--help" | "-h" => {
                eprintln!("usage: jets-lint [--workspace] [--deny] [files...]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("jets-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => files.push(PathBuf::from(other)),
        }
    }

    if workspace {
        let root = find_workspace_root().unwrap_or_else(|| PathBuf::from("."));
        files.extend(workspace_files(&root));
    }
    if files.is_empty() {
        eprintln!("jets-lint: no input files (use --workspace or pass paths)");
        return ExitCode::from(2);
    }

    let findings = lint_paths(&files);
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("jets-lint: clean");
    } else {
        eprintln!("jets-lint: {} finding(s)", findings.len());
    }

    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walk up from the current directory until the JETS workspace root is
/// recognized (the dispatcher source exists), so the lint runs from any
/// directory inside the repository.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates/jets-core/src/dispatcher.rs").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
