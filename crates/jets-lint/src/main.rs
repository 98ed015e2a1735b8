//! jets-lint CLI.
//!
//! ```text
//! jets-lint --workspace [--deny] [--json] [--verbose] [--root <dir>]
//! jets-lint <file.rs> [<file.rs> ...] [--deny] [--json]
//! jets-lint --workspace --fix-suppressions
//! ```
//!
//! `--workspace` walks the repo's Rust sources (crates/, src/, tests/)
//! excluding build output, lint fixtures, and vendored tooling.
//! `--deny` exits non-zero when any finding survives suppression — that
//! is the CI mode. `--json` emits one JSON object per finding on
//! stdout (a JSON-lines stream) for machine consumption. `--verbose`
//! prints per-pass timing (parallel indexing vs. graph + rules) to
//! stderr. `--fix-suppressions` deletes unused `// jets-lint:
//! allow(...)` comments in place and reports what it removed.

use jets_lint::{
    default_threads, is_unused_suppression, lint_paths_with_stats, strip_suppression_lines,
    workspace_files, Finding,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workspace = false;
    let mut deny = false;
    let mut json = false;
    let mut verbose = false;
    let mut fix_suppressions = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny" => deny = true,
            "--json" => json = true,
            "--verbose" => verbose = true,
            "--fix-suppressions" => fix_suppressions = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("jets-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: jets-lint [--workspace] [--deny] [--json] [--verbose] [--fix-suppressions] [--root <dir>] [files...]"
                );
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
        let root =
            root.unwrap_or_else(|| find_workspace_root().unwrap_or_else(|| PathBuf::from(".")));
        files.extend(workspace_files(&root));
    }
    if files.is_empty() {
        eprintln!("jets-lint: no input files (use --workspace or pass paths)");
        return ExitCode::from(2);
    }

    let (findings, stats) = lint_paths_with_stats(&files, default_threads());
    if verbose {
        eprintln!(
            "jets-lint: pass 1 (index, {} threads): {} files, {} fns in {:.1?}",
            stats.threads, stats.files, stats.funcs, stats.pass1
        );
        eprintln!(
            "jets-lint: pass 2 (graph + rules): {} lock edges in {:.1?}",
            stats.lock_edges, stats.pass2
        );
    }

    if fix_suppressions {
        return apply_fix_suppressions(&findings);
    }

    report(&findings, json);

    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Delete the unused-suppression lines the lint run identified, one
/// rewrite per file. Other findings are reported but untouched.
fn apply_fix_suppressions(findings: &[Finding]) -> ExitCode {
    let mut by_file: BTreeMap<&Path, BTreeSet<u32>> = BTreeMap::new();
    for f in findings {
        if is_unused_suppression(f) {
            by_file.entry(&f.path).or_default().insert(f.line);
        }
    }
    if by_file.is_empty() {
        eprintln!("jets-lint: no unused suppressions to remove");
        return ExitCode::SUCCESS;
    }
    let mut removed = 0usize;
    for (path, lines) in &by_file {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("jets-lint: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let fixed = strip_suppression_lines(&src, lines);
        if let Err(e) = std::fs::write(path, fixed) {
            eprintln!("jets-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        removed += lines.len();
        eprintln!(
            "jets-lint: {}: removed {} unused suppression(s)",
            path.display(),
            lines.len()
        );
    }
    eprintln!("jets-lint: removed {removed} unused suppression(s) total");
    ExitCode::SUCCESS
}

fn report(findings: &[Finding], json: bool) {
    if json {
        for f in findings {
            println!("{}", f.to_json());
        }
        return;
    }
    for f in findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("jets-lint: clean");
    } else {
        eprintln!("jets-lint: {} finding(s)", findings.len());
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
        if !pop(&mut dir) {
            return None;
        }
    }
}

fn pop(dir: &mut PathBuf) -> bool {
    let parent: Option<&Path> = dir.parent();
    match parent {
        Some(p) => {
            let p = p.to_path_buf();
            *dir = p;
            true
        }
        None => false,
    }
}
