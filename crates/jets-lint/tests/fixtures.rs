//! Fixture-driven self-test: every rule must be proven live by a
//! known-bad snippet (exact rule ids and line spans, nothing else), and
//! every known-good snippet must pass clean. One test lints the real
//! workspace and asserts zero unsuppressed findings — the CI gate,
//! enforced from the test suite as well. The retired rules' `bad` tests
//! now check that the crate roots still deny the clippy lints that
//! replaced them.

use jets_lint::{lint_paths, Finding};
use std::path::{Path, PathBuf};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

/// Lint one fixture file and return `(rule_id, line)` pairs, sorted.
fn fired(rel: &str) -> Vec<(String, u32)> {
    let findings = lint_paths(&[fixture(rel)]);
    let mut out: Vec<(String, u32)> = findings
        .iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect();
    out.sort();
    out
}

fn assert_clean(rel: &str) {
    let findings = lint_paths(&[fixture(rel)]);
    assert!(
        findings.is_empty(),
        "expected {rel} to be clean, got:\n{}",
        render(&findings)
    );
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn lock_across_blocking_bad_fires_exactly() {
    assert_eq!(
        fired("lock-across-blocking/bad.rs"),
        vec![
            ("J2".to_string(), 3),
            ("J2".to_string(), 9),
            ("J2".to_string(), 15)
        ]
    );
}

#[test]
fn lock_across_blocking_good_is_clean() {
    assert_clean("lock-across-blocking/good.rs");
}

#[test]
fn relaxed_bad_fires_exactly() {
    assert_eq!(fired("relaxed/bad.rs"), vec![("J3".to_string(), 2)]);
}

#[test]
fn relaxed_good_is_clean() {
    assert_clean("relaxed/good.rs");
}

#[test]
fn exit_code_bad_fires_exactly() {
    assert_eq!(
        fired("exit-code/bad.rs"),
        vec![("J5".to_string(), 2), ("J5".to_string(), 6)]
    );
}

#[test]
fn exit_code_good_is_clean() {
    assert_clean("exit-code/good.rs");
}

#[test]
fn exit_code_registry_file_is_exempt() {
    assert_clean("exit-code/spec.rs");
}

#[test]
fn reactor_bad_fires_exactly() {
    // Blocking recv in a callback (line 2), spawn in a callback (line
    // 3), spawn in a reactor-scoped serve path (line 8).
    assert_eq!(
        fired("reactor/bad.rs"),
        vec![
            ("J7".to_string(), 2),
            ("J7".to_string(), 3),
            ("J7".to_string(), 8)
        ]
    );
}

#[test]
fn reactor_good_is_clean() {
    assert_clean("reactor/good.rs");
}

#[test]
fn loop_closures_bad_fires_with_chains() {
    // A timer whose closure reaches a sleep through a helper (line 6),
    // and a post that sleeps inline (line 7): both run on the loop.
    assert_eq!(
        fired("reactor/timer-bad.rs"),
        vec![("J7".to_string(), 6), ("J7".to_string(), 7)]
    );
    let findings = lint_paths(&[fixture("reactor/timer-bad.rs")]);
    let chains: Vec<_> = findings.iter().map(|f| f.chain.clone()).collect();
    assert_eq!(
        chains,
        vec![vec!["every", "nap", "sleep()"], vec!["post", "sleep()"]],
        "{}",
        render(&findings)
    );
}

#[test]
fn loop_closures_good_is_clean() {
    assert_clean("reactor/timer-good.rs");
}

#[test]
fn ring_bad_fires_exactly() {
    // Writer-path violations in `push_frame`: lock (2), allocating
    // method (3), allocating macro (4), allocating constructor (5),
    // blocking sleep (6) — plus the strict ring form of J3 on the
    // unannotated Relaxed claim cursor in `record_claim` (9), and the
    // span-emitter extension: lock (12) and `format!` (13) in
    // `span_start`, allocating method (16) in `emit_span`.
    assert_eq!(
        fired("ring/bad.rs"),
        vec![
            ("J3".to_string(), 9),
            ("J8".to_string(), 2),
            ("J8".to_string(), 3),
            ("J8".to_string(), 4),
            ("J8".to_string(), 5),
            ("J8".to_string(), 6),
            ("J8".to_string(), 12),
            ("J8".to_string(), 13),
            ("J8".to_string(), 16)
        ]
    );
}

#[test]
fn ring_good_is_clean() {
    assert_clean("ring/good.rs");
}

#[test]
fn suppression_bad_fires_exactly() {
    // Missing reason (J0@2) does NOT silence the sentinel (J5@3);
    // unknown key (J0@6); unused suppression (J0@9).
    assert_eq!(
        fired("suppression/bad.rs"),
        vec![
            ("J0".to_string(), 2),
            ("J0".to_string(), 6),
            ("J0".to_string(), 9),
            ("J5".to_string(), 3),
        ]
    );
}

#[test]
fn suppression_good_is_clean() {
    assert_clean("suppression/good.rs");
}

#[test]
fn callgraph_two_hop_taint_bad_fires_exactly() {
    // The call to the blocking helper under the live guard (line 7).
    assert_eq!(
        fired("callgraph/taint-2hop/bad.rs"),
        vec![("J2".to_string(), 7)]
    );
}

#[test]
fn callgraph_two_hop_taint_reports_full_chain() {
    let findings = lint_paths(&[fixture("callgraph/taint-2hop/bad.rs")]);
    assert_eq!(findings.len(), 1, "{}", render(&findings));
    assert_eq!(
        findings[0].chain,
        vec!["serve_tick", "drain_outbox", ".flush()"]
    );
    assert!(
        findings[0]
            .message
            .contains("serve_tick -> drain_outbox -> .flush()"),
        "chain missing from diagnostic: {}",
        findings[0]
    );
}

#[test]
fn callgraph_two_hop_taint_good_is_clean() {
    assert_clean("callgraph/taint-2hop/good.rs");
}

#[test]
fn callgraph_three_hop_taint_bad_fires_exactly() {
    // The reactor callback's call into the 3-hop blocking chain
    // (line 10), with every hop in the diagnostic.
    assert_eq!(
        fired("callgraph/taint-3hop/bad.rs"),
        vec![("J7".to_string(), 10)]
    );
    let findings = lint_paths(&[fixture("callgraph/taint-3hop/bad.rs")]);
    assert_eq!(
        findings[0].chain,
        vec!["on_frame", "settle", "nap", "sleep()"]
    );
}

#[test]
fn callgraph_three_hop_taint_good_is_clean() {
    assert_clean("callgraph/taint-3hop/good.rs");
}

/// The repository root, found upward from this crate.
fn workspace_root() -> PathBuf {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        if root.join("crates/jets-core/src/dispatcher.rs").exists() {
            return root;
        }
        assert!(
            root.pop(),
            "workspace root not found above CARGO_MANIFEST_DIR"
        );
    }
}

/// The acceptance gate, runnable from the test suite: the real tree
/// must carry zero unsuppressed findings.
#[test]
fn workspace_is_clean() {
    let files = jets_lint::workspace_files(&workspace_root());
    assert!(
        files.len() > 20,
        "workspace walk found suspiciously few files ({})",
        files.len()
    );
    let findings = lint_paths(&files);
    assert!(
        findings.is_empty(),
        "workspace has unsuppressed jets-lint findings:\n{}",
        render(&findings)
    );
}

/// What the retired rules checked is now clippy's job, denied at the
/// roots of the crates they guarded; `allow_attributes_without_reason`
/// keeps every waiver reasoned, as J0 does for this lint's own. Each
/// root must deny `lints` outside tests. Deleting a deny fails here the
/// way deleting a rule once failed its fixture.
fn assert_roots_deny(roots: &[&str], lints: &[&str]) {
    let root = workspace_root();
    for file in roots {
        let src = std::fs::read_to_string(root.join(file)).expect(file);
        let flat: String = src.split_whitespace().collect();
        let denied = flat
            .split_once("#![cfg_attr(not(test),deny(")
            .and_then(|(_, rest)| rest.split_once("))]"))
            .map_or("", |(list, _)| list);
        let denied: Vec<&str> = denied.split(',').filter(|l| !l.is_empty()).collect();
        for lint in lints.iter().chain(&["allow_attributes_without_reason"]) {
            assert!(
                denied.contains(&format!("clippy::{lint}").as_str()),
                "{file} no longer denies clippy::{lint} outside tests (denies {denied:?})"
            );
        }
    }
}

/// J4 `protocol` (a wildcard arm over a protocol enum) is now
/// `wildcard_enum_match_arm`, plus `match_wildcard_for_single_variants`
/// for a wildcard that stands for one variant only, denied in exactly
/// the crates that match on `WorkerMsg`/`DispatcherMsg`.
#[test]
fn protocol_bad_fires_exactly() {
    assert_roots_deny(
        &[
            "crates/jets-core/src/lib.rs",
            "crates/jets-relay/src/lib.rs",
            "crates/jets-worker/src/lib.rs",
            "crates/cluster-sim/src/lib.rs",
        ],
        &[
            "wildcard_enum_match_arm",
            "match_wildcard_for_single_variants",
        ],
    );
}

/// J6 `unwrap` (a panic where peer input arrives) is now `unwrap_used`
/// and `expect_used`, denied in every crate that handles peer input.
#[test]
fn unwrap_bad_fires_exactly() {
    assert_roots_deny(
        &[
            "crates/jets-core/src/lib.rs",
            "crates/jets-relay/src/lib.rs",
            "crates/jets-worker/src/lib.rs",
            "crates/jets-pmi/src/lib.rs",
            "crates/jets-ring/src/lib.rs",
            "crates/jets-reactor/src/lib.rs",
            "crates/jets-obs/src/lib.rs",
            "crates/jets-cli/src/bin/jets.rs",
        ],
        &["unwrap_used", "expect_used"],
    );
}

/// The core modules: what the dispatcher, relay, pilot and PMI service
/// decide, and the seeded world that drives all four.
const CORES: [&str; 11] = [
    "crates/jets-core/src/core.rs",
    "crates/jets-core/src/registry.rs",
    "crates/jets-core/src/group.rs",
    "crates/jets-core/src/ready.rs",
    "crates/jets-core/src/queue.rs",
    "crates/jets-core/src/table.rs",
    "crates/jets-relay/src/core.rs",
    "crates/jets-worker/src/core.rs",
    "crates/jets-pmi/src/service.rs",
    "crates/jets-pmi/src/kvs.rs",
    "crates/cluster-sim/src/des/mod.rs",
];

/// A core's purity — no clock, lock, atomic, thread, socket, file, shell
/// I/O type or hash table — is `disallowed_types`/`disallowed_methods`
/// over `clippy.toml`'s list: allowed across the workspace, denied
/// outside tests by each core module ahead of its first item, and by the
/// journal's recovery fold. Deleting a deny fails here.
#[test]
fn core_modules_deny_the_disallowed_list() {
    const DENY: &str =
        "cfg_attr(not(test),deny(clippy::disallowed_types,clippy::disallowed_methods))]";
    let root = workspace_root();
    let flat = |file: &str, skip: &str| -> String {
        let src = std::fs::read_to_string(root.join(file)).expect(file);
        src.lines()
            .filter(|l| !l.starts_with(skip))
            .flat_map(str::split_whitespace)
            .collect()
    };
    for file in CORES {
        assert!(
            flat(file, "//!").starts_with(&format!("#![{DENY}")),
            "{file} no longer denies the disallowed list ahead of its first item"
        );
    }
    let journal = flat("crates/jets-core/src/journal.rs", "///");
    assert!(
        journal.contains(&format!("#[{DENY}pubfnrecover(")),
        "journal::recover no longer denies the disallowed list"
    );
    let list = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime",
        "std::sync::Mutex",
        "std::sync::atomic::AtomicU64",
        "std::thread::spawn",
        "std::net::TcpStream",
        "std::fs::File",
        "std::collections::HashMap",
        "jets_core::journal::Journal",
    ] {
        assert!(
            list.contains(&format!("\"{path}\"")),
            "clippy.toml no longer lists {path}"
        );
    }
}
