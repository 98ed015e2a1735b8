//! Fixture-driven self-test: every rule must be proven live by a
//! known-bad snippet (exact rule ids and line spans, nothing else), and
//! every known-good snippet must pass clean. A final test lints the
//! real workspace and asserts zero unsuppressed findings — the CI gate,
//! enforced from the test suite as well.

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
fn protocol_bad_fires_exactly() {
    // The wildcard arm (line 10) and the missing-variant summary on the
    // match itself (line 8).
    assert_eq!(
        fired("protocol/bad.rs"),
        vec![("J4".to_string(), 8), ("J4".to_string(), 10)]
    );
}

#[test]
fn protocol_good_is_clean() {
    assert_clean("protocol/good.rs");
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
fn unwrap_bad_fires_exactly() {
    assert_eq!(
        fired("unwrap/bad.rs"),
        vec![
            ("J6".to_string(), 2),
            ("J6".to_string(), 7),
            ("J6".to_string(), 12),
            ("J6".to_string(), 17),
            ("J6".to_string(), 22)
        ]
    );
}

#[test]
fn unwrap_good_is_clean() {
    assert_clean("unwrap/good.rs");
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

/// The acceptance gate, runnable from the test suite: the real tree
/// must carry zero unsuppressed findings. Walks up from this crate to
/// the workspace root.
#[test]
fn workspace_is_clean() {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = loop {
        if root.join("crates/jets-core/src/dispatcher.rs").exists() {
            break root;
        }
        assert!(
            root.pop(),
            "workspace root not found above CARGO_MANIFEST_DIR"
        );
    };
    let files = jets_lint::workspace_files(&root);
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
