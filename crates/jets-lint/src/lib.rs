//! jets-lint: workspace-wide invariant checker for the JETS runtime.
//!
//! The dispatcher and relay are built around a handful of concurrency
//! invariants that ordinary type checking cannot see: the rule that no
//! lock is held across blocking socket I/O, the discipline around
//! `Ordering::Relaxed` atomics, the reactor and flight-ring disciplines,
//! and the negative exit-code registry.
//! This crate turns those prose invariants (see
//! `docs/static-analysis.md`) into a machine-checked pass that runs as
//! a hard CI gate. (Lock *order* is not one of them: the locks check it
//! themselves, see `jets_ring::stdx::Rank`.)
//!
//! The analysis is token-based (see [`lexer`]) rather than `syn`-based
//! so it works with zero dependencies in offline environments, and runs
//! in two passes: pass 1 ([`index`]) summarizes every function in the
//! workspace (calls made, blocking ops performed, guards live at each);
//! pass 2 ([`callgraph`]) stitches the summaries into a name-based call
//! graph and derives blocking taint. The rules are per-file; J2 and J7
//! additionally fire *through* the graph on calls to blocking-tainted
//! helpers (with the witness chain in the diagnostic). Each rule is deliberately narrow: it targets the
//! exact shape of the invariant in this codebase, preferring a missed
//! exotic case over a false positive that trains people to sprinkle
//! suppressions.
//!
//! Rules:
//!
//! | id  | key                  | invariant                                         |
//! |-----|----------------------|---------------------------------------------------|
//! | J0  | (meta)               | suppression comments must be well-formed + reasoned|
//! | J2  | `lock-across-blocking` | no let-bound lock guard live across blocking ops (direct or via a tainted callee) |
//! | J3  | `relaxed`            | Relaxed store/swap on a cross-thread flag needs a reason |
//! | J5  | `exit-code`          | negative sentinel exit codes only in `spec.rs`    |
//! | J7  | `reactor`            | no thread spawns in per-connection serve paths; no blocking calls (direct or transitive) in reactor callbacks |
//! | J8  | `ring`               | flight-recorder writer path stays lock-free and allocation-free |
//!
//! J4 `protocol` and J6 `unwrap` are clippy's now: the crate roots they
//! guarded deny `wildcard_enum_match_arm` (with
//! `match_wildcard_for_single_variants`) and `unwrap_used`/`expect_used`
//! (see `docs/static-analysis.md`). Their ids are not reused.
//!
//! Suppression syntax (the reason is mandatory):
//!
//! ```text
//! // jets-lint: allow(lock-across-blocking) handshake runs before the writer thread exists
//! ```
//!
//! A suppression covers findings with the matching key on its own line
//! and the next three lines, so it can sit above a multi-line statement.

pub mod callgraph;
pub mod index;
pub mod lexer;

use callgraph::CallGraph;
use index::FileIndex;
use lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers, used in diagnostics (`J2`). The numbering has gaps
/// where rules were retired; ids are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Malformed suppression comment.
    J0,
    /// Lock guard live across a blocking operation — performed directly
    /// or by a transitively-blocking callee (graph form).
    J2,
    /// `Ordering::Relaxed` store/swap on a cross-thread flag without an
    /// `allow(relaxed)` marker.
    J3,
    /// Magic negative exit-code literal outside `spec.rs`.
    J5,
    /// Reactor discipline: thread spawn in a per-connection serve path
    /// of a reactor-converted crate, or a blocking call — direct or via
    /// a tainted callee — inside a reactor callback
    /// (`on_open`/`on_frame`/`on_close`).
    J7,
    /// Ring writer discipline: lock acquisition, blocking call, or
    /// heap allocation inside a flight-recorder writer-path function
    /// (`push*`/`record*`/`encode*` in ring-scoped files).
    J8,
}

impl Rule {
    /// The suppression key for this rule (what goes inside `allow(..)`).
    pub fn key(self) -> &'static str {
        match self {
            Rule::J0 => "suppression",
            Rule::J2 => "lock-across-blocking",
            Rule::J3 => "relaxed",
            Rule::J5 => "exit-code",
            Rule::J7 => "reactor",
            Rule::J8 => "ring",
        }
    }

    /// Short id (`J2`…) for human output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::J0 => "J0",
            Rule::J2 => "J2",
            Rule::J3 => "J3",
            Rule::J5 => "J5",
            Rule::J7 => "J7",
            Rule::J8 => "J8",
        }
    }
}

/// Suppression keys accepted inside `allow(..)`. `suppression` (J0)
/// itself is intentionally absent: hygiene findings cannot be waived.
const ALLOW_KEYS: &[&str] = &[
    "lock-across-blocking",
    "relaxed",
    "exit-code",
    "reactor",
    "ring",
];

pub use index::SUPPRESSION_REACH;

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Interprocedural witness chain (function names ending in the
    /// blocking op). Empty for single-function findings.
    pub chain: Vec<String>,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    fn new(rule: Rule, path: &Path, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_path_buf(),
            line,
            chain: Vec::new(),
            message,
        }
    }

    fn with_chain(mut self, chain: Vec<String>) -> Finding {
        self.chain = chain;
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.path.display(),
            self.line,
            self.rule.id(),
            self.rule.key(),
            self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, " [chain: {}]", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// A parsed, well-formed suppression.
#[derive(Debug, Clone)]
struct Suppression {
    line: u32,
    key: String,
    used: bool,
}

/// Lint in-memory sources: `(path, contents)` pairs. This is the core
/// entry point; [`lint_paths`] reads files and delegates here. The
/// call graph and rule J3's cross-function load sites are resolved
/// across the whole set.
pub fn lint_sources(sources: &[(PathBuf, String)]) -> Vec<Finding> {
    let files: Vec<FileIndex> = sources
        .iter()
        .map(|(path, src)| index::index_file(path.clone(), src))
        .collect();
    let graph = CallGraph::build(&files);

    // J3 needs to know which atomic field names are loaded in *some
    // other* function than the store site; collect (field -> functions
    // that load it) across the whole set.
    let mut load_sites: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in &files {
        for (field, func) in &file.atomic_loads {
            load_sites
                .entry(field.clone())
                .or_default()
                .insert(func.clone());
        }
    }

    let mut findings = Vec::new();
    let mut suppressions: Vec<(usize, Vec<Suppression>)> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        let (mut sup, mut j0) = parse_suppressions(file);
        findings.append(&mut j0);
        rule_lock_across_blocking(file, &graph, &mut findings);
        rule_relaxed_atomics(file, &load_sites, &mut findings);
        rule_exit_code(file, &mut findings);
        rule_reactor_discipline(file, &graph, &mut findings);
        rule_ring_writer(file, &mut findings);
        sup.sort_by_key(|s| s.line);
        suppressions.push((fi, sup));
    }

    // Apply suppressions per file.
    let mut kept = Vec::new();
    'finding: for f in findings {
        if f.rule != Rule::J0 {
            for (fi, sups) in suppressions.iter_mut() {
                if files[*fi].path != f.path {
                    continue;
                }
                for s in sups.iter_mut() {
                    if s.key == f.rule.key()
                        && f.line >= s.line
                        && f.line <= s.line + SUPPRESSION_REACH
                    {
                        s.used = true;
                        continue 'finding;
                    }
                }
            }
        }
        kept.push(f);
    }

    // Unused suppressions are hygiene findings too: they document an
    // invariant exemption that no longer exists.
    for (fi, sups) in &suppressions {
        for s in sups {
            if !s.used {
                kept.push(Finding::new(
                    Rule::J0,
                    &files[*fi].path,
                    s.line,
                    format!(
                        "unused suppression `allow({})`: no matching finding within {} lines",
                        s.key, SUPPRESSION_REACH
                    ),
                ));
            }
        }
    }

    kept.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    kept
}

/// Read and lint files from disk. Unreadable files are skipped (the
/// walker only hands us paths it just saw).
pub fn lint_paths(paths: &[PathBuf]) -> Vec<Finding> {
    let mut sources = Vec::with_capacity(paths.len());
    for p in paths {
        if let Ok(src) = std::fs::read_to_string(p) {
            sources.push((p.clone(), src));
        }
    }
    lint_sources(&sources)
}

/// Collect the `.rs` files of a workspace rooted at `root`, excluding
/// build output, git's own directory and fixtures (known-bad code).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// J0: suppression hygiene.
// ---------------------------------------------------------------------------

fn parse_suppressions(file: &FileIndex) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for raw in &file.lexed.suppressions {
        let text = raw.text.trim();
        let bad = |msg: String| Finding::new(Rule::J0, &file.path, raw.line, msg);
        let Some(rest) = text.strip_prefix("allow(") else {
            findings.push(bad(format!(
                "malformed jets-lint comment `{text}`: expected `allow(<key>) <reason>`"
            )));
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(bad(format!(
                "malformed jets-lint comment `{text}`: missing `)`"
            )));
            continue;
        };
        let key = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim();
        if !ALLOW_KEYS.contains(&key.as_str()) {
            findings.push(bad(format!(
                "unknown suppression key `{key}` (expected one of: {})",
                ALLOW_KEYS.join(", ")
            )));
            continue;
        }
        if reason.is_empty() {
            findings.push(bad(format!(
                "suppression `allow({key})` is missing its mandatory reason"
            )));
            continue;
        }
        sups.push(Suppression {
            line: raw.line,
            key,
            used: false,
        });
    }
    (sups, findings)
}

// ---------------------------------------------------------------------------
// J2: no lock across blocking — direct ops, plus calls into
// blocking-tainted helpers (the graph form).
// ---------------------------------------------------------------------------

fn rule_lock_across_blocking(file: &FileIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    if file.file_is_test {
        return;
    }
    for func in &file.funcs {
        if func.in_test {
            continue;
        }
        for b in &func.blocking {
            for g in &b.held {
                // Condvar waits release the lock; they are filtered by
                // not being in the blocking sets.
                findings.push(Finding::new(
                    Rule::J2,
                    &file.path,
                    b.line,
                    format!(
                        "blocking call {} while lock guard `{}` (on `{}`, line {}) is live",
                        b.op, g.name, g.field, g.line
                    ),
                ));
            }
        }
        // Transitive form: a call made under a guard into a helper that
        // (transitively) blocks. Calls inside spawn(..) run on another
        // thread and carry neither the guard nor the stall. A call
        // matching the function's own name is a method on some other
        // type (true recursion under a guard would deadlock on entry).
        for c in &func.calls {
            if c.in_spawn || c.held.is_empty() || c.name == func.name {
                continue;
            }
            let Some(callee) = graph.tainted_callee(&file.krate, &c.name) else {
                continue;
            };
            let tail = graph.taint_chain(callee);
            let mut chain = vec![func.name.clone()];
            chain.extend(tail);
            for g in &c.held {
                findings.push(
                    Finding::new(
                        Rule::J2,
                        &file.path,
                        c.line,
                        format!(
                            "call to blocking-tainted `{}` while lock guard `{}` (on `{}`, line {}) is live; blocks via {}",
                            c.name,
                            g.name,
                            g.field,
                            g.line,
                            chain.join(" -> ")
                        ),
                    )
                    .with_chain(chain.clone()),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// J3: Relaxed atomics policy.
// ---------------------------------------------------------------------------

fn rule_relaxed_atomics(
    file: &FileIndex,
    load_sites: &BTreeMap<String, BTreeSet<String>>,
    findings: &mut Vec<Finding>,
) {
    if file.file_is_test {
        return;
    }
    // Ring-scoped files get the strict form: *every* `Relaxed` mutation
    // (including `fetch_add`/`fetch_sub` claim cursors) needs a reason,
    // because every slot and cursor atomic there is cross-thread by
    // construction — the cross-function load heuristic below would
    // under-approximate on mmap'd words read by other *processes*.
    let in_ring = ring_scoped_path(&file.path);
    for func in &file.funcs {
        if func.in_test {
            continue;
        }
        let toks = &file.lexed.toks;
        let mut i = func.body.start;
        while i + 2 < func.body.end {
            // Shape: `.store(` or `.swap(` with receiver ident, whose
            // argument list mentions `Relaxed`.
            if toks[i].is_punct(".")
                && (toks[i + 1].is_ident("store")
                    || toks[i + 1].is_ident("swap")
                    || (in_ring
                        && (toks[i + 1].is_ident("fetch_add")
                            || toks[i + 1].is_ident("fetch_sub"))))
                && toks[i + 2].is_punct("(")
                && i > 0
                && toks[i - 1].kind == TokKind::Ident
            {
                let field = toks[i - 1].text.clone();
                let op = toks[i + 1].text.clone();
                // Scan the argument list for `Relaxed`.
                let mut j = i + 3;
                let mut depth = 1;
                let mut relaxed = false;
                while j < func.body.end && depth > 0 {
                    if toks[j].is_punct("(") {
                        depth += 1;
                    } else if toks[j].is_punct(")") {
                        depth -= 1;
                    } else if toks[j].is_ident("Relaxed") {
                        relaxed = true;
                    }
                    j += 1;
                }
                if relaxed {
                    // Cross-thread shape: the same field is loaded in a
                    // different function somewhere in the analysis set.
                    // In ring scope that is assumed, not inferred.
                    let cross = in_ring
                        || load_sites
                            .get(&field)
                            .map(|fns| fns.iter().any(|f| f != &func.name))
                            .unwrap_or(false);
                    if cross {
                        findings.push(Finding::new(
                            Rule::J3,
                            &file.path,
                            toks[i].line,
                            format!(
                                "`{field}.{op}(.., Ordering::Relaxed)` on a flag read elsewhere (cross-thread signal shape); annotate with `// jets-lint: allow(relaxed) <reason>` or upgrade the ordering"
                            ),
                        ));
                    }
                }
                i = j;
                continue;
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// J5: exit-code registry.
// ---------------------------------------------------------------------------

/// Sentinel exit codes owned by `spec.rs`. 127 is also claimed by the
/// worker's *positive* spawn-failure convention, so only the negative
/// (dispatcher-synthesized) forms are restricted.
const SENTINEL_CODES: &[&str] = &["125", "126", "127", "128"];

fn rule_exit_code(file: &FileIndex, findings: &mut Vec<Finding>) {
    let fname = file
        .path
        .file_name()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_default();
    if fname == "spec.rs" {
        return; // the registry itself
    }
    let toks = &file.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Int {
            continue;
        }
        let digits = t
            .text
            .split(|c: char| c.is_alphabetic())
            .next()
            .unwrap_or("");
        let digits = digits.trim_end_matches('_');
        if !SENTINEL_CODES.contains(&digits) {
            continue;
        }
        // Must be a *negative* literal: preceded by unary `-`.
        if i == 0 || !toks[i - 1].is_punct("-") {
            continue;
        }
        // Unary position: the token before the `-` must not be a value
        // (ident/number/closing bracket), otherwise it's subtraction.
        if i >= 2 {
            let prev = &toks[i - 2];
            let is_value = matches!(prev.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                || prev.is_punct(")")
                || prev.is_punct("]");
            // `=> -125`, `(-125`, `== -125`, `, -125` are unary; but
            // keyword idents (`return`) are not values.
            let keyword_ok = matches!(
                prev.text.as_str(),
                "return" | "=>" | "=" | "," | "(" | "[" | "==" | "!=" | "<" | ">" | "<=" | ">="
            );
            if is_value && !keyword_ok {
                continue;
            }
        }
        findings.push(Finding::new(
            Rule::J5,
            &file.path,
            t.line,
            format!(
                "magic exit-code literal -{digits}: use the named constant from jets-core `spec.rs` (EXIT_*)"
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// J7: reactor discipline.
// ---------------------------------------------------------------------------

/// Reactor callback names. These run inline on an event-loop thread:
/// one blocking call stalls every connection multiplexed on that loop.
const REACTOR_CALLBACKS: &[&str] = &["on_open", "on_frame", "on_close"];

/// Reactor methods whose closure argument runs on the event loop just as
/// a callback does: timers, posts and calls.
const LOOP_CLOSURES: &[&str] = &["every", "after", "post", "call"];

/// The argument lists, by token range, of the `.every(..)` / `.post(..)`
/// / … calls in `func` that pass a closure, each with its method name.
fn loop_closures(toks: &[Tok], func: &index::FnFacts) -> Vec<(String, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    for i in func.body.clone() {
        let called = toks[i].is_punct(".") && toks.get(i + 2).is_some_and(|t| t.is_punct("("));
        let named = |t: &&Tok| LOOP_CLOSURES.contains(&t.text.as_str());
        let Some(method) = toks.get(i + 1).filter(|t| called && named(t)) else {
            continue;
        };
        let (start, mut end, mut depth) = (i + 3, i + 3, 1);
        while end < func.body.end && depth > 0 {
            depth += i32::from(toks[end].is_punct("(")) - i32::from(toks[end].is_punct(")"));
            end += 1;
        }
        let args = start..end.saturating_sub(1);
        if toks[args.clone()]
            .iter()
            .any(|t| t.is_punct("|") || t.is_punct("||"))
        {
            out.push((method.text.clone(), args));
        }
    }
    out
}

/// Path predicate for the reactor-converted fan-in crates: their
/// per-connection serve/accept paths must not spawn threads, because
/// connection concurrency belongs to the reactor (jets-pmi's rank
/// connections) or to one poller thread (jets-mpi's endpoint). The worker
/// agent is a blocking client by design and exempt by path.
fn reactor_scoped_path(path: &Path) -> bool {
    let s = path.to_string_lossy().replace('\\', "/");
    s.split('/').any(|comp| {
        comp.contains("jets-core")
            || comp.contains("jets-relay")
            || comp.contains("jets-reactor")
            || comp.contains("jets-pmi")
            || comp.contains("jets-mpi")
            || comp == "reactor"
    })
}

fn rule_reactor_discipline(file: &FileIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    if file.file_is_test {
        return;
    }
    let toks = &file.lexed.toks;
    for func in &file.funcs {
        if func.in_test {
            continue;
        }
        // Closures handed to the loop are checked like callbacks.
        for (method, args) in loop_closures(toks, func) {
            let on_loop =
                format!("a closure passed to `{method}`, which runs it on the event loop");
            for i in args.clone() {
                if let Some(op) = index::blocking_op_at(toks, i) {
                    let message = format!("blocking call {op} inside {on_loop}");
                    let finding = Finding::new(Rule::J7, &file.path, toks[i].line, message);
                    findings.push(finding.with_chain(vec![method.clone(), op]));
                }
            }
            for c in func
                .calls
                .iter()
                .filter(|c| !c.in_spawn && args.contains(&c.at))
            {
                let Some(callee) = graph.tainted_callee(&file.krate, &c.name) else {
                    continue;
                };
                let mut chain = vec![method.clone()];
                chain.extend(graph.taint_chain(callee));
                let message = format!(
                    "call to blocking-tainted `{}` inside {on_loop}; blocks via {}",
                    c.name,
                    chain.join(" -> ")
                );
                let finding = Finding::new(Rule::J7, &file.path, c.line, message);
                findings.push(finding.with_chain(chain));
            }
        }
        let is_callback = REACTOR_CALLBACKS.contains(&func.name.as_str());
        let is_serve_path = (func.name.starts_with("serve_") || func.name.starts_with("accept_"))
            && reactor_scoped_path(&file.path);
        if !is_callback && !is_serve_path {
            continue;
        }
        let mut i = func.body.start;
        while i < func.body.end {
            let t = &toks[i];
            // `thread::spawn` / `thread::Builder`: banned in both scopes.
            if t.is_ident("thread")
                && toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
                && toks
                    .get(i + 2)
                    .map(|n| n.is_ident("spawn") || n.is_ident("Builder"))
                    .unwrap_or(false)
            {
                let what = &toks[i + 2].text;
                let message = if is_callback {
                    format!(
                        "`thread::{what}` inside reactor callback `{}`: callbacks run on the event loop; queue work instead of spawning",
                        func.name
                    )
                } else {
                    format!(
                        "`thread::{what}` inside per-connection path `{}`: connection concurrency belongs to the reactor, not ad-hoc threads",
                        func.name
                    )
                };
                findings.push(Finding::new(Rule::J7, &file.path, t.line, message));
                i += 3;
                continue;
            }
            // Blocking calls: banned in callbacks only (serve paths on
            // the blocking side may legitimately block, they just may
            // not spawn).
            if is_callback {
                if let Some(op) = index::blocking_op_at(toks, i) {
                    findings.push(Finding::new(
                        Rule::J7,
                        &file.path,
                        t.line,
                        format!(
                            "blocking call {op} inside reactor callback `{}`: the event loop must never block; queue on the outbox or defer to a service thread",
                            func.name
                        ),
                    ));
                }
            }
            i += 1;
        }
        // Transitive form: a callback calling a blocking-tainted
        // helper stalls the loop just as surely as blocking inline.
        if is_callback {
            for c in &func.calls {
                if c.in_spawn || c.name == func.name {
                    continue;
                }
                let Some(callee) = graph.tainted_callee(&file.krate, &c.name) else {
                    continue;
                };
                let tail = graph.taint_chain(callee);
                let mut chain = vec![func.name.clone()];
                chain.extend(tail);
                findings.push(
                    Finding::new(
                        Rule::J7,
                        &file.path,
                        c.line,
                        format!(
                            "call to blocking-tainted `{}` inside reactor callback `{}`: the event loop must never block; blocks via {}",
                            c.name,
                            func.name,
                            chain.join(" -> ")
                        ),
                    )
                    .with_chain(chain),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// J8: ring writer discipline.
// ---------------------------------------------------------------------------

/// Path predicate for the flight recorder's writer path: the
/// `jets-ring` crate itself, plus the `EventLog` facade in jets-core's
/// `events.rs` (whose `record`/`encode_event` feed the ring).
fn ring_scoped_path(path: &Path) -> bool {
    let s = path.to_string_lossy().replace('\\', "/");
    s.split('/')
        .any(|comp| comp.contains("jets-ring") || comp == "ring")
        || (s.ends_with("events.rs") && s.contains("jets-core"))
}

/// Writer-path functions inside ring scope: what runs between a
/// producer deciding to record and the slot's publishing store. Span
/// emitters (`span_start`/`span_end`, `emit_*`) are writer-path too —
/// they run at task-dispatch rate on every traced process.
fn is_ring_writer_fn(name: &str) -> bool {
    name.starts_with("push")
        || name.starts_with("record")
        || name.starts_with("encode")
        || name.starts_with("span_")
        || name.starts_with("emit_")
}

/// Macros that allocate (`name!`-shape).
const RING_ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Methods that allocate (`.name(`-shape).
const RING_ALLOC_METHODS: &[&str] = &["to_string", "to_vec", "to_owned", "collect"];

/// Heap-owning types whose associated constructors (`Name::`-shape)
/// have no business in a record path that encodes into stack buffers.
const RING_ALLOC_TYPES: &[&str] = &["Vec", "String", "Box"];

/// The acceptance invariant of the flight recorder, machine-checked:
/// `EventLog::record` and everything under it takes no lock, blocks on
/// nothing, and allocates nothing — a producer records an event for the
/// cost of a claim `fetch_add`, two stamp exchanges and eight word
/// stores, always.
fn rule_ring_writer(file: &FileIndex, findings: &mut Vec<Finding>) {
    if file.file_is_test || !ring_scoped_path(&file.path) {
        return;
    }
    let toks = &file.lexed.toks;
    for func in &file.funcs {
        if func.in_test || !is_ring_writer_fn(&func.name) {
            continue;
        }
        let mut i = func.body.start;
        while i < func.body.end {
            let t = &toks[i];
            // Lock acquisition: the writer path may never contend.
            if t.is_punct(".")
                && toks.get(i + 1).map(|n| n.is_ident("lock")).unwrap_or(false)
                && toks.get(i + 2).map(|n| n.is_punct("(")).unwrap_or(false)
            {
                findings.push(Finding::new(
                    Rule::J8,
                    &file.path,
                    t.line,
                    format!(
                        "`.lock()` in ring writer path `{}`: the flight-recorder record path must stay lock-free; annotate with `// jets-lint: allow(ring) <reason>` only if this is provably off the hot path",
                        func.name
                    ),
                ));
                i += 3;
                continue;
            }
            // Blocking I/O or sleeps: shared detector with J2/J7.
            if let Some(op) = index::blocking_op_at(toks, i) {
                findings.push(Finding::new(
                    Rule::J8,
                    &file.path,
                    t.line,
                    format!(
                        "blocking call {op} in ring writer path `{}`: producers record events at task-dispatch rate and must never wait",
                        func.name
                    ),
                ));
                i += 1;
                continue;
            }
            // Heap allocation: `format!`/`vec!`, allocating method
            // calls, and `Vec::`/`String::`/`Box::` constructors.
            let alloc: Option<String> = if t.kind == TokKind::Ident
                && RING_ALLOC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false)
            {
                Some(format!("{}!", t.text))
            } else if t.is_punct(".")
                && toks
                    .get(i + 1)
                    .map(|n| {
                        n.kind == TokKind::Ident
                            && RING_ALLOC_METHODS.contains(&n.text.as_str())
                            && index::is_called(toks, i + 1)
                    })
                    .unwrap_or(false)
            {
                Some(format!(".{}()", toks[i + 1].text))
            } else if t.kind == TokKind::Ident
                && RING_ALLOC_TYPES.contains(&t.text.as_str())
                && toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
            {
                Some(format!("{}::", t.text))
            } else {
                None
            };
            if let Some(what) = alloc {
                findings.push(Finding::new(
                    Rule::J8,
                    &file.path,
                    t.line,
                    format!(
                        "allocation (`{what}`) in ring writer path `{}`: records are encoded into fixed stack buffers, never the heap",
                        func.name
                    ),
                ));
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(src: &str) -> Vec<Finding> {
        lint_sources(&[(PathBuf::from("crates/x/src/lib.rs"), src.to_string())])
    }

    #[test]
    fn clean_code_has_no_findings() {
        // Lock order is the locks' own business (`stdx::Rank`), not ours.
        let src = r#"
            fn nested(inner: &Inner) {
                let mut bk = inner.book.lock();
                let mut st = inner.sched.lock();
                bk.note(&mut st);
            }
        "#;
        assert!(lint_one(src).is_empty(), "{:?}", lint_one(src));
    }

    #[test]
    fn guard_scope_exit_clears_locks() {
        let src = r#"
            fn scoped(inner: &Inner, rx: &Receiver<u8>) {
                {
                    let bk = inner.book.lock();
                }
                let x = rx.recv();
            }
        "#;
        assert!(lint_one(src).is_empty());
    }

    #[test]
    fn drop_clears_guard() {
        let src = r#"
            fn dropped(inner: &Inner, rx: &Receiver<u8>) {
                let bk = inner.book.lock();
                drop(bk);
                let x = rx.recv();
            }
        "#;
        assert!(lint_one(src).is_empty());
    }

    #[test]
    fn blocking_under_guard_fires_j2() {
        let src = r#"
            fn bad(inner: &Inner, rx: &Receiver<u8>) {
                let st = inner.sched.lock();
                let x = rx.recv();
            }
        "#;
        let f = lint_one(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::J2);
    }

    #[test]
    fn temporary_guard_send_is_fine() {
        // The agent's writer.lock().send(..) idiom: the guard is a
        // temporary, dead by the end of the statement.
        let src = r#"
            fn ok(writer: &Mutex<MsgWriter>) {
                writer.lock().send(&msg);
            }
        "#;
        assert!(lint_one(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn helper(inner: &Inner) {
                    let bk = inner.book.lock();
                    let st = inner.sched.lock();
                    let v = rx.recv().unwrap();
                }
            }
        "#;
        assert!(lint_one(src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = r#"
            fn bad(inner: &Inner, rx: &Receiver<u8>) {
                let st = inner.sched.lock();
                // jets-lint: allow(lock-across-blocking) bounded by test harness
                let x = rx.recv();
            }
        "#;
        assert!(lint_one(src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_j0_and_does_not_silence() {
        let src = r#"
            fn bad(inner: &Inner, rx: &Receiver<u8>) {
                let st = inner.sched.lock();
                // jets-lint: allow(lock-across-blocking)
                let x = rx.recv();
            }
        "#;
        let f = lint_one(src);
        assert!(f.iter().any(|f| f.rule == Rule::J0));
        assert!(f.iter().any(|f| f.rule == Rule::J2));
    }

    #[test]
    fn unused_suppression_is_j0() {
        let src = r#"
            // jets-lint: allow(exit-code) nothing here actually needs this
            fn fine() {}
        "#;
        let f = lint_one(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::J0);
        assert!(f[0].message.contains("unused"));
    }

    #[test]
    fn relaxed_signal_fires_j3() {
        let src = r#"
            fn writer_side(flag: &AtomicBool) {
                flag.store(true, Ordering::Relaxed);
            }
            fn reader_side(flag: &AtomicBool) -> bool {
                flag.load(Ordering::Acquire)
            }
        "#;
        let f = lint_one(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::J3);
    }

    #[test]
    fn relaxed_counter_without_cross_fn_load_is_fine() {
        let src = r#"
            fn bump(c: &AtomicU64) {
                c.fetch_add(1, Ordering::Relaxed);
                local.store(7, Ordering::Relaxed);
            }
        "#;
        assert!(lint_one(src).is_empty());
    }

    #[test]
    fn negative_exit_literal_fires_j5() {
        let src = r#"
            fn synth() -> i32 { -125 }
        "#;
        let f = lint_one(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::J5);
    }

    #[test]
    fn positive_and_subtraction_literals_are_fine() {
        let src = r#"
            const EXIT_RANK_PANIC: i32 = 125;
            fn sub(x: i32) -> i32 { x - 126 }
        "#;
        assert!(lint_one(src).is_empty(), "{:?}", lint_one(src));
    }

    #[test]
    fn spec_rs_is_exempt_from_j5() {
        let f = lint_sources(&[(
            PathBuf::from("crates/jets-core/src/spec.rs"),
            "pub const EXIT_CANCELED: i32 = -125;".to_string(),
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn spawn_in_reactor_scoped_serve_fires_j7() {
        let src = r#"
            fn serve_member(stream: TcpStream) {
                thread::spawn(move || pump(stream));
            }
        "#;
        let f = lint_sources(&[(
            PathBuf::from("crates/jets-relay/src/daemon.rs"),
            src.to_string(),
        )]);
        assert!(f.iter().any(|f| f.rule == Rule::J7), "{f:?}");
    }

    #[test]
    fn spawn_in_blocking_client_serve_is_fine() {
        // The worker agent is a blocking client by design; jets-pmi and
        // jets-mpi are not any more: a thread per rank connection there
        // is the pattern the PMI listener and the MPI endpoint replaced.
        let src = r#"
            fn serve_rank(stream: TcpStream) {
                thread::spawn(move || pump(stream));
            }
        "#;
        let lint_at = |path: &str| lint_sources(&[(PathBuf::from(path), src.to_string())]);
        let f = lint_at("crates/jets-worker/src/agent.rs");
        assert!(f.is_empty(), "{f:?}");
        for path in [
            "crates/jets-pmi/src/server.rs",
            "crates/jets-mpi/src/endpoint.rs",
        ] {
            let f = lint_at(path);
            assert!(f.iter().any(|f| f.rule == Rule::J7), "{path}: {f:?}");
        }
    }

    #[test]
    fn blocking_call_in_reactor_callback_fires_j7() {
        // Callbacks are scanned regardless of path: any on_frame runs on
        // an event loop, and recv() there stalls every connection on it.
        let src = r#"
            fn on_frame(&mut self, frame: &[u8]) -> Flow {
                let reply = self.rx.recv();
                Flow::Continue
            }
        "#;
        let f = lint_one(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::J7);
    }

    #[test]
    fn spawn_in_reactor_callback_fires_j7() {
        let src = r#"
            fn on_open(&mut self, outbox: &Arc<Outbox>) {
                thread::Builder::new().spawn(|| {}).ok();
            }
        "#;
        let f = lint_one(src);
        assert!(f.iter().any(|f| f.rule == Rule::J7), "{f:?}");
    }

    #[test]
    fn outbox_send_in_callback_is_fine() {
        // Outbox::send never blocks (bounded buffer, drop-on-overflow),
        // so the non-blocking send idiom must stay clean.
        let src = r#"
            fn on_frame(&mut self, frame: &[u8]) -> Flow {
                self.outbox.send(frame);
                Flow::Continue
            }
        "#;
        assert!(lint_one(src).is_empty(), "{:?}", lint_one(src));
    }

    #[test]
    fn j7_suppression_with_reason_silences() {
        let src = r#"
            fn on_close(&mut self, reason: CloseReason) {
                // jets-lint: allow(reactor) teardown path; loop is already dead
                thread::spawn(move || cleanup());
            }
        "#;
        assert!(lint_one(src).is_empty(), "{:?}", lint_one(src));
    }

    // --- interprocedural (graph) rules --------------------------------

    #[test]
    fn two_hop_taint_under_guard_fires_j2_with_chain() {
        let src = r#"
            fn drain_outbox(stream: &mut TcpStream) {
                stream.flush();
            }
            fn serve_tick(inner: &Inner, stream: &mut TcpStream) {
                let st = inner.sched.lock();
                drain_outbox(stream);
            }
        "#;
        let f = lint_one(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::J2);
        assert_eq!(f[0].chain, vec!["serve_tick", "drain_outbox", ".flush()"]);
        assert!(f[0]
            .message
            .contains("serve_tick -> drain_outbox -> .flush()"));
    }

    #[test]
    fn three_hop_taint_in_callback_fires_j7_with_chain() {
        let src = r#"
            fn nap() {
                thread::sleep(Duration::from_millis(1));
            }
            fn settle() {
                nap();
            }
            fn on_frame(&mut self, frame: &[u8]) -> Flow {
                settle();
                Flow::Continue
            }
        "#;
        let f = lint_one(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::J7);
        assert_eq!(f[0].chain, vec!["on_frame", "settle", "nap", "sleep()"]);
    }

    #[test]
    fn blocking_inside_spawn_does_not_taint_caller() {
        // Work handed to another thread neither blocks the caller nor
        // runs under its guards.
        let src = r#"
            fn worker_body() {
                thread::sleep(Duration::from_millis(1));
            }
            fn launch(inner: &Inner) {
                let st = inner.sched.lock();
                thread::spawn(move || worker_body());
            }
        "#;
        assert!(lint_one(src).is_empty(), "{:?}", lint_one(src));
    }

    #[test]
    fn tainted_call_without_guard_is_fine() {
        let src = r#"
            fn drain(stream: &mut TcpStream) {
                stream.flush();
            }
            fn tick(stream: &mut TcpStream) {
                drain(stream);
            }
        "#;
        assert!(lint_one(src).is_empty(), "{:?}", lint_one(src));
    }
}
