//! Pass 1 of the two-pass analysis: the workspace symbol index.
//!
//! Every source file is lexed and split into functions, and each
//! function is summarized into [`FnFacts`]: the calls it makes and the
//! blocking operations it performs directly, each with the lock guards
//! live at that point. Pass 2 (see [`crate::callgraph`]) stitches these
//! per-file summaries into a workspace call graph and runs the
//! interprocedural rules over it. Each file's facts depend only on its
//! own tokens; all cross-file resolution (call edges, atomic load
//! sites) happens afterwards.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// How many lines below a suppression comment it still covers, so the
/// comment can sit above a multi-line statement.
pub const SUPPRESSION_REACH: u32 = 3;

/// Does `line` fall under a well-formed, reasoned
/// `allow(lock-across-blocking)` suppression in this file? The taint
/// pass treats such a site as *documented-contract* blocking — the
/// suppression records a reviewed decision that the op is bounded and
/// intentional (e.g. the journal's serialized WAL write), so it does
/// not seed transitive taint and callers are not re-flagged for the
/// same decision. Malformed or reason-less suppressions confer
/// nothing.
pub fn blocking_contract_at(file: &FileIndex, line: u32) -> bool {
    file.lexed.suppressions.iter().any(|s| {
        let text = s.text.trim();
        let Some(rest) = text.strip_prefix("allow(") else {
            return false;
        };
        let Some(close) = rest.find(')') else {
            return false;
        };
        rest[..close].trim() == "lock-across-blocking"
            && !rest[close + 1..].trim().is_empty()
            && line >= s.line
            && line <= s.line + SUPPRESSION_REACH
    })
}

/// Method names (called as `.name(`) that block on I/O or time.
pub const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "accept",
    "connect",
];

/// Free functions / paths that block (`thread::sleep`). Blocking frame
/// I/O is a method call — `MsgReader::recv`, `MsgWriter::send` on a
/// writer — and [`blocking_op_at`]'s method shapes catch it.
pub const BLOCKING_CALLS: &[&str] = &["sleep"];

/// `std::fs` functions that block on the disk, matched only when called
/// through the module path (`fs::write(..)`): a bare `write` is also a
/// lock, a buffer and a formatter method.
pub const BLOCKING_FS: &[&str] = &["write", "create_dir_all"];

/// A lock guard that is live at some program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldGuard {
    /// Binding name (`st`, `bk`).
    pub name: String,
    /// The field the lock was taken on (`sched`, `book`, `members`, …).
    pub field: String,
    /// Line the guard was acquired on.
    pub line: u32,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: the last path segment (`drain_outbox` for both
    /// `drain_outbox(..)` and `self.drain_outbox(..)`).
    pub name: String,
    pub line: u32,
    /// Token index of the callee name.
    pub at: usize,
    /// Lock guards live at the call.
    pub held: Vec<HeldGuard>,
    /// The call happens inside the argument list of a `spawn(..)`
    /// (`thread::spawn`, `Builder::spawn`): it runs on another thread,
    /// so it neither blocks the caller nor runs under its guards.
    pub in_spawn: bool,
}

/// A directly-blocking operation inside a function body.
#[derive(Debug, Clone)]
pub struct BlockSite {
    /// Human description (`.flush()`, `sleep()`, `writer.send()`).
    pub op: String,
    pub line: u32,
    pub held: Vec<HeldGuard>,
    pub in_spawn: bool,
}

/// One function with its interprocedural facts.
#[derive(Debug)]
pub struct FnFacts {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, *inside* the braces.
    pub body: Range<usize>,
    pub in_test: bool,
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockSite>,
}

/// One source file prepared for analysis: pass-1 output.
pub struct FileIndex {
    pub path: PathBuf,
    /// Crate the file belongs to (`jets-core` for
    /// `crates/jets-core/src/dispatcher.rs`): call sites resolve to
    /// functions of the caller's own crate.
    pub krate: String,
    pub lexed: Lexed,
    /// Whole file is test-ish scope (tests/, benches/, examples/ dirs).
    pub file_is_test: bool,
    pub funcs: Vec<FnFacts>,
    /// `(atomic-field, function)` pairs for `.load(` sites (rule J3).
    pub atomic_loads: Vec<(String, String)>,
}

/// Derive the owning crate from a path: the component after `crates`,
/// else `root` for the top-level `src/` / `tests/` trees.
pub fn crate_of(path: &Path) -> String {
    let s = path.to_string_lossy().replace('\\', "/");
    let comps: Vec<&str> = s.split('/').filter(|c| !c.is_empty()).collect();
    for (i, c) in comps.iter().enumerate() {
        if *c == "crates" && i + 1 < comps.len() {
            return comps[i + 1].to_string();
        }
    }
    "root".to_string()
}

/// Index one file: lex, split into functions, extract per-function
/// facts and the file's atomic load sites.
pub fn index_file(path: PathBuf, src: &str) -> FileIndex {
    let lexed = lex(src);
    let file_is_test = {
        let s = path.to_string_lossy().replace('\\', "/");
        s.contains("/tests/") || s.contains("/benches/") || s.contains("/examples/")
    };
    let krate = crate_of(&path);
    let test_mask = compute_test_mask(&lexed.toks);
    let mut funcs = split_functions(&lexed.toks, &test_mask);
    for f in &mut funcs {
        extract_fn_facts(&lexed.toks, f);
    }
    let atomic_loads = collect_atomic_loads_file(&lexed.toks, &funcs);
    FileIndex {
        path,
        krate,
        lexed,
        file_is_test,
        funcs,
        atomic_loads,
    }
}

/// Mark tokens inside `#[cfg(test)]`-gated items and `#[test]` fns.
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            // Scan the attribute tokens.
            let attr_start = i + 2;
            let mut j = attr_start;
            let mut depth = 1;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                }
                j += 1;
            }
            let attr = &toks[attr_start..j.saturating_sub(1)];
            let is_test_attr = attr.first().map(|t| t.is_ident("test")).unwrap_or(false)
                || (attr.first().map(|t| t.is_ident("cfg")).unwrap_or(false)
                    && attr.iter().any(|t| t.is_ident("test")));
            if is_test_attr {
                // Mark through the attached item: scan forward past any
                // further attributes to the item's braced body (or `;`).
                let mut k = j;
                // Skip stacked attributes.
                while k + 1 < toks.len() && toks[k].is_punct("#") && toks[k + 1].is_punct("[") {
                    let mut d = 0;
                    k += 1;
                    while k < toks.len() {
                        if toks[k].is_punct("[") {
                            d += 1;
                        } else if toks[k].is_punct("]") {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                // Find the first `{` at depth 0 relative to here, or `;`.
                let mut d = 0i32;
                let mut end = k;
                while end < toks.len() {
                    let t = &toks[end];
                    if t.is_punct("{") {
                        d += 1;
                    } else if t.is_punct("}") {
                        d -= 1;
                        if d == 0 {
                            end += 1;
                            break;
                        }
                    } else if t.is_punct(";") && d == 0 {
                        end += 1;
                        break;
                    }
                    end += 1;
                }
                for m in mask.iter_mut().take(end.min(toks.len())).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

/// Split the token stream into named functions with body ranges.
fn split_functions(toks: &[Tok], test_mask: &[bool]) -> Vec<FnFacts> {
    let mut funcs = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            let in_test = test_mask.get(i).copied().unwrap_or(false);
            // Find the opening `{` of the body, skipping generics,
            // params, return types, and where clauses. `;` first means
            // a trait method declaration with no body.
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut body_start = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") {
                    angle -= 1;
                } else if t.is_punct("(") {
                    paren += 1;
                } else if t.is_punct(")") {
                    paren -= 1;
                } else if t.is_punct(";") && paren == 0 {
                    break;
                } else if t.is_punct("{") && paren == 0 && angle <= 0 {
                    body_start = Some(j + 1);
                    break;
                }
                j += 1;
            }
            if let Some(start) = body_start {
                let mut depth = 1i32;
                let mut k = start;
                while k < toks.len() && depth > 0 {
                    if toks[k].is_punct("{") {
                        depth += 1;
                    } else if toks[k].is_punct("}") {
                        depth -= 1;
                    }
                    k += 1;
                }
                let body = start..k.saturating_sub(1);
                funcs.push(FnFacts {
                    name,
                    line,
                    body,
                    in_test,
                    calls: Vec::new(),
                    blocking: Vec::new(),
                });
                // Continue *inside* the body so nested fns are found too.
                i = start;
                continue;
            }
        }
        i += 1;
    }
    funcs
}

/// A guard tracked during the scan: let-bound guards live until `drop`,
/// shadowing, or scope exit.
#[derive(Debug, Clone)]
struct Guard {
    name: String,
    field: String,
    /// Brace depth the binding was created at.
    depth: i32,
    line: u32,
}

/// Scan a function body, calling `on_tok` for every token outside a
/// `.lock()` call with the live-guard list. Maintains the guard list:
/// let-bound guards live until `drop(name)`, shadowing, or scope exit;
/// temporary `x.lock().y` guards are not tracked as live past the
/// statement (they die at the end of the expression).
fn scan_guards(toks: &[Tok], body: Range<usize>, mut on_tok: impl FnMut(&Tok, usize, &[Guard])) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = body.start;
    while i < body.end {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        }

        // drop(name) kills a guard.
        if t.is_ident("drop")
            && i + 2 < body.end
            && toks[i + 1].is_punct("(")
            && toks[i + 2].kind == TokKind::Ident
        {
            let victim = &toks[i + 2].text;
            guards.retain(|g| &g.name != victim);
        }

        // `.lock()` / `.lock().` — find the receiver field: the ident
        // immediately before the `.`.
        if t.is_punct(".")
            && i + 3 < body.end
            && toks[i + 1].is_ident("lock")
            && toks[i + 2].is_punct("(")
            && toks[i + 3].is_punct(")")
        {
            let field = if i > body.start && toks[i - 1].kind == TokKind::Ident {
                toks[i - 1].text.clone()
            } else {
                String::new()
            };
            // Is this a let binding? Walk back to the statement start.
            if let Some((name, _let_idx)) = find_let_binding(toks, body.start, i) {
                // Shadowing: a rebound name kills the old guard.
                guards.retain(|g| g.name != name);
                guards.push(Guard {
                    name,
                    field,
                    depth,
                    line: t.line,
                });
            }
            i += 4;
            // If this was a temporary (no let), the guard lives only to
            // the end of the statement; we simply don't track it.
            continue;
        }

        on_tok(t, i, &guards);
        i += 1;
    }
}

/// If the `.lock()` at token `dot` is the RHS of `let [mut] NAME = …`,
/// return (NAME, index of `let`). Walks back to the nearest `;`, `{`,
/// or `}` and checks the statement starts with `let`.
fn find_let_binding(toks: &[Tok], lo: usize, dot: usize) -> Option<(String, usize)> {
    let mut j = dot;
    while j > lo {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            j += 1;
            break;
        }
        // A `=` between here and the dot is fine; keep walking.
    }
    if !toks.get(j)?.is_ident("let") {
        return None;
    }
    let mut k = j + 1;
    if toks.get(k)?.is_ident("mut") {
        k += 1;
    }
    let name_tok = toks.get(k)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Require `= … .lock()` to follow (not `let (a, b) = …` patterns).
    let eq = toks.get(k + 1)?;
    if !(eq.is_punct("=") || eq.is_punct(":")) {
        return None;
    }
    Some((name_tok.text.clone(), j))
}

/// If the token at `i` begins a blocking operation, describe it.
/// Shapes: `.recv()`-style method calls from [`BLOCKING_METHODS`],
/// `.send(` on a socket-writer receiver (channel sends are
/// non-blocking for the unbounded channels used here), free or method
/// calls of the [`BLOCKING_CALLS`], and `fs::`-
/// qualified calls of the [`BLOCKING_FS`] functions. Shared by J2
/// (blocking under a lock guard), J7 (blocking in a reactor callback),
/// J8 (blocking in the ring writer path), and the taint seed.
pub fn blocking_op_at(toks: &[Tok], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.is_punct(".")
        && toks
            .get(i + 1)
            .map(|n| n.kind == TokKind::Ident)
            .unwrap_or(false)
    {
        let name = &toks[i + 1].text;
        let called = is_called(toks, i + 1);
        let recv = match i > 0 && toks[i - 1].kind == TokKind::Ident {
            true => toks[i - 1].text.as_str(),
            false => "",
        };
        // The reactor dials without blocking: its `on_close` reports a
        // connect that did not go through.
        let dials = name == "connect" && recv == "reactor";
        if called && BLOCKING_METHODS.contains(&name.as_str()) && !dials {
            return Some(format!(".{name}()"));
        }
        let to_socket = ["writer", "sock", "stream"]
            .iter()
            .any(|w| recv.contains(w));
        if called && name == "send" && to_socket {
            return Some(format!("{recv}.send()"));
        }
        return None;
    }
    // The ident itself, whatever precedes it: `sleep(..)`,
    // `thread::sleep(..)` and `x.sleep(..)` all count.
    if t.kind == TokKind::Ident && BLOCKING_CALLS.contains(&t.text.as_str()) && is_called(toks, i) {
        return Some(format!("{}()", t.text));
    }
    let via_fs = i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].text == "fs";
    if via_fs && BLOCKING_FS.contains(&t.text.as_str()) && is_called(toks, i) {
        return Some(format!("fs::{}()", t.text));
    }
    None
}

/// Token at `i` (an ident) is immediately invoked: `name(` or
/// `name::<T>(`.
pub fn is_called(toks: &[Tok], i: usize) -> bool {
    match toks.get(i + 1) {
        Some(t) if t.is_punct("(") => true,
        Some(t) if t.is_punct("::") => {
            // turbofish: name::<T>(
            let mut j = i + 2;
            if toks.get(j).map(|t| t.is_punct("<")).unwrap_or(false) {
                let mut depth = 1;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if toks[j].is_punct("<") {
                        depth += 1;
                    } else if toks[j].is_punct(">") {
                        depth -= 1;
                    }
                    j += 1;
                }
                toks.get(j).map(|t| t.is_punct("(")).unwrap_or(false)
            } else {
                false
            }
        }
        _ => false,
    }
}

/// Is the ident at `i` qualified by a PascalCase type name other than
/// `Self` (`Reactor::start`)? Associated-function calls on foreign
/// types cannot be resolved by bare name; `Self::helper` and
/// snake_case module paths (`journal::replay`) stay resolvable.
fn is_type_qualified(toks: &[Tok], i: usize, start: usize) -> bool {
    i >= start + 2
        && toks[i - 1].is_punct("::")
        && toks[i - 2].kind == TokKind::Ident
        && toks[i - 2].text != "Self"
        && toks[i - 2]
            .text
            .chars()
            .next()
            .map(|c| c.is_uppercase())
            .unwrap_or(false)
}

/// Keywords that can appear as `ident (`-shaped tokens but are not
/// calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "move", "in", "as", "fn", "let", "else",
    "unsafe", "await", "break", "continue",
];

/// Extract the call sites and blocking ops of one function, with the
/// held-guard set at each point.
fn extract_fn_facts(toks: &[Tok], f: &mut FnFacts) {
    let body = f.body.clone();
    // Pre-compute the token ranges covered by `spawn(..)` argument
    // lists: work inside them runs on another thread.
    let spawn_mask = compute_spawn_mask(toks, body.clone());

    let mut calls = Vec::new();
    let mut blocking = Vec::new();

    let held_of = |guards: &[Guard]| -> Vec<HeldGuard> {
        guards
            .iter()
            .map(|g| HeldGuard {
                name: g.name.clone(),
                field: g.field.clone(),
                line: g.line,
            })
            .collect()
    };

    scan_guards(toks, body.clone(), |t, i, guards| {
        let in_spawn = spawn_mask[i - body.start];
        if let Some(op) = blocking_op_at(toks, i) {
            blocking.push(BlockSite {
                op,
                line: t.line,
                held: held_of(guards),
                in_spawn,
            });
        }
        // Call sites: `.name(` method calls and `name(` free calls
        // (last path segment for `a::b::name(`). Macros (`name!`)
        // and keywords are not calls; names already covered by the
        // blocking detector are recorded there instead.
        let (is_call, name_idx) = if t.is_punct(".")
            && toks
                .get(i + 1)
                .map(|n| n.kind == TokKind::Ident && is_called(toks, i + 1))
                .unwrap_or(false)
        {
            (true, i + 1)
        } else if t.kind == TokKind::Ident
            && is_called(toks, i)
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !(i > body.start && toks[i - 1].is_punct("."))
            && !is_type_qualified(toks, i, body.start)
        {
            // Module-qualified calls (`journal::replay(..)`) and
            // `Self::x(..)` are kept: the last segment is the
            // callee name. `.`-prefixed idents are skipped — the
            // `.`-branch above already recorded the method call —
            // and `Type::assoc(..)` calls are skipped: resolving
            // `Reactor::start` by the bare name `start` would hit every
            // constructor of that name in the crate. (Method calls
            // are resolved by bare name, which is why the PMI service's
            // `open_job` / `abort_job` / `close_job` do not share a
            // name with the journal's.)
            (true, i)
        } else {
            (false, 0)
        };
        if is_call {
            let name = &toks[name_idx].text;
            // Skip type constructors (PascalCase) and macro-ish
            // names; workspace functions are snake_case.
            let snake = name
                .chars()
                .next()
                .map(|c| c.is_lowercase() || c == '_')
                .unwrap_or(false);
            let is_macro = toks
                .get(name_idx + 1)
                .map(|n| n.is_punct("!"))
                .unwrap_or(false);
            if snake && !is_macro {
                calls.push(CallSite {
                    name: name.clone(),
                    line: toks[name_idx].line,
                    at: name_idx,
                    held: held_of(guards),
                    in_spawn,
                });
            }
        }
    });

    f.calls = calls;
    f.blocking = blocking;
}

/// Mark the token offsets (relative to `body.start`) inside the
/// argument list of any `spawn(..)` call.
fn compute_spawn_mask(toks: &[Tok], body: Range<usize>) -> Vec<bool> {
    let mut mask = vec![false; body.len()];
    let mut i = body.start;
    while i < body.end {
        if toks[i].is_ident("spawn") && toks.get(i + 1).map(|t| t.is_punct("(")).unwrap_or(false) {
            let mut depth = 1i32;
            let mut j = i + 2;
            while j < body.end && depth > 0 {
                if toks[j].is_punct("(") {
                    depth += 1;
                } else if toks[j].is_punct(")") {
                    depth -= 1;
                }
                if depth > 0 {
                    mask[j - body.start] = true;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

/// `(atomic-field, enclosing-function)` pairs for every `.load(` with
/// an ident receiver (rule J3's cross-function heuristic).
fn collect_atomic_loads_file(toks: &[Tok], funcs: &[FnFacts]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for func in funcs {
        let mut i = func.body.start;
        while i + 2 < func.body.end {
            if toks[i].is_punct(".")
                && toks[i + 1].is_ident("load")
                && toks[i + 2].is_punct("(")
                && i > 0
                && toks[i - 1].kind == TokKind::Ident
            {
                out.push((toks[i - 1].text.clone(), func.name.clone()));
            }
            i += 1;
        }
    }
    out
}
