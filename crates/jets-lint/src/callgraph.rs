//! Pass 2 of the two-pass analysis: the workspace call graph and the
//! blocking taint derived from it.
//!
//! Nodes are the functions indexed by pass 1 ([`crate::index`]); edges
//! are *name-based and crate-scoped* — a call site `drain_outbox(..)`
//! (free or method form) resolves to every function named
//! `drain_outbox` **in the caller's own crate**. There is no
//! trait-object or generic resolution: a name that several same-crate
//! functions share resolves to all of them (union), which
//! over-approximates reachability within a crate at the price of
//! occasional false positives. Cross-crate edges are deliberately not
//! formed: without type information, `wait_for(&cvar, ..)` in the
//! dispatcher would otherwise resolve to the reactor's `poll(2)`
//! wrapper of the same name, and every such collision fabricates a
//! taint chain. Ubiquitous trait / teardown method names (`new`,
//! `clone`, `shutdown`, `kill`, …) are excluded from resolution
//! entirely — an edge through them would be noise, not signal. These
//! limits are documented in `docs/static-analysis.md`.
//!
//! One fact is computed over the graph, **blocking taint**: a function
//! that directly performs socket I/O, `sleep`, channel `recv`, or
//! `flush` is tainted; taint propagates caller-ward along call edges
//! (BFS, so recorded chains are shortest). Calls made inside `spawn(..)`
//! argument lists do not propagate: the blocking happens on another
//! thread. A blocking site covered by a reasoned
//! `allow(lock-across-blocking)` suppression is documented-contract
//! blocking and seeds no taint (see
//! [`crate::index::blocking_contract_at`]).
//!
//! Lock *order* is not analysed here: `jets_ring::stdx::Mutex` checks it
//! at every acquisition in debug builds.

use crate::index::{FileIndex, BLOCKING_CALLS, BLOCKING_METHODS};
use std::collections::{BTreeMap, VecDeque};

/// Names never resolved to call edges: ubiquitous trait / collection
/// method names where a name match says nothing about what is actually
/// called. `send` is here because the *blocking* sends (socket
/// writers) are caught receiver-sensitively by the direct detector,
/// while channel/outbox sends are non-blocking by design. `shutdown`,
/// `kill`, and `abort` are teardown verbs defined on sockets
/// (`TcpStream::shutdown`), processes (`process::abort`), and half the
/// workspace's handle types — a name match there is meaningless.
const UNRESOLVED_NAMES: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "from",
    "into",
    "len",
    "is_empty",
    "get",
    "set",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "clear",
    "next",
    "iter",
    "send",
    "lock",
    "load",
    "store",
    "swap",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "as_ref",
    "as_mut",
    "deref",
    "deref_mut",
    "index",
    "to_string",
    "call",
    "min",
    "max",
    "map",
    "and_then",
    "unwrap_or",
    "shutdown",
    "kill",
    "abort",
];

/// A function node: (file index, function index) into the pass-1 output.
pub type NodeId = usize;

/// Why a function is blocking-tainted.
#[derive(Debug, Clone)]
pub enum TaintCause {
    /// Performs the op itself.
    Direct { op: String, line: u32 },
    /// Calls a tainted function.
    Call { callee: NodeId, line: u32 },
}

/// The workspace call graph plus its blocking taint.
pub struct CallGraph<'a> {
    pub files: &'a [FileIndex],
    /// Node -> (file, fn) indices.
    pub nodes: Vec<(usize, usize)>,
    by_name: BTreeMap<String, Vec<NodeId>>,
    /// Blocking taint: node -> cause (absent = not tainted).
    taint: BTreeMap<NodeId, TaintCause>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph and compute taint.
    pub fn build(files: &'a [FileIndex]) -> CallGraph<'a> {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.funcs.iter().enumerate() {
                // Test functions are indexed but are not resolution
                // targets: production code never calls them, and their
                // free use of blocking ops must not taint same-named
                // production helpers.
                if file.file_is_test || f.in_test {
                    continue;
                }
                let id = nodes.len();
                nodes.push((fi, gi));
                by_name.entry(f.name.clone()).or_default().push(id);
            }
        }

        let mut g = CallGraph {
            files,
            nodes,
            by_name,
            taint: BTreeMap::new(),
        };
        g.compute_taint();
        g
    }

    // The `'a` returns are deliberate: facts live in the pass-1 slice,
    // not in `self`, so holding one does not freeze the graph's own
    // mutable state (the taint map) during computation.
    fn facts(&self, id: NodeId) -> &'a crate::index::FnFacts {
        let (fi, gi) = self.nodes[id];
        &self.files[fi].funcs[gi]
    }

    fn file_of(&self, id: NodeId) -> &'a FileIndex {
        &self.files[self.nodes[id].0]
    }

    /// Resolve a call-site name in crate `krate` to candidate nodes:
    /// name-based, restricted to functions defined in the same crate
    /// (cross-crate name matches fabricate edges — see module doc).
    /// Empty for unknown or deliberately-unresolved names.
    pub fn resolve(&self, krate: &str, name: &str) -> Vec<NodeId> {
        if UNRESOLVED_NAMES.contains(&name)
            || BLOCKING_METHODS.contains(&name)
            || BLOCKING_CALLS.contains(&name)
        {
            return Vec::new();
        }
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| self.file_of(id).krate == krate)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Caller-ward BFS from directly-blocking functions. BFS order
    /// means every recorded cause chain is a shortest witness.
    fn compute_taint(&mut self) {
        // Reverse edges: callee -> callers (with the call line).
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for id in 0..self.nodes.len() {
            let file = self.file_of(id);
            let f = self.facts(id);
            // A blocking site under a reasoned allow(lock-across-blocking)
            // suppression is documented-contract blocking (bounded,
            // reviewed) and does not seed taint — otherwise every caller
            // of the journal's serialized WAL write would re-litigate
            // the decision its root suppression already records.
            if let Some(b) = f
                .blocking
                .iter()
                .find(|b| !b.in_spawn && !crate::index::blocking_contract_at(file, b.line))
            {
                self.taint.insert(
                    id,
                    TaintCause::Direct {
                        op: b.op.clone(),
                        line: b.line,
                    },
                );
                queue.push_back(id);
            }
        }
        // Build caller adjacency once: callee -> [(caller, line)].
        let mut callers: BTreeMap<NodeId, Vec<(NodeId, u32)>> = BTreeMap::new();
        for id in 0..self.nodes.len() {
            let krate = &self.file_of(id).krate;
            let f = self.facts(id);
            for c in &f.calls {
                if c.in_spawn {
                    continue;
                }
                for callee in self.resolve(krate, &c.name) {
                    if callee != id {
                        callers.entry(callee).or_default().push((id, c.line));
                    }
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            if let Some(cs) = callers.get(&id) {
                let cs = cs.clone();
                for (caller, line) in cs {
                    if let std::collections::btree_map::Entry::Vacant(e) = self.taint.entry(caller)
                    {
                        e.insert(TaintCause::Call { callee: id, line });
                        queue.push_back(caller);
                    }
                }
            }
        }
    }

    /// Is the function at `id` blocking-tainted?
    pub fn tainted(&self, id: NodeId) -> bool {
        self.taint.contains_key(&id)
    }

    /// First tainted candidate for a call-site name in crate `krate`,
    /// if any.
    pub fn tainted_callee(&self, krate: &str, name: &str) -> Option<NodeId> {
        self.resolve(krate, name)
            .into_iter()
            .find(|id| self.tainted(*id))
    }

    /// The taint witness chain starting at `id`: function names down
    /// the call chain, ending with the blocking op itself
    /// (`["drain_outbox", ".flush()"]`).
    pub fn taint_chain(&self, id: NodeId) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = id;
        let mut hops = 0;
        loop {
            out.push(self.facts(cur).name.clone());
            match self.taint.get(&cur) {
                Some(TaintCause::Direct { op, .. }) => {
                    out.push(op.clone());
                    break;
                }
                Some(TaintCause::Call { callee, .. }) => {
                    cur = *callee;
                }
                None => break,
            }
            hops += 1;
            if hops > 32 {
                out.push("…".to_string());
                break;
            }
        }
        out
    }
}
