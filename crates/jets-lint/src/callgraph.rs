//! Pass 2 of the two-pass analysis: the workspace call graph and the
//! derived interprocedural facts.
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
//! Three facts are computed over the graph:
//!
//! * **Blocking taint** — a function that directly performs socket
//!   I/O, `sleep`, channel `recv`, or `flush` is tainted; taint
//!   propagates caller-ward along call edges (BFS, so recorded chains
//!   are shortest). Calls made inside `spawn(..)` argument lists do
//!   not propagate: the blocking happens on another thread. A blocking
//!   site covered by a reasoned `allow(lock-across-blocking)`
//!   suppression is documented-contract blocking and seeds no taint
//!   (see [`crate::index::blocking_contract_at`]).
//! * **Transitive lock sets** — the lock fields a function may acquire
//!   directly or through its callees, with a witness chain per field.
//! * **The lock-order graph** — an edge `A → B` for every site that
//!   acquires `B` (directly or transitively) while holding `A`. A
//!   cycle in this graph is a potential deadlock (rule J9).

use crate::index::{FileIndex, HeldGuard, BLOCKING_CALLS, BLOCKING_METHODS};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

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

/// Why a lock field is in a function's transitive lock set.
#[derive(Debug, Clone)]
pub enum LockCause {
    Direct { line: u32 },
    Call { callee: NodeId, line: u32 },
}

/// One edge of the lock-order graph with its witness.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Namespaced lock held (`jets-core:sched`).
    pub from: String,
    /// Namespaced lock acquired while `from` is held.
    pub to: String,
    /// Where the edge is created: the acquisition (intra) or the call
    /// that leads to the acquisition (inter).
    pub path: PathBuf,
    pub line: u32,
    /// Function the witness site is in.
    pub func: String,
    /// Call chain from `func` to the function that acquires `to`
    /// (empty for a direct acquisition in `func` itself).
    pub chain: Vec<String>,
}

/// A lock-order cycle: the field ring plus one witness edge per hop.
#[derive(Debug, Clone)]
pub struct LockCycle {
    /// Canonicalized field ring (`a -> b -> a` stored as `[a, b]`).
    pub fields: Vec<String>,
    pub edges: Vec<LockEdge>,
}

/// The workspace call graph plus derived facts.
pub struct CallGraph<'a> {
    pub files: &'a [FileIndex],
    /// Node -> (file, fn) indices.
    pub nodes: Vec<(usize, usize)>,
    by_name: BTreeMap<String, Vec<NodeId>>,
    /// Blocking taint: node -> cause (absent = not tainted).
    taint: BTreeMap<NodeId, TaintCause>,
    /// Transitive lock sets: node -> (namespaced field -> cause).
    locksets: BTreeMap<NodeId, BTreeMap<String, LockCause>>,
    /// Lock-order edges, deduplicated by (from, to) keeping the first
    /// witness found (deterministic: files and functions in order).
    pub lock_edges: BTreeMap<(String, String), LockEdge>,
    /// Namespaced lock fields discovered from struct declarations
    /// (plus the canonical `sched` / `book` / `pmi`).
    pub lock_fields: BTreeSet<String>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph and compute taint, lock sets, and lock edges.
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

        // Lock-field universe: declared Mutex/RwLock fields, namespaced
        // by crate, plus the canonical dispatcher pair.
        let mut lock_fields = BTreeSet::new();
        let mut rwlock_fields = BTreeSet::new();
        for file in files.iter() {
            for d in &file.lock_decls {
                lock_fields.insert(format!("{}:{}", file.krate, d.field));
                if d.kind == "RwLock" {
                    rwlock_fields.insert(format!("{}:{}", file.krate, d.field));
                }
            }
        }
        for file in files.iter() {
            // sched/book/pmi are lock fields wherever they are used,
            // even in fixture sets that carry no struct declaration.
            for field in ["sched", "book", "pmi"] {
                lock_fields.insert(format!("{}:{field}", file.krate));
            }
        }

        let mut g = CallGraph {
            files,
            nodes,
            by_name,
            taint: BTreeMap::new(),
            locksets: BTreeMap::new(),
            lock_edges: BTreeMap::new(),
            lock_fields,
        };
        g.compute_taint();
        g.compute_locksets(&rwlock_fields);
        g.compute_lock_edges(&rwlock_fields);
        g
    }

    // The `'a` returns are deliberate: facts live in the pass-1 slice,
    // not in `self`, so holding one does not freeze the graph's own
    // mutable state (taint / lockset maps) during computation.
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

    /// Namespace a raw receiver field against the declared lock-field
    /// universe. The receiver's crate is assumed to be the use site's
    /// crate (no type resolution); a field declared in no crate under
    /// that name is not a lock.
    fn lock_node(
        &self,
        krate: &str,
        field: &str,
        method: &str,
        rw: &BTreeSet<String>,
    ) -> Option<String> {
        if field.is_empty() {
            return None;
        }
        let key = format!("{krate}:{field}");
        match method {
            // `.read()` / `.write()` only count on declared RwLock
            // fields — everything else is Read/Write trait I/O.
            "read" | "write" => rw.contains(&key).then_some(key),
            _ => self.lock_fields.contains(&key).then_some(key),
        }
    }

    /// Fixpoint: lockset(f) = direct locks ∪ ⋃ lockset(callees).
    fn compute_locksets(&mut self, rw: &BTreeSet<String>) {
        // Seed with direct acquisitions.
        for id in 0..self.nodes.len() {
            let krate = self.file_of(id).krate.clone();
            let f = self.facts(id);
            let mut set: BTreeMap<String, LockCause> = BTreeMap::new();
            for l in &f.locks {
                if l.in_spawn {
                    continue;
                }
                if let Some(node) = self.lock_node(&krate, &l.field, &l.method, rw) {
                    set.entry(node)
                        .or_insert_with(|| LockCause::Direct { line: l.line });
                }
            }
            if !set.is_empty() {
                self.locksets.insert(id, set);
            }
        }
        // Propagate caller-ward until stable. The graph is small
        // (thousands of nodes, lock fields in the tens), so a simple
        // sweep loop converges in a handful of iterations.
        loop {
            let mut changed = false;
            for id in 0..self.nodes.len() {
                let krate = self.file_of(id).krate.clone();
                let f = self.facts(id);
                let mut add: Vec<(String, LockCause)> = Vec::new();
                for c in &f.calls {
                    if c.in_spawn {
                        continue;
                    }
                    for callee in self.resolve(&krate, &c.name) {
                        if callee == id {
                            continue;
                        }
                        if let Some(cs) = self.locksets.get(&callee) {
                            for field in cs.keys() {
                                let have = self
                                    .locksets
                                    .get(&id)
                                    .map(|s| s.contains_key(field))
                                    .unwrap_or(false);
                                if !have {
                                    add.push((
                                        field.clone(),
                                        LockCause::Call {
                                            callee,
                                            line: c.line,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    let set = self.locksets.entry(id).or_default();
                    for (field, cause) in add {
                        if let std::collections::btree_map::Entry::Vacant(e) = set.entry(field) {
                            e.insert(cause);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The chain of function names from `id` to the function that
    /// directly acquires `field` (exclusive of `id` itself).
    fn lock_chain(&self, id: NodeId, field: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = id;
        let mut hops = 0;
        while let Some(cause) = self.locksets.get(&cur).and_then(|s| s.get(field)) {
            match cause {
                LockCause::Direct { .. } => break,
                LockCause::Call { callee, .. } => {
                    out.push(self.facts(*callee).name.clone());
                    cur = *callee;
                }
            }
            hops += 1;
            if hops > 32 {
                out.push("…".to_string());
                break;
            }
        }
        out
    }

    /// Build the lock-order graph: an edge `H → L` for every site that
    /// acquires `L` (directly, or transitively through a call) while
    /// holding `H`.
    fn compute_lock_edges(&mut self, rw: &BTreeSet<String>) {
        let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
        for id in 0..self.nodes.len() {
            let file = self.file_of(id);
            let krate = file.krate.clone();
            let path = file.path.clone();
            let f = self.facts(id);
            let held_nodes = |held: &[HeldGuard]| -> Vec<String> {
                held.iter()
                    .filter_map(|h| self.lock_node(&krate, &h.field, "lock", rw))
                    .collect()
            };
            // Intra: direct acquisition while holding.
            for l in &f.locks {
                if l.in_spawn {
                    continue;
                }
                let Some(to) = self.lock_node(&krate, &l.field, &l.method, rw) else {
                    continue;
                };
                for from in held_nodes(&l.held) {
                    if from == to {
                        continue; // re-entry is J1's domain
                    }
                    edges
                        .entry((from.clone(), to.clone()))
                        .or_insert_with(|| LockEdge {
                            from,
                            to: to.clone(),
                            path: path.clone(),
                            line: l.line,
                            func: f.name.clone(),
                            chain: Vec::new(),
                        });
                }
            }
            // Inter: call while holding, callee transitively acquires.
            for c in &f.calls {
                if c.in_spawn || c.held.is_empty() {
                    continue;
                }
                for callee in self.resolve(&krate, &c.name) {
                    if callee == id {
                        continue;
                    }
                    let Some(cs) = self.locksets.get(&callee) else {
                        continue;
                    };
                    let targets: Vec<String> = cs.keys().cloned().collect();
                    for to in targets {
                        // A `from == to` edge here is a transitive
                        // re-entry of a held lock — a self-deadlock the
                        // intra rule J1 cannot see; it becomes a
                        // 1-cycle in the lock graph.
                        for from in held_nodes(&c.held) {
                            let mut chain = vec![self.facts(callee).name.clone()];
                            chain.extend(self.lock_chain(callee, &to));
                            edges
                                .entry((from.clone(), to.clone()))
                                .or_insert_with(|| LockEdge {
                                    from,
                                    to: to.clone(),
                                    path: path.clone(),
                                    line: c.line,
                                    func: f.name.clone(),
                                    chain,
                                });
                        }
                    }
                }
            }
        }
        self.lock_edges = edges;
    }

    /// Find lock-order cycles: for every edge `a → b`, the shortest
    /// path `b → … → a` (BFS) closes a cycle. Cycles are deduplicated
    /// by their canonical field rotation, so each distinct ring is
    /// reported once. Self-edges (`a → a`, transitive re-entry) are
    /// 1-cycles.
    pub fn lock_cycles(&self) -> Vec<LockCycle> {
        // Adjacency over fields.
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in self.lock_edges.keys() {
            adj.entry(from.as_str()).or_default().push(to.as_str());
        }
        let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
        let mut out = Vec::new();
        for (from, to) in self.lock_edges.keys() {
            let ring: Option<Vec<String>> = if from == to {
                Some(vec![from.clone()])
            } else {
                // BFS from `to` back to `from`.
                let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
                let mut q = VecDeque::new();
                q.push_back(to.as_str());
                let mut found = false;
                while let Some(n) = q.pop_front() {
                    if n == from.as_str() {
                        found = true;
                        break;
                    }
                    for &m in adj.get(n).map(|v| v.as_slice()).unwrap_or(&[]) {
                        if m != to.as_str() && !prev.contains_key(m) {
                            prev.insert(m, n);
                            q.push_back(m);
                        }
                    }
                }
                if found {
                    // Reconstruct to -> ... -> from, then the ring is
                    // [from, to, ..] without the closing repeat.
                    let mut rev = vec![from.as_str()];
                    let mut cur = from.as_str();
                    while cur != to.as_str() {
                        cur = prev[cur];
                        rev.push(cur);
                    }
                    rev.reverse(); // to .. from
                    let mut ring: Vec<String> = vec![from.clone()];
                    ring.extend(rev.iter().take(rev.len() - 1).map(|s| s.to_string()));
                    Some(ring)
                } else {
                    None
                }
            };
            let Some(ring) = ring else { continue };
            // Canonical rotation: start at the lexicographically
            // smallest field.
            let min_pos = ring
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.as_str())
                .map(|(i, _)| i)
                .unwrap_or(0);
            let canon: Vec<String> = ring[min_pos..]
                .iter()
                .chain(ring[..min_pos].iter())
                .cloned()
                .collect();
            if !seen.insert(canon.clone()) {
                continue;
            }
            // Witness edges along the ring.
            let mut edges = Vec::new();
            let n = canon.len();
            let mut complete = true;
            for i in 0..n {
                let a = &canon[i];
                let b = &canon[(i + 1) % n];
                match self.lock_edges.get(&(a.clone(), b.clone())) {
                    Some(e) => edges.push(e.clone()),
                    None => complete = false,
                }
            }
            if complete {
                out.push(LockCycle {
                    fields: canon,
                    edges,
                });
            }
        }
        out
    }
}
