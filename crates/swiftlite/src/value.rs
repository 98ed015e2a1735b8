//! Runtime values, single-assignment futures, arrays, and scopes.
//!
//! Every swiftlite variable is a *single-assignment dataflow future*:
//! statements that read it block until the statement that writes it has
//! run. This is the Swift execution model the paper leans on ("the
//! statements ... are all executed concurrently, limited by data
//! dependencies", Section 6.2.2). Arrays are sparse maps of futures that
//! auto-vivify on first reference, so a reader of `c[7]` and the app call
//! that later writes `c[7]` meet at the same cell regardless of order.

use jets_ring::stdx::{wait_for, Mutex, Rank};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A closed file; the payload is its path.
    File(String),
}

impl Value {
    /// Human-readable type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::File(_) => "file",
        }
    }

    /// Render as a command-line word / string-concatenation fragment.
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::File(p) => p.clone(),
        }
    }
}

/// Why a future wait ended without a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The workflow failed elsewhere; give up.
    Cancelled,
    /// Nobody produced the value in time (likely a dependency cycle or a
    /// missing producer).
    TimedOut,
}

/// Shared cancellation token: set once on first workflow error.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unset token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has the token been tripped?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

struct FutureInner {
    cell: Mutex<Option<Value>>,
    cv: Condvar,
    /// For file futures: the mapped path, known before the value exists.
    path: Mutex<Option<String>>,
}

/// A single-assignment dataflow variable.
#[derive(Clone)]
pub struct Future {
    inner: Arc<FutureInner>,
}

impl Default for Future {
    fn default() -> Self {
        Self::new()
    }
}

impl Future {
    /// A fresh, unset future.
    pub fn new() -> Self {
        Future {
            inner: Arc::new(FutureInner {
                cell: Mutex::new(None),
                cv: Condvar::new(),
                path: Mutex::new(None),
            }),
        }
    }

    /// A fresh file future with a known mapped path.
    pub fn with_path(path: String) -> Self {
        let f = Future::new();
        *f.inner.path.lock() = Some(path);
        f
    }

    /// The mapped path, if this is a file future.
    pub fn path(&self) -> Option<String> {
        self.inner.path.lock().clone()
    }

    /// Set the mapped path (declaration time).
    pub fn set_path(&self, path: String) {
        *self.inner.path.lock() = Some(path);
    }

    /// Fulfil the future. Errors on double assignment — the defining
    /// property of single-assignment variables.
    pub fn set(&self, value: Value) -> Result<(), String> {
        let mut cell = self.inner.cell.lock();
        if cell.is_some() {
            return Err("variable assigned twice".to_string());
        }
        *cell = Some(value);
        self.inner.cv.notify_all();
        Ok(())
    }

    /// The value if already set (non-blocking).
    pub fn try_get(&self) -> Option<Value> {
        self.inner.cell.lock().clone()
    }

    /// Block until the value is set, the workflow is cancelled, or
    /// `timeout` expires.
    pub fn wait(&self, cancel: &CancelToken, timeout: Duration) -> Result<Value, WaitError> {
        let deadline = Instant::now() + timeout;
        let mut cell = self.inner.cell.lock();
        loop {
            if let Some(v) = cell.as_ref() {
                return Ok(v.clone());
            }
            if cancel.is_cancelled() {
                return Err(WaitError::Cancelled);
            }
            if Instant::now() >= deadline {
                return Err(WaitError::TimedOut);
            }
            // Wake periodically to observe cancellation.
            cell = wait_for(&self.inner.cv, cell, Duration::from_millis(50)).0;
        }
    }

    /// True when two handles name the same cell.
    pub fn same_cell(&self, other: &Future) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// How array elements derive their file paths.
pub type ElementMapper = Arc<dyn Fn(i64) -> String + Send + Sync>;

struct ArrayInner {
    elems: Mutex<HashMap<i64, Future>>,
    mapper: Option<ElementMapper>,
    is_file: bool,
}

/// A sparse array of futures.
#[derive(Clone)]
pub struct ArrayHandle {
    inner: Arc<ArrayInner>,
}

impl ArrayHandle {
    /// A new array; `mapper` assigns element paths for file arrays.
    pub fn new(is_file: bool, mapper: Option<ElementMapper>) -> Self {
        ArrayHandle {
            inner: Arc::new(ArrayInner {
                elems: Mutex::ranked(Rank::Elements, HashMap::new()),
                mapper,
                is_file,
            }),
        }
    }

    /// Is this an array of files?
    pub fn is_file(&self) -> bool {
        self.inner.is_file
    }

    /// Get (auto-vivifying) the element future at `index`. `anon_path`
    /// supplies a path for unmapped file elements. If the element is a
    /// file whose mapped path already exists on disk at vivification, it
    /// is treated as a workflow *input* and fulfilled immediately.
    pub fn element(&self, index: i64, anon_path: impl FnOnce() -> String) -> Future {
        let mut elems = self.inner.elems.lock();
        if let Some(f) = elems.get(&index) {
            return f.clone();
        }
        let future = if self.inner.is_file {
            let path = match &self.inner.mapper {
                Some(m) => m(index),
                None => anon_path(),
            };
            let f = Future::with_path(path.clone());
            if std::path::Path::new(&path).exists() {
                f.set(Value::File(path)).expect("fresh future");
            }
            f
        } else {
            Future::new()
        };
        elems.insert(index, future.clone());
        future
    }

    /// Number of vivified elements (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.elems.lock().len()
    }

    /// True when no element has been referenced yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a name is bound to.
#[derive(Clone)]
pub enum Binding {
    /// A scalar future.
    Scalar(Future),
    /// An array of futures.
    Array(ArrayHandle),
}

/// A lexical scope (chain of frames).
pub struct Scope {
    parent: Option<Arc<Scope>>,
    vars: Mutex<HashMap<String, Binding>>,
}

impl Scope {
    /// The root scope.
    pub fn root() -> Arc<Scope> {
        Arc::new(Scope {
            parent: None,
            vars: Mutex::new(HashMap::new()),
        })
    }

    /// A child frame.
    pub fn child(parent: &Arc<Scope>) -> Arc<Scope> {
        Arc::new(Scope {
            parent: Some(Arc::clone(parent)),
            vars: Mutex::new(HashMap::new()),
        })
    }

    /// Define a name in this frame. Shadowing outer frames is allowed;
    /// redefinition within a frame is an error.
    pub fn define(&self, name: &str, binding: Binding) -> Result<(), String> {
        let mut vars = self.vars.lock();
        if vars.contains_key(name) {
            return Err(format!("variable '{name}' already defined in this scope"));
        }
        vars.insert(name.to_string(), binding);
        Ok(())
    }

    /// Look a name up through the frame chain.
    pub fn lookup(&self, name: &str) -> Option<Binding> {
        if let Some(b) = self.vars.lock().get(name) {
            return Some(b.clone());
        }
        self.parent.as_ref()?.lookup(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn future_set_then_get() {
        let f = Future::new();
        assert_eq!(f.try_get(), None);
        f.set(Value::Int(7)).unwrap();
        assert_eq!(f.try_get(), Some(Value::Int(7)));
        assert_eq!(f.wait(&CancelToken::new(), T).unwrap(), Value::Int(7));
    }

    #[test]
    fn future_rejects_double_set() {
        let f = Future::new();
        f.set(Value::Int(1)).unwrap();
        assert!(f.set(Value::Int(2)).is_err());
    }

    #[test]
    fn wait_blocks_until_cross_thread_set() {
        let f = Future::new();
        let f2 = f.clone();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            f2.set(Value::Str("done".into())).unwrap();
        });
        let v = f.wait(&CancelToken::new(), T).unwrap();
        assert_eq!(v, Value::Str("done".into()));
        h.join().unwrap();
    }

    #[test]
    fn wait_observes_cancellation() {
        let f = Future::new();
        let cancel = CancelToken::new();
        let c2 = cancel.clone();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            c2.cancel();
        });
        assert_eq!(f.wait(&cancel, T), Err(WaitError::Cancelled));
        h.join().unwrap();
    }

    #[test]
    fn wait_times_out() {
        let f = Future::new();
        assert_eq!(
            f.wait(&CancelToken::new(), Duration::from_millis(30)),
            Err(WaitError::TimedOut)
        );
    }

    #[test]
    fn array_vivifies_one_cell_per_index() {
        let a = ArrayHandle::new(false, None);
        let x = a.element(3, || unreachable!("not a file array"));
        let y = a.element(3, || unreachable!());
        assert!(x.same_cell(&y));
        assert_eq!(a.len(), 1);
        let z = a.element(4, || unreachable!());
        assert!(!x.same_cell(&z));
    }

    #[test]
    fn file_array_maps_paths() {
        let mapper: ElementMapper = Arc::new(|i| format!("/tmp/none/seg_{i}.coor"));
        let a = ArrayHandle::new(true, Some(mapper));
        let f = a.element(7, || unreachable!("mapper provided"));
        assert_eq!(f.path().as_deref(), Some("/tmp/none/seg_7.coor"));
        assert_eq!(f.try_get(), None, "nonexistent file is not an input");
    }

    #[test]
    fn preexisting_mapped_file_becomes_input() {
        let dir = std::env::temp_dir().join(format!("swift-val-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input_0.dat");
        std::fs::write(&path, "x").unwrap();
        let p = path.to_string_lossy().into_owned();
        let mapper: ElementMapper = Arc::new(move |_| p.clone());
        let a = ArrayHandle::new(true, Some(mapper));
        let f = a.element(0, || unreachable!());
        assert!(matches!(f.try_get(), Some(Value::File(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scope_lookup_walks_chain_and_shadows() {
        let root = Scope::root();
        root.define("x", Binding::Scalar(Future::new())).unwrap();
        let child = Scope::child(&root);
        assert!(child.lookup("x").is_some());
        // Shadowing in the child is fine.
        child.define("x", Binding::Scalar(Future::new())).unwrap();
        // Redefinition in the same frame is not.
        assert!(child.define("x", Binding::Scalar(Future::new())).is_err());
        assert!(child.lookup("missing").is_none());
    }

    #[test]
    fn value_rendering() {
        assert_eq!(Value::Int(-3).render(), "-3");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Float(2.5).render(), "2.5");
        assert_eq!(Value::Str("s".into()).render(), "s");
        assert_eq!(Value::Bool(true).render(), "true");
        assert_eq!(Value::File("/p".into()).render(), "/p");
    }
}
