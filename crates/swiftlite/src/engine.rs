//! The dataflow interpreter.
//!
//! Execution model: every non-declaration statement runs on its own
//! thread; reads of unset single-assignment variables block; writes
//! fulfil futures and wake readers. The result is exactly Swift's
//! semantics — "they are all executed concurrently, limited by data
//! dependencies" — with the thread scheduler as the dataflow engine. App
//! calls resolve to [`AppCall`]s and block their statement's thread until
//! the executor finishes, so workflow-wide concurrency equals the number
//! of runnable statements, and available task parallelism flows straight
//! into the underlying JETS dispatcher.

use crate::ast::*;
use crate::executor::{AppCall, AppExecutor};
use crate::parser::{parse, ParseError};
use crate::value::{
    ArrayHandle, Binding, CancelToken, ElementMapper, Future, Scope, Value, WaitError,
};
use jets_ring::stdx::Mutex;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Options controlling a workflow run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Directory for anonymous (unmapped) file variables.
    pub work_dir: PathBuf,
    /// Patience for any single dataflow wait; exceeding it fails the
    /// workflow (it almost always means a dependency cycle or a missing
    /// producer).
    pub wait_timeout: Duration,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            work_dir: std::env::temp_dir().join(format!("swiftlite-{}", std::process::id())),
            wait_timeout: Duration::from_secs(600),
        }
    }
}

/// Summary of a completed workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowReport {
    /// Number of app invocations executed.
    pub apps_run: usize,
    /// Lines emitted by `trace(...)`, in emission order.
    pub traces: Vec<String>,
}

/// A workflow failure (parse-time or run-time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwiftError {
    /// Description, with a source line where known.
    pub message: String,
}

impl fmt::Display for SwiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SwiftError {}

impl From<ParseError> for SwiftError {
    fn from(e: ParseError) -> Self {
        SwiftError {
            message: e.to_string(),
        }
    }
}

/// A parsed, runnable workflow.
pub struct Workflow {
    program: Program,
}

impl Workflow {
    /// Parse a workflow from source text.
    pub fn parse(source: &str) -> Result<Workflow, SwiftError> {
        Ok(Workflow {
            program: parse(source)?,
        })
    }

    /// The parsed program (inspection).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Run to completion against `executor`.
    pub fn run(
        &self,
        executor: Arc<dyn AppExecutor>,
        options: RunOptions,
    ) -> Result<WorkflowReport, SwiftError> {
        std::fs::create_dir_all(&options.work_dir).map_err(|e| SwiftError {
            message: format!("cannot create work dir: {e}"),
        })?;
        let engine = Arc::new(Engine {
            program: self.program.clone(),
            executor,
            options,
            cancel: CancelToken::new(),
            error: Mutex::new(None),
            traces: Mutex::new(Vec::new()),
            apps_run: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
            anon: AtomicU64::new(0),
        });
        let root = Scope::root();
        engine.exec_block(&root, &self.program.body);
        // Join until quiescent (threads may spawn more threads).
        loop {
            let handle = engine.handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let error = engine.error.lock().clone();
        if let Some(message) = error {
            return Err(SwiftError { message });
        }
        let apps_run = engine.apps_run.load(Ordering::Relaxed);
        let traces = engine.traces.lock().clone();
        Ok(WorkflowReport { apps_run, traces })
    }
}

struct Engine {
    program: Program,
    executor: Arc<dyn AppExecutor>,
    options: RunOptions,
    cancel: CancelToken,
    error: Mutex<Option<String>>,
    traces: Mutex<Vec<String>>,
    apps_run: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
    anon: AtomicU64,
}

type EvalResult = Result<Value, String>;

const STMT_STACK: usize = 192 * 1024;

impl Engine {
    fn fail(&self, message: String) {
        let mut err = self.error.lock();
        if err.is_none() {
            *err = Some(message);
        }
        self.cancel.cancel();
    }

    fn anon_path(&self) -> String {
        let n = self.anon.fetch_add(1, Ordering::Relaxed);
        self.options
            .work_dir
            .join(format!("anon_{n}.dat"))
            .to_string_lossy()
            .into_owned()
    }

    fn spawn(self: &Arc<Self>, scope: Arc<Scope>, stmt: Stmt) {
        if self.cancel.is_cancelled() {
            return;
        }
        let engine = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("swift-stmt".to_string())
            .stack_size(STMT_STACK)
            .spawn(move || {
                if let Err(message) = engine.exec_stmt(&scope, &stmt) {
                    engine.fail(message);
                }
            })
            .expect("spawn statement thread");
        self.handles.lock().push(handle);
    }

    /// Process a block: declarations bind names in order (so later
    /// statements can reference them); every other statement gets its own
    /// concurrently-executing thread.
    fn exec_block(self: &Arc<Self>, scope: &Arc<Scope>, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Decl { .. } => {
                    if let Err(message) = self.exec_decl(scope, stmt) {
                        self.fail(message);
                        return;
                    }
                }
                other => self.spawn(Arc::clone(scope), other.clone()),
            }
        }
    }

    fn exec_decl(self: &Arc<Self>, scope: &Arc<Scope>, stmt: &Stmt) -> Result<(), String> {
        let Stmt::Decl {
            ty,
            name,
            is_array,
            mapping,
            init,
            line,
        } = stmt
        else {
            unreachable!("exec_decl called on non-decl");
        };
        let at = |m: String| format!("line {line}: {m}");
        let binding = if *is_array {
            let mapper: Option<ElementMapper> = match mapping {
                None => None,
                Some(Mapping::Literal(_)) => {
                    return Err(at("array mapping needs simple_mapper".to_string()))
                }
                Some(Mapping::Simple { prefix, suffix }) => {
                    let prefix = self.eval(scope, prefix).map_err(&at)?.render();
                    let suffix = self.eval(scope, suffix).map_err(&at)?.render();
                    Some(Arc::new(move |i: i64| format!("{prefix}{i}{suffix}")) as ElementMapper)
                }
            };
            Binding::Array(ArrayHandle::new(*ty == Type::File, mapper))
        } else if *ty == Type::File {
            let path = match mapping {
                Some(Mapping::Literal(expr)) => self.eval(scope, expr).map_err(&at)?.render(),
                Some(Mapping::Simple { prefix, suffix }) => {
                    let p = self.eval(scope, prefix).map_err(&at)?.render();
                    let s = self.eval(scope, suffix).map_err(&at)?.render();
                    format!("{p}{s}")
                }
                None => self.anon_path(),
            };
            let future = Future::with_path(path.clone());
            // A mapped file that already exists is a workflow input.
            if mapping.is_some() && std::path::Path::new(&path).exists() {
                future.set(Value::File(path)).expect("fresh future");
            }
            Binding::Scalar(future)
        } else {
            Binding::Scalar(Future::new())
        };
        scope.define(name, binding.clone()).map_err(&at)?;
        if let Some(init_expr) = init {
            let lhs = LValue::Var(name.clone());
            self.spawn(
                Arc::clone(scope),
                Stmt::Assign {
                    lhs,
                    rhs: init_expr.clone(),
                    line: *line,
                },
            );
        }
        Ok(())
    }

    fn exec_stmt(self: &Arc<Self>, scope: &Arc<Scope>, stmt: &Stmt) -> Result<(), String> {
        match stmt {
            Stmt::Decl { .. } => self.exec_decl(scope, stmt),
            Stmt::Assign { lhs, rhs, line } => {
                let at = |m: String| format!("line {line}: {m}");
                // An app call on the right-hand side routes its output
                // into the assignment target.
                if let Expr::Call(name, args) = rhs {
                    if self.program.app(name).is_some() {
                        let target = self.lvalue_future(scope, lhs).map_err(&at)?;
                        let decl = self.program.app(name).expect("checked").clone();
                        if decl.outputs.len() != 1 {
                            return Err(at(format!(
                                "app '{name}' has {} outputs; use (a, b) = {name}(...)",
                                decl.outputs.len()
                            )));
                        }
                        self.run_app(scope, &decl, args, vec![target])
                            .map_err(&at)?;
                        return Ok(());
                    }
                }
                let value = self.eval(scope, rhs).map_err(&at)?;
                let target = self.lvalue_future(scope, lhs).map_err(&at)?;
                target.set(value).map_err(&at)
            }
            Stmt::MultiAssign {
                lhs,
                app,
                args,
                line,
            } => {
                let at = |m: String| format!("line {line}: {m}");
                let decl = self
                    .program
                    .app(app)
                    .ok_or_else(|| at(format!("unknown app '{app}'")))?
                    .clone();
                if decl.outputs.len() != lhs.len() {
                    return Err(at(format!(
                        "app '{app}' has {} outputs but {} targets were given",
                        decl.outputs.len(),
                        lhs.len()
                    )));
                }
                let targets = lhs
                    .iter()
                    .map(|l| self.lvalue_future(scope, l))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(&at)?;
                self.run_app(scope, &decl, args, targets).map_err(&at)?;
                Ok(())
            }
            Stmt::Foreach {
                var,
                index,
                lo,
                hi,
                body,
                line,
            } => {
                let at = |m: String| format!("line {line}: {m}");
                let lo = self.eval_int(scope, lo).map_err(&at)?;
                let hi = self.eval_int(scope, hi).map_err(&at)?;
                for i in lo..=hi {
                    let child = Scope::child(scope);
                    let value = Future::new();
                    value.set(Value::Int(i)).expect("fresh future");
                    child.define(var, Binding::Scalar(value)).map_err(&at)?;
                    if let Some(index_name) = index {
                        let idx = Future::new();
                        idx.set(Value::Int(i)).expect("fresh future");
                        child
                            .define(index_name, Binding::Scalar(idx))
                            .map_err(&at)?;
                    }
                    self.exec_block(&child, body);
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let at = |m: String| format!("line {line}: {m}");
                let value = self.eval(scope, cond).map_err(&at)?;
                let Value::Bool(b) = value else {
                    return Err(at(format!(
                        "if condition must be boolean, got {}",
                        value.type_name()
                    )));
                };
                let child = Scope::child(scope);
                self.exec_block(&child, if b { then_body } else { else_body });
                Ok(())
            }
            Stmt::Expr { expr, line } => {
                let at = |m: String| format!("line {line}: {m}");
                if let Expr::Call(name, args) = expr {
                    if self.program.app(name).is_some() {
                        let decl = self.program.app(name).expect("checked").clone();
                        // Outputs land at their app-declared anonymous
                        // paths; used for apps invoked purely for effect.
                        let targets = (0..decl.outputs.len())
                            .map(|_| Future::with_path(self.anon_path()))
                            .collect();
                        self.run_app(scope, &decl, args, targets).map_err(&at)?;
                        return Ok(());
                    }
                }
                self.eval(scope, expr).map_err(&at)?;
                Ok(())
            }
        }
    }

    /// Resolve an l-value to its (possibly vivified) future.
    fn lvalue_future(&self, scope: &Arc<Scope>, lvalue: &LValue) -> Result<Future, String> {
        match lvalue {
            LValue::Var(name) => match scope.lookup(name) {
                Some(Binding::Scalar(f)) => Ok(f),
                Some(Binding::Array(_)) => Err(format!("'{name}' is an array; index it to assign")),
                None => Err(format!("undefined variable '{name}'")),
            },
            LValue::Index(name, index_expr) => {
                let index = self.eval_int(scope, index_expr)?;
                match scope.lookup(name) {
                    Some(Binding::Array(a)) => Ok(a.element(index, || self.anon_path())),
                    Some(Binding::Scalar(_)) => {
                        Err(format!("'{name}' is a scalar; cannot index it"))
                    }
                    None => Err(format!("undefined variable '{name}'")),
                }
            }
        }
    }

    /// Execute one app call: evaluate arguments, render the command line,
    /// run it through the executor, and fulfil the output futures.
    fn run_app(
        self: &Arc<Self>,
        scope: &Arc<Scope>,
        decl: &AppDecl,
        args: &[Expr],
        targets: Vec<Future>,
    ) -> Result<(), String> {
        if args.len() != decl.inputs.len() {
            return Err(format!(
                "app '{}' takes {} arguments, {} given",
                decl.name,
                decl.inputs.len(),
                args.len()
            ));
        }
        debug_assert_eq!(targets.len(), decl.outputs.len());
        let arg_values = args
            .iter()
            .map(|a| self.eval(scope, a))
            .collect::<Result<Vec<_>, _>>()?;

        // The app body's scope: parameters only, all pre-fulfilled, so
        // rendering never blocks. Output parameters are bound to their
        // (future) paths.
        let app_scope = Scope::root();
        for ((ty, name), value) in decl.inputs.iter().zip(arg_values) {
            let _ = ty;
            let f = Future::new();
            f.set(value).expect("fresh future");
            app_scope.define(name, Binding::Scalar(f))?;
        }
        let mut output_paths = Vec::with_capacity(targets.len());
        for ((ty, name), target) in decl.outputs.iter().zip(&targets) {
            if *ty != Type::File {
                return Err(format!(
                    "app '{}': output '{name}' must be a file",
                    decl.name
                ));
            }
            let path = match target.path() {
                Some(p) => p,
                None => {
                    let p = self.anon_path();
                    target.set_path(p.clone());
                    p
                }
            };
            let f = Future::new();
            f.set(Value::File(path.clone())).expect("fresh future");
            app_scope.define(name, Binding::Scalar(f))?;
            output_paths.push(path);
        }

        let nodes = match &decl.nodes {
            Some(e) => self.eval_int(&app_scope, e)? as u32,
            None => 1,
        };
        let ppn = match &decl.ppn {
            Some(e) => self.eval_int(&app_scope, e)? as u32,
            None => 1,
        };
        if nodes == 0 || ppn == 0 {
            return Err(format!("app '{}': nodes and ppn must be ≥ 1", decl.name));
        }

        let mut words = Vec::new();
        let mut stdout = None;
        for token in &decl.body {
            match token {
                AppToken::Arg(expr) => words.push(self.eval(&app_scope, expr)?.render()),
                AppToken::StdoutRedirect(name) => {
                    let Some(Binding::Scalar(f)) = app_scope.lookup(name) else {
                        return Err(format!(
                            "app '{}': stdout target '{name}' is not a parameter",
                            decl.name
                        ));
                    };
                    match f.try_get() {
                        Some(Value::File(p)) => stdout = Some(p),
                        _ => {
                            return Err(format!(
                                "app '{}': stdout target '{name}' is not a file",
                                decl.name
                            ))
                        }
                    }
                }
            }
        }
        let executable = words.remove(0);
        let call = AppCall {
            executable,
            args: words,
            stdout,
            nodes,
            ppn,
            mpi: decl.nodes.is_some() || decl.ppn.is_some(),
        };
        self.executor
            .run(&call)
            .map_err(|e| format!("app '{}' failed: {e}", decl.name))?;
        self.apps_run.fetch_add(1, Ordering::Relaxed);
        for (target, path) in targets.iter().zip(output_paths) {
            target
                .set(Value::File(path))
                .map_err(|_| format!("app '{}' wrote an already-assigned output", decl.name))?;
        }
        Ok(())
    }

    fn eval_int(&self, scope: &Arc<Scope>, expr: &Expr) -> Result<i64, String> {
        match self.eval(scope, expr)? {
            Value::Int(v) => Ok(v),
            other => Err(format!("expected int, got {}", other.type_name())),
        }
    }

    fn eval(&self, scope: &Arc<Scope>, expr: &Expr) -> EvalResult {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Var(name) => match scope.lookup(name) {
                Some(Binding::Scalar(f)) => self.wait_future(&f, name),
                Some(Binding::Array(_)) => Err(format!("'{name}' is an array")),
                None => Err(format!("undefined variable '{name}'")),
            },
            Expr::Index(name, index) => {
                let idx = self.eval_int(scope, index)?;
                match scope.lookup(name) {
                    Some(Binding::Array(a)) => {
                        let f = a.element(idx, || self.anon_path());
                        self.wait_future(&f, &format!("{name}[{idx}]"))
                    }
                    Some(Binding::Scalar(_)) => Err(format!("'{name}' is not an array")),
                    None => Err(format!("undefined variable '{name}'")),
                }
            }
            Expr::Filename(inner) => {
                // @x: the *path* of a file variable, available before the
                // file is produced.
                let future = match inner.as_ref() {
                    Expr::Var(name) => match scope.lookup(name) {
                        Some(Binding::Scalar(f)) => Some(f),
                        _ => None,
                    },
                    Expr::Index(name, index) => {
                        let idx = self.eval_int(scope, index)?;
                        match scope.lookup(name) {
                            Some(Binding::Array(a)) => Some(a.element(idx, || self.anon_path())),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if let Some(f) = &future {
                    if let Some(path) = f.path() {
                        return Ok(Value::Str(path));
                    }
                }
                // Fall back to evaluating (blocks until the file closes).
                match self.eval(scope, inner)? {
                    Value::File(p) => Ok(Value::Str(p)),
                    other => Err(format!("@ applied to {}", other.type_name())),
                }
            }
            Expr::Un(op, inner) => {
                let v = self.eval(scope, inner)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                    (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(format!("cannot apply {op:?} to {}", v.type_name())),
                }
            }
            Expr::Bin(op, lhs, rhs) => self.eval_bin(scope, *op, lhs, rhs),
            Expr::Call(name, args) => self.eval_call(scope, name, args),
        }
    }

    fn wait_future(&self, future: &Future, what: &str) -> EvalResult {
        match future.wait(&self.cancel, self.options.wait_timeout) {
            Ok(v) => Ok(v),
            Err(WaitError::Cancelled) => Err("cancelled".to_string()),
            Err(WaitError::TimedOut) => Err(format!(
                "dataflow wait on '{what}' timed out after {:?} — dependency cycle or missing producer?",
                self.options.wait_timeout
            )),
        }
    }

    fn eval_bin(&self, scope: &Arc<Scope>, op: BinOp, lhs: &Expr, rhs: &Expr) -> EvalResult {
        // Short-circuit booleans first.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(scope, lhs)?;
            let Value::Bool(lb) = l else {
                return Err(format!("logical op on {}", l.type_name()));
            };
            if op == BinOp::And && !lb {
                return Ok(Value::Bool(false));
            }
            if op == BinOp::Or && lb {
                return Ok(Value::Bool(true));
            }
            let r = self.eval(scope, rhs)?;
            let Value::Bool(rb) = r else {
                return Err(format!("logical op on {}", r.type_name()));
            };
            return Ok(Value::Bool(rb));
        }

        let l = self.eval(scope, lhs)?;
        let r = self.eval(scope, rhs)?;
        use BinOp::*;
        use Value::*;
        match (op, &l, &r) {
            // String concatenation when either side is a string.
            (Add, Str(_), _) | (Add, _, Str(_)) => Ok(Str(format!("{}{}", l.render(), r.render()))),
            (Add, Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
            (Sub, Int(a), Int(b)) => Ok(Int(a.wrapping_sub(*b))),
            (Mul, Int(a), Int(b)) => Ok(Int(a.wrapping_mul(*b))),
            (Div, Int(a), Int(b)) => {
                if *b == 0 {
                    Err("integer division by zero".to_string())
                } else {
                    Ok(Int(a / b))
                }
            }
            (Mod, Int(a), Int(b)) => {
                if *b == 0 {
                    Err("modulus by zero".to_string())
                } else {
                    Ok(Int(a.rem_euclid(*b)))
                }
            }
            (Add | Sub | Mul | Div, _, _) if l.is_numeric() && r.is_numeric() => {
                let a = l.as_f64();
                let b = r.as_f64();
                Ok(Float(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    _ => unreachable!(),
                }))
            }
            (Eq, _, _) => Ok(Bool(values_equal(&l, &r))),
            (Ne, _, _) => Ok(Bool(!values_equal(&l, &r))),
            (Lt | Le | Gt | Ge, _, _) => {
                let ord = compare(&l, &r)?;
                Ok(Bool(match op {
                    Lt => ord == std::cmp::Ordering::Less,
                    Le => ord != std::cmp::Ordering::Greater,
                    Gt => ord == std::cmp::Ordering::Greater,
                    Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                }))
            }
            _ => Err(format!(
                "cannot apply {op:?} to {} and {}",
                l.type_name(),
                r.type_name()
            )),
        }
    }

    fn eval_call(&self, scope: &Arc<Scope>, name: &str, args: &[Expr]) -> EvalResult {
        // Builtins. (App calls as bare expressions are handled at the
        // statement level; reaching here means the position requires a
        // value, which only single-output apps could provide — not
        // supported inside larger expressions to keep dataflow explicit.)
        match name {
            "strcat" => {
                let mut out = String::new();
                for a in args {
                    out.push_str(&self.eval(scope, a)?.render());
                }
                Ok(Value::Str(out))
            }
            "toString" => {
                let v = self.eval(scope, args.first().ok_or("toString needs an argument")?)?;
                Ok(Value::Str(v.render()))
            }
            "toInt" => {
                let v = self.eval(scope, args.first().ok_or("toInt needs an argument")?)?;
                match v {
                    Value::Int(i) => Ok(Value::Int(i)),
                    Value::Float(f) => Ok(Value::Int(f as i64)),
                    Value::Str(s) => s
                        .trim()
                        .parse()
                        .map(Value::Int)
                        .map_err(|_| format!("toInt: '{s}' is not an integer")),
                    other => Err(format!("toInt on {}", other.type_name())),
                }
            }
            "toFloat" => {
                let v = self.eval(scope, args.first().ok_or("toFloat needs an argument")?)?;
                match v {
                    Value::Int(i) => Ok(Value::Float(i as f64)),
                    Value::Float(f) => Ok(Value::Float(f)),
                    Value::Str(s) => s
                        .trim()
                        .parse()
                        .map(Value::Float)
                        .map_err(|_| format!("toFloat: '{s}' is not a number")),
                    other => Err(format!("toFloat on {}", other.type_name())),
                }
            }
            "length" => {
                let v = self.eval(scope, args.first().ok_or("length needs an argument")?)?;
                match v {
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    other => Err(format!("length on {}", other.type_name())),
                }
            }
            "readData" => {
                // Swift's readData: read a (closed) file's contents. The
                // dataflow wait on the file future happens in eval, so
                // this only runs once the producer finished.
                let v = self.eval(scope, args.first().ok_or("readData needs an argument")?)?;
                let Value::File(path) = v else {
                    return Err(format!("readData on {}", v.type_name()));
                };
                std::fs::read_to_string(&path)
                    .map(|s| Value::Str(s.trim_end().to_string()))
                    .map_err(|e| format!("readData({path}): {e}"))
            }
            "trace" => {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    parts.push(self.eval(scope, a)?.render());
                }
                self.traces.lock().push(parts.join(" "));
                Ok(Value::Bool(true))
            }
            other if self.program.app(other).is_some() => Err(format!(
                "app '{other}' cannot be called inside an expression; assign its outputs"
            )),
            other => Err(format!("unknown function '{other}'")),
        }
    }
}

impl Value {
    fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    fn as_f64(&self) -> f64 {
        match self {
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            _ => f64::NAN,
        }
    }
}

fn values_equal(l: &Value, r: &Value) -> bool {
    use Value::*;
    match (l, r) {
        (Int(a), Int(b)) => a == b,
        (Float(a), Float(b)) => a == b,
        (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
        (Str(a), Str(b)) => a == b,
        (Bool(a), Bool(b)) => a == b,
        (File(a), File(b)) => a == b,
        _ => false,
    }
}

fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering, String> {
    use Value::*;
    match (l, r) {
        (Int(a), Int(b)) => Ok(a.cmp(b)),
        (Str(a), Str(b)) => Ok(a.cmp(b)),
        _ if l.is_numeric() && r.is_numeric() => l
            .as_f64()
            .partial_cmp(&r.as_f64())
            .ok_or_else(|| "NaN comparison".to_string()),
        _ => Err(format!(
            "cannot compare {} with {}",
            l.type_name(),
            r.type_name()
        )),
    }
}
