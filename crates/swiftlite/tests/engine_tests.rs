//! End-to-end tests of the swiftlite dataflow engine.

use jets_ring::stdx::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use swiftlite::{AppCall, FnExecutor, RunOptions, Workflow};

fn options(tag: &str) -> RunOptions {
    RunOptions {
        work_dir: std::env::temp_dir().join(format!("swift-test-{tag}-{}", std::process::id())),
        wait_timeout: Duration::from_secs(30),
    }
}

fn run(source: &str, executor: FnExecutor, tag: &str) -> swiftlite::WorkflowReport {
    Workflow::parse(source)
        .unwrap()
        .run(Arc::new(executor), options(tag))
        .unwrap()
}

#[test]
fn arithmetic_and_trace() {
    let report = run(
        r#"
        int a = 6;
        int b = a * 7;
        trace("answer", b);
        "#,
        FnExecutor::new(),
        "arith",
    );
    assert_eq!(report.traces, vec!["answer 42".to_string()]);
    assert_eq!(report.apps_run, 0);
}

#[test]
fn dataflow_runs_out_of_textual_order() {
    // The trace depends on `b`, which is assigned *after* it textually;
    // statement-level concurrency must resolve it.
    let report = run(
        r#"
        int a;
        trace("value", a + 1);
        a = 41;
        "#,
        FnExecutor::new(),
        "order",
    );
    assert_eq!(report.traces, vec!["value 42".to_string()]);
}

#[test]
fn foreach_expands_and_runs_concurrently() {
    let counter = Arc::new(AtomicUsize::new(0));
    let executor = FnExecutor::new();
    let c = Arc::clone(&counter);
    executor.register("tick", move |_call: &AppCall| {
        c.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let report = run(
        r#"
        app (file o) tick (int i) {
            "tick" i
        }
        foreach i in [0:9] {
            file out;
            out = tick(i);
        }
        "#,
        executor,
        "foreach",
    );
    assert_eq!(report.apps_run, 10);
    assert_eq!(counter.load(Ordering::SeqCst), 10);
}

#[test]
fn app_outputs_flow_into_dependent_apps() {
    // b depends on a's output file; check the path threads through and
    // ordering holds.
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let executor = FnExecutor::new();
    let l1 = Arc::clone(&log);
    executor.register("stage", move |call: &AppCall| {
        l1.lock().push(call.args.join(" "));
        Ok(())
    });
    let report = run(
        r#"
        app (file o) stage (string tag, file input) {
            "stage" tag @input
        }
        app (file o) first (string tag) {
            "stage" tag "none"
        }
        file a <"/tmp/swift-chain-a">;
        file b <"/tmp/swift-chain-b">;
        a = first("one");
        b = stage("two", a);
        "#,
        executor,
        "chain",
    );
    assert_eq!(report.apps_run, 2);
    let entries = log.lock().clone();
    assert_eq!(entries[0], "one none");
    assert_eq!(entries[1], "two /tmp/swift-chain-a");
}

#[test]
fn multi_output_apps_fulfil_all_targets() {
    let executor = FnExecutor::new();
    executor.register("produce", |_call: &AppCall| Ok(()));
    let report = run(
        r#"
        app (file c, file v) produce (int k) {
            "produce" k @c @v
        }
        file cs[] <simple_mapper; prefix="/tmp/none/c_", suffix=".coor">;
        file vs[] <simple_mapper; prefix="/tmp/none/v_", suffix=".vel">;
        (cs[3], vs[3]) = produce(3);
        trace("made", @cs[3], @vs[3]);
        "#,
        executor,
        "multi",
    );
    assert_eq!(report.apps_run, 1);
    assert_eq!(
        report.traces,
        vec!["made /tmp/none/c_3.coor /tmp/none/v_3.vel".to_string()]
    );
}

#[test]
fn modulus_and_if_control_flow() {
    let report = run(
        r#"
        foreach j in [0:5] {
            if (j %% 2 == 1) {
                trace("odd", j);
            }
        }
        "#,
        FnExecutor::new(),
        "mod",
    );
    let mut traces = report.traces.clone();
    traces.sort();
    assert_eq!(traces, vec!["odd 1", "odd 3", "odd 5"]);
}

#[test]
fn string_builtins() {
    let report = run(
        r#"
        string s = strcat("a", 1, "-", 2.5);
        trace(s);
        trace(toString(7));
        trace(toInt("12") + 1);
        trace(toFloat("1.5") * 2);
        "#,
        FnExecutor::new(),
        "strings",
    );
    let mut traces = report.traces.clone();
    traces.sort();
    assert_eq!(traces, vec!["13", "3.0", "7", "a1-2.5"]);
}

#[test]
fn app_failure_fails_the_workflow() {
    let executor = FnExecutor::new();
    executor.register("explode", |_call: &AppCall| Err("boom".to_string()));
    let err = Workflow::parse(
        r#"
        app (file o) explode () {
            "explode"
        }
        file out;
        out = explode();
        "#,
    )
    .unwrap()
    .run(Arc::new(executor), options("fail"))
    .unwrap_err();
    assert!(err.message.contains("boom"), "got: {}", err.message);
}

#[test]
fn double_assignment_is_an_error() {
    let err = Workflow::parse("int x;\nx = 1;\nx = 2;\n")
        .unwrap()
        .run(Arc::new(FnExecutor::new()), options("double"))
        .unwrap_err();
    assert!(
        err.message.contains("assigned twice"),
        "got: {}",
        err.message
    );
}

#[test]
fn missing_producer_times_out_with_diagnosis() {
    let mut opts = options("hang");
    opts.wait_timeout = Duration::from_millis(100);
    let err = Workflow::parse("int x;\ntrace(x);\n")
        .unwrap()
        .run(Arc::new(FnExecutor::new()), opts)
        .unwrap_err();
    assert!(err.message.contains("timed out"), "got: {}", err.message);
}

#[test]
fn preexisting_mapped_file_is_an_input() {
    let dir = std::env::temp_dir().join(format!("swift-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("seed.dat");
    std::fs::write(&input, "seed").unwrap();
    let executor = FnExecutor::new();
    let seen = Arc::new(Mutex::new(String::new()));
    let s2 = Arc::clone(&seen);
    executor.register("consume", move |call: &AppCall| {
        *s2.lock() = call.args[0].clone();
        Ok(())
    });
    let source = format!(
        r#"
        app (file o) consume (file input) {{
            "consume" @input
        }}
        file seed <"{}">;
        file out;
        out = consume(seed);
        "#,
        input.to_string_lossy()
    );
    let report = run(&source, executor, "input");
    assert_eq!(report.apps_run, 1);
    assert_eq!(*seen.lock(), input.to_string_lossy());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nested_foreach_with_dataflow_chain() {
    // A miniature REM dependency structure: segment (i, j+1) consumes
    // segment (i, j)'s output. Track per-chain completion order.
    let executor = FnExecutor::new();
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o2 = Arc::clone(&order);
    executor.register("seg", move |call: &AppCall| {
        o2.lock().push(call.args.join(","));
        Ok(())
    });
    let report = run(
        r#"
        app (file o) seg (int i, int j, file prev) {
            "seg" i j
        }
        app (file o) seed (int i) {
            "seg" i "-1"
        }
        int replicas = 3;
        int segments = 3;
        file c[];
        foreach i in [0:replicas-1] {
            c[i * 10] = seed(i);
            foreach j in [0:segments-1] {
                c[i * 10 + j + 1] = seg(i, j, c[i * 10 + j]);
            }
        }
        "#,
        executor,
        "nested",
    );
    assert_eq!(report.apps_run, 12); // 3 seeds + 9 segments
    let entries = order.lock().clone();
    // Within each replica chain, segments must appear in j order.
    for i in 0..3 {
        let js: Vec<&String> = entries
            .iter()
            .filter(|e| e.starts_with(&format!("{i},")) && !e.ends_with("-1"))
            .collect();
        let positions: Vec<i32> = js
            .iter()
            .map(|e| e.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted, "chain {i} out of order: {entries:?}");
    }
}

#[test]
fn mpi_attributes_reach_the_executor() {
    let executor = FnExecutor::new();
    let shapes: Arc<Mutex<Vec<(u32, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&shapes);
    executor.register("par", move |call: &AppCall| {
        s2.lock().push((call.nodes, call.ppn));
        Ok(())
    });
    let report = run(
        r#"
        app (file o) par (int n) mpi(nodes=n, ppn=2) {
            "par" n
        }
        file a;
        file b;
        a = par(4);
        b = par(8);
        "#,
        executor,
        "mpi",
    );
    assert_eq!(report.apps_run, 2);
    let mut got = shapes.lock().clone();
    got.sort_unstable();
    assert_eq!(got, vec![(4, 2), (8, 2)]);
}

#[test]
fn stdout_redirect_reaches_executor() {
    let executor = FnExecutor::new();
    let paths: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&paths);
    executor.register("say", move |call: &AppCall| {
        p2.lock().push(call.stdout.clone());
        Ok(())
    });
    run(
        r#"
        app (file o) say (string w) {
            "say" w stdout=@o
        }
        file out <"/tmp/swift-say.log">;
        out = say("hello");
        "#,
        executor,
        "stdout",
    );
    assert_eq!(
        paths.lock().clone(),
        vec![Some("/tmp/swift-say.log".to_string())]
    );
}

#[test]
fn read_data_consumes_a_produced_file() {
    let executor = FnExecutor::new();
    executor.register("emit", |call: &AppCall| {
        std::fs::write(call.stdout.as_ref().unwrap(), "42\n").map_err(|e| e.to_string())
    });
    let dir = std::env::temp_dir().join(format!("swift-readdata-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let source = format!(
        r#"
        app (file o) emit () {{
            "emit" stdout=@o
        }}
        file out <"{}/answer.txt">;
        out = emit();
        int answer = toInt(readData(out));
        trace("answer", answer + 1);
        "#,
        dir.display()
    );
    let report = run(&source, executor, "readdata");
    assert_eq!(report.traces, vec!["answer 43".to_string()]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn length_builtin_counts_characters() {
    let report = run(
        r#"
        trace(length("hello"));
        trace(length(strcat("a", "bc")));
        trace(length(""));
        "#,
        FnExecutor::new(),
        "length",
    );
    let mut traces = report.traces.clone();
    traces.sort();
    assert_eq!(traces, vec!["0", "3", "5"]);
}
