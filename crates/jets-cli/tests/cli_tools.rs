//! Integration tests driving the actual command-line binaries.

use std::path::PathBuf;
use std::process::Command;

// Cargo builds this package's binaries before its integration tests and
// hands over their paths, whatever the profile.
const JETS: &str = env!("CARGO_BIN_EXE_jets");
const NAMD_LITE: &str = env!("CARGO_BIN_EXE_namd-lite");
const REM_EXCHANGE: &str = env!("CARGO_BIN_EXE_rem-exchange");
const JETS_MPIEXEC: &str = env!("CARGO_BIN_EXE_jets-mpiexec");
const SWIFTLITE: &str = env!("CARGO_BIN_EXE_swiftlite");

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn jets_tool_runs_a_simulated_batch() {
    let dir = tmpdir("jets");
    let taskfile = dir.join("tasks.txt");
    std::fs::write(
        &taskfile,
        "# mixed batch\n@noop\n@sleep 20\nMPI: 2 @mpi-sleep 20\nMPI: 2 ppn=2 @mpi-sleep 10\n",
    )
    .unwrap();
    let output = Command::new(JETS)
        .arg(&taskfile)
        .args(["--simulate", "4", "--timeout", "120"])
        .output()
        .expect("run jets");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("4 succeeded, 0 failed"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The flight file a run leaves behind carries the run's statistics:
/// `jets flight dump --stats` recomputes them with no dispatcher running.
#[test]
fn flight_dump_stats_summarizes_a_recorded_run() {
    const N: usize = 12;
    let dir = tmpdir("flight-stats");
    let (taskfile, flight) = (dir.join("tasks.txt"), dir.join("run.ring"));
    std::fs::write(&taskfile, "@noop\n".repeat(N)).unwrap();
    let run = Command::new(JETS)
        .arg(&taskfile)
        .args(["--simulate", "2", "--timeout", "120", "--flight-recorder"])
        .arg(&flight)
        .output()
        .expect("run jets");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "stdout: {stdout}");
    assert!(
        stdout.contains(&format!("{N} succeeded, 0 failed")),
        "stdout: {stdout}"
    );

    let dump = Command::new(JETS)
        .args(["flight", "dump"])
        .arg(&flight)
        .args(["--stats", "--nodes", "2"])
        .output()
        .expect("run jets flight dump");
    let stdout = String::from_utf8_lossy(&dump.stdout);
    assert!(dump.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("allocation size: 2"), "stdout: {stdout}");
    assert!(
        stdout.contains(&format!("tasks ended:     {N}\n")),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("  utilization:     "), "stdout: {stdout}");
    assert!(
        stdout.contains("jets_job_phase_seconds p50/p95/p99 by job size"),
        "stdout: {stdout}"
    );
    // Every record of a short no-op run takes one ring slot.
    let summary = stdout.lines().find(|l| l.contains(" events retained of "));
    let summary = summary
        .expect("a summary line")
        .rsplit(": ")
        .next()
        .unwrap();
    let retained: usize = summary.split_whitespace().next().unwrap().parse().unwrap();
    assert!(retained >= N * 17, "stdout: {stdout}");
    assert!(
        stdout.contains(&format!(
            "  records {retained} in {retained} slots (1.00 per record)\n"
        )),
        "stdout: {stdout}"
    );
    // The phase table: its title, its header, then one row per job size.
    let mut table = stdout.lines().skip_while(|l| !l.contains("by job size"));
    let row: Vec<&str> = table.nth(2).expect("a row").split_whitespace().collect();
    assert_eq!(row[..2], ["1", &N.to_string()], "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A run shorter than a second still shows its peak load and its
/// workers: the summary reads them exactly from the file's events, not
/// from samples a second apart, which a run this short fell between.
#[test]
fn flight_dump_stats_sees_the_peak_of_a_short_run() {
    let dir = tmpdir("flight-short");
    let (taskfile, flight) = (dir.join("tasks.txt"), dir.join("run.ring"));
    std::fs::write(&taskfile, "@noop\n".repeat(7)).unwrap();
    let run = Command::new(JETS)
        .arg(&taskfile)
        .args(["--simulate", "2", "--timeout", "120", "--flight-recorder"])
        .arg(&flight)
        .output()
        .expect("run jets");
    assert!(run.status.success(), "{run:?}");
    let dump = Command::new(JETS)
        .args(["flight", "dump"])
        .arg(&flight)
        .arg("--stats")
        .output()
        .expect("run jets flight dump");
    let stdout = String::from_utf8_lossy(&dump.stdout);
    assert!(dump.status.success(), "stdout: {stdout}");
    let line = |label: &str| -> Vec<usize> {
        let line = stdout.lines().find(|l| l.trim_start().starts_with(label));
        let line = line.unwrap_or_else(|| panic!("no {label:?} line: {stdout}"));
        line.split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect()
    };
    // "peak load: T tasks / R busy ranks at t=…": one or two 1-rank jobs.
    let peak = line("peak load:");
    assert!((1..=2).contains(&peak[0]) && peak[1] == peak[0], "{stdout}");
    // "workers alive: min N, max M": both workers were up at once.
    assert_eq!(line("workers alive:")[1], 2, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jets_tool_reports_parse_errors() {
    let dir = tmpdir("jets-err");
    let taskfile = dir.join("bad.txt");
    std::fs::write(&taskfile, "MPI: zero @noop\n").unwrap();
    let output = Command::new(JETS)
        .arg(&taskfile)
        .args(["--simulate", "1"])
        .output()
        .expect("run jets");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 1"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn namd_lite_runs_serially_from_cli() {
    let dir = tmpdir("namd");
    let out = dir.join("seg");
    std::fs::write(
        dir.join("seg.conf"),
        format!(
            "numAtoms 24\nnumsteps 3\noutputname {}\n",
            out.to_string_lossy()
        ),
    )
    .unwrap();
    let output = Command::new(NAMD_LITE)
        .arg(dir.join("seg.conf"))
        .output()
        .expect("run namd-lite");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("24 atoms, step 3"), "stdout: {stdout}");
    assert!(out.with_extension("coor").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rem_exchange_cli_swaps_files() {
    let dir = tmpdir("rem");
    for (name, temp) in [("a", "0.8"), ("b", "1.6")] {
        std::fs::write(
            dir.join(format!("{name}.conf")),
            format!(
                "numAtoms 24\nnumsteps 3\ntemperature {temp}\noutputname {}\n",
                dir.join(name).to_string_lossy()
            ),
        )
        .unwrap();
        assert!(Command::new(NAMD_LITE)
            .arg(dir.join(format!("{name}.conf")))
            .status()
            .unwrap()
            .success());
    }
    let output = Command::new(REM_EXCHANGE)
        .args([
            dir.join("a").to_string_lossy().as_ref(),
            "0.8",
            dir.join("b").to_string_lossy().as_ref(),
            "1.6",
            "7",
        ])
        .output()
        .expect("run rem-exchange");
    assert!(output.status.success());
    let verdict = String::from_utf8_lossy(&output.stdout);
    assert!(
        verdict.trim() == "accepted" || verdict.trim() == "rejected",
        "verdict: {verdict}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swiftlite_cli_runs_local_workflow() {
    let dir = tmpdir("swift");
    let out = dir.join("hello.out");
    let script = dir.join("wf.swift");
    std::fs::write(
        &script,
        format!(
            r#"
app (file o) hello (string w) {{
    "echo" w stdout=@o
}}
file out <"{}">;
out = hello("hi-from-swiftlite");
trace("done");
"#,
            out.to_string_lossy()
        ),
    )
    .unwrap();
    let output = Command::new(SWIFTLITE)
        .arg(&script)
        .args(["--workdir", dir.join("work").to_string_lossy().as_ref()])
        .output()
        .expect("run swiftlite");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("trace: done"), "stdout: {stdout}");
    assert!(
        stdout.contains("1 app invocations completed"),
        "stdout: {stdout}"
    );
    assert_eq!(
        std::fs::read_to_string(&out).unwrap().trim(),
        "hi-from-swiftlite"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A layout of no ranks, or of more than a `u32` counts, is a usage
/// error, not a panic.
#[test]
fn mpiexec_refuses_a_layout_with_no_ranks_or_too_many() {
    for layout in [["-n", "4", "--ppn", "0"], ["-n", "65536", "--ppn", "65536"]] {
        let output = Command::new(JETS_MPIEXEC)
            .args(layout)
            .args(["--", "true"])
            .output()
            .expect("run jets-mpiexec");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{layout:?}: {stderr}");
        assert!(
            stderr.contains("usage: jets-mpiexec"),
            "{layout:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{layout:?}: {stderr}");
    }
}

#[test]
fn mpiexec_manual_launcher_drives_real_processes() {
    // The full launcher=manual loop with OS processes: jets-mpiexec
    // prints proxy environments; we parse them and start real namd-lite
    // processes that wire up over PMI + TCP.
    let dir = tmpdir("mpiexec");
    let out = dir.join("seg");
    let conf = dir.join("seg.conf");
    std::fs::write(
        &conf,
        format!(
            "numAtoms 24\nnumsteps 3\noutputname {}\n",
            out.to_string_lossy()
        ),
    )
    .unwrap();

    let mut manager = Command::new(JETS_MPIEXEC)
        .args(["-n", "2", "--jobid", "cli-test", "--timeout", "60"])
        .arg("namd-lite")
        .arg(&conf)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("start jets-mpiexec");

    // Read proxy lines until both ranks are printed.
    use std::io::BufRead;
    let stdout = manager.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut ranks = Vec::new();
    let mut line = String::new();
    while ranks.len() < 2 {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "mpiexec ended early"
        );
        if let Some(rest) = line.strip_prefix("node ") {
            // Format: `node NNN: K=V K=V K=V K=V namd-lite CONF`
            let (_, envs_and_cmd) = rest.split_once(": ").expect("node line format");
            let env: Vec<(String, String)> = envs_and_cmd
                .split_whitespace()
                .take(4)
                .map(|kv| {
                    let (k, v) = kv.split_once('=').expect("env pair");
                    (k.to_string(), v.to_string())
                })
                .collect();
            ranks.push(env);
        }
    }
    // Launch the two user processes ourselves — we are the external
    // scheduler the manual launcher exists for.
    let children: Vec<_> = ranks
        .into_iter()
        .map(|env| {
            Command::new(NAMD_LITE)
                .arg(&conf)
                .envs(env)
                .spawn()
                .expect("start rank process")
        })
        .collect();
    for mut child in children {
        assert!(child.wait().unwrap().success());
    }
    assert!(manager.wait().unwrap().success(), "mpiexec saw job failure");
    assert!(out.with_extension("coor").exists());
    std::fs::remove_dir_all(&dir).ok();
}
