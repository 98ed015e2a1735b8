//! Science applications registered into simulated workers.
//!
//! These are the builtin equivalents of the binaries a real deployment
//! would stage to node-local storage (paper Section 5: "JETS can cache
//! libraries and tools ... and even user data on node-local storage"):
//!
//! * `namd-lite CONFIG` — run one MD segment from a NAMD-style config
//!   file. Runs serially for 1-rank tasks, or wires up MPI through the
//!   task's `PMI_*` environment for parallel tasks.
//! * `rem-exchange PREFIX_A T_A PREFIX_B T_B SEED` — attempt a replica
//!   exchange between two segments' restart files; writes `accepted` or
//!   `rejected` to the `SWIFT_STDOUT` path when set (the workflow's
//!   synchronization token).

use jets_ring::stdx::SplitMix64;
use jets_worker::{AppRegistry, TaskContext};
use namd_sim::rem::{attempt_file_exchange, ReplicaFiles};
use namd_sim::{run_segment, MdConfig};

/// Register `namd-lite` and `rem-exchange` onto `registry`.
pub fn register_namd(registry: &AppRegistry) {
    registry.register("namd-lite", |ctx: &TaskContext| {
        // Arguments are either config file paths or inline `key=value`
        // settings (the form workflow scripts generate); later arguments
        // override earlier ones.
        if ctx.args.is_empty() {
            return 2;
        }
        let mut text = String::new();
        for arg in &ctx.args {
            match arg.split_once('=') {
                Some((key, value)) => {
                    text.push_str(key);
                    text.push(' ');
                    text.push_str(value);
                    text.push('\n');
                }
                None => match std::fs::read_to_string(arg) {
                    Ok(t) => {
                        text.push_str(&t);
                        text.push('\n');
                    }
                    Err(_) => return 3,
                },
            }
        }
        let config = match MdConfig::parse(&text) {
            Ok(c) => c,
            Err(_) => return 4,
        };
        if ctx.rank.is_some() && ctx.size > 1 {
            // Parallel segment: full PMI + sockets wire-up.
            let mut job = match ctx.mpi() {
                Ok(j) => j,
                Err(_) => return 5,
            };
            let ok = run_segment(&config, Some(&mut job.comm)).is_ok();
            if job.finalize().is_err() {
                return 6;
            }
            if ok {
                0
            } else {
                7
            }
        } else {
            match run_segment(&config, None) {
                Ok(_) => 0,
                Err(_) => 7,
            }
        }
    });

    registry.register("rem-exchange", |ctx: &TaskContext| {
        if ctx.args.len() < 5 {
            return 2;
        }
        let prefix_a = &ctx.args[0];
        let Ok(t_a) = ctx.args[1].parse::<f64>() else {
            return 2;
        };
        let prefix_b = &ctx.args[2];
        let Ok(t_b) = ctx.args[3].parse::<f64>() else {
            return 2;
        };
        let Ok(seed) = ctx.args[4].parse::<u64>() else {
            return 2;
        };
        let a = ReplicaFiles::from_prefix(prefix_a);
        let b = ReplicaFiles::from_prefix(prefix_b);
        let mut rng = SplitMix64::new(seed);
        let accepted = match attempt_file_exchange(&a, &b, t_a, t_b, &mut rng) {
            Ok(v) => v,
            Err(_) => return 3,
        };
        // The workflow uses the exchange output as a dataflow token.
        if let Some(out) = ctx.env("SWIFT_STDOUT") {
            let body = if accepted { "accepted\n" } else { "rejected\n" };
            if std::fs::write(&out, body).is_err() {
                return 4;
            }
        }
        0
    });
}

/// The standard worker registry plus the science applications.
pub fn science_registry() -> AppRegistry {
    let registry = jets_worker::apps::standard_registry();
    register_namd(&registry);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_core::protocol::{TaskAssignment, TaskKind};
    use jets_core::spec::CommandSpec;
    use jets_worker::{Executor, TaskExecutor};
    use namd_sim::io::read_xsc;
    use std::path::Path;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sim-apps-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seq(cmd: CommandSpec) -> TaskAssignment {
        TaskAssignment {
            task_id: 1,
            job_id: 1,
            kind: TaskKind::Sequential { cmd },
            stage: Vec::new(),
            trace: 0,
        }
    }

    #[test]
    fn namd_lite_runs_a_serial_segment() {
        let dir = tmpdir("serial");
        let out = dir.join("seg0");
        let config = MdConfig {
            num_atoms: 32,
            numsteps: 5,
            outputname: out.to_string_lossy().into_owned(),
            ..MdConfig::default()
        };
        let config_path = dir.join("seg0.conf");
        std::fs::write(&config_path, config.render()).unwrap();
        let exec = Executor::new(science_registry());
        let code = exec.execute(&seq(CommandSpec::builtin(
            "namd-lite",
            vec![config_path.to_string_lossy().into_owned()],
        )));
        assert_eq!(code, 0);
        let xsc = read_xsc(Path::new(&format!("{}.xsc", out.to_string_lossy()))).unwrap();
        assert_eq!(xsc.step, 5);
    }

    #[test]
    fn namd_lite_runs_an_mpi_segment() {
        let dir = tmpdir("mpi");
        let out = dir.join("mpi-seg");
        let config = MdConfig {
            num_atoms: 32,
            numsteps: 3,
            outputname: out.to_string_lossy().into_owned(),
            ..MdConfig::default()
        };
        let config_path = dir.join("mpi.conf");
        std::fs::write(&config_path, config.render()).unwrap();
        let server =
            jets_pmi::PmiServer::start(jets_pmi::PmiServerConfig::new("namd-app", 2)).unwrap();
        let exec = Executor::new(science_registry());
        let assignment = TaskAssignment {
            task_id: 1,
            job_id: 1,
            kind: TaskKind::MpiProxy {
                cmd: CommandSpec::builtin(
                    "namd-lite",
                    vec![config_path.to_string_lossy().into_owned()],
                ),
                ranks: vec![0, 1],
                size: 2,
                pmi_addr: server.addr().to_string(),
                pmi_jobid: "namd-app".into(),
            },
            stage: Vec::new(),
            trace: 0,
        };
        assert_eq!(exec.execute(&assignment), 0);
        let xsc = read_xsc(Path::new(&format!("{}.xsc", out.to_string_lossy()))).unwrap();
        assert_eq!(xsc.step, 3);
    }

    #[test]
    fn namd_lite_rejects_bad_inputs() {
        let exec = Executor::new(science_registry());
        assert_eq!(
            exec.execute(&seq(CommandSpec::builtin("namd-lite", vec![]))),
            2
        );
        assert_eq!(
            exec.execute(&seq(CommandSpec::builtin(
                "namd-lite",
                vec!["/no/such/config".into()]
            ))),
            3
        );
    }

    #[test]
    fn rem_exchange_swaps_restart_files() {
        let dir = tmpdir("exchange");
        // Run two quick segments at different temperatures.
        let exec = Executor::new(science_registry());
        for (name, temp) in [("ra", 0.8), ("rb", 1.6)] {
            let config = MdConfig {
                num_atoms: 32,
                numsteps: 3,
                temperature: temp,
                outputname: dir.join(name).to_string_lossy().into_owned(),
                ..MdConfig::default()
            };
            let path = dir.join(format!("{name}.conf"));
            std::fs::write(&path, config.render()).unwrap();
            assert_eq!(
                exec.execute(&seq(CommandSpec::builtin(
                    "namd-lite",
                    vec![path.to_string_lossy().into_owned()]
                ))),
                0
            );
        }
        let token = dir.join("x.out");
        let cmd = CommandSpec::Builtin {
            app: "rem-exchange".into(),
            args: vec![
                dir.join("ra").to_string_lossy().into_owned(),
                "0.8".into(),
                dir.join("rb").to_string_lossy().into_owned(),
                "1.6".into(),
                "7".into(),
            ],
            env: vec![(
                "SWIFT_STDOUT".to_string(),
                token.to_string_lossy().into_owned(),
            )],
        };
        assert_eq!(exec.execute(&seq(cmd)), 0);
        let verdict = std::fs::read_to_string(&token).unwrap();
        assert!(verdict.trim() == "accepted" || verdict.trim() == "rejected");
    }

    #[test]
    fn rem_exchange_rejects_bad_args() {
        let exec = Executor::new(science_registry());
        assert_eq!(
            exec.execute(&seq(CommandSpec::builtin("rem-exchange", vec![]))),
            2
        );
        assert_eq!(
            exec.execute(&seq(CommandSpec::builtin(
                "rem-exchange",
                vec![
                    "/no/a".into(),
                    "1.0".into(),
                    "/no/b".into(),
                    "1.5".into(),
                    "1".into()
                ]
            ))),
            3
        );
    }
}
