//! End-to-end with *real OS processes*: the dispatcher launches an MPI
//! job whose ranks are separate `namd-lite` processes wired up over PMI
//! and TCP — the deployment mode of the paper's commodity-cluster runs.

use jets_core::spec::{CommandSpec, JobSpec};
use jets_core::{Dispatcher, DispatcherConfig, JobStatus};
use jets_worker::{Executor, Worker, WorkerConfig};
use namd_sim::io::read_xsc;
use namd_sim::MdConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn real_process_mpi_namd_segment() {
    let dir = std::env::temp_dir().join(format!("real-mpi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_prefix = dir.join("seg");
    let config = MdConfig {
        num_atoms: 24,
        numsteps: 4,
        outputname: out_prefix.to_string_lossy().into_owned(),
        ..MdConfig::default()
    };
    let config_path = dir.join("seg.conf");
    std::fs::write(&config_path, config.render()).unwrap();

    let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
    // Plain executors: Exec commands spawn real processes.
    let exec: Arc<dyn jets_worker::TaskExecutor> = Arc::new(Executor::default());
    let workers: Vec<Worker> = (0..2)
        .map(|i| {
            Worker::spawn(
                WorkerConfig::new(dispatcher.addr().to_string(), format!("proc-{i}")),
                Arc::clone(&exec),
            )
        })
        .collect();

    let id = dispatcher.submit(JobSpec::mpi(
        2,
        CommandSpec::exec(
            env!("CARGO_BIN_EXE_namd-lite").to_string(),
            vec![config_path.to_string_lossy().into_owned()],
        ),
    ));
    assert!(
        dispatcher.wait_idle(Duration::from_secs(120)),
        "real-process MPI job hung"
    );
    let record = dispatcher.job_record(id).unwrap();
    assert_eq!(record.status, JobStatus::Succeeded, "{record:?}");

    // The two processes cooperated on one trajectory; rank 0 wrote it.
    let xsc = read_xsc(Path::new(&format!("{}.xsc", out_prefix.display()))).unwrap();
    assert_eq!(xsc.step, 4);
    assert!(xsc.potential.is_finite());

    dispatcher.shutdown();
    for w in workers {
        w.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn real_process_sequential_command() {
    let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
    let exec: Arc<dyn jets_worker::TaskExecutor> = Arc::new(Executor::default());
    let worker = Worker::spawn(
        WorkerConfig::new(dispatcher.addr().to_string(), "proc"),
        exec,
    );
    let ok = dispatcher.submit(JobSpec::sequential(CommandSpec::exec("true", vec![])));
    let bad = dispatcher.submit(JobSpec::sequential(CommandSpec::exec("false", vec![])));
    assert!(dispatcher.wait_idle(Duration::from_secs(60)));
    assert_eq!(
        dispatcher.job_record(ok).unwrap().status,
        JobStatus::Succeeded
    );
    let failed = dispatcher.job_record(bad).unwrap();
    assert_eq!(failed.status, JobStatus::Failed);
    assert_eq!(failed.exit_codes, vec![1]);
    dispatcher.shutdown();
    worker.join();
}
