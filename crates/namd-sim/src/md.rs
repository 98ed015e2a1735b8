//! The dynamics engine: velocity Verlet + Langevin, optionally MPI-parallel.
//!
//! Parallelization is atom decomposition, the simplest scheme that makes
//! a segment a genuinely tightly-coupled MPI job: every step all ranks
//! allgather positions, compute forces for their own atom block, and
//! integrate their block; energies are allreduced at the end. The
//! thermostat's noise is a counter-based (hash) Gaussian keyed by
//! `(seed, global step, atom, dimension)`, so a trajectory is independent
//! of the rank decomposition and exactly restartable across segments.

use crate::config::MdConfig;
use crate::force::compute_block;
use crate::io::{read_vectors, read_xsc, write_vectors, write_xsc, IoError, XscData};
use crate::system::ParticleSystem;
use jets_mpi::{Communicator, MpiError, ReduceOp};
use jets_ring::stdx::SplitMix64;
use std::path::Path;
use std::time::{Duration, Instant};

/// Error from running a segment.
#[derive(Debug)]
pub enum MdError {
    /// Restart-file problem.
    Io(IoError),
    /// Communication problem.
    Mpi(MpiError),
    /// Inconsistent configuration.
    Config(String),
}

impl std::fmt::Display for MdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdError::Io(e) => write!(f, "md i/o: {e}"),
            MdError::Mpi(e) => write!(f, "md mpi: {e}"),
            MdError::Config(m) => write!(f, "md config: {m}"),
        }
    }
}

impl std::error::Error for MdError {}

impl From<IoError> for MdError {
    fn from(e: IoError) -> Self {
        MdError::Io(e)
    }
}

impl From<MpiError> for MdError {
    fn from(e: MpiError) -> Self {
        MdError::Mpi(e)
    }
}

/// Outcome of one segment.
#[derive(Debug, Clone)]
pub struct SegmentResult {
    /// Final state (positions/velocities complete on every rank).
    pub system: ParticleSystem,
    /// Final potential energy.
    pub potential: f64,
    /// Final kinetic temperature.
    pub temperature: f64,
}

/// Run one MD segment described by `config`. Pass `Some(comm)` to run as
/// one rank of an MPI job (every rank must call with the same config);
/// pass `None` for serial execution. Rank 0 (or the serial caller) writes
/// the output restart files.
pub fn run_segment(
    config: &MdConfig,
    mut comm: Option<&mut Communicator>,
) -> Result<SegmentResult, MdError> {
    let started = Instant::now();
    config.validate().map_err(MdError::Config)?;
    let (rank, size) = match &comm {
        Some(c) => (c.rank() as usize, c.size() as usize),
        None => (0, 1),
    };

    // --- Load or create the system (deterministic, so every rank agrees).
    let mut system = load_system(config)?;
    let n = system.len();
    let box_len = system.box_len;
    let dt = config.timestep;
    let gamma = config.langevin_damping;
    let chunk = n.div_ceil(size);
    let my_start = (rank * chunk).min(n);
    let my_len = chunk.min(n.saturating_sub(my_start));

    // --- Initial forces for my block.
    let mut block = compute_block(&system.positions, my_start, my_len, box_len, config.cutoff);

    // Langevin coefficients.
    let c1 = (-gamma * dt).exp();
    let c2 = if gamma > 0.0 {
        ((1.0 - c1 * c1) * config.temperature).sqrt()
    } else {
        0.0
    };

    for _ in 0..config.numsteps {
        let global_step = system.step;
        // Half kick + drift for owned atoms.
        for bi in 0..my_len {
            let i = my_start + bi;
            for d in 0..3 {
                system.velocities[3 * i + d] += 0.5 * dt * block.forces[3 * bi + d];
                system.positions[3 * i + d] += dt * system.velocities[3 * i + d];
            }
        }
        // Share the updated positions.
        exchange_positions(&mut comm, &mut system.positions, my_start, my_len, chunk, n)?;
        // New forces, second half kick, thermostat.
        block = compute_block(&system.positions, my_start, my_len, box_len, config.cutoff);
        for bi in 0..my_len {
            let i = my_start + bi;
            for d in 0..3 {
                let v = &mut system.velocities[3 * i + d];
                *v += 0.5 * dt * block.forces[3 * bi + d];
                if gamma > 0.0 {
                    let xi = counter_gaussian(config.seed, global_step, i as u64, d as u64);
                    *v = c1 * *v + c2 * xi;
                }
            }
        }
        system.step += 1;
    }

    // --- Final energies (owned contributions, then global reduction).
    let my_potential = block.potential;
    let my_kinetic: f64 = (0..my_len)
        .map(|bi| {
            let i = my_start + bi;
            0.5 * (0..3)
                .map(|d| system.velocities[3 * i + d].powi(2))
                .sum::<f64>()
        })
        .sum();
    let (potential, kinetic) = match &mut comm {
        Some(c) => {
            let sums = c.allreduce(&[my_potential, my_kinetic], ReduceOp::Sum)?;
            (sums[0], sums[1])
        }
        None => (my_potential, my_kinetic),
    };
    let temperature = if n > 0 {
        2.0 * kinetic / (3.0 * n as f64)
    } else {
        0.0
    };

    // --- Complete the velocity vector on every rank (positions already
    // complete after the last exchange; velocities only for owned atoms).
    exchange_velocities(
        &mut comm,
        &mut system.velocities,
        my_start,
        my_len,
        chunk,
        n,
    )?;
    system.wrap_positions();

    // --- Rank 0 writes the restart artifacts.
    if rank == 0 {
        let prefix = &config.outputname;
        write_vectors(Path::new(&format!("{prefix}.coor")), &system.positions)?;
        write_vectors(Path::new(&format!("{prefix}.vel")), &system.velocities)?;
        write_xsc(
            Path::new(&format!("{prefix}.xsc")),
            &XscData {
                step: system.step,
                potential,
                temperature,
                box_length: box_len,
            },
        )?;
    }

    // --- Pace the segment to its nominal duration (simulated-testbed
    // knob; see EXPERIMENTS.md).
    if config.pace_milliseconds > 0 {
        let target = Duration::from_millis(config.pace_milliseconds);
        let elapsed = started.elapsed();
        if elapsed < target {
            std::thread::sleep(target - elapsed);
        }
    }

    Ok(SegmentResult {
        system,
        potential,
        temperature,
    })
}

/// Load restart files, or build a fresh lattice when none are given.
fn load_system(config: &MdConfig) -> Result<ParticleSystem, MdError> {
    match &config.coordinates {
        Some(coor_path) => {
            let positions = read_vectors(Path::new(coor_path))?;
            let n = positions.len() / 3;
            let xsc = match &config.extended_system {
                Some(p) => Some(read_xsc(Path::new(p))?),
                None => None,
            };
            let box_len = xsc
                .map(|x| x.box_length)
                .unwrap_or_else(|| (n as f64 / config.density).cbrt());
            let velocities = match &config.velocities {
                Some(p) => {
                    let v = read_vectors(Path::new(p))?;
                    if v.len() != positions.len() {
                        return Err(MdError::Config(format!(
                            "velocity count {} does not match coordinate count {}",
                            v.len() / 3,
                            n
                        )));
                    }
                    v
                }
                None => vec![0.0; positions.len()],
            };
            let mut system = ParticleSystem {
                positions,
                velocities,
                box_len,
                step: xsc.map(|x| x.step).unwrap_or(0),
            };
            if config.velocities.is_none() {
                system.thermalize(config.temperature, config.seed);
            }
            Ok(system)
        }
        None => Ok(ParticleSystem::lattice(
            config.num_atoms,
            config.density,
            config.temperature,
            config.seed,
        )),
    }
}

/// Allgather the owned block of a 3N vector so every rank holds the full
/// vector. Blocks are padded to `chunk` atoms so counts match.
fn exchange_positions(
    comm: &mut Option<&mut Communicator>,
    data: &mut [f64],
    my_start: usize,
    my_len: usize,
    chunk: usize,
    n: usize,
) -> Result<(), MpiError> {
    let Some(c) = comm.as_deref_mut() else {
        return Ok(());
    };
    let mut padded = vec![0.0f64; chunk * 3];
    padded[..my_len * 3].copy_from_slice(&data[my_start * 3..(my_start + my_len) * 3]);
    let gathered = c.allgather(&padded)?;
    let size = c.size() as usize;
    for r in 0..size {
        let start = (r * chunk).min(n);
        let len = chunk.min(n.saturating_sub(start));
        data[start * 3..(start + len) * 3]
            .copy_from_slice(&gathered[r * chunk * 3..r * chunk * 3 + len * 3]);
    }
    Ok(())
}

/// Same exchange for velocities (identical layout).
fn exchange_velocities(
    comm: &mut Option<&mut Communicator>,
    data: &mut [f64],
    my_start: usize,
    my_len: usize,
    chunk: usize,
    n: usize,
) -> Result<(), MpiError> {
    exchange_positions(comm, data, my_start, my_len, chunk, n)
}

/// Counter-based standard normal: hash the key, Box–Muller the result.
/// Decomposition-independent and restart-stable.
fn counter_gaussian(seed: u64, step: u64, atom: u64, dim: u64) -> f64 {
    let key = seed
        ^ step.wrapping_mul(0x9E3779B97F4A7C15)
        ^ atom.wrapping_mul(0xBF58476D1CE4E5B9)
        ^ dim.wrapping_mul(0x94D049BB133111EB);
    let a = SplitMix64::new(key).next_u64();
    let b = SplitMix64::new(a).next_u64();
    // Map to (0,1]: avoid ln(0).
    let u1 = ((a >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (b >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_mpi::{runner, NetModel};
    use std::fs;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("namd-md-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_config(out: &Path) -> MdConfig {
        MdConfig {
            num_atoms: 64,
            density: 0.6,
            temperature: 1.2,
            numsteps: 20,
            timestep: 0.004,
            cutoff: 2.5,
            langevin_damping: 1.0,
            outputname: out.to_string_lossy().into_owned(),
            seed: 99,
            ..MdConfig::default()
        }
    }

    #[test]
    fn nve_conserves_energy() {
        let dir = tmpdir("nve");
        let mut config = base_config(&dir.join("nve"));
        config.langevin_damping = 0.0; // pure NVE
        config.timestep = 0.002;
        config.numsteps = 5;
        let first = run_segment(&config, None).unwrap();
        let e0 = first.potential + first.system.kinetic_energy();
        // Continue 200 more steps from the restart.
        let mut config2 = config.clone();
        config2.coordinates = Some(format!("{}.coor", config.outputname));
        config2.velocities = Some(format!("{}.vel", config.outputname));
        config2.extended_system = Some(format!("{}.xsc", config.outputname));
        config2.numsteps = 200;
        config2.outputname = dir.join("nve2").to_string_lossy().into_owned();
        let second = run_segment(&config2, None).unwrap();
        let e1 = second.potential + second.system.kinetic_energy();
        let drift = (e1 - e0).abs() / e0.abs().max(1.0);
        assert!(drift < 0.02, "relative energy drift {drift}");
    }

    #[test]
    fn trajectories_are_deterministic() {
        let dir = tmpdir("det");
        let config_a = base_config(&dir.join("a"));
        let config_b = base_config(&dir.join("b"));
        let a = run_segment(&config_a, None).unwrap();
        let b = run_segment(&config_b, None).unwrap();
        assert_eq!(a.system.positions, b.system.positions);
        assert_eq!(a.system.velocities, b.system.velocities);
        assert_eq!(a.potential, b.potential);
    }

    #[test]
    fn thermostat_holds_target_temperature() {
        let dir = tmpdir("thermo");
        let mut config = base_config(&dir.join("t"));
        config.numsteps = 300;
        config.temperature = 1.5;
        let result = run_segment(&config, None).unwrap();
        assert!(
            (result.temperature - 1.5).abs() < 0.45,
            "temperature {} too far from target 1.5",
            result.temperature
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let dir = tmpdir("par");
        let serial_config = base_config(&dir.join("serial"));
        let serial = run_segment(&serial_config, None).unwrap();

        let par_dir = dir.clone();
        let results = runner::run_threads(4, NetModel::ideal(), move |comm| {
            let mut config = base_config(&par_dir.join(format!("par-r{}", comm.rank())));
            // All ranks must share one outputname for the rank-0 write;
            // give them the same prefix.
            config.outputname = par_dir.join("par").to_string_lossy().into_owned();
            let r = run_segment(&config, Some(comm)).unwrap();
            comm.barrier().unwrap();
            (r.potential, r.system.positions)
        })
        .unwrap();
        for (potential, positions) in &results {
            assert!(
                (potential - serial.potential).abs() < 1e-8,
                "parallel potential {potential} vs serial {}",
                serial.potential
            );
            assert_eq!(positions.len(), serial.system.positions.len());
            for (a, b) in positions.iter().zip(serial.system.positions.iter()) {
                assert!((a - b).abs() < 1e-8, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn restart_continues_exactly() {
        let dir = tmpdir("restart");
        // 30 straight steps...
        let mut straight = base_config(&dir.join("straight"));
        straight.numsteps = 30;
        let full = run_segment(&straight, None).unwrap();
        // ...versus 15 + 15 through restart files.
        let mut first = base_config(&dir.join("part1"));
        first.numsteps = 15;
        run_segment(&first, None).unwrap();
        let mut second = base_config(&dir.join("part2"));
        second.numsteps = 15;
        second.coordinates = Some(format!("{}.coor", first.outputname));
        second.velocities = Some(format!("{}.vel", first.outputname));
        second.extended_system = Some(format!("{}.xsc", first.outputname));
        let resumed = run_segment(&second, None).unwrap();
        assert_eq!(resumed.system.step, full.system.step);
        for (a, b) in resumed
            .system
            .positions
            .iter()
            .zip(full.system.positions.iter())
        {
            assert!((a - b).abs() < 1e-12, "restart divergence: {a} vs {b}");
        }
    }

    #[test]
    fn outputs_are_written_and_consistent() {
        let dir = tmpdir("outputs");
        let config = base_config(&dir.join("w"));
        let result = run_segment(&config, None).unwrap();
        let coor = read_vectors(Path::new(&format!("{}.coor", config.outputname))).unwrap();
        let vel = read_vectors(Path::new(&format!("{}.vel", config.outputname))).unwrap();
        let xsc = read_xsc(Path::new(&format!("{}.xsc", config.outputname))).unwrap();
        assert_eq!(coor, result.system.positions);
        assert_eq!(vel, result.system.velocities);
        assert_eq!(xsc.step, result.system.step);
        assert!((xsc.potential - result.potential).abs() < 1e-12);
    }

    #[test]
    fn pacing_pads_wall_time() {
        let dir = tmpdir("pace");
        let mut config = base_config(&dir.join("p"));
        config.numsteps = 1;
        config.pace_milliseconds = 80;
        let t = Instant::now();
        run_segment(&config, None).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(80));
    }

    /// FNV-1a over the bits of the final positions, velocities and
    /// potential energy.
    fn trajectory_digest(result: &SegmentResult) -> u64 {
        let system = &result.system;
        let values = system.positions.iter().chain(&system.velocities);
        values
            .chain([&result.potential])
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn lj_fluid_trajectory_is_pinned() {
        // The default LJ fluid, 40 steps (40 position exchanges on 4
        // blocks), bit for bit: a change that must not move the
        // trajectory leaves these digests alone.
        const PINNED: [(u32, u64); 2] = [(1, 0xae1c_8c44_8008_f1a2), (4, 0xf21a_6ee9_c630_653d)];
        let dir = tmpdir("pinned");
        for (blocks, want) in PINNED {
            let config = MdConfig {
                numsteps: 40,
                outputname: dir
                    .join(format!("b{blocks}"))
                    .to_string_lossy()
                    .into_owned(),
                ..MdConfig::default()
            };
            let digests = runner::run_threads(blocks, NetModel::ideal(), move |comm| {
                let comm = (comm.size() > 1).then_some(comm);
                trajectory_digest(&run_segment(&config, comm).unwrap())
            })
            .unwrap();
            assert!(
                digests.iter().all(|&d| d == digests[0]),
                "ranks disagree: {digests:x?}"
            );
            assert_eq!(
                digests[0], want,
                "{blocks} blocks: got {:#018x}",
                digests[0]
            );
        }
    }

    #[test]
    fn counter_gaussian_is_reproducible_and_varied() {
        let a = counter_gaussian(1, 2, 3, 0);
        assert_eq!(a, counter_gaussian(1, 2, 3, 0));
        assert_ne!(a, counter_gaussian(1, 2, 3, 1));
        assert_ne!(a, counter_gaussian(1, 2, 4, 0));
        // Rough sanity: 1000 draws have near-zero mean, unit-ish variance.
        let draws: Vec<f64> = (0..1000)
            .map(|i| counter_gaussian(7, i, i * 31, i % 3))
            .collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.25, "var {var}");
    }
}
