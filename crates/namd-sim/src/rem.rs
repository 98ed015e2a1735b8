//! Replica exchange: the Metropolis test and the file-level swap.
//!
//! The replica exchange method (Sugita & Okamoto 1999; paper Section 3)
//! runs many trajectories at different temperatures, regularly stopping
//! them to attempt exchanges between temperature neighbours. The
//! acceptance rule for configurations `i`, `j` at temperatures `T_i`,
//! `T_j` with potential energies `E_i`, `E_j` (k_B = 1) is
//!
//! ```text
//! Δ = (1/T_i − 1/T_j) · (E_i − E_j)
//! P(accept) = min(1, e^Δ)
//! ```
//!
//! On acceptance the *configurations* swap between the temperature slots:
//! coordinates move across, and velocities are rescaled by
//! `sqrt(T_new / T_old)` so the kinetic energy matches the destination
//! temperature. In the JETS workflow this is performed by an external
//! exchange process operating on the restart files — exactly what
//! [`attempt_file_exchange`] does.

use crate::io::{read_vectors, read_xsc, write_vectors, write_xsc, IoError};
use jets_ring::stdx::SplitMix64;
use std::path::PathBuf;

/// The Metropolis exponent Δ for an exchange between `(t_i, e_i)` and
/// `(t_j, e_j)`.
pub fn exchange_delta(t_i: f64, e_i: f64, t_j: f64, e_j: f64) -> f64 {
    assert!(t_i > 0.0 && t_j > 0.0, "temperatures must be positive");
    (1.0 / t_i - 1.0 / t_j) * (e_i - e_j)
}

/// The Metropolis decision: always accept Δ ≥ 0, else with probability
/// e^Δ.
pub fn metropolis_accept(delta: f64, rng: &mut SplitMix64) -> bool {
    delta >= 0.0 || rng.gen_f64() < delta.exp()
}

/// The restart-file triple of one replica segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaFiles {
    /// Coordinates file.
    pub coor: PathBuf,
    /// Velocities file.
    pub vel: PathBuf,
    /// Extended-system file.
    pub xsc: PathBuf,
}

impl ReplicaFiles {
    /// Files produced by a segment with `outputname = prefix`.
    pub fn from_prefix(prefix: &str) -> ReplicaFiles {
        ReplicaFiles {
            coor: PathBuf::from(format!("{prefix}.coor")),
            vel: PathBuf::from(format!("{prefix}.vel")),
            xsc: PathBuf::from(format!("{prefix}.xsc")),
        }
    }
}

/// Attempt an exchange between replica `a` (at temperature `t_a`) and
/// replica `b` (at `t_b`), operating on their restart files.
///
/// Returns whether the exchange was accepted. On acceptance the two file
/// triples' *contents* are swapped, with velocities rescaled to their new
/// temperature slots; on rejection the files are untouched.
pub fn attempt_file_exchange(
    a: &ReplicaFiles,
    b: &ReplicaFiles,
    t_a: f64,
    t_b: f64,
    rng: &mut SplitMix64,
) -> Result<bool, IoError> {
    let xsc_a = read_xsc(&a.xsc)?;
    let xsc_b = read_xsc(&b.xsc)?;
    let delta = exchange_delta(t_a, xsc_a.potential, t_b, xsc_b.potential);
    if !metropolis_accept(delta, rng) {
        return Ok(false);
    }

    // Swap coordinates wholesale.
    let coor_a = read_vectors(&a.coor)?;
    let coor_b = read_vectors(&b.coor)?;
    write_vectors(&a.coor, &coor_b)?;
    write_vectors(&b.coor, &coor_a)?;

    // Swap velocities with temperature rescaling.
    let scale_into_a = (t_a / t_b).sqrt();
    let scale_into_b = (t_b / t_a).sqrt();
    let mut vel_a = read_vectors(&a.vel)?;
    let mut vel_b = read_vectors(&b.vel)?;
    for v in vel_b.iter_mut() {
        *v *= scale_into_a;
    }
    for v in vel_a.iter_mut() {
        *v *= scale_into_b;
    }
    write_vectors(&a.vel, &vel_b)?;
    write_vectors(&b.vel, &vel_a)?;

    // Swap extended-system data; step counters travel with the
    // configurations, temperatures stay with the slots, and the swapped
    // kinetic temperatures are rescaled like the velocities.
    let mut new_a = xsc_b;
    let mut new_b = xsc_a;
    new_a.temperature *= scale_into_a * scale_into_a;
    new_b.temperature *= scale_into_b * scale_into_b;
    write_xsc(&a.xsc, &new_a)?;
    write_xsc(&b.xsc, &new_b)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::XscData;
    use std::fs;
    use std::path::Path;

    #[test]
    fn delta_signs_follow_the_physics() {
        // Hot replica holding a LOW-energy configuration and cold replica
        // holding HIGH energy: exchanging lets each configuration go where
        // it is more probable → Δ > 0, always accepted.
        let delta = exchange_delta(1.0, 50.0, 2.0, -10.0);
        assert!(delta > 0.0);
        // The reverse arrangement is penalized.
        let delta = exchange_delta(1.0, -10.0, 2.0, 50.0);
        assert!(delta < 0.0);
        // Equal temperatures: Δ = 0 regardless of energies.
        assert_eq!(exchange_delta(1.5, 3.0, 1.5, 99.0), 0.0);
    }

    #[test]
    fn metropolis_always_accepts_nonnegative_delta() {
        let mut rng = SplitMix64::new(0);
        for _ in 0..100 {
            assert!(metropolis_accept(0.0, &mut rng));
            assert!(metropolis_accept(5.0, &mut rng));
        }
    }

    #[test]
    fn metropolis_acceptance_rate_matches_exponent() {
        let mut rng = SplitMix64::new(1);
        let delta = -1.0f64;
        let trials = 20_000;
        let accepted = (0..trials)
            .filter(|_| metropolis_accept(delta, &mut rng))
            .count();
        let rate = accepted as f64 / trials as f64;
        let expect = delta.exp();
        assert!((rate - expect).abs() < 0.02, "rate {rate} vs e^Δ {expect}");
    }

    #[test]
    fn metropolis_rejects_very_negative_delta() {
        let mut rng = SplitMix64::new(2);
        let accepted = (0..1000)
            .filter(|_| metropolis_accept(-50.0, &mut rng))
            .count();
        assert_eq!(accepted, 0);
    }

    fn write_replica(dir: &Path, name: &str, potential: f64, temp: f64, tag: f64) -> ReplicaFiles {
        let files = ReplicaFiles::from_prefix(&dir.join(name).to_string_lossy());
        write_vectors(&files.coor, &[tag, 0.0, 0.0]).unwrap();
        write_vectors(&files.vel, &[tag, tag, tag]).unwrap();
        write_xsc(
            &files.xsc,
            &XscData {
                step: 10,
                potential,
                temperature: temp,
                box_length: 5.0,
            },
        )
        .unwrap();
        files
    }

    #[test]
    fn accepted_file_exchange_swaps_and_rescales() {
        let dir = std::env::temp_dir().join(format!("rem-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // Guaranteed-accept arrangement: cold slot has high energy.
        let a = write_replica(&dir, "a", 100.0, 1.0, 1.0); // T_a = 1
        let b = write_replica(&dir, "b", -100.0, 2.0, 2.0); // T_b = 2
        let mut rng = SplitMix64::new(3);
        let accepted = attempt_file_exchange(&a, &b, 1.0, 2.0, &mut rng).unwrap();
        assert!(accepted);
        // Coordinates swapped: slot a now holds configuration "2.0".
        assert_eq!(read_vectors(&a.coor).unwrap()[0], 2.0);
        assert_eq!(read_vectors(&b.coor).unwrap()[0], 1.0);
        // Velocities swapped and rescaled: b's velocities (2.0) into slot
        // a scaled by sqrt(1/2).
        let va = read_vectors(&a.vel).unwrap();
        assert!((va[0] - 2.0 * (0.5f64).sqrt()).abs() < 1e-12);
        let vb = read_vectors(&b.vel).unwrap();
        assert!((vb[0] - 1.0 * (2.0f64).sqrt()).abs() < 1e-12);
        // Energies travelled with the configurations.
        assert_eq!(read_xsc(&a.xsc).unwrap().potential, -100.0);
        assert_eq!(read_xsc(&b.xsc).unwrap().potential, 100.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_exchange_leaves_files_untouched() {
        let dir = std::env::temp_dir().join(format!("rem-rej-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // Guaranteed-reject arrangement (Δ very negative).
        let a = write_replica(&dir, "a", -1000.0, 1.0, 1.0);
        let b = write_replica(&dir, "b", 1000.0, 2.0, 2.0);
        let mut rng = SplitMix64::new(4);
        let accepted = attempt_file_exchange(&a, &b, 1.0, 2.0, &mut rng).unwrap();
        assert!(!accepted);
        assert_eq!(read_vectors(&a.coor).unwrap()[0], 1.0);
        assert_eq!(read_xsc(&b.xsc).unwrap().potential, 1000.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_prefix_builds_the_triple() {
        let f = ReplicaFiles::from_prefix("/tmp/r3_s7");
        assert_eq!(f.coor, PathBuf::from("/tmp/r3_s7.coor"));
        assert_eq!(f.vel, PathBuf::from("/tmp/r3_s7.vel"));
        assert_eq!(f.xsc, PathBuf::from("/tmp/r3_s7.xsc"));
    }
}
