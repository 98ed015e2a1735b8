//! Property tests of the molecular-dynamics substrate: seeded
//! generate-and-check (`jets_ring::stdx::check`), no shrinking; a failure
//! names its seed and case, and editing `SEED` reruns others.

use jets_ring::stdx::{check, SplitMix64};
use namd_sim::force::compute_all;
use namd_sim::io::{read_vectors, read_xsc, write_vectors, write_xsc, XscData};
use namd_sim::system::ParticleSystem;
use std::path::PathBuf;

const SEED: u64 = 0x5EED_0003;
const CASES: u64 = 32;

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

/// Coordinates of between `min_atoms` and `max_atoms - 1` atoms in a box.
fn coords(rng: &mut SplitMix64, min_atoms: u64, max_atoms: u64, box_len: f64) -> Vec<f64> {
    (0..3 * rng.gen_range(min_atoms..max_atoms))
        .map(|_| uniform(rng, 0.0, box_len))
        .collect()
}

/// Any finite `f64`, by bit pattern: subnormals, both zeros, extremes.
fn finite_f64(rng: &mut SplitMix64) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

fn scratch_file(name: String) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("md-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Momentum conservation: total force over all atoms is ~zero for
/// arbitrary configurations (Newton's third law summed).
#[test]
fn total_force_vanishes() {
    check(SEED, CASES, |rng| {
        let out = compute_all(&coords(rng, 3, 12, 8.0), 8.0, 2.5);
        for d in 0..3 {
            let total: f64 = out.forces.iter().skip(d).step_by(3).sum();
            // Scale tolerance with force magnitude (close random pairs
            // produce huge repulsions).
            let magnitude: f64 = out
                .forces
                .iter()
                .skip(d)
                .step_by(3)
                .map(|f| f.abs())
                .sum::<f64>()
                .max(1.0);
            assert!(
                (total / magnitude).abs() < 1e-9,
                "net force {total} vs magnitude {magnitude}"
            );
        }
    });
}

/// The block decomposition equals the monolithic computation for any
/// split point — the invariant that makes parallel MD correct.
#[test]
fn any_block_split_matches_full() {
    check(SEED, CASES, |rng| {
        let coords = coords(rng, 4, 10, 6.0);
        let n = coords.len() / 3;
        let split = rng.gen_range(0..n as u64 + 1) as usize;
        let full = compute_all(&coords, 6.0, 2.0);
        let a = namd_sim::force::compute_block(&coords, 0, split, 6.0, 2.0);
        let b = namd_sim::force::compute_block(&coords, split, n - split, 6.0, 2.0);
        let mut combined = a.forces;
        combined.extend(b.forces);
        // Relative tolerances: a close random pair puts 1e8 and more into
        // both sums, where an absolute 1e-9 is below one ulp.
        for (x, y) in combined.iter().zip(full.forces.iter()) {
            assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "force {x} vs {y}");
        }
        let split_potential = a.potential + b.potential;
        assert!(
            (split_potential - full.potential).abs() <= 1e-9 * (1.0 + full.potential.abs()),
            "potential {split_potential} vs {}",
            full.potential
        );
    });
}

/// Thermalize hits any requested temperature exactly and removes net
/// momentum, for arbitrary system shapes and seeds.
#[test]
fn thermalize_contract() {
    check(SEED, CASES, |rng| {
        let n = rng.gen_range(4..60) as usize;
        let density = uniform(rng, 0.05, 0.5);
        let temperature = uniform(rng, 0.05, 4.0);
        let s = ParticleSystem::lattice(n, density, temperature, rng.gen_range(0..10_000));
        assert_eq!(s.len(), n);
        assert!((s.temperature() - temperature).abs() < 1e-9);
        for d in 0..3 {
            let p: f64 = (0..n).map(|i| s.velocities[3 * i + d]).sum();
            assert!(p.abs() < 1e-9);
        }
    });
}

/// Restart files are bit-exact for arbitrary finite vectors.
#[test]
fn vector_files_bit_exact() {
    check(SEED, CASES, |rng| {
        let data: Vec<f64> = (0..3 * rng.gen_range(0..10))
            .map(|_| finite_f64(rng))
            .collect();
        let path = scratch_file(format!("v{}.coor", rng.next_u64()));
        write_vectors(&path, &data).unwrap();
        let back = read_vectors(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, data);
    });
}

/// XSC files round-trip arbitrary finite values.
#[test]
fn xsc_files_bit_exact() {
    check(SEED, CASES, |rng| {
        let xsc = XscData {
            step: rng.gen_range(0..1_000_000),
            potential: uniform(rng, -1e12, 1e12),
            temperature: uniform(rng, 0.0, 1e6),
            box_length: uniform(rng, 0.1, 1e6),
        };
        let path = scratch_file(format!("x{}.xsc", rng.next_u64()));
        write_xsc(&path, &xsc).unwrap();
        let back = read_xsc(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, xsc);
    });
}

/// The exchange delta is symmetric under relabelling the replicas —
/// both factors negate, so the product is invariant, and the accept
/// decision cannot depend on which replica is called "a".
#[test]
fn exchange_delta_symmetric() {
    check(SEED, CASES, |rng| {
        let (t_a, t_b) = (uniform(rng, 0.1, 5.0), uniform(rng, 0.1, 5.0));
        let (e_a, e_b) = (uniform(rng, -500.0, 500.0), uniform(rng, -500.0, 500.0));
        let ab = namd_sim::exchange_delta(t_a, e_a, t_b, e_b);
        let ba = namd_sim::exchange_delta(t_b, e_b, t_a, e_a);
        assert!((ab - ba).abs() < 1e-9 * (1.0 + ab.abs()));
    });
}
