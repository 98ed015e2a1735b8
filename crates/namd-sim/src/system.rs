//! Particle state: positions, velocities, and initialization.
//!
//! Reduced Lennard-Jones units throughout: σ = ε = m = k_B = 1.

use jets_ring::stdx::SplitMix64;

/// State of an N-particle system in a cubic periodic box.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleSystem {
    /// Flattened positions, length 3N.
    pub positions: Vec<f64>,
    /// Flattened velocities, length 3N.
    pub velocities: Vec<f64>,
    /// Periodic box edge length.
    pub box_len: f64,
    /// Completed timestep counter (carried across restarts).
    pub step: u64,
}

impl ParticleSystem {
    /// Number of particles.
    pub fn len(&self) -> usize {
        self.positions.len() / 3
    }

    /// True for an empty system.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Initialize `n` particles on a cubic lattice at number density
    /// `density`, with Maxwell–Boltzmann velocities at `temperature`
    /// (deterministic given `seed`).
    pub fn lattice(n: usize, density: f64, temperature: f64, seed: u64) -> ParticleSystem {
        assert!(n > 0, "need at least one particle");
        assert!(density > 0.0, "density must be positive");
        let box_len = (n as f64 / density).cbrt();
        let per_side = (n as f64).cbrt().ceil() as usize;
        let spacing = box_len / per_side as f64;
        let mut positions = Vec::with_capacity(3 * n);
        'fill: for ix in 0..per_side {
            for iy in 0..per_side {
                for iz in 0..per_side {
                    if positions.len() == 3 * n {
                        break 'fill;
                    }
                    positions.push((ix as f64 + 0.5) * spacing);
                    positions.push((iy as f64 + 0.5) * spacing);
                    positions.push((iz as f64 + 0.5) * spacing);
                }
            }
        }
        let mut system = ParticleSystem {
            positions,
            velocities: vec![0.0; 3 * n],
            box_len,
            step: 0,
        };
        system.thermalize(temperature, seed);
        system
    }

    /// Draw fresh Maxwell–Boltzmann velocities at `temperature`, remove
    /// net momentum, and rescale to the exact target temperature.
    pub fn thermalize(&mut self, temperature: f64, seed: u64) {
        assert!(temperature >= 0.0, "temperature must be non-negative");
        let mut rng = SplitMix64::new(seed);
        let sigma = temperature.sqrt();
        for v in self.velocities.iter_mut() {
            *v = sigma * gaussian(&mut rng);
        }
        self.remove_net_momentum();
        if temperature > 0.0 {
            let current = self.temperature();
            if current > 0.0 {
                self.rescale_velocities((temperature / current).sqrt());
            }
        }
    }

    /// Subtract the center-of-mass velocity.
    pub fn remove_net_momentum(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let mut mean = [0.0f64; 3];
        for i in 0..n {
            for (d, m) in mean.iter_mut().enumerate() {
                *m += self.velocities[3 * i + d];
            }
        }
        for m in mean.iter_mut() {
            *m /= n as f64;
        }
        for i in 0..n {
            for (d, m) in mean.iter().enumerate() {
                self.velocities[3 * i + d] -= m;
            }
        }
    }

    /// Instantaneous kinetic temperature: `2 KE / (3N)` (k_B = 1, m = 1).
    pub fn temperature(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * n as f64)
    }

    /// Total kinetic energy `½ Σ v²`.
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self.velocities.iter().map(|v| v * v).sum::<f64>()
    }

    /// Multiply every velocity by `factor` (REM exchange rescaling).
    pub fn rescale_velocities(&mut self, factor: f64) {
        for v in self.velocities.iter_mut() {
            *v *= factor;
        }
    }

    /// Wrap all positions back into the primary box.
    pub fn wrap_positions(&mut self) {
        let l = self.box_len;
        for x in self.positions.iter_mut() {
            *x -= l * (*x / l).floor();
        }
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1 = 1.0 - rng.gen_f64(); // (0, 1]
    let u2 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_requested_count_and_box() {
        let s = ParticleSystem::lattice(100, 0.8, 1.0, 1);
        assert_eq!(s.len(), 100);
        let expect_box = (100.0f64 / 0.8).cbrt();
        assert!((s.box_len - expect_box).abs() < 1e-12);
        // All positions inside the box.
        assert!(s.positions.iter().all(|&x| x >= 0.0 && x <= s.box_len));
    }

    #[test]
    fn thermalize_hits_target_temperature_exactly() {
        let s = ParticleSystem::lattice(64, 0.5, 1.5, 7);
        assert!((s.temperature() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn net_momentum_is_zero_after_thermalize() {
        let s = ParticleSystem::lattice(50, 0.5, 2.0, 3);
        for d in 0..3 {
            let p: f64 = (0..s.len()).map(|i| s.velocities[3 * i + d]).sum();
            assert!(p.abs() < 1e-9, "net momentum component {d} = {p}");
        }
    }

    #[test]
    fn thermalize_is_deterministic_in_seed() {
        let a = ParticleSystem::lattice(30, 0.6, 1.0, 42);
        let b = ParticleSystem::lattice(30, 0.6, 1.0, 42);
        let c = ParticleSystem::lattice(30, 0.6, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a.velocities, c.velocities);
    }

    #[test]
    fn rescale_changes_temperature_quadratically() {
        let mut s = ParticleSystem::lattice(64, 0.5, 1.0, 9);
        s.rescale_velocities(2.0);
        assert!((s.temperature() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn wrap_positions_brings_everything_into_box() {
        let mut s = ParticleSystem::lattice(8, 0.5, 1.0, 1);
        s.positions[0] = -0.3;
        s.positions[1] = s.box_len + 0.7;
        s.wrap_positions();
        assert!(s.positions.iter().all(|&x| (0.0..s.box_len).contains(&x)));
        assert!((s.positions[0] - (s.box_len - 0.3)).abs() < 1e-9);
    }

    #[test]
    fn zero_temperature_gives_zero_velocities() {
        let s = ParticleSystem::lattice(10, 0.5, 0.0, 5);
        assert!(s.velocities.iter().all(|&v| v == 0.0));
        assert_eq!(s.temperature(), 0.0);
    }
}
