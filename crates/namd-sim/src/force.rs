//! Lennard-Jones forces under the minimum-image convention.
//!
//! Truncated-and-shifted 12-6 potential:
//! `u(r) = 4(r⁻¹² − r⁻⁶) − u_c` for `r < r_cut`, zero beyond. The shift
//! keeps the potential continuous at the cutoff, which keeps NVE energy
//! drift small enough to test conservation.
//!
//! [`compute_block`] evaluates forces for a contiguous block of *owned*
//! atoms against all atoms — the atom-decomposition kernel each MPI rank
//! runs after an allgather of positions.

/// Result of a force evaluation over a block of owned atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockForces {
    /// Flattened forces for the owned block, length `3 × block_len`.
    pub forces: Vec<f64>,
    /// This block's share of the potential energy (half of each pair
    /// involving an owned atom, so summing over blocks counts each pair
    /// exactly once).
    pub potential: f64,
}

/// Compute forces on atoms `[block_start, block_start + block_len)` from
/// all `positions` (flattened 3N) in a periodic box of edge `box_len`,
/// with cutoff `r_cut`.
pub fn compute_block(
    positions: &[f64],
    block_start: usize,
    block_len: usize,
    box_len: f64,
    r_cut: f64,
) -> BlockForces {
    let n = positions.len() / 3;
    assert!(block_start + block_len <= n, "block out of range");
    assert!(r_cut > 0.0, "cutoff must be positive");
    let r_cut2 = r_cut * r_cut;
    // Shift so u(r_cut) = 0.
    let inv6 = 1.0 / (r_cut2 * r_cut2 * r_cut2);
    let u_shift = 4.0 * (inv6 * inv6 - inv6);

    let mut forces = vec![0.0f64; 3 * block_len];
    let mut potential = 0.0f64;
    for bi in 0..block_len {
        let i = block_start + bi;
        let (xi, yi, zi) = (positions[3 * i], positions[3 * i + 1], positions[3 * i + 2]);
        let mut fx = 0.0;
        let mut fy = 0.0;
        let mut fz = 0.0;
        for j in 0..n {
            if j == i {
                continue;
            }
            let mut dx = xi - positions[3 * j];
            let mut dy = yi - positions[3 * j + 1];
            let mut dz = zi - positions[3 * j + 2];
            // Minimum image.
            dx -= box_len * (dx / box_len).round();
            dy -= box_len * (dy / box_len).round();
            dz -= box_len * (dz / box_len).round();
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 >= r_cut2 || r2 == 0.0 {
                continue;
            }
            let inv_r2 = 1.0 / r2;
            let inv_r6 = inv_r2 * inv_r2 * inv_r2;
            let inv_r12 = inv_r6 * inv_r6;
            // f(r)/r = 24 (2 r⁻¹² − r⁻⁶) / r².
            let f_over_r = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
            fx += f_over_r * dx;
            fy += f_over_r * dy;
            fz += f_over_r * dz;
            // Half the pair energy; the other half is charged to atom j's
            // owner.
            potential += 0.5 * (4.0 * (inv_r12 - inv_r6) - u_shift);
        }
        forces[3 * bi] = fx;
        forces[3 * bi + 1] = fy;
        forces[3 * bi + 2] = fz;
    }
    BlockForces { forces, potential }
}

/// Convenience: forces on *all* atoms plus total potential energy.
pub fn compute_all(positions: &[f64], box_len: f64, r_cut: f64) -> BlockForces {
    compute_block(positions, 0, positions.len() / 3, box_len, r_cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two atoms at the LJ minimum distance 2^(1/6) feel zero force.
    #[test]
    fn force_vanishes_at_minimum() {
        let r_min = 2.0f64.powf(1.0 / 6.0);
        let positions = vec![0.0, 0.0, 0.0, r_min, 0.0, 0.0];
        let out = compute_all(&positions, 100.0, 10.0);
        for f in &out.forces {
            assert!(f.abs() < 1e-10, "force {f}");
        }
    }

    #[test]
    fn close_pair_repels_along_axis() {
        let positions = vec![0.0, 0.0, 0.0, 0.9, 0.0, 0.0];
        let out = compute_all(&positions, 100.0, 10.0);
        assert!(out.forces[0] < 0.0, "atom 0 pushed in −x");
        assert!(out.forces[3] > 0.0, "atom 1 pushed in +x");
        assert_eq!(out.forces[1], 0.0);
        assert_eq!(out.forces[2], 0.0);
    }

    #[test]
    fn newtons_third_law() {
        let positions = vec![0.1, 0.2, 0.3, 1.0, 1.4, 0.9];
        let out = compute_all(&positions, 50.0, 10.0);
        for d in 0..3 {
            assert!((out.forces[d] + out.forces[3 + d]).abs() < 1e-10);
        }
    }

    #[test]
    fn beyond_cutoff_is_exactly_zero() {
        let positions = vec![0.0, 0.0, 0.0, 3.0, 0.0, 0.0];
        let out = compute_all(&positions, 100.0, 2.5);
        assert!(out.forces.iter().all(|&f| f == 0.0));
        assert_eq!(out.potential, 0.0);
    }

    #[test]
    fn minimum_image_wraps_across_boundary() {
        // Atoms at x = 0.2 and x = L − 0.2 are 0.4 apart through the
        // boundary, not L − 0.4.
        let box_len = 10.0;
        let positions = vec![0.2, 0.0, 0.0, box_len - 0.2, 0.0, 0.0];
        let out = compute_all(&positions, box_len, 2.5);
        // Separation 0.4 ≪ r_min: strongly repulsive, pushing atom 0 in
        // +x (away through the boundary).
        assert!(out.forces[0] > 0.0, "got {}", out.forces[0]);
        assert!(out.potential > 0.0);
    }

    #[test]
    fn block_decomposition_matches_full_computation() {
        // 12 atoms, blocks of unequal sizes: concatenated block forces and
        // summed potentials must equal the all-atom result.
        let mut positions = Vec::new();
        let mut v = 0.37f64;
        for _ in 0..36 {
            v = (v * 7.13 + 0.517).fract();
            positions.push(v * 6.0);
        }
        let box_len = 6.0;
        let full = compute_all(&positions, box_len, 2.5);
        let mut forces = Vec::new();
        let mut potential = 0.0;
        for (start, len) in [(0usize, 5usize), (5, 4), (9, 3)] {
            let b = compute_block(&positions, start, len, box_len, 2.5);
            forces.extend(b.forces);
            potential += b.potential;
        }
        assert_eq!(forces.len(), full.forces.len());
        for (a, b) in forces.iter().zip(full.forces.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!((potential - full.potential).abs() < 1e-9);
    }

    #[test]
    fn potential_shift_makes_cutoff_continuous() {
        // Just inside the cutoff, energy must be near zero.
        let positions = vec![0.0, 0.0, 0.0, 2.4999, 0.0, 0.0];
        let out = compute_all(&positions, 100.0, 2.5);
        assert!(out.potential.abs() < 1e-3, "u = {}", out.potential);
    }
}
