//! Workload generators for the paper's benchmarks.
//!
//! All generators speak *virtual seconds* — the durations the paper
//! quotes — and scale them to real milliseconds through a [`TimeScale`],
//! so a 10-second BG/P task becomes (say) a 200 ms simulated task while
//! every control-plane cost stays real.

use jets_core::spec::{CommandSpec, JobSpec};
use jets_ring::stdx::SplitMix64;

/// Conversion between virtual workload time and real benchmark time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale {
    /// Real seconds per virtual second (e.g. 0.02 = 50× speed-up).
    pub factor: f64,
}

impl TimeScale {
    /// `1/n` scale: n virtual seconds run in one real second.
    pub fn speedup(n: f64) -> Self {
        assert!(n > 0.0, "speed-up must be positive");
        TimeScale { factor: 1.0 / n }
    }

    /// Real milliseconds for `virtual_secs` of virtual time.
    pub fn real_ms(&self, virtual_secs: f64) -> u64 {
        (virtual_secs * self.factor * 1000.0).round().max(0.0) as u64
    }

    /// Real duration for `virtual_secs` of virtual time.
    pub fn real_duration(&self, virtual_secs: f64) -> std::time::Duration {
        std::time::Duration::from_millis(self.real_ms(virtual_secs))
    }

    /// Convert a real measurement back to virtual seconds.
    pub fn to_virtual_secs(&self, real: std::time::Duration) -> f64 {
        real.as_secs_f64() / self.factor
    }
}

/// `count` sequential sleep jobs of `virtual_secs` each.
pub fn sleep_batch(count: usize, virtual_secs: f64, scale: TimeScale) -> Vec<JobSpec> {
    let ms = scale.real_ms(virtual_secs);
    (0..count)
        .map(|_| JobSpec::sequential(CommandSpec::builtin("sleep", vec![ms.to_string()])))
        .collect()
}

/// `count` barrier–sleep–barrier MPI jobs of `nodes × ppn` ranks sleeping
/// `virtual_secs` (the synthetic benchmark of Sections 6.1.2 and 6.1.4).
pub fn mpi_sleep_batch(
    count: usize,
    nodes: u32,
    ppn: u32,
    virtual_secs: f64,
    scale: TimeScale,
) -> Vec<JobSpec> {
    let ms = scale.real_ms(virtual_secs);
    (0..count)
        .map(|_| {
            JobSpec::mpi_ppn(
                nodes,
                ppn,
                CommandSpec::builtin("mpi-sleep", vec![ms.to_string()]),
            )
        })
        .collect()
}

/// The NAMD run-time distribution of Fig. 11: a 4-processor NMA segment
/// nominally runs ~100 s, "while the majority of the tasks fall between
/// 100 and 120 s, many tasks exceed this, running up to 160 s."
///
/// Modelled as `base + Erlang(2, mean/2)`: a hard floor at the nominal
/// compute time plus a right-skewed tail from system interference.
#[derive(Debug, Clone, Copy)]
pub struct NamdDurationModel {
    /// Minimum (nominal) run time in virtual seconds.
    pub base_secs: f64,
    /// Mean of the additive tail in virtual seconds.
    pub tail_mean_secs: f64,
    /// Hard cap in virtual seconds (the paper observes none past ~160 s).
    pub cap_secs: f64,
}

impl Default for NamdDurationModel {
    fn default() -> Self {
        NamdDurationModel {
            base_secs: 100.0,
            tail_mean_secs: 12.0,
            cap_secs: 160.0,
        }
    }
}

impl NamdDurationModel {
    /// Draw one task duration in virtual seconds.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        // Erlang(2, θ): sum of two exponentials with mean θ each.
        let theta = self.tail_mean_secs / 2.0;
        let e1: f64 = -theta * (1.0 - rng.gen_f64()).ln();
        let e2: f64 = -theta * (1.0 - rng.gen_f64()).ln();
        (self.base_secs + e1 + e2).min(self.cap_secs)
    }
}

/// A NAMD-like batch: `count` MPI jobs of `nodes × ppn` ranks whose
/// durations follow `model` (Sections 6.1.6's bag-of-NAMD-tasks, with
/// cases "duplicated and ordered round-robin").
pub fn namd_batch(
    count: usize,
    nodes: u32,
    ppn: u32,
    model: NamdDurationModel,
    scale: TimeScale,
    rng: &mut SplitMix64,
) -> Vec<JobSpec> {
    // The paper duplicates 32 base cases round-robin; we sample 32 base
    // durations and cycle them, preserving that structure.
    let base_cases: Vec<f64> = (0..32).map(|_| model.sample(rng)).collect();
    (0..count)
        .map(|i| {
            let secs = base_cases[i % base_cases.len()];
            let ms = scale.real_ms(secs);
            JobSpec::mpi_ppn(
                nodes,
                ppn,
                CommandSpec::builtin("mpi-sleep", vec![ms.to_string()]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timescale_conversions_round_trip() {
        let s = TimeScale::speedup(50.0);
        assert_eq!(s.real_ms(10.0), 200);
        let back = s.to_virtual_secs(std::time::Duration::from_millis(200));
        assert!((back - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sleep_batch_scales_durations() {
        let jobs = sleep_batch(2, 1.0, TimeScale::speedup(100.0));
        assert_eq!(jobs[0].cmd.args(), &["10".to_string()]); // 1 s → 10 ms
    }

    #[test]
    fn mpi_batch_has_right_shape() {
        let jobs = mpi_sleep_batch(3, 4, 2, 10.0, TimeScale::speedup(50.0));
        assert_eq!(jobs.len(), 3);
        for j in &jobs {
            assert_eq!(j.nodes, 4);
            assert_eq!(j.ppn, 2);
            assert_eq!(j.size(), 8);
            assert_eq!(j.cmd.args(), &["200".to_string()]);
        }
    }

    #[test]
    fn namd_model_matches_fig11_shape() {
        let model = NamdDurationModel::default();
        let mut rng = SplitMix64::new(1);
        let samples: Vec<f64> = (0..10_000).map(|_| model.sample(&mut rng)).collect();
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(min >= 100.0, "no task under the nominal time");
        assert!(max <= 160.0, "cap respected");
        // "The majority of the tasks fall between 100 and 120 s."
        let majority = samples.iter().filter(|&&s| s < 120.0).count();
        assert!(majority as f64 > 0.6 * samples.len() as f64);
        // "Many tasks exceed this."
        let tail = samples.iter().filter(|&&s| s >= 120.0).count();
        assert!(tail as f64 > 0.02 * samples.len() as f64);
    }

    #[test]
    fn namd_batch_cycles_32_base_cases() {
        let mut rng = SplitMix64::new(2);
        let jobs = namd_batch(
            64,
            4,
            1,
            NamdDurationModel::default(),
            TimeScale::speedup(100.0),
            &mut rng,
        );
        assert_eq!(jobs.len(), 64);
        // Round-robin duplication: job i and job i+32 share a duration.
        for i in 0..32 {
            assert_eq!(jobs[i].cmd.args(), jobs[i + 32].cmd.args());
        }
    }
}
