//! The two things every JETS crate needs beyond `std`, kept in the
//! workspace's dependency-free leaf: locks whose `lock()`/`read()`/
//! `write()` ignore poisoning, and the seeded generator.
//!
//! Poisoning is ignored because every structure behind these locks is
//! updated in steps that each leave it valid; a holder that panicked
//! must not take the dispatcher's other threads down with it.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// `std::sync::Mutex` whose `lock` never reports poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `std::sync::RwLock` whose `read`/`write` never report poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `Condvar::wait_timeout` on a [`Mutex`] guard, poisoning ignored:
/// returns the reacquired guard and whether the wait timed out.
pub fn wait_for<'a, T>(
    cv: &sync::Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    let (guard, res) = cv
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner);
    (guard, res.timed_out())
}

/// The splitmix64 output function: a bijective 64-bit mix.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's only pseudo-random generator (Steele et al.'s
/// splitmix64): seeded, deterministic across platforms, not for secrets.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `range` up to a modulo bias below `len / 2^64`.
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on an empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }
}

/// Generate-and-check: runs `property` on `cases` generators derived
/// from `seed`. No shrinking; a failure panics with the seed and case
/// index in front of the property's own message, and
/// `SplitMix64::new(seed + case)` replays that one case.
pub fn check(seed: u64, cases: u64, mut property: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(seed.wrapping_add(case));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            match msg {
                Some(msg) => panic!("property failed (seed {seed:#x}, case {case}): {msg}"),
                None => resume_unwind(payload),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn splitmix64_known_answers_from_state_zero() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_fills_every_bucket_evenly() {
        let mut rng = SplitMix64::new(42);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(5..15);
            assert!((5..15).contains(&v));
            buckets[(v - 5) as usize] += 1;
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
        // Expected 1000 per bucket, sigma = 30: +-150 is five sigma.
        assert!(
            buckets.iter().all(|&n| (850..1150).contains(&n)),
            "{buckets:?}"
        );
    }

    #[test]
    fn locks_survive_a_holder_that_panicked() {
        let m = Arc::new(Mutex::new(1));
        let rw = Arc::new(RwLock::new(2));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let holder = std::thread::spawn(move || {
            let _a = m2.lock();
            let _b = rw2.write();
            panic!("poison both");
        });
        assert!(holder.join().is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 3));
    }

    #[test]
    fn wait_for_reports_a_timeout_and_returns_the_guard() {
        let (m, cv) = (Mutex::new(7), sync::Condvar::new());
        let (guard, timed_out) = wait_for(&cv, m.lock(), Duration::from_millis(5));
        assert!(timed_out);
        assert_eq!(*guard, 7);
    }

    #[test]
    fn check_names_seed_and_case_of_the_first_failure() {
        let failure = catch_unwind(|| check(0x10, 8, |rng| assert!(rng.0 < 0x13, "too big")));
        let msg = failure.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.starts_with("property failed (seed 0x10, case 3): too big"),
            "{msg}"
        );
    }
}
