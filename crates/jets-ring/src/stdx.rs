//! The things every JETS crate needs beyond `std`, kept in the
//! workspace's dependency-free leaf: locks whose `lock()`/`read()`/
//! `write()` ignore poisoning and whose order is checked where they are
//! taken, the seeded generator, and the purity check of the pure cores.
//!
//! Poisoning is ignored because every structure behind these locks is
//! updated in steps that each leave it valid; a holder that panicked
//! must not take the dispatcher's other threads down with it.

use std::ops::{Deref, DerefMut, Range};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// The lock order of the whole workspace, stated once: a thread may take
/// a [`Mutex`] only if its rank comes strictly later in this table than
/// the rank of every `Mutex` it already holds. Debug builds check that at
/// every `lock()`, through closures, trait objects and crate boundaries;
/// so reverse order, re-entry and two locks of one rank all panic where
/// the second lock is taken, before anything can deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Rank {
    /// cluster-sim's `Allocation::workers`: a kill or a partition reaches
    /// into a pilot (its `sock`) with the table of nodes held.
    Allocation,
    /// The dispatcher's `book`: job records and the outstanding count,
    /// updated by its event loop in `Sink::book`, polled alone by clients.
    Book,
    /// A pilot's `state`: its core and the session's write half.
    Pilot,
    /// A swiftlite array's `elems`: an element is vivified — its future
    /// made, mapped and, for an input file, fulfilled — with the table held.
    Elements,
    /// Nothing is acquired while a leaf is held. What [`Mutex::new`] makes.
    #[default]
    Leaf,
}

#[cfg(debug_assertions)]
thread_local! {
    /// The ranks this thread holds, ascending (each was checked against
    /// the last when it was pushed).
    static HELD: std::cell::RefCell<Vec<Rank>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The first violation any thread found. From then on every `lock()`, on
/// any thread, panics with it too, and so does every [`wait_for`] within
/// a second: the thread that took its locks in the wrong order is usually
/// an event loop, and what a test waits on is some other thread, which
/// would otherwise sit out its time-out for a reply that cannot come.
#[cfg(debug_assertions)]
static VIOLATION: sync::OnceLock<String> = sync::OnceLock::new();

/// (A thread already unwinding takes its locks in `Drop`s: let it.)
#[cfg(debug_assertions)]
fn repeat_violation() {
    if let Some(earlier) = VIOLATION.get().filter(|_| !std::thread::panicking()) {
        panic!("{earlier}");
    }
}

#[cfg(debug_assertions)]
fn violation(msg: String) -> ! {
    // This crate's own unit tests violate the order on purpose, by the dozen.
    #[cfg(not(test))]
    let _ = VIOLATION.set(format!("{msg} (first seen on another thread)"));
    panic!("{msg}");
}

/// One entry of this thread's held list, removed when it drops.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct Held(Rank);

#[cfg(debug_assertions)]
impl Held {
    fn acquire(rank: Rank) -> Held {
        repeat_violation();
        let top = HELD.with_borrow(|held| held.last().copied());
        if let Some(top) = top.filter(|&top| top >= rank) {
            violation(format!(
                "lock order: `{rank:?}` taken while `{top:?}` is held; see `stdx::Rank`"
            ));
        }
        HELD.with_borrow_mut(|held| held.push(rank));
        Held(rank)
    }

    /// A condvar wait releases only the lock it is given.
    fn assert_alone(&self) {
        let other = HELD.with_borrow(|held| held.iter().copied().find(|&rank| rank != self.0));
        if let Some(other) = other {
            let waited = self.0;
            violation(format!(
                "lock order: waiting on `{waited:?}`'s condvar while `{other:?}` is held"
            ));
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a guard may drop while the thread's locals are torn down.
        let _ = HELD.try_with(|held| held.borrow_mut().retain(|&rank| rank != self.0));
    }
}

/// `std::sync::Mutex` whose `lock` never reports poisoning and, in debug
/// builds, checks its [`Rank`] against the locks the thread holds.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A [`Rank::Leaf`] lock.
    pub const fn new(value: T) -> Self {
        Mutex::ranked(Rank::Leaf, value)
    }

    pub const fn ranked(rank: Rank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> Guard<'_, T> {
        Guard {
            // Checked before blocking: a wrong order panics, never hangs.
            #[cfg(debug_assertions)]
            held: Held::acquire(self.rank),
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A locked [`Mutex`]: `MutexGuard` and nothing else in release builds,
/// plus the thread's held-list entry in debug builds.
#[derive(Debug)]
pub struct Guard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: Held,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
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
/// returns the reacquired guard and whether the whole `timeout` passed.
/// Like any condvar wait it may return early unnotified — a debug build
/// does after a second, to look for a violation on another thread — so
/// callers loop on their predicate and their deadline. The waited lock
/// must be the only one the thread holds: any other would stay locked for
/// the whole wait.
pub fn wait_for<'a, T>(
    cv: &sync::Condvar,
    mut guard: Guard<'a, T>,
    timeout: Duration,
) -> (Guard<'a, T>, bool) {
    #[cfg(debug_assertions)]
    guard.held.assert_alone();
    let slice = match cfg!(debug_assertions) {
        true => timeout.min(Duration::from_secs(1)),
        false => timeout,
    };
    let (inner, res) = cv
        .wait_timeout(guard.inner, slice)
        .unwrap_or_else(PoisonError::into_inner);
    guard.inner = inner;
    #[cfg(debug_assertions)]
    repeat_violation();
    (guard, res.timed_out() && slice == timeout)
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
        let m = Arc::new(Mutex::ranked(Rank::Book, 1));
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

    /// The message of the order panic `f` must end in.
    #[cfg(debug_assertions)]
    fn order_panic(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("no order panic");
        *payload.downcast::<String>().expect("a formatted panic")
    }

    #[cfg(debug_assertions)]
    #[test]
    fn taking_an_earlier_rank_panics_naming_both_locks() {
        let (book, pilot) = (
            Mutex::ranked(Rank::Book, ()),
            Mutex::ranked(Rank::Pilot, ()),
        );
        drop((book.lock(), pilot.lock())); // the table's order is fine
        let msg = order_panic(|| {
            let _pilot = pilot.lock();
            let _book = book.lock();
        });
        assert!(msg.contains("`Book` taken while `Pilot` is held"), "{msg}");
        // The unwinding dropped `_pilot`: this thread holds nothing again.
        drop((book.lock(), pilot.lock()));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn re_entry_panics_instead_of_deadlocking() {
        let pilot = Mutex::ranked(Rank::Pilot, ());
        let msg = order_panic(|| {
            let _outer = pilot.lock();
            let _inner = pilot.lock();
        });
        assert!(msg.contains("`Pilot` taken while `Pilot` is held"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nothing_is_taken_under_a_leaf_not_even_a_leaf() {
        let (a, b) = (Mutex::new(()), Mutex::<()>::default());
        let msg = order_panic(|| {
            let _a = a.lock();
            let _b = b.lock();
        });
        assert!(msg.contains("`Leaf` taken while `Leaf` is held"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guards_dropped_out_of_order_leave_the_held_list_right() {
        let locks = [Rank::Allocation, Rank::Book, Rank::Pilot].map(|rank| Mutex::ranked(rank, ()));
        let [alloc, book, pilot] = &locks;
        let (a, b, p) = (alloc.lock(), book.lock(), pilot.lock());
        drop(b);
        HELD.with_borrow(|held| assert_eq!(*held, [Rank::Allocation, Rank::Pilot]));
        // `Book` is free but `Pilot`, later in the table, is still held.
        let msg = order_panic(|| drop(book.lock()));
        assert!(msg.contains("`Book` taken while `Pilot` is held"), "{msg}");
        drop(a);
        drop(p);
        HELD.with_borrow(|held| assert!(held.is_empty()));
        drop((alloc.lock(), book.lock(), pilot.lock()));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn wait_for_keeps_its_lock_s_entry_and_refuses_a_second_lock() {
        let (book, pilot) = (Mutex::ranked(Rank::Book, ()), Mutex::ranked(Rank::Pilot, 7));
        let cv = sync::Condvar::new();
        let (guard, _) = wait_for(&cv, pilot.lock(), Duration::from_millis(1));
        HELD.with_borrow(|held| assert_eq!(*held, [Rank::Pilot]));
        drop(guard);
        HELD.with_borrow(|held| assert!(held.is_empty()));
        let msg = order_panic(|| {
            let _book = book.lock();
            wait_for(&cv, pilot.lock(), Duration::from_millis(1));
        });
        let want = "waiting on `Pilot`'s condvar while `Book` is held";
        assert!(msg.contains(want), "{msg}");
    }

    /// Release builds pay nothing: the guard is the `MutexGuard`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_release_guard_is_a_mutex_guard_and_nothing_is_checked() {
        use std::mem::size_of;
        assert_eq!(size_of::<Guard<u8>>(), size_of::<MutexGuard<u8>>());
        assert_eq!(size_of::<Mutex<u8>>(), size_of::<sync::Mutex<u8>>());
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        drop((a.lock(), b.lock()));
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
