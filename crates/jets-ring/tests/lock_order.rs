//! A violation of the lock order reaches the threads that did not commit it. One
//! test, alone in its process: the violation it provokes is process-wide.
#![cfg(debug_assertions)]

use jets_ring::stdx::{wait_for, Mutex, Rank};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Condvar;
use std::thread;
use std::time::{Duration, Instant};

fn panic_of(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("no panic");
    *payload.downcast::<String>().expect("a formatted panic")
}

#[test]
fn a_violation_on_one_thread_fails_every_later_lock_and_wait_on_any_other() {
    let (book, pilot) = (
        Mutex::ranked(Rank::Book, ()),
        Mutex::ranked(Rank::Pilot, ()),
    );
    let (bystander, never) = (Mutex::new(0), Condvar::new());
    let (began, minute) = (Instant::now(), Duration::from_secs(60));
    let (event_loop, parked) = thread::scope(|s| {
        // A test's own thread, in `wait_idle` since before anything went wrong.
        let parked = s.spawn(|| panic_of(|| drop(wait_for(&never, bystander.lock(), minute))));
        let inverted = || {
            let _pilot = pilot.lock();
            let _book = book.lock();
        };
        let event_loop = s.spawn(move || panic_of(inverted));
        (event_loop.join().unwrap(), parked.join().unwrap())
    });
    assert!(event_loop.ends_with("`Book` taken while `Pilot` is held; see `stdx::Rank`"));
    let elsewhere = format!("{event_loop} (first seen on another thread)");
    assert_eq!(parked, elsewhere);
    assert!(began.elapsed() < minute / 2, "the wait was not cut short");
    // And what any thread sees the next time it polls anything.
    assert_eq!(panic_of(|| *bystander.lock() += 1), elsewhere);
    // A thread that is already unwinding still gets its locks, for its
    // `Drop`s: a second panic there would abort the process.
    struct TakesItOnDrop<'a>(&'a Mutex<i32>);
    impl Drop for TakesItOnDrop<'_> {
        fn drop(&mut self) {
            *self.0.lock() += 1;
        }
    }
    let failing_test = panic_of(|| {
        let _dispatcher = TakesItOnDrop(&bystander);
        panic!("{}", "any assertion");
    });
    assert_eq!(failing_test, "any assertion");
}
