//! What a poller costs in file descriptors: its epoll instance and its
//! eventfd, and nothing left once it drops. One test in its own binary,
//! so no other test opens or closes a descriptor during the count.

use jets_reactor::Poller;

/// Entries of `/proc/self/fd` (the listing's own descriptor included,
/// the same in every count).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn a_poller_holds_two_descriptors_and_returns_them() {
    let baseline = open_fds();
    let poller = Poller::new().unwrap();
    assert_eq!(open_fds(), baseline + 2, "a queue and a waker");
    drop(poller);
    assert_eq!(open_fds(), baseline);
    for _ in 0..50 {
        let poller = Poller::new().unwrap();
        poller.wake();
        let mut events = Vec::new();
        poller.wait(&mut events, 5_000).unwrap();
        assert!(events.is_empty(), "a wake was reported as an event");
    }
    assert_eq!(open_fds(), baseline, "a create/wake/wait/drop cycle leaked");
}
