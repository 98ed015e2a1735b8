//! Benchmark stand-in for the `crossbeam` subset JETS uses:
//! `channel::{unbounded, bounded, Sender, Receiver, RecvTimeoutError,
//! SendError}` and `queue::SegQueue`.

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Unified sender over std's split unbounded/bounded sender types.
    pub enum Sender<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            match self {
                Sender::Unbounded(tx) => Sender::Unbounded(tx.clone()),
                Sender::Bounded(tx) => Sender::Bounded(tx.clone()),
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self {
                Sender::Unbounded(tx) => tx.send(value),
                Sender::Bounded(tx) => tx.send(value),
            }
        }
    }

    /// Receiver half; thin wrapper over `mpsc::Receiver`.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender::Unbounded(tx), Receiver(rx))
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender::Bounded(tx), Receiver(rx))
    }
}

pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// Unbounded MPMC queue; stubbed as a mutex-protected deque.
    pub struct SegQueue<T>(Mutex<VecDeque<T>>);

    impl<T> SegQueue<T> {
        pub const fn new() -> Self {
            SegQueue(Mutex::new(VecDeque::new()))
        }

        pub fn push(&self, value: T) {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(value);
        }

        pub fn pop(&self) -> Option<T> {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_front()
        }

        pub fn len(&self) -> usize {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            SegQueue::new()
        }
    }
}
