//! Network performance models for the in-process transport.
//!
//! Figure 8 of the JETS paper compares MPI ping-pong performance in two
//! modes on the Blue Gene/P: *native* (IBM's DCMF messaging over the torus,
//! default CNK kernel) and *MPICH/sockets* (MPICH2 over the ZeptoOS
//! IP-over-torus device). Sockets mode pays a large latency penalty on
//! small messages and a modest bandwidth penalty on large ones. We cannot
//! run on a Blue Gene/P, so the in-process fabric charges each message a
//! modelled transfer time: `latency + bytes / bandwidth`. The two stock
//! models below are parameterized to the BG/P's published characteristics;
//! the *shape* of the native-vs-sockets comparison is what matters.

use std::time::{Duration, Instant};

/// Latency/bandwidth cost model for one network hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Per-message latency.
    pub latency: Duration,
    /// Sustained bandwidth in bytes per second. `f64::INFINITY` disables
    /// the size-dependent term.
    pub bandwidth: f64,
}

impl NetModel {
    /// No injected delay: messages cost only what the fabric itself costs.
    pub fn ideal() -> Self {
        NetModel {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
        }
    }

    /// Native BG/P messaging (DCMF over the torus): a few microseconds of
    /// latency, ~375 MB/s per link.
    pub fn native_bgp() -> Self {
        NetModel {
            latency: Duration::from_micros(4),
            bandwidth: 375.0e6,
        }
    }

    /// MPICH2 over the ZeptoOS TCP/IP-over-torus device: TCP stack
    /// traversal dominates small messages (~100 µs), and large-message
    /// bandwidth drops to ~250 MB/s.
    pub fn zepto_tcp() -> Self {
        NetModel {
            latency: Duration::from_micros(95),
            bandwidth: 250.0e6,
        }
    }

    /// The modelled transfer time of a message of `bytes` bytes.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bandwidth.is_infinite() {
            return self.latency;
        }
        let serialization = Duration::from_secs_f64(bytes as f64 / self.bandwidth);
        self.latency + serialization
    }

    /// True when the model injects no delay at all.
    pub fn is_ideal(&self) -> bool {
        self.latency.is_zero() && self.bandwidth.is_infinite()
    }
}

/// Wait for `d` with sub-millisecond fidelity.
///
/// `thread::sleep` on Linux typically overshoots by ~50 µs, which would
/// swamp a 4 µs native-model latency, so short waits spin (yielding each
/// iteration so sibling rank threads progress on few-core hosts) and long
/// waits sleep for most of the interval, then spin out the remainder.
pub fn precise_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let deadline = Instant::now() + d;
    const SPIN_THRESHOLD: Duration = Duration::from_micros(300);
    if d > SPIN_THRESHOLD {
        std::thread::sleep(d - SPIN_THRESHOLD);
    }
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_costs_nothing() {
        let m = NetModel::ideal();
        assert!(m.is_ideal());
        assert_eq!(m.transfer_time(1 << 20), Duration::ZERO);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let m = NetModel {
            latency: Duration::from_micros(10),
            bandwidth: 1.0e6, // 1 MB/s
        };
        assert_eq!(m.transfer_time(0), Duration::from_micros(10));
        // 1 MB at 1 MB/s = 1 s (+ latency).
        let t = m.transfer_time(1_000_000);
        assert!(t >= Duration::from_secs(1));
        assert!(t < Duration::from_millis(1011));
    }

    #[test]
    fn sockets_model_has_higher_latency_and_lower_bandwidth_than_native() {
        let native = NetModel::native_bgp();
        let sockets = NetModel::zepto_tcp();
        assert!(sockets.latency > 10 * native.latency);
        assert!(sockets.bandwidth < native.bandwidth);
        // Small messages: sockets much slower. Large: modestly slower.
        let small = 8;
        let large = 4 << 20;
        let small_ratio =
            sockets.transfer_time(small).as_secs_f64() / native.transfer_time(small).as_secs_f64();
        let large_ratio =
            sockets.transfer_time(large).as_secs_f64() / native.transfer_time(large).as_secs_f64();
        assert!(small_ratio > 10.0, "small ratio {small_ratio}");
        assert!(large_ratio < 2.0, "large ratio {large_ratio}");
    }

    #[test]
    fn precise_wait_reaches_its_deadline() {
        for d in [Duration::from_micros(50), Duration::from_millis(2)] {
            let start = Instant::now();
            precise_wait(d);
            assert!(Instant::now() - start >= d);
        }
    }
}
