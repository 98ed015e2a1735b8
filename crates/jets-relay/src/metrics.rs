//! The relay daemon's live metric surface.
//!
//! Scrapeable `jets-obs` handles, plus the upstream-connected gauge an
//! operator actually pages on. The counters move on the facts
//! [`crate::core::RelayCore`] emits and [`crate::RelayStats`] — the
//! snapshot struct tests read — is read off these same handles, so the
//! two surfaces cannot drift.

use jets_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Static metric handles for one relay daemon.
pub struct RelayMetrics {
    registry: Arc<Registry>,
    /// Currently connected members.
    pub members: Arc<Gauge>,
    /// 1 while an upstream dispatcher session is established, else 0.
    pub upstream_connected: Arc<Gauge>,
    /// Upstream sessions established (above 1 means the relay survived a
    /// dispatcher reconnect).
    pub upstream_sessions_total: Arc<Counter>,
    /// `Cancel`s fanned out locally, without an upstream round-trip.
    pub local_cancels_total: Arc<Counter>,
    /// Batched liveness frames sent upstream.
    pub batched_heartbeats_total: Arc<Counter>,
    /// Results waiting in the bounded outage buffer.
    pub upqueue_depth: Arc<Gauge>,
    /// Results evicted by the outage buffer's drop-oldest overflow policy.
    pub upqueue_dropped_total: Arc<Counter>,
}

impl RelayMetrics {
    /// Register the relay metric set on a fresh registry.
    pub fn new() -> RelayMetrics {
        let r = Arc::new(Registry::new());
        jets_obs::register_build_info(
            &r,
            env!("CARGO_PKG_VERSION"),
            option_env!("JETS_GIT_HASH").unwrap_or("unknown"),
        );
        RelayMetrics {
            members: r.gauge("jets_relay_members", "Currently connected members"),
            upstream_connected: r.gauge(
                "jets_relay_upstream_connected",
                "1 while an upstream dispatcher session is established",
            ),
            upstream_sessions_total: r.counter(
                "jets_relay_upstream_sessions_total",
                "Upstream dispatcher sessions established",
            ),
            local_cancels_total: r.counter(
                "jets_relay_local_cancels_total",
                "Cancels fanned out locally without an upstream round-trip",
            ),
            batched_heartbeats_total: r.counter(
                "jets_relay_batched_heartbeats_total",
                "Batched liveness frames sent upstream",
            ),
            upqueue_depth: r.gauge(
                "jets_relay_upqueue_depth",
                "Frames waiting in the bounded upstream replay queue",
            ),
            upqueue_dropped_total: r.counter(
                "jets_relay_upqueue_dropped_total",
                "Frames evicted by the replay queue's drop-oldest policy",
            ),
            registry: r,
        }
    }

    /// The registry backing these handles (what `/metrics` renders).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Render the current values as Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for RelayMetrics {
    fn default() -> Self {
        RelayMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metric_names_render() {
        let m = RelayMetrics::new();
        m.members.set(3);
        m.upstream_sessions_total.inc();
        let text = m.render();
        for name in [
            "jets_relay_members",
            "jets_relay_upstream_connected",
            "jets_relay_upstream_sessions_total",
            "jets_relay_local_cancels_total",
            "jets_relay_batched_heartbeats_total",
            "jets_relay_upqueue_depth",
            "jets_relay_upqueue_dropped_total",
            "jets_build_info",
        ] {
            assert!(text.contains(name), "missing {name} in render");
        }
    }
}
