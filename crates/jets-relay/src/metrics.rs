//! The relay daemon's live metric surface.
//!
//! Scrapeable `jets-obs` handles, plus the upstream-connected gauge an
//! operator actually pages on. The counters move on the facts
//! [`crate::core::RelayCore`] emits and [`crate::RelayStats`] — the
//! snapshot struct tests read — is read off these same handles, so the
//! two surfaces cannot drift.

jets_obs::metric_set! {
    /// Static metric handles for one relay daemon.
    pub struct RelayMetrics {
        /// Currently connected members.
        members: gauge("jets_relay_members"),
        /// 1 while an upstream dispatcher session is established.
        upstream_connected: gauge("jets_relay_upstream_connected"),
        /// Upstream dispatcher sessions established.
        ///
        /// Above 1 means the relay survived a dispatcher reconnect.
        upstream_sessions_total: counter("jets_relay_upstream_sessions_total"),
        /// Cancels fanned out locally without an upstream round-trip.
        local_cancels_total: counter("jets_relay_local_cancels_total"),
        /// Batched liveness frames sent upstream.
        batched_heartbeats_total: counter("jets_relay_batched_heartbeats_total"),
        /// Results waiting in the bounded outage buffer.
        upqueue_depth: gauge("jets_relay_upqueue_depth"),
        /// Results evicted by the outage buffer's drop-oldest policy.
        upqueue_dropped_total: counter("jets_relay_upqueue_dropped_total"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metric_names_render() {
        let text = RelayMetrics::new().render();
        for name in RelayMetrics::NAMES {
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
        }
    }

    #[test]
    fn every_metric_is_documented() {
        let doc = include_str!("../../../docs/observability.md");
        for name in RelayMetrics::NAMES {
            assert!(doc.contains(name), "{name} is not in docs/observability.md");
        }
    }
}
