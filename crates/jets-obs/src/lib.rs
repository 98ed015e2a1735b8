//! # jets-obs — observability primitives for the JETS stack
//!
//! The paper's evaluation (utilization per Eq. 1, task-rate curves,
//! run-time distributions) is computed from dispatcher timing records;
//! this crate makes the same signals available *live*, while a run is in
//! flight, instead of only after an `EventLog` dump.
//!
//! Three layers, all `std`-only with zero external dependencies:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free recording
//!   primitives. A handle is an `Arc` to a fixed set of `AtomicU64`s, so
//!   hot-path recording is a single `fetch_add` (three for histograms)
//!   and can sit on the dispatcher's scheduling path without regressing
//!   the benchmark's `seq_noop` launch rate.
//! * [`Registry`] — names, help text, and labels; renders Prometheus
//!   text exposition format. Only locked on registration and render.
//! * [`serve_metrics`] — a one-thread HTTP responder for
//!   `GET /metrics` / `GET /healthz`, plus [`scrape`], the matching
//!   client used by `jets top` and the integration tests.
//!
//! The dispatcher, relay daemon, and worker agent each own a `Registry`
//! and expose it behind an optional `--metrics-addr` flag; the metric
//! name reference lives in `docs/observability.md`.

mod http;
mod metrics;

pub use http::{scrape, serve_metrics, MetricsServer};
pub use metrics::{
    register_build_info, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Unit,
};
