//! # jets-obs — observability primitives for the JETS stack
//!
//! The paper's evaluation (utilization per Eq. 1, task-rate curves,
//! run-time distributions) is computed from dispatcher timing records;
//! this crate makes the same signals available *live*, while a run is in
//! flight, instead of only after an `EventLog` dump.
//!
//! Four pieces, all `std`-only with zero external dependencies:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free recording
//!   primitives. A handle is an `Arc` to a fixed set of `AtomicU64`s, so
//!   hot-path recording is a single `fetch_add` (three for histograms)
//!   and can sit on the dispatcher's scheduling path without regressing
//!   the benchmark's `seq_noop` launch rate.
//! * [`Registry`] — names, help text, and labels; renders Prometheus
//!   text exposition format. Only locked on registration and render.
//! * [`metric_set!`] — the table a daemon declares its metrics in: each
//!   metric once, with its kind, name and doc comment, which is also its
//!   `# HELP` text.
//! * [`serve_metrics`] — `GET /metrics` / `GET /healthz` as connections
//!   on an event loop the caller already runs, plus [`scrape`], the
//!   matching client used by `jets top` and the integration tests.
//!
//! The dispatcher, relay daemon, and worker agent each declare a metric
//! set and expose it behind an optional `--metrics-addr` flag; the metric
//! name reference lives in `docs/observability.md`.

mod http;
mod metrics;

pub use http::{scrape, serve_metrics};
pub use metrics::{help_text, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
