//! Lock-free metric primitives, the registry that renders them, and the
//! [`metric_set!`](crate::metric_set) table each daemon declares its
//! metrics in.
//!
//! Everything on the recording side is a single atomic RMW: counters and
//! gauges are one `fetch_add`/`fetch_sub`, histograms are three (bucket,
//! count, sum). No allocation, no locking, no branching beyond the bucket
//! index computation — a metric handle can sit on the dispatcher's
//! scheduling hot path without showing up in the benchmark's `seq_noop`.
//!
//! The registry itself is only touched on the *cold* paths: metric
//! registration at startup and text rendering when `/metrics` is scraped.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depth, ready workers, …). Signed so a
/// dec-past-zero bug shows up as `-1` in a scrape instead of 2^64-1.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Overwrite with an absolute level (monitor-tick sampling).
    pub fn set(&self, n: i64) {
        // jets-lint: allow(relaxed) sampled snapshot value: scrapes tolerate a stale level; nothing is published through this store
        self.v.store(n, Ordering::Relaxed);
    }

    /// Increment the level.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement the level.
    pub fn dec(&self) {
        self.v.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Values below this record into exact unit-wide buckets.
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per octave above [`LINEAR_MAX`] (4 bits of mantissa —
/// bucket bounds are within 1/16 ≈ 6% of the recorded value).
const SUB: usize = 16;
/// Octaves 4..=63 each contribute [`SUB`] buckets after the linear range.
const NUM_BUCKETS: usize = LINEAR_MAX as usize + 60 * SUB;

/// Log-linear bucketed histogram over `u64` samples (by convention:
/// microseconds; the registry renders them as seconds).
///
/// Layout is the classic HDR shape: exact buckets below 16, then 16
/// linear sub-buckets per power-of-two octave, giving ≤ 6%
/// relative error on quantiles across the full `u64` range for a fixed
/// 7.6 KiB of `AtomicU64`s. Recording is wait-free; snapshots read the
/// buckets racily, which can momentarily undercount the tail but never
/// invents samples: `record` bumps `count` *before* the bucket and
/// publishes the bucket increment with `Release`, so a snapshot that
/// sums an increment is guaranteed a subsequent `count()` covers it
/// (`tests/hammer.rs` races this).
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Point-in-time quantile view of a [`Histogram`], in the histogram's
/// recorded unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median (upper bound of the bucket holding the 50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}, p99={})",
            s.count, s.p50, s.p99
        )
    }
}

/// Bucket index for a sample.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (msb - 4)) & 0xF) as usize;
        LINEAR_MAX as usize + (msb - 4) * SUB + sub
    }
}

/// Inclusive upper bound of a bucket, used as the quantile estimate.
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_MAX as usize;
        let octave = 4 + rel / SUB;
        let sub = (rel % SUB) as u64;
        let width = 1u64 << (octave - 4);
        // lower + (width - 1); for the top bucket this is exactly
        // `u64::MAX`, so the additions below cannot overflow.
        (1u64 << octave) + sub * width + (width - 1)
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample. Three `fetch_add`s, nothing else. `count`
    /// and `sum` land first; the bucket increment's `Release` orders
    /// them before it, so a reader that observes the bucket (snapshot
    /// sums are `Acquire`) also observes the totals that cover it.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Release);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples recorded so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Quantile estimates from the current bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; NUM_BUCKETS];
        let mut total = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            // Acquire pairs with `record`'s Release: every sample this
            // sum sees is already covered by `count`/`sum`.
            let c = b.load(Ordering::Acquire);
            counts[i] = c;
            total += c;
        }
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper(i);
                }
            }
            bucket_upper(NUM_BUCKETS - 1)
        };
        HistogramSnapshot {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

enum Kind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    /// Microsecond samples, rendered as a summary in seconds.
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: &'static str,
    help: String,
    labels: Vec<(&'static str, String)>,
    kind: Kind,
}

/// Named collection of metrics, rendered in Prometheus text exposition
/// format. Registration and rendering lock a `Mutex`; the returned
/// handles never do. Series sharing a name are registered one after
/// another and rendered under one `# HELP`/`# TYPE` header, the first's.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn add<T: Default>(
        &self,
        name: &'static str,
        help: &str,
        labels: &[(&'static str, &str)],
        kind: fn(Arc<T>) -> Kind,
    ) -> Arc<T> {
        let handle = Arc::new(T::default());
        let entry = Entry {
            name,
            help: help.to_string(),
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            kind: kind(Arc::clone(&handle)),
        };
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.push(entry);
        handle
    }

    /// Register a counter and return its recording handle. `labels` are
    /// rendered on every sample of the series (`phase="queue"`).
    pub fn counter(
        &self,
        name: &'static str,
        help: &str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        self.add(name, help, labels, Kind::Counter)
    }

    /// Register a gauge and return its recording handle.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        self.add(name, help, labels, Kind::Gauge)
    }

    /// Register a histogram of microsecond samples, exposed as a
    /// Prometheus summary in seconds with p50/p95/p99 quantiles.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        self.add(name, help, labels, Kind::Histogram)
    }

    /// Render every registered metric as Prometheus text exposition
    /// format (version 0.0.4).
    pub fn render(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(entries.len() * 96);
        let mut last_name = "";
        for e in entries.iter() {
            let name = e.name;
            if name != last_name {
                let ty = match e.kind {
                    Kind::Counter(_) => "counter",
                    Kind::Gauge(_) => "gauge",
                    Kind::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# HELP {name} {}", e.help);
                let _ = writeln!(out, "# TYPE {name} {ty}");
                last_name = name;
            }
            let labels = label_str(&e.labels, None);
            let _ = match &e.kind {
                Kind::Counter(c) => writeln!(out, "{name}{labels} {}", c.get()),
                Kind::Gauge(g) => writeln!(out, "{name}{labels} {}", g.get()),
                Kind::Histogram(h) => {
                    let s = h.snapshot();
                    let seconds = |us: u64| us as f64 / 1_000_000.0;
                    for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                        let quantile = label_str(&e.labels, Some(q));
                        let _ = writeln!(out, "{name}{quantile} {:.6}", seconds(v));
                    }
                    let _ = writeln!(out, "{name}_sum{labels} {:.6}", seconds(s.sum));
                    writeln!(out, "{name}_count{labels} {}", s.count)
                }
            };
        }
        out
    }
}

fn label_str(labels: &[(&'static str, String)], quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// A metric's `# HELP` text: the summary paragraph of its doc comment
/// (the lines before the first blank one) on one line, without the
/// closing period. [`metric_set!`](crate::metric_set) passes each
/// field's doc lines here.
pub fn help_text(doc: &[&str]) -> String {
    let summary: Vec<&str> = doc
        .iter()
        .map(|line| line.trim())
        .take_while(|line| !line.is_empty())
        .collect();
    let text = summary.join(" ");
    text.strip_suffix('.').unwrap_or(&text).to_string()
}

/// Declare a daemon's metric set: each metric once, as a documented
/// field with its kind and metric name.
///
/// ```
/// jets_obs::metric_set! {
///     /// Handles for one example daemon.
///     pub struct ExampleMetrics {
///         /// Frames read off the wire.
///         frames_total: counter("jets_example_frames_total"),
///         /// Connected peers.
///         peers: gauge("jets_example_peers"),
///         /// Per-phase latency.
///         ///
///         /// This series: time spent queued.
///         phase_queue: histogram("jets_example_phase_seconds", phase = "queue"),
///     }
/// }
/// let m = ExampleMetrics::new();
/// m.frames_total.inc();
/// assert!(m.render().contains("# HELP jets_example_frames_total Frames read off the wire\n"));
/// assert_eq!(ExampleMetrics::NAMES[0], "jets_build_info");
/// ```
///
/// Each field becomes a `pub Arc<Counter | Gauge | Histogram>`; a
/// histogram takes microseconds and renders them as seconds. The
/// summary paragraph of the field's doc comment is its `# HELP` text
/// ([`help_text`]), so series that share a name share their summary and
/// say what sets each apart in a later paragraph. The struct gets
/// `new()`, which also registers `jets_build_info` with the calling
/// crate's version, plus `registry()`, `render()`, `Default`, `Debug` and
/// `NAMES`: `jets_build_info`, then each field's metric name in order.
#[macro_export]
macro_rules! metric_set {
    (@type counter) => { $crate::Counter };
    (@type gauge) => { $crate::Gauge };
    (@type histogram) => { $crate::Histogram };
    (
        $(#[$attr:meta])*
        pub struct $set:ident {
            $(
                $(#[doc = $doc:expr])+
                $field:ident: $kind:ident($name:expr $(, $label:ident = $value:expr)*),
            )*
        }
    ) => {
        $(#[$attr])*
        pub struct $set {
            registry: ::std::sync::Arc<$crate::Registry>,
            $(
                $(#[doc = $doc])+
                pub $field: ::std::sync::Arc<$crate::metric_set!(@type $kind)>,
            )*
        }

        impl $set {
            /// `jets_build_info`, then every field's metric name in order.
            pub const NAMES: &'static [&'static str] = &["jets_build_info", $($name),*];

            /// Register the whole set on a fresh registry, after the
            /// constant-1 build identity gauge.
            pub fn new() -> $set {
                let r = ::std::sync::Arc::new($crate::Registry::new());
                let build = [
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("git_hash", option_env!("JETS_GIT_HASH").unwrap_or("unknown")),
                ];
                let help = "Build identity (constant 1; version and git hash in labels)";
                r.gauge("jets_build_info", help, &build).set(1);
                $set {
                    $(
                        $field: r.$kind(
                            $name,
                            &$crate::help_text(&[$($doc),+]),
                            &[$((stringify!($label), $value)),*],
                        ),
                    )*
                    registry: r,
                }
            }

            /// The registry backing these handles (what `/metrics` renders).
            pub fn registry(&self) -> ::std::sync::Arc<$crate::Registry> {
                ::std::sync::Arc::clone(&self.registry)
            }

            /// Render the current values as Prometheus text exposition format.
            pub fn render(&self) -> String {
                self.registry.render()
            }
        }

        impl Default for $set {
            fn default() -> Self {
                Self::new()
            }
        }

        // The values are live atomics: a point-in-time dump would mislead.
        impl ::std::fmt::Debug for $set {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.debug_struct(stringify!($set)).finish_non_exhaustive()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::default();
        g.set(7);
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 6);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            100,
            1_000,
            1_000_000,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < NUM_BUCKETS);
            assert!(bucket_upper(idx) >= v, "upper bound below sample at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_upper_error_is_bounded() {
        // Above the linear range the relative error of the bucket upper
        // bound is at most one sub-bucket width: 1/16.
        for v in [20u64, 100, 999, 12_345, 1 << 20, (1 << 40) + 12345] {
            let up = bucket_upper(bucket_index(v));
            assert!(up >= v);
            assert!(
                (up - v) as f64 <= v as f64 / 16.0 + 1.0,
                "error too large at {v}: {up}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{s:?}");
        // p50 of uniform 1..=1000 lands near 500 (within bucket error).
        assert!((450..=560).contains(&s.p50), "p50 = {}", s.p50);
        assert!((900..=1024).contains(&s.p95), "p95 = {}", s.p95);
        assert!((950..=1024).contains(&s.p99), "p99 = {}", s.p99);
        assert!(s.p95 < s.p99, "p95 {} !< p99 {}", s.p95, s.p99);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn render_groups_labelled_series() {
        let r = Registry::new();
        let c = r.counter("jets_jobs_completed_total", "Jobs finished", &[]);
        let g = r.gauge("jets_workers_ready", "Idle registered workers", &[]);
        let h1 = r.histogram(
            "jets_job_phase_seconds",
            "Phase latency",
            &[("phase", "queue")],
        );
        let h2 = r.histogram(
            "jets_job_phase_seconds",
            "Phase latency",
            &[("phase", "run")],
        );
        c.add(3);
        g.set(16);
        h1.record(1_000);
        h2.record(2_000_000);
        let text = r.render();
        assert!(text.contains("# TYPE jets_jobs_completed_total counter"));
        assert!(text.contains("jets_jobs_completed_total 3"));
        assert!(text.contains("# TYPE jets_workers_ready gauge"));
        assert!(text.contains("jets_workers_ready 16"));
        // One TYPE header for the grouped histogram despite two series.
        assert_eq!(
            text.matches("# TYPE jets_job_phase_seconds summary")
                .count(),
            1
        );
        assert!(text.contains("jets_job_phase_seconds{phase=\"queue\",quantile=\"0.5\"}"));
        assert!(text.contains("jets_job_phase_seconds_count{phase=\"run\"} 1"));
        // Microsecond samples render as seconds.
        assert!(text.contains("jets_job_phase_seconds_sum{phase=\"queue\"} 0.001000"));
    }

    #[test]
    fn help_is_the_doc_summary_on_one_line() {
        let doc = [" Jobs that reached", " a terminal state.", "", " Details."];
        assert_eq!(help_text(&doc), "Jobs that reached a terminal state");
        assert_eq!(
            help_text(&[" 1 while connected, else 0"]),
            "1 while connected, else 0"
        );
    }
}
