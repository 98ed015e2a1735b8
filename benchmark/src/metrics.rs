//! The metric catalogue and the row every result file is made of.
//!
//! `BENCHMARK.json` lists the same names; a unit test below keeps the
//! two in step.

use crate::util::Summary;
use jets_core::SpanKind;
use serde::{Deserialize, Serialize};

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bound {
    /// Share of the baseline median.
    Rel(f64),
    /// Absolute difference in the metric's unit.
    Abs(f64),
    /// Per-layer metric: reported, never gated.
    None,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, rel: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Bound::Rel(rel),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Bound::None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics defined — and never zero — on every workload:
/// what `--trace 0` prints and `BENCHMARK.json` gates.
pub const END_TO_END: &[MetricDef] = &[
    e2e("launch_rate", "jobs/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// End-to-end quantities that are zero or undefined on some workloads,
/// or too noisy on a shared host for the driver's acceptance test: the
/// one-command report and `compare` gate them (with its `unresolved`
/// verdict as the guard), the per-run contract carries them among the
/// per-layer metrics.
pub const END_TO_END_EXTRA: &[MetricDef] = &[
    MetricDef {
        name: "run.idle_gap_p50_us",
        unit: "us",
        better: Lower,
        bound: Bound::Rel(0.10),
    },
    MetricDef {
        name: "run.cpu_us_per_job",
        unit: "us",
        better: Lower,
        bound: Bound::Rel(0.10),
    },
    MetricDef {
        name: "run.utilization",
        unit: "ratio",
        better: Higher,
        bound: Bound::Abs(0.02),
    },
    MetricDef {
        name: "journal.recover_replay_s",
        unit: "s",
        better: Lower,
        bound: Bound::Rel(0.10),
    },
    MetricDef {
        name: "run.failed_share",
        unit: "ratio",
        better: Lower,
        bound: Bound::Abs(0.0),
    },
];

/// The span kinds of the traced pass under their `<module>.<phase>`
/// metric prefixes; each yields a `_p50_us` and a `_hi_us` metric.
pub const SPANS: &[(&str, SpanKind)] = &[
    ("dispatcher.submit", SpanKind::Submit),
    ("dispatcher.queue", SpanKind::Queue),
    ("dispatcher.sched", SpanKind::Sched),
    ("dispatcher.ship", SpanKind::Ship),
    ("dispatcher.run", SpanKind::Run),
    ("dispatcher.report", SpanKind::Report),
    ("relay.forward", SpanKind::RelayForward),
    ("worker.exec", SpanKind::Exec),
    ("pmi.barrier", SpanKind::PmiBarrier),
];

/// Per-layer metrics other than [`END_TO_END_EXTRA`] and the span
/// percentiles: floors (a), bench-side spans (b) and counts (c).
pub const PER_LAYER: &[MetricDef] = &[
    // (a) floors: single-threaded loops over public functions.
    layer("protocol.encode_assign_ns", "ns", Lower),
    layer("protocol.decode_assign_ns", "ns", Lower),
    layer("protocol.encode_done_ns", "ns", Lower),
    layer("protocol.decode_done_ns", "ns", Lower),
    layer("protocol.assign_frame_bytes", "bytes", Lower),
    layer("reactor.echo_rtt_p50_us", "us", Lower),
    layer("reactor.echo_frames_per_s", "1/s", Higher),
    layer("queue.push_pick_ns", "ns", Lower),
    layer("ready.park_take_ns", "ns", Lower),
    layer("group.select4of8_ns", "ns", Lower),
    layer("group.select64of1024_ns", "ns", Lower),
    layer("journal.append_ns", "ns", Lower),
    layer("journal.append_fsync_us", "us", Lower),
    layer("journal.scan_ns_per_record", "ns", Lower),
    layer("journal.recover_ns_per_record", "ns", Lower),
    layer("events.record_ns", "ns", Lower),
    layer("events.span_pair_ns", "ns", Lower),
    layer("ring.push_ns", "ns", Lower),
    layer("ring.push_with_reader_ns", "ns", Lower),
    layer("obs.histogram_record_ns", "ns", Lower),
    layer("obs.render_us", "us", Lower),
    layer("pmi.fence4_p50_us", "us", Lower),
    layer("mpi.wireup4_p50_us", "us", Lower),
    layer("mpi.barrier4_p50_us", "us", Lower),
    layer("worker.execute_noop_ns", "ns", Lower),
    layer("trace.build_us_per_kspan", "us", Lower),
    layer("swiftlite.parse_us_per_kstmt", "us", Lower),
    // (b) bench-side spans and the traced-pass totals.
    layer("dispatcher.submit_all_ns_per_job", "ns", Lower),
    layer("worker.exec_overhead_p50_us", "us", Lower),
    layer("worker.idle_gap_hi_us", "us", Lower),
    layer("mpi.gang_start_skew_p50_us", "us", Lower),
    layer("trace.spans_per_job", "count", Lower),
    layer("trace.open_spans", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // (c) counts read from public handles after the untraced pass.
    layer("reactor.wakeups_per_job", "count", Lower),
    layer("reactor.frames_in_per_job", "count", Lower),
    layer("reactor.bytes_in_per_job", "bytes", Lower),
    layer("reactor.bytes_out_per_job", "bytes", Lower),
    layer("reactor.outbox_high_water_bytes", "bytes", Lower),
    layer("reactor.slow_consumer_disconnects", "count", Lower),
    layer("events.recorded_per_job", "count", Lower),
    layer("journal.records_per_job", "count", Lower),
    layer("journal.bytes_per_job", "bytes", Lower),
    layer("dispatcher.jobs_requeued", "count", Lower),
    layer("relay.upqueue_dropped", "count", Lower),
    layer("relay.batched_heartbeats", "count", Lower),
    layer("worker.tasks_failed", "count", Lower),
];

/// Every per-layer metric name with its unit, in the order `--trace 1`
/// prints them.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = END_TO_END_EXTRA
        .iter()
        .chain(PER_LAYER)
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    for (prefix, _) in SPANS {
        names.push((format!("{prefix}_p50_us"), "us"));
        names.push((format!("{prefix}_hi_us"), "us"));
    }
    names
}

/// Direction and bound of a metric by name (span percentiles and
/// unknown names: lower is better, not gated).
pub fn lookup(name: &str) -> (Better, Bound) {
    END_TO_END
        .iter()
        .chain(END_TO_END_EXTRA)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or((Lower, Bound::None), |m| (m.better, m.bound))
}

/// One measured metric of one workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// The reported value: a median over repetitions or batches, a
    /// percentile over spans, or a count.
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind the value (repetitions, batches, spans or jobs).
    pub n: u64,
    /// For `_hi_us` metrics, which percentile `median` is.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pct: Option<f64>,
}

impl Row {
    pub fn new(workload: &str, metric: &str, unit: &str, s: Summary) -> Row {
        Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            median: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
            pct: None,
        }
    }

    /// A single observation (a count, or a value with no spread).
    pub fn single(workload: &str, metric: &str, unit: &str, value: f64, n: u64) -> Row {
        Row::new(
            workload,
            metric,
            unit,
            Summary {
                median: value,
                q1: value,
                q3: value,
                n,
            },
        )
    }
}

/// Host and run facts written into every result file.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Host {
    pub nproc: u64,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

/// What `all --out FILE` writes and `compare` reads.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ResultFile {
    pub host: Host,
    pub seed: u64,
    pub seconds: u64,
    pub rows: Vec<Row>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        #[serde(default)]
        why: String,
        #[serde(default)]
        unit: String,
        #[serde(default)]
        better: String,
        bound: Option<f64>,
    }

    #[derive(Deserialize)]
    struct Contract {
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
        per_layer: Vec<Named>,
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `BENCHMARK.json` and the tables here name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let c: Contract = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(c.paths, ["benchmark"]);
        assert!((1..=60).contains(&c.run_seconds));

        let listed: Vec<(&str, &str)> = c
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);

        assert_eq!(c.end_to_end.len(), END_TO_END.len());
        for (listed, ours) in c.end_to_end.iter().zip(END_TO_END) {
            assert_eq!(listed.name, ours.name);
            assert_eq!(listed.unit, ours.unit);
            assert_eq!(listed.better, direction(ours.better));
            assert_eq!(ours.bound, Bound::Rel(listed.bound.expect("bound")));
        }
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));

        let names = per_layer_names();
        assert_eq!(c.per_layer.len(), names.len());
        for (listed, (name, unit)) in c.per_layer.iter().zip(&names) {
            assert_eq!(&listed.name, name);
            assert_eq!(&listed.unit, unit);
            assert_eq!(listed.better, direction(lookup(name).0));
            assert!(listed.bound.is_none(), "per-layer metrics carry no bound");
        }
    }
}
