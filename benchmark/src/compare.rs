//! `compare A.json B.json`: one row per (metric, workload) with both
//! medians and quartiles, the change, the bound and a verdict.
//!
//! A gated metric whose own run-to-run spread (the wider of the two
//! files' interquartile ranges, as a share of the median) exceeds its
//! bound is `unresolved`, not `ok`: the benchmark cannot tell. The
//! exit code is non-zero when any gated metric regressed.

use crate::metrics::{lookup, Better, Bound, ResultFile, Row};
use std::path::Path;

fn load(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How much worse `b` is than `a`, and how wide the noisier side's
/// interquartile range is — both in the bound's own terms (a share of
/// the median for `Rel`, the metric's unit for `Abs`).
fn worsening_and_spread(a: &Row, b: &Row, better: Better, bound: Bound) -> (f64, f64) {
    let worse = match better {
        Better::Higher => a.median - b.median,
        Better::Lower => b.median - a.median,
    };
    let iqr = |r: &Row| r.q3 - r.q1;
    match bound {
        Bound::Abs(_) => (worse, iqr(a).max(iqr(b))),
        _ => (
            worse / a.median.abs(),
            (iqr(a) / a.median.abs()).max(iqr(b) / b.median.abs()),
        ),
    }
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "A: {} seed {} commit {}\nB: {} seed {} commit {}",
        a_path.display(),
        a.seed,
        a.host.commit,
        b_path.display(),
        b.seed,
        b.host.commit
    );
    println!(
        "{:<14} {:<34} {:>12} {:>25} {:>12} {:>25} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "worse", "bound"
    );
    let mut regressions = 0;
    for ra in &a.rows {
        let Some(rb) = b
            .rows
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric)
        else {
            continue;
        };
        let (better, bound) = lookup(&ra.metric);
        let (worse, spread) = worsening_and_spread(ra, rb, better, bound);
        let (limit, verdict) = match bound {
            Bound::None => (String::from("-"), "info"),
            // Nothing to compare (a replay time off the journal
            // workload, say): both sides zero or absent.
            _ if ra.n == 0 && rb.n == 0 => (String::from("-"), "n/a"),
            Bound::Rel(l) | Bound::Abs(l) => {
                let verdict = if worse.is_nan() {
                    "REGRESSION" // a side lost the metric: hang or crash
                } else if spread > l {
                    "unresolved"
                } else if worse > l {
                    "REGRESSION"
                } else {
                    "ok"
                };
                let limit = match bound {
                    Bound::Rel(_) => format!("{:.0}%", l * 100.0),
                    _ => format!("{l}"),
                };
                (limit, verdict)
            }
        };
        regressions += usize::from(verdict == "REGRESSION");
        let change = match bound {
            _ if worse.is_nan() => String::from("-"),
            Bound::Abs(_) => format!("{worse:+.4}"),
            _ => format!("{:+.1}%", worse * 100.0),
        };
        println!(
            "{:<14} {:<34} {:>12.4} {:>25} {:>12.4} {:>25} {:>9} {:>7}  {}",
            ra.workload,
            ra.metric,
            ra.median,
            format!("{:.4}..{:.4}", ra.q1, ra.q3),
            rb.median,
            format!("{:.4}..{:.4}", rb.q1, rb.q3),
            change,
            limit,
            verdict
        );
    }
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}
