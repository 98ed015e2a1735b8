//! Seeded input generation, order statistics, `/proc` readings and the
//! scratch directory — everything the measuring code shares.

use std::path::PathBuf;

/// splitmix64: the only source of workload randomness. The program
/// under test never sees the seed, only the `JobSpec`s drawn from it.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Value at quantile `q` (0..=1) of an ascending slice, linearly
/// interpolated; NaN for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Median, quartiles and count of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len() as u64,
    }
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still leaves at
/// least ten samples beyond it, as `(percent, value)`; the median when
/// even p75 does not.
pub fn high_percentile(sorted: &[f64]) -> (f64, f64) {
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0] {
        if sorted.len() as f64 * (1.0 - pct / 100.0) >= 10.0 {
            return (pct, quantile(sorted, pct / 100.0));
        }
    }
    (50.0, quantile(sorted, 0.5))
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of this process, all threads, in µs. Read
/// from `CLOCK_PROCESS_CPUTIME_ID`, which the scheduler keeps to the
/// nanosecond; `/proc/self/stat` counts 10 ms ticks, too coarse for a
/// one-second repetition of a few dozen gangs.
pub fn cpu_time_us() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

/// A `cpu_set_t` of 1024 CPUs, the C library's own size.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process was given, ascending: read on the first call
/// (first thing in `main`, before anything is pinned) and kept.
pub fn host_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable CPU set and the size passed
        // is its size; the call writes nothing else.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        (0..set.len() * 64)
            .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to `cpus`.
pub fn pin_to(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a live CPU set and the size passed is its size;
    // the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "sched_setaffinity to {cpus:?} failed");
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh scratch directory next to the running binary, so every file
/// the benchmark writes stays inside the build directory of its own
/// checkout. Removed by [`Scratch::drop`].
pub struct Scratch(PathBuf);

fn scratch_dir(pid: u32) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(std::path::Path::new("."));
    Ok(dir.join(format!("jets-bench-tmp-{pid}")))
}

/// Remove the scratch directory of a process that cannot do it itself
/// (a killed child, or this one on its way out through `exit`).
pub fn remove_scratch_of(pid: u32) {
    if let Ok(dir) = scratch_dir(pid) {
        std::fs::remove_dir_all(dir).ok();
    }
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let dir = scratch_dir(std::process::id())?;
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
