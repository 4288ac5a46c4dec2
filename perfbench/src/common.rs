//! What every workload shares: run settings, the outcome it reports,
//! work directories, and small helpers.

use crate::tracer::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Settings of one benchmark run.
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Work directory owned by this run (removed at exit).
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory `name` under the run's work directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        remove_dir(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The end-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// `Metric` constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (cells, messages, reports).
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    /// Output checks, by name.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics (measured with tracing off).
    pub e2e: Vec<Metric>,
    /// Further user-facing figures printed beside the end-to-end table.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
    /// The traced run's recorder.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records an output check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A measurement window: `seconds` from construction.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    /// A window of `seconds`.
    pub fn new(seconds: f64) -> Budget {
        Budget { start: Instant::now(), limit: Duration::from_secs_f64(seconds.max(0.0)) }
    }

    /// Whether another repetition expected to take `next` still fits.
    pub fn fits(&self, next: Duration) -> bool {
        self.start.elapsed() + next <= self.limit
    }
}

/// Times `body`, returning its value and the elapsed seconds.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = body();
    (out, start.elapsed().as_secs_f64())
}

/// SplitMix64: derives independent input seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A derived seed small enough to read in spec strings and reports.
pub fn derived_seed(seed: u64, stream: u64) -> u64 {
    mix(seed, stream) % 1_000_000
}

/// FNV-1a 64 over several byte strings (report digests).
pub fn digest(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain(std::iter::once(0xff)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Best-effort recursive removal.
pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Reads a file the program wrote, as text.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Median of per-repetition seconds as a `Duration` (for budgeting).
pub fn as_duration(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.0))
}
