//! Host-speed calibration: every reported time is a raw time divided by
//! a reference kernel's time measured around it.
//!
//! On a shared host other tenants slow this process for minutes at a
//! time. On a 2-vCPU KVM guest, over 28 s windows in ten minutes, the
//! interquartile range of one fixed REF run's per-window median time was
//! 10–16% of its median, and of its per-window fastest time 15–24%; a
//! directory-and-file set-up slowed by 3–10× in a sawtooth that no work
//! of the benchmark's own explained. No estimator over one run's raw
//! times removes a slowdown that outlasts the run.
//!
//! So the benchmark times two fixed kernels of its own, which call
//! nothing of the program, between the units it measures: [`cpu_kernel`]
//! (small allocations and hash-map work, then random access over a
//! 32 MB buffer) and [`fs_kernel`] (the directory-and-file operations a
//! set-up makes, through `std::fs`). A unit's *normalised* time is its
//! raw time divided by the mean of the two kernel times around it, times
//! the kernel's reference time ([`CPU_REFERENCE_S`], [`FS_REFERENCE_S`]):
//! seconds at the host speed those references were taken at. A change to
//! the program moves the unit and not the kernel, so it shows in full; a
//! host slowdown moves both and cancels. Over the same windows the
//! interquartile range of normalised REF, RAND and FIFO run times was
//! 2–5% of their medians (raw: 8–20%).
//!
//! [`Clock`] keeps the samples: a workload records raw unit times under
//! keys and calls [`Clock::tick`] between units; a key's figure is the
//! median of its normalised samples.

use crate::common::{metric, peak_rss_mb, remove_dir, Outcome};
use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// [`cpu_kernel`]'s time at reference host speed: about its time on a
/// quiet 2-vCPU KVM guest (Intel Xeon). Any fixed value would do; it
/// only sets the scale of the figures.
pub const CPU_REFERENCE_S: f64 = 0.040;
/// [`fs_kernel`]'s time per round at reference host speed: about its
/// time on the same guest when quiet (ext4).
pub const FS_REFERENCE_S: f64 = 0.000_200;
/// Shortest batch of file-system rounds one [`fs_kernel`] sample
/// averages over.
const FS_BATCH_S: f64 = 0.004;

/// Least time between ticks that [`Clock::tick_if_due`] keeps.
const TICK_INTERVAL: Duration = Duration::from_millis(500);
/// Rounds of the CPU kernel's hash-map part.
const HASH_ROUNDS: u64 = 48;
/// Pushes per hash-map round.
const HASH_INSERTS: u32 = 5_000;
/// Distinct keys per hash-map round.
const HASH_KEYS: u64 = 2_500;
/// Elements of the CPU kernel's random-access buffer (32 MB).
const SCATTER_LEN: usize = 1 << 22;
/// Random read-modify-writes per CPU kernel run.
const SCATTER_STEPS: usize = 1 << 20;

/// Bytes per MB as [`peak_rss_mb`] counts them.
const MIB: f64 = 1024.0 * 1024.0;

/// Which kernel a unit is normalised by.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// [`cpu_kernel`]: compute- and memory-bound units.
    Cpu,
    /// [`fs_kernel`]: units dominated by directory and file operations.
    Fs,
}

impl Kernel {
    fn index(self) -> usize {
        match self {
            Kernel::Cpu => 0,
            Kernel::Fs => 1,
        }
    }

    fn reference_s(self) -> f64 {
        match self {
            Kernel::Cpu => CPU_REFERENCE_S,
            Kernel::Fs => FS_REFERENCE_S,
        }
    }
}

/// Seconds the fixed CPU kernel takes: [`HASH_ROUNDS`] rounds of
/// [`HASH_INSERTS`] pushes into a fresh `HashMap<u64, Vec<u32>>` over
/// [`HASH_KEYS`] xorshift keys and a lookup of every key (small
/// allocations and hashing, like the program's own), then
/// [`SCATTER_STEPS`] dependent read-modify-writes at random over `buf`
/// (out of the private caches).
///
/// `buf` lives as long as the [`Clock`]: a buffer allocated per call
/// would come fresh from the OS or warm from the allocator depending on
/// what the program freed before, and its page faults with it.
pub fn cpu_kernel(buf: &mut [u64]) -> f64 {
    let start = Instant::now();
    for round in 0..HASH_ROUNDS {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ round;
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..HASH_INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.entry(x % HASH_KEYS).or_default().push(i);
        }
        let found: usize = (0..HASH_KEYS).filter_map(|k| map.get(&k)).map(Vec::len).sum();
        black_box(found);
    }
    let (mut i, mut sum) = (1usize, 0u64);
    for _ in 0..SCATTER_STEPS {
        i = i.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3_037_000_493)
            % buf.len();
        sum = sum.wrapping_add(buf[i]);
        buf[i] = sum;
    }
    black_box(&buf);
    start.elapsed().as_secs_f64()
}

/// Mean seconds per round of the fixed file-system kernel over a batch
/// of at least [`FS_BATCH_S`]: a round makes `<n>/cells/` under `dir`,
/// writes a small `spec.json.tmp` and renames it to `spec.json`. The
/// batch's directory is removed afterwards, untimed.
pub fn fs_kernel(dir: &Path) -> Result<f64, String> {
    let limit = Duration::from_secs_f64(FS_BATCH_S);
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds < 4 || start.elapsed() < limit {
        let round = dir.join(rounds.to_string());
        let io = |e: std::io::Error| format!("fs kernel in {}: {e}", round.display());
        std::fs::create_dir_all(round.join("cells")).map_err(io)?;
        let tmp = round.join("spec.json.tmp");
        std::fs::write(&tmp, "{\"kernel\": \"fs\", \"rounds\": 1}\n").map_err(io)?;
        std::fs::rename(&tmp, round.join("spec.json")).map_err(io)?;
        rounds += 1;
    }
    let seconds = start.elapsed().as_secs_f64() / rounds as f64;
    remove_dir(dir);
    Ok(seconds)
}

/// A unit recorded since the last tick.
struct Pending {
    key: String,
    kernel: Kernel,
    raw_s: f64,
}

/// Raw unit times of one run, normalised by the kernel times around them.
pub struct Clock {
    dir: PathBuf,
    /// The CPU kernel's random-access buffer.
    scatter: Vec<u64>,
    last_tick: Instant,
    /// Per kernel, the time of the latest tick.
    last: [f64; 2],
    /// Per kernel, every time measured.
    kernels: [Vec<f64>; 2],
    pending: Vec<Pending>,
    normalised: BTreeMap<String, Vec<f64>>,
    raw: BTreeMap<String, Vec<f64>>,
}

impl Clock {
    /// A clock whose file-system kernel runs under `dir`; times both
    /// kernels once, so the first unit has a kernel time before it.
    pub fn new(dir: PathBuf) -> Result<Clock, String> {
        let mut clock = Clock::untimed(dir);
        clock.tick()?;
        Ok(clock)
    }

    /// A clock that has timed nothing yet (tests settle it by hand).
    pub(crate) fn untimed(dir: PathBuf) -> Clock {
        Clock {
            dir,
            scatter: (0..SCATTER_LEN as u64).collect(),
            last_tick: Instant::now(),
            last: [0.0; 2],
            kernels: [Vec::new(), Vec::new()],
            pending: Vec::new(),
            normalised: BTreeMap::new(),
            raw: BTreeMap::new(),
        }
    }

    /// Records `raw_s` seconds under `key`, to be normalised by `kernel`
    /// at the next [`Clock::tick`].
    pub fn record(&mut self, key: impl Into<String>, kernel: Kernel, raw_s: f64) {
        self.pending.push(Pending { key: key.into(), kernel, raw_s });
    }

    /// Times both kernels and normalises every unit recorded since the
    /// previous tick by the mean of its kernel's times at the two ticks.
    pub fn tick(&mut self) -> Result<(), String> {
        let now = [cpu_kernel(&mut self.scatter), fs_kernel(&self.dir)?];
        self.settle(now);
        self.last_tick = Instant::now();
        Ok(())
    }

    /// [`Clock::tick`] when [`TICK_INTERVAL`] or more has passed since
    /// the last one, so long passes are normalised piecewise without a
    /// kernel after every short unit.
    pub fn tick_if_due(&mut self) -> Result<(), String> {
        if self.last_tick.elapsed() >= TICK_INTERVAL {
            self.tick()?;
        }
        Ok(())
    }

    /// [`Clock::tick`] with the kernel times `now` (indexed by kernel).
    pub(crate) fn settle(&mut self, now: [f64; 2]) {
        for p in self.pending.drain(..) {
            let k = p.kernel.index();
            let around = (self.last[k] + now[k]) / 2.0;
            let value = normalise(p.raw_s, around, p.kernel.reference_s());
            self.normalised.entry(p.key.clone()).or_default().push(value);
            self.raw.entry(p.key).or_default().push(p.raw_s);
        }
        for (k, t) in now.into_iter().enumerate() {
            self.last[k] = t;
            self.kernels[k].push(t);
        }
    }

    /// Median normalised seconds under `key` (0 when none).
    pub fn seconds(&self, key: &str) -> f64 {
        self.normalised.get(key).map_or(0.0, |v| median(v))
    }

    /// Median raw seconds under `key` (0 when none).
    pub fn raw_seconds(&self, key: &str) -> f64 {
        self.raw.get(key).map_or(0.0, |v| median(v))
    }

    /// Normalised samples recorded under `key`.
    pub fn samples(&self, key: &str) -> usize {
        self.normalised.get(key).map_or(0, Vec::len)
    }

    /// Peak RSS of the process (MB) less the CPU kernel's buffer, which
    /// is resident from the clock's creation to the end of the run. (The
    /// kernel's hash maps stay under 200 KB.)
    pub fn peak_rss_mb(&self) -> f64 {
        let buf_mb = (self.scatter.len() * std::mem::size_of::<u64>()) as f64 / MIB;
        (peak_rss_mb() - buf_mb).max(0.0)
    }

    /// Median time of `kernel` over the run (s).
    pub fn kernel_s(&self, kernel: Kernel) -> f64 {
        median(&self.kernels[kernel.index()])
    }

    /// Adds the run's median kernel times to the human-readable report.
    pub fn report(&self, out: &mut Outcome) {
        out.extra.push(metric("cpu_kernel_ms", "ms", self.kernel_s(Kernel::Cpu) * 1e3));
        out.extra.push(metric("fs_kernel_ms", "ms", self.kernel_s(Kernel::Fs) * 1e3));
        out.notes.push(format!(
            "times are normalised to reference host speed (cpu kernel {} ms, fs kernel {} ms); *_raw_* figures are not",
            CPU_REFERENCE_S * 1e3,
            FS_REFERENCE_S * 1e3
        ));
    }
}

/// `raw_s` at reference speed, given the kernel took `kernel_s` around
/// it and `reference_s` at reference speed.
fn normalise(raw_s: f64, kernel_s: f64, reference_s: f64) -> f64 {
    if kernel_s > 0.0 {
        raw_s * reference_s / kernel_s
    } else {
        raw_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalising_scales_by_the_kernel_around_the_unit() {
        // The host ran at half speed: the kernel took twice its reference.
        assert_eq!(normalise(3.0, 0.08, 0.04), 1.5);
        assert_eq!(normalise(3.0, 0.0, 0.04), 3.0);
    }

    #[test]
    fn a_unit_is_normalised_by_the_ticks_before_and_after_it() {
        let mut clock = Clock::untimed(PathBuf::new());
        clock.settle([0.04, 0.0002]);
        clock.record("u", Kernel::Cpu, 1.0);
        clock.record("u", Kernel::Cpu, 3.0);
        clock.record("s", Kernel::Fs, 0.0006);
        assert_eq!(clock.samples("u"), 0, "nothing normalised before the tick");
        // The host slowed down: the kernels took twice as long at the
        // second tick, so the units ran at 1.5x the reference times.
        clock.settle([0.08, 0.0004]);
        assert_eq!(clock.samples("u"), 2);
        assert_eq!(clock.raw_seconds("u"), 2.0);
        assert!((clock.seconds("u") - 2.0 / 1.5).abs() < 1e-12);
        assert!((clock.seconds("s") - 0.0004).abs() < 1e-12);
        assert_eq!(clock.kernel_s(Kernel::Cpu), 0.06);
        assert_eq!(clock.seconds("missing"), 0.0);
    }
}
