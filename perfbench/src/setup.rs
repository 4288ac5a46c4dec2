//! Set-up timing shared by the workloads, and per-layer figures every
//! workload derives the same way.
//!
//! One set-up takes microseconds (registries; grid: a directory with
//! `cells/` and `spec.json`) to about a millisecond (serve: `init` +
//! `Daemon::open`), so a single one is at the mercy of filesystem and
//! scheduler jitter. A set-up *sample* is therefore a batch: set-ups
//! run back to back for at least [`SAMPLE_S`] and the sample is their
//! mean. Samples are taken after each measured unit (grid, pass,
//! session) and recorded in the run's [`Clock`]; `setup_s` is their
//! median, normalised like every time the benchmark reports (see
//! [`crate::calib`]): by the file-system kernel when the set-up prepares
//! a directory, by the CPU kernel when it only builds registries.

use crate::calib::{Clock, Kernel};
use crate::common::{metric, remove_dir, Ctx, Outcome};
use crate::stats::median;
use crate::tracer::Tracer;
use fairsched_core::scheduler::Registry;
use fairsched_sim::MetricRegistry;
use fairsched_workloads::spec::WorkloadRegistry;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shortest batch of set-ups one sample averages over.
const SAMPLE_S: f64 = 0.004;
/// Fewest set-ups in one sample.
const SAMPLE_MIN: usize = 4;
/// Samples taken after each measured unit.
const SAMPLES_PER_REP: usize = 2;

/// Prepares a workload's directory during set-up.
pub type Prepare<'a> = Box<dyn FnMut(&Path) -> Result<(), String> + 'a>;

/// A workload's set-up step, timed each time it runs.
pub struct Setup<'a> {
    ctx: &'a Ctx,
    prepare: Option<Prepare<'a>>,
}

impl<'a> Setup<'a> {
    /// A set-up that builds the scheduler, workload and metric registries
    /// (what the `shared()` registries do on first use) and, when the
    /// workload keeps state on disk, runs `prepare` in a fresh directory.
    /// The process-wide registries are initialised here, untimed.
    pub fn new(ctx: &'a Ctx, prepare: Option<Prepare<'a>>) -> Setup<'a> {
        Registry::shared();
        WorkloadRegistry::shared();
        MetricRegistry::shared();
        Setup { ctx, prepare }
    }

    /// Records [`SAMPLES_PER_REP`] more set-up samples in `clock` under
    /// [`Setup::KEY`].
    pub fn rep(&mut self, clock: &mut Clock) -> Result<(), String> {
        let kernel = if self.prepare.is_some() { Kernel::Fs } else { Kernel::Cpu };
        for _ in 0..SAMPLES_PER_REP {
            let sample = self.batch();
            remove_dir(&self.ctx.work.join("setup"));
            clock.record(Self::KEY, kernel, sample?);
        }
        Ok(())
    }

    /// The clock key set-up samples are recorded under.
    pub const KEY: &'static str = "setup";

    /// Mean seconds per set-up over one batch.
    fn batch(&mut self) -> Result<f64, String> {
        let parent = self.ctx.work.join("setup");
        let limit = Duration::from_secs_f64(SAMPLE_S);
        let start = Instant::now();
        let mut done = 0usize;
        while done < SAMPLE_MIN || start.elapsed() < limit {
            drop((
                Registry::default(),
                WorkloadRegistry::default(),
                MetricRegistry::default(),
            ));
            if let Some(prepare) = &mut self.prepare {
                let dir = parent.join(done.to_string());
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
                prepare(&dir)?;
            }
            done += 1;
        }
        Ok(start.elapsed().as_secs_f64() / done as f64)
    }
}

/// `json.parse_ms` (median per `parse_value` call) and
/// `json.parse_mb_per_s` from the `json.parse` spans and the
/// `json.parse_bytes` counter.
pub fn json_parse_layers(tracer: &Tracer, out: &mut Outcome) {
    let parses = tracer.durations_ms("json.parse");
    let total_ms: f64 = parses.iter().sum();
    let mb = tracer.counter("json.parse_bytes") / 1e6;
    out.layers.push(metric("json.parse_ms", "ms", median(&parses)));
    out.layers.push(metric(
        "json.parse_mb_per_s",
        "MB/s",
        if total_ms > 0.0 { mb / (total_ms / 1e3) } else { 0.0 },
    ));
}
