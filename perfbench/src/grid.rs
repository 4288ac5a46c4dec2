//! `grid-k9`: a durable experiment grid, run clean and then resumed.
//!
//! The grid is `fpt:k=9` × {fifo, fairshare, directcontr, ref} × metrics
//! {delay, psi}, horizon 2000, two seeds (8 cells). Every cell recomputes
//! the REF reference because `delay` needs it. Each pass runs
//! [`GRIDS_PER_PASS`] such grids on independent seeds, so one run's
//! figure averages over several inputs.

use crate::calib::{Clock, Kernel};
use crate::common::{
    as_duration, derived_seed, metric, read, timed, Budget, Ctx, Outcome,
};
use crate::setup::Setup;
use crate::stats::median;
use crate::tracer::Tracer;
use fairsched_core::journal::atomic_write;
use fairsched_core::scheduler::RefScheduler;
use fairsched_experiment::{
    aggregate, cell_keys, compute_cell, decode_cell, encode_cell, ExperimentSpec, Runner,
    RunnerOptions, SeedPlan,
};
use fairsched_sim::{run_scheduler, MetricSpec, SimOptions};
use fairsched_workloads::spec::{WorkloadContext, WorkloadRegistry, WorkloadSpec};
use serde::Value;
use std::path::Path;

const WORKLOAD: &str = "fpt:k=9";
const SCHEDULERS: [&str; 4] = ["fifo", "fairshare", "directcontr", "ref"];
const HORIZON: u64 = 2000;
const INSTANCES: u64 = 2;
/// Independent grids per pass.
pub const GRIDS_PER_PASS: u64 = 6;
const REPORTS: [&str; 3] = ["report.json", "report.csv", "report.txt"];

fn spec(base: u64) -> Result<ExperimentSpec, String> {
    let workload: WorkloadSpec = WORKLOAD.parse().map_err(|e| format!("{e}"))?;
    let schedulers = SCHEDULERS
        .iter()
        .map(|s| s.parse().map_err(|e| format!("{e}")))
        .collect::<Result<Vec<_>, String>>()?;
    let mut spec = ExperimentSpec::new("grid-k9", vec![workload], schedulers);
    spec.metrics = vec![MetricSpec::bare("delay"), MetricSpec::bare("psi")];
    spec.horizon = Some(HORIZON);
    spec.seeds =
        SeedPlan { base, count: INSTANCES, workload_stride: 1, scheduler_stride: 1 };
    Ok(spec)
}

/// The timings of one grid: clean run and resumed run (seconds).
struct GridTimes {
    clean_s: f64,
    resume_s: f64,
}

/// Runs one grid clean and resumed in a fresh directory, checking its
/// outputs into `out`; with `constituents`, then re-times the calls
/// `Runner::run` composes (see [`constituents`]).
fn one_grid(
    ctx: &Ctx,
    spec: &ExperimentSpec,
    name: &str,
    tracer: &mut Tracer,
    constituents: bool,
    out: &mut Outcome,
) -> Result<GridTimes, String> {
    let dir = ctx.fresh_dir(name)?;
    let cells = spec.n_cells();

    let (clean, clean_s) = timed(|| {
        tracer.span("experiment.run", |_| {
            Runner::new(spec.clone(), &dir, RunnerOptions::default()).run()
        })
    });
    out.attempted += cells;
    let clean = clean.map_err(|e| format!("{name}: clean run: {e}"))?;
    out.failed += clean.failed;
    out.check(
        format!("{name}: clean run computed all {cells} cells"),
        clean.computed == cells && clean.failed == 0,
    );
    out.check(format!("{name}: every cell done"), all_cells_done(&dir, cells)?);
    let first: Vec<String> =
        REPORTS.iter().map(|r| read(&dir.join(r))).collect::<Result<_, _>>()?;

    let (resumed, resume_s) = timed(|| {
        tracer.span("experiment.resume", |_| {
            Runner::new(
                spec.clone(),
                &dir,
                RunnerOptions { resume: true, ..Default::default() },
            )
            .run()
        })
    });
    out.attempted += cells;
    let resumed = resumed.map_err(|e| format!("{name}: resumed run: {e}"))?;
    out.failed += resumed.failed;
    out.check(
        format!("{name}: resume skipped all {cells} cells"),
        resumed.skipped == cells && resumed.computed == 0,
    );
    let second: Vec<String> =
        REPORTS.iter().map(|r| read(&dir.join(r))).collect::<Result<_, _>>()?;
    out.check(
        format!("{name}: resumed report.{{json,csv,txt}} byte-identical"),
        first == second,
    );

    if constituents {
        tracer.constituents(|t| self::constituents(spec, &dir, t))?;
    }
    crate::common::remove_dir(&dir);
    Ok(GridTimes { clean_s, resume_s })
}

/// Whether `report.json` lists `cells` cells, all `done`.
fn all_cells_done(dir: &Path, cells: u64) -> Result<bool, String> {
    let doc = serde_json::parse_value(&read(&dir.join("report.json"))?)
        .map_err(|e| format!("report.json: {e}"))?;
    let Some(Value::Array(entries)) = doc.get("cells") else {
        return Ok(false);
    };
    let done = entries
        .iter()
        .filter(|c| c.get("status") == Some(&Value::String("done".into())))
        .count();
    Ok(entries.len() as u64 == cells && done as u64 == cells)
}

/// Times, on the same inputs, the public calls `Runner::run` composes:
/// workload build and the REF reference per instance, then per cell
/// `compute_cell`, a cell-sized `atomic_write`, `parse_value` +
/// `decode_cell` of the committed file, and finally `aggregate`.
fn constituents(spec: &ExperimentSpec, dir: &Path, t: &mut Tracer) -> Result<(), String> {
    let workload: WorkloadSpec = WORKLOAD.parse().map_err(|e| format!("{e}"))?;
    for instance in 0..spec.seeds.count {
        let seed = spec.seeds.workload_seed(instance);
        let trace = t
            .span("workloads.build", |_| {
                WorkloadRegistry::shared().build(&workload, &WorkloadContext { seed })
            })
            .map_err(|e| format!("{e}"))?;
        t.count("workloads.jobs", trace.n_jobs() as f64);
        let mut reference = RefScheduler::new(&trace);
        t.span("ref.run", |_| {
            run_scheduler(
                &trace,
                &mut reference,
                SimOptions { horizon: HORIZON, validate: false },
            )
        })
        .map_err(|e| format!("ref reference: {e}"))?;
        let stats = reference.lattice().stats();
        t.count("ref.settles", stats.settles as f64);
        t.count("ref.phi_cache_hits", stats.phi_cache_hits as f64);
        t.count("ref.phi_recomputes", stats.phi_recomputes as f64);
    }
    let commits = dir.join("constituent-commits");
    std::fs::create_dir_all(&commits).map_err(|e| format!("{e}"))?;
    let mut decoded = Vec::new();
    for key in cell_keys(spec) {
        t.begin_op();
        let report = t.span("experiment.compute_cell", |_| compute_cell(&key));
        t.count("experiment.cells", 1.0);
        let mut text = encode_cell(&key, &report).to_json_pretty();
        text.push('\n');
        let path = commits.join(key.file_name());
        t.span("experiment.commit", |_| atomic_write(&path, &text))
            .map_err(|e| format!("{e}"))?;

        let committed = read(&dir.join("cells").join(key.file_name()))?;
        t.count("json.parse_bytes", committed.len() as f64);
        let stored = t.span("experiment.decode", |t| {
            let value = t.span("json.parse", |_| serde_json::parse_value(&committed));
            value.ok().and_then(|v| decode_cell(&v))
        });
        let stored =
            stored.ok_or_else(|| format!("cell {} does not decode", key.file_name()))?;
        decoded.push((key, stored));
    }
    t.span("experiment.aggregate", |_| aggregate(spec, &decoded));
    Ok(())
}

/// Runs the workload: set-up, then passes until the budget is spent; in
/// traced runs every other pass is traced.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec_text = spec(ctx.seed)?.to_json_value().to_json_pretty();
    let mut setup = Setup::new(
        ctx,
        Some(Box::new(|dir: &Path| {
            // Directory preparation: what a fresh `experiment run` lays
            // down before its first cell.
            std::fs::create_dir_all(dir.join("cells")).map_err(|e| format!("{e}"))?;
            atomic_write(&dir.join("spec.json"), &spec_text).map_err(|e| format!("{e}"))
        })),
    );

    let specs: Vec<ExperimentSpec> = (0..GRIDS_PER_PASS)
        .map(|g| spec(derived_seed(ctx.seed, g)))
        .collect::<Result<_, _>>()?;

    let mut clock = Clock::new(ctx.work.join("kernel"))?;
    let budget = Budget::new(ctx.seconds);
    let (mut plain, mut tracer) = (Tracer::new(false), Tracer::new(true));
    // A pass runs the grids in turn; the run ends before the first grid
    // that would overrun the budget, so a slow host leaves a partial
    // pass rather than idle seconds. Clock keys, per grid g: `clean/g`
    // and `resume/g` over the untraced passes, `traced/g` (clean run)
    // over the traced ones.
    let mut grid_s = Vec::new();
    let mut pass = 0;
    'passes: loop {
        let traced = ctx.trace && pass % 2 == 1;
        for (g, spec) in specs.iter().enumerate() {
            // Traced runs finish one untraced and one traced pass first.
            let least = if ctx.trace { 2 } else { 1 };
            if pass >= least && !budget.fits(as_duration(median(&grid_s))) {
                break 'passes;
            }
            let name = format!("p{pass}-g{g}");
            let (done, s) = timed(|| -> Result<(), String> {
                if traced {
                    tracer.begin_op();
                    // The first traced pass also times the constituents.
                    let times =
                        one_grid(ctx, spec, &name, &mut tracer, pass == 1, &mut out)?;
                    clock.record(format!("traced/{g}"), Kernel::Cpu, times.clean_s);
                } else {
                    let times = one_grid(ctx, spec, &name, &mut plain, false, &mut out)?;
                    clock.record(format!("clean/{g}"), Kernel::Cpu, times.clean_s);
                    clock.record(format!("resume/{g}"), Kernel::Cpu, times.resume_s);
                }
                setup.rep(&mut clock)?;
                clock.tick()
            });
            done?;
            grid_s.push(s);
        }
        pass += 1;
    }
    // Per grid the median pass, then the mean over the grids.
    let per_grid = |key: &str, seconds: fn(&Clock, &str) -> f64| {
        (0..specs.len()).map(|g| seconds(&clock, &format!("{key}/{g}"))).sum::<f64>()
            / specs.len() as f64
    };
    let wall_s = per_grid("clean", Clock::seconds);
    let resume_s = per_grid("resume", Clock::seconds);
    out.e2e.push(metric("setup_s", "s", clock.seconds(Setup::KEY)));
    out.e2e.push(metric("wall_s", "s", wall_s));
    out.extra.push(metric("resume_s", "s", resume_s));
    out.extra.push(metric("wall_raw_s", "s", per_grid("clean", Clock::raw_seconds)));
    clock.report(&mut out);
    out.notes.push(format!(
        "{} untraced runs of each of {GRIDS_PER_PASS} grids (the last pass may be partial; {} cells each); wall_s and resume_s are per grid",
        clock.samples(&format!("clean/{}", GRIDS_PER_PASS - 1)),
        INSTANCES * SCHEDULERS.len() as u64
    ));

    if ctx.trace {
        let n = specs.len() as f64;
        let computes = tracer.durations_ms("experiment.compute_cell");
        out.layers.extend([
            metric("experiment.compute_cell_ms_p50", "ms", median(&computes)),
            metric(
                "experiment.compute_cell_ms_total",
                "ms",
                computes.iter().sum::<f64>() / n,
            ),
            metric("experiment.cells", "count", tracer.counter("experiment.cells") / n),
            metric(
                "experiment.commit_ms",
                "ms",
                median(&tracer.durations_ms("experiment.commit")),
            ),
            metric(
                "experiment.aggregate_ms",
                "ms",
                tracer.total_ms("experiment.aggregate") / n,
            ),
            metric(
                "experiment.decode_ms",
                "ms",
                tracer.total_ms("experiment.decode") / n,
            ),
            metric("ref.run_ms", "ms", tracer.total_ms("ref.run") / n),
            metric("ref.settles", "count", tracer.counter("ref.settles") / n),
            metric(
                "ref.phi_cache_hits",
                "count",
                tracer.counter("ref.phi_cache_hits") / n,
            ),
            metric(
                "ref.phi_recomputes",
                "count",
                tracer.counter("ref.phi_recomputes") / n,
            ),
            metric("workloads.build_ms", "ms", tracer.total_ms("workloads.build") / n),
            metric("workloads.jobs", "count", tracer.counter("workloads.jobs") / n),
        ]);
        crate::setup::json_parse_layers(&tracer, &mut out);
        out.layers.push(metric(
            "trace.overhead_wall_s",
            "s",
            per_grid("traced", Clock::seconds) - wall_s,
        ));
        out.layers.push(metric("experiment.resume_ms", "ms", resume_s * 1e3));
        out.notes.push("per-layer figures are per grid (8 cells)".to_string());
        out.tracer = Some(tracer);
    }
    out.e2e.push(metric("peak_rss_mb", "MB", clock.peak_rss_mb()));
    Ok(out)
}
