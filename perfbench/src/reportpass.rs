//! `rand-k16` and `scale-k100`: report passes with no REF reference.
//!
//! A pass builds each input trace through the workload registry, runs
//! each scheduler over it with `run_scheduler`, evaluates the default
//! metric set with `Report::evaluate` and renders the three sinks.

use crate::calib::{Clock, Kernel};
use crate::common::{as_duration, digest, metric, timed, Budget, Ctx, Metric, Outcome};
use crate::setup::Setup;
use crate::stats::median;
use crate::tracer::Tracer;
use fairsched_core::scheduler::{BuildContext, RandScheduler, Registry, Scheduler};
use fairsched_core::Trace;
use fairsched_sim::{
    run_scheduler, MetricRegistry, MetricSpec, Report, SimOptions, SimResult,
    DEFAULT_REPORT_METRICS,
};
use fairsched_workloads::spec::{WorkloadContext, WorkloadRegistry, WorkloadSpec};

/// One report-pass workload.
pub struct PassConfig {
    /// Workload registry spec of every input.
    pub workload: &'static str,
    /// Schedulers run over each input.
    pub schedulers: &'static [Sched],
    /// Evaluation horizon (`None`: run every job to completion).
    pub horizon: Option<u64>,
    /// Input seeds of one pass, from the run seed.
    pub seeds: fn(u64) -> Vec<u64>,
}

/// `rand-k16`: RAND with 75 sampled permutations on 16 organizations.
pub const RAND_K16: PassConfig = PassConfig {
    workload: "fpt:k=16",
    schedulers: &[Sched::Rand { perms: 75 }],
    horizon: None,
    seeds: |seed| (0..16).map(|i| crate::common::derived_seed(seed, i)).collect(),
};

/// `scale-k100`: FIFO and fair share over a 100-organization RICC trace.
pub const SCALE_K100: PassConfig = PassConfig {
    workload: "synth:horizon=400000,orgs=100,preset=ricc,scale=1",
    schedulers: &[Sched::Spec("fifo"), Sched::Spec("fairshare")],
    horizon: Some(800_000),
    seeds: |seed| vec![seed],
};

/// What one pass produced, for the repetition checks.
struct PassOutput {
    /// Per (seed, scheduler): digest of the three sinks.
    digests: Vec<u64>,
    /// Per (seed, scheduler): seconds spent in the program's calls (the
    /// seed's workload build counts towards its first scheduler).
    units: Vec<f64>,
    /// Jobs started over all runs.
    started: u64,
}

/// A scheduler of a pass.
pub enum Sched {
    /// `rand:perms=N`, built directly (as the registry builds it) so its
    /// lattice counters stay readable after the run.
    Rand {
        /// Sampled permutations.
        perms: usize,
    },
    /// Any other scheduler, by registry spec.
    Spec(&'static str),
}

impl Sched {
    fn label(&self) -> String {
        match self {
            Sched::Rand { perms } => format!("rand:perms={perms}"),
            Sched::Spec(spec) => spec.to_string(),
        }
    }
}

/// A scheduler built for one run.
enum Built {
    Rand(Box<RandScheduler>),
    Other(Box<dyn Scheduler>),
}

impl Built {
    fn new(sched: &Sched, trace: &Trace, seed: u64) -> Result<Built, String> {
        match sched {
            Sched::Rand { perms } => {
                Ok(Built::Rand(Box::new(RandScheduler::new(trace, *perms, seed))))
            }
            Sched::Spec(spec) => {
                let parsed = spec.parse().map_err(|e| format!("{spec}: {e}"))?;
                Registry::shared()
                    .build(&parsed, &BuildContext { trace, seed })
                    .map(Built::Other)
                    .map_err(|e| format!("{spec}: {e}"))
            }
        }
    }

    fn as_mut(&mut self) -> &mut dyn Scheduler {
        match self {
            Built::Rand(r) => r.as_mut(),
            Built::Other(b) => b.as_mut(),
        }
    }
}

/// One pass over `seeds`; each unit's time is recorded in `clock` under
/// `key/<unit>`, with a tick once one is due.
fn one_pass(
    cfg: &PassConfig,
    seeds: &[u64],
    clock: &mut Clock,
    key: &str,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<PassOutput, String> {
    let workload: WorkloadSpec = cfg.workload.parse().map_err(|e| format!("{e}"))?;
    let specs: Vec<MetricSpec> =
        DEFAULT_REPORT_METRICS.iter().map(|s| MetricSpec::bare(*s)).collect();
    let mut digests = Vec::new();
    let mut units = Vec::new();
    let mut started = 0u64;
    for &seed in seeds {
        t.begin_op();
        let (trace, mut unit) = timed(|| {
            t.span("workloads.build", |_| {
                WorkloadRegistry::shared().build(&workload, &WorkloadContext { seed })
            })
        });
        let trace = trace.map_err(|e| format!("{}: {e}", cfg.workload))?;
        t.count("workloads.jobs", trace.n_jobs() as f64);
        let horizon = cfg.horizon.unwrap_or_else(|| trace.completion_horizon());
        for sched in cfg.schedulers {
            let name = sched.label();
            out.attempted += 1;
            let mut scheduler = Built::new(sched, &trace, seed)?;
            let (result, run_s) = timed(|| {
                t.span("sim.run", |_| {
                    run_scheduler(
                        &trace,
                        scheduler.as_mut(),
                        SimOptions { horizon, validate: false },
                    )
                })
            });
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("{name} at seed {seed}: {e}"));
                    record_unit(&mut units, unit + run_s, clock, key)?;
                    unit = 0.0;
                    continue;
                }
            };
            if let Built::Rand(rand) = &scheduler {
                let stats = rand.lattice().stats();
                t.count("rand.settles", stats.settles as f64);
                t.count("rand.phi_cache_hits", stats.phi_cache_hits as f64);
                t.count("rand.phi_recomputes", stats.phi_recomputes as f64);
            }
            started += result.started_jobs as u64;
            let (report, evaluate_s) = timed(|| {
                t.span("report.evaluate", |_| {
                    Report::evaluate(
                        MetricRegistry::shared(),
                        &specs,
                        &trace,
                        &result,
                        None,
                    )
                })
            });
            let report = report.map_err(|e| format!("{name}: evaluate: {e}"))?;
            let ((json, csv, table), sink_s) = timed(|| {
                t.span("report.sink", |_| {
                    (report.to_json(), report.to_csv(), report.render_table())
                })
            });
            record_unit(&mut units, unit + run_s + evaluate_s + sink_s, clock, key)?;
            unit = 0.0;
            check_completed(
                &trace,
                &result,
                &report,
                cfg.horizon.is_none(),
                &name,
                seed,
                out,
            );
            digests.push(digest(&[&json, &csv, &table]));
        }
    }
    Ok(PassOutput { digests, units, started })
}

/// Appends a unit's seconds to `units`, records them in `clock` under
/// `key/<unit>`, and ticks the clock if a tick is due.
fn record_unit(
    units: &mut Vec<f64>,
    seconds: f64,
    clock: &mut Clock,
    key: &str,
) -> Result<(), String> {
    clock.record(format!("{key}/{}", units.len()), Kernel::Cpu, seconds);
    units.push(seconds);
    clock.tick_if_due()
}

/// `completed_jobs` as expected: every job when run to completion, else
/// the schedule's entries finishing by the horizon; and the report's
/// `completed` aggregate agrees.
fn check_completed(
    trace: &Trace,
    result: &SimResult,
    report: &Report,
    to_completion: bool,
    name: &str,
    seed: u64,
    out: &mut Outcome,
) {
    let finished = result
        .schedule
        .entries()
        .iter()
        .filter(|e| e.start.saturating_add(e.proc_time) <= result.horizon)
        .count();
    let expected = if to_completion { trace.n_jobs() } else { finished };
    let in_report = report.column("completed").map(|c| c.aggregate.as_f64());
    let ok = result.completed_jobs == expected
        && finished == expected
        && in_report == Some(expected as f64);
    if !ok {
        out.check(
            format!(
                "{name} seed {seed}: completed_jobs {} (expected {expected}, report {in_report:?})",
                result.completed_jobs
            ),
            false,
        );
    }
}

/// Runs the workload: set-up, then passes until the budget is spent; in
/// traced runs every other pass is traced.
pub fn run(ctx: &Ctx, cfg: &PassConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // These passes keep no state on disk: set-up is registry building.
    let mut setup = Setup::new(ctx, None);
    let seeds = (cfg.seeds)(ctx.seed);

    let mut clock = Clock::new(ctx.work.join("kernel"))?;
    let budget = Budget::new(ctx.seconds);
    let (mut plain, mut tracer) = (Tracer::new(false), Tracer::new(true));
    // Clock keys: per (seed, scheduler) unit u, `unit/u` over the
    // untraced passes and `traced/u` over the traced ones.
    let (mut passes, mut traced): (Vec<PassOutput>, Vec<PassOutput>) =
        (Vec::new(), Vec::new());
    let mut pass_s = Vec::new();
    // Two untraced passes at least, for the repetition check.
    while passes.len() < 2
        || (ctx.trace && traced.is_empty())
        || budget.fits(as_duration(median(&pass_s)))
    {
        let traced_pass = ctx.trace && (passes.len() + traced.len()) % 2 == 1;
        let (pass, s) = timed(|| {
            let t = if traced_pass { &mut tracer } else { &mut plain };
            let key = if traced_pass { "traced" } else { "unit" };
            one_pass(cfg, &seeds, &mut clock, key, t, &mut out)
        });
        let pass = pass?;
        if traced_pass { &mut traced } else { &mut passes }.push(pass);
        setup.rep(&mut clock)?;
        clock.tick()?;
        pass_s.push(s);
    }
    let units = passes[0].units.len();
    // Per unit the median pass, summed over the units.
    let pass_seconds = |key: &str, seconds: fn(&Clock, &str) -> f64| {
        (0..units).map(|u| seconds(&clock, &format!("{key}/{u}"))).sum::<f64>()
    };
    let wall_s = pass_seconds("unit", Clock::seconds);
    let first = &passes[0];
    out.check(
        format!("report digests identical across {} passes", passes.len() + traced.len()),
        passes.iter().chain(&traced).all(|p| p.digests == first.digests),
    );
    let started = first.started;
    out.e2e.push(metric("setup_s", "s", clock.seconds(Setup::KEY)));
    out.e2e.push(metric("wall_s", "s", wall_s));
    out.extra.push(metric("jobs_per_s", "1/s", started as f64 / wall_s));
    out.extra.push(metric("wall_raw_s", "s", pass_seconds("unit", Clock::raw_seconds)));
    clock.report(&mut out);
    out.notes.push(format!(
        "{} untraced passes over {} input(s) x {} scheduler(s); {started} jobs started per pass",
        passes.len(),
        seeds.len(),
        cfg.schedulers.len()
    ));

    if ctx.trace {
        out.layers.extend(pass_layers(&tracer, traced.len() as f64));
        out.layers.push(metric(
            "trace.overhead_wall_s",
            "s",
            pass_seconds("traced", Clock::seconds) - wall_s,
        ));
        out.notes.push(format!(
            "{} traced passes interleaved with the untraced ones; per-layer figures are per pass",
            traced.len()
        ));
        out.tracer = Some(tracer);
    }
    out.e2e.push(metric("peak_rss_mb", "MB", clock.peak_rss_mb()));
    Ok(out)
}

/// Per-layer figures of `passes` traced passes, per pass.
fn pass_layers(t: &Tracer, passes: f64) -> Vec<Metric> {
    let per = |total: f64| total / passes.max(1.0);
    vec![
        metric("workloads.build_ms", "ms", per(t.total_ms("workloads.build"))),
        metric("workloads.jobs", "count", per(t.counter("workloads.jobs"))),
        metric("sim.run_ms", "ms", per(t.total_ms("sim.run"))),
        metric("rand.settles", "count", per(t.counter("rand.settles"))),
        metric("rand.phi_cache_hits", "count", per(t.counter("rand.phi_cache_hits"))),
        metric("rand.phi_recomputes", "count", per(t.counter("rand.phi_recomputes"))),
        metric("report.evaluate_ms", "ms", per(t.total_ms("report.evaluate"))),
        metric("report.sink_ms", "ms", per(t.total_ms("report.sink"))),
    ]
}
