//! The `Simulation` session API: one fluent, fallible entry point for
//! running any registered scheduler over any registered workload.
//!
//! Schedulers are named by [`SchedulerSpec`] strings resolved through a
//! [`Registry`], workloads by [`WorkloadSpec`] strings resolved through a
//! [`WorkloadRegistry`], and every failure — malformed spec, unknown scheduler or workload, invalid
//! trace, scheduler contract violations — surfaces as a typed
//! [`SimError`].
//!
//! ```
//! use fairsched_core::Trace;
//! use fairsched_sim::Simulation;
//!
//! let mut b = Trace::builder();
//! let alpha = b.org("alpha", 1);
//! let beta = b.org("beta", 2);
//! b.jobs(alpha, 0, 4, 3);
//! b.job(beta, 6, 2);
//! let trace = b.build().unwrap();
//!
//! let result = Simulation::new(&trace)
//!     .scheduler("fairshare")?
//!     .horizon(5_000)
//!     .validate(true)
//!     .seed(7)
//!     .run()?;
//! assert_eq!(result.completed_jobs, 4);
//!
//! // Fan out over several schedulers with identical settings:
//! let specs = ["roundrobin".parse()?, "directcontr".parse()?];
//! let results = Simulation::new(&trace).horizon(5_000).run_matrix(&specs)?;
//! assert_eq!(results.len(), 2);
//!
//! // A session needs no hand-built trace: workloads are specs too, and a
//! // whole (workload × scheduler) experiment grid is pure data.
//! let result = Simulation::session()
//!     .workload("fpt:k=2")?
//!     .scheduler("fairshare")?
//!     .horizon(500)
//!     .seed(3)
//!     .run()?;
//! assert!(result.completed_jobs > 0);
//!
//! let grid = Simulation::session().horizon(500).seed(3).run_grid_reports(
//!     &["fpt:k=2".parse()?, "fpt:k=3".parse()?],
//!     &["fifo".parse()?, "roundrobin".parse()?],
//! );
//! assert_eq!(grid.len(), 4);
//! assert!(grid.iter().all(|cell| cell.report.is_ok()));
//! # Ok::<(), fairsched_sim::SimError>(())
//! ```

use crate::engine::{run_scheduler, SimOptions, SimResult};
use crate::report::{MetricError, MetricRegistry, MetricSpec, Report};
use fairsched_core::model::{OrgId, Time, Trace, TraceError};
use fairsched_core::schedule::ScheduleViolation;
use fairsched_core::scheduler::registry::{
    BuildContext, Registry, SchedulerSpec, SpecError,
};
use fairsched_core::scheduler::Scheduler;
use fairsched_workloads::spec::{
    WorkloadContext, WorkloadError, WorkloadRegistry, WorkloadSpec,
};
use std::borrow::Cow;
use std::fmt;

/// Why a simulation session could not produce a result.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The trace fails model validation.
    InvalidTrace(TraceError),
    /// The scheduler spec was malformed, unknown, or had bad parameters.
    Spec(SpecError),
    /// The workload spec was malformed, unknown, had bad parameters, or
    /// failed to build (missing file, malformed SWF, invalid trace).
    Workload(WorkloadError),
    /// A metric spec was malformed, unknown, had bad parameters, or could
    /// not be evaluated (e.g. a reference-based metric with no REF run).
    Metric(MetricError),
    /// `run` was called without choosing a scheduler.
    NoScheduler,
    /// `run` was called on a session with neither a trace nor a workload.
    NoWorkload,
    /// The scheduler broke the greedy contract by selecting an
    /// organization with no waiting jobs.
    BadSelection {
        /// The offending scheduler's display name.
        scheduler: String,
        /// The organization it selected.
        org: OrgId,
        /// When.
        t: Time,
    },
    /// The scheduler picked a machine index outside the free list.
    /// (Before the session API this was silently coerced to machine 0.)
    BadMachinePick {
        /// The offending scheduler's display name.
        scheduler: String,
        /// The picked index.
        picked: usize,
        /// How many machines were actually free.
        free: usize,
        /// When.
        t: Time,
    },
    /// Post-run validation found a model-invariant violation.
    InvalidSchedule {
        /// The offending scheduler's display name.
        scheduler: String,
        /// The violated invariant.
        violation: ScheduleViolation,
    },
    /// A mid-run admission was attempted on a scheduler that cannot
    /// splice new jobs into its state (see
    /// [`Scheduler::admits_jobs`](fairsched_core::scheduler::Scheduler::admits_jobs)).
    AdmitUnsupported {
        /// The declining scheduler's display name.
        scheduler: String,
    },
    /// A mid-run admission's release time is not strictly after the
    /// session's stepped-to high-water mark: the engine has already
    /// processed that time moment, so admitting would rewrite history.
    AdmitTooLate {
        /// The rejected job's release time.
        release: Time,
        /// How far the session has stepped.
        stepped_to: Time,
    },
    /// A session snapshot could not be parsed or replayed.
    Snapshot {
        /// What went wrong (rendered, so the variant stays `Clone`).
        message: String,
    },
    /// A filesystem operation on behalf of a run failed (the durable
    /// experiment runner's cell/journal/report writes). The fields are
    /// rendered strings so the error stays `Clone` like every other
    /// variant and survives serialization into cell files.
    Io {
        /// The attempted operation (`read`, `write`, `rename`, …).
        op: String,
        /// The path involved.
        path: String,
        /// The rendered OS error.
        message: String,
    },
}

impl SimError {
    /// Wraps a [`std::io::Error`] with the operation and path it
    /// interrupted, so filesystem failures surface as typed per-cell
    /// errors instead of panics.
    pub fn io(op: &str, path: impl AsRef<std::path::Path>, e: &std::io::Error) -> Self {
        SimError::Io {
            op: op.to_string(),
            path: path.as_ref().display().to_string(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTrace(e) => write!(f, "invalid trace: {e}"),
            SimError::Spec(e) => write!(f, "{e}"),
            SimError::Workload(e) => write!(f, "{e}"),
            SimError::Metric(e) => write!(f, "{e}"),
            SimError::NoScheduler => {
                write!(f, "no scheduler chosen (call .scheduler(..) before .run())")
            }
            SimError::NoWorkload => write!(
                f,
                "no trace or workload chosen (call Simulation::new(&trace) or .workload(..))"
            ),
            SimError::BadSelection { scheduler, org, t } => write!(
                f,
                "scheduler {scheduler} selected {org} which has no waiting jobs at t={t}"
            ),
            SimError::BadMachinePick { scheduler, picked, free, t } => write!(
                f,
                "scheduler {scheduler} picked machine index {picked} with only {free} free at t={t}"
            ),
            SimError::InvalidSchedule { scheduler, violation } => {
                write!(f, "scheduler {scheduler} produced an invalid schedule: {violation}")
            }
            SimError::AdmitUnsupported { scheduler } => write!(
                f,
                "scheduler {scheduler} does not support mid-run job admission"
            ),
            SimError::AdmitTooLate { release, stepped_to } => write!(
                f,
                "cannot admit a job releasing at t={release}: the session has already \
                 stepped to t={stepped_to} (releases must be strictly later)"
            ),
            SimError::Snapshot { message } => {
                write!(f, "bad session snapshot: {message}")
            }
            SimError::Io { op, path, message } => {
                write!(f, "io error ({op} {path}): {message}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidTrace(e) => Some(e),
            SimError::Spec(e) => Some(e),
            SimError::Workload(e) => Some(e),
            SimError::Metric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::Spec(e)
    }
}

impl From<fairsched_core::journal::FsError> for SimError {
    fn from(e: fairsched_core::journal::FsError) -> Self {
        SimError::Io { op: e.op, path: e.path, message: e.message }
    }
}

impl From<WorkloadError> for SimError {
    fn from(e: WorkloadError) -> Self {
        SimError::Workload(e)
    }
}

impl From<MetricError> for SimError {
    fn from(e: MetricError) -> Self {
        SimError::Metric(e)
    }
}

/// What `run` will instantiate.
enum Chosen {
    None,
    Spec(SchedulerSpec),
    Instance(Box<dyn Scheduler>),
}

/// Where the session's trace comes from.
enum Source<'a> {
    /// Nothing chosen yet (only valid on a [`Simulation::session`]
    /// template that is used for
    /// [`run_grid_reports`](Simulation::run_grid_reports) or completed
    /// with [`workload`](Simulation::workload)).
    None,
    /// A caller-owned trace.
    Trace(&'a Trace),
    /// A workload spec, resolved through the workload registry with the
    /// session seed when the run starts.
    Workload(WorkloadSpec),
}

/// A fluent simulation session over one trace or workload spec.
///
/// Defaults: horizon = [`Trace::completion_horizon`] (run to completion),
/// `validate = false`, `seed = 0`, scheduler resolution through
/// [`Registry::shared`], workload resolution through
/// [`WorkloadRegistry::shared`]. See the [module docs](self) for examples.
pub struct Simulation<'a> {
    source: Source<'a>,
    registry: Option<&'a Registry>,
    workloads: Option<&'a WorkloadRegistry>,
    metrics_registry: Option<&'a MetricRegistry>,
    metrics: Vec<MetricSpec>,
    chosen: Chosen,
    horizon: Option<Time>,
    validate: bool,
    seed: u64,
}

/// The metric specs a report-producing run evaluates when none were
/// chosen with [`Simulation::metrics`]: the classic per-organization
/// summary (machine counts, completions, flow, waiting, exact `ψ_sp`) —
/// reference-free, so it works on any session.
pub const DEFAULT_REPORT_METRICS: [&str; 5] =
    ["machines", "completed", "flow", "waiting", "psi"];

impl Simulation<'static> {
    /// A settings-only session template with no trace or workload chosen
    /// yet: complete it with [`workload`](Simulation::workload) /
    /// [`workload_spec`](Simulation::workload_spec), or use it directly
    /// for [`run_grid_reports`](Simulation::run_grid_reports), which
    /// supplies its own workload axis.
    pub fn session() -> Self {
        Simulation {
            source: Source::None,
            registry: None,
            workloads: None,
            metrics_registry: None,
            metrics: Vec::new(),
            chosen: Chosen::None,
            horizon: None,
            validate: false,
            seed: 0,
        }
    }

    /// A session over a registered workload, by spec string — shorthand
    /// for `Simulation::session().workload(spec)`.
    pub fn from_workload(spec: &str) -> Result<Self, SimError> {
        Simulation::session().workload(spec)
    }
}

impl<'a> Simulation<'a> {
    /// A session over `trace` with default settings.
    pub fn new(trace: &'a Trace) -> Self {
        Simulation { source: Source::Trace(trace), ..Simulation::session() }
    }

    /// Chooses the workload by spec string (`"synth:preset=ricc,scale=0.5"`,
    /// `"fpt:k=8"`, …), replacing any previously chosen trace or workload.
    /// Fails fast on syntax errors; unknown names and bad parameter values
    /// surface from [`run`](Simulation::run), where the workload registry
    /// is consulted. The trace is built with the session
    /// [`seed`](Simulation::seed).
    pub fn workload(mut self, spec: &str) -> Result<Self, SimError> {
        self.source = Source::Workload(spec.parse::<WorkloadSpec>()?);
        Ok(self)
    }

    /// Chooses the workload by parsed spec.
    pub fn workload_spec(mut self, spec: WorkloadSpec) -> Self {
        self.source = Source::Workload(spec);
        self
    }

    /// Resolves workload spec names through `registry` instead of
    /// [`WorkloadRegistry::shared`].
    pub fn workload_registry(mut self, registry: &'a WorkloadRegistry) -> Self {
        self.workloads = Some(registry);
        self
    }

    /// Chooses the metrics the report-producing runs
    /// ([`run_report`](Simulation::run_report),
    /// [`run_matrix_reports`](Simulation::run_matrix_reports),
    /// [`run_grid_reports`](Simulation::run_grid_reports)) evaluate, by
    /// spec string (`"delay"`, `"delay:norm=ideal"`, `"psi"`, …). Fails
    /// fast on syntax errors; unknown names and bad parameter values
    /// surface from the run, where the metric registry is consulted.
    /// Without this call the [`DEFAULT_REPORT_METRICS`] set is used.
    pub fn metrics(mut self, specs: &[&str]) -> Result<Self, SimError> {
        self.metrics = specs
            .iter()
            .map(|s| s.parse::<MetricSpec>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self)
    }

    /// Chooses the metrics by parsed specs.
    pub fn metric_specs(mut self, specs: Vec<MetricSpec>) -> Self {
        self.metrics = specs;
        self
    }

    /// Resolves metric spec names through `registry` instead of
    /// [`MetricRegistry::shared`].
    pub fn metric_registry(mut self, registry: &'a MetricRegistry) -> Self {
        self.metrics_registry = Some(registry);
        self
    }

    /// Chooses the scheduler by spec string (`"ref"`, `"rand:perms=15"`,
    /// …). Fails fast on syntax errors; unknown names and bad parameter
    /// values surface from [`run`](Simulation::run), where the registry is
    /// consulted.
    pub fn scheduler(mut self, spec: &str) -> Result<Self, SimError> {
        self.chosen = Chosen::Spec(spec.parse::<SchedulerSpec>()?);
        Ok(self)
    }

    /// Chooses the scheduler by parsed spec.
    pub fn scheduler_spec(mut self, spec: SchedulerSpec) -> Self {
        self.chosen = Chosen::Spec(spec);
        self
    }

    /// Supplies an already-built scheduler instance (the escape hatch for
    /// custom policies not worth registering).
    pub fn scheduler_instance(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.chosen = Chosen::Instance(scheduler);
        self
    }

    /// Resolves spec names through `registry` instead of
    /// [`Registry::default`].
    pub fn registry(mut self, registry: &'a Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the evaluation horizon (default: the trace's completion
    /// horizon, i.e. run to completion).
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Enables post-run validation of every model invariant (a sorted
    /// event sweep, `O(n log n)` in jobs + entries — usable even at
    /// `--paper-scale`).
    pub fn validate(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Seeds the scheduler's internal randomness (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The registry this session resolves scheduler specs through: the
    /// explicit one if supplied, else the process-wide [`Registry::shared`]
    /// default (built once behind a `OnceLock`, not per call).
    fn resolve_registry(&self) -> &'a Registry {
        self.registry.unwrap_or_else(|| Registry::shared())
    }

    /// Likewise for workload specs.
    fn resolve_workloads(&self) -> &'a WorkloadRegistry {
        self.workloads.unwrap_or_else(|| WorkloadRegistry::shared())
    }

    /// Likewise for metric specs.
    fn resolve_metrics(&self) -> &'a MetricRegistry {
        self.metrics_registry.unwrap_or_else(|| MetricRegistry::shared())
    }

    /// The metric specs report runs evaluate: the chosen ones, or
    /// [`DEFAULT_REPORT_METRICS`].
    fn effective_metrics(&self) -> Vec<MetricSpec> {
        if self.metrics.is_empty() {
            // All defaults are bare names, so no parse (and no panic path)
            // is involved in constructing them.
            DEFAULT_REPORT_METRICS.iter().map(|s| MetricSpec::bare(*s)).collect()
        } else {
            self.metrics.clone()
        }
    }

    /// The session's workload provenance, if it was chosen by spec.
    fn workload_provenance(&self) -> Option<WorkloadSpec> {
        match &self.source {
            Source::Workload(spec) => Some(spec.clone()),
            _ => None,
        }
    }

    /// The session's trace: borrowed when supplied via
    /// [`new`](Simulation::new), built through the workload registry (with
    /// the session seed) when chosen by spec.
    fn resolve_trace(&self) -> Result<Cow<'a, Trace>, SimError> {
        match &self.source {
            Source::None => Err(SimError::NoWorkload),
            Source::Trace(t) => Ok(Cow::Borrowed(*t)),
            Source::Workload(spec) => {
                let ctx = WorkloadContext { seed: self.seed };
                Ok(Cow::Owned(self.resolve_workloads().build(spec, &ctx)?))
            }
        }
    }

    /// Runs the session, consuming it.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let chosen = std::mem::replace(&mut self.chosen, Chosen::None);
        let row = self.row(self.resolve_trace(), None);
        match chosen {
            Chosen::None => row.inputs.trace().and(Err(SimError::NoScheduler)),
            Chosen::Spec(spec) => row.inputs.run(&spec),
            Chosen::Instance(mut scheduler) => {
                row.inputs.run_instance(scheduler.as_mut())
            }
        }
    }

    /// Runs one simulation per spec with this session's settings (same
    /// trace, horizon, seed, validation) — the experiment-matrix helper
    /// behind the bench tables. Any scheduler chosen via
    /// [`scheduler`](Simulation::scheduler) is ignored here; only `specs`
    /// are run. A workload source is resolved **once** and shared by every
    /// cell.
    ///
    /// Sessions are embarrassingly parallel, so the specs are fanned out
    /// over [`parallel_map`](crate::parallel::parallel_map) worker
    /// threads. Each run is seeded exactly as in a serial loop, results
    /// come back in spec order, and on failure the error reported is the
    /// first failing spec's (in spec order) — byte-for-byte the serial
    /// behavior.
    pub fn run_matrix(
        &self,
        specs: &[SchedulerSpec],
    ) -> Result<Vec<SimResult>, SimError> {
        let trace = self.resolve_trace()?;
        self.row(Ok(trace), None).runs(specs).into_iter().collect()
    }

    /// Runs the session and measures it: like [`run`](Simulation::run),
    /// but the outcome is a typed [`Report`] evaluating the session's
    /// metric specs (set with [`metrics`](Simulation::metrics); default
    /// [`DEFAULT_REPORT_METRICS`]). When any chosen metric compares
    /// against REF (`delay`, `ranking`), the exact reference schedule is
    /// run automatically with the same settings — once: a `ref`
    /// scheduler is its own reference (see [`ReportRow`]).
    pub fn run_report(mut self) -> Result<Report, SimError> {
        let chosen = std::mem::replace(&mut self.chosen, Chosen::None);
        let mut row = self.row(self.resolve_trace(), self.workload_provenance());
        match chosen {
            Chosen::None => row.inputs.trace().and(Err(SimError::NoScheduler)),
            Chosen::Spec(spec) => row.report(&spec),
            Chosen::Instance(mut scheduler) => {
                let result = row.inputs.run_instance(scheduler.as_mut());
                row.finish(None, result)
            }
        }
    }

    /// [`run_matrix`](Simulation::run_matrix), reported: one [`Report`]
    /// per scheduler spec, in spec order, over one resolved trace and
    /// (when needed) one shared REF reference run.
    pub fn run_matrix_reports(
        &self,
        specs: &[SchedulerSpec],
    ) -> Result<Vec<Report>, SimError> {
        let trace = self.resolve_trace()?;
        self.row(Ok(trace), self.workload_provenance())
            .reports(specs)
            .into_iter()
            .collect()
    }

    /// Runs the full `(workload × scheduler)` spec grid with this
    /// session's settings — a whole experiment matrix as pure data. Cells
    /// come back in row-major order (all schedulers of `workloads[0]`,
    /// then `workloads[1]`, …), each a typed [`Report`] or the typed
    /// error that stopped it: a workload that fails to build fails *its
    /// row's* cells and the grid continues, so one bad spec cannot take
    /// down a sweep.
    ///
    /// Each workload is one [`ReportRow`]: its trace is built once (with
    /// the session seed), and when a reference-based metric is chosen REF
    /// runs at most once per row — a `ref` column takes that run as its
    /// result instead of repeating it. The other scheduler columns fan
    /// out over [`parallel_map`](crate::parallel::parallel_map).
    pub fn run_grid_reports(
        &self,
        workloads: &[WorkloadSpec],
        schedulers: &[SchedulerSpec],
    ) -> Vec<ReportCell> {
        let mut cells = Vec::with_capacity(workloads.len() * schedulers.len());
        for wspec in workloads {
            let row = self.workload_row(wspec, self.seed).reports(schedulers);
            for (sspec, report) in schedulers.iter().zip(row) {
                cells.push(ReportCell {
                    workload: wspec.clone(),
                    scheduler: sspec.clone(),
                    report,
                });
            }
        }
        cells
    }

    /// Opens the [`ReportRow`] of `workload` built at `workload_seed`:
    /// every cell of the row runs with this session's settings and seed.
    /// A grid row passes the session seed; an experiment with decoupled
    /// seed axes passes its own workload seed. A workload that fails to
    /// build fails every cell of the row with the typed build error.
    pub fn workload_row(
        &self,
        workload: &WorkloadSpec,
        workload_seed: u64,
    ) -> ReportRow<'a> {
        let trace = self
            .resolve_workloads()
            .build(workload, &WorkloadContext { seed: workload_seed })
            .map(Cow::Owned)
            .map_err(SimError::Workload);
        self.row(trace, Some(workload.clone()))
    }

    /// A report row over `trace` with this session's settings.
    fn row(
        &self,
        trace: Result<Cow<'a, Trace>, SimError>,
        workload: Option<WorkloadSpec>,
    ) -> ReportRow<'a> {
        let metric_registry = self.resolve_metrics();
        let metrics = self.effective_metrics();
        ReportRow {
            inputs: RowInputs {
                needs_reference: metric_registry.any_needs_reference(&metrics),
                registry: self.resolve_registry(),
                metric_registry,
                metrics,
                horizon: self.horizon,
                validate: self.validate,
                seed: self.seed,
                trace,
                workload,
            },
            reference: None,
        }
    }
}

/// Whether `spec` is the bare exact reference scheduler, REF.
fn is_reference(spec: &SchedulerSpec) -> bool {
    spec.name() == "ref" && spec.params().next().is_none()
}

/// One row of a report grid: the cells that share a trace and every run
/// setting (registries, metrics, horizon, validation, seed) and differ
/// only in their scheduler.
///
/// A row owns its resolved trace and runs the exact REF reference at
/// most once, on first need:
///
/// * REF runs only after the first successful scheduler run of a cell
///   whose metrics need a reference, so a cell reports its scheduler's
///   error before the reference's;
/// * a bare `ref` column takes the reference as its result instead of
///   running REF again — it is the same registry, trace, horizon and
///   validation, and the `ref` factory ignores the seed;
/// * the first `ref` column to run fills the reference.
///
/// Every run method of [`Simulation`] and the experiment runner go
/// through rows; open one with [`Simulation::workload_row`].
pub struct ReportRow<'a> {
    inputs: RowInputs<'a>,
    /// The REF run, once something needed it.
    reference: Option<Result<SimResult, SimError>>,
}

/// Everything a row's cells share (split from the reference slot so a
/// borrowed reference and the inputs can be used together).
struct RowInputs<'a> {
    registry: &'a Registry,
    metric_registry: &'a MetricRegistry,
    metrics: Vec<MetricSpec>,
    needs_reference: bool,
    horizon: Option<Time>,
    validate: bool,
    seed: u64,
    trace: Result<Cow<'a, Trace>, SimError>,
    workload: Option<WorkloadSpec>,
}

impl RowInputs<'_> {
    fn trace(&self) -> Result<&Trace, SimError> {
        self.trace.as_deref().map_err(Clone::clone)
    }

    /// Builds `spec` through the registry and runs it over the trace.
    fn run(&self, spec: &SchedulerSpec) -> Result<SimResult, SimError> {
        let trace = self.trace()?;
        let ctx = BuildContext { trace, seed: self.seed };
        self.run_instance(self.registry.build(spec, &ctx)?.as_mut())
    }

    /// Runs `scheduler` over the trace; the horizon defaults to the
    /// trace's completion horizon (run to completion).
    fn run_instance(&self, scheduler: &mut dyn Scheduler) -> Result<SimResult, SimError> {
        let trace = self.trace()?;
        let options = SimOptions {
            horizon: self.horizon.unwrap_or_else(|| trace.completion_horizon()),
            validate: self.validate,
        };
        run_scheduler(trace, scheduler, options)
    }

    /// The row's REF run from `slot`, running it on first use.
    fn reference<'r>(
        &self,
        slot: &'r mut Option<Result<SimResult, SimError>>,
    ) -> Result<&'r SimResult, SimError> {
        slot.get_or_insert_with(|| self.run(&SchedulerSpec::bare("ref")))
            .as_ref()
            .map_err(Clone::clone)
    }

    fn evaluate(
        &self,
        scheduler: Option<&SchedulerSpec>,
        result: &SimResult,
        reference: Option<&SimResult>,
    ) -> Result<Report, SimError> {
        let mut report = Report::evaluate(
            self.metric_registry,
            &self.metrics,
            self.trace()?,
            result,
            reference,
        )?;
        report.seed = self.seed;
        report.scheduler_spec = scheduler.cloned();
        report.workload_spec = self.workload.clone();
        Ok(report)
    }
}

impl ReportRow<'_> {
    /// Runs `spec` over the row's trace and measures it with the row's
    /// metrics. A bare `ref` spec is measured on the row's reference run.
    pub fn report(&mut self, spec: &SchedulerSpec) -> Result<Report, SimError> {
        if is_reference(spec) {
            let reference = self.inputs.reference(&mut self.reference)?;
            return self.inputs.evaluate(Some(spec), reference, Some(reference));
        }
        let result = self.inputs.run(spec);
        self.finish(Some(spec), result)
    }

    /// Measures one scheduler run of the row, pulling in the reference
    /// only when the run succeeded and the metrics need it.
    fn finish(
        &mut self,
        scheduler: Option<&SchedulerSpec>,
        result: Result<SimResult, SimError>,
    ) -> Result<Report, SimError> {
        let result = result?;
        let reference = if self.inputs.needs_reference {
            Some(self.inputs.reference(&mut self.reference)?)
        } else {
            None
        };
        self.inputs.evaluate(scheduler, &result, reference)
    }

    /// One plain run per spec, in spec order, fanned out over
    /// [`parallel_map`](crate::parallel::parallel_map): each run is
    /// seeded as in a serial loop, so the results equal one.
    fn runs(&self, specs: &[SchedulerSpec]) -> Vec<Result<SimResult, SimError>> {
        let inputs = &self.inputs;
        crate::parallel::parallel_map(specs.iter().collect(), |spec| inputs.run(spec))
    }

    /// [`report`](Self::report) for every spec, in spec order. The
    /// non-reference runs fan out over
    /// [`parallel_map`](crate::parallel::parallel_map); the reference
    /// and its measurements follow on this thread, in spec order, so the
    /// outcome equals a serial loop of `report` calls.
    fn reports(&mut self, specs: &[SchedulerSpec]) -> Vec<Result<Report, SimError>> {
        let inputs = &self.inputs;
        let runs = crate::parallel::parallel_map(specs.iter().collect(), |spec| {
            (!is_reference(spec)).then(|| inputs.run(spec))
        });
        specs
            .iter()
            .zip(runs)
            .map(|(spec, run)| match run {
                Some(result) => self.finish(Some(spec), result),
                None => self.report(spec),
            })
            .collect()
    }
}

impl fmt::Debug for ReportRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReportRow")
            .field("workload", &self.inputs.workload)
            .field("seed", &self.inputs.seed)
            .field("reference", &self.reference.as_ref().map(Result::is_ok))
            .finish()
    }
}

/// One cell of a [`Simulation::run_grid_reports`] sweep: which workload ×
/// which scheduler, and the typed measured outcome.
#[derive(Debug)]
pub struct ReportCell {
    /// The workload axis value.
    pub workload: WorkloadSpec,
    /// The scheduler axis value.
    pub scheduler: SchedulerSpec,
    /// The measured outcome; errors are per-cell, the grid always
    /// completes.
    pub report: Result<Report, SimError>,
}

impl fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("horizon", &self.horizon)
            .field("validate", &self.validate)
            .field("seed", &self.seed)
            .field(
                "source",
                &match &self.source {
                    Source::None => "<none>".to_string(),
                    Source::Trace(t) => {
                        format!("<trace {} orgs, {} jobs>", t.n_orgs(), t.n_jobs())
                    }
                    Source::Workload(s) => s.to_string(),
                },
            )
            .field(
                "scheduler",
                &match &self.chosen {
                    Chosen::None => "<none>".to_string(),
                    Chosen::Spec(s) => s.to_string(),
                    Chosen::Instance(s) => format!("<instance {}>", s.name()),
                },
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_core::scheduler::FifoScheduler;
    use fairsched_workloads::spec::WorkloadRegistry;

    fn small_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 3).job(c, 0, 2).job(a, 2, 1).job(c, 4, 4);
        b.build().unwrap()
    }

    #[test]
    fn builder_runs_spec_through_default_registry() {
        let trace = small_trace();
        let result = Simulation::new(&trace)
            .scheduler("fairshare")
            .unwrap()
            .horizon(50)
            .validate(true)
            .seed(7)
            .run()
            .unwrap();
        assert_eq!(result.scheduler, "FairShare");
        assert_eq!(result.completed_jobs, 4);
    }

    #[test]
    fn default_horizon_runs_to_completion() {
        let trace = small_trace();
        let result = Simulation::new(&trace).scheduler("fifo").unwrap().run().unwrap();
        assert_eq!(result.completed_jobs, trace.n_jobs());
        assert_eq!(result.horizon, trace.completion_horizon());
    }

    #[test]
    fn missing_scheduler_is_typed_error() {
        let trace = small_trace();
        assert!(matches!(Simulation::new(&trace).run(), Err(SimError::NoScheduler)));
    }

    #[test]
    fn malformed_spec_fails_fast() {
        let trace = small_trace();
        let err = Simulation::new(&trace).scheduler("rand:perms");
        assert!(matches!(err, Err(SimError::Spec(SpecError::BadSyntax { .. }))));
    }

    #[test]
    fn unknown_scheduler_surfaces_at_run() {
        let trace = small_trace();
        let err = Simulation::new(&trace).scheduler("warp-drive").unwrap().run();
        assert!(matches!(err, Err(SimError::Spec(SpecError::UnknownScheduler { .. }))));
    }

    #[test]
    fn instance_escape_hatch() {
        let trace = small_trace();
        let result = Simulation::new(&trace)
            .scheduler_instance(Box::new(FifoScheduler::new()))
            .horizon(50)
            .run()
            .unwrap();
        assert_eq!(result.scheduler, "Fifo");
    }

    #[test]
    fn run_matrix_fans_out_in_order() {
        let trace = small_trace();
        let specs: Vec<SchedulerSpec> = ["roundrobin", "fairshare", "rand:perms=5"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let results = Simulation::new(&trace)
            .horizon(50)
            .validate(true)
            .seed(3)
            .run_matrix(&specs)
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].scheduler, "RoundRobin");
        assert_eq!(results[1].scheduler, "FairShare");
        assert_eq!(results[2].scheduler, "Rand(N=5)");
        for r in &results {
            assert_eq!(r.completed_jobs, 4);
        }
    }

    /// The parallel fan-out must be indistinguishable from a serial loop:
    /// same specs, same seeds, same order, same schedules and ψ vectors.
    #[test]
    fn run_matrix_parallel_matches_serial_runs() {
        let trace = small_trace();
        let specs: Vec<SchedulerSpec> = [
            "ref",
            "rand:perms=7",
            "roundrobin",
            "fairshare",
            "utfairshare",
            "currfairshare",
            "directcontr",
            "fifo",
            "random",
            "rand:perms=20",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let session = Simulation::new(&trace).horizon(60).validate(true).seed(11);
        let parallel = session.run_matrix(&specs).unwrap();
        assert_eq!(parallel.len(), specs.len());
        for (spec, par) in specs.iter().zip(&parallel) {
            let serial = Simulation::new(&trace)
                .scheduler_spec(spec.clone())
                .horizon(60)
                .validate(true)
                .seed(11)
                .run()
                .unwrap();
            assert_eq!(par.scheduler, serial.scheduler);
            assert_eq!(par.schedule, serial.schedule, "schedule diverged for {spec}");
            assert_eq!(par.psi, serial.psi, "ψ diverged for {spec}");
            assert_eq!(par.completed_jobs, serial.completed_jobs);
        }
    }

    /// Fan-out is deterministic run-to-run (worker interleaving must not
    /// leak into results).
    #[test]
    fn run_matrix_parallel_is_deterministic() {
        let trace = small_trace();
        let specs: Vec<SchedulerSpec> = ["rand:perms=9", "random", "directcontr", "ref"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let run = || {
            Simulation::new(&trace)
                .horizon(50)
                .seed(23)
                .run_matrix(&specs)
                .unwrap()
                .into_iter()
                .map(|r| (r.scheduler, r.psi, r.schedule.entries().to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_matrix_propagates_spec_errors() {
        let trace = small_trace();
        let specs = vec!["roundrobin".parse().unwrap(), "nonesuch".parse().unwrap()];
        assert!(matches!(
            Simulation::new(&trace).run_matrix(&specs),
            Err(SimError::Spec(SpecError::UnknownScheduler { .. }))
        ));
    }

    #[test]
    fn custom_registry_is_consulted() {
        let trace = small_trace();
        let registry = Registry::new(); // deliberately empty
        let err =
            Simulation::new(&trace).registry(&registry).scheduler("fifo").unwrap().run();
        assert!(matches!(err, Err(SimError::Spec(SpecError::UnknownScheduler { .. }))));
    }

    #[test]
    fn workload_source_builds_through_registry() {
        let result = Simulation::session()
            .workload("fpt:k=2")
            .unwrap()
            .scheduler("fifo")
            .unwrap()
            .horizon(500)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(result.scheduler, "Fifo");
        assert!(result.completed_jobs > 0);
    }

    #[test]
    fn workload_source_matches_direct_registry_build() {
        use fairsched_workloads::spec::WorkloadRegistry;
        let trace = WorkloadRegistry::shared()
            .build_str("fpt:k=2", &WorkloadContext { seed: 9 })
            .unwrap();
        let direct = Simulation::new(&trace)
            .scheduler("roundrobin")
            .unwrap()
            .horizon(400)
            .seed(9)
            .run()
            .unwrap();
        let via_spec = Simulation::from_workload("fpt:k=2")
            .unwrap()
            .scheduler("roundrobin")
            .unwrap()
            .horizon(400)
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(direct.schedule, via_spec.schedule);
        assert_eq!(direct.psi, via_spec.psi);
    }

    #[test]
    fn session_without_source_is_typed_error() {
        let err = Simulation::session().scheduler("fifo").unwrap().run();
        assert!(matches!(err, Err(SimError::NoWorkload)));
    }

    #[test]
    fn malformed_workload_spec_fails_fast() {
        let err = Simulation::session().workload("fpt:k");
        assert!(matches!(err, Err(SimError::Workload(WorkloadError::BadSyntax { .. }))));
    }

    #[test]
    fn unknown_workload_surfaces_at_run() {
        let err = Simulation::session()
            // lint:allow(spec-literal) deliberately unregistered family.
            .workload("marsbase:crew=3")
            .unwrap()
            .scheduler("fifo")
            .unwrap()
            .run();
        assert!(matches!(
            err,
            Err(SimError::Workload(WorkloadError::UnknownWorkload { .. }))
        ));
    }

    #[test]
    fn run_matrix_over_workload_source_resolves_once_and_fans_out() {
        let specs: Vec<SchedulerSpec> = ["fifo", "roundrobin", "rand:perms=5"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let session =
            Simulation::session().workload("fpt:k=3").unwrap().horizon(600).seed(7);
        let results = session.run_matrix(&specs).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].scheduler, "Fifo");
        assert_eq!(results[2].scheduler, "Rand(N=5)");
    }

    /// The grid must equal a serial `run_report` loop cell for cell: same
    /// row-major order, same reports (the default metrics carry every
    /// organization's ψ, completions, flow and waiting time, so a
    /// diverging schedule shows), same provenance.
    #[test]
    fn run_grid_reports_match_serial_run_report_loop() {
        use fairsched_workloads::spec::WorkloadRegistry;
        let workloads: Vec<WorkloadSpec> = ["fpt:k=2", "fpt:horizon=500,k=3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let schedulers: Vec<SchedulerSpec> = ["fifo", "fairshare", "rand:perms=4"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Simulation::session()
            .horizon(400)
            .validate(true)
            .seed(11)
            .run_grid_reports(&workloads, &schedulers);
        assert_eq!(grid.len(), 6);
        let mut i = 0;
        for wspec in &workloads {
            let trace = WorkloadRegistry::shared()
                .build(wspec, &WorkloadContext { seed: 11 })
                .unwrap();
            for sspec in &schedulers {
                let cell = &grid[i];
                assert_eq!(&cell.workload, wspec, "row-major order broken at {i}");
                assert_eq!(&cell.scheduler, sspec, "row-major order broken at {i}");
                let mut serial = Simulation::new(&trace)
                    .scheduler_spec(sspec.clone())
                    .horizon(400)
                    .validate(true)
                    .seed(11)
                    .run_report()
                    .unwrap();
                serial.workload_spec = Some(wspec.clone());
                let cell_report = cell.report.as_ref().unwrap();
                assert_eq!(cell_report.to_json(), serial.to_json(), "cell {i} diverged");
                i += 1;
            }
        }
    }

    /// The session seed is the workload seed of every grid row: the same
    /// seed rebuilds the same trace, and a different one a different
    /// trace (`fifo` ignores the seed, so only the workload can differ).
    #[test]
    fn grid_seed_flows_into_workload_builds() {
        use fairsched_workloads::spec::WorkloadRegistry;
        let workload: WorkloadSpec = "fpt:k=2".parse().unwrap();
        let columns = |seed| {
            let mut grid =
                Simulation::session().horizon(300).seed(seed).run_grid_reports(
                    std::slice::from_ref(&workload),
                    &["fifo".parse().unwrap()],
                );
            grid.remove(0).report.unwrap().columns
        };
        let direct = |seed| {
            let trace = WorkloadRegistry::shared()
                .build(&workload, &WorkloadContext { seed })
                .unwrap();
            Simulation::new(&trace)
                .scheduler("fifo")
                .unwrap()
                .horizon(300)
                .run_report()
                .unwrap()
                .columns
        };
        assert_eq!(columns(4), columns(4));
        assert_eq!(columns(4), direct(4), "the grid must build at the session seed");
        assert_ne!(
            columns(4),
            columns(5),
            "different seeds must yield different workloads"
        );
    }

    #[test]
    fn run_report_defaults_to_the_classic_summary() {
        let trace = small_trace();
        let report = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .run_report()
            .unwrap();
        assert_eq!(report.metric_specs(), DEFAULT_REPORT_METRICS);
        assert_eq!(report.scheduler, "Fifo");
        assert_eq!(report.scheduler_spec.as_ref().unwrap().to_string(), "fifo");
        assert_eq!(report.orgs, ["a", "b"]);
        // machines column reflects the trace.
        let machines = report.column("machines").unwrap();
        assert_eq!(machines.per_org.len(), 2);
    }

    #[test]
    fn run_report_runs_the_reference_for_delay_metrics() {
        use crate::report::MetricValue;
        let trace = small_trace();
        let report = Simulation::new(&trace)
            .scheduler("roundrobin")
            .unwrap()
            .horizon(50)
            .metrics(&["delay", "psi", "ranking"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(report.metric_specs(), ["delay", "psi", "ranking"]);
        assert!(matches!(
            report.column("delay").unwrap().aggregate,
            MetricValue::Float(v) if v >= 0.0
        ));
        // REF against itself is perfectly fair: delay 0 everywhere.
        let self_fair = Simulation::new(&trace)
            .scheduler("ref")
            .unwrap()
            .horizon(50)
            .metrics(&["delay"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(self_fair.column("delay").unwrap().aggregate, MetricValue::Float(0.0));
    }

    #[test]
    fn malformed_metric_spec_fails_fast_and_unknown_surfaces_at_run() {
        let trace = small_trace();
        let err = Simulation::new(&trace).metrics(&["delay:norm"]);
        assert!(matches!(err, Err(SimError::Metric(MetricError::BadSyntax { .. }))));
        let err = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .metrics(&["vibes"])
            .unwrap()
            .run_report();
        assert!(matches!(err, Err(SimError::Metric(MetricError::UnknownMetric { .. }))));
    }

    #[test]
    fn run_matrix_reports_match_individual_runs_and_carry_provenance() {
        let specs: Vec<SchedulerSpec> =
            ["fifo", "fairshare"].iter().map(|s| s.parse().unwrap()).collect();
        let session = Simulation::session()
            .workload("fpt:k=2")
            .unwrap()
            .horizon(400)
            .seed(9)
            .metrics(&["delay", "psi"])
            .unwrap();
        let reports = session.run_matrix_reports(&specs).unwrap();
        assert_eq!(reports.len(), 2);
        for (spec, report) in specs.iter().zip(&reports) {
            assert_eq!(report.scheduler_spec.as_ref().unwrap(), spec);
            assert_eq!(report.workload_spec.as_ref().unwrap().to_string(), "fpt:k=2");
            assert_eq!(report.seed, 9);
            let solo = Simulation::session()
                .workload("fpt:k=2")
                .unwrap()
                .scheduler_spec(spec.clone())
                .horizon(400)
                .seed(9)
                .metrics(&["delay", "psi"])
                .unwrap()
                .run_report()
                .unwrap();
            assert_eq!(
                report.column("psi").unwrap().per_org,
                solo.column("psi").unwrap().per_org,
                "matrix report diverged from solo run for {spec}"
            );
            assert_eq!(
                report.column("delay").unwrap().aggregate,
                solo.column("delay").unwrap().aggregate
            );
        }
    }

    #[test]
    fn run_grid_reports_collect_typed_errors_and_continue() {
        let workloads: Vec<WorkloadSpec> = ["fpt:k=2", "fpt:k=0", "fpt:k=3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let schedulers: Vec<SchedulerSpec> =
            ["fifo", "roundrobin"].iter().map(|s| s.parse().unwrap()).collect();
        let cells = Simulation::session()
            .horizon(300)
            .seed(5)
            .metrics(&["completed", "psi"])
            .unwrap()
            .run_grid_reports(&workloads, &schedulers);
        assert_eq!(cells.len(), 6);
        for cell in &cells {
            if cell.workload.to_string() == "fpt:k=0" {
                assert!(matches!(
                    cell.report,
                    Err(SimError::Workload(WorkloadError::BadParam { .. }))
                ));
            } else {
                let report = cell.report.as_ref().unwrap();
                assert_eq!(report.workload_spec.as_ref().unwrap(), &cell.workload);
                assert_eq!(report.scheduler_spec.as_ref().unwrap(), &cell.scheduler);
                assert_eq!(report.metric_specs(), ["completed", "psi"]);
            }
        }
        // Bad *scheduler* specs likewise fail per cell, not the grid.
        let cells = Simulation::session().horizon(300).seed(5).run_grid_reports(
            &["fpt:k=2".parse().unwrap()],
            &["fifo".parse().unwrap(), "warpdrive".parse().unwrap()],
        );
        assert!(cells[0].report.is_ok());
        assert!(matches!(
            cells[1].report,
            Err(SimError::Spec(SpecError::UnknownScheduler { .. }))
        ));
    }

    /// The time axis flows through the session pipeline transparently:
    /// a `timeline` spec triggers the automatic REF run, the report
    /// carries the series, and its endpoint equals the scalar `delay`.
    #[test]
    fn run_report_carries_timeline_series() {
        let trace = small_trace();
        let report = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .metrics(&["delay", "timeline:samples=8"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(report.metric_specs(), ["delay", "timeline:samples=8"]);
        let series = report.time_series("timeline:samples=8").unwrap();
        assert_eq!(*series.times.last().unwrap(), 50);
        assert_eq!(
            series.final_aggregate().unwrap(),
            report.column("delay").unwrap().aggregate,
            "trajectory endpoint must equal the scalar delay"
        );
        // The timeline alone also triggers the automatic reference run.
        let solo = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .metrics(&["timeline:samples=8"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(solo.time_series("timeline:samples=8").unwrap(), series);
        // A zero sample count is a typed error, not the core panic.
        let err = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .metrics(&["timeline:samples=0"])
            .unwrap()
            .run_report();
        assert!(matches!(err, Err(SimError::Metric(MetricError::BadParam { .. }))));
    }

    #[test]
    fn grid_reports_carry_timeline_series() {
        let cells = Simulation::session()
            .horizon(300)
            .seed(5)
            .metrics(&["timeline:samples=6"])
            .unwrap()
            .run_grid_reports(
                &["fpt:k=2".parse().unwrap()],
                &["fifo".parse().unwrap(), "fairshare".parse().unwrap()],
            );
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            let report = cell.report.as_ref().unwrap();
            let s = report.time_series("timeline:samples=6").unwrap();
            assert_eq!(*s.times.last().unwrap(), 300);
            assert_eq!(s.aggregate.len(), s.times.len());
            assert!(s.times.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// A `ref` factory that counts its builds (each build is one REF run).
    struct CountingRef(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl fairsched_core::scheduler::registry::SchedulerFactory for CountingRef {
        fn name(&self) -> &str {
            "ref"
        }

        fn summary(&self) -> &str {
            "REF, counting its builds"
        }

        fn build(
            &self,
            _: &SchedulerSpec,
            ctx: &BuildContext<'_>,
        ) -> Result<Box<dyn Scheduler>, SpecError> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(Box::new(fairsched_core::scheduler::RefScheduler::new(ctx.trace)))
        }
    }

    /// A report row runs REF at most once — a `ref` column is its own
    /// reference — and its reports equal `Report::evaluate` over
    /// independently run schedulers, byte for byte.
    #[test]
    fn report_rows_build_ref_at_most_once() {
        use std::sync::atomic::Ordering;
        let builds = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut registry = Registry::default();
        registry.register(Box::new(CountingRef(builds.clone())));
        let trace = WorkloadRegistry::shared()
            .build_str("fpt:k=3", &WorkloadContext { seed: 5 })
            .unwrap();
        let options = SimOptions { horizon: 300, validate: true };
        let solo = |spec: &str| {
            let ctx = BuildContext { trace: &trace, seed: 5 };
            let mut scheduler = Registry::shared().build_str(spec, &ctx).unwrap();
            run_scheduler(&trace, scheduler.as_mut(), options).unwrap()
        };
        let reference = solo("ref");
        let expected = |spec: &str, metrics: &[&str]| {
            let metrics: Vec<MetricSpec> =
                metrics.iter().map(|m| m.parse().unwrap()).collect();
            let registry = MetricRegistry::shared();
            let reference = registry.any_needs_reference(&metrics).then_some(&reference);
            let mut report =
                Report::evaluate(registry, &metrics, &trace, &solo(spec), reference)
                    .unwrap();
            report.seed = 5;
            report.scheduler_spec = Some(spec.parse().unwrap());
            report.to_json()
        };
        let session = |metrics: &[&str]| {
            Simulation::new(&trace)
                .registry(&registry)
                .horizon(300)
                .validate(true)
                .seed(5)
                .metrics(metrics)
                .unwrap()
        };
        let columns = ["fifo", "ref", "fairshare"];
        let specs: Vec<SchedulerSpec> =
            columns.iter().map(|s| s.parse().unwrap()).collect();
        let count = || builds.swap(0, Ordering::SeqCst);

        let report = session(&["delay"]).scheduler("ref").unwrap().run_report().unwrap();
        assert_eq!(count(), 1, "run_report(ref) with delay");
        assert_eq!(report.to_json(), expected("ref", &["delay"]));

        for metrics in [&["delay", "psi"][..], &["psi"]] {
            let reports = session(metrics).run_matrix_reports(&specs).unwrap();
            assert_eq!(count(), 1, "run_matrix_reports with {metrics:?}");
            for (column, report) in columns.iter().zip(&reports) {
                assert_eq!(report.to_json(), expected(column, metrics), "{column}");
            }
        }
        let no_ref = [specs[0].clone(), specs[2].clone()];
        session(&["psi"]).run_matrix_reports(&no_ref).unwrap();
        assert_eq!(count(), 0, "psi without a ref column needs no REF");

        // A grid runs REF once per row.
        let cells = Simulation::session()
            .registry(&registry)
            .horizon(300)
            .seed(5)
            .metrics(&["delay"])
            .unwrap()
            .run_grid_reports(
                &["fpt:k=2".parse().unwrap(), "fpt:k=3".parse().unwrap()],
                &specs,
            );
        assert_eq!(count(), 2, "one REF run per grid row");
        assert!(cells.iter().all(|cell| cell.report.is_ok()));
    }

    /// A cell reports its scheduler's error before the reference's, and a
    /// row whose reference fails still reports its reference-free cells.
    #[test]
    fn report_row_errors_keep_their_precedence() {
        let mut b = Trace::builder();
        for i in 0..17 {
            let org = b.org(format!("o{i}"), 1);
            b.job(org, 0, 2);
        }
        let trace = b.build().unwrap();
        let specs: Vec<SchedulerSpec> =
            ["warpdrive", "fifo", "ref"].iter().map(|s| s.parse().unwrap()).collect();
        let run = |metrics: &[&str]| {
            Simulation::new(&trace)
                .horizon(20)
                .metrics(metrics)
                .unwrap()
                .row(Ok(Cow::Borrowed(&trace)), None)
                .reports(&specs)
        };
        let too_many = |r: &Result<Report, SimError>| {
            matches!(
                r,
                Err(SimError::Spec(SpecError::TooManyOrgs { orgs: 17, max: 16, .. }))
            )
        };
        let delay = run(&["delay", "psi"]);
        assert!(matches!(
            delay[0],
            Err(SimError::Spec(SpecError::UnknownScheduler { .. }))
        ));
        assert!(too_many(&delay[1]) && too_many(&delay[2]), "{delay:?}");
        let psi = run(&["psi"]);
        assert!(psi[1].is_ok() && too_many(&psi[2]), "{psi:?}");
    }

    #[test]
    fn seed_reaches_randomized_schedulers() {
        let trace = small_trace();
        let run = |seed| {
            Simulation::new(&trace)
                .scheduler("random")
                .unwrap()
                .horizon(40)
                .seed(seed)
                .run()
                .unwrap()
                .schedule
                .entries()
                .to_vec()
        };
        assert_eq!(run(5), run(5));
    }
}
