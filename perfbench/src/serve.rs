//! `serve-k8`: an in-process daemon fed by an open-loop generator.
//!
//! The daemon serves `fpt:k=8` with `ref`. At [`RATE`] messages per
//! second, `submit` (seeded org and processing time, release just past
//! the stepped-to mark) alternates with `advance` (+[`STEP`]). Each turn
//! of the drive loop submits every message that has fallen due and then
//! calls `Daemon::drain` — `Daemon::run` without its poll sleep, so idle
//! turns poll an empty inbox. A message's round trip runs from its due
//! time until the drain that commits its result returns; the benchmark
//! then reads the result and checks it is `ok`.
//!
//! A round serves one fresh daemon per daemon seed, each from its own
//! stepped-to mark, and rounds repeat the same messages for the run's
//! time, so each message's round trip is a median over the rounds.

use crate::calib::{Clock, Kernel};
use crate::common::{
    as_duration, derived_seed, metric, mix, read, timed, Budget, Ctx, Outcome,
};
use crate::loadgen::{Record, Schedule};
use crate::setup::{self, Setup};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::tracer::Tracer;
use fairsched_core::scheduler::RefScheduler;
use fairsched_serve::{Daemon, Message, ServeConfig, SubmissionQueue};
use fairsched_sim::{run_scheduler, SimOptions};
use serde::Value;
use std::path::Path;
use std::time::Instant;

const WORKLOAD: &str = "fpt:k=8";
const SCHEDULER: &str = "ref";
/// Offered load, messages per second.
pub const RATE: f64 = 20.0;
/// Time units each `advance` moves the stepped-to mark.
pub const STEP: u64 = 10;
const ORGS: u64 = 8;
/// Constituent-call repetitions on the final daemon state.
const CONSTITUENT_REPS: usize = 5;
/// Messages per open-loop session (0.5 s at [`RATE`]). Short sessions
/// leave time for many rounds, so each message's round trip is a median
/// over many repetitions.
const MESSAGES: usize = 10;
/// Daemon seeds. Each round serves one fresh daemon per seed, so one
/// run's figures average over several traces.
const DAEMON_SEEDS: u64 = 4;
/// Daemon seed `d`'s sessions start at stepped-to mark
/// `d * START_SPACING`, reached by one untimed `advance`: together the
/// sessions cover the `fpt` trace's 2000-unit horizon, so persist and
/// endpoint refresh are measured on early and grown states alike.
const START_SPACING: u64 = 500;

fn config(seed: u64) -> ServeConfig {
    ServeConfig { workload: WORKLOAD.to_string(), scheduler: SCHEDULER.to_string(), seed }
}

fn open_fresh(dir: &Path, seed: u64) -> Result<Daemon, String> {
    config(seed).init(dir).map_err(|e| format!("serve init: {e}"))?;
    Daemon::open(dir).map_err(|e| format!("serve open: {e}"))
}

/// The `i`-th message of the seeded stream; `mark` is the stepped-to
/// mark every earlier `advance` leads to.
fn message(seed: u64, i: usize, mark: &mut u64) -> Message {
    if i % 2 == 1 {
        *mark += STEP;
        return Message::Advance { until: *mark };
    }
    let r = mix(seed, 1_000 + i as u64);
    Message::Submit {
        org: (r % ORGS) as u32,
        release: *mark + 1 + (r >> 8) % 3,
        proc_time: 1 + (r >> 16) % 80,
        deadline: None,
    }
}

/// What one open-loop session measured.
struct SessionStats {
    records: Vec<Record>,
    busy_s: f64,
    drains: usize,
    reopen_ms: f64,
}

impl SessionStats {
    fn rtts(&self) -> Vec<f64> {
        self.records.iter().filter_map(Record::rtt_ms).collect()
    }

    fn lag_max_ms(&self) -> f64 {
        self.records.iter().map(Record::lag_ms).fold(0.0, f64::max)
    }
}

/// Whether result `seq` is committed, `ok`, and answers `sent`.
fn result_ok(queue: &SubmissionQueue, seq: u64, sent: &Message) -> Result<bool, String> {
    let doc = serde_json::parse_value(&read(&queue.result_path(seq))?)
        .map_err(|e| format!("result {seq}: {e}"))?;
    let kind = match sent {
        Message::Submit { .. } => "submit",
        Message::Advance { .. } => "advance",
        Message::Stop => "stop",
    };
    Ok(doc.get("ok") == Some(&Value::Bool(true))
        && doc.get("kind") == Some(&Value::String(kind.to_string())))
}

/// Opens a fresh daemon in `dir`, advances it to `start` (untimed),
/// drives it with [`MESSAGES`] open-loop messages, then checks the
/// schedule against a batch run and times a crash-recovery reopen.
fn session(
    dir: &Path,
    seed: u64,
    start: u64,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<SessionStats, String> {
    let count = MESSAGES;
    let mut daemon = open_fresh(dir, seed)?;
    let queue = SubmissionQueue::open(dir).map_err(|e| format!("{e}"))?;
    if start > 0 {
        let warm_up = Message::Advance { until: start };
        queue.submit(&warm_up).map_err(|e| format!("submit warm-up: {e}"))?;
        let n = daemon.drain().map_err(|e| format!("drain warm-up: {e}"))?;
        let ok = n == 1 && result_ok(&queue, daemon.applied_seq(), &warm_up)?;
        out.attempted += 1;
        out.check(format!("warm-up advance to {start} committed ok"), ok);
    }
    let schedule = Schedule::new(RATE, count);
    let mut sent: Vec<Message> = Vec::with_capacity(count);
    let mut records: Vec<Record> = Vec::with_capacity(count);
    let mut mark = daemon.session().stepped_to().unwrap_or(0);
    let base_seq = daemon.applied_seq();
    let (mut busy_s, mut drains, mut resolved, mut all_ok) = (0.0, 0usize, 0usize, true);
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;

    while resolved < count {
        for i in sent.len()..schedule.due_by(now_ns()) {
            let m = message(seed, i, &mut mark);
            t.begin_op();
            let (submitted, s) = timed(|| t.span("serve.submit", |_| queue.submit(&m)));
            submitted.map_err(|e| format!("submit {i}: {e}"))?;
            busy_s += s;
            records.push(Record {
                due_ns: schedule.due_ns(i),
                sent_ns: now_ns(),
                done_ns: None,
            });
            sent.push(m);
        }
        if resolved == sent.len() {
            // An idle turn: the drain finds an empty inbox (untraced).
            match daemon.drain() {
                Ok(0) => continue,
                Ok(n) => return Err(format!("idle drain applied {n} unsent messages")),
                Err(e) => return Err(format!("drain: {e}")),
            }
        }
        let (drained, s) = timed(|| t.span("serve.drain", |_| daemon.drain()));
        let n = drained.map_err(|e| format!("drain: {e}"))?;
        let done = now_ns();
        busy_s += s;
        drains += 1;
        t.count("serve.drained", n as f64);
        if n == 0 || resolved + n > sent.len() {
            return Err(format!(
                "drain applied {n} with {} outstanding",
                sent.len() - resolved
            ));
        }
        for k in resolved..resolved + n {
            records[k].done_ns = Some(done);
            let ok = result_ok(&queue, base_seq + 1 + k as u64, &sent[k])?;
            all_ok &= ok;
            out.failed += u64::from(!ok);
        }
        resolved += n;
    }
    out.attempted += count as u64;
    out.check("every result committed ok", all_ok);
    out.check(
        "batch_check: served schedule == batch run over the grown trace",
        daemon.batch_check().map_err(|e| format!("batch_check: {e}"))?,
    );

    if t.enabled() {
        t.constituents(|t| constituents(&daemon, t))?;
    }

    let expected_seq = base_seq + count as u64;
    drop(daemon);
    let (reopened, reopen_s) = timed(|| t.span("serve.open", |_| Daemon::open(dir)));
    let reopened = reopened.map_err(|e| format!("reopen: {e}"))?;
    out.check(
        format!(
            "reopened applied_seq {} == messages sent {expected_seq}",
            reopened.applied_seq()
        ),
        reopened.applied_seq() == expected_seq,
    );
    Ok(SessionStats { records, busy_s, drains, reopen_ms: reopen_s * 1e3 })
}

/// Times, on the final daemon state, the public calls a drain composes
/// beside the endpoint refresh: `persist` (snapshot + `parse_value` +
/// pretty render + `atomic_write`), `SimSession::snapshot` alone, and
/// `parse_value` of the snapshot text; plus the REF work of the served
/// session as one batch run over the grown trace.
fn constituents(daemon: &Daemon, t: &mut Tracer) -> Result<(), String> {
    for _ in 0..CONSTITUENT_REPS {
        t.span("serve.persist", |_| daemon.persist())
            .map_err(|e| format!("persist: {e}"))?;
        let snapshot = t.span("serve.snapshot", |_| daemon.session().snapshot());
        t.count("serve.snapshot_bytes", snapshot.len() as f64);
        t.count("json.parse_bytes", snapshot.len() as f64);
        t.span("json.parse", |_| serde_json::parse_value(&snapshot))
            .map_err(|e| format!("snapshot parse: {e}"))?;
    }
    let grown = daemon.session().trace().clone();
    let horizon = daemon.session().stepped_to().unwrap_or(0);
    let mut reference = RefScheduler::new(&grown);
    t.span("ref.run", |_| {
        run_scheduler(&grown, &mut reference, SimOptions { horizon, validate: false })
    })
    .map_err(|e| format!("ref: {e}"))?;
    let stats = reference.lattice().stats();
    t.count("ref.settles", stats.settles as f64);
    t.count("ref.phi_cache_hits", stats.phi_cache_hits as f64);
    t.count("ref.phi_recomputes", stats.phi_recomputes as f64);
    Ok(())
}

/// The sessions of one half of a run (traced or untraced), pooled.
struct Pooled {
    /// Clock key prefix of this half's round trips and reopens.
    key: &'static str,
    rtts: Vec<f64>,
    lag_max_ms: f64,
    busy_s: f64,
    drains: usize,
    sessions: usize,
}

impl Pooled {
    fn new(key: &'static str) -> Pooled {
        Pooled {
            key,
            rtts: Vec::new(),
            lag_max_ms: 0.0,
            busy_s: 0.0,
            drains: 0,
            sessions: 0,
        }
    }

    /// Pools session `s` of daemon seed `d` and records its round trips
    /// (per message) and reopen in `clock`.
    fn add(&mut self, d: u64, s: &SessionStats, clock: &mut Clock) {
        for (i, rtt) in s.rtts().into_iter().enumerate() {
            clock.record(format!("{}/{d}/{i}", self.key), Kernel::Cpu, rtt / 1e3);
            self.rtts.push(rtt);
        }
        clock.record(format!("{}/reopen", self.key), Kernel::Cpu, s.reopen_ms / 1e3);
        self.lag_max_ms = self.lag_max_ms.max(s.lag_max_ms());
        self.busy_s += s.busy_s;
        self.drains += s.drains;
        self.sessions += 1;
    }

    /// The median over messages of each message's round trip, itself a
    /// median over the rounds (s; `seconds` is [`Clock::seconds`] or
    /// [`Clock::raw_seconds`]): the steady figure `wall_s` reports.
    fn steady_s(&self, clock: &Clock, seconds: fn(&Clock, &str) -> f64) -> f64 {
        let per_message: Vec<f64> = (0..DAEMON_SEEDS)
            .flat_map(|d| (0..MESSAGES).map(move |i| format!("{}/{d}/{i}", self.key)))
            .filter(|key| clock.samples(key) > 0)
            .map(|key| seconds(clock, &key))
            .collect();
        median(&per_message)
    }

    /// Round-trip p50 and p95 over every message, raw (ms); p95 is
    /// `None` when fewer than ten samples lie beyond it.
    fn rtt(&self) -> (f64, Option<f64>) {
        let p95 = highest_supported_percentile(self.rtts.len())
            .filter(|&p| p >= 95.0)
            .and_then(|_| percentile(&self.rtts, 95.0));
        (median(&self.rtts), p95)
    }
}

/// One round: a session of [`MESSAGES`] messages on a fresh daemon for
/// each daemon seed, each followed by a set-up sample and a clock tick.
fn round(
    ctx: &Ctx,
    setup: &mut Setup,
    clock: &mut Clock,
    pooled: &mut Pooled,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    for d in 0..DAEMON_SEEDS {
        let seed = derived_seed(ctx.seed, d);
        let dir = ctx.fresh_dir(&format!("{}-{d}", pooled.key))?;
        let stats = session(&dir, seed, d * START_SPACING, t, out)?;
        pooled.add(d, &stats, clock);
        crate::common::remove_dir(&dir);
        setup.rep(clock)?;
        clock.tick()?;
    }
    Ok(())
}

/// Runs the workload: set-up, then rounds for the run's time; in traced
/// runs every other round is traced.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let first_seed = derived_seed(ctx.seed, 0);
    let mut setup = Setup::new(
        ctx,
        Some(Box::new(|dir: &Path| open_fresh(dir, first_seed).map(drop))),
    );
    let mut clock = Clock::new(ctx.work.join("kernel"))?;
    let budget = Budget::new(ctx.seconds);
    let (mut untraced, mut traced) = (Pooled::new("untraced"), Pooled::new("traced"));
    let (mut plain, mut tracer) = (Tracer::new(false), Tracer::new(true));
    let mut round_s = Vec::new();
    let mut rounds = 0;
    while untraced.sessions == 0
        || (ctx.trace && traced.sessions == 0)
        || budget.fits(as_duration(median(&round_s)))
    {
        let (pooled, t) = if ctx.trace && rounds % 2 == 1 {
            (&mut traced, &mut tracer)
        } else {
            (&mut untraced, &mut plain)
        };
        let (done, s) = timed(|| round(ctx, &mut setup, &mut clock, pooled, t, &mut out));
        done?;
        round_s.push(s);
        rounds += 1;
    }
    let steady_s = untraced.steady_s(&clock, Clock::seconds);
    let (p50, p95) = untraced.rtt();
    let reopen_ms = clock.seconds("untraced/reopen") * 1e3;

    out.e2e.push(metric("setup_s", "s", clock.seconds(Setup::KEY)));
    out.e2e.push(metric("wall_s", "s", steady_s));
    out.extra.push(metric(
        "wall_raw_s",
        "s",
        untraced.steady_s(&clock, Clock::raw_seconds),
    ));
    out.extra.push(metric("rtt_p50_ms", "ms", p50));
    match p95 {
        Some(v) => out.extra.push(metric("rtt_p95_ms", "ms", v)),
        None => out.notes.push(format!(
            "too few samples for p95 (n={}): needs ten beyond it",
            untraced.rtts.len()
        )),
    }
    out.extra.push(metric("reopen_ms", "ms", reopen_ms));
    out.extra.push(metric("busy_s", "s", untraced.busy_s));
    out.extra.push(metric("loadgen.lag_max_ms", "ms", untraced.lag_max_ms));
    clock.report(&mut out);
    out.notes.push(format!(
        "{} untraced sessions ({DAEMON_SEEDS} daemon seeds, starting {START_SPACING} apart) x {MESSAGES} messages at {RATE} msg/s in {} drains; rtt samples n={}",
        untraced.sessions,
        untraced.drains,
        untraced.rtts.len()
    ));
    out.notes.push(
        "rtt_p50_ms/rtt_p95_ms pool every message, raw; wall_s is the median over messages of each message's median round trip over the rounds; busy_s is the daemon's submit + drain time"
            .to_string(),
    );

    if ctx.trace {
        let (traced_p50, _) = traced.rtt();
        let t = &tracer;
        let per_session = |total: f64| total / traced.sessions.max(1) as f64;
        out.layers.extend([
            metric("serve.submit_ms", "ms", median(&t.durations_ms("serve.submit"))),
            metric("serve.drain_ms", "ms", median(&t.durations_ms("serve.drain"))),
            metric(
                "serve.msgs_per_drain",
                "count",
                t.counter("serve.drained") / traced.drains.max(1) as f64,
            ),
            metric("serve.persist_ms", "ms", median(&t.durations_ms("serve.persist"))),
            metric("serve.snapshot_ms", "ms", median(&t.durations_ms("serve.snapshot"))),
            metric(
                "serve.snapshot_bytes",
                "bytes",
                per_session(t.counter("serve.snapshot_bytes")) / CONSTITUENT_REPS as f64,
            ),
            metric("serve.reopen_ms", "ms", reopen_ms),
            metric("ref.run_ms", "ms", per_session(t.total_ms("ref.run"))),
            metric("ref.settles", "count", per_session(t.counter("ref.settles"))),
            metric(
                "ref.phi_cache_hits",
                "count",
                per_session(t.counter("ref.phi_cache_hits")),
            ),
            metric(
                "ref.phi_recomputes",
                "count",
                per_session(t.counter("ref.phi_recomputes")),
            ),
            metric(
                "loadgen.lag_max_ms",
                "ms",
                untraced.lag_max_ms.max(traced.lag_max_ms),
            ),
            metric(
                "trace.overhead_wall_s",
                "s",
                traced.steady_s(&clock, Clock::seconds) - steady_s,
            ),
            metric("trace.overhead_rtt_p50_ms", "ms", traced_p50 - p50),
        ]);
        setup::json_parse_layers(&tracer, &mut out);
        out.notes.push(format!(
            "traced rounds interleave with untraced ones ({} traced sessions); ref.* figures are per served trace, run once as a batch",
            traced.sessions
        ));
        out.tracer = Some(tracer);
    }
    out.e2e.push(metric("peak_rss_mb", "MB", clock.peak_rss_mb()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{CPU_REFERENCE_S, FS_REFERENCE_S};

    #[test]
    fn p95_is_reported_as_p95_once_supported() {
        let mut pooled = Pooled::new("untraced");
        pooled.rtts = (1..=199).map(f64::from).collect();
        assert_eq!(pooled.rtt().1, None);
        pooled.rtts = (1..=200).map(f64::from).collect();
        assert_eq!(pooled.rtt().1, percentile(&pooled.rtts, 95.0));
        // Enough samples for p99: the figure stays the 95th percentile.
        pooled.rtts = (1..=1000).map(f64::from).collect();
        assert_eq!(pooled.rtt().1, percentile(&pooled.rtts, 95.0));
        assert_eq!(pooled.rtt().0, 500.5);
    }

    #[test]
    fn steady_figure_is_the_median_message_of_per_message_medians() {
        let stats = |rtts: &[u64]| SessionStats {
            records: rtts
                .iter()
                .map(|&ms| Record {
                    due_ns: 0,
                    sent_ns: 0,
                    done_ns: Some(ms * 1_000_000),
                })
                .collect(),
            busy_s: 0.0,
            drains: 0,
            reopen_ms: 0.0,
        };
        let mut clock = Clock::untimed(std::path::PathBuf::new());
        clock.settle([CPU_REFERENCE_S, FS_REFERENCE_S]);
        let mut pooled = Pooled::new("untraced");
        pooled.add(0, &stats(&[10, 30, 50]), &mut clock);
        pooled.add(0, &stats(&[20, 20, 90]), &mut clock);
        pooled.add(0, &stats(&[15, 40, 70]), &mut clock);
        clock.settle([CPU_REFERENCE_S, FS_REFERENCE_S]);
        // Per message over the rounds: medians 15, 30 and 70 ms; their
        // median is 30 ms. With the kernels at their reference times the
        // normalised figure equals the raw one.
        let raw = pooled.steady_s(&clock, Clock::raw_seconds);
        assert!((raw - 0.030).abs() < 1e-12);
        assert!((pooled.steady_s(&clock, Clock::seconds) - raw).abs() < 1e-12);
        // Pooled: 10 15 20 20 30 40 50 70 90.
        assert_eq!(pooled.rtt().0, 30.0);
        assert_eq!(pooled.sessions, 3);
    }
}
