//! End-to-end and per-layer benchmark of the fairsched workspace.
//!
//! ```text
//! perfbench --workload grid-k9|rand-k16|serve-k8|scale-k100|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload makes its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, prints a human-readable
//! report and, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` the run spends half its time untraced and half traced and
//! reports the per-layer metrics, the layer table with self times, and
//! the tracing overhead. The exit code is 0 only when every check passed.

mod calib;
mod common;
mod grid;
mod layers;
mod loadgen;
mod reportpass;
mod serve;
mod setup;
mod stats;
mod tracer;

use common::{Ctx, Metric, Outcome};
use serde::Value;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
const WORKLOADS: [&str; 4] = ["grid-k9", "rand-k16", "serve-k8", "scale-k100"];
/// Work directories and trace output, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "grid-k9" => grid::run(ctx),
        "rand-k16" => reportpass::run(ctx, &reportpass::RAND_K16),
        "serve-k8" => serve::run(ctx),
        "scale-k100" => reportpass::run(ctx, &reportpass::SCALE_K100),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The metrics the JSON line carries: every end-to-end metric, or every
/// per-layer metric (0 for a layer the workload does not exercise).
fn reported(out: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    if !trace {
        return common::END_TO_END
            .iter()
            .map(|(name, _)| {
                out.e2e
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .ok_or(format!("{name} missing"))
            })
            .collect();
    }
    Ok(layers::LAYERS
        .iter()
        .map(|l| {
            let value =
                out.layers.iter().find(|m| m.name == l.name).map_or(0.0, |m| m.value);
            common::metric(l.name, l.unit, value)
        })
        .collect())
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn human_report(name: &str, args: &Args, out: &Outcome) -> String {
    let mut s = String::new();
    let mode = if args.trace { "traced" } else { "untraced" };
    let _ = writeln!(s, "== {name} (seed {}, {} s, {mode})", args.seed, args.seconds);
    let _ = writeln!(s, "end-to-end (tracing off):");
    let fail_frac = common::metric("fail_frac", "ratio", out.fail_frac());
    for m in out.e2e.iter().chain(&out.extra).chain(std::iter::once(&fail_frac)) {
        let _ = writeln!(s, "  {:<22} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        let _ = writeln!(s, "  note: {note}");
    }
    let passed = out.checks.iter().filter(|(_, ok)| *ok).count();
    let _ = writeln!(
        s,
        "checks: {passed} of {} passed; {} operations attempted, {} failed",
        out.checks.len(),
        out.attempted,
        out.failed
    );
    for (check, _) in out.checks.iter().filter(|(_, ok)| !*ok) {
        let _ = writeln!(s, "  FAILED: {check}");
    }
    if let Some(t) = &out.tracer {
        let _ = writeln!(s, "layers (traced run; self time excludes child spans):");
        for line in tracer::render_layer_table(&tracer::layer_rows(t.spans())).lines() {
            let _ = writeln!(s, "  {line}");
        }
        let _ = writeln!(s, "per-layer metrics:");
        for l in layers::LAYERS {
            if let Some(m) = out.layers.iter().find(|m| m.name == l.name) {
                let _ = writeln!(
                    s,
                    "  {:<32} {:>14.4} {:<6} {} ({} is better)\n  {:<32} moves {}",
                    l.name, m.value, l.unit, l.what, l.better, "", l.moves
                );
            }
        }
    }
    s
}

/// `--workload all`: each workload in a child process of its own (so
/// each reports its own peak RSS), its report relayed, then one JSON
/// line merging theirs, metric names prefixed by the workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
        let trace = if args.trace { "1" } else { "0" };
        let output = match Command::new(&exe)
            .args([
                "--workload",
                name,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ])
            .stderr(Stdio::inherit())
            .output()
        {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
        println!("{report}");
        let Ok(doc) = serde_json::parse_value(last) else {
            eprintln!("perfbench: {name}: no result line");
            return ExitCode::FAILURE;
        };
        let count = |key: &str| match doc.get(key) {
            Some(Value::Number(n)) => n.parse::<u64>().unwrap_or(0),
            _ => 0,
        };
        correct &=
            output.status.success() && doc.get("correct") == Some(&Value::Bool(true));
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Value::Object(fields)) = doc.get("metrics") {
            metrics
                .extend(fields.iter().map(|(k, v)| (format!("{name}/{k}"), v.clone())));
        }
    }
    let number = |n: u64| Value::Number(n.to_string());
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), number(attempted.max(1))),
        ("failed".to_string(), number(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let name = args.workload.as_str();
    let run_dir = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: run_dir.join(name),
    };
    let result = run_workload(name, &ctx);
    common::remove_dir(&run_dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", human_report(name, &args, &out));
    if let Some(t) = &out.tracer {
        let path = PathBuf::from(WORK_ROOT)
            .join("traces")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        let written = std::fs::create_dir_all(path.parent().unwrap_or(&path))
            .and_then(|()| std::fs::write(&path, t.to_jsonl()));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let metrics = match reported(&out, args.trace) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
