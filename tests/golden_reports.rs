//! Golden snapshots of the CLI's `--json` report.
//!
//! The JSON report is the machine-readable contract of the `fairsched`
//! binary: downstream tooling parses it, so its *schema* (field names,
//! nesting, canonical `metric_specs`) and its *values* (deterministic
//! given workload spec + seed) are pinned here byte for byte. The
//! fixtures live under `tests/golden/reports/`.
//!
//! Regenerate with `REGEN_GOLDEN=1 cargo test --test golden_reports` —
//! but only when a *deliberate* schema or pipeline change is being made,
//! in which case the diff documents it.

use std::path::PathBuf;
use std::process::Command;

struct Case {
    name: &'static str,
    args: &'static [&'static str],
}

fn cases() -> Vec<Case> {
    vec![
        // The spec-addressed run from the issue: explicit metrics,
        // delay runs the exact REF reference automatically.
        Case {
            name: "fpt_k3_delay_psi",
            args: &["--json", "--workload", "fpt:k=3", "--metrics", "delay,psi"],
        },
        // Default metric set (machines/completed/flow/waiting/psi), a
        // parameterized metric spec surviving the comma list, and a
        // non-default horizon/seed.
        Case {
            name: "fpt_k3_default_metrics",
            args: &[
                "--json",
                "--workload",
                "fpt:k=3",
                "--horizon",
                "2000",
                "--seed",
                "7",
            ],
        },
        Case {
            name: "fpt_k2_norm_ideal_ranking",
            args: &[
                "--json",
                "--workload",
                "fpt:horizon=500,k=2",
                "--horizon",
                "500",
                "--seed",
                "3",
                "--scheduler",
                "fairshare",
                "--metrics",
                // lint:allow(spec-literal) comma-joined metric *list*, split by parse_list
                "delay:norm=ideal,ranking,utilization",
            ],
        },
        // The time-series axis: a timeline spec next to a scalar one pins
        // the `series` schema (spec/times/orgs/values/aggregate) and its
        // coexistence with the scalar columns.
        Case {
            name: "fpt_k2_timeline",
            args: &[
                "--json",
                "--workload",
                "fpt:horizon=500,k=2",
                "--horizon",
                "500",
                "--seed",
                "3",
                "--scheduler",
                "fifo",
                "--metrics",
                "delay,timeline:samples=8",
            ],
        },
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/reports")
        .join(format!("{name}.json"))
}

fn run_cli(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(args)
        .output()
        .expect("fairsched binary runs");
    assert!(
        output.status.success(),
        "fairsched {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("report is UTF-8")
}

#[test]
fn cli_json_reports_match_golden_fixtures() {
    let regen = std::env::var_os("REGEN_GOLDEN").is_some();
    let mut mismatches = Vec::new();
    for case in cases() {
        let rendered = run_cli(case.args);
        // The report must be parseable JSON carrying the canonical specs.
        let value = serde_json::parse_value(&rendered)
            .unwrap_or_else(|e| panic!("{}: output is not JSON: {e}", case.name));
        assert!(
            value.get("metric_specs").is_some(),
            "{}: report lost its metric_specs provenance",
            case.name
        );
        let path = golden_path(case.name);
        if regen {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
        if rendered != expected {
            mismatches.push(case.name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "CLI reports diverged from the golden fixtures for: {mismatches:?} \
         (REGEN_GOLDEN=1 only for deliberate schema/pipeline changes)"
    );
}

/// Reference-based metrics with `--no-reference` fail with the typed
/// error, not a panic or a silent omission.
#[test]
fn no_reference_with_delay_metric_is_a_typed_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(["--json", "--workload", "fpt:k=2", "--metrics", "delay", "--no-reference"])
        .output()
        .expect("fairsched binary runs");
    assert!(!output.status.success(), "--no-reference with delay must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("needs the REF reference"),
        "unexpected error output: {stderr}"
    );
}

/// The timeline family compares against REF too: `--no-reference` +
/// `timeline` is the same typed NeedsReference error.
#[test]
fn no_reference_with_timeline_metric_is_a_typed_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args([
            "--json",
            "--workload",
            "fpt:k=2",
            "--metrics",
            "timeline:samples=8",
            "--no-reference",
        ])
        .output()
        .expect("fairsched binary runs");
    assert!(!output.status.success(), "--no-reference with timeline must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("timeline") && stderr.contains("needs the REF reference"),
        "unexpected error output: {stderr}"
    );
}

/// A malformed timeline sample count fails with the typed parameter
/// error (the historical core path panicked on zero samples).
#[test]
fn zero_timeline_samples_is_a_typed_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(["--json", "--workload", "fpt:k=2", "--metrics", "timeline:samples=0"])
        .output()
        .expect("fairsched binary runs");
    assert!(!output.status.success(), "samples=0 must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("timeline:samples") && stderr.contains("at least 1"),
        "unexpected error output: {stderr}"
    );
}

/// A trace past REF's organization cap fails the automatic reference run
/// with the typed capacity error instead of a panic (exit 101).
#[test]
fn ref_capacity_is_a_typed_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args([
            "--workload",
            "synth:orgs=20,preset=ricc,scale=0.2",
            "--scheduler",
            "fifo",
        ])
        .output()
        .expect("fairsched binary runs");
    assert_eq!(output.status.code(), Some(1), "expected a typed failure");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("supports at most 16 organizations, the trace has 20"),
        "unexpected error output: {stderr}"
    );
}
