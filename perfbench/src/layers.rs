//! The per-layer metrics, and which end-to-end metric each should move
//! on which workload. Traced runs print this map beside the figures.

/// One per-layer metric.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// What it measures.
    pub what: &'static str,
    /// The end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, what, moves }
}

/// Every per-layer metric, in report order.
pub const LAYERS: &[Layer] = &[
    layer("workloads.build_ms", "ms", "lower", "WorkloadRegistry::build, total per pass (grid: per grid)",
        "wall_s, jobs_per_s on scale-k100; about zero elsewhere"),
    layer("workloads.jobs", "count", "lower", "jobs in the traces built per pass (grid: per grid)",
        "wall_s, jobs_per_s on scale-k100"),
    layer("sim.run_ms", "ms", "lower", "run_scheduler of the evaluated scheduler (reference excluded), total per pass",
        "wall_s on scale-k100 (fifo/fairshare event loop) and rand-k16 (RAND)"),
    layer("rand.settles", "count", "lower", "RAND lattice settle calls per pass",
        "wall_s on rand-k16; no effect elsewhere"),
    layer("rand.phi_cache_hits", "count", "higher", "RAND phi values served from cache per pass",
        "wall_s on rand-k16; no effect elsewhere"),
    layer("rand.phi_recomputes", "count", "lower", "RAND phi full rebuilds per pass",
        "wall_s on rand-k16; no effect elsewhere"),
    layer("ref.run_ms", "ms", "lower", "REF reference run_scheduler (grid: per grid; serve: the served trace as one batch)",
        "wall_s on grid-k9; small on serve-k8; none on rand-k16/scale-k100"),
    layer("ref.settles", "count", "lower", "REF lattice settle calls",
        "wall_s on grid-k9; small on serve-k8; none on rand-k16/scale-k100"),
    layer("ref.phi_cache_hits", "count", "higher", "REF phi values served from cache",
        "wall_s on grid-k9; small on serve-k8; none on rand-k16/scale-k100"),
    layer("ref.phi_recomputes", "count", "lower", "REF phi full rebuilds",
        "wall_s on grid-k9; small on serve-k8; none on rand-k16/scale-k100"),
    layer("experiment.compute_cell_ms_p50", "ms", "lower", "median compute_cell time (constituent)",
        "wall_s on grid-k9"),
    layer("experiment.compute_cell_ms_total", "ms", "lower", "compute_cell time over a grid's cells (constituent)",
        "wall_s on grid-k9"),
    layer("experiment.cells", "count", "higher", "cells computed per grid (constituent)",
        "wall_s on grid-k9"),
    layer("experiment.commit_ms", "ms", "lower", "median atomic_write of one cell-sized document (constituent)",
        "wall_s on grid-k9"),
    layer("experiment.aggregate_ms", "ms", "lower", "aggregate over a grid's decoded cells (constituent)",
        "wall_s on grid-k9"),
    layer("experiment.decode_ms", "ms", "lower", "parse_value + decode_cell of a grid's committed cells (constituent)",
        "resume_s on grid-k9"),
    layer("experiment.resume_ms", "ms", "lower", "resumed Runner::run of a finished grid, median pass, normalised (untraced)",
        "resume_s on grid-k9"),
    layer("report.evaluate_ms", "ms", "lower", "Report::evaluate with the default metrics, total per pass",
        "wall_s on scale-k100"),
    layer("report.sink_ms", "ms", "lower", "to_json + to_csv + render_table, total per pass",
        "wall_s on scale-k100"),
    layer("serve.submit_ms", "ms", "lower", "median SubmissionQueue::submit",
        "wall_s (rtt p50), rtt_p95_ms on serve-k8"),
    layer("serve.drain_ms", "ms", "lower", "median Daemon::drain (composite: apply, persist, endpoint refresh)",
        "wall_s (rtt p50), rtt_p95_ms on serve-k8"),
    layer("serve.msgs_per_drain", "count", "lower", "messages applied per drain",
        "wall_s (rtt p50), rtt_p95_ms on serve-k8"),
    layer("serve.persist_ms", "ms", "lower", "median Daemon::persist on the final state (constituent)",
        "wall_s (rtt p50), rtt_p95_ms, reopen_ms on serve-k8"),
    layer("serve.snapshot_ms", "ms", "lower", "median SimSession::snapshot on the final state (constituent)",
        "wall_s (rtt p50), rtt_p95_ms, reopen_ms on serve-k8"),
    layer("serve.snapshot_bytes", "bytes", "lower", "size of the session snapshot text",
        "wall_s (rtt p50), reopen_ms on serve-k8"),
    layer("serve.reopen_ms", "ms", "lower", "median crash-recovery Daemon::open of the served directory, normalised (untraced)",
        "recovery time on serve-k8"),
    layer("json.parse_ms", "ms", "lower", "median parse_value per document (serve: snapshot text; grid: committed cells)",
        "wall_s (rtt p50), reopen_ms on serve-k8; resume_s on grid-k9"),
    layer("json.parse_mb_per_s", "MB/s", "higher", "parse_value throughput over the same documents",
        "wall_s (rtt p50), reopen_ms on serve-k8; resume_s on grid-k9"),
    layer("loadgen.lag_max_ms", "ms", "lower", "how late the open-loop generator sent a message",
        "validates serve-k8; should stay near zero"),
    layer("trace.overhead_wall_s", "s", "lower", "traced minus untraced wall_s",
        "instrumentation overhead, every workload"),
    layer("trace.overhead_rtt_p50_ms", "ms", "lower", "traced minus untraced rtt p50",
        "instrumentation overhead on serve-k8"),
];

#[cfg(test)]
mod tests {
    use super::LAYERS;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::String(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Array(rows)) => rows,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        let doc = benchmark_json();
        let listed: Vec<(&str, &str, &str)> = rows(&doc, "per_layer")
            .iter()
            .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> =
            LAYERS.iter().map(|l| (l.name, l.unit, l.better)).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn benchmark_json_lists_every_end_to_end_metric() {
        let doc = benchmark_json();
        let listed: Vec<(&str, &str)> = rows(&doc, "end_to_end")
            .iter()
            .map(|r| (field(r, "name"), field(r, "unit")))
            .collect();
        assert_eq!(listed, crate::common::END_TO_END.to_vec());
        let workloads: Vec<&str> =
            rows(&doc, "workloads").iter().map(|r| field(r, "name")).collect();
        assert_eq!(workloads, crate::WORKLOADS.to_vec());
    }
}
