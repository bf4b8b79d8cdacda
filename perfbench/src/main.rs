//! The igpm benchmark: one named workload per invocation.
//!
//! ```text
//! perfbench --workload <engine-dag|live-dag|bounded-fanout|fanout-cyclic>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every invocation generates its inputs from the seed, runs the measured
//! phase, checks every output against an oracle and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` for the workloads and metrics.

mod closed;
mod common;
mod engine_dag;
mod live_dag;
mod stack;

use common::{host_parallelism, Report, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["engine-dag", "live-dag", "bounded-fanout"];

/// Workloads the program runs but `BENCHMARK.json` does not list (see
/// `README.md`).
const EXTRA_WORKLOADS: [&str; 1] = ["fanout-cyclic"];

fn all_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.into_iter().chain(EXTRA_WORKLOADS)
}

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 3] =
    [("updates_per_s", "updates/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not exercise
/// reports 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("ingest.queue_wait_p50_us", "us"),
    ("ingest.queue_wait_p99_us", "us"),
    ("ingest.batch_ops_mean", "updates"),
    ("ingest.backpressure_events", "count"),
    ("durable.apply_us_p50", "us"),
    ("durable.apply_us_p99", "us"),
    ("durable.poll_gap_us_p50", "us"),
    ("durable.poll_gap_us_p99", "us"),
    ("durable.lagged_events", "count"),
    ("durable.checkpoint_ms_p50", "ms"),
    ("durable.replayed_batches", "count"),
    ("durable.recovery_s", "s"),
    ("durable.publish_ns_per_batch", "ns"),
    ("wal.append_us_p50", "us"),
    ("wal.append_us_p99", "us"),
    ("wal.bytes_per_update", "B/update"),
    ("update.validate_ns_per_op", "ns/update"),
    ("update.reduce_ns_per_op", "ns/update"),
    ("update.effective_frac", "ratio"),
    ("service.shared_mutate_us_p50", "us"),
    ("service.pattern_apply_us_p50", "us"),
    ("service.pattern_apply_us_p99", "us"),
    ("service.read_us_p99", "us"),
    ("service.interned_candidate_sets", "count"),
    ("service.distinct_patterns", "count"),
    ("sim.unit_insert_ns_p50", "ns"),
    ("sim.unit_delete_ns_p50", "ns"),
    ("sim.batch_ns_per_update", "ns/update"),
    ("sim.read_us_p50", "us"),
    ("sim.nodes_visited_per_update", "1/update"),
    ("sim.counter_updates_per_update", "1/update"),
    ("sim.delta_pairs_per_update", "1/update"),
    ("sim.nodes_visited_per_pattern_batch", "1/batch"),
    ("sim.speedup_vs_legacy", "x"),
    ("bsim.aff_per_update", "1/update"),
    ("bsim.speedup_vs_scratch", "x"),
    ("landmark_inc.affected_entries_per_update", "1/update"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.visible_p50_ms", "ms"),
    ("loadgen.visible_p99_ms", "ms"),
    ("loadgen.host_parallelism", "threads"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.untraced_updates_per_s", "updates/s"),
];

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !all_workloads().any(|w| w == workload) {
        let known: Vec<&str> = all_workloads().collect();
        return Err(format!("unknown workload {workload}; expected one of {known:?}"));
    }
    let data_dir = PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()));
    let cfg = RunConfig {
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        tiny: false,
        corrupt_view: false,
        data_dir,
    };
    Ok(Args { workload, cfg })
}

/// Runs one workload and fills in the metrics it does not set itself.
fn run_workload(workload: &str, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    match workload {
        "engine-dag" => engine_dag::run(cfg, &mut report),
        "live-dag" => live_dag::run(cfg, &mut report),
        "fanout-cyclic" => closed::run_fanout(cfg, &mut report),
        "bounded-fanout" => closed::run_bounded(cfg, &mut report),
        other => unreachable!("workload {other} was validated"),
    }
    report.check(report.attempted > 0, || format!("{workload}: no update was attempted"));
    if cfg.trace {
        let untraced = report.metrics["updates_per_s"];
        report.set("trace.untraced_updates_per_s", untraced);
    }
    report.set("loadgen.host_parallelism", host_parallelism());
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    if let Some(parent) = cfg.data_dir.parent() {
        // Only succeeds once no other run is using the directory.
        let _ = std::fs::remove_dir(parent);
    }
    report
}

/// The result line: the end-to-end or per-layer metrics with their units.
fn result_json(report: &Report, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} host_parallelism {}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        args.cfg.trace,
        host_parallelism()
    );
    let report = run_workload(&args.workload, &args.cfg);
    for (name, value) in &report.metrics {
        eprintln!("  {name} = {value}");
    }
    for failure in &report.failures {
        eprintln!("ORACLE FAILURE: {failure}");
    }
    println!("{}", result_json(&report, args.cfg.trace));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool, corrupt_view: bool) -> Report {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.3,
            trace,
            tiny: true,
            corrupt_view,
            data_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_data"))
                .join(format!("selftest-{workload}-{trace}-{corrupt_view}-{}", std::process::id())),
        };
        run_workload(workload, &cfg)
    }

    #[test]
    fn every_workload_passes_its_oracle_at_tiny_scale() {
        for workload in all_workloads() {
            let report = tiny(workload, false, false);
            assert!(report.failures.is_empty(), "{workload}: {:?}", report.failures);
            assert_eq!(report.failed, 0, "{workload}");
            assert!(report.attempted > 0, "{workload}");
            for (name, _) in END_TO_END {
                let value = report.metrics[name];
                assert!(value.is_finite() && value > 0.0, "{workload}: {name} = {value}");
            }
        }
    }

    #[test]
    fn traced_runs_pass_the_mirror_at_tiny_scale() {
        for workload in all_workloads() {
            let report = tiny(workload, true, false);
            assert!(report.failures.is_empty(), "{workload}: {:?}", report.failures);
        }
    }

    #[test]
    fn a_corrupted_view_is_caught() {
        for workload in all_workloads() {
            let report = tiny(workload, false, true);
            assert!(!report.failures.is_empty(), "{workload}: corruption went unnoticed");
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = igpm_graph::JsonValue::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            match json.get(key) {
                Some(igpm_graph::JsonValue::Array(items)) => items
                    .iter()
                    .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_string())
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layer);
        assert_eq!(names("workloads"), workloads);
    }
}
