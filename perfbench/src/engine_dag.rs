//! `engine-dag`: the standalone `SimulationIndex` on the paper's unit path.
//!
//! A Fig-18-style graph with one generated normal DAG pattern, one shard,
//! one thread, closed loop; a run measures sixteen such instances in turn
//! and pools their figures. The churn stream is applied in blocks that alternate
//! between the unit calls (`insert_edge` / `delete_edge`, IncMatch±) and one
//! `try_apply_batch_with_shards` call (IncMatch + minDelta); an owned
//! snapshot read follows every block. Bypasses ingest, WAL, service and
//! (the pattern being a DAG) propCC.

use crate::common::{median, p99, peak_rss_mb, ratio, us, Churn, Report, RunConfig, RUN};
use igpm_bench::legacy::LegacySimulationIndex;
use igpm_core::{match_simulation, AffStats, ApplyOutcome, SimulationIndex};
use igpm_generator::{
    generate_pattern, synthetic_graph, PatternGenConfig, PatternShape, SyntheticConfig,
};
use igpm_graph::update::{reduce_batch_sharded, validate_batch};
use igpm_graph::{BatchUpdate, DataGraph, Pattern, ShardPlan, Update};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Sizes {
    nodes: usize,
    edges: usize,
    stream: usize,
    block: usize,
    legacy_ops: usize,
    /// Independent instances (graph, pattern, stream) per run, each
    /// generated from its own sub-seed and measured for an equal share of
    /// the time.
    instances: u64,
}

/// Blocks of 2,048 updates (about 1 ms): at 512 the per-block latency's
/// tail was set by µs-scale host hiccups, and its p99 spread across runs
/// reached the bound. Sixteen instances of 20k nodes / 120k edges (the
/// Fig-18 average degree of 6): one generated instance's cost differs by
/// about ±18% from seed to seed, which four pooled 50k-node instances left
/// at a 13% difference between two seeds; the smaller graphs generate fast
/// enough to pool sixteen.
const FULL: Sizes = Sizes {
    nodes: 20_000,
    edges: 120_000,
    stream: 32_768,
    block: 2_048,
    legacy_ops: 16_384,
    instances: 16,
};
const TINY: Sizes =
    Sizes { nodes: 1_500, edges: 6_000, stream: 2_048, block: 64, legacy_ops: 512, instances: 2 };

/// Set-up samples per instance. A sample is the mean of
/// [`BUILDS_PER_SAMPLE`] cold builds (about 90 ms in all), so one
/// scheduler hiccup cannot set it.
const SETUP_SAMPLES: usize = 3;
const BUILDS_PER_SAMPLE: usize = 4;

/// One generated instance.
struct Instance {
    graph0: DataGraph,
    pattern: Pattern,
    churn: Churn,
}

impl Instance {
    fn generate(sizes: &Sizes, seed: u64) -> Instance {
        let graph0 = synthetic_graph(&SyntheticConfig::new(sizes.nodes, sizes.edges, 6, seed));
        let pattern = generate_pattern(
            &graph0,
            &PatternGenConfig::normal(10, 15, 1, seed + 7).with_shape(PatternShape::Dag),
        );
        let churn = Churn::generate(&graph0, sizes.stream, seed + 13);
        Instance { graph0, pattern, churn }
    }
}

/// Per-layer records of a traced phase.
#[derive(Default)]
struct EngineTrace {
    insert_ns: Vec<f64>,
    delete_ns: Vec<f64>,
    batch_ns: f64,
    batch_ops: usize,
    batch_blocks: usize,
    batch_visited: usize,
    read_us: Vec<f64>,
    stats: AffStats,
    delta_pairs: usize,
    covered: Duration,
}

struct Phase {
    /// Updates committed in the measured time.
    ops: u64,
    /// Wall time of each complete churn cycle of the measured phase. Every
    /// cycle applies the same blocks on the same paths, so they are repeated
    /// measurements of one amount of work.
    cycle_s: Vec<f64>,
    /// Updates attempted, including the untimed end of the churn cycle.
    attempted: u64,
    failed: u64,
    elapsed: Duration,
    blocks: u64,
    visible_ms: Vec<f64>,
    graph: DataGraph,
    index: SimulationIndex,
}

impl Phase {
    fn updates_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// The median time of one churn cycle; the whole phase's time per
    /// cycle when no cycle completed.
    fn cycle_s(&self, cycle_len: usize) -> f64 {
        if self.cycle_s.is_empty() {
            cycle_len as f64 / self.updates_per_s()
        } else {
            median(&self.cycle_s)
        }
    }
}

pub fn run(cfg: &RunConfig, report: &mut Report) {
    let sizes = if cfg.tiny { TINY } else { FULL };
    let share = cfg.measured().div_f64(sizes.instances as f64);
    let (mut ops, mut elapsed, mut blocks) = (0u64, Duration::ZERO, 0u64);
    let (mut cycle_updates, mut cycle_s) = (0.0, 0.0);
    let mut visible_ms = Vec::new();
    let mut build_s = 0.0;
    let mut peak_rss = 0.0;
    for k in 0..sizes.instances {
        let seed = cfg.seed.wrapping_mul(sizes.instances).wrapping_add(k);
        let instance = Instance::generate(&sizes, seed);
        let (index, build) = cold_builds(&instance);
        build_s += build / sizes.instances as f64;
        let phase = measure(share, &sizes, &instance, index, None);
        // The instances are the same size: the peak is read once, before
        // any oracle has run.
        if k == 0 {
            peak_rss = peak_rss_mb();
        }
        check(cfg, report, &instance.pattern, &phase);
        let rebuilt = SimulationIndex::build_with_shards(&instance.pattern, &phase.graph, 1);
        report.check(rebuilt.matches() == phase.index.matches(), || {
            "engine-dag: rebuilt view differs from live".into()
        });
        ops += phase.ops;
        cycle_updates += instance.churn.cycle_len() as f64;
        cycle_s += phase.cycle_s(instance.churn.cycle_len());
        elapsed += phase.elapsed;
        blocks += phase.blocks;
        visible_ms.extend_from_slice(&phase.visible_ms);
        if cfg.trace && k == 0 {
            traced(cfg, report, &sizes, &instance, share, phase.updates_per_s());
        }
    }
    // One median cycle of every instance: a co-tenant burst that slows a
    // few cycles does not move it.
    report.set("updates_per_s", cycle_updates / cycle_s);
    report.set("loadgen.visible_p50_ms", median(&visible_ms));
    report.set("loadgen.visible_p99_ms", p99(&visible_ms));
    report.set("setup_s", build_s);
    report.set("peak_rss_mb", peak_rss);
    eprintln!(
        "engine-dag: {ops} updates in {blocks} blocks over {:.2}s, {} visible samples",
        elapsed.as_secs_f64(),
        visible_ms.len()
    );
}

/// Times [`SETUP_SAMPLES`] samples of cold builds over `G0` (each build's
/// predecessor dropped first, untimed); returns the last index and the
/// median sample in seconds per build.
fn cold_builds(instance: &Instance) -> (SimulationIndex, f64) {
    let mut samples = Vec::new();
    let mut index = None;
    for _ in 0..SETUP_SAMPLES {
        let mut took = Duration::ZERO;
        for _ in 0..BUILDS_PER_SAMPLE {
            drop(index.take());
            let start = Instant::now();
            let built = SimulationIndex::build_with_shards(&instance.pattern, &instance.graph0, 1);
            took += start.elapsed();
            index = Some(built);
        }
        samples.push(took.as_secs_f64() / BUILDS_PER_SAMPLE as f64);
    }
    (index.expect("at least one build"), median(&samples))
}

/// The traced run on one instance: the same phase with per-layer timers,
/// the update-stage mirror and the same-run legacy baseline.
fn traced(
    cfg: &RunConfig,
    report: &mut Report,
    sizes: &Sizes,
    instance: &Instance,
    share: Duration,
    untraced_ups: f64,
) {
    let index = SimulationIndex::build_with_shards(&instance.pattern, &instance.graph0, 1);
    let mut trace = EngineTrace::default();
    let traced = measure(share, sizes, instance, index, Some(&mut trace));
    check(cfg, report, &instance.pattern, &traced);
    per_layer(report, &trace, &traced, untraced_ups);
    update_mirror(report, sizes, instance, traced.blocks);
    let speedup = legacy_speedup(report, instance, sizes.legacy_ops);
    report.set("sim.speedup_vs_legacy", speedup);
}

/// One update on the unit path (IncMatch±).
fn unit(index: &mut SimulationIndex, graph: &mut DataGraph, update: &Update) -> ApplyOutcome {
    let (a, b) = update.endpoints();
    if update.is_insert() {
        index.insert_edge(graph, a, b)
    } else {
        index.delete_edge(graph, a, b)
    }
}

/// The closed loop: blocks alternate unit path / batch path, an owned read
/// follows each block, until the measured time is up.
fn measure(
    measured: Duration,
    sizes: &Sizes,
    instance: &Instance,
    mut index: SimulationIndex,
    mut trace: Option<&mut EngineTrace>,
) -> Phase {
    let churn = &instance.churn;
    let mut graph = instance.graph0.clone();
    let (mut ops, mut failed, mut blocks) = (0u64, 0u64, 0u64);
    let mut visible_ms = Vec::new();
    assert!(churn.cycle_len().is_multiple_of(2 * sizes.block), "cycles hold whole block pairs");
    let mut pos = 0usize;
    let mut cycle_s = Vec::new();
    let start = Instant::now();
    let mut cycle_start = start;
    let deadline = start + measured;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let block = churn.slice(pos, sizes.block);
        if blocks % 2 == 0 {
            match trace.as_deref_mut() {
                None => {
                    for update in block {
                        black_box(unit(&mut index, &mut graph, update));
                    }
                }
                Some(trace) => {
                    for run in block.chunks(RUN) {
                        let t = Instant::now();
                        for update in run {
                            let outcome = unit(&mut index, &mut graph, update);
                            trace.stats.merge(outcome.stats);
                            trace.delta_pairs += outcome.delta.len();
                        }
                        let took = t.elapsed();
                        trace.covered += took;
                        let per_op = took.as_nanos() as f64 / run.len() as f64;
                        if run[0].is_insert() {
                            trace.insert_ns.push(per_op);
                        } else {
                            trace.delete_ns.push(per_op);
                        }
                    }
                }
            }
        } else {
            let batch = BatchUpdate::from_updates(block.to_vec());
            let t = Instant::now();
            let outcome = index.try_apply_batch_with_shards(&mut graph, &batch, 1);
            let took = t.elapsed();
            match outcome {
                Ok(outcome) => {
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.covered += took;
                        trace.batch_ns += took.as_nanos() as f64;
                        trace.batch_ops += block.len();
                        trace.batch_blocks += 1;
                        trace.batch_visited += outcome.stats.nodes_visited;
                        trace.stats.merge(outcome.stats);
                        trace.delta_pairs += outcome.delta.len();
                    }
                    black_box(&outcome);
                }
                Err(error) => {
                    eprintln!("engine-dag: batch refused: {error}");
                    failed += block.len() as u64;
                }
            }
        }
        let t = Instant::now();
        let view = index.matches();
        black_box(&view);
        if let Some(trace) = trace.as_deref_mut() {
            let took = t.elapsed();
            trace.covered += took;
            trace.read_us.push(us(took));
        }
        visible_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ops += block.len() as u64;
        blocks += 1;
        pos = (pos + sizes.block) % churn.cycle_len();
        if pos == 0 {
            let now = Instant::now();
            cycle_s.push((now - cycle_start).as_secs_f64());
            cycle_start = now;
        }
    }
    let elapsed = start.elapsed();
    let measured = ops - failed;
    // Untimed: finish the churn cycle, so the oracle and the rebuild check
    // always see a graph with the initial edge set.
    while pos != 0 {
        let block = churn.slice(pos, sizes.block);
        let batch = BatchUpdate::from_updates(block.to_vec());
        if index.try_apply_batch_with_shards(&mut graph, &batch, 1).is_err() {
            failed += block.len() as u64;
        }
        ops += block.len() as u64;
        pos = (pos + sizes.block) % churn.cycle_len();
    }
    Phase {
        ops: measured,
        cycle_s,
        attempted: ops,
        failed,
        elapsed,
        blocks,
        visible_ms,
        graph,
        index,
    }
}

/// The oracle: the maintained view equals the from-scratch maximum
/// simulation over the graph the churn left behind.
fn check(cfg: &RunConfig, report: &mut Report, pattern: &Pattern, phase: &Phase) {
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    let expected = match_simulation(pattern, &phase.graph);
    report.check_view(cfg, &phase.index.matches(), &expected, || {
        "engine-dag: view differs from match_simulation".into()
    });
}

fn per_layer(report: &mut Report, trace: &EngineTrace, traced: &Phase, untraced_ups: f64) {
    let ops = traced.ops as f64;
    report.set("sim.unit_insert_ns_p50", median(&trace.insert_ns));
    report.set("sim.unit_delete_ns_p50", median(&trace.delete_ns));
    report.set("sim.batch_ns_per_update", ratio(trace.batch_ns, trace.batch_ops as f64));
    report.set("sim.read_us_p50", median(&trace.read_us));
    report.set("sim.nodes_visited_per_update", ratio(trace.stats.nodes_visited as f64, ops));
    report.set("sim.counter_updates_per_update", ratio(trace.stats.counter_updates as f64, ops));
    report.set("sim.delta_pairs_per_update", ratio(trace.delta_pairs as f64, ops));
    report.set(
        "sim.nodes_visited_per_pattern_batch",
        ratio(trace.batch_visited as f64, trace.batch_blocks as f64),
    );
    report.set("trace.overhead_frac", 1.0 - ratio(traced.updates_per_s(), untraced_ups));
    let wall = traced.elapsed.as_secs_f64();
    report.set("trace.unaccounted_frac", 1.0 - ratio(trace.covered.as_secs_f64(), wall));
}

/// Replays the batch blocks of the traced phase through the two
/// pattern-independent stages the batch path starts with, timing each:
/// `validate_batch` and the minDelta reduction.
fn update_mirror(report: &mut Report, sizes: &Sizes, instance: &Instance, blocks: u64) {
    let churn = &instance.churn;
    let mut graph = instance.graph0.clone();
    let (mut validate_ns, mut reduce_ns) = (0.0, 0.0);
    let (mut submitted, mut effective) = (0usize, 0usize);
    let mut pos = 0usize;
    for block_no in 0..blocks {
        let block = churn.slice(pos, sizes.block);
        if block_no % 2 == 1 {
            let batch = BatchUpdate::from_updates(block.to_vec());
            let t = Instant::now();
            let rejections = validate_batch(&graph, &batch);
            validate_ns += t.elapsed().as_nanos() as f64;
            report.check(rejections.is_empty(), || {
                format!("engine-dag: batch block {block_no} was rejected")
            });
            let t = Instant::now();
            let (kept, _) =
                reduce_batch_sharded(&graph, &batch, ShardPlan::new(graph.node_count(), 1));
            reduce_ns += t.elapsed().as_nanos() as f64;
            submitted += batch.len();
            effective += kept.len();
        }
        for update in block {
            update.apply(&mut graph);
        }
        pos = (pos + sizes.block) % churn.cycle_len();
    }
    report.set("update.validate_ns_per_op", ratio(validate_ns, submitted as f64));
    report.set("update.reduce_ns_per_op", ratio(reduce_ns, submitted as f64));
    report.set("update.effective_frac", ratio(effective as f64, submitted as f64));
}

/// Same-run ratio against the frozen pre-optimisation engine: both engines
/// replay the first `count` positions of the churn cycle on the unit path,
/// in lockstep runs of [`RUN`] updates (alternating which goes first).
/// Returns legacy time ÷ counter-engine time.
fn legacy_speedup(report: &mut Report, instance: &Instance, count: usize) -> f64 {
    let Instance { graph0, pattern, churn } = instance;
    let mut counter = SimulationIndex::build_with_shards(pattern, graph0, 1);
    let mut counter_graph = graph0.clone();
    let mut legacy = LegacySimulationIndex::build(pattern, graph0);
    let mut legacy_graph = graph0.clone();
    let (mut counter_ns, mut legacy_ns) = (0u128, 0u128);
    for (run_no, run) in churn.slice(0, count).chunks(RUN).enumerate() {
        let mut time_counter = || {
            let t = Instant::now();
            for update in run {
                black_box(unit(&mut counter, &mut counter_graph, update));
            }
            t.elapsed().as_nanos()
        };
        let mut time_legacy = || {
            let t = Instant::now();
            for update in run {
                let (a, b) = update.endpoints();
                let stats = if update.is_insert() {
                    legacy.insert_edge(&mut legacy_graph, a, b)
                } else {
                    legacy.delete_edge(&mut legacy_graph, a, b)
                };
                black_box(stats);
            }
            t.elapsed().as_nanos()
        };
        if run_no % 2 == 0 {
            counter_ns += time_counter();
            legacy_ns += time_legacy();
        } else {
            legacy_ns += time_legacy();
            counter_ns += time_counter();
        }
    }
    report.check(counter.matches() == legacy.matches(), || {
        "engine-dag: the legacy and counter engines diverged".into()
    });
    ratio(legacy_ns as f64, counter_ns as f64)
}
