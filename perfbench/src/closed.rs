//! `fanout-cyclic` and `bounded-fanout`: synchronous closed loops over a
//! `DurableMatchService` with fsync `always`.
//!
//! Every iteration applies one churn batch, drains the subscriber (the batch
//! is *visible* once its deltas are polled) and reads `try_matches` for
//! every pattern. The churn cycle is a whole number of checkpoint intervals
//! long; after the measured time the loop keeps applying, untimed, until the
//! sequence number sits a fixed tail past a cycle start (which is also a
//! checkpoint boundary), so `durable.recovery_s` replays the same batches —
//! the first `tail` batches of the cycle — on every run of a seed. A run may
//! pool several generated instances, measured in turn.

use crate::common::{
    median, p99, peak_rss_mb, quantile, ratio, signed_us, us, Churn, Report, RunConfig,
};
use crate::stack::{self, Folder, TracedSink};
use igpm_core::{
    match_bounded_with_matrix, match_simulation, BoundedIndex, DurableMatchService, DurableOptions,
    IncrementalEngine, IngestSink, PatternId, SimulationIndex,
};
use igpm_generator::{
    generate_pattern, synthetic_graph, PatternGenConfig, PatternShape, SyntheticConfig,
};
use igpm_graph::wal::FsyncPolicy;
use igpm_graph::{BatchUpdate, DataGraph, MatchRelation, Pattern};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One closed-loop workload's shape.
struct Spec {
    name: &'static str,
    /// Independent instances (graph, patterns, stream) per run, each
    /// generated from its own sub-seed and measured in turn for an equal
    /// share of the time.
    instances: u64,
    /// The initial graph and the patterns of the instance with this seed.
    generate: fn(seed: u64, tiny: bool) -> (DataGraph, Vec<Pattern>),
    batch: usize,
    /// Batches per churn cycle; a multiple of `checkpoint_every`.
    cycle_batches: u64,
    checkpoint_every: u64,
    tail: u64,
    oracle: fn(&Pattern, &DataGraph) -> MatchRelation,
    bounded: bool,
}

/// One generated instance.
struct Instance {
    graph0: DataGraph,
    patterns: Vec<Pattern>,
    churn: Churn,
}

impl Spec {
    fn instance(&self, cfg: &RunConfig, k: u64) -> Instance {
        let seed = cfg.seed.wrapping_mul(self.instances).wrapping_add(k);
        let (graph0, patterns) = (self.generate)(seed, cfg.tiny);
        let stream = self.cycle_batches as usize * self.batch / 2;
        let churn = Churn::generate(&graph0, stream, seed + 13);
        Instance { graph0, patterns, churn }
    }
}

/// `fanout-cyclic`: 64 overlapping normal patterns (2–4 nodes, alternating
/// general and DAG, label-only predicates over 6 labels) on a 5k-node graph,
/// 200-edge batches, checkpoint every 64 batches.
pub fn run_fanout(cfg: &RunConfig, report: &mut Report) {
    fn generate(seed: u64, tiny: bool) -> (DataGraph, Vec<Pattern>) {
        let (nodes, edges, count) = if tiny { (400, 1_600, 8) } else { (5_000, 25_000, 64) };
        let graph0 = synthetic_graph(&SyntheticConfig::new(nodes, edges, 6, seed));
        let patterns = (0..count)
            .map(|i| {
                let shape = if i % 2 == 0 { PatternShape::General } else { PatternShape::Dag };
                let size = 2 + (i % 3);
                generate_pattern(
                    &graph0,
                    &PatternGenConfig::normal(size, size + 1, 1, seed + 100 + i as u64)
                        .with_shape(shape),
                )
            })
            .collect();
        (graph0, patterns)
    }
    let spec = Spec {
        name: "fanout-cyclic",
        instances: 1,
        generate,
        batch: if cfg.tiny { 40 } else { 200 },
        cycle_batches: if cfg.tiny { 8 } else { 64 },
        checkpoint_every: if cfg.tiny { 8 } else { 64 },
        tail: if cfg.tiny { 2 } else { 16 },
        oracle: match_simulation,
        bounded: false,
    };
    run::<SimulationIndex>(cfg, report, &spec);
}

/// `bounded-fanout`: 16 bounded patterns (2–4 nodes, bounds 2–3, general and
/// DAG) on a 200-node graph, 10-edge batches, checkpoint every 8 batches;
/// four such instances per run. The cost of one 200-node instance differs by
/// about ±10% from seed to seed, with the random graph's structure.
pub fn run_bounded(cfg: &RunConfig, report: &mut Report) {
    fn generate(seed: u64, tiny: bool) -> (DataGraph, Vec<Pattern>) {
        let (nodes, edges) = if tiny { (150, 600) } else { (200, 800) };
        let graph0 = synthetic_graph(&SyntheticConfig::new(nodes, edges, 6, seed));
        let patterns = (0..16)
            .map(|i| {
                let shape = if i % 2 == 0 { PatternShape::General } else { PatternShape::Dag };
                let size = 2 + (i % 3);
                generate_pattern(
                    &graph0,
                    &PatternGenConfig::new(size, size, 1, 3, seed + 200 + i as u64)
                        .with_shape(shape),
                )
            })
            .collect();
        (graph0, patterns)
    }
    let spec = Spec {
        name: "bounded-fanout",
        instances: if cfg.tiny { 2 } else { 4 },
        generate,
        batch: 10,
        cycle_batches: if cfg.tiny { 8 } else { 32 },
        checkpoint_every: 8,
        // Six of the eight batches past the checkpoint: with two, the cost
        // of those two batches set the recovery time, which spread 0.23 across
        // seeds.
        tail: if cfg.tiny { 2 } else { 6 },
        oracle: match_bounded_with_matrix,
        bounded: true,
    };
    run::<BoundedIndex>(cfg, report, &spec);
}

/// What one measured phase left behind.
struct Phase<E: IncrementalEngine> {
    sink: TracedSink<E>,
    ids: Vec<PatternId>,
    folder: Folder,
    ops: u64,
    failed: u64,
    elapsed: Duration,
    /// Wall time of each complete churn cycle of the measured phase: the
    /// same batches and the same number of checkpoints every time.
    cycle_s: Vec<f64>,
    visible_ms: Vec<f64>,
    read_us: Vec<f64>,
    setup_s: f64,
}

impl<E: IncrementalEngine> Phase<E> {
    /// The median time of one churn cycle, so a co-tenant burst that slows a
    /// few cycles does not move it; the whole phase's time per cycle when no
    /// cycle completed.
    fn cycle_s(&self, spec: &Spec) -> f64 {
        let cycle_ops = (spec.cycle_batches * spec.batch as u64) as f64;
        if self.cycle_s.is_empty() {
            cycle_ops * self.elapsed.as_secs_f64() / self.ops as f64
        } else {
            median(&self.cycle_s)
        }
    }

    fn updates_per_s(&self, spec: &Spec) -> f64 {
        (spec.cycle_batches * spec.batch as u64) as f64 / self.cycle_s(spec)
    }
}

fn run<E: IncrementalEngine>(cfg: &RunConfig, report: &mut Report, spec: &Spec) {
    assert!(spec.cycle_batches.is_multiple_of(spec.checkpoint_every));
    let opts = stack::pinned(FsyncPolicy::Always, spec.checkpoint_every, 2);
    let share = cfg.measured().div_f64(spec.instances as f64);
    let per_instance = 1.0 / spec.instances as f64;
    let (mut cycle_s, mut setup_s, mut recovery_s) = (0.0, 0.0, 0.0);
    let mut visible_ms = Vec::new();
    for k in 0..spec.instances {
        let instance = spec.instance(cfg, k);
        eprintln!(
            "{}: instance {k}: {} nodes / {} edges, {} patterns, {}-edge batches",
            spec.name,
            instance.graph0.node_count(),
            instance.graph0.edge_count(),
            instance.patterns.len(),
            spec.batch
        );
        let phase = measure::<E>(cfg, spec, &instance, &opts, share, false);
        // The instances are the same size: the peak is read once, before
        // any oracle has run.
        if k == 0 {
            report.set("peak_rss_mb", peak_rss_mb());
        }
        let untraced_ups = phase.updates_per_s(spec);
        cycle_s += phase.cycle_s(spec);
        visible_ms.extend_from_slice(&phase.visible_ms);
        setup_s += phase.setup_s * per_instance;
        let (recovery, _) = finish(cfg, report, spec, &instance, phase);
        recovery_s += recovery * per_instance;
        if cfg.trace && k == 0 {
            traced::<E>(cfg, report, spec, &instance, &opts, share, untraced_ups);
        }
    }
    // One median cycle of every instance.
    let cycle_ops = (spec.cycle_batches * spec.batch as u64 * spec.instances) as f64;
    report.set("updates_per_s", cycle_ops / cycle_s);
    report.set("loadgen.visible_p50_ms", median(&visible_ms));
    report.set("loadgen.visible_p99_ms", p99(&visible_ms));
    report.set("setup_s", setup_s);
    report.set("durable.recovery_s", recovery_s);
}

/// The traced run on one instance: the same phase with the sink spans on,
/// then the stage mirror and the same-run baseline.
fn traced<E: IncrementalEngine>(
    cfg: &RunConfig,
    report: &mut Report,
    spec: &Spec,
    instance: &Instance,
    opts: &DurableOptions,
    share: Duration,
    untraced_ups: f64,
) {
    let phase = measure::<E>(cfg, spec, instance, opts, share, true);
    let traced_ups = phase.updates_per_s(spec);
    report.set("trace.overhead_frac", 1.0 - ratio(traced_ups, untraced_ups));
    report.set("service.read_us_p99", quantile(&phase.read_us, 0.99));
    let apply_us: Vec<f64> = phase.sink.spans.iter().map(|s| us(s.end - s.start)).collect();
    report.set("durable.apply_us_p50", median(&apply_us));
    report.set("durable.apply_us_p99", quantile(&apply_us, 0.99));
    let gaps: Vec<f64> = phase
        .sink
        .spans
        .iter()
        .filter_map(|span| {
            let slot = span.seq.checked_sub(phase.folder.first_seq)? as usize;
            let polled = *phase.folder.polled_at.get(slot)?;
            Some(signed_us(span.end, polled))
        })
        .collect();
    report.set("durable.poll_gap_us_p50", median(&gaps));
    report.set("durable.poll_gap_us_p99", quantile(&gaps, 0.99));
    report.set("durable.lagged_events", phase.folder.lagged as f64);
    let patterns = &instance.patterns;
    stack::sharing(report, &phase.sink.inner, patterns);
    stack::outcome_counts(report, &phase.sink.recorded, patterns.len(), spec.bounded);

    let live: Vec<Arc<MatchRelation>> = phase
        .ids
        .iter()
        .map(|&id| phase.sink.inner.try_matches(id).expect("service is readable"))
        .collect();
    let times = stack::mirror::<E>(
        cfg,
        report,
        &instance.graph0,
        patterns,
        &phase.ids,
        opts,
        &phase.sink.spans,
        &phase.sink.recorded,
        &live,
        spec.name,
    );
    stack::report_mirror(cfg, report, &times);
    if spec.bounded {
        let incremental: Vec<f64> = times
            .shared_mutate_us
            .iter()
            .zip(times.pattern_apply_us.chunks(patterns.len()))
            .map(|(mutate, patterns)| mutate + patterns.iter().sum::<f64>())
            .collect();
        let graph = phase.sink.inner.service().graph().clone();
        let scratch = scratch_us(patterns, &graph, spec.oracle);
        report.set("bsim.speedup_vs_scratch", ratio(scratch, median(&incremental)));
    }
    let (_, replayed) = finish(cfg, report, spec, instance, phase);
    report.set("durable.replayed_batches", replayed as f64);
}

/// One measured phase into a fresh directory: cold opens, the timed closed
/// loop, then the untimed alignment to the checkpoint boundary plus tail.
fn measure<E: IncrementalEngine>(
    cfg: &RunConfig,
    spec: &Spec,
    instance: &Instance,
    opts: &DurableOptions,
    measured: Duration,
    tracing: bool,
) -> Phase<E> {
    let Instance { graph0, patterns, churn } = instance;
    let (service, ids, setup_s) = stack::cold_open::<E>(cfg, spec.name, patterns, graph0, opts);
    let mut folder = Folder::subscribe(&service, &ids);
    let mut sink = TracedSink::new(service, tracing);
    let (mut ops, mut failed, mut pos) = (0u64, 0u64, 0u64);
    let mut visible_ms = Vec::new();
    let mut read_us = Vec::new();
    // One iteration; returns whether the batch committed.
    let mut step = |sink: &mut TracedSink<E>, folder: &mut Folder, timed: bool| {
        let batch = BatchUpdate::from_updates(churn.window(pos, spec.batch));
        pos += spec.batch as u64;
        let t0 = Instant::now();
        let committed = match sink.apply_batch(&batch) {
            Ok(_) => true,
            Err(error) => {
                eprintln!("{}: batch failed: {error}", spec.name);
                false
            }
        };
        folder.drain();
        if timed {
            visible_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        for &id in &ids {
            let t = Instant::now();
            let view = sink.inner.try_matches(id).expect("service is readable");
            std::hint::black_box(&view);
            if tracing {
                read_us.push(us(t.elapsed()));
            }
        }
        committed
    };
    let start = Instant::now();
    let deadline = start + measured;
    let batch = spec.batch as u64;
    let (mut cycle_s, mut cycle_start, mut steps) = (Vec::new(), start, 0u64);
    while Instant::now() < deadline {
        if step(&mut sink, &mut folder, true) {
            ops += batch;
        } else {
            failed += batch;
        }
        steps += 1;
        if steps.is_multiple_of(spec.cycle_batches) {
            let now = Instant::now();
            cycle_s.push((now - cycle_start).as_secs_f64());
            cycle_start = now;
        }
    }
    let elapsed = start.elapsed();
    while sink.inner.sequence() % spec.cycle_batches != spec.tail {
        if !step(&mut sink, &mut folder, false) {
            failed += batch;
        }
    }
    Phase { sink, ids, folder, ops, failed, elapsed, cycle_s, visible_ms, read_us, setup_s }
}

/// Oracles and recovery for one phase: every view equals the from-scratch
/// oracle, the folded deltas reproduce every view, and reopening the
/// directory reproduces the views and the sequence number.
fn finish<E: IncrementalEngine>(
    cfg: &RunConfig,
    report: &mut Report,
    spec: &Spec,
    instance: &Instance,
    phase: Phase<E>,
) -> (f64, u64) {
    let service: DurableMatchService<E> = phase.sink.inner;
    let committed = service.sequence() * spec.batch as u64;
    report.attempted += committed + phase.failed;
    report.failed += phase.failed;
    let graph = service.service().graph();
    for (pattern, &id) in instance.patterns.iter().zip(&phase.ids) {
        let view = service.try_matches(id).expect("service is readable");
        report.check_view(cfg, &view, &(spec.oracle)(pattern, graph), || {
            format!("{}: view of {id} differs from the from-scratch oracle", spec.name)
        });
    }
    phase.folder.check(cfg, report, &service, spec.name);
    let Instance { graph0, patterns, .. } = instance;
    stack::recover(cfg, report, service, &phase.ids, patterns, graph0, spec.name)
}

/// Median time to recompute every pattern from scratch on `graph`.
fn scratch_us(
    patterns: &[Pattern],
    graph: &DataGraph,
    oracle: fn(&Pattern, &DataGraph) -> MatchRelation,
) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for pattern in patterns {
                std::hint::black_box(oracle(pattern, graph));
            }
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}
