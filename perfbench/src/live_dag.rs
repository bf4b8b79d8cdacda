//! `live-dag`: the full stack, open loop.
//!
//! A Poisson producer submits 1–2-edge submissions at a fixed rate into
//! `Ingest::spawn` over a `DurableMatchService<SimulationIndex>` (fsync
//! `never`) watching 16 small DAG patterns, and a `ServiceSubscription` on
//! the same (main) thread folds every delta. Each submission is timed from
//! its *scheduled* send time until the subscriber has polled the batch it
//! rode in (`loadgen.visible_p50_ms`). A saturated phase with blocking
//! submits follows and gives `updates_per_s`. Two threads: main (producer
//! and subscriber) and the ingest drainer, sharing one CPU.

use crate::common::{
    median, p99, peak_rss_mb, quantile, ratio, signed_us, Churn, CpuMask, Report, RunConfig,
};
use crate::stack::{self, Folder, TracedSink};
use igpm_core::{
    DurableError, Ingest, IngestOptions, IngestSink, MatchService, PatternId, ServiceApply,
    SimulationIndex, Ticket,
};
use igpm_generator::{
    generate_pattern, synthetic_graph, PatternGenConfig, PatternShape, SyntheticConfig,
};
use igpm_graph::wal::FsyncPolicy;
use igpm_graph::{BatchUpdate, DataGraph, MatchRelation, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean Poisson inter-arrival time: 2,000 submissions per second.
const MEAN_GAP_US: f64 = 500.0;
/// Share of the measured time spent in the paced phase; the rest is the
/// saturated phase, which gives the gated `updates_per_s`.
const PACED_SHARE: f64 = 0.4;
/// The saturated phase is timed in this many equal windows; `updates_per_s`
/// is the median window's rate, so a co-tenant burst that slows one or two
/// windows does not move it.
const SAT_WINDOWS: u32 = 8;
/// The fixed tail applied synchronously after the explicit checkpoint that
/// ends the measured phase: `durable.recovery_s` replays exactly these batches.
const TAIL_BATCHES: usize = 32;
const TAIL_OPS: usize = 64;

/// How often the waiting producer polls the subscriber; bounds the poll
/// gap's resolution.
const POLL_INTERVAL: Duration = Duration::from_micros(5);

type LiveTicket = Ticket<ServiceApply, DurableError>;

/// The ingest options, pinned explicitly (they equal the library defaults).
fn ingest_options() -> IngestOptions {
    IngestOptions { queue_capacity: 8192, min_batch: 8, max_batch: 2048, burst_backlog: 16 }
}

/// One paced submission.
struct Submission {
    scheduled: Instant,
    sent: Instant,
    seq: u64,
}

struct Phase {
    sink: TracedSink<SimulationIndex>,
    ids: Vec<PatternId>,
    folder: Folder,
    paced: Vec<Submission>,
    saturated_ops: u64,
    saturated_elapsed: Duration,
    /// Admitted updates per second in each complete saturated window.
    window_rates: Vec<f64>,
    attempted_ops: u64,
    failed: u64,
    backpressure: u64,
    batch_ops_mean: f64,
    checkpoint_ms: f64,
    setup_s: f64,
}

impl Phase {
    /// The median saturated window's rate; the whole phase's rate when no
    /// window completed.
    fn updates_per_s(&self) -> f64 {
        if self.window_rates.is_empty() {
            self.saturated_ops as f64 / self.saturated_elapsed.as_secs_f64()
        } else {
            median(&self.window_rates)
        }
    }

    /// When the subscriber first polled batch `seq`; `None` for a
    /// submission that never committed (counted as failed).
    fn polled(&self, seq: u64) -> Option<Instant> {
        let slot = seq.checked_sub(self.folder.first_seq)?;
        self.folder.polled_at.get(slot as usize).copied()
    }
}

pub fn run(cfg: &RunConfig, report: &mut Report) {
    let (nodes, edges) = if cfg.tiny { (1_000, 5_000) } else { (20_000, 100_000) };
    let graph0 = synthetic_graph(&SyntheticConfig::new(nodes, edges, 6, cfg.seed));
    let patterns: Vec<Pattern> = (0..16)
        .map(|i| {
            let size = 2 + (i % 3);
            generate_pattern(
                &graph0,
                &PatternGenConfig::normal(size, size - 1 + i % 2, 1, cfg.seed + 100 + i as u64)
                    .with_shape(PatternShape::Dag),
            )
        })
        .collect();
    let churn = Churn::generate(&graph0, if cfg.tiny { 4_096 } else { 131_072 }, cfg.seed + 13);

    let phase = measure(cfg, &graph0, &patterns, &churn, false);
    report.set("peak_rss_mb", peak_rss_mb());
    let visible: Vec<f64> = phase
        .paced
        .iter()
        .filter_map(|s| Some(signed_us(s.scheduled, phase.polled(s.seq)?) / 1e3))
        .collect();
    let updates_per_s = phase.updates_per_s();
    report.set("updates_per_s", updates_per_s);
    report.set("loadgen.visible_p50_ms", median(&visible));
    report.set("loadgen.visible_p99_ms", p99(&visible));
    report.set("setup_s", phase.setup_s);
    eprintln!(
        "live-dag: {} paced samples, saturated {} updates in {:.2}s, {:.1} ops per batch",
        visible.len(),
        phase.saturated_ops,
        phase.saturated_elapsed.as_secs_f64(),
        phase.batch_ops_mean
    );
    report.check(visible.len() >= 1000 || cfg.tiny, || {
        format!("live-dag: only {} paced samples", visible.len())
    });
    let (recovery_s, _) = finish(cfg, report, &graph0, &patterns, &churn, phase);
    report.set("durable.recovery_s", recovery_s);

    if cfg.trace {
        let phase = measure(cfg, &graph0, &patterns, &churn, true);
        let traced_ups = phase.updates_per_s();
        report.set("trace.overhead_frac", 1.0 - ratio(traced_ups, updates_per_s));
        tile(report, &phase);
        report.set("ingest.batch_ops_mean", phase.batch_ops_mean);
        report.set("ingest.backpressure_events", phase.backpressure as f64);
        report.set("durable.lagged_events", phase.folder.lagged as f64);
        report.set("durable.checkpoint_ms_p50", phase.checkpoint_ms);
        stack::sharing(report, &phase.sink.inner, &patterns);
        let live: Vec<Arc<MatchRelation>> = phase
            .ids
            .iter()
            .map(|&id| phase.sink.inner.try_matches(id).expect("service is readable"))
            .collect();
        stack::outcome_counts(report, &phase.sink.recorded, patterns.len(), false);
        let times = stack::mirror::<SimulationIndex>(
            cfg,
            report,
            &graph0,
            &patterns,
            &phase.ids,
            phase.sink.inner.options(),
            &phase.sink.spans,
            &phase.sink.recorded,
            &live,
            "live-dag",
        );
        stack::report_mirror(cfg, report, &times);
        let (_, replayed) = finish(cfg, report, &graph0, &patterns, &churn, phase);
        report.set("durable.replayed_batches", replayed as f64);
    }
}

/// Splits every paced `visible` sample into generator lateness, queue wait,
/// durable apply and poll gap, which tile it end to end. Checks that each
/// sample is attributed to the span of its own batch: the span's seq is the
/// ticket's, and the batch started after the submission was sent. (The poll
/// gap may be slightly negative: the durable tier publishes a batch's deltas
/// before its apply returns.)
fn tile(report: &mut Report, phase: &Phase) {
    let first = phase.sink.spans.first().map_or(1, |span| span.seq);
    let (mut late, mut queue, mut apply, mut gap) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut misattributed = 0usize;
    let mut last_seq = 0;
    for s in &phase.paced {
        let Some(polled) = phase.polled(s.seq) else { continue };
        let span = s.seq.checked_sub(first).and_then(|i| phase.sink.spans.get(i as usize));
        let Some(span) = span.filter(|span| span.seq == s.seq) else {
            misattributed += 1;
            continue;
        };
        if span.start < s.sent {
            misattributed += 1;
        }
        late.push(signed_us(s.scheduled, s.sent));
        queue.push(signed_us(s.sent, span.start));
        if s.seq != last_seq {
            apply.push(signed_us(span.start, span.end));
            gap.push(signed_us(span.end, polled));
            last_seq = s.seq;
        }
    }
    report.check(misattributed == 0, || {
        format!("live-dag: {misattributed} visible samples do not fit their batch's span")
    });
    report.set("loadgen.late_p99_us", quantile(&late, 0.99));
    report.set("ingest.queue_wait_p50_us", median(&queue));
    report.set("ingest.queue_wait_p99_us", quantile(&queue, 0.99));
    report.set("durable.apply_us_p50", median(&apply));
    report.set("durable.apply_us_p99", quantile(&apply, 0.99));
    report.set("durable.poll_gap_us_p50", median(&gap));
    report.set("durable.poll_gap_us_p99", quantile(&gap, 0.99));
}

/// The next submission: 1–2 consecutive churn positions.
fn next_batch(churn: &Churn, pos: &mut u64, rng: &mut StdRng) -> BatchUpdate {
    let size = rng.gen_range(1..=2usize);
    let batch = BatchUpdate::from_updates(churn.window(*pos, size));
    *pos += size as u64;
    batch
}

fn measure(
    cfg: &RunConfig,
    graph0: &DataGraph,
    patterns: &[Pattern],
    churn: &Churn,
    tracing: bool,
) -> Phase {
    let opts = stack::pinned(FsyncPolicy::Never, 0, 1);
    let (service, ids, setup_s) =
        stack::cold_open::<SimulationIndex>(cfg, "live-dag", patterns, graph0, &opts);
    let mut folder = Folder::subscribe(&service, &ids);
    // Both threads run on one CPU (the drainer inherits the main thread's
    // pin when it is spawned), and the waiting producer yields instead of
    // spinning, so the drainer runs as soon as it is woken. Across two vCPUs
    // the hand-off paid the hypervisor's wake-up of an idle vCPU, whose
    // latency changed from minute to minute.
    let pinned = CpuMask::current().and_then(|mask| mask.lowest()).is_some_and(|one| one.apply());
    let ingest = Ingest::spawn(TracedSink::new(service, tracing), ingest_options());
    let handle = ingest.handle();
    let mut rng = StdRng::seed_from_u64(cfg.seed + 29);
    let mut pos = 0u64;
    let mut failed = 0u64;
    let mut pending: VecDeque<(usize, usize, LiveTicket)> = VecDeque::new();
    let resolve = |pending: &mut VecDeque<(usize, usize, LiveTicket)>,
                   paced: &mut Vec<Submission>,
                   failed: &mut u64,
                   block: bool| {
        while pending.front().is_some_and(|(_, _, ticket)| block || ticket.is_ready()) {
            let (index, ops, ticket) = pending.pop_front().expect("front checked");
            match ticket.wait() {
                Ok(applied) if applied.applied_ops == ops => {
                    if index != usize::MAX {
                        paced[index].seq = applied.seq;
                    }
                }
                Ok(_) | Err(_) => *failed += ops as u64,
            }
        }
    };

    // Paced phase: Poisson arrivals at a fixed rate, timed from schedule.
    let mut paced: Vec<Submission> = Vec::new();
    let paced_len = cfg.measured().mul_f64(PACED_SHARE);
    let start = Instant::now();
    let mut scheduled = start;
    loop {
        let gap = -MEAN_GAP_US * (1.0 - rng.gen::<f64>()).ln();
        scheduled += Duration::from_secs_f64(gap * 1e-6);
        if scheduled - start >= paced_len {
            break;
        }
        // Poll at most every POLL_INTERVAL while waiting, so the subscriber
        // does not hammer the delta ring's lock the drainer publishes under.
        let mut now = Instant::now();
        while now < scheduled {
            folder.drain();
            resolve(&mut pending, &mut paced, &mut failed, false);
            let next_poll = (now + POLL_INTERVAL).min(scheduled);
            while Instant::now() < next_poll {
                if pinned {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            now = Instant::now();
        }
        let batch = next_batch(churn, &mut pos, &mut rng);
        let ops = batch.len();
        let sent = Instant::now();
        match handle.try_submit(batch) {
            Ok(ticket) => {
                pending.push_back((paced.len(), ops, ticket));
                paced.push(Submission { scheduled, sent, seq: 0 });
            }
            Err(_) => failed += ops as u64,
        }
    }
    resolve(&mut pending, &mut paced, &mut failed, true);
    folder.drain_through(paced.iter().map(|s| s.seq).max().unwrap_or(0));

    // Saturated phase: blocking submits as fast as the queue admits.
    let sat_len = cfg.measured().mul_f64(1.0 - PACED_SHARE);
    let sat_start = Instant::now();
    let pos_before = pos;
    let mut submitted = 0u64;
    let window_len = sat_len / SAT_WINDOWS;
    let (mut window_rates, mut window_start, mut window_pos) = (Vec::new(), sat_start, pos);
    while sat_start.elapsed() < sat_len {
        let batch = next_batch(churn, &mut pos, &mut rng);
        let ops = batch.len();
        match handle.submit(batch) {
            Ok(ticket) => pending.push_back((usize::MAX, ops, ticket)),
            Err(_) => failed += ops as u64,
        }
        submitted += 1;
        if submitted.is_multiple_of(64) {
            folder.drain();
            resolve(&mut pending, &mut paced, &mut failed, false);
            let now = Instant::now();
            if now - window_start >= window_len {
                let took = (now - window_start).as_secs_f64();
                window_rates.push((pos - window_pos) as f64 / took);
                (window_start, window_pos) = (now, pos);
            }
        }
    }
    resolve(&mut pending, &mut paced, &mut failed, true);
    let stats = ingest.stats();
    folder.drain_through(stats.committed_batches + folder.first_seq - 1);
    let saturated_elapsed = sat_start.elapsed();
    let saturated_ops = pos - pos_before;

    let mut sink = ingest.shutdown().expect("the sink survives a clean run");
    // End on a fixed checkpoint boundary plus a fixed synchronous tail.
    let t = Instant::now();
    sink.inner.checkpoint().expect("checkpoint");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    for _ in 0..TAIL_BATCHES {
        let batch = BatchUpdate::from_updates(churn.window(pos, TAIL_OPS));
        pos += TAIL_OPS as u64;
        if sink.apply_batch(&batch).is_err() {
            failed += TAIL_OPS as u64;
        }
    }
    folder.drain();
    Phase {
        sink,
        ids,
        folder,
        paced,
        saturated_ops,
        saturated_elapsed,
        window_rates,
        attempted_ops: pos,
        failed,
        backpressure: stats.backpressure_events,
        batch_ops_mean: ratio(stats.committed_ops as f64, stats.committed_batches as f64),
        checkpoint_ms,
        setup_s,
    }
}

/// Oracles and recovery: every view equals a synchronous control service
/// that applied the same updates, every ticket resolved with its own ops,
/// every batch was polled once per pattern with no lag, the folded deltas
/// reproduce every view, and recovery reproduces the views and sequence.
fn finish(
    cfg: &RunConfig,
    report: &mut Report,
    graph0: &DataGraph,
    patterns: &[Pattern],
    churn: &Churn,
    phase: Phase,
) -> (f64, u64) {
    report.attempted += phase.attempted_ops;
    report.failed += phase.failed;
    let service = phase.sink.inner;
    let mut control: MatchService<SimulationIndex> = MatchService::with_shards(graph0.clone(), 1);
    let control_ids: Vec<PatternId> =
        patterns.iter().map(|p| control.register(p).expect("register")).collect();
    for chunk in churn.replay_positions(phase.attempted_ops) {
        control.apply(&BatchUpdate::from_updates(chunk.to_vec())).expect("control apply");
    }
    for (&id, &control_id) in phase.ids.iter().zip(&control_ids) {
        let view = service.try_matches(id).expect("service is readable");
        let expected = control.matches(control_id).expect("control is readable");
        report.check_view(cfg, &view, &expected, || {
            format!("live-dag: view of {id} differs from the synchronous control")
        });
    }
    phase.folder.check(cfg, report, &service, "live-dag");
    stack::recover(cfg, report, service, &phase.ids, patterns, graph0, "live-dag")
}
