//! The durable-stack machinery the `live-dag`, `fanout-cyclic` and
//! `bounded-fanout` workloads share: the span-recording sink adapter, the
//! folding subscriber, cold open and recovery timing, and the stage mirror
//! that replays recorded batches through the public stage functions
//! `DurableMatchService::apply` is built from.

use crate::common::{median, quantile, ratio, Report, RunConfig};
use igpm_core::candidates_with_shards;
use igpm_core::{
    AffStats, ApplyOutcome, DurableError, DurableMatchService, DurableOptions, IncrementalEngine,
    IngestSink, PatternId, ServiceApply, ServiceDeltaEvent, ServiceSubscription, SharedBatch,
    SharedMutation,
};
use igpm_graph::update::{reduce_batch_sharded, validate_batch};
use igpm_graph::wal::{prune_checkpoints, write_checkpoint, Wal};
use igpm_graph::{BatchUpdate, DataGraph, MatchDelta, MatchRelation, Pattern, ShardPlan, Update};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cold opens per run; `setup_s` is their median. An open writes and syncs
/// a checkpoint, so its time carries the disk's latency noise.
const SETUP_REPS: usize = 9;

/// Recovery reopens per run; `durable.recovery_s` is their median.
const RECOVERY_REPS: usize = 7;

/// The stated error of the stage mirror: the share of the real
/// `durable.apply` time its stages may leave uncovered, either way. The
/// mirror runs warm and on one thread; the real apply also pays cross-thread
/// cache traffic (`live-dag`) and co-tenant noise.
const UNACCOUNTED_ERROR: f64 = 0.3;

/// One span per batch the durable tier committed, recorded around
/// `DurableMatchService::apply`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub seq: u64,
    pub start: Instant,
    pub end: Instant,
    /// The apply took an automatic checkpoint.
    pub checkpointed: bool,
}

/// A committed batch as the real service saw it, for the stage mirror.
pub struct Recorded {
    pub batch: BatchUpdate,
    pub outcomes: Vec<ApplyOutcome>,
}

/// `IngestSink` adapter over a `DurableMatchService`: with tracing on it
/// records one [`Span`] per committed batch plus the batch and its outcomes;
/// with tracing off it forwards the call and records nothing.
pub struct TracedSink<E: IncrementalEngine> {
    pub inner: DurableMatchService<E>,
    pub tracing: bool,
    pub spans: Vec<Span>,
    pub recorded: Vec<Recorded>,
}

impl<E: IncrementalEngine> TracedSink<E> {
    pub fn new(inner: DurableMatchService<E>, tracing: bool) -> Self {
        TracedSink { inner, tracing, spans: Vec::new(), recorded: Vec::new() }
    }
}

impl<E: IncrementalEngine> IngestSink for TracedSink<E> {
    type Outcome = ServiceApply;
    type Error = DurableError;

    fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<ServiceApply, DurableError> {
        if !self.tracing {
            return self.inner.apply(batch);
        }
        let checkpoint_before = self.inner.last_checkpoint_seq();
        let start = Instant::now();
        let result = self.inner.apply(batch);
        let end = Instant::now();
        if let Ok(apply) = &result {
            self.spans.push(Span {
                seq: self.inner.sequence(),
                start,
                end,
                checkpointed: self.inner.last_checkpoint_seq() != checkpoint_before,
            });
            let outcomes = apply
                .outcomes
                .values()
                .map(|outcome| {
                    outcome.clone().expect("no pattern pipeline panics in the benchmark")
                })
                .collect();
            self.recorded.push(Recorded { batch: batch.clone(), outcomes });
        }
        result
    }

    fn sink_graph(&self) -> &DataGraph {
        self.inner.service().graph()
    }

    fn committed_seq(&self) -> u64 {
        self.inner.sequence()
    }
}

/// A subscriber that folds every polled delta into per-pattern views and
/// records when each sequence number was first polled.
pub struct Folder {
    sub: ServiceSubscription,
    pub views: BTreeMap<PatternId, MatchRelation>,
    /// Sequence number of the first batch this subscriber expects.
    pub first_seq: u64,
    /// `polled_at[seq - first_seq]`: when the first event of `seq` arrived.
    pub polled_at: Vec<Instant>,
    /// Events seen per sequence number (one per pattern when complete).
    pub events: Vec<u32>,
    pub lagged: u64,
    pub out_of_order: u64,
}

impl Folder {
    /// Subscribes from the service's next sequence number, seeding the
    /// folded views from its current ones.
    pub fn subscribe<E: IncrementalEngine>(
        service: &DurableMatchService<E>,
        ids: &[PatternId],
    ) -> Folder {
        let views = ids
            .iter()
            .map(|&id| (id, (*service.try_matches(id).expect("fresh service is readable")).clone()))
            .collect();
        Folder {
            sub: service.subscribe(),
            views,
            first_seq: service.sequence() + 1,
            polled_at: Vec::new(),
            events: Vec::new(),
            lagged: 0,
            out_of_order: 0,
        }
    }

    /// Polls until caught up; returns how many events arrived.
    pub fn drain(&mut self) -> usize {
        let mut count = 0;
        while let Some(event) = self.sub.poll() {
            count += 1;
            match event {
                ServiceDeltaEvent::Delta { pattern_id, seq, delta } => {
                    self.fold(pattern_id, seq, &delta)
                }
                ServiceDeltaEvent::Lagged { missed, .. } => self.lagged += missed,
            }
        }
        count
    }

    fn fold(&mut self, pattern_id: PatternId, seq: u64, delta: &MatchDelta) {
        let slot = (seq - self.first_seq) as usize;
        if slot == self.polled_at.len() {
            self.polled_at.push(Instant::now());
            self.events.push(0);
        } else if slot > self.polled_at.len() {
            self.out_of_order += 1;
            return;
        }
        self.events[slot] += 1;
        match self.views.get_mut(&pattern_id) {
            Some(view) => delta.apply_to(view),
            None => self.out_of_order += 1,
        }
    }

    /// Polls until every batch up to `seq` has been seen, giving up after
    /// ten seconds (the delta-stream oracle then reports the gap).
    pub fn drain_through(&mut self, seq: u64) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while self.first_seq + (self.polled_at.len() as u64) <= seq && Instant::now() < give_up {
            self.drain();
        }
    }

    /// The oracle over the delta stream: every sequence number up to `seq`
    /// polled exactly once per pattern, in order, with no lag, and the
    /// folded views equal the live ones.
    pub fn check<E: IncrementalEngine>(
        &self,
        cfg: &RunConfig,
        report: &mut Report,
        service: &DurableMatchService<E>,
        workload: &str,
    ) {
        let patterns = self.views.len() as u32;
        let expected_batches = service.sequence() + 1 - self.first_seq;
        report.check(self.polled_at.len() as u64 == expected_batches, || {
            format!(
                "{workload}: polled {} batches, committed {expected_batches}",
                self.polled_at.len()
            )
        });
        report.check(self.events.iter().all(|&n| n == patterns), || {
            format!("{workload}: a batch was not polled once per pattern")
        });
        report.check(self.lagged == 0 && self.out_of_order == 0, || {
            format!(
                "{workload}: subscriber lagged {} / out of order {}",
                self.lagged, self.out_of_order
            )
        });
        for (&id, folded) in &self.views {
            let live = service.try_matches(id).expect("service is readable");
            report.check_view(cfg, folded, &live, || {
                format!("{workload}: folded deltas of {id} differ from its view")
            });
        }
    }
}

/// A fresh directory under the run's data directory.
fn fresh_dir(cfg: &RunConfig, name: &str) -> std::path::PathBuf {
    let dir = cfg.data_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cold-opens the service [`SETUP_REPS`] times, each into a fresh directory
/// (bootstrap checkpoint, shared build, pattern registration); returns the
/// last service and the median open time in seconds.
pub fn cold_open<E: IncrementalEngine>(
    cfg: &RunConfig,
    name: &str,
    patterns: &[Pattern],
    graph0: &DataGraph,
    opts: &DurableOptions,
) -> (DurableMatchService<E>, Vec<PatternId>, f64) {
    let mut times = Vec::new();
    let mut last: Option<(DurableMatchService<E>, Vec<PatternId>)> = None;
    for rep in 0..SETUP_REPS {
        // The previous service goes first, so two never share the peak.
        if let Some((previous, _)) = last.take() {
            let dir = previous.dir().to_path_buf();
            drop(previous);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = fresh_dir(cfg, &format!("{name}-{rep}"));
        let start = Instant::now();
        let opened = DurableMatchService::<E>::open(&dir, patterns, graph0, opts.clone())
            .expect("cold open");
        times.push(start.elapsed().as_secs_f64());
        last = Some(opened);
    }
    let (service, ids) = last.expect("at least one open");
    (service, ids, median(&times))
}

/// Closes `service` and reopens its directory [`RECOVERY_REPS`] times
/// (checkpoint load, re-registration, WAL-tail replay), checking each time
/// that the views and the sequence number equal the live ones. Returns the
/// median reopen time in seconds and the number of replayed batches.
pub fn recover<E: IncrementalEngine>(
    cfg: &RunConfig,
    report: &mut Report,
    service: DurableMatchService<E>,
    ids: &[PatternId],
    patterns: &[Pattern],
    graph0: &DataGraph,
    workload: &str,
) -> (f64, u64) {
    let dir = service.dir().to_path_buf();
    let opts = service.options().clone();
    let sequence = service.sequence();
    let replayed = sequence - service.last_checkpoint_seq();
    let live: Vec<Arc<MatchRelation>> =
        ids.iter().map(|&id| service.try_matches(id).expect("service is readable")).collect();
    drop(service);
    let mut times = Vec::new();
    for _ in 0..RECOVERY_REPS {
        let start = Instant::now();
        let (reopened, new_ids) =
            DurableMatchService::<E>::open(&dir, patterns, graph0, opts.clone()).expect("reopen");
        times.push(start.elapsed().as_secs_f64());
        report.check(reopened.sequence() == sequence, || {
            format!("{workload}: recovered sequence {} != {sequence}", reopened.sequence())
        });
        for (id, view) in new_ids.iter().zip(&live) {
            let recovered = reopened.try_matches(*id).expect("recovered service is readable");
            report.check_view(cfg, &recovered, view, || {
                format!("{workload}: recovered view of {id} differs from live")
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "{workload}: {} reopens, {replayed} batches replayed, {:.4}..{:.4} s",
        times.len(),
        quantile(&times, 0.0),
        quantile(&times, 1.0)
    );
    (median(&times), replayed)
}

/// One batch's delta bundle, shaped as the durable tier publishes it.
type Payload = Arc<Vec<(PatternId, Arc<MatchDelta>)>>;

/// Per-layer numbers the stage mirror produced.
#[derive(Default)]
pub struct MirrorTimes {
    pub validate_ns: f64,
    pub reduce_ns: f64,
    pub wal_append_us: Vec<f64>,
    pub wal_bytes: u64,
    pub shared_mutate_us: Vec<f64>,
    pub pattern_apply_us: Vec<f64>,
    pub publish_ns: f64,
    pub checkpoint_ms: Vec<f64>,
    pub submitted: usize,
    pub effective: usize,
    pub affected_entries: usize,
    pub covered: Duration,
    pub real: Duration,
}

/// Replays the recorded batches through the public stages the durable
/// service apply is built from — `validate_batch` → `Wal::append` (own
/// directory, same fsync policy) → `validate_batch` again (the service's
/// own pass) → `reduce_batch_sharded` → `E::shared_mutate` → each pattern's
/// `E::try_apply_shared` → the delta bundle and its ring push → the
/// automatic checkpoint where the real run took one — checking every outcome
/// is bit-identical to the real run's, and timing each stage. Ends by
/// comparing every mirrored view with `live`.
#[allow(clippy::too_many_arguments)]
pub fn mirror<E: IncrementalEngine>(
    cfg: &RunConfig,
    report: &mut Report,
    graph0: &DataGraph,
    patterns: &[Pattern],
    ids: &[PatternId],
    opts: &DurableOptions,
    spans: &[Span],
    recorded: &[Recorded],
    live: &[Arc<MatchRelation>],
    workload: &str,
) -> MirrorTimes {
    let dir = fresh_dir(cfg, "mirror");
    let mut graph = graph0.clone();
    let shards = 1;
    let mut shared = E::shared_build(&graph, shards);
    let mut engines: Vec<E> = patterns
        .iter()
        .map(|pattern| {
            let lists: Vec<Arc<Vec<_>>> =
                candidates_with_shards(pattern, &graph, shards).into_iter().map(Arc::new).collect();
            E::build_in_service(pattern, &graph, &mut shared, &lists, shards).expect("build")
        })
        .collect();
    std::fs::create_dir_all(&dir).expect("mirror directory");
    write_checkpoint(&dir, 0, &graph).expect("mirror bootstrap checkpoint");
    let (mut wal, _) = Wal::open(&dir, opts.fsync).expect("mirror WAL");
    let ring: Mutex<VecDeque<(u64, Payload)>> = Mutex::new(VecDeque::new());
    let mut times = MirrorTimes::default();
    let mut mismatches = 0usize;
    for (span, record) in spans.iter().zip(recorded) {
        let batch = &record.batch;
        // The durable tier validates before logging and the service
        // validates again before reducing: two passes, both timed.
        let t = Instant::now();
        let rejections = validate_batch(&graph, batch);
        let mut validate = t.elapsed();
        report.check(rejections.is_empty(), || {
            format!("{workload}: mirror rejected batch {}", span.seq)
        });

        let before = segment_bytes(&wal);
        let t = Instant::now();
        wal.append(span.seq, batch).expect("mirror WAL append");
        let append = t.elapsed();
        times.wal_bytes += segment_bytes(&wal).saturating_sub(before);

        let t = Instant::now();
        std::hint::black_box(validate_batch(&graph, batch));
        validate += t.elapsed();

        let t = Instant::now();
        let monotone = batch.iter().all(Update::is_insert);
        let plan = ShardPlan::new(graph.node_count(), shards);
        let (effective, _) = reduce_batch_sharded(&graph, batch, plan);
        let reduce = t.elapsed();

        let t = Instant::now();
        let mutation = if effective.is_empty() {
            SharedMutation::default()
        } else {
            E::shared_mutate(&mut shared, &mut graph, &effective, shards)
        };
        let mutate = t.elapsed();

        let shared_batch = SharedBatch { batch_len: batch.len(), monotone, effective: &effective };
        let mut patterns_time = Duration::ZERO;
        let mut outcomes = Vec::with_capacity(engines.len());
        for (engine, real) in engines.iter_mut().zip(&record.outcomes) {
            let t = Instant::now();
            let outcome =
                engine.try_apply_shared(&graph, &mut shared, &shared_batch, &mutation, shards);
            let took = t.elapsed();
            patterns_time += took;
            times.pattern_apply_us.push(took.as_secs_f64() * 1e6);
            match outcome {
                Ok(outcome) if outcome == *real => outcomes.push(outcome),
                _ => mismatches += 1,
            }
        }

        // The delta bundle as the durable tier builds it (each delta cloned
        // out of its outcome and keyed by pattern), pushed into a bounded
        // ring under a lock.
        let t = Instant::now();
        let payload: Payload = Arc::new(
            ids.iter()
                .zip(&outcomes)
                .map(|(&id, outcome)| (id, Arc::new(outcome.delta.clone())))
                .collect(),
        );
        {
            let mut ring = ring.lock().expect("mirror ring lock");
            ring.push_back((span.seq, payload));
            while ring.len() > opts.delta_buffer {
                ring.pop_front();
            }
        }
        let publish = t.elapsed();
        std::hint::black_box(outcomes);

        let mut checkpoint = Duration::ZERO;
        if span.checkpointed {
            let t = Instant::now();
            write_checkpoint(&dir, span.seq, &graph).expect("mirror checkpoint");
            wal.rotate(span.seq + 1).expect("mirror WAL rotate");
            if let Some(oldest) = prune_checkpoints(&dir, opts.keep_checkpoints).expect("prune") {
                wal.prune_segments_below(oldest).expect("prune WAL");
            }
            checkpoint = t.elapsed();
            times.checkpoint_ms.push(checkpoint.as_secs_f64() * 1e3);
        }

        times.validate_ns += validate.as_nanos() as f64;
        times.reduce_ns += reduce.as_nanos() as f64;
        times.wal_append_us.push(append.as_secs_f64() * 1e6);
        times.shared_mutate_us.push(mutate.as_secs_f64() * 1e6);
        times.publish_ns += publish.as_nanos() as f64;
        times.submitted += batch.len();
        times.effective += effective.len();
        times.affected_entries += mutation.affected_entries;
        times.covered += validate + append + reduce + mutate + patterns_time + publish + checkpoint;
        times.real += span.end - span.start;
    }
    report.check(mismatches == 0, || {
        format!("{workload}: {mismatches} mirrored outcomes differ from the real run")
    });
    for (engine, view) in engines.iter().zip(live) {
        let mirrored = engine.try_matches().expect("mirror engine is readable");
        report.check_view(cfg, &mirrored, view, || format!("{workload}: mirrored view differs"));
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    times
}

/// Bytes in the WAL's active segment.
fn segment_bytes(wal: &Wal) -> u64 {
    wal.segment_paths()
        .last()
        .and_then(|path| std::fs::metadata(path).ok())
        .map_or(0, |meta| meta.len())
}

/// Reports the mirror's per-layer numbers, and the share of the real
/// `durable.apply` time no mirrored stage covers, which must lie within
/// [`UNACCOUNTED_ERROR`].
pub fn report_mirror(cfg: &RunConfig, report: &mut Report, times: &MirrorTimes) {
    let submitted = times.submitted as f64;
    report.set("update.validate_ns_per_op", ratio(times.validate_ns, submitted));
    report.set("update.reduce_ns_per_op", ratio(times.reduce_ns, submitted));
    report.set("update.effective_frac", ratio(times.effective as f64, submitted));
    report.set("wal.append_us_p50", median(&times.wal_append_us));
    report.set("wal.append_us_p99", quantile(&times.wal_append_us, 0.99));
    report.set("wal.bytes_per_update", ratio(times.wal_bytes as f64, submitted));
    report.set("service.shared_mutate_us_p50", median(&times.shared_mutate_us));
    report.set("service.pattern_apply_us_p50", median(&times.pattern_apply_us));
    report.set("service.pattern_apply_us_p99", quantile(&times.pattern_apply_us, 0.99));
    report.set(
        "durable.publish_ns_per_batch",
        ratio(times.publish_ns, times.wal_append_us.len() as f64),
    );
    if !times.checkpoint_ms.is_empty() {
        report.set("durable.checkpoint_ms_p50", median(&times.checkpoint_ms));
    }
    report.set(
        "landmark_inc.affected_entries_per_update",
        ratio(times.affected_entries as f64, submitted),
    );
    let real = times.real.as_secs_f64();
    let unaccounted = 1.0 - ratio(times.covered.as_secs_f64(), real);
    report.set("trace.unaccounted_frac", unaccounted);
    // A tiny self-test run has a few dozen batches, too few for the sums to
    // average out the fsync noise; only full-scale runs are held to it.
    report.check(cfg.tiny || unaccounted.abs() <= UNACCOUNTED_ERROR, || {
        format!("the stage mirror leaves {unaccounted:.3} of durable.apply unaccounted")
    });
}

/// The durable options every durable workload pins explicitly, so neither
/// `IGPM_FSYNC` nor `IGPM_SHARDS` can change a workload.
pub fn pinned(
    fsync: igpm_graph::wal::FsyncPolicy,
    checkpoint_every: u64,
    keep: usize,
) -> DurableOptions {
    DurableOptions {
        fsync,
        checkpoint_every,
        keep_checkpoints: keep,
        shards: 1,
        delta_buffer: 1 << 16,
    }
}

/// Counts of the sharing property: distinct interned candidate sets, and
/// distinct patterns (exact duplicates collapse).
pub fn sharing<E: IncrementalEngine>(
    report: &mut Report,
    service: &DurableMatchService<E>,
    patterns: &[Pattern],
) {
    report
        .set("service.interned_candidate_sets", service.service().interned_candidate_sets() as f64);
    let distinct: std::collections::BTreeSet<String> =
        patterns.iter().map(|p| p.to_string()).collect();
    report.set("service.distinct_patterns", distinct.len() as f64);
}

/// AffStats counts per update, from the real run's outcomes.
pub fn outcome_counts(report: &mut Report, recorded: &[Recorded], patterns: usize, bounded: bool) {
    let mut stats = AffStats::default();
    let (mut ops, mut delta_pairs) = (0usize, 0usize);
    for record in recorded {
        ops += record.batch.len();
        for outcome in &record.outcomes {
            stats.merge(outcome.stats);
            delta_pairs += outcome.delta.len();
        }
    }
    let ops = ops as f64;
    if bounded {
        report.set("bsim.aff_per_update", ratio(stats.aff() as f64, ops));
        return;
    }
    report.set("sim.nodes_visited_per_update", ratio(stats.nodes_visited as f64, ops));
    report.set("sim.counter_updates_per_update", ratio(stats.counter_updates as f64, ops));
    report.set("sim.delta_pairs_per_update", ratio(delta_pairs as f64, ops));
    report.set(
        "sim.nodes_visited_per_pattern_batch",
        ratio(stats.nodes_visited as f64, (recorded.len() * patterns) as f64),
    );
}
