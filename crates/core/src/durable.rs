//! [`DurableIndex`]: the crash-recovery orchestrator over either engine.
//!
//! The in-memory engines guarantee a *transactional* batch boundary; this
//! module adds the *durable* one. A [`DurableIndex<E>`] owns a directory of
//! on-disk state — checkpoints plus a write-ahead log, both provided by
//! [`igpm_graph::wal`] — and keeps it ahead of the in-memory state at all
//! times: every batch is validated, **logged, then applied**. Kill the
//! process at any instruction and [`DurableIndex::open`] reconstructs a
//! state bit-identical to the never-crashed run:
//!
//! 1. sweep stray `*.tmp` files (a checkpoint that crashed before its
//!    atomic rename);
//! 2. load the newest checkpoint that passes its CRC, falling back to older
//!    retained ones ([`igpm_graph::wal::load_latest_checkpoint`]);
//! 3. rebuild the engine from the checkpoint graph via the ordinary sharded
//!    cold-start build ([`IncrementalEngine::rebuild_with_shards`]);
//! 4. open the WAL — truncating it at the first torn or corrupt record —
//!    and replay every record with a sequence number above the checkpoint's
//!    through the normal `try_apply_batch` path.
//!
//! Bit-identity is inherited rather than re-proven: the cold-start build
//! equals the grown index by the build-equivalence invariant, replay uses
//! the very same batch path the live run used, and the graph snapshot
//! preserves adjacency order exactly. Recovery performs **no writes** to the
//! log or the checkpoints, so a crash *during* recovery (the double-crash
//! case) just recovers again from the same on-disk state.
//!
//! The full recovery algorithm, the WAL record format and the fsync
//! trade-off table live in the "Durability" section of `RECOVERY.md`.

use crate::incremental::{apply_validated, ApplyOutcome, BuildError, IncrementalEngine};
use crate::service::{MatchService, PatternId, ServiceApply, ServiceError};
use igpm_graph::io::IoError;
use igpm_graph::shard::configured_shards;
use igpm_graph::update::validate_batch;
use igpm_graph::wal::{
    configured_fsync, list_checkpoints, load_latest_checkpoint, prune_checkpoints,
    sweep_temp_files, write_checkpoint, FsyncPolicy, Wal,
};
use igpm_graph::{ApplyError, BatchUpdate, DataGraph, MatchDelta, MatchRelation, Pattern};
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tuning knobs of a [`DurableIndex`]. `Default` reads the environment:
/// `IGPM_FSYNC` for the fsync policy, `IGPM_SHARDS` for the shard count.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// What a WAL append forces to stable storage
    /// ([`igpm_graph::wal::FsyncPolicy`]; default: `IGPM_FSYNC`, i.e.
    /// `always` unless overridden).
    pub fsync: FsyncPolicy,
    /// Take a checkpoint automatically once this many batches accumulated
    /// since the last one. `0` (the default) disables automatic
    /// checkpointing; [`DurableIndex::checkpoint`] is always available on
    /// demand.
    pub checkpoint_every: u64,
    /// How many checkpoints to retain (minimum 1; default 2). Retaining more
    /// than one is what makes the corrupt-newest-checkpoint fallback *work*:
    /// WAL segments are only pruned below the **oldest retained** checkpoint,
    /// so every retained checkpoint still has its replay tail. `0` is
    /// rejected at open with [`DurableError::InvalidOptions`] — it would
    /// silently behave as 1.
    pub keep_checkpoints: usize,
    /// Shard count for builds, replays and batch application (default:
    /// [`configured_shards`], the `IGPM_SHARDS` knob). `0` is rejected at
    /// open with [`DurableError::InvalidOptions`].
    pub shards: usize,
    /// Capacity of the per-index delta ring buffer [`Subscription`]s tail
    /// (default 1024 batches). When a subscriber falls more than this many
    /// batches behind, the ring drops the oldest deltas and the subscriber
    /// observes an explicit [`DeltaEvent::Lagged`] instead of silent loss.
    /// `0` is rejected at open with [`DurableError::InvalidOptions`] — a
    /// ring that can hold nothing would lag every subscriber on every batch.
    pub delta_buffer: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: configured_fsync(),
            checkpoint_every: 0,
            keep_checkpoints: 2,
            shards: configured_shards(),
            delta_buffer: 1024,
        }
    }
}

impl DurableOptions {
    /// Rejects degenerate configurations with a typed error instead of
    /// silently reinterpreting them. Called by [`DurableIndex::open`] and
    /// [`DurableMatchService::open`] before anything touches the directory.
    /// Note that `checkpoint_every == 0` is *not* degenerate — it is the
    /// documented "no automatic checkpoints" setting.
    pub fn validate(&self) -> Result<(), InvalidOptions> {
        if self.keep_checkpoints == 0 {
            return Err(InvalidOptions {
                field: "keep_checkpoints",
                value: 0,
                requirement: "at least one checkpoint must be retained",
            });
        }
        if self.shards == 0 {
            return Err(InvalidOptions {
                field: "shards",
                value: 0,
                requirement: "builds and batches need at least one shard",
            });
        }
        if self.delta_buffer == 0 {
            return Err(InvalidOptions {
                field: "delta_buffer",
                value: 0,
                requirement: "the delta ring must be able to buffer at least one batch",
            });
        }
        Ok(())
    }
}

/// A [`DurableOptions`] field rejected by [`DurableOptions::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidOptions {
    /// The rejected field.
    pub field: &'static str,
    /// The value it carried.
    pub value: u64,
    /// What the field requires instead.
    pub requirement: &'static str,
}

impl fmt::Display for InvalidOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {} is invalid: {}", self.field, self.value, self.requirement)
    }
}

impl std::error::Error for InvalidOptions {}

/// One event observed by a [`Subscription`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaEvent {
    /// The delta the engine emitted for the batch logged at WAL sequence
    /// number `seq` (empty deltas are published too — the stream covers
    /// *every* committed batch, which is what makes the crash/recover replay
    /// identity testable).
    Delta {
        /// The WAL sequence number of the batch.
        seq: u64,
        /// The emitted `ΔM`, shared with every other subscriber.
        delta: Arc<MatchDelta>,
    },
    /// The subscriber fell behind the bounded ring
    /// ([`DurableOptions::delta_buffer`]) and `missed` deltas were dropped;
    /// the stream resumes at `resume_seq`. Consumers that need the lost
    /// ground must re-read the full view and diff.
    Lagged {
        /// How many per-batch deltas were dropped.
        missed: u64,
        /// The sequence number the next [`DeltaEvent::Delta`] will carry.
        resume_seq: u64,
    },
}

/// Interior of a sequence-stamped publication ring: the buffered
/// `(seq, payload)` tail plus the high-water mark of everything ever
/// published, which is what makes recovery's re-publication idempotent
/// (live-published sequence numbers are skipped; only the tail the crash
/// swallowed is re-emitted). Generic over the payload so a single-index
/// ring carries one `ΔM` per batch ([`DurableIndex`]) and a service ring
/// carries the pattern-keyed bundle ([`DurableMatchService`]).
#[derive(Debug)]
struct RingInner<T> {
    buf: VecDeque<(u64, T)>,
    capacity: usize,
    newest_seq: u64,
}

/// Shared handle on a publication ring (the index publishes, subscriptions
/// poll).
type Ring<T> = Arc<Mutex<RingInner<T>>>;

fn new_ring<T>(capacity: usize) -> Ring<T> {
    Arc::new(Mutex::new(RingInner {
        buf: VecDeque::new(),
        capacity: capacity.max(1),
        newest_seq: 0,
    }))
}

impl<T> RingInner<T> {
    /// Publishes the payload of the batch at `seq`. Idempotent by sequence
    /// number: a replay re-publishing a live-published batch is a no-op, so
    /// after a crash the subscribers see exactly the events the never-crashed
    /// run would have shown them, each exactly once.
    fn publish(&mut self, seq: u64, payload: T) {
        if seq <= self.newest_seq {
            return;
        }
        if let Some(&(back, _)) = self.buf.back() {
            debug_assert_eq!(seq, back + 1, "delta ring published out of order");
        }
        self.newest_seq = seq;
        self.buf.push_back((seq, payload));
        while self.buf.len() > self.capacity {
            self.buf.pop_front();
        }
    }
}

/// The polling half of a [`Ring`]: a detached cursor that yields each
/// published payload exactly once, surfacing ring overflow as an explicit
/// lag. The typed subscriptions ([`Subscription`], [`ServiceSubscription`])
/// wrap one cursor each and map its items into their event enums.
#[derive(Debug)]
struct RingCursor<T> {
    ring: Ring<T>,
    next_seq: u64,
}

/// One cursor step: a published payload, or the lag marker.
enum RingPoll<T> {
    Item(u64, T),
    Lagged { missed: u64, resume_seq: u64 },
}

impl<T: Clone> RingCursor<T> {
    /// Returns the next publication, or `None` when caught up.
    fn poll(&mut self) -> Option<RingPoll<T>> {
        let ring = self.ring.lock().expect("delta ring lock");
        if self.next_seq > ring.newest_seq {
            return None;
        }
        let oldest = match ring.buf.front() {
            Some(&(seq, _)) => seq,
            // Published batches exist (newest_seq ≥ next_seq) but the buffer
            // is empty — everything was dropped by overflow.
            None => {
                let missed = ring.newest_seq + 1 - self.next_seq;
                self.next_seq = ring.newest_seq + 1;
                return Some(RingPoll::Lagged { missed, resume_seq: self.next_seq });
            }
        };
        if self.next_seq < oldest {
            let missed = oldest - self.next_seq;
            self.next_seq = oldest;
            return Some(RingPoll::Lagged { missed, resume_seq: oldest });
        }
        // Ring sequences are contiguous, so the target sits at a fixed offset.
        let (seq, payload) = ring.buf[(self.next_seq - oldest) as usize].clone();
        debug_assert_eq!(seq, self.next_seq, "delta ring out of order");
        self.next_seq += 1;
        Some(RingPoll::Item(seq, payload))
    }
}

/// A tailing consumer of a [`DurableIndex`]'s per-batch [`MatchDelta`]
/// stream, detached from the index (`poll` never borrows it). Sequence
/// numbers are the WAL sequence numbers of the batches: subscribing at the
/// current [`DurableIndex::sequence`] and folding every polled delta into a
/// snapshot of `try_matches()` reproduces every subsequent view exactly
/// (`view(t) = view(t-1) ∖ removed ⊎ inserted`).
///
/// The ring behind a subscription is bounded
/// ([`DurableOptions::delta_buffer`]); a subscriber that falls behind
/// observes [`DeltaEvent::Lagged`] with an exact drop count instead of a
/// silent gap. The ring survives [`DurableIndex::recover`], and recovery's
/// WAL-tail replay re-publishes **only** the batches whose live publication
/// the crash swallowed (publication is idempotent by sequence number).
#[derive(Debug)]
pub struct Subscription {
    cursor: RingCursor<Arc<MatchDelta>>,
}

impl Subscription {
    /// Returns the next event, or `None` when the subscriber is caught up.
    pub fn poll(&mut self) -> Option<DeltaEvent> {
        Some(match self.cursor.poll()? {
            RingPoll::Item(seq, delta) => DeltaEvent::Delta { seq, delta },
            RingPoll::Lagged { missed, resume_seq } => DeltaEvent::Lagged { missed, resume_seq },
        })
    }

    /// The sequence number the next [`DeltaEvent::Delta`] will carry.
    pub fn next_seq(&self) -> u64 {
        self.cursor.next_seq
    }
}

/// Typed error of the durable-index APIs.
#[derive(Debug)]
pub enum DurableError {
    /// An I/O operation on the WAL or the durability directory failed.
    Io(std::io::Error),
    /// A checkpoint could not be written or none could be verified.
    Snapshot(IoError),
    /// The in-memory apply path rejected or aborted the batch (validation
    /// failure, poisoned index, or a contained mid-batch panic).
    Apply(ApplyError),
    /// The WAL is missing a batch: its records jump over a sequence number
    /// the checkpoint does not cover. On-disk state was tampered with or
    /// segments were deleted out-of-band; recovery refuses to guess.
    SequenceGap {
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number the log actually continued with.
        found: u64,
    },
    /// A logged batch failed to re-apply during recovery replay — possible
    /// only if the on-disk state was modified out-of-band (a logged batch
    /// was validated against exactly this state before being logged).
    Replay {
        /// The sequence number of the failing record.
        seq: u64,
        /// The apply error it failed with.
        error: ApplyError,
    },
    /// The directory holds durable state (WAL segments) but no checkpoint,
    /// or recovery was attempted on a directory that never held one.
    NoCheckpoint,
    /// Registering a pattern with a [`DurableMatchService`] failed (the
    /// pattern itself is unbuildable, see [`BuildError`]).
    Build(BuildError),
    /// A [`PatternId`] passed to a [`DurableMatchService`] does not name a
    /// currently registered pattern.
    UnknownPattern(PatternId),
    /// The [`DurableOptions`] passed to open are degenerate (see
    /// [`DurableOptions::validate`]); nothing was opened or created.
    InvalidOptions(InvalidOptions),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(error) => write!(f, "durability i/o error: {error}"),
            DurableError::Snapshot(error) => write!(f, "checkpoint error: {error}"),
            DurableError::Apply(error) => write!(f, "apply error: {error}"),
            DurableError::SequenceGap { expected, found } => {
                write!(f, "write-ahead log gap: expected batch {expected}, found {found}")
            }
            DurableError::Replay { seq, error } => {
                write!(f, "replay of logged batch {seq} failed: {error}")
            }
            DurableError::NoCheckpoint => {
                write!(f, "durable state has no checkpoint (log present without one?)")
            }
            DurableError::Build(error) => write!(f, "pattern registration failed: {error}"),
            DurableError::UnknownPattern(id) => {
                write!(f, "{id} is not registered with this service")
            }
            DurableError::InvalidOptions(invalid) => {
                write!(f, "invalid durable options: {invalid}")
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(error) => Some(error),
            DurableError::Snapshot(error) => Some(error),
            DurableError::Apply(error) | DurableError::Replay { error, .. } => Some(error),
            DurableError::Build(error) => Some(error),
            DurableError::InvalidOptions(invalid) => Some(invalid),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(error: std::io::Error) -> Self {
        DurableError::Io(error)
    }
}

impl From<IoError> for DurableError {
    fn from(error: IoError) -> Self {
        DurableError::Snapshot(error)
    }
}

/// A durably-backed incremental index: an engine `E` (either
/// [`SimulationIndex`](crate::incremental::sim::SimulationIndex) or
/// [`BoundedIndex`](crate::incremental::bsim::BoundedIndex)), its data
/// graph, and the on-disk WAL + checkpoint state that lets the pair survive
/// a kill at any instruction. See the [module docs](self) for the recovery
/// algorithm and `RECOVERY.md` for the full durability story.
#[derive(Debug)]
pub struct DurableIndex<E> {
    dir: PathBuf,
    opts: DurableOptions,
    wal: Wal,
    graph: DataGraph,
    index: E,
    seq: u64,
    last_checkpoint_seq: u64,
    /// Set when the in-memory state may lag the log (a contained engine
    /// panic after the batch was already logged): every mutation and read
    /// then errors with [`ApplyError::Poisoned`] until
    /// [`DurableIndex::recover`] reconciles from disk.
    dirty: bool,
    /// The per-index delta ring [`Subscription`]s tail. Shared (not rebuilt)
    /// across [`DurableIndex::recover`], so subscribers stay attached.
    deltas: Ring<Arc<MatchDelta>>,
}

/// True iff `dir` contains WAL segment files.
fn has_wal_segments(dir: &Path) -> std::io::Result<bool> {
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(name) = name.to_str() {
            if name.starts_with("wal-") && name.ends_with(".log") {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

impl<E: IncrementalEngine> DurableIndex<E> {
    /// Opens (creating it on first use) the durable state in `dir` for
    /// `pattern`. On first use — no checkpoint and no WAL — a bootstrap
    /// checkpoint of `initial_graph` is written at sequence number 0;
    /// afterwards `initial_graph` is ignored and the state comes entirely
    /// from disk via the recovery algorithm in the [module docs](self).
    /// A directory with WAL segments but no checkpoint is refused
    /// ([`DurableError::NoCheckpoint`]) rather than silently restarted.
    pub fn open(
        dir: impl Into<PathBuf>,
        pattern: &Pattern,
        initial_graph: &DataGraph,
        opts: DurableOptions,
    ) -> Result<Self, DurableError> {
        opts.validate().map_err(DurableError::InvalidOptions)?;
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        sweep_temp_files(&dir)?;
        if list_checkpoints(&dir)?.is_empty() {
            if has_wal_segments(&dir)? {
                return Err(DurableError::NoCheckpoint);
            }
            write_checkpoint(&dir, 0, initial_graph)?;
        }
        let ring = new_ring(opts.delta_buffer);
        Self::open_existing(dir, pattern, opts, ring)
    }

    /// The recovery path proper: requires a checkpoint to exist. Every
    /// WAL-tail record replayed above the checkpoint publishes its emitted
    /// delta into `ring` at its logged sequence number — publication is
    /// idempotent by sequence, so an in-place [`DurableIndex::recover`]
    /// (which passes the live ring) re-emits only the tail the crash
    /// swallowed, while a fresh [`DurableIndex::open`] (empty ring) re-emits
    /// the whole tail exactly as the never-crashed run did.
    fn open_existing(
        dir: PathBuf,
        pattern: &Pattern,
        opts: DurableOptions,
        ring: Ring<Arc<MatchDelta>>,
    ) -> Result<Self, DurableError> {
        sweep_temp_files(&dir)?;
        let load = load_latest_checkpoint(&dir)?.ok_or(DurableError::NoCheckpoint)?;
        let base_seq = load.checkpoint.seq;
        let mut graph = load.checkpoint.graph;
        let mut index = E::rebuild_with_shards(pattern, &graph, opts.shards);
        let (wal, scan) = Wal::open(&dir, opts.fsync)?;
        {
            // Batches at or below the checkpoint are covered by it and will
            // never be re-emitted: raise the ring's high-water mark so a
            // subscriber behind the checkpoint observes an explicit lag
            // instead of a silently "caught up" stream.
            let mut ring_guard = ring.lock().expect("delta ring lock");
            if ring_guard.newest_seq < base_seq {
                ring_guard.newest_seq = base_seq;
            }
        }
        let mut seq = base_seq;
        for record in scan.records {
            if record.seq <= base_seq {
                continue; // covered by the checkpoint; retained for older ones
            }
            if record.seq != seq + 1 {
                return Err(DurableError::SequenceGap { expected: seq + 1, found: record.seq });
            }
            let outcome = index
                .try_apply_batch_with_shards(&mut graph, &record.batch, opts.shards)
                .map_err(|error| DurableError::Replay { seq: record.seq, error })?;
            ring.lock().expect("delta ring lock").publish(record.seq, Arc::new(outcome.delta));
            seq = record.seq;
        }
        Ok(DurableIndex {
            dir,
            opts,
            wal,
            graph,
            index,
            seq,
            last_checkpoint_seq: base_seq,
            dirty: false,
            deltas: ring,
        })
    }

    /// Durably applies one batch: validate against the current graph, append
    /// to the WAL (syncing per the fsync policy), then run the engine's
    /// transactional batch — the same containment as `try_apply_batch`,
    /// without validating a second time. Auto-checkpoints afterwards when
    /// [`DurableOptions::checkpoint_every`] is due.
    ///
    /// An invalid batch is rejected *before* it is logged — the WAL holds
    /// validated batches only, which is what makes replay infallible. If the
    /// engine aborts the batch with a contained panic *after* the append,
    /// the log is ahead of memory: the index turns [`ApplyError::Poisoned`]
    /// until [`DurableIndex::recover`] reconciles from disk, after which the
    /// logged batch **is** applied (logged means committed).
    ///
    /// # Panics
    /// An armed durability failpoint (`wal.append-header`, `wal.append-body`,
    /// `wal.fsync`, `ckpt.*`, `wal.prune`) panics through this method — that
    /// is the crash model, the in-process stand-in for `kill -9`. The object
    /// must then be treated as dead: drop it and [`DurableIndex::open`] anew
    /// (which is exactly what the crash-recovery suite does).
    pub fn apply(&mut self, batch: &BatchUpdate) -> Result<ApplyOutcome, DurableError> {
        if self.dirty || self.index.poisoned() {
            return Err(DurableError::Apply(ApplyError::Poisoned));
        }
        let rejections = validate_batch(&self.graph, batch);
        if !rejections.is_empty() {
            return Err(DurableError::Apply(ApplyError::InvalidBatch(rejections)));
        }
        let seq = self.seq + 1;
        self.wal.append(seq, batch)?;
        self.seq = seq;
        // Validated above (the WAL holds validated batches only): straight
        // to the batch driver, without a second validation pass.
        match apply_validated(&mut self.index, &mut self.graph, batch, self.opts.shards) {
            Ok(outcome) => {
                self.deltas
                    .lock()
                    .expect("delta ring lock")
                    .publish(seq, Arc::new(outcome.delta.clone()));
                if self.opts.checkpoint_every > 0
                    && seq - self.last_checkpoint_seq >= self.opts.checkpoint_every
                {
                    self.checkpoint()?;
                }
                Ok(outcome)
            }
            Err(error) => {
                // The batch is logged but not applied (and its delta not
                // published): `recover` replays it from the WAL and publishes
                // the delta then — logged means committed.
                self.dirty = true;
                Err(DurableError::Apply(error))
            }
        }
    }

    /// Takes a checkpoint of the current state on demand: write the graph +
    /// sequence number atomically, rotate the WAL onto a fresh segment,
    /// prune checkpoints beyond [`DurableOptions::keep_checkpoints`] and WAL
    /// segments below the oldest retained one. Returns the covered sequence
    /// number. A no-op when nothing was applied since the last checkpoint.
    pub fn checkpoint(&mut self) -> Result<u64, DurableError> {
        if self.dirty || self.index.poisoned() {
            return Err(DurableError::Apply(ApplyError::Poisoned));
        }
        if self.seq == self.last_checkpoint_seq {
            return Ok(self.seq);
        }
        write_checkpoint(&self.dir, self.seq, &self.graph)?;
        self.wal.rotate(self.seq + 1)?;
        self.last_checkpoint_seq = self.seq;
        if let Some(oldest_retained) = prune_checkpoints(&self.dir, self.opts.keep_checkpoints)? {
            self.wal.prune_segments_below(oldest_retained)?;
        }
        Ok(self.seq)
    }

    /// Reconciles in-memory state from disk after a contained engine panic
    /// (the [`ApplyError::Poisoned`] state): re-runs the full recovery
    /// algorithm in place — reload the newest checkpoint, rebuild, replay
    /// the WAL tail. This is the durable composition of the engines'
    /// in-memory `recover()`: instead of rebuilding from a possibly-lagging
    /// in-memory graph, the rebuild source is the log, which is never behind.
    pub fn recover(&mut self) -> Result<(), DurableError> {
        let pattern = self.index.pattern().clone();
        // The live ring is passed through, so subscriptions survive recovery
        // and the replay re-publishes exactly the unpublished tail.
        *self = Self::open_existing(
            self.dir.clone(),
            &pattern,
            self.opts.clone(),
            self.deltas.clone(),
        )?;
        Ok(())
    }

    /// Subscribes to the per-batch [`MatchDelta`] stream from the current
    /// sequence number on: the first [`DeltaEvent::Delta`] polled is the
    /// batch logged after this call. See [`Subscription`].
    pub fn subscribe(&self) -> Subscription {
        self.subscribe_from(self.seq + 1)
    }

    /// Subscribes starting at an explicit WAL sequence number (e.g. the
    /// checkpoint sequence a consumer restored a snapshot from, plus one).
    /// Sequences no longer buffered — published before the subscription and
    /// beyond the ring, or covered only by a checkpoint — surface as one
    /// [`DeltaEvent::Lagged`] before the stream resumes.
    ///
    /// Batch sequence numbers start at 1 (0 is the bootstrap checkpoint, not
    /// a batch), so `subscribe_from(0)` is `subscribe_from(1)`: the stream
    /// from the very beginning, with no event to miss for the nonexistent
    /// batch 0. A `seq` above the current high-water mark is a *future*
    /// cursor: `poll` returns `None` until that batch commits, then the
    /// stream starts exactly there — batches before it were skipped on
    /// purpose and are never reported as lag.
    pub fn subscribe_from(&self, seq: u64) -> Subscription {
        Subscription { cursor: RingCursor { ring: self.deltas.clone(), next_seq: seq.max(1) } }
    }

    /// The current data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The wrapped engine (e.g. to take an `aux_snapshot()`).
    pub fn engine(&self) -> &E {
        &self.index
    }

    /// The current maximum match, or [`ApplyError::Poisoned`] when the index
    /// needs [`DurableIndex::recover`] first.
    pub fn try_matches(&self) -> Result<MatchRelation, ApplyError> {
        if self.dirty {
            return Err(ApplyError::Poisoned);
        }
        self.index.try_matches()
    }

    /// The sequence number of the last durably logged batch.
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// The sequence number the newest checkpoint covers.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_checkpoint_seq
    }

    /// True iff the index must be [`recover`](DurableIndex::recover)ed
    /// before further use (in-memory state may lag the log, or the engine
    /// poisoned itself).
    pub fn poisoned(&self) -> bool {
        self.dirty || self.index.poisoned()
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the index was opened with.
    pub fn options(&self) -> &DurableOptions {
        &self.opts
    }
}

/// A [`DurableIndex`] ingests through its durable apply path: the coalesced
/// batch is WAL-appended once, applied transactionally, its delta published,
/// and [`IngestApply::seq`](crate::ingest::IngestApply::seq) carries the WAL
/// sequence number. Poison ([`ApplyError::Poisoned`]) comes back as a typed
/// [`IngestError::Sink`](crate::ingest::IngestError::Sink); an armed
/// durability failpoint panics through and kills the ingest — the crash
/// model, after which the directory reopens via [`DurableIndex::open`].
impl<E: IncrementalEngine> crate::ingest::IngestSink for DurableIndex<E> {
    type Outcome = ApplyOutcome;
    type Error = DurableError;

    fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<ApplyOutcome, DurableError> {
        self.apply(batch)
    }

    fn sink_graph(&self) -> &DataGraph {
        self.graph()
    }

    fn committed_seq(&self) -> u64 {
        self.sequence()
    }
}

/// The pattern-keyed bundle a [`DurableMatchService`] publishes per batch:
/// one `(pattern, ΔM)` entry for every registered pattern whose pipeline
/// committed the batch (a poisoned pattern's entry is absent for the batches
/// it missed, and resumes after [`DurableMatchService::recover_pattern`]).
type ServicePayload = Arc<Vec<(PatternId, Arc<MatchDelta>)>>;

/// One event observed by a [`ServiceSubscription`] — the pattern-keyed
/// counterpart of [`DeltaEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceDeltaEvent {
    /// The delta one registered pattern emitted for the batch logged at WAL
    /// sequence number `seq`. Every committed batch yields one event per
    /// registered (non-poisoned) pattern, in [`PatternId`] order — empty
    /// deltas included, so folding a pattern's events over a snapshot
    /// reproduces every subsequent view exactly.
    Delta {
        /// The pattern the delta belongs to.
        pattern_id: PatternId,
        /// The WAL sequence number of the batch.
        seq: u64,
        /// The emitted `ΔM`, shared with every other subscriber.
        delta: Arc<MatchDelta>,
    },
    /// The subscriber fell behind the bounded ring
    /// ([`DurableOptions::delta_buffer`]) and the events of `missed`
    /// *batches* (each carrying up to one delta per pattern) were dropped;
    /// the stream resumes at `resume_seq`.
    Lagged {
        /// How many per-batch event bundles were dropped.
        missed: u64,
        /// The sequence number the next [`ServiceDeltaEvent::Delta`] will
        /// carry.
        resume_seq: u64,
    },
}

/// A tailing consumer of a [`DurableMatchService`]'s pattern-keyed delta
/// stream, detached from the service (`poll` never borrows it). The
/// semantics are those of [`Subscription`] lifted to many patterns: sequence
/// numbers are WAL sequence numbers, events of one batch arrive contiguously
/// in [`PatternId`] order, lag is explicit, the ring survives recovery, and
/// replay re-emission is idempotent by sequence number.
#[derive(Debug)]
pub struct ServiceSubscription {
    cursor: RingCursor<ServicePayload>,
    /// Events of the batch currently being drained (the cursor yields whole
    /// per-batch bundles; subscribers consume them one pattern at a time).
    pending: VecDeque<(PatternId, u64, Arc<MatchDelta>)>,
}

impl ServiceSubscription {
    /// Returns the next event, or `None` when the subscriber is caught up.
    pub fn poll(&mut self) -> Option<ServiceDeltaEvent> {
        loop {
            if let Some((pattern_id, seq, delta)) = self.pending.pop_front() {
                return Some(ServiceDeltaEvent::Delta { pattern_id, seq, delta });
            }
            match self.cursor.poll()? {
                RingPoll::Item(seq, payload) => {
                    for (pattern_id, delta) in payload.iter() {
                        self.pending.push_back((*pattern_id, seq, Arc::clone(delta)));
                    }
                    // An empty bundle (no patterns registered at that batch)
                    // yields no events; keep draining.
                }
                RingPoll::Lagged { missed, resume_seq } => {
                    return Some(ServiceDeltaEvent::Lagged { missed, resume_seq });
                }
            }
        }
    }

    /// The WAL sequence number of the next batch fetched from the ring
    /// (events of an already-fetched batch may still be pending).
    pub fn next_seq(&self) -> u64 {
        self.cursor.next_seq
    }
}

/// A durably-backed [`MatchService`]: many registered patterns over one
/// shared graph, one WAL. Batches are **logged once** — the log records
/// data-graph batches only, never anything per-pattern — and fanned out to
/// every registered pattern through the service's shared-classification
/// apply; the per-pattern deltas are published as [`ServiceDeltaEvent`]s
/// through the same bounded-ring/replay machinery as [`DurableIndex`].
///
/// The pattern set itself is *not* durable state: [`DurableMatchService::open`]
/// takes the patterns to serve and registers them (in order) over the
/// recovered graph — the WAL-tail replay then brings every pattern to the
/// exact state the never-crashed run had, publishing the swallowed tail of
/// pattern-keyed deltas idempotently.
///
/// Failure containment is two-level (see `SERVICE.md`): a shared-stage panic
/// after the WAL append leaves the log ahead of memory and the whole service
/// refuses work until [`DurableMatchService::recover`]; a panic inside one
/// pattern's pipeline poisons that pattern only — its delta is simply absent
/// from the batch's published bundle, every other pattern keeps serving, and
/// [`DurableMatchService::recover_pattern`] rebuilds it from the current
/// (fully committed) graph without touching the log.
pub struct DurableMatchService<E: IncrementalEngine> {
    dir: PathBuf,
    opts: DurableOptions,
    wal: Wal,
    service: MatchService<E>,
    seq: u64,
    last_checkpoint_seq: u64,
    /// Set when the on-disk log is ahead of the in-memory service (a
    /// contained shared-stage panic after the batch was logged): every
    /// mutation and read then errors with [`ApplyError::Poisoned`] until
    /// [`DurableMatchService::recover`] reconciles from disk.
    dirty: bool,
    deltas: Ring<ServicePayload>,
}

/// Lifts a [`ServiceError`] into the durable error space.
fn service_to_durable(error: ServiceError) -> DurableError {
    match error {
        ServiceError::Apply(error) => DurableError::Apply(error),
        ServiceError::Build(error) => DurableError::Build(error),
        ServiceError::UnknownPattern(id) => DurableError::UnknownPattern(id),
    }
}

/// The pattern-keyed bundle of one committed batch: every `Ok` outcome's
/// delta, in [`PatternId`] order (the outcomes map is ordered).
fn service_payload(apply: &ServiceApply) -> ServicePayload {
    Arc::new(
        apply
            .outcomes
            .iter()
            .filter_map(|(id, outcome)| {
                outcome.as_ref().ok().map(|outcome| (*id, Arc::new(outcome.delta.clone())))
            })
            .collect(),
    )
}

impl<E: IncrementalEngine> DurableMatchService<E> {
    /// Opens (creating it on first use) the durable state in `dir` and
    /// registers `patterns` (in order) over the recovered graph. On first
    /// use a bootstrap checkpoint of `initial_graph` is written at sequence
    /// number 0; afterwards `initial_graph` is ignored and the graph comes
    /// entirely from disk. Returns the service and the [`PatternId`]s of
    /// `patterns`, position by position.
    pub fn open(
        dir: impl Into<PathBuf>,
        patterns: &[Pattern],
        initial_graph: &DataGraph,
        opts: DurableOptions,
    ) -> Result<(Self, Vec<PatternId>), DurableError> {
        opts.validate().map_err(DurableError::InvalidOptions)?;
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        sweep_temp_files(&dir)?;
        if list_checkpoints(&dir)?.is_empty() {
            if has_wal_segments(&dir)? {
                return Err(DurableError::NoCheckpoint);
            }
            write_checkpoint(&dir, 0, initial_graph)?;
        }
        let ring = new_ring(opts.delta_buffer);
        Self::open_existing(dir, patterns, opts, ring)
    }

    /// The recovery path proper: requires a checkpoint. Registers
    /// `patterns` over the checkpoint graph, then replays the WAL tail
    /// through the service apply, publishing each batch's pattern-keyed
    /// bundle at its logged sequence number (idempotent, exactly like
    /// [`DurableIndex`]).
    fn open_existing(
        dir: PathBuf,
        patterns: &[Pattern],
        opts: DurableOptions,
        ring: Ring<ServicePayload>,
    ) -> Result<(Self, Vec<PatternId>), DurableError> {
        sweep_temp_files(&dir)?;
        let load = load_latest_checkpoint(&dir)?.ok_or(DurableError::NoCheckpoint)?;
        let base_seq = load.checkpoint.seq;
        let mut service: MatchService<E> =
            MatchService::with_shards(load.checkpoint.graph, opts.shards);
        let ids = patterns
            .iter()
            .map(|pattern| service.register(pattern).map_err(service_to_durable))
            .collect::<Result<Vec<PatternId>, DurableError>>()?;
        let (wal, scan) = Wal::open(&dir, opts.fsync)?;
        {
            // Batches at or below the checkpoint are covered by it and will
            // never be re-emitted: raise the ring's high-water mark so a
            // subscriber behind the checkpoint observes an explicit lag.
            let mut ring_guard = ring.lock().expect("delta ring lock");
            if ring_guard.newest_seq < base_seq {
                ring_guard.newest_seq = base_seq;
            }
        }
        let mut seq = base_seq;
        for record in scan.records {
            if record.seq <= base_seq {
                continue; // covered by the checkpoint; retained for older ones
            }
            if record.seq != seq + 1 {
                return Err(DurableError::SequenceGap { expected: seq + 1, found: record.seq });
            }
            let apply = service.apply(&record.batch).map_err(|error| {
                let error = match error {
                    ServiceError::Apply(error) => error,
                    _ => unreachable!("service apply emitted a non-apply error"),
                };
                DurableError::Replay { seq: record.seq, error }
            })?;
            ring.lock().expect("delta ring lock").publish(record.seq, service_payload(&apply));
            seq = record.seq;
        }
        let durable = DurableMatchService {
            dir,
            opts,
            wal,
            service,
            seq,
            last_checkpoint_seq: base_seq,
            dirty: false,
            deltas: ring,
        };
        Ok((durable, ids))
    }

    /// Durably applies one batch to every registered pattern: validate once
    /// against the current graph, append to the WAL **once**, then run the
    /// service's apply past its own validation. The returned [`ServiceApply`]
    /// carries every pattern's outcome; the `Ok` deltas are published as one
    /// pattern-keyed bundle at the batch's sequence number.
    ///
    /// A per-pattern `Err` outcome (contained pipeline panic) does **not**
    /// fail the batch: the graph and every other pattern committed it, the
    /// poisoned pattern's delta is absent from the bundle, and
    /// [`DurableMatchService::recover_pattern`] restores it. Only a panic
    /// in the service-wide stages (planning, reduction, shared mutation)
    /// after the append fails the batch as a whole —
    /// the log is then ahead of memory and the service turns
    /// [`ApplyError::Poisoned`] until [`DurableMatchService::recover`].
    ///
    /// # Panics
    /// Armed durability failpoints (`wal.*`, `ckpt.*`) panic through this
    /// method — the in-process crash model, exactly as on [`DurableIndex`].
    pub fn apply(&mut self, batch: &BatchUpdate) -> Result<ServiceApply, DurableError> {
        if self.dirty {
            return Err(DurableError::Apply(ApplyError::Poisoned));
        }
        let rejections = validate_batch(self.service.graph(), batch);
        if !rejections.is_empty() {
            return Err(DurableError::Apply(ApplyError::InvalidBatch(rejections)));
        }
        let seq = self.seq + 1;
        self.wal.append(seq, batch)?;
        self.seq = seq;
        match self.service.apply_validated(batch) {
            Ok(apply) => {
                self.deltas.lock().expect("delta ring lock").publish(seq, service_payload(&apply));
                if self.opts.checkpoint_every > 0
                    && seq - self.last_checkpoint_seq >= self.opts.checkpoint_every
                {
                    self.checkpoint()?;
                }
                Ok(apply)
            }
            Err(error) => {
                // The batch is logged but the shared stage aborted (graph
                // rolled back): the log is ahead of memory. `recover`
                // replays it — logged means committed.
                self.dirty = true;
                let error = match error {
                    ServiceError::Apply(error) => error,
                    _ => unreachable!("service apply emitted a non-apply error"),
                };
                Err(DurableError::Apply(error))
            }
        }
    }

    /// Takes a checkpoint of the current graph on demand (see
    /// [`DurableIndex::checkpoint`]). Per-pattern poison does not block
    /// checkpointing — the graph itself is fully committed; only a pending
    /// service-level recovery does.
    pub fn checkpoint(&mut self) -> Result<u64, DurableError> {
        if self.dirty {
            return Err(DurableError::Apply(ApplyError::Poisoned));
        }
        if self.seq == self.last_checkpoint_seq {
            return Ok(self.seq);
        }
        write_checkpoint(&self.dir, self.seq, self.service.graph())?;
        self.wal.rotate(self.seq + 1)?;
        self.last_checkpoint_seq = self.seq;
        if let Some(oldest_retained) = prune_checkpoints(&self.dir, self.opts.keep_checkpoints)? {
            self.wal.prune_segments_below(oldest_retained)?;
        }
        Ok(self.seq)
    }

    /// Reconciles the whole service from disk after a contained shared-stage
    /// panic: reload the newest checkpoint, re-register every currently
    /// registered pattern (in id order) and replay the WAL tail. The live
    /// ring is passed through, so subscriptions survive and replay re-emits
    /// exactly the unpublished tail. Returns the id remapping (old → new);
    /// ids are unchanged when no pattern was ever deregistered.
    pub fn recover(
        &mut self,
    ) -> Result<std::collections::BTreeMap<PatternId, PatternId>, DurableError> {
        let old_ids = self.service.pattern_ids();
        let patterns = old_ids
            .iter()
            .map(|&id| self.service.pattern(id).expect("pattern_ids returned a stale id").clone())
            .collect::<Vec<Pattern>>();
        let (fresh, new_ids) = Self::open_existing(
            self.dir.clone(),
            &patterns,
            self.opts.clone(),
            self.deltas.clone(),
        )?;
        *self = fresh;
        Ok(old_ids.into_iter().zip(new_ids).collect())
    }

    /// Rebuilds one poisoned pattern from the current graph, leaving the
    /// log, the other patterns and every subscription untouched — the
    /// durable lift of [`MatchService::recover`]. The pattern's delta stream
    /// resumes with the next committed batch (the batches it missed are
    /// visible as its absence from their bundles).
    pub fn recover_pattern(&mut self, id: PatternId) -> Result<(), DurableError> {
        if self.dirty {
            return Err(DurableError::Apply(ApplyError::Poisoned));
        }
        self.service.recover(id).map_err(service_to_durable)
    }

    /// Subscribes to the pattern-keyed delta stream from the current
    /// sequence number on. See [`ServiceSubscription`].
    pub fn subscribe(&self) -> ServiceSubscription {
        self.subscribe_from(self.seq + 1)
    }

    /// Subscribes starting at an explicit WAL sequence number — the same
    /// `subscribe_from` semantics as [`DurableIndex::subscribe_from`]:
    /// sequences no longer buffered surface as one
    /// [`ServiceDeltaEvent::Lagged`] before the stream resumes,
    /// `subscribe_from(0)` is `subscribe_from(1)` (batch sequences start at
    /// 1), and a sequence above the high-water mark is a future cursor that
    /// skips — never lags over — the batches before it.
    pub fn subscribe_from(&self, seq: u64) -> ServiceSubscription {
        ServiceSubscription {
            cursor: RingCursor { ring: self.deltas.clone(), next_seq: seq.max(1) },
            pending: VecDeque::new(),
        }
    }

    /// The wrapped in-memory service (read-only: matches, pattern ids,
    /// interning statistics, the graph).
    pub fn service(&self) -> &MatchService<E> {
        &self.service
    }

    /// The current match of one pattern (see [`MatchService::matches`]), or
    /// [`ApplyError::Poisoned`] while a service-level recovery is pending.
    pub fn try_matches(&self, id: PatternId) -> Result<Arc<MatchRelation>, DurableError> {
        if self.dirty {
            return Err(DurableError::Apply(ApplyError::Poisoned));
        }
        self.service.matches(id).map_err(service_to_durable)
    }

    /// The sequence number of the last durably logged batch.
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// The sequence number the newest checkpoint covers.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_checkpoint_seq
    }

    /// True iff the log may be ahead of the in-memory service and
    /// [`DurableMatchService::recover`] is required. Per-pattern poison is
    /// reported per pattern ([`MatchService::poisoned`]), not here.
    pub fn poisoned(&self) -> bool {
        self.dirty
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the service was opened with.
    pub fn options(&self) -> &DurableOptions {
        &self.opts
    }
}

/// A [`DurableMatchService`] ingests through its durable apply path: one WAL
/// append per coalesced batch, the shared-classification fan-out, one
/// published pattern-keyed bundle;
/// [`IngestApply::seq`](crate::ingest::IngestApply::seq) carries the WAL
/// sequence number, so ticket groupings line up with
/// [`ServiceSubscription`] events. Service-level poison surfaces as a typed
/// sink error; an armed durability failpoint panics through and kills the
/// ingest (the crash model) — reopen the directory via
/// [`DurableMatchService::open`] and the WAL-aligned replay re-publishes
/// whatever the crash swallowed.
impl<E: IncrementalEngine> crate::ingest::IngestSink for DurableMatchService<E> {
    type Outcome = ServiceApply;
    type Error = DurableError;

    fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<ServiceApply, DurableError> {
        self.apply(batch)
    }

    fn sink_graph(&self) -> &DataGraph {
        self.service.graph()
    }

    fn committed_seq(&self) -> u64 {
        self.sequence()
    }
}
