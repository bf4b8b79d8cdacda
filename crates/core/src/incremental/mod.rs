//! Incremental graph pattern matching (Sections 5 and 6).
//!
//! * [`sim`] — incremental **graph simulation**: the auxiliary
//!   `match()`/`candt()` structures, `IncMatch-` (unit deletions),
//!   `IncMatch+`/`IncMatch+dag` (unit insertions) and the batch `IncMatch`
//!   with the `minDelta` update reduction.
//! * [`bsim`] — incremental **bounded simulation**: landmark/distance vectors
//!   as the distance-side auxiliary structure, cc/cs/ss *pairs* instead of
//!   edges, and the `IncBMatch+`/`IncBMatch-`/`IncBMatch` procedures.
//!
//! Shard configuration (the `IGPM_SHARDS` knob and the contiguous node-range
//! partition) lives at its canonical home, [`igpm_graph::shard`]; both
//! engines import it from there directly.
//!
//! # Failure model: panics, errors and invariants
//!
//! Both engines expose a *transactional* batch boundary (see `RECOVERY.md`
//! at the repository root):
//!
//! * [`SimulationIndex::try_apply_batch`](sim::SimulationIndex::try_apply_batch)
//!   / [`BoundedIndex::try_apply_batch`](bsim::BoundedIndex::try_apply_batch)
//!   — the canonical fallible APIs. Batches are validated up front
//!   ([`igpm_graph::update::validate_batch`]) and rejected whole
//!   ([`ApplyError::InvalidBatch`]) if any update is out of range, a
//!   duplicate insert or an absent delete; nothing is touched on rejection.
//! * `apply_batch_lenient` — the explicit lossy variant: structurally
//!   invalid updates (out-of-range ids) are stripped, redundant updates
//!   (duplicate inserts, absent deletes) are neutralised by the net-effect
//!   reduction, and every skipped update is reported.
//! * `apply_batch` — the historical infallible name, now a delegate of the
//!   lenient path: identical behaviour for well-formed input, a clean panic
//!   (with state contained as below) instead of silent corruption otherwise.
//!
//! All six batch methods of each engine, [`MatchService`](crate::service::MatchService)
//! and the durable tiers run **one** batch pipeline (the "batch driver"
//! section below), the paper's batch `IncMatch` of Fig. 10 split at the
//! pattern boundary. The service-wide half runs once per batch: plan the
//! shards, reduce the batch to its net-effective updates (`minDelta`'s
//! net-effect step), mutate the graph and the pattern-independent shared
//! state ([`IncrementalEngine::shared_mutate`]: nothing for `sim`, `IncLM`'s
//! landmark maintenance for `bsim`). The per-pattern half
//! ([`IncrementalEngine::try_apply_shared`]) runs once per pattern: relevance
//! classification or pair refresh, then the demotion and promotion drains.
//! A standalone engine is the service path with one pattern, run against
//! the graph and shared state it owns.
//!
//! A panic *mid-batch* — an armed [`igpm_graph::fail`] failpoint or a real
//! bug — is caught (`catch_unwind`; the scoped worker threads of every
//! sharded stage funnel their panics through their join handles into the
//! same containment), once around the service-wide half and once around
//! each pattern's half. The graph is always rolled back
//! ([`igpm_graph::DataGraph::rollback_updates`]) when the batch fails as a
//! whole. What happens to the index depends on where the panic hit:
//!
//! * **reduction** — nothing was touched; the batch is refused, the index
//!   stays usable (a service: every pattern stays usable);
//! * **shared mutation** — the graph is rolled back; state that was only
//!   read stays exact. A service rebuilds its shared state from the rolled
//!   back graph and poisons nothing; a standalone `sim` stays usable, a
//!   standalone `bsim` poisons (its own landmark index may be torn);
//! * **planning** (`Prepare`) — a service refuses the batch; a standalone
//!   engine poisons, conservatively, like every `Prepare` stage (the
//!   fault-injection suite pins the `shard.plan` site that fires there);
//! * **per-pattern stages** — that engine poisons. In a service the graph
//!   and every other pattern keep the batch; a standalone engine rolls its
//!   graph back.
//!
//! A poisoned index errors with [`ApplyError::Poisoned`] until `recover()`
//! rebuilds it from the graph via the ordinary sharded build, which is
//! bit-identical to a fresh build by the build-equivalence invariant.
//!
//! The `unwrap`/`expect`/`assert!` occurrences that remain in these engines
//! fall into two audited classes:
//!
//! * **Input-reachable conditions** are typed errors or documented panics at
//!   the API boundary: batch shape → [`ApplyError`]; pattern shape
//!   (non-normal pattern, arity > 64) → [`BuildError`] via `try_build*`,
//!   with the infallible `build*` names delegating and panicking; reading a
//!   poisoned index → [`ApplyError::Poisoned`] from the `try_*` readers, a
//!   documented panic from the infallible readers. No other panic is
//!   reachable from user input that passed validation.
//! * **Internal invariants** stay as asserts on purpose: worker-thread join
//!   `expect`s ("… shard panicked" — re-raising a contained panic, not an
//!   error of their own), counter-underflow and mask-consistency
//!   `debug_assert`s, and the "reduced batch contained a no-op" checks that
//!   guard the reduced-batch precondition inside the mutation kernels.
//!   Turning those into `Result`s would hide engine bugs instead of
//!   surfacing them; the containment layer above converts any such failure
//!   into rollback-or-poison rather than a torn index.

pub mod bsim;
pub mod sim;

use crate::stats::AffStats;
use igpm_graph::fail;
use igpm_graph::hash::FastHashSet;
use igpm_graph::shard::ShardPlan;
use igpm_graph::update::{
    reduce_batch_sharded, validate_batch, RejectReason, StagePanic, UpdateRejection,
};
use igpm_graph::{
    ApplyError, BatchUpdate, DataGraph, MatchDelta, MatchRelation, NodeId, Pattern, PatternNodeId,
    Update,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The engine-shaped hole in the recovery machinery: everything an
/// orchestrator (in-memory poison recovery, or the on-disk
/// [`DurableIndex`](crate::durable::DurableIndex)) needs from an incremental
/// matching engine, implemented by both [`sim::SimulationIndex`] and
/// [`bsim::BoundedIndex`].
///
/// The trait's centrepiece is the **provided**
/// [`recover_with_shards`](IncrementalEngine::recover_with_shards): the
/// single shared rebuild-and-clear-poison step. Rebuilding via the ordinary
/// sharded cold-start build is bit-identical to a fresh build by the
/// build-equivalence invariant, and assigning the fresh value over `*self`
/// drops every possibly-torn auxiliary structure *and* the poisoned flag in
/// one move — there is no separate poison bookkeeping to forget. Both
/// engines' inherent `recover_with_shards` delegate here, and
/// `DurableIndex` composes the same step with WAL replay (see the
/// "Durability" section of `RECOVERY.md`).
pub trait IncrementalEngine: Sized {
    /// Cold-start build over `shards` shards — the engines' inherent
    /// `build_with_shards`.
    ///
    /// # Panics
    /// Panics on an unbuildable pattern (see [`BuildError`]), exactly like
    /// the inherent constructor it delegates to.
    fn rebuild_with_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self;

    /// The pattern the index was built for.
    fn pattern(&self) -> &Pattern;

    /// The transactional batch boundary — the engines' inherent
    /// `try_apply_batch_with_shards` (validate whole, apply whole, contain
    /// panics as rollback-or-poison). Returns the [`AffStats`] of the batch
    /// *and* the emitted [`MatchDelta`] — the structured `ΔM` stream the
    /// [`DurableIndex`](crate::durable::DurableIndex) re-emits verbatim
    /// during WAL-tail replay.
    ///
    /// Provided: a standalone engine runs exactly the service's stages, as
    /// a service with one registered pattern would (see the module docs).
    fn try_apply_batch_with_shards(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError> {
        if self.poisoned() {
            return Err(ApplyError::Poisoned);
        }
        let rejections = validate_batch(graph, batch);
        if !rejections.is_empty() {
            return Err(ApplyError::InvalidBatch(rejections));
        }
        apply_validated(self, graph, batch, shards)
    }

    /// The current maximum match, or [`ApplyError::Poisoned`].
    fn try_matches(&self) -> Result<MatchRelation, ApplyError>;

    /// True iff a contained panic tore the auxiliary state and the index
    /// must be recovered before further use.
    fn poisoned(&self) -> bool;

    /// Marks the index poisoned: reads and applies refuse with
    /// [`ApplyError::Poisoned`] until a recovery rebuilds it. The batch
    /// driver calls this when a contained panic may have left the index
    /// behind or torn.
    fn poison(&mut self);

    /// Rebuilds the index from `graph` via the ordinary sharded cold-start
    /// build, clearing the poisoned flag — bit-identical to a fresh build by
    /// the build-equivalence invariant. The one shared recovery step; see
    /// the trait docs.
    fn recover_with_shards(&mut self, graph: &DataGraph, shards: usize) {
        *self = Self::rebuild_with_shards(self.pattern(), graph, shards);
    }

    // ------------------------------------------------------------------
    // Service mode (MatchService)
    // ------------------------------------------------------------------
    //
    // A `MatchService` registers many engines of one type over one shared
    // `DataGraph` and splits every batch into pattern-independent work done
    // once (validation, net-effect reduction, graph mutation, shared
    // auxiliary maintenance) and per-pattern work fanned out to every
    // registered engine. The methods below are that split: `shared_*` run
    // once per batch for the whole service; `build_in_service` /
    // `try_apply_shared` run once per registered pattern. A standalone
    // engine runs the same split with itself as the only pattern, against
    // the shared state it owns (`take_shared` / `restore_shared`). The contract is
    // the **shard- and sharing-invariance of outcomes**: for every shard
    // count, a pattern's `ApplyOutcome` from the service path is
    // bit-identical to the outcome an independent single-pattern index —
    // built over the same graph with the same shared auxiliary state —
    // produces for the same stream (`tests/service_conformance.rs`).

    /// The pattern-independent auxiliary structure the service maintains
    /// *once* for all registered patterns. Plain simulation needs none
    /// (`()`); bounded simulation shares one [`igpm_distance::LandmarkIndex`]
    /// — the distance side of `IncLM` is pattern-independent, so the
    /// RETE-style sharing win is running it once per batch instead of once
    /// per pattern.
    type Shared;

    /// Builds the shared auxiliary structure for the current graph, sharded.
    /// Also the service-level *recovery* step after a contained shared-stage
    /// panic: a freshly built value must be exact for the rolled-back graph.
    fn shared_build(graph: &DataGraph, shards: usize) -> Self::Shared;

    /// The [`igpm_graph::StagePanic`] stage label reported when
    /// [`shared_mutate`](IncrementalEngine::shared_mutate) panics: the
    /// engine's name for the stage that mutates the graph service-wide
    /// (`"mutate"` for plain simulation, `"landmark"` for bounded).
    fn shared_stage() -> &'static str;

    /// The engine's [`igpm_graph::fail`] site fired at the start of the
    /// once-per-batch net-effect reduction (`sim.reduce` / `bsim.reduce`).
    fn reduce_failpoint() -> &'static str;

    /// Moves the engine's *own* shared auxiliary state out for one
    /// standalone batch, leaving a free placeholder: the batch driver runs
    /// [`shared_mutate`](IncrementalEngine::shared_mutate) and
    /// [`try_apply_shared`](IncrementalEngine::try_apply_shared) against it
    /// and hands it back through
    /// [`restore_shared`](IncrementalEngine::restore_shared). Plain
    /// simulation owns none; a standalone bounded index owns its
    /// [`igpm_distance::LandmarkIndex`].
    fn take_shared(&mut self) -> Self::Shared;

    /// Hands back what [`take_shared`](IncrementalEngine::take_shared)
    /// moved out — `None` when a panic inside `shared_mutate` may have torn
    /// it. An engine whose shared state is real poisons itself on `None`.
    fn restore_shared(&mut self, shared: Option<Self::Shared>);

    /// The once-per-batch graph mutation: applies the net-effective updates
    /// to `graph` and maintains `shared` alongside, returning the
    /// [`SharedMutation`] summary every engine's
    /// [`try_apply_shared`](IncrementalEngine::try_apply_shared) consumes.
    /// Only called with a non-empty `effective` list (the batch driver
    /// early-finishes empty reductions). Fires the engine's graph-mutation
    /// failpoint ([`igpm_graph::fail`]), so fault tests can interrupt the
    /// shared stage.
    fn shared_mutate(
        shared: &mut Self::Shared,
        graph: &mut DataGraph,
        effective: &[Update],
        shards: usize,
    ) -> SharedMutation;

    /// Cold-start build *inside a service*: like
    /// [`rebuild_with_shards`](IncrementalEngine::rebuild_with_shards) but
    /// fallible, fed the interned per-pattern-node candidate lists the
    /// service deduplicates across registrations (index `u` holds the
    /// candidates of pattern node `u`, sorted ascending — exactly what
    /// `candidates_with_shards` would compute), and borrowing the shared
    /// auxiliary state for the duration of the build. The result is
    /// bit-identical to an independent index built over the same graph with
    /// the same shared state.
    fn build_in_service(
        pattern: &Pattern,
        graph: &DataGraph,
        shared: &mut Self::Shared,
        cand_lists: &[Arc<Vec<NodeId>>],
        shards: usize,
    ) -> Result<Self, BuildError>;

    /// The per-pattern half of a batch: consumes the shared reduction
    /// ([`SharedBatch`]) and mutation summary ([`SharedMutation`]) instead
    /// of redoing them, and runs only the pattern-dependent pipeline stages
    /// against the **already-mutated** graph. The standalone
    /// [`try_apply_batch_with_shards`](IncrementalEngine::try_apply_batch_with_shards)
    /// runs this very method after the same shared stages, so a service
    /// pattern and an independent index produce bit-identical statistics
    /// and deltas.
    ///
    /// This method never touches the graph: a contained panic **always
    /// poisons** this engine and reports `rolled_back: false`. In a service
    /// the graph mutation stays committed for every other pattern and
    /// recovery is per-pattern, from the current graph; a standalone caller
    /// owns its graph and rolls it back itself (reporting
    /// `rolled_back: true`).
    fn try_apply_shared(
        &mut self,
        graph: &DataGraph,
        shared: &mut Self::Shared,
        batch: &SharedBatch<'_>,
        mutation: &SharedMutation,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError>;

    /// The canonical candidate-set keys of this engine's pattern, one per
    /// pattern node in node order: the [`fmt::Display`] rendering of each
    /// node's predicate. Two pattern nodes (of any registered patterns)
    /// share a key iff they have equal candidate sets over every graph, so
    /// the service uses these strings to intern candidate lists across
    /// registrations.
    fn candidate_keys(&self) -> Vec<String> {
        let pattern = self.pattern();
        pattern.nodes().map(|u| pattern.predicate(u).to_string()).collect()
    }
}

/// The pattern-independent view of one batch, computed once by the batch
/// driver and handed to every engine's
/// [`IncrementalEngine::try_apply_shared`] (a service's registered engines,
/// or the one standalone engine).
#[derive(Debug, Clone, Copy)]
pub struct SharedBatch<'a> {
    /// Length of the *original* batch (before reduction) — what each
    /// engine's [`AffStats::delta_g`] must report.
    pub batch_len: usize,
    /// True iff every update of the original batch is an insertion — the
    /// CALM monotone fast-path trigger, sampled on the original batch.
    pub monotone: bool,
    /// The net-effective updates in first-touch order: the output of the
    /// shared `minDelta` net-effect reduction
    /// ([`igpm_graph::reduce_batch_sharded`]), identical for every shard
    /// count.
    pub effective: &'a [Update],
}

/// Summary of one [`IncrementalEngine::shared_mutate`] run, consumed by
/// every engine's per-pattern apply.
#[derive(Debug, Clone, Default)]
pub struct SharedMutation {
    /// The nodes whose shared auxiliary entries changed (the `IncLM`
    /// affected set of the bounded engine). `None` for engines whose shared
    /// state is trivial.
    pub affected: Option<FastHashSet<NodeId>>,
    /// How many effective updates the shared mutation actually processed —
    /// what the bounded engine reports as [`AffStats::reduced_delta_g`].
    pub updates_processed: usize,
    /// How many shared auxiliary entries changed — the bounded engine's
    /// [`AffStats::aux_changes`] contribution of the landmark stage.
    pub affected_entries: usize,
}

/// Typed error of the fallible index constructors
/// ([`sim::SimulationIndex::try_build`], [`bsim::BoundedIndex::try_build`]).
/// The infallible `build*` names delegate to these and panic with exactly
/// the [`fmt::Display`] text below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The pattern is not a normal pattern (unit bounds only) — required by
    /// incremental simulation, which maintains matches over graph *edges*.
    NotNormal,
    /// The pattern has more nodes than the 64-bit membership masks can
    /// represent.
    ArityTooLarge {
        /// The offending pattern's node count.
        arity: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NotNormal => write!(f, "incremental simulation needs a normal pattern"),
            BuildError::ArityTooLarge { arity } => write!(
                f,
                "pattern arity {arity} exceeds the {}-bit membership masks",
                sim::MAX_PATTERN_NODES
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Result of one successful (transactional) batch application: the
/// [`AffStats`] accounting plus the emitted [`MatchDelta`].
///
/// The delta is expressed against the observable match view and obeys the
/// exact-view identity `view(t) = view(t-1) ∖ removed ⊎ inserted`; it is
/// bit-identical for every shard count (the delta extension of the shard
/// invariant, see `tests/delta_stream.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyOutcome {
    /// Statistics of the applied batch.
    pub stats: AffStats,
    /// The structured `ΔM` of the batch: the match pairs that entered and
    /// left the view, each list sorted ascending.
    pub delta: MatchDelta,
}

impl fmt::Display for ApplyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.stats, self.delta)
    }
}

/// Result of a lenient batch application: the statistics of the applied
/// portion plus every update that was skipped (with its reason).
#[derive(Debug, Clone, PartialEq)]
pub struct LenientApply {
    /// Statistics of the applied (valid) portion of the batch.
    pub stats: AffStats,
    /// The emitted [`MatchDelta`] of the applied portion — equal to the
    /// delta the strict path emits for the surviving (non-rejected) updates.
    pub delta: MatchDelta,
    /// The skipped updates, in batch order. Structurally invalid updates
    /// (out-of-range ids) were stripped before the engine saw the batch —
    /// their reported positions refer to the **original** batch, not the
    /// post-strip layout; redundant ones (duplicate inserts, absent deletes)
    /// were neutralised by the net-effect reduction — either way they had no
    /// effect.
    pub rejected: Vec<UpdateRejection>,
}

/// What the per-batch [`DeltaTracker`] records.
///
/// `Monotone` is the CALM fast path: a batch of pure insertions can only
/// grow the maximum (bounded) simulation — edge insertions never lengthen a
/// path and never retract a counter below its old value — so removal
/// tracking is skipped entirely and a `debug_assert!` documents that the
/// skipped tracker would have stayed empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum TrackMode {
    /// Cold-start build / refinement: no previous view exists, record
    /// nothing.
    #[default]
    Off,
    /// Insert-only batch: record insertions; removals are impossible.
    Monotone,
    /// General batch: record both directions.
    Full,
}

/// Per-batch recorder of raw match-bit transitions, owned by each engine and
/// armed at the top of every apply path. "Raw" means mask-level: the
/// finalisation step ([`finalize_delta`]) converts the raw transitions into
/// the view-level [`MatchDelta`], handling the collapse to the empty view
/// when some pattern node loses its last match (`P ⋬ G`) and the
/// resurrection out of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaTracker {
    mode: TrackMode,
    inserted: Vec<(u32, u32)>,
    removed: Vec<(u32, u32)>,
}

impl DeltaTracker {
    /// Starts recording for one batch. `monotone` engages the CALM fast
    /// path (insert-only batch): removal tracking is skipped.
    pub(crate) fn arm(&mut self, monotone: bool) {
        self.mode = if monotone { TrackMode::Monotone } else { TrackMode::Full };
        self.inserted.clear();
        self.removed.clear();
    }

    /// Stops recording and drops anything recorded (build paths, panic
    /// containment).
    pub(crate) fn reset(&mut self) {
        self.mode = TrackMode::Off;
        self.inserted.clear();
        self.removed.clear();
    }

    /// Records the raw transition `(u, v): candidate → match`.
    #[inline]
    pub(crate) fn record_inserted(&mut self, u: usize, v: u32) {
        if self.mode != TrackMode::Off {
            self.inserted.push((u as u32, v));
        }
    }

    /// Records the raw transition `(u, v): match → candidate`. A no-op in
    /// `Off` mode; unreachable in `Monotone` mode — the debug assertion is
    /// the proof obligation of the fast path.
    #[inline]
    pub(crate) fn record_removed(&mut self, u: usize, v: u32) {
        match self.mode {
            TrackMode::Off => {}
            TrackMode::Monotone => {
                debug_assert!(
                    false,
                    "monotone fast path violated: insert-only batch demoted (u{u}, n{v})"
                );
            }
            TrackMode::Full => self.removed.push((u as u32, v)),
        }
    }
}

/// What the engine should do with its cached [`MatchRelation`] view after a
/// batch, as decided by [`finalize_delta`]. Replaces the historical
/// unconditional `invalidate_cache()` on the apply paths: an empty delta
/// keeps the cache, a non-empty one patches it in place, and only the
/// collapse/resurrection transitions install a fresh value.
pub(crate) enum CacheOp {
    /// The view did not change — leave the cache exactly as it is.
    Keep,
    /// Patch a warm cache in place with the emitted delta (a cold cache
    /// stays cold).
    Patch,
    /// Install this relation as the new cached view (collapse installs the
    /// empty relation, resurrection installs the freshly rebuilt one).
    Install(MatchRelation),
}

/// Converts the raw transitions recorded by a [`DeltaTracker`] into the
/// view-level [`MatchDelta`] and the matching [`CacheOp`].
///
/// `was_match`/`now_match` are `is_match()` sampled immediately before the
/// tracker was armed and at finalisation; `raw_current_pairs` enumerates the
/// current mask-level pairs (consulted only on a collapse); `rebuild`
/// materialises the current view (consulted only on a resurrection).
pub(crate) fn finalize_delta(
    tracker: &mut DeltaTracker,
    was_match: bool,
    now_match: bool,
    pattern_nodes: usize,
    raw_current_pairs: impl FnOnce() -> Vec<(u32, u32)>,
    rebuild: impl FnOnce() -> MatchRelation,
) -> (MatchDelta, CacheOp) {
    let mut inserted = std::mem::take(&mut tracker.inserted);
    let mut removed = std::mem::take(&mut tracker.removed);
    tracker.reset();
    inserted.sort_unstable();
    removed.sort_unstable();
    debug_assert!(inserted.windows(2).all(|w| w[0] != w[1]), "duplicate raw insertion");
    debug_assert!(removed.windows(2).all(|w| w[0] != w[1]), "duplicate raw removal");
    match (was_match, now_match) {
        // The view was empty and stays empty: raw candidate churn is not
        // observable, nothing to emit, the cache (cold, or a warm empty
        // relation) is still exact.
        (false, false) => (MatchDelta::empty(), CacheOp::Keep),
        // The ordinary case: the raw transitions are the view transitions,
        // minus the pairs that flipped both ways within the batch (demoted
        // by the deletion half, re-promoted by the insertion half).
        (true, true) => {
            let (inserted, removed) = cancel_opposites(inserted, removed);
            let delta = MatchDelta { inserted: to_pairs(inserted), removed: to_pairs(removed) };
            if delta.is_empty() {
                (delta, CacheOp::Keep)
            } else {
                (delta, CacheOp::Patch)
            }
        }
        // Collapse: some pattern node lost its last match, the view drops
        // from view(t-1) to ∅ — emit the *entire previous view* as removed,
        // reconstructed from the current masks by undoing the raw churn.
        (true, false) => {
            let mut previous = raw_current_pairs();
            previous.sort_unstable();
            previous.retain(|pair| inserted.binary_search(pair).is_err());
            previous.extend(removed);
            previous.sort_unstable();
            let delta = MatchDelta { inserted: Vec::new(), removed: to_pairs(previous) };
            (delta, CacheOp::Install(MatchRelation::empty(pattern_nodes)))
        }
        // Resurrection: every pattern node (re)gained a match, the view
        // jumps from ∅ to the full current relation — emit it whole and
        // install it as the warm cache (it was just materialised anyway).
        (false, true) => {
            let view = rebuild();
            let mut pairs: Vec<(PatternNodeId, NodeId)> = view.pairs().collect();
            pairs.sort_unstable();
            let delta = MatchDelta { inserted: pairs, removed: Vec::new() };
            (delta, CacheOp::Install(view))
        }
    }
}

/// Sorted raw `(pattern_bit, data_index)` pairs at the mask level.
type RawPairs = Vec<(u32, u32)>;

/// Two-pointer removal of the pairs present in both sorted lists — a pair
/// demoted and re-promoted within one batch has no net view effect.
fn cancel_opposites(inserted: RawPairs, removed: RawPairs) -> (RawPairs, RawPairs) {
    if inserted.is_empty() || removed.is_empty() {
        return (inserted, removed);
    }
    let mut kept_inserted = Vec::with_capacity(inserted.len());
    let mut kept_removed = Vec::with_capacity(removed.len());
    let (mut i, mut j) = (0, 0);
    while i < inserted.len() && j < removed.len() {
        match inserted[i].cmp(&removed[j]) {
            std::cmp::Ordering::Less => {
                kept_inserted.push(inserted[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                kept_removed.push(removed[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    kept_inserted.extend_from_slice(&inserted[i..]);
    kept_removed.extend_from_slice(&removed[j..]);
    (kept_inserted, kept_removed)
}

fn to_pairs(raw: Vec<(u32, u32)>) -> Vec<(PatternNodeId, NodeId)> {
    raw.into_iter().map(|(u, v)| (PatternNodeId(u), NodeId(v))).collect()
}

/// How far the batch pipeline progressed — consulted by the panic
/// containment to decide between rollback and poisoning. Stages are set
/// *before* their work begins, so the stage recorded at unwind time is the
/// stage whose work (or whose entry failpoint) panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PipelineStage {
    /// Planning shards (batch driver), or growing per-node arrays and
    /// classifying (per-pattern half); the graph is untouched by it.
    Prepare,
    /// Net-effect reduction: pure reads, nothing mutated yet.
    Reduce,
    /// The shared graph mutation ([`IncrementalEngine::shared_mutate`]):
    /// the graph is (partially) mutated, per-pattern state is still
    /// pre-batch. Reported under the engine's
    /// [`IncrementalEngine::shared_stage`] label.
    Mutate,
    /// The bounded engine's label for its shared mutation: `IncLM` mutates
    /// the graph and the landmark vectors interleaved.
    Landmark,
    /// Pair re-evaluation (bounded engine only).
    Refresh,
    /// Counter absorption (plain engine only).
    Absorb,
    /// Demotion drain.
    Demote,
    /// Promotion drain.
    Promote,
}

impl PipelineStage {
    pub(crate) fn label(self) -> &'static str {
        match self {
            PipelineStage::Prepare => "prepare",
            PipelineStage::Reduce => "reduce",
            PipelineStage::Mutate => "mutate",
            PipelineStage::Landmark => "landmark",
            PipelineStage::Refresh => "refresh",
            PipelineStage::Absorb => "absorb",
            PipelineStage::Demote => "demote",
            PipelineStage::Promote => "promote",
        }
    }
}

/// Renders a `catch_unwind` payload as text (panics carry `&str` or `String`
/// payloads everywhere in this workspace).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ----------------------------------------------------------------------
// The batch driver
// ----------------------------------------------------------------------
//
// One batch pipeline for every caller. `reduce_and_mutate` is the
// service-wide half (plan, `minDelta` net-effect reduction, graph mutation
// with the shared auxiliary maintenance) that `MatchService::apply` runs
// once per batch; `apply_validated` is the standalone engine, which runs
// that half against its own graph and shared state and then its own
// `try_apply_shared` — a service with one pattern. The six public batch
// methods of each engine are one-line delegates of the functions below.

/// A contained panic of [`reduce_and_mutate`]: the stage it interrupted
/// (`Prepare`, `Reduce`, or `Mutate` for the shared mutation) and its
/// message. The graph is already back at its pre-batch edge set.
pub(crate) struct SharedStagePanic {
    stage: PipelineStage,
    message: String,
}

impl SharedStagePanic {
    /// True iff the panic interrupted
    /// [`IncrementalEngine::shared_mutate`], which may have torn the shared
    /// auxiliary state.
    pub(crate) fn tore_shared(&self) -> bool {
        self.stage == PipelineStage::Mutate
    }

    /// The typed report: `rolled_back` always (the graph is pre-batch), the
    /// caller decides `poisoned`.
    pub(crate) fn report<E: IncrementalEngine>(self, poisoned: bool) -> StagePanic {
        let stage = if self.tore_shared() { E::shared_stage() } else { self.stage.label() };
        StagePanic { stage, message: self.message, rolled_back: true, poisoned }
    }
}

/// The service-wide half of one batch, under one `catch_unwind`: plan the
/// shards (`Prepare`), reduce the batch to its net-effective updates in
/// first-touch order (`Reduce`, [`reduce_batch_sharded`] — bit-identical
/// for every shard count) and, unless nothing survives, mutate the graph
/// and the shared auxiliary state ([`IncrementalEngine::shared_mutate`]).
/// On a panic the graph is rolled back from the effective list
/// ([`DataGraph::rollback_updates`] tolerates a partial mutation); repairing
/// a torn shared state ([`SharedStagePanic::tore_shared`]) is the caller's.
///
/// `batch` must be in range (validated, or stripped by the lenient path);
/// redundant updates are neutralised by the reduction.
pub(crate) fn reduce_and_mutate<E: IncrementalEngine>(
    shared: &mut E::Shared,
    graph: &mut DataGraph,
    batch: &BatchUpdate,
    shards: usize,
) -> Result<(Vec<Update>, SharedMutation), SharedStagePanic> {
    let mut stage = PipelineStage::Prepare;
    let mut effective: Vec<Update> = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let plan = ShardPlan::new(graph.node_count(), shards);
        stage = PipelineStage::Reduce;
        fail::fire(E::reduce_failpoint());
        effective = reduce_batch_sharded(graph, batch, plan).0;
        if effective.is_empty() {
            return SharedMutation::default();
        }
        stage = PipelineStage::Mutate;
        E::shared_mutate(shared, graph, &effective, shards)
    }));
    match outcome {
        Ok(mutation) => Ok((effective, mutation)),
        Err(payload) => {
            graph.rollback_updates(&effective);
            Err(SharedStagePanic { stage, message: panic_message(payload.as_ref()) })
        }
    }
}

/// One standalone batch after validation: [`reduce_and_mutate`] against the
/// engine's own graph and shared state, then the engine's own
/// [`IncrementalEngine::try_apply_shared`]. Same precondition as
/// [`reduce_and_mutate`]; the durable tier calls this directly after its
/// own validation.
///
/// A contained panic always leaves the graph pre-batch (`rolled_back`).
/// The index stays usable after a `Reduce` panic, and after a shared
/// mutation panic when it owns no shared state that could tear (plain
/// simulation); it poisons otherwise — conservatively also after a
/// `Prepare` panic, like every `Prepare` stage.
pub(crate) fn apply_validated<E: IncrementalEngine>(
    engine: &mut E,
    graph: &mut DataGraph,
    batch: &BatchUpdate,
    shards: usize,
) -> Result<ApplyOutcome, ApplyError> {
    if engine.poisoned() {
        return Err(ApplyError::Poisoned);
    }
    let mut shared = engine.take_shared();
    let (effective, mutation) = match reduce_and_mutate::<E>(&mut shared, graph, batch, shards) {
        Ok(done) => done,
        Err(failure) => {
            engine.restore_shared((!failure.tore_shared()).then_some(shared));
            if failure.stage == PipelineStage::Prepare {
                engine.poison();
            }
            return Err(ApplyError::StagePanicked(failure.report::<E>(engine.poisoned())));
        }
    };
    let shared_batch = SharedBatch {
        batch_len: batch.len(),
        monotone: batch.iter().all(Update::is_insert),
        effective: &effective,
    };
    let outcome = engine.try_apply_shared(graph, &mut shared, &shared_batch, &mutation, shards);
    engine.restore_shared(Some(shared));
    outcome.map_err(|error| match error {
        // The engine poisoned itself and left the graph mutated; a
        // standalone engine owns its graph, so the batch rolls back whole.
        ApplyError::StagePanicked(panic) => {
            graph.rollback_updates(&effective);
            ApplyError::StagePanicked(StagePanic { rolled_back: true, ..panic })
        }
        other => other,
    })
}

/// Runs one engine's per-pattern stages ([`IncrementalEngine::try_apply_shared`])
/// under `catch_unwind`, `stages` advancing the stage as it goes. The graph
/// mutation is already committed, so a panic leaves the engine behind the
/// graph whatever stage it hit: the engine poisons itself and the report
/// says `rolled_back: false`.
pub(crate) fn contain_pattern_panic<E: IncrementalEngine>(
    engine: &mut E,
    stages: impl FnOnce(&mut E, &mut PipelineStage) -> ApplyOutcome,
) -> Result<ApplyOutcome, ApplyError> {
    if engine.poisoned() {
        return Err(ApplyError::Poisoned);
    }
    let mut stage = PipelineStage::Prepare;
    match catch_unwind(AssertUnwindSafe(|| stages(&mut *engine, &mut stage))) {
        Ok(outcome) => Ok(outcome),
        Err(payload) => {
            engine.poison();
            Err(ApplyError::StagePanicked(StagePanic {
                stage: stage.label(),
                message: panic_message(payload.as_ref()),
                rolled_back: false,
                poisoned: true,
            }))
        }
    }
}

/// The lenient standalone batch: out-of-range updates are stripped and
/// reported at their positions in the *original* batch, redundant ones
/// are neutralised by the reduction (and reported too).
pub(crate) fn apply_lenient<E: IncrementalEngine>(
    engine: &mut E,
    graph: &mut DataGraph,
    batch: &BatchUpdate,
    shards: usize,
) -> Result<LenientApply, ApplyError> {
    if engine.poisoned() {
        return Err(ApplyError::Poisoned);
    }
    let rejections = validate_batch(graph, batch);
    let outcome = match strip_out_of_range(batch, &rejections) {
        Some(stripped) => apply_validated(engine, graph, &stripped, shards)?,
        None => apply_validated(engine, graph, batch, shards)?,
    };
    Ok(LenientApply { stats: outcome.stats, delta: outcome.delta, rejected: rejections })
}

/// The infallible standalone batch: the lenient path, re-raising a
/// contained error as a panic — with the state guarantees of the
/// containment (rolled back or poisoned) instead of a torn index.
pub(crate) fn apply_or_panic<E: IncrementalEngine>(
    engine: &mut E,
    graph: &mut DataGraph,
    batch: &BatchUpdate,
    shards: usize,
) -> ApplyOutcome {
    match apply_lenient(engine, graph, batch, shards) {
        Ok(lenient) => ApplyOutcome { stats: lenient.stats, delta: lenient.delta },
        Err(error) => panic!("apply_batch: {error}"),
    }
}

/// Strips the structurally invalid updates (out-of-range ids) out of `batch`
/// for the lenient path. Returns `None` when nothing needs stripping — the
/// caller then applies the original batch unchanged, so the lenient path is
/// byte-identical to the historical `apply_batch` for well-formed input
/// (redundant updates are neutralised by the net-effect reduction either
/// way).
fn strip_out_of_range(batch: &BatchUpdate, rejections: &[UpdateRejection]) -> Option<BatchUpdate> {
    if rejections.iter().all(|r| r.reason != RejectReason::NodeOutOfRange) {
        return None;
    }
    let mut bad = rejections
        .iter()
        .filter(|r| r.reason == RejectReason::NodeOutOfRange)
        .map(|r| r.position)
        .peekable();
    let mut kept = Vec::with_capacity(batch.len());
    for (position, &update) in batch.iter().enumerate() {
        if bad.peek() == Some(&position) {
            bad.next();
        } else {
            kept.push(update);
        }
    }
    Some(BatchUpdate::from_updates(kept))
}

/// Phase A of the sharded SCC-joint protocol shared by `sim::prop_cc` and
/// `bsim::promote_sccs`: evaluate every nontrivial component's verdict
/// speculatively on scoped threads — each SCC owned by one worker, ownership
/// striped over the enumeration (at most `stripes` workers) — and slot the
/// results back by enumeration index, ready for the ordered commit with
/// dirty fallback that phase B of each engine performs. `evaluate` must be a
/// pure read of the engine state: different components run concurrently
/// against the same frozen state, and a verdict is discarded (re-evaluated
/// live) whenever an earlier commit promoted something.
pub(crate) fn speculate_scc_verdicts<V: Send>(
    comp_masks: &[u64],
    stripes: usize,
    evaluate: impl Fn(u64) -> V + Sync,
) -> Vec<Option<V>> {
    let stripes = stripes.clamp(1, comp_masks.len());
    let mut slots: Vec<Option<V>> = (0..comp_masks.len()).map(|_| None).collect();
    let evaluated: Vec<Vec<(usize, V)>> = std::thread::scope(|scope| {
        let evaluate = &evaluate;
        let handles: Vec<_> = (0..stripes)
            .map(|stripe| {
                scope.spawn(move || {
                    comp_masks
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % stripes == stripe)
                        .map(|(i, &mask)| (i, evaluate(mask)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("SCC speculation worker panicked")).collect()
    });
    for (i, verdict) in evaluated.into_iter().flatten() {
        slots[i] = Some(verdict);
    }
    slots
}
