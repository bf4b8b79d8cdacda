//! Pieces every workload shares: the run configuration, the metric sink, the
//! seeded stationary churn stream, order statistics and the view oracle
//! helpers.

use igpm_graph::{DataGraph, MatchRelation, NodeId, PatternNodeId, Update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Self-test scale: tiny graphs and streams, same code paths.
    pub tiny: bool,
    /// Self-test hook: flip one pair of the first view the oracle compares,
    /// which the oracle must catch.
    pub corrupt_view: bool,
    /// Scratch directory for the durable tiers (removed after the run).
    pub data_dir: PathBuf,
}

impl RunConfig {
    /// Length of one measured phase. A traced run measures its phase twice
    /// (untraced, then traced) and replays it through the stage mirror, so
    /// each phase gets half the time and the run takes about as long as an
    /// untraced one.
    pub fn measured(&self) -> Duration {
        let seconds = if self.trace { self.seconds / 2.0 } else { self.seconds };
        Duration::from_secs_f64(seconds)
    }
}

/// What one workload run produced: the counts of the contract, the oracle
/// verdicts and the metrics by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Edge updates the run tried to commit.
    pub attempted: u64,
    /// Updates rejected, refused, errored or lost to a `Lagged` event.
    pub failed: u64,
    /// Every oracle mismatch, in the order found.
    pub failures: Vec<String>,
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Set once the corrupted-view hook has been spent.
    corrupted: bool,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Compares an observed view with its oracle. With the corruption hook
    /// armed, the first observed view is damaged before the comparison.
    pub fn check_view(
        &mut self,
        cfg: &RunConfig,
        observed: &MatchRelation,
        expected: &MatchRelation,
        what: impl FnOnce() -> String,
    ) {
        if cfg.corrupt_view && !self.corrupted {
            self.corrupted = true;
            let damaged = corrupted(observed);
            self.check(damaged == *expected, what);
            return;
        }
        self.check(observed == expected, what);
    }
}

/// `view` with one pair flipped: its first pair removed, or a pair added to
/// an empty view.
fn corrupted(view: &MatchRelation) -> MatchRelation {
    let mut damaged = view.clone();
    match view.pairs().next() {
        Some((u, v)) => {
            damaged.remove(u, v);
        }
        None => damaged.add(PatternNodeId(0), NodeId(0)),
    }
    damaged
}

/// Kinds alternate in runs of this many updates, so a unit-path timer can
/// time a run of one kind at a time.
pub const RUN: usize = 8;

/// A stationary churn stream over an initial graph `G0`: `ops` is a
/// sequentially valid stream of degree-biased insertions and deletions
/// generated against `G0`, and the cycle applies it, then its inverse in
/// reverse order, which returns the graph to `G0`'s edge set. Any window of
/// consecutive cycle positions is a valid batch against the graph the
/// preceding positions leave behind.
pub struct Churn {
    cycle: Vec<Update>,
}

impl Churn {
    /// Generates `len` updates (a multiple of [`RUN`]), kinds alternating
    /// in runs of [`RUN`]. Endpoints are degree-biased: nodes are drawn from
    /// a pool holding each node once plus once per incident edge of `G0`; a
    /// deletion removes a random out-edge of the drawn node. (The generator
    /// crate's deletion sampler scans every edge per pick, too slow for
    /// streams of 100k updates over a 300k-edge graph.)
    pub fn generate(graph: &DataGraph, len: usize, seed: u64) -> Churn {
        assert!(len.is_multiple_of(RUN), "the stream must hold whole runs");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<u32> = Vec::with_capacity(graph.node_count() + 2 * graph.edge_count());
        for v in graph.nodes() {
            pool.push(v.0);
            pool.extend(std::iter::repeat_n(v.0, graph.degree(v)));
        }
        let mut scratch = graph.clone();
        let mut ops = Vec::with_capacity(len);
        let mut attempts = 0usize;
        while ops.len() < len {
            attempts += 1;
            assert!(attempts < 100 * len + 10_000, "churn generator found no valid update");
            let from = NodeId(pool[rng.gen_range(0..pool.len())]);
            if (ops.len() / RUN).is_multiple_of(2) {
                let to = NodeId(pool[rng.gen_range(0..pool.len())]);
                if from != to && scratch.add_edge(from, to) {
                    ops.push(Update::insert(from, to));
                }
            } else {
                let children = scratch.children(from);
                if children.is_empty() {
                    continue;
                }
                let to = children[rng.gen_range(0..children.len())];
                scratch.remove_edge(from, to);
                ops.push(Update::delete(from, to));
            }
        }
        let mut cycle = ops.clone();
        cycle.extend(ops.iter().rev().map(Update::inverse));
        Churn { cycle }
    }

    /// Length of one full cycle (stream plus inverse).
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// The updates at cycle positions `[start, start + len)`, wrapping.
    pub fn window(&self, start: u64, len: usize) -> Vec<Update> {
        let n = self.cycle.len() as u64;
        (0..len as u64).map(|i| self.cycle[((start + i) % n) as usize]).collect()
    }

    /// A contiguous slice of the cycle; `start + len` must not pass its end.
    pub fn slice(&self, start: usize, len: usize) -> &[Update] {
        &self.cycle[start..start + len]
    }

    /// Applies the first `count` positions (modulo whole cycles, which
    /// return to `G0`) to `graph`, in chunks — the synchronous control.
    pub fn replay_positions(&self, count: u64) -> impl Iterator<Item = &[Update]> {
        let rem = (count % self.cycle.len() as u64) as usize;
        self.cycle[..rem].chunks(4096)
    }
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 99th percentile of `samples`, given in time order, as the median of
/// the (nearest-rank) 99th percentiles of ten consecutive equal chunks, so a
/// co-tenant burst confined to a few chunks does not move it. Chunks of fewer
/// than 100 samples contribute their maximum. Fewer than ten samples: the
/// plain percentile.
pub fn p99(samples: &[f64]) -> f64 {
    if samples.len() < 10 {
        return quantile(samples, 0.99);
    }
    let chunk = samples.len() / 10;
    let per_chunk: Vec<f64> =
        samples.chunks_exact(chunk).take(10).map(|c| quantile(c, 0.99)).collect();
    median(&per_chunk)
}

/// `part / whole`, or 0 when nothing was measured.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `later - earlier` in µs, negative when `later` came first.
pub fn signed_us(earlier: Instant, later: Instant) -> f64 {
    if later >= earlier {
        us(later - earlier)
    } else {
        -us(earlier - later)
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Number of hardware threads the host offers.
pub fn host_parallelism() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// A set of CPUs a thread may run on (the kernel's affinity mask, up to
/// 1,024 CPUs). Linux only; elsewhere [`CpuMask::current`] is `None`.
#[derive(Debug, Clone, Copy)]
pub struct CpuMask([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuMask {
    /// The calling thread's mask.
    pub fn current() -> Option<CpuMask> {
        #[cfg(target_os = "linux")]
        {
            let mut mask = [0u64; 16];
            // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes
            // into `mask`; pid 0 is the calling thread.
            let ok =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            (ok == 0).then_some(CpuMask(mask))
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// The mask of this mask's lowest CPU alone.
    pub fn lowest(&self) -> Option<CpuMask> {
        let word = self.0.iter().position(|&w| w != 0)?;
        let mut one = [0u64; 16];
        one[word] = 1 << self.0[word].trailing_zeros();
        Some(CpuMask(one))
    }

    /// Restricts the calling thread (and the threads it spawns from now on)
    /// to this mask; returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the kernel reads `size_of_val(&self.0)` bytes from the
            // mask; pid 0 is the calling thread.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
        }
        #[cfg(not(target_os = "linux"))]
        false
    }
}
