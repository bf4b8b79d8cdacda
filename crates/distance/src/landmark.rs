//! Landmark vectors and distance vectors (Section 6.2).
//!
//! A *landmark vector* `lm` is a list of nodes such that every pair of nodes
//! has a shortest path through some landmark; any vertex cover qualifies
//! (Section 6.2, "Selection of landmarks"). Each node `v` carries two
//! *distance vectors*: `distvf(v) = <dis(v, lm_1), ..., dis(v, lm_|lm|)>` and
//! `distvt(v) = <dis(lm_1, v), ..., dis(lm_|lm|, v)>`; the distance between
//! any two nodes is `min_i distvf(v)[i] + distvt(v')[i]`.
//!
//! Internally the vectors are stored transposed (one dense row per landmark),
//! which is the layout the incremental maintenance procedures of Section 6.4
//! update in place ([`crate::landmark_inc`]).

use crate::oracle::DistanceOracle;
use crate::vertex_cover::greedy_vertex_cover;
use igpm_graph::hash::{FastHashMap, FastHashSet};
use igpm_graph::shard::{configured_shards, MAX_SHARDS, PARALLEL_WORK_THRESHOLD};
use igpm_graph::traversal::{bfs_distances_dense, Direction};
use igpm_graph::{DataGraph, NodeId};

/// Sentinel for "unreachable" entries of the distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// How the initial landmark set is chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LandmarkSelection {
    /// Use a greedy (approximately minimum) vertex cover — the choice of the
    /// paper's experiments. Queries are exact.
    VertexCover,
    /// Use the `count` highest-degree nodes. Queries are upper bounds unless
    /// the set happens to cover all shortest paths; this mirrors the
    /// "high-quality landmarks" discussion of Section 6.2 / Potamias et al.
    TopDegree(usize),
    /// Use an explicit, caller-provided landmark set.
    Explicit(Vec<NodeId>),
}

/// Landmark vector plus per-landmark distance rows. The [`Default`] value is
/// the empty index (no landmarks, no nodes), free to build — a placeholder
/// for an index moved out elsewhere.
#[derive(Debug, Clone, Default)]
pub struct LandmarkIndex {
    landmarks: Vec<NodeId>,
    position: FastHashMap<NodeId, usize>,
    /// `from_lm[i][v]` = dis(lm_i, v) — the `distvt` entries.
    from_lm: Vec<Vec<u32>>,
    /// `to_lm[i][v]` = dis(v, lm_i) — the `distvf` entries.
    to_lm: Vec<Vec<u32>>,
    covering: bool,
    node_count: usize,
}

impl LandmarkIndex {
    /// Builds the index from scratch ("BatchLM" in the experiments), running
    /// the per-landmark BFS pairs on [`configured_shards`] scoped threads
    /// when the row volume warrants it (see
    /// [`LandmarkIndex::build_with_shards`]).
    pub fn build(graph: &DataGraph, selection: LandmarkSelection) -> Self {
        Self::build_with_shards(graph, selection, configured_shards())
    }

    /// [`LandmarkIndex::build`] with an explicit shard count (`IGPM_SHARDS`
    /// and machine parallelism are ignored).
    ///
    /// Every landmark's two distance rows come from independent BFS runs
    /// over the (read-only) graph, so the landmark list is chunked across
    /// scoped threads; rows are assembled back in landmark order, making the
    /// result bit-identical for every shard count. Threads are only spawned
    /// when the total row volume (`|lm| · |V|`) is large enough to amortise
    /// them; `shards = 1` is the sequential build.
    pub fn build_with_shards(
        graph: &DataGraph,
        selection: LandmarkSelection,
        shards: usize,
    ) -> Self {
        let (mut landmarks, covering) = match selection {
            LandmarkSelection::VertexCover => (greedy_vertex_cover(graph), true),
            LandmarkSelection::TopDegree(count) => {
                let mut nodes: Vec<NodeId> = graph.nodes().collect();
                nodes.sort_unstable_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
                nodes.truncate(count);
                (nodes, false)
            }
            LandmarkSelection::Explicit(nodes) => (nodes, false),
        };
        // Duplicates (possible in an Explicit selection) are dropped up
        // front, keeping the first occurrence — exactly what repeated
        // `push_landmark` calls would do.
        let mut seen: FastHashSet<NodeId> = FastHashSet::default();
        landmarks.retain(|&lm| seen.insert(lm));

        let mut index = LandmarkIndex {
            landmarks: Vec::new(),
            position: FastHashMap::default(),
            from_lm: Vec::new(),
            to_lm: Vec::new(),
            covering,
            node_count: graph.node_count(),
        };
        let shards = shards.clamp(1, MAX_SHARDS).min(landmarks.len().max(1));
        if shards > 1
            && landmarks.len().saturating_mul(graph.node_count()) >= PARALLEL_WORK_THRESHOLD
        {
            let mut rows: Vec<(Vec<u32>, Vec<u32>)> = vec![Default::default(); landmarks.len()];
            let chunk = landmarks.len().div_ceil(shards);
            std::thread::scope(|scope| {
                for (lms, out) in landmarks.chunks(chunk).zip(rows.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (&lm, slot) in lms.iter().zip(out.iter_mut()) {
                            *slot = (
                                bfs_distances_dense(graph, lm, Direction::Forward),
                                bfs_distances_dense(graph, lm, Direction::Backward),
                            );
                        }
                    });
                }
            });
            for (lm, (from_row, to_row)) in landmarks.into_iter().zip(rows) {
                index.position.insert(lm, index.landmarks.len());
                index.landmarks.push(lm);
                index.from_lm.push(from_row);
                index.to_lm.push(to_row);
            }
        } else {
            for lm in landmarks {
                index.push_landmark(graph, lm);
            }
        }
        index
    }

    /// Adds `lm` as a landmark (no-op if it already is one) and computes its
    /// distance rows with two BFS runs. Returns `true` if it was added.
    pub fn push_landmark(&mut self, graph: &DataGraph, lm: NodeId) -> bool {
        if self.position.contains_key(&lm) {
            return false;
        }
        self.position.insert(lm, self.landmarks.len());
        self.landmarks.push(lm);
        self.from_lm.push(bfs_distances_dense(graph, lm, Direction::Forward));
        self.to_lm.push(bfs_distances_dense(graph, lm, Direction::Backward));
        true
    }

    /// The landmark vector `lm`.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks `|lm|`.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True if there are no landmarks.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// True if the landmark set is known to cover all shortest paths, making
    /// distance queries exact.
    pub fn is_covering(&self) -> bool {
        self.covering
    }

    /// True if `node` is a landmark.
    pub fn is_landmark(&self, node: NodeId) -> bool {
        self.position.contains_key(&node)
    }

    /// The number of data-graph nodes the index was built over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Extends every per-landmark distance row when the graph gained nodes
    /// since the index was built. New nodes are isolated until edge updates
    /// arrive, so their entries start [`UNREACHABLE`]; the covering invariant
    /// is untouched (a vertex cover stays a cover when isolated nodes are
    /// added). The incremental maintenance procedures call this before
    /// touching any row, so indices never go out of bounds after node churn.
    pub fn ensure_node_capacity(&mut self, node_count: usize) {
        if node_count <= self.node_count {
            return;
        }
        for row in self.from_lm.iter_mut().chain(self.to_lm.iter_mut()) {
            row.resize(node_count, UNREACHABLE);
        }
        self.node_count = node_count;
    }

    /// The distance vector `distvf(v)`: distances from `v` to each landmark.
    pub fn distvf(&self, v: NodeId) -> Vec<u32> {
        self.to_lm.iter().map(|row| row[v.index()]).collect()
    }

    /// The distance vector `distvt(v)`: distances from each landmark to `v`.
    pub fn distvt(&self, v: NodeId) -> Vec<u32> {
        self.from_lm.iter().map(|row| row[v.index()]).collect()
    }

    /// Mutable access to the per-landmark rows (for incremental maintenance).
    pub(crate) fn rows_mut(&mut self) -> (&mut Vec<Vec<u32>>, &mut Vec<Vec<u32>>) {
        (&mut self.from_lm, &mut self.to_lm)
    }

    /// The distance query `dist(v, v', lm)` of Section 6.2: the minimum over
    /// all landmarks of `distvf(v)[i] + distvt(v')[i]`.
    pub fn query(&self, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let mut best = u64::MAX;
        for i in 0..self.landmarks.len() {
            let a = self.to_lm[i][from.index()];
            let b = self.from_lm[i][to.index()];
            if a != UNREACHABLE && b != UNREACHABLE {
                best = best.min(a as u64 + b as u64);
            }
        }
        if best == u64::MAX {
            None
        } else {
            Some(best as u32)
        }
    }

    /// Approximate heap footprint in bytes (used by Fig. 20(b)).
    pub fn memory_bytes(&self) -> usize {
        let rows: usize = self
            .from_lm
            .iter()
            .chain(self.to_lm.iter())
            .map(|r| r.capacity() * std::mem::size_of::<u32>())
            .sum();
        rows + self.landmarks.capacity() * std::mem::size_of::<NodeId>()
    }
}

impl DistanceOracle for LandmarkIndex {
    fn distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.query(from, to)
    }

    fn name(&self) -> &'static str {
        "landmark"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistanceMatrix;
    use igpm_graph::Attributes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, edges: usize, seed: u64) -> DataGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DataGraph::new();
        for i in 0..n {
            g.add_node(Attributes::labeled(format!("v{i}")));
        }
        for _ in 0..edges {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            if a != b {
                g.add_edge(a, b);
            }
        }
        g
    }

    #[test]
    fn vertex_cover_landmarks_are_exact() {
        for seed in 0..4 {
            let g = random_graph(30, 90, seed);
            let index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
            assert!(index.is_covering());
            let matrix = DistanceMatrix::build(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(
                        index.query(a, b),
                        matrix.distance(a, b),
                        "seed {seed}: mismatch at ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn top_degree_landmarks_are_upper_bounds() {
        let g = random_graph(40, 120, 11);
        let index = LandmarkIndex::build(&g, LandmarkSelection::TopDegree(5));
        assert!(!index.is_covering());
        assert_eq!(index.len(), 5);
        let matrix = DistanceMatrix::build(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                if let Some(est) = index.query(a, b) {
                    let exact = matrix.distance(a, b).expect("estimate implies reachability");
                    assert!(est >= exact, "estimate below exact at ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn explicit_landmarks_and_vectors() {
        // Path 0 -> 1 -> 2 with landmark 1 (a vertex cover of the path).
        let mut g = DataGraph::new();
        for i in 0..3 {
            g.add_node(Attributes::labeled(format!("v{i}")));
        }
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let index = LandmarkIndex::build(&g, LandmarkSelection::Explicit(vec![NodeId(1)]));
        assert_eq!(index.landmarks(), &[NodeId(1)]);
        assert!(index.is_landmark(NodeId(1)));
        assert!(!index.is_landmark(NodeId(0)));
        assert_eq!(index.distvf(NodeId(0)), vec![1], "dis(0, lm)");
        assert_eq!(index.distvt(NodeId(2)), vec![1], "dis(lm, 2)");
        assert_eq!(index.query(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(index.query(NodeId(2), NodeId(0)), None);
        assert_eq!(index.query(NodeId(2), NodeId(2)), Some(0));
        assert_eq!(index.distance(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(index.name(), "landmark");
        assert_eq!(index.node_count(), 3);
        assert!(index.memory_bytes() > 0);
        assert!(!index.is_empty());
    }

    #[test]
    fn push_landmark_is_idempotent() {
        let g = random_graph(10, 20, 3);
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::Explicit(vec![NodeId(0)]));
        assert!(!index.push_landmark(&g, NodeId(0)));
        assert!(index.push_landmark(&g, NodeId(1)));
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn example_6_2_friendfeed_style_vectors() {
        // A small analogue of Example 6.2: Ann -> Pat -> Bill, Dan -> Pat,
        // with landmarks {Ann, Dan, Pat}.
        let mut g = DataGraph::new();
        let ann = g.add_node(Attributes::labeled("Ann"));
        let dan = g.add_node(Attributes::labeled("Dan"));
        let pat = g.add_node(Attributes::labeled("Pat"));
        let bill = g.add_node(Attributes::labeled("Bill"));
        g.add_edge(ann, pat);
        g.add_edge(dan, pat);
        g.add_edge(pat, bill);
        let index = LandmarkIndex::build(&g, LandmarkSelection::Explicit(vec![ann, dan, pat]));
        // dis(Dan, Bill) = 2 found through the landmark Pat.
        assert_eq!(index.query(dan, bill), Some(2));
        assert_eq!(index.distvf(dan), vec![UNREACHABLE, 0, 1]);
        assert_eq!(index.distvt(bill), vec![2, 2, 1]);
    }
}
