//! Compressed-sparse-row adjacency with sorted neighbor lists.

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

use smallworld_par::{chunk_ranges, Pool};

use crate::view::RunDirectory;

/// Identifier of a vertex, a dense index in `0..node_count`.
///
/// GIRG experiments run at up to a few million vertices, so a `u32` index
/// halves the adjacency footprint relative to `usize`.
///
/// # Examples
///
/// ```
/// use smallworld_graph::NodeId;
///
/// let v = NodeId::new(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(format!("{v}"), "v7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
#[repr(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its raw `u32` index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// The raw index as `usize`, for slice indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Lends `ids` to `f` as a buffer of raw `u32` indices, in place:
    /// `NodeId` is `#[repr(transparent)]` over `u32`, so the allocation is
    /// reused as it is, with no copy. What `f` leaves in the buffer
    /// (values, length, capacity) is what `ids` holds afterwards; if `f`
    /// panics, `ids` is left empty. Decoders that produce raw ids fill
    /// node-id buffers through it.
    ///
    /// ```
    /// use smallworld_graph::NodeId;
    ///
    /// let mut ids = vec![NodeId::new(3)];
    /// NodeId::with_raw_ids(&mut ids, |raw| raw.push(raw[0] + 4));
    /// assert_eq!(ids, [NodeId::new(3), NodeId::new(7)]);
    /// ```
    pub fn with_raw_ids<R>(ids: &mut Vec<NodeId>, f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
        let mut taken = std::mem::ManuallyDrop::new(std::mem::take(ids));
        let (ptr, len, cap) = (taken.as_mut_ptr(), taken.len(), taken.capacity());
        // SAFETY: `NodeId` is `#[repr(transparent)]` over `u32`, so both
        // element types have one size, alignment and set of valid values:
        // the allocation, its length and its capacity describe a valid
        // `Vec<u32>`, and `taken` is never used or dropped again.
        let mut raw = unsafe { Vec::from_raw_parts(ptr.cast::<u32>(), len, cap) };
        let result = f(&mut raw);
        let mut raw = std::mem::ManuallyDrop::new(raw);
        let (ptr, len, cap) = (raw.as_mut_ptr(), raw.len(), raw.capacity());
        // SAFETY: as above, in the other direction; `raw` is never used or
        // dropped again.
        *ids = unsafe { Vec::from_raw_parts(ptr.cast::<NodeId>(), len, cap) };
        result
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// Error building a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= node_count`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The number of nodes the builder was created with.
        node_count: usize,
    },
    /// An edge connected a node to itself; the models in this workspace are
    /// simple graphs.
    SelfLoop {
        /// The node with the loop.
        node: NodeId,
    },
    /// Pre-built CSR arrays handed to [`Graph::from_sorted_csr`] violated
    /// the representation invariants.
    MalformedCsr {
        /// Which invariant failed.
        detail: &'static str,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range for graph with {node_count} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::MalformedCsr { detail } => write!(f, "malformed CSR arrays: {detail}"),
        }
    }
}

impl Error for GraphError {}

/// An undirected simple graph in compressed-sparse-row form.
///
/// Neighbor lists are sorted, so `has_edge` is a binary search and greedy
/// routing's argmax scans are sequential over contiguous memory.
///
/// Build a graph with [`Graph::builder`] or [`Graph::from_edges`].
///
/// A graph also owns the [`RunDirectory`] of its long lists, which
/// `&Graph`'s [`AdjacencyView::fold_runs`](crate::AdjacencyView::fold_runs)
/// walks. It is built lazily, on the first run fold over a list of at least
/// [`DIRECTORY_MIN_IDS`](crate::view::DIRECTORY_MIN_IDS) ids (bounded
/// greedy hops over a spatially ordered graph), once per graph and shared
/// by every thread routing over it; graphs that are never folded run by run
/// never build one. It is derived data: [`Clone`] and
/// [`Graph::relabel`] start without one, and equality and [`Debug`] output
/// ignore it, so a directory can never go stale or tell two equal graphs
/// apart.
#[derive(Default)]
pub struct Graph {
    /// `offsets[v] .. offsets[v+1]` indexes `targets` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<NodeId>,
    /// The long lists' run directory, once a run fold has built it.
    directory: OnceLock<RunDirectory>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph::from_parts(self.offsets.clone(), self.targets.clone())
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("offsets", &self.offsets)
            .field("targets", &self.targets)
            .finish()
    }
}

impl Graph {
    /// A graph over valid CSR arrays, with no run directory yet.
    fn from_parts(offsets: Vec<usize>, targets: Vec<NodeId>) -> Graph {
        Graph {
            offsets,
            targets,
            directory: OnceLock::new(),
        }
    }

    /// Starts building a graph with a fixed number of nodes.
    pub fn builder(node_count: usize) -> GraphBuilder {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Duplicate edges are collapsed. The edge `(u, v)` and `(v, u)` are the
    /// same edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] on
    /// invalid input.
    ///
    /// # Examples
    ///
    /// ```
    /// use smallworld_graph::{Graph, NodeId};
    ///
    /// let g = Graph::from_edges(3, [(0u32, 1u32), (1, 2), (2, 1)])?;
    /// assert_eq!(g.edge_count(), 2);
    /// # Ok::<(), smallworld_graph::GraphError>(())
    /// ```
    pub fn from_edges<I, E>(node_count: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        let mut builder = Graph::builder(node_count);
        for e in edges {
            let (u, v) = e.into();
            builder.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(builder.build())
    }

    /// Builds a graph from an edge list using the given thread pool:
    /// validation, degree counting, adjacency scatter, and per-node
    /// sort/dedup all run across the pool's workers.
    ///
    /// The result is **identical** to [`Graph::from_edges`] on the same
    /// input for any thread count: the scatter order is nondeterministic,
    /// but every neighbor list is subsequently sorted and deduplicated, so
    /// the final CSR is a pure function of the edge multiset.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// for the first offending edge (in input order) on invalid input.
    pub fn from_edges_parallel(
        node_count: usize,
        edges: &[(u32, u32)],
        pool: &Pool,
    ) -> Result<Graph, GraphError> {
        // Small inputs: the parallel machinery (atomics, extra passes) costs
        // more than it saves; defer to the sequential builder.
        if pool.threads() <= 1 || edges.len() < (1 << 15) {
            validate_edges(node_count, edges)?;
            return Ok(build_csr(node_count, edges));
        }

        let edge_chunks = chunk_ranges(edges.len(), pool.threads() * 4);

        // Validate all chunks, reporting the first bad edge in input order.
        let first_bad = pool
            .map(edge_chunks.len(), |c| {
                let range = edge_chunks[c].clone();
                for i in range {
                    if let Err(e) = validate_edge(node_count, edges[i]) {
                        return Some((i, e));
                    }
                }
                None
            })
            .into_iter()
            .flatten()
            .min_by_key(|&(i, _)| i);
        if let Some((_, err)) = first_bad {
            return Err(err);
        }

        let n = node_count;
        // Degree counting with relaxed atomics: the sum is order-independent.
        let degrees: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let deg_ref = &degrees;
        pool.map(edge_chunks.len(), |c| {
            for &(u, v) in &edges[edge_chunks[c].clone()] {
                deg_ref[u as usize].fetch_add(1, Ordering::Relaxed);
                deg_ref[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degrees[v].load(Ordering::Relaxed) as usize;
        }

        // Scatter both directions of every edge through per-node cursors.
        let cursors: Vec<AtomicUsize> =
            offsets[..n].iter().map(|&o| AtomicUsize::new(o)).collect();
        let raw: Vec<AtomicU32> = (0..offsets[n]).map(|_| AtomicU32::new(0)).collect();
        let (cur_ref, raw_ref) = (&cursors, &raw);
        pool.map(edge_chunks.len(), |c| {
            for &(u, v) in &edges[edge_chunks[c].clone()] {
                let iu = cur_ref[u as usize].fetch_add(1, Ordering::Relaxed);
                raw_ref[iu].store(v, Ordering::Relaxed);
                let iv = cur_ref[v as usize].fetch_add(1, Ordering::Relaxed);
                raw_ref[iv].store(u, Ordering::Relaxed);
            }
        });
        let mut targets: Vec<u32> = raw.into_iter().map(AtomicU32::into_inner).collect();

        // Sort + dedup each adjacency list, parallel over node ranges of
        // near-equal adjacency mass (degree skew is severe in power-law
        // graphs, so splitting by node count alone would imbalance badly).
        let node_ranges = balanced_node_ranges(&offsets, pool.threads() * 4);
        let mut slices: Vec<(Range<usize>, &mut [u32])> = Vec::with_capacity(node_ranges.len());
        let mut rest: &mut [u32] = &mut targets;
        let mut consumed = 0usize;
        for r in &node_ranges {
            let hi = offsets[r.end];
            let (head, tail) = rest.split_at_mut(hi - consumed);
            slices.push((r.clone(), head));
            rest = tail;
            consumed = hi;
        }
        let offsets_ref = &offsets;
        let new_lens: Vec<Vec<u32>> = pool.map_items(slices, |_, (nodes, slice)| {
            let base = offsets_ref[nodes.start];
            let mut lens = Vec::with_capacity(nodes.len());
            for v in nodes {
                let window = &mut slice[offsets_ref[v] - base..offsets_ref[v + 1] - base];
                window.sort_unstable();
                let mut keep = 0usize;
                for i in 0..window.len() {
                    if i == 0 || window[i] != window[i - 1] {
                        window[keep] = window[i];
                        keep += 1;
                    }
                }
                lens.push(keep as u32);
            }
            lens
        });

        // Compact the deduplicated lists (sequential: pure memmove).
        let mut new_offsets = vec![0usize; n + 1];
        let mut write = 0usize;
        let mut lens = new_lens.into_iter().flatten();
        for v in 0..n {
            let lo = offsets[v];
            let len = lens.next().expect("one length per node") as usize;
            new_offsets[v] = write;
            if write != lo {
                targets.copy_within(lo..lo + len, write);
            }
            write += len;
        }
        new_offsets[n] = write;
        targets.truncate(write);
        Ok(Graph::from_parts(
            new_offsets,
            targets.into_iter().map(NodeId::new).collect(),
        ))
    }

    /// Builds a graph directly from sorted CSR arrays, skipping the
    /// edge-list sort/dedup pipeline — the path of the compressed on-disk
    /// store (`smallworld-store`) for arrays its decode found at fault,
    /// so that each fault gets its error here.
    ///
    /// The representation invariants are checked in one linear pass
    /// (monotone offsets covering `targets`, each neighbor list strictly
    /// increasing, ids in range, no self-loops). Symmetry of the adjacency
    /// relation is **not** re-verified — checking it costs a binary search
    /// per half-edge, and the store's per-section checksums already guard
    /// against corruption; callers constructing arrays by hand must supply
    /// both directions of every edge themselves.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MalformedCsr`] if the arrays violate any of
    /// the checked invariants.
    ///
    /// # Examples
    ///
    /// ```
    /// use smallworld_graph::{Graph, NodeId};
    ///
    /// let offsets = vec![0, 1, 2];
    /// let targets = vec![NodeId::new(1), NodeId::new(0)];
    /// let g = Graph::from_sorted_csr(offsets, targets)?;
    /// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
    /// # Ok::<(), smallworld_graph::GraphError>(())
    /// ```
    pub fn from_sorted_csr(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
    ) -> Result<Graph, GraphError> {
        check_sorted_csr(&offsets, &targets)?;
        Ok(Graph::from_parts(offsets, targets))
    }

    /// Builds a graph from CSR arrays whose invariants the caller has
    /// already established — the invariants [`Graph::from_sorted_csr`]
    /// checks — without a second pass over them: the one-pass decode of
    /// the compressed store (`smallworld-store`) checks each list's range
    /// and self-loops as it decodes it, and its delta format makes every
    /// list strictly increasing. Debug builds check the arrays again.
    ///
    /// Arrays that break an invariant give a graph whose queries may
    /// panic or answer wrongly; they cannot cause undefined behavior.
    pub fn from_verified_csr(offsets: Vec<usize>, targets: Vec<NodeId>) -> Graph {
        debug_assert_eq!(check_sorted_csr(&offsets, &targets), Ok(()));
        Graph::from_parts(offsets, targets)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The raw CSR offset array (length `node_count + 1`), for kernels that
    /// partition nodes by adjacency mass.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Whether `{u, v}` is an edge (binary search over `u`'s neighbors).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|(u, v)| u < v)
    }

    /// Returns a copy of the graph with every vertex renamed through `perm`:
    /// vertex `v` of `self` becomes `perm.forward(v)`, and neighbor lists are
    /// re-sorted so the CSR invariants hold in the new id space.
    ///
    /// Relabeling by a spatial sort key (e.g. the Morton code of each
    /// vertex's position) places geometric neighborhoods in contiguous id
    /// ranges, so greedy routing's neighbor scans touch adjacent cache
    /// lines. Use [`crate::Permutation::backward`] to map results back to
    /// original ids.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len()` differs from [`Self::node_count`].
    ///
    /// # Examples
    ///
    /// ```
    /// use smallworld_graph::{Graph, NodeId, Permutation};
    ///
    /// let g = Graph::from_edges(3, [(0u32, 1u32), (1, 2)])?;
    /// let perm = Permutation::from_sort_keys(&[2, 1, 0]); // reverse ids
    /// let h = g.relabel(&perm);
    /// assert!(h.has_edge(NodeId::new(2), NodeId::new(1)));
    /// assert!(h.has_edge(NodeId::new(1), NodeId::new(0)));
    /// # Ok::<(), smallworld_graph::GraphError>(())
    /// ```
    pub fn relabel(&self, perm: &crate::Permutation) -> Graph {
        let n = self.node_count();
        assert_eq!(perm.len(), n, "permutation length must match node count");
        let mut offsets = vec![0usize; n + 1];
        for new in 0..n {
            let old = perm.backward(NodeId::from_index(new));
            offsets[new + 1] = offsets[new] + self.degree(old);
        }
        let mut targets = Vec::with_capacity(offsets[n]);
        for new in 0..n {
            let old = perm.backward(NodeId::from_index(new));
            let start = targets.len();
            targets.extend(self.neighbors(old).iter().map(|&u| perm.forward(u)));
            targets[start..].sort_unstable();
        }
        Graph::from_parts(offsets, targets)
    }

    /// The run directory of the graph's long lists, or `None` until a run
    /// fold has built it (see the type docs).
    pub fn run_directory(&self) -> Option<&RunDirectory> {
        self.directory.get()
    }

    /// The run directory, built by the first caller; concurrent first
    /// callers wait for that one build.
    pub(crate) fn directory(&self) -> &RunDirectory {
        self.directory.get_or_init(|| RunDirectory::build(self))
    }

    /// The maximum degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n`, or 0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.targets.len() as f64 / self.node_count() as f64
        }
    }
}

/// Returns a copy of the graph where each edge is independently kept with
/// probability `keep`, for edge-failure (bond percolation) experiments.
///
/// The paper remarks (discussion of Theorem 3.5) that greedy routing is
/// robust to failing edges — the packet simply takes the next-best
/// neighbor; `percolate` provides the failure injection for that claim.
///
/// # Panics
///
/// Panics unless `keep ∈ [0, 1]`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_graph::{csr::percolate, Graph};
///
/// let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert_eq!(percolate(&g, 1.0, &mut rng).edge_count(), 3);
/// assert_eq!(percolate(&g, 0.0, &mut rng).edge_count(), 0);
/// # Ok::<(), smallworld_graph::GraphError>(())
/// ```
pub fn percolate<R: rand::Rng + ?Sized>(graph: &Graph, keep: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&keep), "keep probability out of range");
    let mut builder = Graph::builder(graph.node_count());
    for (u, v) in graph.edges() {
        if keep >= 1.0 || rng.gen::<f64>() < keep {
            builder.add_edge(u, v).expect("edge was valid in the source graph");
        }
    }
    builder.build()
}

/// Returns a copy of the graph where each *vertex* independently survives
/// with probability `keep`; failed vertices keep their id but lose all
/// incident edges (site percolation).
///
/// Ids are preserved so positions/weights arrays stay aligned — a failed
/// router in a network doesn't renumber the survivors.
///
/// # Panics
///
/// Panics unless `keep ∈ [0, 1]`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use smallworld_graph::{csr::percolate_vertices, Graph};
///
/// let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let intact = percolate_vertices(&g, 1.0, &mut rng);
/// assert_eq!(intact.edge_count(), 3);
/// assert_eq!(intact.node_count(), 4);
/// # Ok::<(), smallworld_graph::GraphError>(())
/// ```
pub fn percolate_vertices<R: rand::Rng + ?Sized>(graph: &Graph, keep: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&keep), "keep probability out of range");
    let alive: Vec<bool> = (0..graph.node_count())
        .map(|_| keep >= 1.0 || rng.gen::<f64>() < keep)
        .collect();
    let mut builder = Graph::builder(graph.node_count());
    for (u, v) in graph.edges() {
        if alive[u.index()] && alive[v.index()] {
            builder.add_edge(u, v).expect("edge was valid in the source graph");
        }
    }
    builder.build()
}

/// Incremental builder for [`Graph`]; see [`Graph::builder`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range
    /// and [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u.index() >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                node_count: self.node_count,
            });
        }
        if v.index() >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                node_count: self.node_count,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.edges.push((u.raw(), v.raw()));
        Ok(())
    }

    /// Number of edges added so far (before deduplication).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the CSR structure. Duplicate edges are collapsed.
    pub fn build(self) -> Graph {
        build_csr(self.node_count, &self.edges)
    }
}

#[inline]
fn validate_edge(node_count: usize, (u, v): (u32, u32)) -> Result<(), GraphError> {
    if u as usize >= node_count {
        return Err(GraphError::NodeOutOfRange {
            node: NodeId::new(u),
            node_count,
        });
    }
    if v as usize >= node_count {
        return Err(GraphError::NodeOutOfRange {
            node: NodeId::new(v),
            node_count,
        });
    }
    if u == v {
        return Err(GraphError::SelfLoop { node: NodeId::new(u) });
    }
    Ok(())
}

fn validate_edges(node_count: usize, edges: &[(u32, u32)]) -> Result<(), GraphError> {
    for &e in edges {
        validate_edge(node_count, e)?;
    }
    Ok(())
}

/// The sequential CSR construction core shared by [`GraphBuilder::build`]
/// and the small-input path of [`Graph::from_edges_parallel`]: counting
/// sort into CSR, then sort + dedup each adjacency list. Assumes validated
/// edges.
fn build_csr(n: usize, edges: &[(u32, u32)]) -> Graph {
    let mut deg = vec![0usize; n + 1];
    for &(u, v) in edges {
        deg[u as usize + 1] += 1;
        deg[v as usize + 1] += 1;
    }
    let mut offsets = deg;
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut targets = vec![NodeId::default(); offsets[n]];
    let mut cursor = offsets.clone();
    for &(u, v) in edges {
        targets[cursor[u as usize]] = NodeId::new(v);
        cursor[u as usize] += 1;
        targets[cursor[v as usize]] = NodeId::new(u);
        cursor[v as usize] += 1;
    }
    // sort and dedup per node, compacting in place
    let mut write = 0usize;
    let mut new_offsets = vec![0usize; n + 1];
    for v in 0..n {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        targets[lo..hi].sort_unstable();
        let mut prev: Option<NodeId> = None;
        let start = write;
        for i in lo..hi {
            let t = targets[i];
            if prev != Some(t) {
                targets[write] = t;
                write += 1;
                prev = Some(t);
            }
        }
        new_offsets[v] = start;
    }
    new_offsets[n] = write;
    targets.truncate(write);
    Graph::from_parts(new_offsets, targets)
}

/// The invariants [`Graph::from_sorted_csr`] checks, in one linear pass.
fn check_sorted_csr(offsets: &[usize], targets: &[NodeId]) -> Result<(), GraphError> {
    let malformed = |detail| Err(GraphError::MalformedCsr { detail });
    if offsets.is_empty() {
        return malformed("offsets array is empty");
    }
    if offsets[0] != 0 {
        return malformed("offsets must start at 0");
    }
    if *offsets.last().expect("non-empty") != targets.len() {
        return malformed("offsets must end at targets.len()");
    }
    let n = offsets.len() - 1;
    for v in 0..n {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        if lo > hi {
            return malformed("offsets must be nondecreasing");
        }
        if hi > targets.len() {
            return malformed("offset beyond targets.len()");
        }
        let list = &targets[lo..hi];
        for (i, &t) in list.iter().enumerate() {
            if t.index() >= n {
                return malformed("neighbor id out of range");
            }
            if t.index() == v {
                return malformed("self-loop in neighbor list");
            }
            if i > 0 && list[i - 1] >= t {
                return malformed("neighbor list not strictly increasing");
            }
        }
    }
    Ok(())
}

/// Splits `0..n` nodes into at most `parts` contiguous ranges whose total
/// adjacency mass (by `offsets`) is near-equal, so sort/dedup workers get
/// balanced work despite power-law degree skew.
pub(crate) fn balanced_node_ranges(offsets: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    if n == 0 {
        return Vec::new();
    }
    let target = (total / parts.max(1)).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < n {
        let mut end = start + 1;
        while end < n && offsets[end] - offsets[start] < target {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn path_graph(n: u32) -> Graph {
        Graph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, Vec::<(u32, u32)>::new()).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn isolated_nodes() {
        let g = Graph::from_edges(5, [(0u32, 1u32)]).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.degree(NodeId::new(4)), 0);
        assert!(g.neighbors(NodeId::new(3)).is_empty());
    }

    #[test]
    fn degrees_and_neighbors_sorted() {
        let g = Graph::from_edges(4, [(2u32, 0u32), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.degree(NodeId::new(2)), 3);
        let nbrs: Vec<u32> = g.neighbors(NodeId::new(2)).iter().map(|n| n.raw()).collect();
        assert_eq!(nbrs, vec![0, 1, 3]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, [(0u32, 1u32), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = Graph::builder(3);
        assert_eq!(
            b.add_edge(NodeId::new(1), NodeId::new(1)),
            Err(GraphError::SelfLoop { node: NodeId::new(1) })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = Graph::builder(2);
        let err = b.add_edge(NodeId::new(0), NodeId::new(5)).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(5),
                node_count: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn has_edge_symmetric() {
        let g = path_graph(4);
        assert!(g.has_edge(NodeId::new(1), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|(u, v)| u < v));
    }

    #[test]
    fn average_degree_of_cycle_is_two() {
        let n = 10u32;
        let g = Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn percolate_extremes_and_monotonicity() {
        use rand::SeedableRng;
        let g = Graph::from_edges(30, (0u32..29).map(|i| (i, i + 1))).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert_eq!(percolate(&g, 1.0, &mut rng).edge_count(), 29);
        assert_eq!(percolate(&g, 0.0, &mut rng).edge_count(), 0);
        let half = percolate(&g, 0.5, &mut rng);
        assert!(half.edge_count() < 29);
        // surviving edges are a subset
        for (u, v) in half.edges() {
            assert!(g.has_edge(u, v));
        }
        assert_eq!(half.node_count(), 30);
    }

    #[test]
    fn percolate_vertices_isolates_failures() {
        use rand::SeedableRng;
        let g = Graph::from_edges(50, (0u32..49).map(|i| (i, i + 1))).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let survived = percolate_vertices(&g, 0.5, &mut rng);
        assert_eq!(survived.node_count(), 50);
        assert!(survived.edge_count() < 49);
        for (u, v) in survived.edges() {
            assert!(g.has_edge(u, v));
        }
        // extremes
        assert_eq!(percolate_vertices(&g, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(percolate_vertices(&g, 1.0, &mut rng).edge_count(), 49);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percolate_rejects_bad_probability() {
        use rand::SeedableRng;
        let g = Graph::from_edges(2, [(0u32, 1u32)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = percolate(&g, 1.5, &mut rng);
    }

    #[test]
    fn node_id_buffers_cast_to_raw_ids_in_place() {
        assert_eq!(std::mem::size_of::<NodeId>(), std::mem::size_of::<u32>());
        assert_eq!(std::mem::align_of::<NodeId>(), std::mem::align_of::<u32>());
        let mut ids: Vec<NodeId> = Vec::with_capacity(16);
        ids.extend([NodeId::new(1), NodeId::new(u32::MAX)]);
        let before = ids.as_ptr();
        let len = NodeId::with_raw_ids(&mut ids, |raw| {
            assert_eq!(raw, &[1, u32::MAX]);
            raw.push(5);
            raw.len()
        });
        assert_eq!(len, 3);
        assert_eq!(ids, [NodeId::new(1), NodeId::new(u32::MAX), NodeId::new(5)]);
        assert_eq!(ids.as_ptr(), before, "no reallocation, no copy");
        // growth inside the closure carries over
        NodeId::with_raw_ids(&mut ids, |raw| raw.extend(0..100));
        assert_eq!(ids.len(), 103);
        assert_eq!(ids[102], NodeId::new(99));
        // a panic leaves the buffer empty, never half-cast
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            NodeId::with_raw_ids(&mut ids, |_| panic!("decoder failed"))
        }));
        assert!(caught.is_err());
        assert!(ids.is_empty());
    }

    #[test]
    fn node_id_display_and_conversions() {
        let v: NodeId = 3u32.into();
        assert_eq!(v, NodeId::from_index(3));
        assert_eq!(format!("{v}"), "v3");
    }

    #[test]
    fn from_sorted_csr_roundtrips_a_built_graph() {
        let g = Graph::from_edges(6, [(0u32, 1u32), (1, 2), (2, 3), (0, 5), (4, 1)]).unwrap();
        let offsets = g.offsets().to_vec();
        let targets = g.targets.clone();
        let rebuilt = Graph::from_sorted_csr(offsets, targets).unwrap();
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn from_sorted_csr_rejects_invariant_violations() {
        let bad = |offsets: Vec<usize>, targets: Vec<u32>, what: &str| {
            let targets = targets.into_iter().map(NodeId::new).collect();
            let err = Graph::from_sorted_csr(offsets, targets).unwrap_err();
            assert!(
                matches!(err, GraphError::MalformedCsr { .. }),
                "{what}: {err}"
            );
        };
        bad(vec![], vec![], "empty offsets");
        bad(vec![1, 2], vec![1, 0], "nonzero start");
        bad(vec![0, 1], vec![1, 0], "short final offset");
        bad(vec![0, 2, 1], vec![1], "decreasing offsets");
        bad(vec![0, 1, 2], vec![5, 0], "target out of range");
        bad(vec![0, 1, 2], vec![0, 0], "self-loop");
        bad(vec![0, 2, 2], vec![1, 1], "duplicate neighbor");
    }

    #[test]
    fn parallel_build_matches_sequential_above_threshold() {
        // deterministic pseudo-random edge list big enough to take the
        // genuinely parallel path (>= 1 << 15 edges)
        let n = 3_000usize;
        let mut state = 0x9E37_79B9u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges: Vec<(u32, u32)> = (0..40_000)
            .map(|_| {
                let u = (step() % n as u64) as u32;
                let v = (step() % n as u64) as u32;
                if u == v {
                    (u, (v + 1) % n as u32)
                } else {
                    (u, v)
                }
            })
            .collect();
        let sequential = Graph::from_edges(n, edges.iter().copied()).unwrap();
        for threads in [2, 4, 7] {
            let pool = Pool::with_threads(threads);
            let parallel = Graph::from_edges_parallel(n, &edges, &pool).unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_reports_first_bad_edge() {
        let mut edges: Vec<(u32, u32)> = (0..40_000u32).map(|i| (i % 100, (i + 1) % 100)).collect();
        edges[20_000] = (5, 5); // self-loop
        edges[30_000] = (500, 1); // out of range (later: must not win)
        let err = Graph::from_edges_parallel(100, &edges, &Pool::with_threads(4)).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: NodeId::new(5) });
    }

    proptest! {
        /// Parallel and sequential construction agree on arbitrary inputs
        /// (small inputs exercise the sequential fallback; the dedicated
        /// test above covers the scatter path).
        #[test]
        fn prop_parallel_build_equals_sequential(
            edges in prop::collection::vec((0u32..40, 0u32..40), 0..150),
            threads in 1usize..6,
        ) {
            let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let sequential = Graph::from_edges(40, edges.iter().copied()).unwrap();
            let parallel =
                Graph::from_edges_parallel(40, &edges, &Pool::with_threads(threads)).unwrap();
            prop_assert_eq!(sequential, parallel);
        }

        #[test]
        fn prop_csr_invariants(edges in prop::collection::vec((0u32..50, 0u32..50), 0..200)) {
            let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let g = Graph::from_edges(50, edges.clone()).unwrap();
            // symmetry
            for u in g.nodes() {
                for &v in g.neighbors(u) {
                    prop_assert!(g.has_edge(v, u));
                }
            }
            // neighbor lists sorted and strictly increasing
            for u in g.nodes() {
                let nbrs = g.neighbors(u);
                prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            }
            // every input edge present
            for (u, v) in edges {
                prop_assert!(g.has_edge(NodeId::new(u), NodeId::new(v)));
            }
            // handshake lemma
            let total: usize = g.nodes().map(|v| g.degree(v)).sum();
            prop_assert_eq!(total, 2 * g.edge_count());
        }
    }
}
