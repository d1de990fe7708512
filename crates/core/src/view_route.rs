//! Shard-local routing with explicit cross-shard handoff, plus the
//! [`ViewRouter`] name for view-based routing.
//!
//! Decode-free routing over any [`AdjacencyView`] — e.g. a cursor decoding
//! neighbor lists on demand from a memory-mapped store — is
//! [`GreedyRouter::route_view`]: the same Algorithm 1 loop as the decoded
//! router, so its routes equal the decoded ones **bitwise**
//! (`smallworld-store`'s equivalence tests enforce this).
//!
//! [`route_sharded`] routes across a partitioned store through that same
//! loop: each shard exposes its local adjacency as a view plus a
//! boundary-edge table, and a private sharded view merges local and
//! boundary neighbors in global id order through
//! `smallworld_graph::view::merge_shard_neighbors` — the one merge the
//! store's `ShardedStore::assemble` also calls — so the sharded route is
//! bitwise the global route, while only touching the shards the packet
//! actually crosses. A *handoff* is counted whenever a hop of the route
//! leaves the current shard.

use smallworld_graph::view::merge_shard_neighbors;
use smallworld_graph::{AdjacencyView, NodeId};

use crate::greedy::{GreedyRouter, RouteRecord};
use crate::objective::ScoreKernel;

/// The router for [`AdjacencyView`]s: [`GreedyRouter`], whose
/// [`route_view`](GreedyRouter::route_view) runs Algorithm 1 over any view.
pub type ViewRouter = GreedyRouter;

/// One shard of a partitioned graph, as seen by [`route_sharded`]: the
/// contiguous global id range `start..end`, a view of the shard-local
/// adjacency (local ids `0..end-start`, sorted), and the boundary-edge
/// table `(local source, global target)` sorted by source then target,
/// with every target outside the shard's range — exactly the layout of
/// `smallworld-store`'s shard partition.
#[derive(Debug)]
pub struct ShardSlice<'a, V> {
    /// First global id owned by this shard.
    pub start: u32,
    /// One past the last global id owned by this shard.
    pub end: u32,
    /// Shard-local adjacency over local ids.
    pub local: V,
    /// Cross-shard edges: `(local src, global tgt)`, sorted.
    pub boundary: &'a [(u32, u32)],
}

/// A sharded route: the record (bitwise the global-graph route) plus how
/// often the packet crossed a shard boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedRoute {
    /// The route, identical to the unsharded route on the assembled graph.
    pub record: RouteRecord,
    /// Number of hops whose destination lay in a different shard.
    pub handoffs: u64,
}

/// Index of the shard owning global vertex `g`.
///
/// # Panics
///
/// Panics if no shard covers `g` (the slices must tile `0..n`).
#[inline]
fn owner<V>(shards: &[ShardSlice<'_, V>], g: u32) -> usize {
    let i = shards.partition_point(|s| s.end <= g);
    assert!(
        i < shards.len() && shards[i].start <= g,
        "vertex v{g} not covered by any shard"
    );
    i
}

/// The global adjacency of a shard partition: global vertex `g`'s
/// neighbors are its owner shard's local neighbors merged with its
/// boundary targets ([`merge_shard_neighbors`]), assembled in a reused
/// buffer.
struct ShardedView<'s, 'a, V> {
    shards: &'s mut [ShardSlice<'a, V>],
    merged: Vec<NodeId>,
}

impl<V: AdjacencyView> AdjacencyView for ShardedView<'_, '_, V> {
    fn node_count(&self) -> usize {
        self.shards.last().map_or(0, |s| s.end as usize)
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let shard = &mut self.shards[owner(self.shards, v.raw())];
        let (start, l, table) = (shard.start, v.raw() - shard.start, shard.boundary);
        let merged = &mut self.merged;
        merged.clear();
        shard.local.with_neighbors(NodeId::new(l), |ns| {
            merge_shard_neighbors(ns.iter().map(|u| u.raw()), start, l, table, merged);
        });
        f(merged)
    }
}

/// Greedy routing across a shard partition with explicit handoff: each
/// hop reads the current vertex's neighborhood from its owning shard's
/// local adjacency plus boundary table, and a hop into another shard is a
/// handoff.
///
/// The returned route is **bitwise identical** (path, outcome, hop count)
/// to routing on the assembled global graph, for any shard count — the
/// per-hop argmax sees local and boundary neighbors in exactly the global
/// adjacency order.
///
/// # Panics
///
/// Panics if the shard slices do not tile the vertex space (any routed-to
/// vertex must have an owner).
pub fn route_sharded<V, K>(
    shards: &mut [ShardSlice<'_, V>],
    kernel: &K,
    s: NodeId,
    max_steps: usize,
) -> ShardedRoute
where
    V: AdjacencyView,
    K: ScoreKernel,
{
    let mut view = ShardedView {
        shards,
        merged: Vec::new(),
    };
    let record = GreedyRouter::with_max_steps(max_steps).route_view_quiet(&mut view, kernel, s);
    let shards = &*view.shards;
    let handoffs = record
        .path
        .windows(2)
        .filter(|w| owner(shards, w[0].raw()) != owner(shards, w[1].raw()))
        .count() as u64;
    ShardedRoute { record, handoffs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::RouteOutcome;
    use crate::objective::{GirgObjective, Objective, BY_ID};
    use crate::router::Router;
    use crate::GreedyRouter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use smallworld_graph::Graph;
    use smallworld_models::girg::GirgBuilder;

    #[test]
    fn view_router_matches_greedy_router_on_girg() {
        let mut rng = StdRng::seed_from_u64(5);
        let girg = GirgBuilder::<2>::new(1_200).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let greedy = GreedyRouter::new();
        let view_router = ViewRouter::new();
        for _ in 0..40 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let expect = greedy.route_quiet(girg.graph(), &obj, s, t);
            let kernel = obj.prepare(t);
            let got = view_router.route_view_quiet(&mut girg.graph(), &kernel, s);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn view_router_respects_step_cap() {
        let g = Graph::from_edges(10, (0u32..9).map(|i| (i, i + 1))).unwrap();
        let kernel = BY_ID.prepare(NodeId::new(9));
        let r = ViewRouter::with_max_steps(3).route_view_quiet(&mut (&g), &kernel, NodeId::new(0));
        assert_eq!(r.outcome, RouteOutcome::MaxStepsExceeded);
    }

    /// One shard: id range, local CSR, and sorted boundary table.
    type ShardParts = (u32, u32, Graph, Vec<(u32, u32)>);

    /// Splits a graph into `k` contiguous-range shards the way the store
    /// does: local CSR per shard plus a sorted boundary table.
    fn split(graph: &Graph, k: usize) -> Vec<ShardParts> {
        let n = graph.node_count() as u32;
        let mut out = Vec::new();
        let per = n.div_ceil(k as u32).max(1);
        let mut start = 0u32;
        while start < n {
            let end = (start + per).min(n);
            let mut edges = Vec::new();
            let mut boundary = Vec::new();
            for v in start..end {
                for &u in graph.neighbors(NodeId::new(v)) {
                    let u = u.raw();
                    if (start..end).contains(&u) {
                        if v < u {
                            edges.push((v - start, u - start));
                        }
                    } else {
                        boundary.push((v - start, u));
                    }
                }
            }
            let local = Graph::from_edges((end - start) as usize, edges).unwrap();
            boundary.sort_unstable();
            out.push((start, end, local, boundary));
            start = end;
        }
        out
    }

    #[test]
    fn sharded_route_equals_global_route() {
        let mut rng = StdRng::seed_from_u64(6);
        let girg = GirgBuilder::<2>::new(900).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let greedy = GreedyRouter::new();
        for k in [1usize, 2, 4, 8] {
            let parts = split(girg.graph(), k);
            let mut shards: Vec<ShardSlice<'_, &Graph>> = parts
                .iter()
                .map(|(start, end, local, boundary)| ShardSlice {
                    start: *start,
                    end: *end,
                    local,
                    boundary,
                })
                .collect();
            let mut crossed_any = false;
            for _ in 0..25 {
                let s = girg.random_vertex(&mut rng);
                let t = girg.random_vertex(&mut rng);
                let expect = greedy.route_quiet(girg.graph(), &obj, s, t);
                let kernel = obj.prepare(t);
                let got = route_sharded(&mut shards, &kernel, s, crate::greedy::DEFAULT_MAX_STEPS);
                assert_eq!(got.record, expect, "k={k}");
                crossed_any |= got.handoffs > 0;
                if k == 1 {
                    assert_eq!(got.handoffs, 0);
                }
            }
            if k > 1 {
                assert!(crossed_any, "k={k}: no route ever crossed a shard");
            }
        }
    }

    #[test]
    fn handoff_count_matches_path_shard_changes() {
        let mut rng = StdRng::seed_from_u64(7);
        let girg = GirgBuilder::<2>::new(600).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let parts = split(girg.graph(), 4);
        let mut shards: Vec<ShardSlice<'_, &Graph>> = parts
            .iter()
            .map(|(start, end, local, boundary)| ShardSlice {
                start: *start,
                end: *end,
                local,
                boundary,
            })
            .collect();
        for _ in 0..20 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let kernel = obj.prepare(t);
            let got = route_sharded(&mut shards, &kernel, s, crate::greedy::DEFAULT_MAX_STEPS);
            let expected: u64 = got
                .record
                .path
                .windows(2)
                .filter(|w| owner(&shards, w[0].raw()) != owner(&shards, w[1].raw()))
                .count() as u64;
            assert_eq!(got.handoffs, expected);
        }
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn uncovered_vertex_panics() {
        let g = Graph::from_edges(4, [(0u32, 1u32)]).unwrap();
        let shards: &[ShardSlice<'_, &Graph>] = &[ShardSlice {
            start: 0,
            end: 2,
            local: &g,
            boundary: &[],
        }];
        let _ = owner(shards, 3);
    }

    #[test]
    fn random_graph_sharded_equivalence_fuzz() {
        // arbitrary (non-geometric) graphs with an id objective
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..30 {
            let n = rng.gen_range(2..40usize);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.15) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges).unwrap();
            let k = rng.gen_range(1..=4usize.min(n));
            let parts = split(&g, k);
            let mut shards: Vec<ShardSlice<'_, &Graph>> = parts
                .iter()
                .map(|(start, end, local, boundary)| ShardSlice {
                    start: *start,
                    end: *end,
                    local,
                    boundary,
                })
                .collect();
            let s = NodeId::new(rng.gen_range(0..n as u32));
            let t = NodeId::new(rng.gen_range(0..n as u32));
            let expect = GreedyRouter::new().route_quiet(&g, &BY_ID, s, t);
            let kernel = BY_ID.prepare(t);
            let got = route_sharded(&mut shards, &kernel, s, crate::greedy::DEFAULT_MAX_STEPS);
            assert_eq!(got.record, expect, "trial {trial} n={n} k={k}");
        }
    }
}
