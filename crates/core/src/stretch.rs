//! Stretch: greedy-path length relative to the shortest path.
//!
//! The stretch of a successful routing attempt is the ratio of the routing
//! path's hop count to the BFS shortest-path distance between source and
//! target. Theorem 3.3 (and the experiments of §4) show greedy routing on
//! GIRGs achieves stretch `1 + o(1)` — the routes are essentially shortest
//! paths.

use smallworld_graph::analytics::pair_distances;
use smallworld_graph::{bfs_distance, Graph};

use crate::greedy::RouteRecord;

/// The stretch of a routing attempt, or `None` if the attempt failed or the
/// source equals the target (stretch is undefined at distance 0).
///
/// # Panics
///
/// Panics if the record's endpoints are out of range for `graph`.
///
/// # Examples
///
/// ```
/// use smallworld_core::{stretch, FnObjective, GreedyRouter, Router};
/// use smallworld_graph::{Graph, NodeId};
///
/// let by_id = FnObjective(|v: NodeId, t: NodeId| {
///     if v == t { f64::INFINITY } else { v.index() as f64 }
/// });
/// // greedy prefers the high-id corridor 0→2→3→4 (3 hops) over the
/// // shortest path 0→1→4 (2 hops): stretch 1.5
/// let g = Graph::from_edges(5, [(0u32, 2u32), (2, 3), (3, 4), (0, 1), (1, 4)])?;
/// let r = GreedyRouter::new().route_quiet(&g, &by_id, NodeId::new(0), NodeId::new(4));
/// assert_eq!(stretch(&g, &r), Some(1.5));
/// # Ok::<(), smallworld_graph::GraphError>(())
/// ```
pub fn stretch(graph: &Graph, record: &RouteRecord) -> Option<f64> {
    if !record.is_success() || record.hops() == 0 {
        return None;
    }
    let shortest = bfs_distance(graph, record.source(), record.last())?;
    debug_assert!(shortest > 0, "distinct endpoints have positive distance");
    Some(record.hops() as f64 / shortest as f64)
}

/// The stretch of every record in a batch, resolved through the
/// bit-parallel multi-source BFS
/// ([`smallworld_graph::analytics::pair_distances`]): up to 64 shortest
/// -path queries share one sweep instead of one bidirectional BFS each.
///
/// Result `i` corresponds to `records[i]` and is exactly what
/// [`stretch`] would return for it — distances are exact, so batching
/// cannot change a single value.
///
/// # Panics
///
/// Panics if any record's endpoints are out of range for `graph`.
pub fn stretch_many(graph: &Graph, records: &[RouteRecord]) -> Vec<Option<f64>> {
    let mut slots = Vec::new();
    let mut pairs = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if r.is_success() && r.hops() > 0 {
            slots.push(i);
            pairs.push((r.source(), r.last()));
        }
    }
    let dists = pair_distances(graph, &pairs);
    let mut out = vec![None; records.len()];
    for (k, &i) in slots.iter().enumerate() {
        if let Some(d) = dists[k] {
            debug_assert!(d > 0, "distinct endpoints have positive distance");
            out[i] = Some(records[i].hops() as f64 / d as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{GreedyRouter, RouteOutcome};
    use crate::router::Router;
    use crate::objective::{GirgObjective, BY_ID};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_graph::NodeId;
    use smallworld_models::girg::GirgBuilder;

    #[test]
    fn failed_route_has_no_stretch() {
        let g = Graph::from_edges(3, [(1u32, 2u32)]).unwrap();
        let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(2));
        assert_eq!(r.outcome, RouteOutcome::DeadEnd);
        assert_eq!(stretch(&g, &r), None);
    }

    #[test]
    fn zero_hop_route_has_no_stretch() {
        let g = Graph::from_edges(1, Vec::<(u32, u32)>::new()).unwrap();
        let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(0));
        assert_eq!(stretch(&g, &r), None);
    }

    #[test]
    fn optimal_route_has_stretch_one() {
        let g = Graph::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let r = GreedyRouter::new().route_quiet(&g, &BY_ID, NodeId::new(0), NodeId::new(2));
        assert_eq!(stretch(&g, &r), Some(1.0));
    }

    #[test]
    fn stretch_many_matches_per_record() {
        let mut rng = StdRng::seed_from_u64(2);
        let girg = GirgBuilder::<2>::new(1_500).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let records: Vec<_> = (0..120)
            .map(|_| {
                let s = girg.random_vertex(&mut rng);
                let t = girg.random_vertex(&mut rng);
                GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t)
            })
            .collect();
        let batched = stretch_many(girg.graph(), &records);
        for (r, got) in records.iter().zip(&batched) {
            // bitwise equality: both divide the same hops by the same exact distance
            assert_eq!(*got, stretch(girg.graph(), r));
        }
        assert!(batched.iter().flatten().count() > 10);
    }

    #[test]
    fn stretch_at_least_one_on_girgs() {
        let mut rng = StdRng::seed_from_u64(1);
        let girg = GirgBuilder::<2>::new(2_000).sample(&mut rng).unwrap();
        let obj = GirgObjective::new(&girg);
        let mut measured = 0;
        for _ in 0..50 {
            let s = girg.random_vertex(&mut rng);
            let t = girg.random_vertex(&mut rng);
            let r = GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t);
            if let Some(x) = stretch(girg.graph(), &r) {
                assert!(x >= 1.0, "stretch below 1: {x}");
                measured += 1;
            }
        }
        assert!(measured > 10);
    }
}
