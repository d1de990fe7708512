//! Decode-free Monte-Carlo routing trials over a memory-mapped store.
//!
//! [`mapped_trials`] is the [`TrialBatch`](crate::TrialBatch) twin for a
//! [`MappedGraph`]: trial `i`'s endpoint pair and route are the same pure
//! function of `(store, master_seed, i)` that the decoded batch computes —
//! the same endpoint draw ([`draw_endpoints`]) and the same first-best
//! argmax (φ over the store's flat lanes is the in-RAM φ chain, and
//! [`GreedyRouter::route_view`] runs the greedy loop of the decoded
//! router, pruning hub scans exactly through the
//! [`PackedGirgObjective`]'s bounds) — so the outcome vector equals the
//! decoded run's element for element while the adjacency never leaves the
//! mmap. Both
//! `girg_gen --mapped` and `bench_store`'s throughput comparison route
//! through this one function, and `bench_store` asserts the equality.

use smallworld_core::{
    GreedyRouter, MetricsRouteObserver, Objective, PackedGirgObjective, RouteScratch,
};
use smallworld_graph::Components;
use smallworld_par::{chunk_ranges, Pool};
use smallworld_store::MappedGraph;

use crate::harness::{draw_endpoints, TrialOutcome};

/// The result of a decode-free trial batch: the outcomes (bitwise those of
/// the decoded [`TrialBatch`](crate::TrialBatch) run) plus the mapped
/// cursor's LRU cache activity summed over all worker chunks.
#[derive(Clone, Debug)]
pub struct MappedTrials {
    /// Per-trial outcomes, in trial order.
    pub outcomes: Vec<TrialOutcome>,
    /// Adjacency blocks served from the decode LRU.
    pub lru_hits: u64,
    /// Adjacency blocks decoded on demand.
    pub lru_misses: u64,
}

/// Routes `pairs` connected-only trials straight off `mapped`, fanned out
/// over `pool` in per-trial-seeded chunks exactly like
/// [`TrialBatch::run`](crate::TrialBatch::run). Neighbor lists decode on
/// demand through a per-worker LRU cursor.
///
/// # Panics
///
/// Panics if the graph has fewer than two vertices or if no two vertices
/// share a component — both sampler/store bugs, not caller errors.
pub fn mapped_trials<const D: usize>(
    mapped: &MappedGraph<'_>,
    comps: &Components,
    objective: &PackedGirgObjective<'_, D>,
    pairs: usize,
    master_seed: u64,
    pool: &Pool,
) -> MappedTrials {
    let n = mapped.node_count();
    assert!(n >= 2, "need at least two vertices to route");
    assert!(
        comps.largest_size() >= 2,
        "no two vertices share a component"
    );
    let chunks = chunk_ranges(pairs, pool.threads().saturating_mul(4));
    let per_chunk = pool.map_items(chunks, |_, range| {
        let mut cursor = mapped.cursor();
        let mut scratch = RouteScratch::with_path_capacity(32);
        let mut obs = MetricsRouteObserver::new();
        let hop_hdr = smallworld_obs::metrics::hdr("route.hops");
        let router = GreedyRouter::new();
        // the endpoint draw TrialBatch makes: per-trial RNG streams are
        // untouched by chunking or threading
        let endpoints = draw_endpoints(range.clone(), n, master_seed, comps, true, None);
        let prepared = objective.prepare_batch(endpoints.iter().map(|&(_, t)| t));
        let mut out = Vec::with_capacity(range.len());
        for (k, &(s, _)) in endpoints.iter().enumerate() {
            let record = router.route_view(&mut cursor, prepared.kernel(k), s, &mut obs, &mut scratch);
            if record.is_success() {
                hop_hdr.record(record.hops() as u64);
            }
            out.push(TrialOutcome {
                success: record.is_success(),
                hops: record.hops(),
                stretch: None,
                same_component: true,
            });
            scratch.recycle(record.path);
        }
        (out, cursor.hits(), cursor.misses())
    });
    let mut outcomes = Vec::with_capacity(pairs);
    let (mut lru_hits, mut lru_misses) = (0u64, 0u64);
    for (chunk, hits, misses) in per_chunk {
        outcomes.extend(chunk);
        lru_hits += hits;
        lru_misses += misses;
    }
    MappedTrials {
        outcomes,
        lru_hits,
        lru_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TrialBatch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_core::{GirgObjective, GreedyRouter};
    use smallworld_models::girg::GirgBuilder;
    use smallworld_store::GraphStore;

    /// The headline equivalence: decode-free trials over a mapped store
    /// equal the decoded TrialBatch run element for element, at 1 and 3
    /// threads.
    #[test]
    fn mapped_trials_match_decoded_trial_batch() {
        let mut rng = StdRng::seed_from_u64(41);
        let girg = GirgBuilder::<2>::new(1_500).sample(&mut rng).unwrap();
        let girg = girg.relabel(&girg.morton_permutation());
        let path = std::env::temp_dir().join(format!(
            "smallworld-bench-mapped-trials-{}.swg",
            std::process::id()
        ));
        smallworld_store::save_girg(&girg, &path, 1).unwrap();
        let store = GraphStore::open(&path).unwrap();
        let mapped = store.mapped_graph().unwrap();
        let comps = Components::compute(girg.graph());
        let positions = store.packed_positions().unwrap();
        let weights = store.packed_weights().unwrap();
        let (params, _) = store.params().unwrap();
        let packed =
            PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
        assert!(
            packed.bounds().is_some(),
            "a Morton-relabeled store gets bounds"
        );

        let decoded = TrialBatch::new(girg.graph(), &comps, 80)
            .connected_only(true)
            .run(
                &GreedyRouter::new(),
                &GirgObjective::new(&girg),
                13,
                &Pool::with_threads(1),
            );
        for threads in [1, 3] {
            let pool = Pool::with_threads(threads);
            let got = mapped_trials(&mapped, &comps, &packed, 80, 13, &pool);
            assert_eq!(got.outcomes, decoded, "threads={threads}");
        }
        std::fs::remove_file(&path).ok();
    }
}
