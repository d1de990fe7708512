//! Per-query routing latency on a pre-sampled 100k-vertex GIRG: greedy
//! routing under the three objectives — through the naive score path, the
//! prepared kernel, and the φ-bound routing index over Morton ids — and the
//! BFS used for stretch.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_core::{
    DistanceObjective, GirgObjective, GreedyRouter, IndexedGirgObjective, NaiveObjective,
    RelaxedObjective, Router, RoutingIndex,
};
use smallworld_graph::{bfs_distance, NodeId};
use smallworld_models::girg::{Girg, GirgBuilder};

fn sample() -> Girg<2> {
    let mut rng = StdRng::seed_from_u64(1);
    GirgBuilder::<2>::new(100_000)
        .beta(2.5)
        .alpha(2.0)
        .lambda(0.02)
        .sample(&mut rng)
        .expect("valid")
}

fn pairs(girg: &Girg<2>, count: usize) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(2);
    (0..count)
        .map(|_| (girg.random_vertex(&mut rng), girg.random_vertex(&mut rng)))
        .collect()
}

fn bench_routing(c: &mut Criterion) {
    let girg = sample();
    let queries = pairs(&girg, 512);
    let mut group = c.benchmark_group("routing_100k");

    group.bench_function("greedy_phi_naive", |b| {
        let obj = NaiveObjective(GirgObjective::new(&girg));
        let mut i = 0;
        b.iter(|| {
            let (s, t) = queries[i % queries.len()];
            i += 1;
            GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t)
        });
    });

    group.bench_function("greedy_phi", |b| {
        let obj = GirgObjective::new(&girg);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = queries[i % queries.len()];
            i += 1;
            GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t)
        });
    });

    group.bench_function("greedy_phi_indexed", |b| {
        // the routing index bounds Morton-ordered ids only
        let perm = girg.morton_permutation();
        let relabeled = girg.relabel(&perm);
        let index = RoutingIndex::for_girg(&relabeled);
        let obj = IndexedGirgObjective::new(GirgObjective::new(&relabeled), &index);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = queries[i % queries.len()];
            i += 1;
            let (s, t) = (perm.forward(s), perm.forward(t));
            GreedyRouter::new().route_quiet(relabeled.graph(), &obj, s, t)
        });
    });

    group.bench_function("greedy_distance_only", |b| {
        let obj = DistanceObjective::for_girg(&girg);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = queries[i % queries.len()];
            i += 1;
            GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t)
        });
    });

    group.bench_function("greedy_relaxed", |b| {
        let obj = RelaxedObjective::new(GirgObjective::new(&girg), 0.25, 9);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = queries[i % queries.len()];
            i += 1;
            GreedyRouter::new().route_quiet(girg.graph(), &obj, s, t)
        });
    });

    group.bench_function("bidirectional_bfs", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = queries[i % queries.len()];
            i += 1;
            bfs_distance(girg.graph(), s, t)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
