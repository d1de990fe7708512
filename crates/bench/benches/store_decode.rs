//! Delta-varint decode of a `.swg` store's neighbor lists, per decoded id:
//! the window decoder `varint::decode_sorted` picks at run time (AVX2 on
//! x86_64 CPUs that have it) against the checked scalar decoder, list by
//! list over the compressed adjacency of a Morton-relabeled 10⁵-vertex
//! λ = 1 GIRG, the layout a mapped route decodes from.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_store::{varint, CompressedCsr};

fn morton_csr() -> CompressedCsr<'static> {
    let mut rng = StdRng::seed_from_u64(1);
    let girg: Girg<2> = GirgBuilder::new(100_000).sample(&mut rng).expect("valid");
    let girg = girg.relabel(&girg.morton_permutation());
    CompressedCsr::from_graph(girg.graph())
}

/// Appends one stream's ids to the buffer.
type Decoder = fn(&[u8], &mut Vec<u32>);

/// Decodes every list of `csr` into `out`, one list at a time.
fn decode_all(csr: &CompressedCsr<'_>, decode: Decoder, out: &mut Vec<u32>) {
    let (offsets, data) = (csr.offsets(), csr.data());
    for w in offsets.windows(2) {
        out.clear();
        decode(&data[w[0] as usize..w[1] as usize], out);
        black_box(out.as_slice());
    }
}

fn kernel(stream: &[u8], out: &mut Vec<u32>) {
    varint::decode_sorted(stream, out).expect("own encoding decodes");
}

fn scalar(stream: &[u8], out: &mut Vec<u32>) {
    varint::decode_sorted_from(stream, None, |_, v| out.push(v)).expect("own encoding decodes");
}

fn bench_store_decode(c: &mut Criterion) {
    let csr = morton_csr();
    let ids = csr.target_count();
    let mut out = Vec::new();
    let decoders: [(&str, Decoder); 2] = [("kernel", kernel), ("scalar", scalar)];
    let mut group = c.benchmark_group("store_decode_100k");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ids as u64));
    for (name, decode) in decoders {
        group.bench_function(name, |b| b.iter(|| decode_all(&csr, decode, &mut out)));
        let best = (0..5)
            .map(|_| {
                let start = Instant::now();
                decode_all(&csr, decode, &mut out);
                start.elapsed()
            })
            .min()
            .expect("five passes");
        println!(
            "store_decode_100k/{name}: {:.2} ns per decoded id ({ids} ids, {:.2} bytes per id, best of 5 passes)",
            best.as_nanos() as f64 / ids as f64,
            csr.data().len() as f64 / ids as f64,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_store_decode);
criterion_main!(benches);
