//! The one checked pass that decodes a whole adjacency
//! (`CompressedCsr::decode`, behind `load_graph`, `load_girg` and the shard
//! decode) gives bitwise the graph, and exactly the `Err`, of the
//! list-by-list decode it replaced: each list through `decode_into`, then
//! `Graph::from_sorted_csr` over the arrays.
//!
//! Covered: stores of random GIRGs and bare graphs (0 and 1 vertices
//! included), and hand-made sections whose lists break the graph
//! invariants — ids `n − 1` and `n`, self-loops first, in the middle and
//! last, empty lists, lists ending mid-window, and a last list that ends
//! exactly at the end of the section, borrowed from a buffer whose next
//! bytes would change the decode if they were read.

mod common;

use common::{assert_decodes_as_reference, outcome, reference_decode};
use proptest::collection::vec;
use proptest::prelude::ProptestConfig;
use proptest::proptest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smallworld_graph::Graph;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_store::{varint, write_graph_swg, CompressedCsr, GraphStore};

fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "smallworld-store-load-pass-{}-{tag}-{seq}.swg",
        std::process::id()
    ))
}

/// The NBR section and offsets index of `lists`.
fn encode(lists: &[Vec<u32>]) -> (Vec<u64>, Vec<u8>) {
    let mut offsets = vec![0u64];
    let mut data = Vec::new();
    for list in lists {
        varint::encode_sorted(list, &mut data);
        offsets.push(data.len() as u64);
    }
    (offsets, data)
}

/// Decodes `lists` as the adjacency of `n` vertices (one list per vertex
/// from vertex 0, the rest empty) through the one pass and the reference:
/// owned, and borrowed from buffers that continue past the section with
/// bytes that would end a varint or continue one. Also with a header
/// count one too low and one too high. Returns the outcome.
fn check_lists(n: usize, lists: &[Vec<u32>]) -> common::Outcome {
    assert!(lists.len() <= n);
    let mut lists = lists.to_vec();
    lists.resize(n, Vec::new());
    let (offsets, data) = encode(&lists);
    let count: usize = lists.iter().map(Vec::len).sum();
    let owned = CompressedCsr::from_parts(offsets.clone(), data.clone(), n, count).unwrap();
    let want = assert_decodes_as_reference(&owned);
    for next in [0x00u8, 0x01, 0x7f, 0x80, 0xff] {
        let mut padded = data.clone();
        padded.extend(std::iter::repeat_n(next, 16));
        let borrowed =
            CompressedCsr::from_parts(&offsets[..], &padded[..data.len()], n, count).unwrap();
        assert_eq!(
            assert_decodes_as_reference(&borrowed),
            want,
            "next byte {next:#x}"
        );
    }
    for lying in [count.wrapping_sub(1), count + 1] {
        if let Ok(csr) = CompressedCsr::from_parts(&offsets[..], &data[..], n, lying) {
            assert!(assert_decodes_as_reference(&csr).is_err());
        }
    }
    want
}

/// The error the reference gives for `detail`.
fn malformed(detail: &str) -> common::Outcome {
    Err(format!("Graph(MalformedCsr {{ detail: {detail:?} }})"))
}

#[test]
fn lists_that_break_the_graph_invariants_decode_as_the_reference() {
    // no vertex, one vertex
    assert!(check_lists(0, &[]).is_ok());
    assert!(check_lists(1, &[vec![]]).is_ok());
    assert_eq!(
        check_lists(1, &[vec![0]]),
        malformed("self-loop in neighbor list")
    );
    assert_eq!(
        check_lists(1, &[vec![1]]),
        malformed("neighbor id out of range")
    );
    // ids n − 1 and n, beside empty lists
    assert!(check_lists(5, &[vec![], vec![4], vec![], vec![4], vec![0, 1, 3]]).is_ok());
    assert_eq!(
        check_lists(5, &[vec![], vec![4], vec![5]]),
        malformed("neighbor id out of range")
    );
    assert_eq!(
        check_lists(5, &[vec![1, 5]]),
        malformed("neighbor id out of range")
    );
    // a self-loop first, in the middle and last; the first fault names
    // the error, as the reference's scan does
    for list in [vec![2, 3], vec![0, 2, 4], vec![0, 1, 2]] {
        assert_eq!(
            check_lists(5, &[vec![1], vec![0], list]),
            malformed("self-loop in neighbor list")
        );
    }
    assert_eq!(
        check_lists(5, &[vec![1], vec![1], vec![7]]),
        malformed("self-loop in neighbor list")
    );
    assert_eq!(
        check_lists(5, &[vec![9], vec![1]]),
        malformed("neighbor id out of range")
    );
    // a self-loop that a later window of a long list holds
    let long: Vec<u32> = (0..40).filter(|&id| id != 3).collect();
    assert!(check_lists(41, &[vec![], vec![], vec![], long.clone()]).is_ok());
    let mut looped = long.clone();
    looped.push(40);
    assert!(check_lists(41, &[vec![], vec![], vec![], vec![], looped.clone()]).is_err());
    looped.retain(|&id| id != 4);
    assert!(check_lists(41, &[vec![], vec![], vec![], vec![], looped]).is_ok());
}

/// Lists of every byte length up to three windows, each followed by a
/// list that would change it if its last window read on, and ending the
/// section: one-byte gaps, three-byte gaps and a mix.
#[test]
fn lists_ending_mid_window_and_at_the_section_end_decode_as_the_reference() {
    for (step, longest) in [(1u32, 24u32), (2, 24), (130, 24), (20_000, 9)] {
        for len in 0..=longest {
            let list: Vec<u32> = (0..len).map(|i| 7 + i * step).collect();
            let n = 201.max(8 + (len * step) as usize);
            let lists = [list.clone(), vec![3, 4, 200], list.clone()];
            let graph = check_lists(n, &lists).expect("clean lists");
            for (v, list) in lists.iter().enumerate() {
                let ids: Vec<u32> = graph
                    .neighbors(smallworld_graph::NodeId::from_index(v))
                    .iter()
                    .map(|id| id.raw())
                    .collect();
                assert_eq!(&ids, list, "len {len}, step {step}, vertex {v}");
            }
        }
    }
}

/// The lists of the first `draws.len()` of `n = draws.len() + pad`
/// vertices, from raw ids taken modulo `n + slack`: with `slack > 0` some
/// run out of range, and with `keep_loops` false a vertex's own id is
/// dropped from its list.
fn drawn_lists(
    draws: &[Vec<u32>],
    pad: usize,
    slack: u32,
    keep_loops: bool,
) -> (usize, Vec<Vec<u32>>) {
    let n = draws.len() + pad;
    let lists = draws
        .iter()
        .enumerate()
        .map(|(v, draw)| {
            let mut list: Vec<u32> = draw
                .iter()
                .map(|&id| id % (n as u32 + slack))
                .filter(|&id| keep_loops || id as usize != v)
                .collect();
            list.sort_unstable();
            list.dedup();
            list
        })
        .collect();
    (n, lists)
}

/// A GIRG of about `n` vertices through a store: `load_graph` and
/// `load_girg` give bitwise the reference's graph, and `load_girg` the
/// sampled positions and weights.
fn check_girg_store(seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let girg: Girg<2> = GirgBuilder::new(n.max(1) as u64)
        .vertex_count(n)
        .lambda(0.3)
        .sample(&mut rng)
        .expect("valid params");
    let path = temp_path("girg");
    smallworld_store::save_girg(&girg, &path, 1 + n % 3).expect("write");
    let store = GraphStore::open(&path).expect("reopen");
    let want = reference_decode(&store.mapped_graph().unwrap()).unwrap();
    assert_eq!(&want, girg.graph());
    assert_eq!(store.load_graph().unwrap(), want);
    let back: Girg<2> = store.load_girg().unwrap();
    assert_eq!(back.graph(), &want);
    let bits = |g: &Girg<2>| -> Vec<u64> {
        let coords = g
            .positions()
            .iter()
            .flat_map(|p| p.coords().map(f64::to_bits));
        coords
            .chain(g.weights().iter().map(|w| w.to_bits()))
            .collect()
    };
    assert_eq!(bits(&back), bits(&girg));
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_drawn_lists_decode_as_the_reference(
        draws in vec(vec(0u32..1 << 20, 0..14), 0..24),
        pad in 0usize..3,
        slack in 0u32..3,
        keep_loops in 0u32..4,
    ) {
        let pad = [0, 1, 5_000][pad];
        let (n, lists) = drawn_lists(&draws, pad, slack, keep_loops == 0);
        let _ = check_lists(n, &lists);
    }

    #[test]
    fn prop_loaded_stores_decode_as_the_reference(seed in 0u64..1 << 32, n in 0usize..400) {
        check_girg_store(seed, n);
    }
}

#[test]
fn stores_of_zero_and_one_vertex_load_as_the_reference() {
    for n in [0, 1] {
        check_girg_store(3, n);
        let graph = Graph::from_edges(n, Vec::<(u32, u32)>::new()).unwrap();
        let path = temp_path("bare");
        write_graph_swg(&graph, &path, 1).unwrap();
        let store = GraphStore::open(&path).unwrap();
        let want = outcome(reference_decode(&store.mapped_graph().unwrap()));
        assert_eq!(want, Ok(graph));
        assert_eq!(outcome(store.load_graph()), want);
        std::fs::remove_file(&path).ok();
    }
}
