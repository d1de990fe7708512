//! The window decoder answers exactly as the checked scalar decoder.
//!
//! `varint::decode_sorted_after` picks an AVX2 window decoder at run time
//! where the CPU has one; `varint::decode_sorted_from` is the checked
//! scalar decoder it must equal. These tests call both directly, so on an
//! AVX2 host they compare the two paths (elsewhere both are scalar): the
//! same ids, the same prefix before an error, and the same error message,
//! on random lists of every varint length at every window/tail split, on
//! lists that run into `u32::MAX`, on every byte flip and truncation of
//! valid streams, and over a whole Morton-relabeled 10⁵-vertex store
//! through `CompressedCsr::decode` and every path of the mapped cursor.

use proptest::collection::vec;
use proptest::prelude::ProptestConfig;
use proptest::proptest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smallworld_graph::{AdjacencyView, NodeId, RunFold, RUN_IDS};
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_store::{varint, GraphStore};

/// A decode's outcome: the `Result` (errors by message) and the values it
/// appended.
type Decoded = (Result<(), String>, Vec<u32>);

fn scalar(buf: &[u8], after: Option<u32>) -> Decoded {
    let mut out = Vec::new();
    let result = varint::decode_sorted_from(buf, after, |_, v| out.push(v));
    (result.map_err(|e| e.to_string()), out)
}

/// The dispatched decoder, into an empty buffer and after two values
/// already in one (it must append, never overwrite).
fn window(buf: &[u8], after: Option<u32>) -> Decoded {
    let mut out = Vec::new();
    let result = varint::decode_sorted_after(buf, after, &mut out).map_err(|e| e.to_string());
    let mut appended = vec![7, 9];
    let again = varint::decode_sorted_after(buf, after, &mut appended).map_err(|e| e.to_string());
    assert_eq!(again, result, "{buf:?} after {after:?}");
    assert_eq!(appended[..2], [7, 9]);
    assert_eq!(appended[2..], out, "{buf:?} after {after:?}");
    (result, out)
}

/// Asserts both decoders give the same outcome on `buf`, and returns it.
fn decoded_alike(buf: &[u8], after: Option<u32>) -> Decoded {
    let expect = scalar(buf, after);
    assert_eq!(window(buf, after), expect, "{buf:?} after {after:?}");
    expect
}

fn assert_same(buf: &[u8], after: Option<u32>) {
    let _ = decoded_alike(buf, after);
}

/// Checks a whole-list decode of `list`'s stream, and a restart at every
/// varint with the id before it.
fn check_list(list: &[u32]) {
    let mut buf = Vec::new();
    varint::encode_sorted(list, &mut buf);
    let (result, ids) = decoded_alike(&buf, None);
    assert_eq!(result, Ok(()));
    assert_eq!(ids, list);
    let mut starts = Vec::new();
    varint::decode_sorted_from(&buf, None, |at, _| starts.push(at)).unwrap();
    for (i, &at) in starts.iter().enumerate().skip(1) {
        let (result, tail) = decoded_alike(&buf[at..], Some(list[i - 1]));
        assert_eq!(result, Ok(()));
        assert_eq!(tail, list[i..]);
    }
}

/// A strictly increasing list from `(class, draw)` pairs: each gap − 1 (and
/// the first id) takes a varint of `class % 5 + 1` bytes, with 1-byte gaps
/// the most common, as in a Morton store; the list stops at `u32::MAX`
/// and at 70 stream bytes.
fn drawn_list(draws: &[(u8, u32)]) -> Vec<u32> {
    const LENGTH_START: [u64; 6] = [0, 1 << 7, 1 << 14, 1 << 21, 1 << 28, 1 << 32];
    let mut list = Vec::new();
    let mut bytes = 0;
    let mut next = 0u64;
    for (i, &(class, draw)) in draws.iter().enumerate() {
        let len = match class % 8 {
            c @ 0..=4 => usize::from(c) + 1,
            _ => 1,
        };
        let (lo, hi) = (LENGTH_START[len - 1], LENGTH_START[len]);
        let value = lo + u64::from(draw) % (hi - lo);
        next = if i == 0 { value } else { next + value + 1 };
        bytes += len;
        if next > u64::from(u32::MAX) || bytes > 70 {
            break;
        }
        list.push(next as u32);
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_window_decoder_equals_scalar(draws in vec((0u8..8, 0u32..u32::MAX), 0..72)) {
        check_list(&drawn_list(&draws));
    }

    #[test]
    fn prop_window_decoder_equals_scalar_on_raw_bytes(
        bytes in vec(0u8..=255, 0..40),
        after in 0u32..u32::MAX,
    ) {
        assert_same(&bytes, None);
        assert_same(&bytes, Some(after));
        assert_same(&bytes, Some(u32::MAX - after % 300));
    }
}

/// Lists ending at or near `u32::MAX`, and streams whose next window would
/// carry the id past it: the wrap guard hands the window to the scalar
/// path, which fails with its own error after the same prefix.
#[test]
fn ids_at_and_past_u32_max_decode_alike() {
    for len in 1..=20u32 {
        check_list(&(u32::MAX - len + 1..=u32::MAX).collect::<Vec<_>>());
        check_list(&[0, u32::MAX - len, u32::MAX]);
    }
    // gaps of every short length, after ids just below the top
    let gaps: [&[u8]; 4] = [&[0x00], &[0x7f], &[0x80, 0x7f], &[0xff, 0xff, 0x7f]];
    for below in [
        0u32,
        1,
        2,
        7,
        8,
        127,
        128,
        1 << 14,
        1 << 21,
        1 << 24,
        1 << 25,
    ] {
        for gap in gaps {
            for count in 1..=24 {
                let stream: Vec<u8> = gap
                    .iter()
                    .copied()
                    .cycle()
                    .take(gap.len() * count)
                    .collect();
                assert_same(&stream, Some(u32::MAX - below));
                let mut whole = Vec::new();
                varint::write_u64(u64::from(u32::MAX - below), &mut whole);
                whole.extend_from_slice(&stream);
                assert_same(&whole, None);
            }
        }
    }
    let (result, ids) = decoded_alike(&[0; 9], Some(u32::MAX - 4));
    assert_eq!(
        result,
        Err("corrupt .swg store: neighbor id exceeds u32".into())
    );
    assert_eq!(ids, (u32::MAX - 3..=u32::MAX).collect::<Vec<_>>());
}

/// Every single-byte change and every truncation of valid streams gives
/// both decoders the same `Result` and the same values.
#[test]
fn every_byte_flip_and_truncation_decodes_alike() {
    let lists = [
        (0..40u32).map(|i| 3 * i).collect::<Vec<_>>(),
        drawn_list(
            &(0..72u32)
                .map(|i| ((i * 7 % 8) as u8, i.wrapping_mul(2_654_435_761)))
                .collect::<Vec<_>>(),
        ),
        vec![5, 200, 70_000, 70_001, 3_000_000, 4_000_000_000, u32::MAX],
    ];
    for list in &lists {
        let mut buf = Vec::new();
        varint::encode_sorted(list, &mut buf);
        assert!(buf.len() >= 8, "{} bytes", buf.len());
        for cut in 0..buf.len() {
            assert_same(&buf[..cut], None);
            assert_same(&buf[cut..], Some(list[0]));
        }
        for at in 0..buf.len() {
            for flip in 1..=255u8 {
                let mut bad = buf.clone();
                bad[at] ^= flip;
                assert_same(&bad, None);
            }
        }
    }
}

/// Keeps the ids of every run it wants: all of them, or every other one.
struct Runs {
    every_other: bool,
    ids: Vec<NodeId>,
}

impl RunFold for Runs {
    fn wants(&mut self, run: usize) -> bool {
        !self.every_other || run.is_multiple_of(2)
    }

    fn fold(&mut self, ids: &[NodeId]) {
        self.ids.extend_from_slice(ids);
    }
}

/// Over a Morton-relabeled 10⁵-vertex λ = 1 store, the full decode, every
/// list of the cursor's list cache and every run it serves through a run
/// directory equal the scalar decode of the same stream.
#[test]
fn morton_store_decodes_alike_on_every_path() {
    let mut rng = StdRng::seed_from_u64(5);
    let sampled: Girg<2> = GirgBuilder::new(100_000).sample(&mut rng).unwrap();
    let girg = sampled.relabel(&sampled.morton_permutation());
    let path = std::env::temp_dir().join(format!(
        "smallworld-store-decode-kernel-{}.swg",
        std::process::id()
    ));
    smallworld_store::save_girg(&girg, &path, 1).unwrap();
    let store = GraphStore::open(&path).unwrap();
    let mapped = store.mapped_graph().unwrap();
    let (offsets, data) = (mapped.offsets(), mapped.data());
    let stream = |v: usize| &data[offsets[v] as usize..offsets[v + 1] as usize];
    let reference: Vec<Vec<NodeId>> = (0..mapped.node_count())
        .map(|v| {
            let mut ids = Vec::new();
            varint::decode_sorted_from(stream(v), None, |_, id| ids.push(NodeId::new(id))).unwrap();
            ids
        })
        .collect();

    let decoded = mapped.decode().unwrap();
    assert_eq!(&decoded, girg.graph());
    for (v, expect) in reference.iter().enumerate() {
        assert_eq!(
            decoded.neighbors(NodeId::from_index(v)),
            &expect[..],
            "vertex {v}"
        );
    }

    let mut cursor = mapped.cursor();
    let mut long_lists = 0;
    for (v, expect) in reference.iter().enumerate() {
        let v_id = NodeId::from_index(v);
        assert_eq!(
            cursor.with_neighbors(v_id, |ns| ns.to_vec()),
            *expect,
            "vertex {v}"
        );
        // the first fold of a long list builds its directory; the next
        // ones serve their runs through it
        for every_other in [false, false, true] {
            let mut runs = Runs {
                every_other,
                ids: Vec::new(),
            };
            cursor.fold_runs(v_id, &mut runs);
            let want: Vec<NodeId> = expect
                .iter()
                .copied()
                .filter(|u| !every_other || (u.index() / RUN_IDS).is_multiple_of(2))
                .collect();
            assert_eq!(runs.ids, want, "vertex {v}, every other run: {every_other}");
        }
        long_lists += usize::from(stream(v).len() >= 4096);
    }
    assert!(long_lists > 0, "no list reaches a run directory");
    assert!(
        cursor.skipped_runs() > 0,
        "no run was served through a directory"
    );
    std::fs::remove_file(&path).ok();
}
