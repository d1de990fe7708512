//! LEB128 varints and the delta codec for sorted neighbor lists.
//!
//! A CSR neighbor list is strictly increasing, so it is stored as its first
//! element followed by the *gaps minus one* between consecutive elements,
//! each as an LEB128 varint. After a Morton relabeling, a vertex's
//! neighbors are geometrically close and therefore numerically close, so
//! most gaps fit in a single byte — this is the entire compression story
//! (see DESIGN.md §4h).
//!
//! [`decode_sorted_after`] decodes such a stream with an AVX2 window
//! decoder where the CPU has one, and otherwise with the checked scalar
//! decoder [`decode_sorted_from`], which the window decoder answers to
//! exactly. `decode_lists` decodes every list of a compressed CSR in one
//! call the same way, checking each against the graph invariants.

use crate::StoreError;

/// Maximum encoded length of a `u64` varint (10 × 7 bits ≥ 64 bits).
pub const MAX_LEN: usize = 10;

/// Appends `value` as an LEB128 varint (7 data bits per byte, continuation
/// bit 0x80, least-significant group first).
#[inline]
pub fn write_u64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint from the front of `buf`, returning the value and the
/// number of bytes consumed.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] if the buffer ends mid-varint, the
/// encoding exceeds [`MAX_LEN`] bytes, or the value overflows `u64`.
#[inline]
pub fn read_u64(buf: &[u8]) -> Result<(u64, usize), StoreError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_LEN {
            return Err(StoreError::Corrupt("varint longer than 10 bytes".into()));
        }
        let group = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && group > 1) {
            return Err(StoreError::Corrupt("varint overflows u64".into()));
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(StoreError::Corrupt("varint cut short".into()))
}

/// Encodes a strictly increasing `u32` list as `varint(list[0])` followed by
/// `varint(list[i] − list[i−1] − 1)` for each subsequent element. An empty
/// list encodes to zero bytes.
///
/// # Panics
///
/// Panics (debug assertion) if the list is not strictly increasing.
pub fn encode_sorted(list: &[u32], out: &mut Vec<u8>) {
    let Some((&first, rest)) = list.split_first() else {
        return;
    };
    write_u64(first as u64, out);
    let mut prev = first;
    for &v in rest {
        debug_assert!(v > prev, "neighbor list must be strictly increasing");
        write_u64((v - prev - 1) as u64, out);
        prev = v;
    }
}

/// Decodes a stream produced by [`encode_sorted`], consuming the whole
/// buffer and appending the values to `out`. The result is strictly
/// increasing by construction.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on a malformed varint or when a decoded
/// value exceeds `u32::MAX`.
pub fn decode_sorted(buf: &[u8], out: &mut Vec<u32>) -> Result<(), StoreError> {
    decode_sorted_after(buf, None, out)
}

/// Decodes `buf` as [`decode_sorted_from`] does (a whole list when `after`
/// is `None`, else the rest of a list whose previous value was `after`),
/// appending the values to `out`, with the fastest kernel this CPU
/// supports: on x86_64 with AVX2, detected at run time, a window decoder
/// that takes eight stream bytes per step; elsewhere the checked scalar
/// decoder. Both return the same `Result` and leave the same values in
/// `out`, on every input.
///
/// A buffer whose spare capacity holds every value of `buf` plus seven
/// more is never reallocated.
///
/// # Errors
///
/// As [`decode_sorted`]. On error, `out` holds the prefix decoded before
/// the malformed varint.
#[inline]
pub fn decode_sorted_after(
    buf: &[u8],
    after: Option<u32>,
    out: &mut Vec<u32>,
) -> Result<(), StoreError> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2, the one feature `window::decode` enables, was
        // detected just above.
        return unsafe { window::decode(buf, after, out) };
    }
    decode_sorted_from(buf, after, |_, v| out.push(v))
}

/// Decodes every list of a compressed CSR in one call: list `v` is
/// `data[offsets[v]..offsets[v + 1]]` (`offsets` start at 0, never
/// decrease and end at `data.len()`). Appends each list's ids to `ids`
/// and then the length of `ids` to `ends`, and returns whether every list
/// is a valid neighbor list of its vertex among `offsets.len() − 1`: its
/// last id is in range and it does not hold the vertex itself. Strict
/// increase needs no check: the delta format gives it.
///
/// The CPU features are detected once, for the whole call. With AVX2 each
/// list runs through the window decoder, which reads a list's last
/// windows in place with the bytes past the list masked to `0x80`, so
/// only windows within eight bytes of the end of `data` are copied.
/// Either way the ids, and the `Err` of the first malformed list, are
/// those [`decode_sorted`] gives list by list.
///
/// # Errors
///
/// As [`decode_sorted`], for the first malformed list; `ids` and `ends`
/// then hold a prefix.
pub(crate) fn decode_lists(
    data: &[u8],
    offsets: &[u64],
    ids: &mut Vec<u32>,
    ends: &mut Vec<usize>,
) -> Result<bool, StoreError> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2, the one feature `window::decode_lists` enables, was
        // detected just above.
        return unsafe { window::decode_lists(data, offsets, ids, ends) };
    }
    decode_lists_scalar(data, offsets, ids, ends)
}

/// [`decode_lists`] through the checked scalar decoder.
fn decode_lists_scalar(
    data: &[u8],
    offsets: &[u64],
    ids: &mut Vec<u32>,
    ends: &mut Vec<usize>,
) -> Result<bool, StoreError> {
    let n = offsets.len() - 1;
    let mut clean = true;
    for (v, bounds) in offsets.windows(2).enumerate() {
        let start = ids.len();
        let list = &data[bounds[0] as usize..bounds[1] as usize];
        decode_sorted_from(list, None, |_, id| ids.push(id))?;
        let list = &ids[start..];
        clean &= list.last().is_none_or(|&last| (last as usize) < n)
            && !list.iter().any(|&id| id as usize == v);
        ends.push(ids.len());
    }
    Ok(clean)
}

/// Spare capacity past its last value that [`decode_sorted_after`] and
/// [`decode_lists`] may need in their output: the window decoder stores
/// eight values at a time.
pub(crate) const DECODE_SLACK: usize = 7;

/// The checked scalar decoder of [`encode_sorted`] streams: decodes `buf`
/// as a whole list when `after` is `None`, or as the rest of a list whose
/// previous value was `after` (so the first varint is a gap, not an
/// absolute id), handing `push` each value with the byte offset of its
/// varint within `buf`. It is the reference [`decode_sorted_after`]'s
/// window decoder answers to, and the decoder of the mapped cursor's run
/// directories, which need each varint's offset.
///
/// # Errors
///
/// As [`decode_sorted`]. On error, `push` has already seen a prefix.
#[inline]
pub fn decode_sorted_from(
    buf: &[u8],
    after: Option<u32>,
    mut push: impl FnMut(usize, u32),
) -> Result<(), StoreError> {
    let mut at = 0;
    let mut prev = match after {
        Some(prev) => prev,
        None => {
            if buf.is_empty() {
                return Ok(());
            }
            let (first, used) = read_first(buf)?;
            push(0, first);
            at = used;
            first
        }
    };
    while at < buf.len() {
        let (next, used) = read_next(&buf[at..], prev)?;
        push(at, next);
        at += used;
        prev = next;
    }
    Ok(())
}

/// Reads a list's first, absolute id from the front of a non-empty `buf`,
/// with the bytes it took.
#[inline]
fn read_first(buf: &[u8]) -> Result<(u32, usize), StoreError> {
    let (first, used) = read_u64(buf)?;
    let first =
        u32::try_from(first).map_err(|_| StoreError::Corrupt("neighbor id exceeds u32".into()))?;
    Ok((first, used))
}

/// Reads the gap varint at the front of `buf` and returns the id after
/// `prev` that it encodes, with the bytes it took: the checks both decoders
/// share.
#[inline]
fn read_next(buf: &[u8], prev: u32) -> Result<(u32, usize), StoreError> {
    let (gap, used) = read_u64(buf)?;
    let next = u64::from(prev)
        .checked_add(gap)
        .and_then(|x| x.checked_add(1))
        .ok_or_else(|| StoreError::Corrupt("neighbor gap overflows".into()))?;
    let next =
        u32::try_from(next).map_err(|_| StoreError::Corrupt("neighbor id exceeds u32".into()))?;
    Ok((next, used))
}

/// The AVX2 window decoder behind [`decode_sorted_after`], after
/// Plaisance, Kurz and Lemire's "Vectorized VByte Decoding" (2015): a
/// table-driven byte shuffle over the unchanged LEB128 format.
///
/// Each step loads eight stream bytes and takes their continuation bits
/// with `_mm_movemask_epi8` (not BMI2 `pext`, which is microcoded and slow
/// on AMD before Zen 3). The 8-bit mask indexes [`WINDOWS`], which holds
/// for every mask a `vpshufb` control placing each complete varint of one
/// to three bytes at the front of the window in a `u32` lane, the number
/// of those lanes and the bytes they take. The step clears the
/// continuation bits, folds the 7-bit groups, adds one to each gap, takes
/// the 8-lane inclusive prefix sum, adds the previous id (kept broadcast in
/// a vector register: reloading a lane just stored would stall on
/// store-to-load forwarding) and stores all eight lanes into `out`'s spare
/// capacity, keeping as many as the window held.
///
/// In [`decode_lists`] a list's first, absolute id takes the windows too:
/// the list starts from the id before 0, −1, so that id is −1 plus its
/// varint plus one, like every id after it. [`decode_sorted_after`] reads
/// it with [`read_first`], so a buffer grows as it always did: the mapped
/// cursor keeps its decoded lists, and their capacities are a megabyte of
/// mapped-1m's peak RSS.
///
/// Everything else goes through [`read_first`] and [`read_next`], the
/// scalar decoder's own checks, so errors and prefixes are the scalar
/// decoder's:
///
/// - a window whose first varint is four bytes or longer, or does not end
///   inside the window (overlong, truncated, or too large for a `u32`);
/// - a window whose last id wraps past `u32::MAX`. One window adds at most
///   8 · 2²¹ to the id, so its exact last id overflows exactly when the
///   wrapped one is not above the previous id (never from −1); the scalar
///   decoder then fails on the varint that overflows.
///
/// A window that runs past the end of its list reads as if the list were
/// padded with `0x80`: a varint running into the padding never ends
/// inside the window, so it is never taken. Where eight bytes of the
/// buffer remain, the window is loaded in place and its bytes past the
/// list are masked; only a window within eight bytes of the buffer's end
/// is copied into a padded one. No load reads past the buffer.
///
/// [`decode_lists`] checks each list as it decodes it: besides its last
/// id, which it compares with the vertex count, each window compares its
/// lanes with the list's own vertex, and the lanes past the window's
/// count are masked out.
#[cfg(target_arch = "x86_64")]
mod window {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_cmpeq_epi32,
        _mm256_cmpgt_epi32, _mm256_cvtsi256_si32, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_permutevar8x32_epi32, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi64x,
        _mm256_setr_epi32, _mm256_setzero_si256, _mm256_shuffle_epi32, _mm256_shuffle_epi8,
        _mm256_slli_si256, _mm256_storeu_si256, _mm256_testz_si256, _mm_cvtsi64_si128,
        _mm_movemask_epi8,
    };

    use super::{decode_sorted_from, read_first, read_next};
    use crate::StoreError;

    /// Stream bytes per window.
    const WIDTH: usize = 8;

    /// A window of `0x80` bytes: continuation bits and no data.
    const PADDING: u64 = 0x8080_8080_8080_8080;

    /// The per-mask window tables (8.7 KB): for the continuation bits of
    /// eight bytes, the lane shuffle, the lane count and the bytes taken.
    struct Windows {
        /// `vpshufb` control of 32 bytes: lane `j` gets bytes `4j..4j + 4`,
        /// the window indices of its varint's bytes, then `0x80` (zero).
        /// The window is broadcast to both 128-bit halves, so both halves
        /// index it with 0..8.
        shuffle: [[u8; 32]; 256],
        /// Complete 1–3-byte varints at the front of the window.
        lanes: [u8; 256],
        /// Bytes those varints take.
        bytes: [u8; 256],
    }

    static WINDOWS: Windows = build_windows();

    const fn build_windows() -> Windows {
        let mut windows = Windows {
            shuffle: [[0x80; 32]; 256],
            lanes: [0; 256],
            bytes: [0; 256],
        };
        let mut mask = 0;
        while mask < 256 {
            let (mut at, mut lane) = (0, 0);
            loop {
                // the varint starting at `at` ends at the first clear bit
                let mut end = at;
                while end < WIDTH && (mask >> end) & 1 == 1 {
                    end += 1;
                }
                if end == WIDTH || end - at >= 3 {
                    break; // runs past the window, or four bytes or longer
                }
                let mut b = at;
                while b <= end {
                    windows.shuffle[mask][4 * lane + b - at] = b as u8;
                    b += 1;
                }
                lane += 1;
                at = end + 1;
            }
            windows.lanes[mask] = lane as u8;
            windows.bytes[mask] = at as u8;
            mask += 1;
        }
        windows
    }

    /// The window decoder; see the module docs. Same contract as
    /// [`super::decode_sorted_after`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode(
        buf: &[u8],
        after: Option<u32>,
        out: &mut Vec<u32>,
    ) -> Result<(), StoreError> {
        let (at, after) = match after {
            None if buf.is_empty() => return Ok(()),
            None => {
                let (first, used) = read_first(buf)?;
                out.push(first);
                (used, Some(first))
            }
            Some(_) => (0, after),
        };
        decode_list::<false>(buf, at, buf.len(), after, 0, out).map(|_| ())
    }

    /// The window decoder over a whole CSR; see the module docs. Same
    /// contract as [`super::decode_lists`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_lists(
        data: &[u8],
        offsets: &[u64],
        ids: &mut Vec<u32>,
        ends: &mut Vec<usize>,
    ) -> Result<bool, StoreError> {
        let n = offsets.len() as u64 - 1;
        let mut clean = true;
        for (v, bounds) in offsets.windows(2).enumerate() {
            let (start, end) = (bounds[0] as usize, bounds[1] as usize);
            // a vertex past `u32` can only be flagged falsely, and a flag
            // costs only the caller's full check
            let (bound, self_loop) = decode_list::<true>(data, start, end, None, v as u32, ids)?;
            clean &= !self_loop & (bound <= n);
            ends.push(ids.len());
        }
        Ok(clean)
    }

    /// Appends the ids of `data[at..end]` to `out`: a whole list when
    /// `after` is `None`, else the rest of a list whose previous id was
    /// `after`. Returns one more than the last id (0 for an empty whole
    /// list) and, in a `SECTION`, whether an appended id is `own`. The
    /// bytes of `data` past `end` are read only as masked window bytes;
    /// outside a `SECTION`, `end` must be `data.len()`, so no window needs
    /// a mask, and no id is compared with `own`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn decode_list<const SECTION: bool>(
        data: &[u8],
        mut at: usize,
        end: usize,
        after: Option<u32>,
        own: u32,
        out: &mut Vec<u32>,
    ) -> Result<(u64, bool), StoreError> {
        let groups = _mm256_set1_epi32(0x007f_7f7f);
        // byte pairs (b0, b1) → b0 + 128·b1, then 16-bit pairs (lo, b2) →
        // lo + 2¹⁴·b2: the 7-bit groups of a varint folded into its value
        let byte_weights = _mm256_set1_epi16(0x8001_u16 as i16);
        let pair_weights = _mm256_set1_epi32(0x4000_0001);
        let one = _mm256_set1_epi32(1);
        let lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let own_lanes = _mm256_set1_epi32(own as i32);
        let mut seen = _mm256_setzero_si256();
        let mut hit = false;
        // one more than the previous id: 0 before a whole list's first id
        let mut bound = after.map_or(0, |prev| u64::from(prev) + 1);
        let mut running = _mm256_set1_epi32((bound as u32).wrapping_sub(1) as i32);
        while at < end {
            let word = match data[at..].first_chunk::<WIDTH>() {
                Some(window) if !SECTION => u64::from_le_bytes(*window),
                Some(window) => {
                    // the bytes past the list read as padding
                    let past = u64::MAX
                        .checked_shl(8 * (end - at).min(WIDTH) as u32)
                        .unwrap_or(0);
                    (u64::from_le_bytes(*window) & !past) | (PADDING & past)
                }
                None => {
                    let rest = &data[at..end];
                    let mut padded = PADDING.to_le_bytes();
                    padded[..rest.len()].copy_from_slice(rest);
                    u64::from_le_bytes(padded)
                }
            };
            let mask = _mm_movemask_epi8(_mm_cvtsi64_si128(word as i64)) as usize;
            let lanes = usize::from(WINDOWS.lanes[mask]);
            if lanes == 0 {
                let rest = &data[at..end];
                let (next, used) = match bound {
                    0 => read_first(rest)?,
                    _ => read_next(rest, (bound - 1) as u32)?,
                };
                out.push(next);
                hit |= SECTION && next == own;
                at += used;
                bound = u64::from(next) + 1;
                running = _mm256_set1_epi32(next as i32);
                continue;
            }
            // SAFETY: the control is one 32-byte row of the table.
            let control = unsafe { _mm256_loadu_si256(WINDOWS.shuffle[mask].as_ptr().cast()) };
            let varints = _mm256_shuffle_epi8(_mm256_set1_epi64x(word as i64), control);
            let pairs = _mm256_maddubs_epi16(byte_weights, _mm256_and_si256(varints, groups));
            let gaps = _mm256_add_epi32(_mm256_madd_epi16(pairs, pair_weights), one);
            let sums = _mm256_add_epi32(gaps, _mm256_slli_si256::<4>(gaps));
            let sums = _mm256_add_epi32(sums, _mm256_slli_si256::<8>(sums));
            let low_total = _mm256_shuffle_epi32::<0xff>(sums);
            let sums = _mm256_add_epi32(
                sums,
                _mm256_permute2x128_si256::<0x08>(low_total, low_total),
            );
            let ids = _mm256_add_epi32(sums, running);
            let last_lane = _mm256_set1_epi32(lanes as i32 - 1);
            let last = _mm256_permutevar8x32_epi32(ids, last_lane);
            let last_id = _mm256_cvtsi256_si32(last) as u32;
            if u64::from(last_id) < bound {
                // wrapped past `u32::MAX`; never on a first id (bound 0)
                let prev = (bound - 1) as u32;
                decode_sorted_from(&data[at..end], Some(prev), |_, v| {
                    out.push(v);
                    hit |= SECTION && v == own;
                    bound = u64::from(v) + 1;
                })?;
                break;
            }
            if SECTION {
                let own_at = _mm256_cmpeq_epi32(ids, own_lanes);
                let unused = _mm256_cmpgt_epi32(lane_index, last_lane);
                seen = _mm256_or_si256(seen, _mm256_andnot_si256(unused, own_at));
            }
            if out.capacity() - out.len() < WIDTH {
                out.reserve(WIDTH);
            }
            // SAFETY: `out` has room for `WIDTH` more `u32`s past its
            // length (reserved just above), and the first `lanes` of them
            // are initialized by the store before the length covers them.
            unsafe {
                _mm256_storeu_si256(out.as_mut_ptr().add(out.len()).cast::<__m256i>(), ids);
                out.set_len(out.len() + lanes);
            }
            at += usize::from(WINDOWS.bytes[mask]);
            bound = u64::from(last_id) + 1;
            running = last;
        }
        Ok((bound, hit || _mm256_testz_si256(seen, seen) == 0))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn window_table_takes_exactly_the_short_complete_varints() {
            for mask in 0..256usize {
                // the reference: walk the continuation bits bytewise
                let (mut at, mut lanes) = (0, 0);
                while at < WIDTH {
                    let len = (at..WIDTH).take_while(|&b| mask >> b & 1 == 1).count() + 1;
                    if at + len > WIDTH || len > 3 {
                        break;
                    }
                    let row = &WINDOWS.shuffle[mask][4 * lanes..4 * lanes + 4];
                    for (i, &c) in row.iter().enumerate() {
                        let want = if i < len { (at + i) as u8 } else { 0x80 };
                        assert_eq!(c, want, "mask {mask:#010b} lane {lanes} byte {i}");
                    }
                    at += len;
                    lanes += 1;
                }
                assert_eq!(usize::from(WINDOWS.lanes[mask]), lanes, "mask {mask:#010b}");
                assert_eq!(usize::from(WINDOWS.bytes[mask]), at, "mask {mask:#010b}");
                assert!(WINDOWS.shuffle[mask][4 * lanes..]
                    .iter()
                    .all(|&c| c == 0x80));
            }
            assert_eq!(WINDOWS.lanes[0], 8);
            assert_eq!(WINDOWS.lanes[0xff], 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_one(v: u64) {
        let mut buf = Vec::new();
        write_u64(v, &mut buf);
        let (back, used) = read_u64(&buf).unwrap();
        assert_eq!(back, v);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [
            0,
            1,
            127,
            128,
            255,
            256,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            roundtrip_one(v);
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        write_u64(100, &mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(u64::MAX, &mut buf);
        assert_eq!(buf.len(), MAX_LEN);
    }

    #[test]
    fn truncated_varint_is_rejected() {
        let mut buf = Vec::new();
        write_u64(1 << 40, &mut buf);
        for cut in 0..buf.len() {
            let r = read_u64(&buf[..cut]);
            if cut == 0 {
                assert!(r.is_err());
            } else {
                assert!(r.is_err(), "accepted truncated prefix of length {cut}");
            }
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes never terminate within MAX_LEN
        let buf = [0x80u8; 11];
        assert!(read_u64(&buf).is_err());
        // 10 bytes whose top group pushes past 64 bits
        let mut over = [0x80u8; 10];
        over[9] = 0x02; // shift 63, group 2 → overflow
        assert!(read_u64(&over).is_err());
    }

    #[test]
    fn sorted_lists_roundtrip() {
        for list in [
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, 1, 2, 3],
            vec![0, u32::MAX],
            vec![5, 100, 1_000_000, 4_000_000_000],
        ] {
            let mut buf = Vec::new();
            encode_sorted(&list, &mut buf);
            let mut out = Vec::new();
            decode_sorted(&buf, &mut out).unwrap();
            assert_eq!(out, list);
        }
    }

    #[test]
    fn dense_gaps_cost_one_byte_each() {
        let list: Vec<u32> = (1000..1128).collect();
        let mut buf = Vec::new();
        encode_sorted(&list, &mut buf);
        // first element: 2 bytes; 127 gaps of 0: 1 byte each
        assert_eq!(buf.len(), 2 + 127);
    }

    #[test]
    fn decoding_from_an_offset_continues_the_list() {
        let list = [3u32, 4, 200, 70_000, 70_001, 4_000_000_000];
        let mut buf = Vec::new();
        encode_sorted(&list, &mut buf);
        let mut seen = Vec::new();
        decode_sorted_from(&buf, None, |at, v| seen.push((at, v))).unwrap();
        assert_eq!(seen.iter().map(|&(_, v)| v).collect::<Vec<_>>(), list);
        // restarting at any varint with the value before it decodes the tail
        for (i, &(at, _)) in seen.iter().enumerate().skip(1) {
            let mut tail = Vec::new();
            decode_sorted_from(&buf[at..], Some(list[i - 1]), |_, v| tail.push(v)).unwrap();
            assert_eq!(tail, list[i..], "restart at byte {at}");
        }
        // a gap past u32 is rejected from an offset too
        let mut out = Vec::new();
        assert!(decode_sorted_from(&[0], Some(u32::MAX), |_, v| out.push(v)).is_err());
    }

    /// Both whole-section kernels give the same `Result`, ids, list ends
    /// and verdict on sections of random lists, with ids past the vertex
    /// count, self-loops, and every byte of the section flipped in turn.
    #[test]
    fn whole_section_kernels_agree() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound
        };
        let decode_both = |data: &[u8], offsets: &[u64]| {
            let mut scalar = (Vec::new(), vec![0]);
            let want = decode_lists_scalar(data, offsets, &mut scalar.0, &mut scalar.1)
                .map_err(|e| e.to_string());
            let mut dispatched = (Vec::new(), vec![0]);
            let got = decode_lists(data, offsets, &mut dispatched.0, &mut dispatched.1)
                .map_err(|e| e.to_string());
            assert_eq!(
                (got, dispatched),
                (want.clone(), scalar),
                "{data:?} {offsets:?}"
            );
            want
        };
        let mut verdicts = [0; 2];
        for case in 0..300 {
            let n = 1 + draw(40) as usize;
            let spread = [2, 300, 70_000][case % 3];
            let (mut data, mut offsets) = (Vec::new(), vec![0u64]);
            for v in 0..n {
                let mut list: Vec<u32> = (0..draw(12)).map(|_| draw(spread) as u32).collect();
                list.sort_unstable();
                list.dedup();
                if case % 2 == 0 {
                    list.retain(|&id| id as usize != v && (id as usize) < n);
                }
                encode_sorted(&list, &mut data);
                offsets.push(data.len() as u64);
            }
            if let Ok(clean) = decode_both(&data, &offsets) {
                verdicts[usize::from(clean)] += 1;
            }
            for at in 0..data.len() {
                let mut bad = data.clone();
                bad[at] ^= 1 << draw(8);
                let _ = decode_both(&bad, &offsets);
            }
        }
        assert!(verdicts[0] > 10 && verdicts[1] > 10, "{verdicts:?}");
    }

    #[test]
    fn gap_overflow_is_rejected() {
        // first = u32::MAX, then a gap that would push past u32
        let mut buf = Vec::new();
        write_u64(u32::MAX as u64, &mut buf);
        write_u64(0, &mut buf); // next = u32::MAX + 1
        let mut out = Vec::new();
        assert!(decode_sorted(&buf, &mut out).is_err());
    }
}
