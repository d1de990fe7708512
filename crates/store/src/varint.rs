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
//! exactly.

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

/// Spare capacity past its last value that [`decode_sorted_after`] may
/// need in `out`: the window decoder stores eight values at a time.
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
/// Everything else goes through [`read_next`], the scalar decoder's own
/// checks, so errors and prefixes are the scalar decoder's:
///
/// - a window whose first varint is four bytes or longer, or does not end
///   inside the window (overlong, truncated, or too large for a `u32`);
/// - a window whose last id wraps past `u32::MAX`. One window adds at most
///   8 · 2²¹ to the id, so its exact last id overflows exactly when the
///   wrapped one is not above the previous id; the scalar decoder then
///   fails on the varint that overflows;
/// - the list's first, absolute id.
///
/// The final bytes of a stream shorter than a window are copied into a
/// window padded with `0x80`: a varint running into the padding never
/// ends inside the window, so it is never taken. No load reads past `buf`.
#[cfg(target_arch = "x86_64")]
mod window {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_cvtsi256_si32, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_permute2x128_si256,
        _mm256_permutevar8x32_epi32, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi64x,
        _mm256_shuffle_epi32, _mm256_shuffle_epi8, _mm256_slli_si256, _mm256_storeu_si256,
        _mm_cvtsi64_si128, _mm_movemask_epi8,
    };

    use super::{decode_sorted_from, read_first, read_next};
    use crate::StoreError;

    /// Stream bytes per window.
    const WIDTH: usize = 8;

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
        let mut at = 0;
        let mut prev = match after {
            Some(prev) => prev,
            None => {
                if buf.is_empty() {
                    return Ok(());
                }
                let (first, used) = read_first(buf)?;
                out.push(first);
                at = used;
                first
            }
        };
        let groups = _mm256_set1_epi32(0x007f_7f7f);
        // byte pairs (b0, b1) → b0 + 128·b1, then 16-bit pairs (lo, b2) →
        // lo + 2¹⁴·b2: the 7-bit groups of a varint folded into its value
        let byte_weights = _mm256_set1_epi16(0x8001_u16 as i16);
        let pair_weights = _mm256_set1_epi32(0x4000_0001);
        let one = _mm256_set1_epi32(1);
        let mut running = _mm256_set1_epi32(prev as i32);
        while at < buf.len() {
            let rest = &buf[at..];
            let word = match rest.first_chunk::<WIDTH>() {
                Some(window) => u64::from_le_bytes(*window),
                None => {
                    let mut padded = [0x80; WIDTH];
                    padded[..rest.len()].copy_from_slice(rest);
                    u64::from_le_bytes(padded)
                }
            };
            let mask = _mm_movemask_epi8(_mm_cvtsi64_si128(word as i64)) as usize;
            let lanes = usize::from(WINDOWS.lanes[mask]);
            if lanes == 0 {
                let (next, used) = read_next(rest, prev)?;
                out.push(next);
                at += used;
                prev = next;
                running = _mm256_set1_epi32(prev as i32);
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
            let last = _mm256_permutevar8x32_epi32(ids, _mm256_set1_epi32(lanes as i32 - 1));
            let last_id = _mm256_cvtsi256_si32(last) as u32;
            if last_id <= prev {
                return decode_sorted_from(rest, Some(prev), |_, v| out.push(v));
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
            prev = last_id;
            running = last;
        }
        Ok(())
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
