//! LEB128 varints and the delta codec for sorted neighbor lists.
//!
//! A CSR neighbor list is strictly increasing, so it is stored as its first
//! element followed by the *gaps minus one* between consecutive elements,
//! each as an LEB128 varint. After a Morton relabeling, a vertex's
//! neighbors are geometrically close and therefore numerically close, so
//! most gaps fit in a single byte — this is the entire compression story
//! (see DESIGN.md §4h).

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
    decode_sorted_from(buf, None, |_, v| out.push(v))
}

/// The one checked decoder of [`encode_sorted`] streams: decodes `buf` as
/// a whole list when `after` is `None`, or as the rest of a list whose
/// previous value was `after` (so the first varint is a gap, not an
/// absolute id), handing `push` each value with the byte offset of its
/// varint within `buf`.
///
/// # Errors
///
/// As [`decode_sorted`]. On error, `push` has already seen a prefix.
#[inline]
pub(crate) fn decode_sorted_from(
    buf: &[u8],
    after: Option<u32>,
    mut push: impl FnMut(usize, u32),
) -> Result<(), StoreError> {
    let mut at = 0;
    let mut prev = match after {
        Some(prev) => u64::from(prev),
        None => {
            if buf.is_empty() {
                return Ok(());
            }
            let (first, used) = read_u64(buf)?;
            if first > u32::MAX as u64 {
                return Err(StoreError::Corrupt("neighbor id exceeds u32".into()));
            }
            push(0, first as u32);
            at = used;
            first
        }
    };
    while at < buf.len() {
        let (gap, used) = read_u64(&buf[at..])?;
        let next = prev
            .checked_add(gap)
            .and_then(|x| x.checked_add(1))
            .ok_or_else(|| StoreError::Corrupt("neighbor gap overflows".into()))?;
        if next > u32::MAX as u64 {
            return Err(StoreError::Corrupt("neighbor id exceeds u32".into()));
        }
        push(at, next as u32);
        at += used;
        prev = next;
    }
    Ok(())
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
