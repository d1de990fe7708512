//! CRC32 of `.swg` bytes: the IEEE 802.3 polynomial, reflected, as in
//! gzip and zlib.
//!
//! [`GraphStore::open`](crate::GraphStore::open) checks the CRC of every
//! section, so this kernel sets the open time. Three kernels compute the
//! same value; [`CrcKernel::detect`] picks the fastest the CPU has, by
//! run-time feature detection alone:
//!
//! - **512-bit carry-less-multiply fold** (x86_64 with AVX-512F and
//!   VPCLMULQDQ; slices of at least [`WIDE_MIN_LEN`] bytes): four zmm
//!   accumulators fold 256 bytes per step with the constants
//!   x^(2048±32) mod P, then fold into four 128-bit lanes and finish as
//!   the 128-bit fold does.
//! - **128-bit carry-less-multiply fold** (x86_64 with PCLMULQDQ and
//!   SSE4.1; slices of at least [`FOLD_MIN_LEN`] bytes): four 128-bit
//!   accumulators fold 64 bytes per step, then reduce to 32 bits by a
//!   Barrett step. This follows Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction" (2009) with zlib's constants.
//! - **Slicing-by-16** (every target): sixteen 256-entry tables, built at
//!   compile time, consume 16 bytes per step. It handles short slices, the
//!   folds' sub-16-byte tails, and everything on other targets.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Shortest slice the 128-bit fold is used for; shorter ones are not worth
/// the reduction.
const FOLD_MIN_LEN: usize = 128;

/// Shortest slice the 512-bit fold is used for: one step of its four zmm
/// accumulators.
const WIDE_MIN_LEN: usize = 256;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 of `bytes` (IEEE polynomial, as in gzip/zlib).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental CRC32 for producers that stream a payload to disk: start
/// from [`Crc32::new`], feed chunks, take [`Crc32::finish`]. Any split of
/// the input gives the same value as [`crc32`] over the whole of it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        self.0 = update(self.0, bytes);
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// The CRC kernels, widest first. [`CrcKernel::detect`] picks one by the
/// CPU's features; each computes the same value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrcKernel {
    /// The 512-bit carry-less-multiply fold (AVX-512F and VPCLMULQDQ).
    Wide,
    /// The 128-bit carry-less-multiply fold (PCLMULQDQ and SSE4.1).
    Fold,
    /// Slicing-by-16 tables, on every target.
    Table,
}

impl CrcKernel {
    /// The widest kernel this CPU supports.
    pub fn detect() -> CrcKernel {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("pclmulqdq") && has!("sse4.1") {
                if has!("avx512f") && has!("vpclmulqdq") {
                    return CrcKernel::Wide;
                }
                return CrcKernel::Fold;
            }
        }
        CrcKernel::Table
    }

    /// The kernel's short name, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            CrcKernel::Wide => "vpclmulqdq-512",
            CrcKernel::Fold => "pclmulqdq-128",
            CrcKernel::Table => "slice16",
        }
    }

    /// Advances the (pre-inverted) CRC state over `bytes` with this
    /// kernel: the fold over the longest prefix it takes, slicing-by-16
    /// over the rest.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks the kernel's features.
    fn update(self, state: u32, bytes: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if self != CrcKernel::Table {
            assert!(self.supported(), "{} needs CPU features", self.name());
            let (head, tail) = bytes.split_at(bytes.len() & !15);
            let state = if self == CrcKernel::Wide && head.len() >= WIDE_MIN_LEN {
                // SAFETY: `supported` checked every feature `fold_wide`
                // enables.
                unsafe { clmul::fold_wide(state, head) }
            } else if head.len() >= FOLD_MIN_LEN {
                // SAFETY: as above; `Wide` implies `fold`'s features.
                unsafe { clmul::fold(state, head) }
            } else {
                return slice16(state, bytes);
            };
            return slice16(state, tail);
        }
        slice16(state, bytes)
    }

    /// Whether this CPU has the kernel's features: the detected kernel's
    /// or a narrower one's (each kernel's features include those of every
    /// narrower kernel).
    fn supported(self) -> bool {
        self == CrcKernel::Table || (CrcKernel::detect() as u8) <= (self as u8)
    }
}

/// Advances the (pre-inverted) CRC state over `bytes` with the fastest
/// kernel this CPU supports.
fn update(state: u32, bytes: &[u8]) -> u32 {
    CrcKernel::detect().update(state, bytes)
}

/// The portable kernel: 16 bytes per step through [`TABLES`], then the
/// remainder bytewise.
fn slice16(mut state: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let head = state ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let mut next = TABLES[15][(head & 0xFF) as usize]
            ^ TABLES[14][((head >> 8) & 0xFF) as usize]
            ^ TABLES[13][((head >> 16) & 0xFF) as usize]
            ^ TABLES[12][(head >> 24) as usize];
        for (i, &b) in block[4..].iter().enumerate() {
            next ^= TABLES[11 - i][b as usize];
        }
        state = next;
    }
    for &b in blocks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128,
        _mm_xor_si128,
    };

    // zlib's constants for the reflected IEEE polynomial P: K1/K2 fold a
    // lane forward by 512 bits (4-lane loop), K3/K4 by 128 bits, K5 takes
    // 64 bits to 32, and P' (P itself) and μ = ⌊x^64 / P⌋ are the Barrett
    // pair; all bit-reflected.
    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    const K5: i64 = 0x0001_63cd_6124;
    const P_PRIME: i64 = 0x0001_db71_0641;
    const MU: i64 = 0x0001_f701_1641;
    // The same derivation one level up: W1/W2 are x^(2048±32) mod P,
    // bit-reflected, and fold a 128-bit lane forward by 2048 bits (the
    // wide loop's four zmm accumulators).
    const W1: i64 = 0x0001_1542_778a;
    const W2: i64 = 0x0001_322d_1430;

    /// The 16 bytes of `bytes` at `at`, unaligned.
    #[inline(always)]
    fn load(bytes: &[u8], at: usize) -> __m128i {
        let lane: &[u8; 16] = bytes[at..at + 16].try_into().expect("16 bytes");
        // SAFETY: `lane` is 16 readable bytes and `_mm_loadu_si128` has no
        // alignment requirement; SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// The 64 bytes of `bytes` at `at`, unaligned.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load_wide(bytes: &[u8], at: usize) -> __m512i {
        let lane: &[u8; 64] = bytes[at..at + 64].try_into().expect("64 bytes");
        // SAFETY: `lane` is 64 readable bytes and `_mm512_loadu_si512` has
        // no alignment requirement.
        unsafe { _mm512_loadu_si512(lane.as_ptr().cast()) }
    }

    /// Folds the 128-bit accumulator `acc` forward over the next 128 bits
    /// (or 4·128 bits, with the 4-lane constants `k`) and adds `next`.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`fold_into`] on each of the four 128-bit lanes of `acc`.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    #[inline]
    fn fold_wide_into(acc: __m512i, k: __m512i, next: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, k);
        // 0x96: the three-way xor
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// Advances the (pre-inverted) CRC state over `bytes`.
    ///
    /// `bytes.len()` must be at least 64 and a multiple of 16.
    ///
    /// # Safety
    ///
    /// The CPU must support the `pclmulqdq` and `sse4.1` features.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let (first, rest) = bytes.split_at(64);
        let mut lanes = [
            load(first, 0),
            load(first, 16),
            load(first, 32),
            load(first, 48),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_into(*lane, k1k2, load(block, 16 * i));
            }
        }
        reduce(lanes, blocks.remainder())
    }

    /// Advances the (pre-inverted) CRC state over `bytes`, 256 bytes per
    /// step.
    ///
    /// `bytes.len()` must be at least 256 and a multiple of 16.
    ///
    /// # Safety
    ///
    /// The CPU must support the `avx512f`, `vpclmulqdq`, `pclmulqdq` and
    /// `sse4.1` features.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold_wide(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 256 && bytes.len().is_multiple_of(16));
        let (first, rest) = bytes.split_at(256);
        let mut lanes = [0, 64, 128, 192].map(|at| load_wide(first, at));
        let seed = _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32));
        lanes[0] = _mm512_xor_si512(lanes[0], seed);

        let w1w2 = _mm512_broadcast_i32x4(_mm_set_epi64x(W2, W1));
        let mut blocks = rest.chunks_exact(256);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_wide_into(*lane, w1w2, load_wide(block, 64 * i));
            }
        }

        // the zmm lanes lie 512 bits apart, so K1/K2 fold each onto the
        // next, and then fold in the remaining whole 64-byte blocks
        let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let mut acc = fold_wide_into(lanes[0], k1k2, lanes[1]);
        acc = fold_wide_into(acc, k1k2, lanes[2]);
        acc = fold_wide_into(acc, k1k2, lanes[3]);
        let mut tail = blocks.remainder().chunks_exact(64);
        for block in &mut tail {
            acc = fold_wide_into(acc, k1k2, load_wide(block, 0));
        }
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(acc),
            _mm512_extracti32x4_epi32::<1>(acc),
            _mm512_extracti32x4_epi32::<2>(acc),
            _mm512_extracti32x4_epi32::<3>(acc),
        ];
        reduce(lanes, tail.remainder())
    }

    /// Folds four consecutive 128-bit lanes into one, then the whole
    /// 16-byte lanes of `rest` (a multiple of 16 bytes), and reduces the
    /// result to the 32-bit CRC state.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(lanes: [__m128i; 4], rest: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(lanes[0], k3k4, lanes[1]);
        acc = fold_into(acc, k3k4, lanes[2]);
        acc = fold_into(acc, k3k4, lanes[3]);
        for lane in rest.chunks_exact(16) {
            acc = fold_into(acc, k3k4, load(lane, 0));
        }

        // 128 → 64 bits, then 64 → 32 + 32 with x^64 mod P
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), k5),
        );

        // Barrett reduction to the 32-bit remainder
        let poly = _mm_set_epi64x(MU, P_PRIME);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::ProptestConfig;
    use proptest::proptest;

    /// The reference: one table lookup per byte.
    fn bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    /// The dispatched kernel and every kernel this CPU has, each called
    /// directly, equal the reference on `data[offset..]` from `state`; so
    /// does each raw fold on the lengths it takes.
    fn check_kernels(data: &[u8], offset: usize, state: u32) {
        let bytes = &data[offset.min(data.len())..];
        let want = bytewise(state, bytes);
        let len = bytes.len();
        assert_eq!(update(state, bytes), want, "dispatched, len {len}");
        for kernel in [CrcKernel::Wide, CrcKernel::Fold, CrcKernel::Table] {
            if kernel.supported() {
                assert_eq!(kernel.update(state, bytes), want, "{kernel:?}, len {len}");
            }
        }
        #[cfg(target_arch = "x86_64")]
        if len.is_multiple_of(16) {
            if len >= 64 && CrcKernel::Fold.supported() {
                // SAFETY: `supported` checked the fold's CPU features.
                let got = unsafe { clmul::fold(state, bytes) };
                assert_eq!(got, want, "fold, len {len}");
            }
            if len >= WIDE_MIN_LEN && CrcKernel::Wide.supported() {
                // SAFETY: as above, for the wide fold.
                let got = unsafe { clmul::fold_wide(state, bytes) };
                assert_eq!(got, want, "fold_wide, len {len}");
            }
        }
    }

    /// Feeding `Crc32` at the split points `cuts` equals one-shot [`crc32`].
    fn check_splits(data: &[u8], cuts: &[usize]) {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut at = 0;
        for &cut in cuts.iter().chain([data.len()].iter()) {
            crc.update(&data[at..cut]);
            at = cut;
        }
        assert_eq!(crc.finish(), crc32(data));
        assert_eq!(crc32(data), bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_kernels_match_bytewise(
            data in vec(0u8..=255, 0..4112),
            offset in 0usize..16,
            state in 0u32..=u32::MAX,
        ) {
            check_kernels(&data, offset, state);
        }

        #[test]
        fn prop_split_updates_match_one_shot(
            data in vec(0u8..=255, 0..4096),
            cuts in vec(0usize..4097, 0..8),
        ) {
            check_splits(&data, &cuts);
        }
    }

    /// `len` pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn kernels_match_bytewise_at_every_short_length() {
        // every length across the 16-, 64-, 128-, 256- and 1024-byte
        // boundaries, from every alignment within a cache line
        let data = noise(64 + 1100);
        for offset in 0..64 {
            for len in 0..=1100 {
                check_kernels(&data[..offset + len], offset, 0x1234_5678 ^ len as u32);
            }
        }
    }

    #[test]
    fn kernels_match_bytewise_on_a_large_buffer() {
        let data = noise((1 << 20) + 77);
        for offset in [0, 3] {
            check_kernels(&data, offset, 0xFFFF_FFFF);
        }
        check_splits(&data, &[1, 1000, 65_536, 500_000]);
    }
}
