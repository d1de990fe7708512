//! The NBR section's per-chunk checksums (store version 2).
//!
//! A route reads the lists along one short path, so open does not read the
//! adjacency. Instead the writers store one CRC32 per [`VERIFY_CHUNK`]-byte
//! chunk of the NBR payload in the NBR_CRC section ([`ChunkCrcs`]), and an
//! opened store checks a chunk the first time a decode reads one of its
//! bytes ([`NbrChunks`]): one bit per chunk, shared by every cursor and
//! thread, records that it matched. Every NBR byte lies in exactly one
//! chunk; the last chunk may be shorter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::crc::{crc32, Crc32};
use crate::format::VERIFY_CHUNK;
use crate::StoreError;

/// The CRC32 of each consecutive [`VERIFY_CHUNK`]-byte chunk of a payload
/// fed in pieces of any size, serialized as the NBR_CRC section.
#[derive(Debug)]
pub(crate) struct ChunkCrcs {
    current: Crc32,
    /// Bytes of the current chunk fed so far.
    filled: usize,
    /// The section payload: each finished chunk's CRC, little-endian.
    section: Vec<u8>,
}

impl ChunkCrcs {
    pub(crate) fn new() -> ChunkCrcs {
        ChunkCrcs {
            current: Crc32::new(),
            filled: 0,
            section: Vec::new(),
        }
    }

    /// Feeds the next payload bytes.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (VERIFY_CHUNK - self.filled).min(bytes.len());
            self.current.update(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled == VERIFY_CHUNK {
                self.close_chunk();
            }
        }
    }

    fn close_chunk(&mut self) {
        let crc = std::mem::replace(&mut self.current, Crc32::new()).finish();
        self.section.extend_from_slice(&crc.to_le_bytes());
        self.filled = 0;
    }

    /// The NBR_CRC section payload, a short last chunk included.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.close_chunk();
        }
        self.section
    }
}

/// What the first-touch checks of a store's NBR chunks have verified so
/// far ([`GraphStore::first_touch`](crate::GraphStore::first_touch)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FirstTouch {
    /// Chunks verified.
    pub chunks: usize,
    /// Chunks of the NBR section.
    pub total_chunks: usize,
    /// Bytes of the verified chunks.
    pub bytes: usize,
    /// Seconds spent verifying them, summed over threads.
    pub secs: f64,
}

/// An opened store's NBR chunk checksums and the bits of the chunks that
/// matched them.
#[derive(Debug)]
pub(crate) struct NbrChunks {
    /// The stored CRC32 of each chunk.
    crcs: Vec<u32>,
    /// Bit `k` is set once chunk `k` matched its CRC. Its atomics are
    /// relaxed: a bit publishes no data, since the bytes it covers never
    /// change.
    verified: Box<[AtomicU64]>,
    /// Nanoseconds spent verifying chunks.
    nanos: AtomicU64,
    /// Bytes of the NBR section.
    len: usize,
}

impl NbrChunks {
    /// The chunk table of an NBR section of `len` bytes from its NBR_CRC
    /// payload; nothing verified yet.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] unless `section` holds exactly one CRC per
    /// chunk.
    pub(crate) fn parse(section: &[u8], len: usize) -> Result<NbrChunks, StoreError> {
        let count = len.div_ceil(VERIFY_CHUNK);
        if section.len() != 4 * count {
            return Err(StoreError::Corrupt(format!(
                "NBR_CRC section is {} bytes, expected {count} chunk CRCs",
                section.len()
            )));
        }
        Ok(NbrChunks {
            crcs: section
                .as_chunks::<4>()
                .0
                .iter()
                .map(|&c| u32::from_le_bytes(c))
                .collect(),
            verified: (0..count.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            nanos: AtomicU64::new(0),
            len,
        })
    }

    fn is_verified(&self, chunk: usize) -> bool {
        self.verified[chunk / 64].load(Ordering::Relaxed) >> (chunk % 64) & 1 == 1
    }

    /// Checks every chunk that `data[start..end]` spans and no check has
    /// verified yet; `data` is the NBR payload. A race between threads only
    /// verifies a chunk twice.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] for NBR if a chunk does not match
    /// its CRC; its bit stays clear, so the next touch checks it again.
    #[inline]
    pub(crate) fn check(&self, data: &[u8], start: usize, end: usize) -> Result<(), StoreError> {
        if start >= end {
            return Ok(());
        }
        let (first, last) = (start / VERIFY_CHUNK, (end - 1) / VERIFY_CHUNK);
        if (first..=last).all(|k| self.is_verified(k)) {
            return Ok(());
        }
        self.verify(data, first..last + 1)
    }

    #[cold]
    fn verify(&self, data: &[u8], chunks: std::ops::Range<usize>) -> Result<(), StoreError> {
        debug_assert_eq!(data.len(), self.len);
        let start = Instant::now();
        let mut result = Ok(());
        for k in chunks.filter(|&k| !self.is_verified(k)) {
            let bytes = &data[k * VERIFY_CHUNK..((k + 1) * VERIFY_CHUNK).min(data.len())];
            if crc32(bytes) != self.crcs[k] {
                result = Err(StoreError::ChecksumMismatch { section: "NBR" });
                break;
            }
            self.verified[k / 64].fetch_or(1 << (k % 64), Ordering::Relaxed);
        }
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        result
    }

    /// What the checks have verified so far.
    pub(crate) fn account(&self) -> FirstTouch {
        let total_chunks = self.crcs.len();
        let chunks = (0..total_chunks).filter(|&k| self.is_verified(k)).count();
        // every chunk is whole but the last
        let short = total_chunks * VERIFY_CHUNK - self.len;
        let last_verified = total_chunks > 0 && self.is_verified(total_chunks - 1);
        FirstTouch {
            chunks,
            total_chunks,
            bytes: chunks * VERIFY_CHUNK - if last_verified { short } else { 0 },
            secs: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    /// Any split of the payload gives each chunk's CRC, one per chunk, the
    /// short last one included.
    #[test]
    fn chunk_crcs_do_not_depend_on_the_split() {
        for len in [0, 1, VERIFY_CHUNK - 1, VERIFY_CHUNK, 2 * VERIFY_CHUNK + 5] {
            let data = payload(len);
            let want: Vec<u8> = data
                .chunks(VERIFY_CHUNK)
                .flat_map(|c| crc32(c).to_le_bytes())
                .collect();
            for piece in [1000, VERIFY_CHUNK, VERIFY_CHUNK + 3, usize::MAX] {
                let mut crcs = ChunkCrcs::new();
                for part in data.chunks(piece.min(len.max(1))) {
                    crcs.update(part);
                }
                assert_eq!(crcs.finish(), want, "len {len}, pieces of {piece}");
            }
        }
    }

    /// A check verifies exactly the chunks a range spans, once; a bad chunk
    /// fails every touch and leaves the others' bits alone.
    #[test]
    fn chunks_are_verified_on_first_touch_only() {
        let len = 3 * VERIFY_CHUNK + 100;
        let mut data = payload(len);
        let mut crcs = ChunkCrcs::new();
        crcs.update(&data);
        let chunks = NbrChunks::parse(&crcs.finish(), len).unwrap();
        assert_eq!(chunks.account().chunks, 0);
        chunks.check(&data, 10, 10).unwrap();
        assert_eq!(chunks.account().chunks, 0, "an empty range touches nothing");
        chunks
            .check(&data, VERIFY_CHUNK - 1, VERIFY_CHUNK + 1)
            .unwrap();
        let account = chunks.account();
        assert_eq!((account.chunks, account.bytes), (2, 2 * VERIFY_CHUNK));
        data[3 * VERIFY_CHUNK + 7] ^= 1;
        for _ in 0..2 {
            assert!(matches!(
                chunks.check(&data, len - 1, len),
                Err(StoreError::ChecksumMismatch { section: "NBR" })
            ));
        }
        // the verified chunks are not read again
        data[0] ^= 1;
        chunks.check(&data, 0, VERIFY_CHUNK).unwrap();
        assert!(chunks.check(&data, 0, len).is_err());
        let account = chunks.account();
        assert_eq!((account.chunks, account.total_chunks), (3, 4));
        assert_eq!(account.bytes, 3 * VERIFY_CHUNK);
    }

    #[test]
    fn a_table_of_the_wrong_length_is_corrupt() {
        assert!(NbrChunks::parse(&[0; 4], 0).is_err());
        assert!(NbrChunks::parse(&[], 1).is_err());
        assert!(NbrChunks::parse(&[0; 8], VERIFY_CHUNK + 1).is_ok());
        assert!(NbrChunks::parse(&[0; 4], VERIFY_CHUNK + 1).is_err());
        assert_eq!(NbrChunks::parse(&[], 0).unwrap().account().total_chunks, 0);
    }
}
