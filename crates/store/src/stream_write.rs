//! Streamed `.swg` writer: persists an out-of-core sampled GIRG
//! ([`StreamedGirg`]) without ever materializing the global edge list or
//! the decoded adjacency.
//!
//! The models-side streamed sampler hands us a strictly increasing
//! half-edge stream (k-way merged from its spill runs). This writer
//! consumes it grouped by source vertex, varint-encodes each vertex's
//! sorted neighbor list ([`varint::encode_sorted`]) into a staged NBR
//! file — accumulating the per-chunk CRC32s of the NBR_CRC section and the
//! offsets index as it goes — and then lays out the final store through the exact same
//! [`write_sections`] path as [`crate::write_girg_swg`]. Because both
//! writers share the layout and section-payload code, a streamed store is
//! **byte-for-byte identical** to what the in-RAM path would have written
//! for the same (Morton-relabeled) sample; `tests/` pin this by hashing
//! whole files.
//!
//! Encoded lists are batched and written (and checksummed) about 64 KiB at
//! a time, so the CRC runs on long slices. Peak memory is one vertex's
//! neighbor list, one batch and the offsets index — `O(n)` — regardless of
//! the edge count.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use smallworld_models::girg::StreamedGirg;

use crate::chunks::ChunkCrcs;
use crate::format::{
    meta_section_bytes, offsets_section_bytes, pos_section_bytes, weight_section_bytes,
    SectionSource,
};
use crate::{varint, SectionId, StoreError, WriteStats, FLAG_GEOMETRY};

/// Staged NBR bytes are written and checksummed in batches of about this
/// many bytes: one vertex's list (~100 B) is too short for the CRC fold.
const FLUSH_BYTES: usize = 1 << 16;

/// Accumulates the NBR section in a staged spill file: per-vertex varint
/// streams, a running offsets index, and the payload's chunk CRC32s.
struct NbrStager {
    file: File,
    crcs: ChunkCrcs,
    offsets: Vec<u64>,
    /// Bytes already written to `file`.
    written: u64,
    /// Encoded lists not yet written.
    encode_buf: Vec<u8>,
}

impl NbrStager {
    fn create(path: &Path, node_count: usize) -> Result<NbrStager, StoreError> {
        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0);
        Ok(NbrStager {
            file: File::create(path)?,
            crcs: ChunkCrcs::new(),
            offsets,
            written: 0,
            encode_buf: Vec::new(),
        })
    }

    /// Appends one vertex's sorted neighbor list (possibly empty).
    fn push_vertex(&mut self, targets: &[u32]) -> Result<(), StoreError> {
        varint::encode_sorted(targets, &mut self.encode_buf);
        let end = self.written + self.encode_buf.len() as u64;
        self.offsets.push(end);
        if self.encode_buf.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes and checksums the batched encodings.
    fn flush(&mut self) -> Result<(), StoreError> {
        self.file.write_all(&self.encode_buf)?;
        self.crcs.update(&self.encode_buf);
        self.written += self.encode_buf.len() as u64;
        self.encode_buf.clear();
        Ok(())
    }

    /// The offsets index, the payload length and the NBR_CRC payload.
    fn finish(mut self) -> Result<(Vec<u64>, u64, Vec<u8>), StoreError> {
        self.flush()?;
        Ok((self.offsets, self.written, self.crcs.finish()))
    }
}

/// Writes an out-of-core sampled GIRG as a `.swg` store at `path`,
/// streaming the adjacency from the sampler's spill runs straight into
/// the NBR section.
///
/// The output is byte-for-byte what [`crate::write_girg_swg`] (with
/// `shard_count = 1`) produces for the equivalent in-RAM sample after
/// Morton relabeling — same sections, same payloads, same checksums. A
/// shard partition is not emitted: partitioning balances by degree mass,
/// which the streamed path computes from the offsets index just as well,
/// but sharded stores are written by the in-RAM path today.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure and
/// [`StoreError::Corrupt`] if the half-edge stream disagrees with the
/// sample's vertex or edge counts (a sampler bug, not a caller error).
pub fn write_girg_swg_streamed<const D: usize>(
    sample: &StreamedGirg<D>,
    path: impl AsRef<Path>,
) -> Result<WriteStats, StoreError> {
    let path = path.as_ref();
    let staged_path = path.with_extension("nbr.staged");
    // Remove the staged file even on error paths.
    let result = stage_and_write(sample, path, &staged_path);
    std::fs::remove_file(&staged_path).ok();
    result
}

fn stage_and_write<const D: usize>(
    sample: &StreamedGirg<D>,
    path: &Path,
    staged_path: &Path,
) -> Result<WriteStats, StoreError> {
    let node_count = sample.node_count();
    let target_count = sample.target_count();
    let mut stager = NbrStager::create(staged_path, node_count)?;
    let mut current: Vec<u32> = Vec::new();
    let mut next_src = 0usize; // first vertex whose list is still open
    let mut seen = 0usize;
    for item in sample.half_edges()? {
        let (src, tgt) = item?;
        let src = src as usize;
        if src >= node_count || (tgt as usize) >= node_count {
            return Err(StoreError::Corrupt(format!(
                "half-edge ({src}, {tgt}) outside {node_count} vertices"
            )));
        }
        // the stream is strictly increasing, so a new src closes all
        // vertices up to and including the previous one
        while next_src < src {
            stager.push_vertex(&current)?;
            current.clear();
            next_src += 1;
        }
        current.push(tgt);
        seen += 1;
    }
    while next_src < node_count {
        stager.push_vertex(&current)?;
        current.clear();
        next_src += 1;
    }
    if seen != target_count {
        return Err(StoreError::Corrupt(format!(
            "half-edge stream yielded {seen} entries, sample says {target_count}"
        )));
    }

    let (offsets, nbr_len, nbr_crcs) = stager.finish()?;

    let sections = vec![
        (
            SectionId::Meta,
            SectionSource::Bytes(meta_section_bytes(*sample.params(), 0)),
        ),
        (
            SectionId::Offsets,
            SectionSource::Bytes(offsets_section_bytes(&offsets)),
        ),
        (SectionId::NbrCrc, SectionSource::Bytes(nbr_crcs)),
        (
            SectionId::Nbr,
            SectionSource::File {
                path: staged_path.to_path_buf(),
                len: nbr_len,
            },
        ),
        (
            SectionId::Pos,
            SectionSource::Bytes(pos_section_bytes(sample.positions())),
        ),
        (
            SectionId::Weight,
            SectionSource::Bytes(weight_section_bytes(sample.weights())),
        ),
    ];
    let file_bytes = crate::format::write_sections(
        path,
        D as u32,
        FLAG_GEOMETRY,
        node_count as u64,
        target_count as u64,
        &sections,
    )?;
    Ok(WriteStats {
        file_bytes,
        compressed_csr_bytes: nbr_len as usize + offsets.len() * 8,
        raw_csr_bytes: (node_count + 1) * std::mem::size_of::<usize>() + target_count * 4,
        target_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::GirgBuilder;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smallworld-streamwrite-{}-{name}", std::process::id()))
    }

    #[test]
    fn streamed_store_is_byte_identical_to_in_ram_store() {
        for n in [500u64, 4_000] {
            let builder = GirgBuilder::<2>::new(n).beta(2.6).alpha(2.0);
            let mut rng_a = StdRng::seed_from_u64(21);
            let mut rng_b = StdRng::seed_from_u64(21);

            let girg = builder.sample(&mut rng_a).unwrap();
            let relabeled = girg.relabel(&girg.morton_permutation());
            let in_ram = temp_path(&format!("inram-{n}.swg"));
            let stats_a = crate::write_girg_swg(&relabeled, &in_ram, 1).unwrap();

            let streamed = builder
                .sample_streamed(&mut rng_b, &std::env::temp_dir())
                .unwrap();
            let out = temp_path(&format!("streamed-{n}.swg"));
            let stats_b = write_girg_swg_streamed(&streamed, &out).unwrap();

            assert_eq!(stats_a.file_bytes, stats_b.file_bytes);
            assert_eq!(stats_a.compressed_csr_bytes, stats_b.compressed_csr_bytes);
            assert_eq!(stats_a.raw_csr_bytes, stats_b.raw_csr_bytes);
            assert_eq!(stats_a.target_count, stats_b.target_count);
            let a = std::fs::read(&in_ram).unwrap();
            let b = std::fs::read(&out).unwrap();
            assert_eq!(a, b, "streamed .swg differs from in-RAM .swg at n={n}");

            // staged NBR spill is cleaned up
            assert!(!out.with_extension("nbr.staged").exists());
            std::fs::remove_file(&in_ram).ok();
            std::fs::remove_file(&out).ok();
        }
    }

    #[test]
    fn streamed_store_loads_back() {
        let mut rng = StdRng::seed_from_u64(33);
        let streamed = GirgBuilder::<2>::new(800)
            .sample_streamed(&mut rng, &std::env::temp_dir())
            .unwrap();
        let out = temp_path("load-back.swg");
        write_girg_swg_streamed(&streamed, &out).unwrap();
        let store = crate::GraphStore::open(&out).unwrap();
        let girg = store.load_girg::<2>().unwrap();
        assert_eq!(girg.node_count(), streamed.node_count());
        assert_eq!(girg.graph().edge_count(), streamed.edge_count());
        assert_eq!(girg.weights(), streamed.weights());
        std::fs::remove_file(&out).ok();
    }
}
