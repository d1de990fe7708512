//! smallworld-store: compressed, memory-mapped, shard-partitioned on-disk
//! graphs.
//!
//! The store is the persistence layer for the sampled graphs the routing
//! experiments run on. Sampling a million-vertex GIRG takes seconds of CPU;
//! loading the same graph from a `.swg` file takes milliseconds, and every
//! experiment binary that loads the same file sees the bitwise-identical
//! graph, geometry, and greedy routes. Three layers:
//!
//! - **Codec** ([`varint`], [`CompressedCsr`]): neighbor lists of a
//!   Morton-relabeled graph have small id gaps, so delta + LEB128-varint
//!   encoding shrinks adjacency to a fraction of the raw 4 bytes per
//!   half-edge while keeping O(degree) random access per vertex.
//! - **Format** ([`GraphStore`], [`write_girg_swg`], [`write_graph_swg`]):
//!   a versioned, checksummed binary container with page-aligned sections,
//!   memory-mapped on load (feature `mmap`, on by default; a portable
//!   read-into-`Vec` fallback is always available). Geometry (positions,
//!   weights) is stored packed so kernels can score straight off the file
//!   bytes via `smallworld-core`'s packed objective.
//! - **Shards** ([`ShardedStore`]): a geometric partition into contiguous
//!   Morton ranges, each shard a self-contained compressed CSR plus an
//!   explicit cross-shard boundary-edge table; [`ShardedStore::assemble`]
//!   reproduces the exact global graph.
//!
//! [`save_girg`] / [`load_girg`] are the one-stop entry points: they
//! dispatch on the `.swg` extension, routing everything else through the
//! legacy text format of `smallworld-models::io` under the single
//! [`StoreError`] type.

mod csr;
mod error;
mod format;
mod mapped;
mod mmap;
mod shard;
mod stream_write;
pub mod varint;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use smallworld_models::girg::Girg;

pub use crate::csr::CompressedCsr;
pub use crate::error::StoreError;
pub use crate::format::{
    crc32, write_girg_swg, write_graph_swg, GraphStore, SectionId, WriteStats, FLAG_GEOMETRY,
    FLAG_SHARDS, MAGIC, VERSION,
};
pub use crate::mapped::{MappedCursor, MappedGraph};
pub use crate::mmap::{map_readonly, Mapping};
pub use crate::shard::{ShardSpec, ShardedStore, StoreShard};
pub use crate::stream_write::write_girg_swg_streamed;

/// Whether `path` names a binary store file (by its `.swg` extension).
pub fn is_swg_path(path: &Path) -> bool {
    path.extension().is_some_and(|e| e.eq_ignore_ascii_case("swg"))
}

/// Saves a GIRG to `path`, picking the format from the extension: `.swg`
/// writes the binary store (pass `shard_count > 1` to embed a geometric
/// shard partition), anything else writes the legacy text format (which
/// ignores `shard_count`).
///
/// # Errors
///
/// Returns [`StoreError`] on I/O failure; legacy-format errors are wrapped
/// in [`StoreError::Legacy`].
pub fn save_girg<const D: usize>(
    girg: &Girg<D>,
    path: &Path,
    shard_count: usize,
) -> Result<Option<WriteStats>, StoreError> {
    if is_swg_path(path) {
        return Ok(Some(write_girg_swg(girg, path, shard_count)?));
    }
    let writer = BufWriter::new(File::create(path)?);
    smallworld_models::io::write_girg(girg, writer).map_err(StoreError::Legacy)?;
    Ok(None)
}

/// Loads a GIRG from `path`, picking the format from the extension: `.swg`
/// opens the binary store (memory-mapped when possible), anything else
/// parses the legacy text format.
///
/// # Errors
///
/// Returns [`StoreError`] on I/O failure, malformed or corrupt `.swg`
/// content, or (wrapped in [`StoreError::Legacy`]) text-format parse
/// errors.
pub fn load_girg<const D: usize>(path: &Path) -> Result<Girg<D>, StoreError> {
    if is_swg_path(path) {
        return GraphStore::open(path)?.load_girg::<D>();
    }
    let reader = BufReader::new(File::open(path)?);
    smallworld_models::io::read_girg::<D, _>(reader).map_err(StoreError::Legacy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smallworld_models::girg::GirgBuilder;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smallworld-store-lib-{}-{name}", std::process::id()))
    }

    #[test]
    fn extension_dispatch() {
        assert!(is_swg_path(Path::new("graph.swg")));
        assert!(is_swg_path(Path::new("/a/b/GRAPH.SWG")));
        assert!(!is_swg_path(Path::new("graph.txt")));
        assert!(!is_swg_path(Path::new("graph")));
    }

    #[test]
    fn save_load_roundtrips_in_both_formats() {
        let mut rng = StdRng::seed_from_u64(7);
        let girg: Girg<2> = GirgBuilder::new(400).sample(&mut rng).unwrap();
        for name in ["roundtrip.swg", "roundtrip.txt"] {
            let path = temp_path(name);
            let stats = save_girg(&girg, &path, 1).unwrap();
            assert_eq!(stats.is_some(), is_swg_path(&path));
            let back: Girg<2> = load_girg(&path).unwrap();
            assert_eq!(back.graph(), girg.graph());
            assert_eq!(back.weights(), girg.weights());
            assert_eq!(back.positions(), girg.positions());
            assert_eq!(back.params(), girg.params());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn missing_file_errors_in_both_formats() {
        assert!(load_girg::<2>(Path::new("/nonexistent/x.swg")).is_err());
        assert!(load_girg::<2>(Path::new("/nonexistent/x.txt")).is_err());
    }
}
