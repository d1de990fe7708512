//! The `.swg` on-disk format: a versioned, checksummed, sectioned binary
//! container designed for zero-copy mapping.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SWGSTOR1"
//! 8       4     format version (u32 LE) = 2
//! 12      4     endianness marker (u32 LE) = 0x0A0B0C0D
//! 16      4     torus dimension d (0 = bare graph, no geometry)
//! 20      4     flags (bit 0 = geometry sections, bit 1 = shard section)
//! 24      8     node count (u64 LE)
//! 32      8     target count = 2m (u64 LE)
//! 40      4     section count (u32 LE)
//! 44      4     CRC32 of header bytes 0..44 ++ the section table
//! 48      16    reserved (zero)
//! 64      24·k  section table: (id u32, crc32 u32, offset u64, len u64)
//! …             section payloads, each aligned to a 4096-byte page
//! ```
//!
//! All integers are little-endian. Every section payload but NBR carries
//! its own CRC32 (IEEE, reflected, zlib-compatible) in the section table,
//! verified when the file is opened. NBR, the adjacency and most of the
//! file, is checksummed per [`VERIFY_CHUNK`]-byte chunk instead: the
//! NBR_CRC section holds one CRC32 per chunk (the last chunk may be
//! shorter), NBR's table entry holds 0, and open reads no NBR byte. A
//! chunk is checked the first time a decode reads one of its bytes — a
//! [`MappedCursor`](crate::MappedCursor) list, [`CompressedCsr::decode_into`]
//! or the full decode of [`GraphStore::load_graph`] — and one bit per
//! chunk, shared by every cursor and thread, records that it matched.
//!
//! The checksum runs at memory speed: a carry-less-multiply fold on x86_64
//! CPUs with PCLMULQDQ (512 bits wide with AVX-512 and VPCLMULQDQ), a
//! slicing-by-16 table kernel elsewhere (see `crc.rs`). Open verifies each
//! eager section in [`VERIFY_CHUNK`]-byte chunks and runs the section's
//! structural check (OFFSETS never decrease, POS coordinates are
//! canonical, WEIGHT values are finite) on each chunk right after its CRC,
//! while it is still in cache; the accessors report what it found.
//! Payloads start on page boundaries so that, under `mmap`, fixed-width
//! sections (OFFSETS, POS, WEIGHT) are naturally aligned for direct
//! `&[u64]`/`&[f64]` views.
//!
//! Sections:
//!
//! | id | name    | payload |
//! |----|---------|---------|
//! | 1  | META    | GIRG params: intensity, beta, wmin, alpha, lambda (f64 ×5), planted (u64) |
//! | 2  | OFFSETS | (n+1) × u64: byte offsets into NBR |
//! | 3  | NBR     | concatenated varint delta streams (see [`crate::varint`]) |
//! | 4  | POS     | n·d × f64: canonical torus coordinates, vertex-major |
//! | 5  | WEIGHT  | n × f64 |
//! | 6  | SHARDS  | serialized shard partition (see [`crate::shard`]) |
//! | 7  | NBR_CRC | ⌈len(NBR) / [`VERIFY_CHUNK`]⌉ × u32: CRC32 of each NBR chunk |
//!
//! The writers lay sections out in the order META, OFFSETS, NBR_CRC, NBR,
//! POS, WEIGHT, SHARDS (each when present).

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use smallworld_geometry::Point;
use smallworld_graph::Graph;
use smallworld_models::girg::{Girg, GirgParams};
use smallworld_models::Alpha;

use crate::chunks::{ChunkCrcs, FirstTouch, NbrChunks};
use crate::crc::{crc32, Crc32};
use crate::csr::CompressedCsr;
use crate::mapped::MappedGraph;
use crate::mmap::{huge_page_vec, map_readonly, Mapping};
use crate::shard::ShardedStore;
use crate::StoreError;

/// File magic: the first 8 bytes of every `.swg` store.
pub const MAGIC: [u8; 8] = *b"SWGSTOR1";
/// Current format version: 2 since the NBR section is checksummed per
/// chunk. No other version is read.
pub const VERSION: u32 = 2;
/// Endianness marker stored little-endian.
const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;
/// Section payload alignment.
pub const PAGE: usize = 4096;
/// Bytes [`GraphStore::open`] verifies per step, and the bytes of an NBR
/// chunk: small enough that a chunk is still in cache when the section's
/// structural check reads it after the CRC, or a first-touch check's list
/// decodes it, and a whole number of pages (so of 8-byte words).
pub const VERIFY_CHUNK: usize = 16 * PAGE;
const HEADER_LEN: usize = 64;
const SECTION_ENTRY_LEN: usize = 24;

/// Header flag: POS/WEIGHT/META sections present.
pub const FLAG_GEOMETRY: u32 = 1;
/// Header flag: SHARDS section present.
pub const FLAG_SHARDS: u32 = 2;

/// Section identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// GIRG model parameters.
    Meta = 1,
    /// Compressed-CSR byte-offset index.
    Offsets = 2,
    /// Compressed-CSR varint streams.
    Nbr = 3,
    /// Packed vertex positions.
    Pos = 4,
    /// Vertex weights.
    Weight = 5,
    /// Shard partition.
    Shards = 6,
    /// CRC32 of each [`VERIFY_CHUNK`]-byte chunk of NBR.
    NbrCrc = 7,
}

impl SectionId {
    /// The name of the section with raw id `raw`, or `"unknown"`.
    fn name_of(raw: u32) -> &'static str {
        use SectionId::*;
        [Meta, Offsets, Nbr, Pos, Weight, Shards, NbrCrc]
            .into_iter()
            .find(|&id| id as u32 == raw)
            .map_or("unknown", SectionId::name)
    }

    fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "META",
            SectionId::Offsets => "OFFSETS",
            SectionId::Nbr => "NBR",
            SectionId::Pos => "POS",
            SectionId::Weight => "WEIGHT",
            SectionId::Shards => "SHARDS",
            SectionId::NbrCrc => "NBR_CRC",
        }
    }
}

/// Statistics reported by the write path, feeding `bench_store`.
#[derive(Clone, Copy, Debug)]
pub struct WriteStats {
    /// Total bytes written to the file, padding included.
    pub file_bytes: u64,
    /// Bytes of the compressed adjacency (NBR data + OFFSETS index).
    pub compressed_csr_bytes: usize,
    /// Bytes the same adjacency occupies as a raw in-memory CSR.
    pub raw_csr_bytes: usize,
    /// Neighbor-list entries stored (`2m`).
    pub target_count: usize,
}

fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// A section payload for the writer: bytes held in memory, or the NBR
/// payload an out-of-core producer already wrote to a spill file (with its
/// chunk CRCs accumulated while spilling). Both feed the identical layout
/// code, so a file-backed section is byte-for-byte what the in-memory path
/// would have written.
pub(crate) enum SectionSource {
    /// Payload materialized in memory.
    Bytes(Vec<u8>),
    /// NBR payload staged in a file, copied into the store in chunks.
    File {
        /// The staged payload file.
        path: std::path::PathBuf,
        /// Payload length in bytes.
        len: u64,
    },
}

impl SectionSource {
    fn len(&self) -> u64 {
        match self {
            SectionSource::Bytes(b) => b.len() as u64,
            SectionSource::File { len, .. } => *len,
        }
    }
}

/// Serializes `sections` into a `.swg` file at `path` (created/truncated).
pub(crate) fn write_sections(
    path: &Path,
    dim: u32,
    flags: u32,
    node_count: u64,
    target_count: u64,
    sections: &[(SectionId, SectionSource)],
) -> Result<u64, StoreError> {
    let table_len = sections.len() * SECTION_ENTRY_LEN;
    let mut offset = round_up(HEADER_LEN + table_len, PAGE);

    // section table
    let mut table = Vec::with_capacity(table_len);
    for (id, payload) in sections {
        // NBR (the one payload ever staged in a file) is covered chunk by
        // chunk by NBR_CRC, so its table entry holds 0
        let crc = match payload {
            SectionSource::Bytes(b) if *id != SectionId::Nbr => crc32(b),
            _ => 0,
        };
        table.extend_from_slice(&(*id as u32).to_le_bytes());
        table.extend_from_slice(&crc.to_le_bytes());
        table.extend_from_slice(&(offset as u64).to_le_bytes());
        table.extend_from_slice(&payload.len().to_le_bytes());
        offset = round_up(offset + payload.len() as usize, PAGE);
    }

    // header (crc over bytes 0..44 with the table appended)
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&ENDIAN_MARKER.to_le_bytes());
    header.extend_from_slice(&dim.to_le_bytes());
    header.extend_from_slice(&flags.to_le_bytes());
    header.extend_from_slice(&node_count.to_le_bytes());
    header.extend_from_slice(&target_count.to_le_bytes());
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(&table);
    header.extend_from_slice(&crc.finish().to_le_bytes());
    header.resize(HEADER_LEN, 0);

    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&header)?;
    w.write_all(&table)?;
    let mut written = HEADER_LEN + table_len;
    for (_, payload) in sections {
        let aligned = round_up(written, PAGE);
        w.write_all(&vec![0u8; aligned - written])?;
        match payload {
            SectionSource::Bytes(bytes) => w.write_all(bytes)?,
            SectionSource::File { path, len, .. } => {
                let mut reader = File::open(path)?;
                let copied = std::io::copy(&mut reader, &mut w)?;
                if copied != *len {
                    return Err(StoreError::Corrupt(format!(
                        "staged section file is {copied} bytes, expected {len}"
                    )));
                }
            }
        }
        written = aligned + payload.len() as usize;
    }
    // pad the tail so the file is a whole number of pages
    let total = round_up(written, PAGE);
    w.write_all(&vec![0u8; total - written])?;
    w.flush()?;
    Ok(total as u64)
}

/// Serializes the (n+1)-entry compressed offsets index as its OFFSETS
/// section payload.
pub(crate) fn offsets_section_bytes(offsets: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(offsets.len() * 8);
    for &o in offsets {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    bytes
}

/// The OFFSETS, NBR_CRC and NBR sections of a graph's adjacency.
fn adjacency_sections(graph: &Graph) -> (CompressedCsr<'static>, Vec<(SectionId, SectionSource)>) {
    let compressed = CompressedCsr::from_graph(graph);
    let offsets_bytes = offsets_section_bytes(compressed.offsets());
    let mut crcs = ChunkCrcs::new();
    crcs.update(compressed.data());
    let sections = vec![
        (SectionId::Offsets, SectionSource::Bytes(offsets_bytes)),
        (SectionId::NbrCrc, SectionSource::Bytes(crcs.finish())),
        (SectionId::Nbr, SectionSource::Bytes(compressed.data().to_vec())),
    ];
    (compressed, sections)
}

/// Writes a bare graph (no geometry) as a `.swg` store. With
/// `shard_count > 1` a shard partition over contiguous id ranges is
/// included.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_graph_swg(
    graph: &Graph,
    path: impl AsRef<Path>,
    shard_count: usize,
) -> Result<WriteStats, StoreError> {
    let (compressed, mut sections) = adjacency_sections(graph);
    let mut flags = 0;
    if shard_count > 1 {
        flags |= FLAG_SHARDS;
        sections.push((
            SectionId::Shards,
            SectionSource::Bytes(ShardedStore::partition(graph, shard_count).to_bytes()),
        ));
    }
    let file_bytes = write_sections(
        path.as_ref(),
        0,
        flags,
        graph.node_count() as u64,
        compressed.target_count() as u64,
        &sections,
    )?;
    Ok(WriteStats {
        file_bytes,
        compressed_csr_bytes: compressed.byte_len(),
        raw_csr_bytes: compressed.raw_byte_len(),
        target_count: compressed.target_count(),
    })
}

/// Writes a sampled GIRG — adjacency, packed geometry, and model
/// parameters — as a `.swg` store. With `shard_count > 1` a geometric
/// (Morton-range) shard partition is included.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_girg_swg<const D: usize>(
    girg: &Girg<D>,
    path: impl AsRef<Path>,
    shard_count: usize,
) -> Result<WriteStats, StoreError> {
    let graph = girg.graph();
    let (compressed, mut sections) = adjacency_sections(graph);

    let meta = meta_section_bytes(*girg.params(), girg.planted_count());
    sections.insert(0, (SectionId::Meta, SectionSource::Bytes(meta)));

    sections.push((
        SectionId::Pos,
        SectionSource::Bytes(pos_section_bytes(girg.positions())),
    ));
    sections.push((
        SectionId::Weight,
        SectionSource::Bytes(weight_section_bytes(girg.weights())),
    ));

    let mut flags = FLAG_GEOMETRY;
    if shard_count > 1 {
        flags |= FLAG_SHARDS;
        sections.push((
            SectionId::Shards,
            SectionSource::Bytes(
                ShardedStore::partition_with_positions(graph, girg.positions(), shard_count)
                    .to_bytes(),
            ),
        ));
    }
    let file_bytes = write_sections(
        path.as_ref(),
        D as u32,
        flags,
        graph.node_count() as u64,
        compressed.target_count() as u64,
        &sections,
    )?;
    Ok(WriteStats {
        file_bytes,
        compressed_csr_bytes: compressed.byte_len(),
        raw_csr_bytes: compressed.raw_byte_len(),
        target_count: compressed.target_count(),
    })
}

/// META section payload for GIRG parameters and the planted-vertex count.
pub(crate) fn meta_section_bytes(p: GirgParams, planted: usize) -> Vec<u8> {
    let alpha = match p.alpha {
        Alpha::Finite(a) => a,
        Alpha::Threshold => f64::INFINITY,
    };
    let mut meta = Vec::with_capacity(48);
    for v in [p.intensity, p.beta, p.wmin, alpha, p.lambda] {
        meta.extend_from_slice(&v.to_le_bytes());
    }
    meta.extend_from_slice(&(planted as u64).to_le_bytes());
    meta
}

/// POS section payload: canonical torus coordinates, vertex-major.
pub(crate) fn pos_section_bytes<const D: usize>(positions: &[Point<D>]) -> Vec<u8> {
    let mut pos = Vec::with_capacity(positions.len() * D * 8);
    for point in positions {
        for &c in point.coords() {
            pos.extend_from_slice(&c.to_le_bytes());
        }
    }
    pos
}

/// WEIGHT section payload.
pub(crate) fn weight_section_bytes(weights: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(weights.len() * 8);
    for &w in weights {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

#[derive(Debug)]
struct SectionEntry {
    id: u32,
    offset: usize,
    len: usize,
    /// What the section's structural check found at open.
    flaw: Option<Flaw>,
}

/// A structural fault that [`GraphStore::open`] found in a section while
/// verifying it; the accessor that reads the section reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Flaw {
    /// OFFSETS: an entry is below the one before it.
    Decreasing,
    /// POS: the first coordinate outside the canonical torus `[0, 1)`.
    Coordinate(f64),
    /// WEIGHT: a weight that is not finite.
    NonFiniteWeight,
}

/// The structural check of one section, fed its payload chunk by chunk in
/// order. It reads whole little-endian 8-byte words (a trailing partial
/// word is the accessors' length error, not a flaw).
enum Check {
    /// OFFSETS, carrying the last entry of the chunks seen so far.
    Offsets { last: u64 },
    /// POS.
    Coordinates,
    /// WEIGHT.
    Weights,
    /// Every other section: CRC only.
    None,
}

impl Check {
    fn of(id: u32) -> Check {
        match id {
            id if id == SectionId::Offsets as u32 => Check::Offsets { last: 0 },
            id if id == SectionId::Pos as u32 => Check::Coordinates,
            id if id == SectionId::Weight as u32 => Check::Weights,
            _ => Check::None,
        }
    }

    /// Checks the next chunk. Each test is folded over the whole chunk
    /// without a branch, and only a failed chunk is searched again for
    /// the first bad value.
    fn chunk(&mut self, bytes: &[u8]) -> Option<Flaw> {
        let words = bytes.as_chunks::<8>().0;
        match self {
            Check::Offsets { last } => {
                let mut decreasing = false;
                for word in words {
                    let next = u64::from_le_bytes(*word);
                    decreasing |= next < *last;
                    *last = next;
                }
                decreasing.then_some(Flaw::Decreasing)
            }
            Check::Coordinates => {
                let coords = || words.iter().map(|&w| f64::from_le_bytes(w));
                let outside = |c: f64| !(0.0..1.0).contains(&c);
                if !coords().fold(false, |bad, c| bad | outside(c)) {
                    return None;
                }
                coords().find(|&c| outside(c)).map(Flaw::Coordinate)
            }
            Check::Weights => {
                let finite = words
                    .iter()
                    .fold(true, |ok, &w| ok & f64::from_le_bytes(w).is_finite());
                (!finite).then_some(Flaw::NonFiniteWeight)
            }
            Check::None => None,
        }
    }
}

/// An opened `.swg` store: the file mapped (or read) into memory with the
/// header parsed and every section checksum verified but NBR's, whose
/// chunks are checked on first touch.
///
/// Loading is layered: [`GraphStore::load_graph`] decodes the adjacency,
/// [`GraphStore::load_girg`] reassembles the full [`Girg`], and the
/// `packed_*` accessors expose the geometry sections without materializing
/// `Point` vectors — the zero-copy path for kernels that score straight off
/// the store (`smallworld_core::PackedGirgObjective`, which also builds the
/// in-memory id-block φ bounds that prune hub scans; nothing extra is
/// stored).
#[derive(Debug)]
pub struct GraphStore {
    mapping: Mapping,
    sections: Vec<SectionEntry>,
    /// NBR's chunk CRCs and which chunks have matched them.
    nbr: NbrChunks,
    dim: u32,
    flags: u32,
    node_count: u64,
    target_count: u64,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// An 8-byte plain-old-data word stored little-endian: every bit pattern
/// is a valid value. Implemented for `u64` and `f64` only.
trait LeWord: Copy {
    fn from_le(bytes: [u8; 8]) -> Self;
}

impl LeWord for u64 {
    fn from_le(bytes: [u8; 8]) -> Self {
        u64::from_le_bytes(bytes)
    }
}

impl LeWord for f64 {
    fn from_le(bytes: [u8; 8]) -> Self {
        f64::from_le_bytes(bytes)
    }
}

/// Reads little-endian section bytes as words, borrowing them in place
/// when the target is little-endian and the bytes are 8-aligned (mmap'd
/// sections are page-aligned), and decoding an owned copy otherwise.
/// `None` if the length is not a whole number of words.
fn le_words<T: LeWord>(bytes: &[u8]) -> Option<Cow<'_, [T]>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `LeWord` is implemented only for `u64` and `f64`, 8-byte
        // types for which every bit pattern is a valid value, so
        // reinterpreting initialized bytes is sound; `align_to` places in
        // `mid` only correctly aligned words, and the borrow is taken only
        // when `mid` covers every byte.
        let (pre, mid, post) = unsafe { bytes.align_to::<T>() };
        if pre.is_empty() && post.is_empty() {
            return Some(Cow::Borrowed(mid));
        }
    }
    Some(Cow::Owned(
        bytes
            .chunks_exact(8)
            .map(|c| T::from_le(c.try_into().expect("8 bytes")))
            .collect(),
    ))
}

impl GraphStore {
    /// Opens a `.swg` store, via `mmap` when available (see
    /// [`map_readonly`](crate::map_readonly)). Before this returns, the
    /// header, the section table and the checksum of every section but NBR
    /// are validated, with each section's structural check, and the NBR_CRC
    /// table is checked to hold one CRC per NBR chunk. No NBR byte is read:
    /// a decode checks each chunk it reads the first time any decode of
    /// this store reads it ([`GraphStore::first_touch`]), so a flipped NBR
    /// byte surfaces as [`StoreError::ChecksumMismatch`] from
    /// [`GraphStore::load_graph`], [`CompressedCsr::decode_into`] or a
    /// [`MappedCursor`](crate::MappedCursor)'s error.
    ///
    /// # Errors
    ///
    /// Returns the appropriate [`StoreError`] variant for I/O failures,
    /// foreign files, version or endianness mismatches (a version-1 store is
    /// [`StoreError::UnsupportedVersion`]`(1)`, whose message says how to
    /// write it again), truncation, and checksum failures.
    pub fn open(path: impl AsRef<Path>) -> Result<GraphStore, StoreError> {
        let mapping = map_readonly(path.as_ref())?;
        Self::from_mapping(mapping)
    }

    /// Opens a `.swg` store by reading the whole file into an owned buffer,
    /// bypassing `mmap` even when available — the portable fallback path,
    /// kept public so benchmarks can measure both against each other.
    ///
    /// # Errors
    ///
    /// Same contract as [`GraphStore::open`].
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<GraphStore, StoreError> {
        let bytes = std::fs::read(path.as_ref())?;
        Self::from_mapping(Mapping::Owned(bytes))
    }

    fn from_mapping(mapping: Mapping) -> Result<GraphStore, StoreError> {
        let bytes: &[u8] = &mapping;
        // wrong-format files are reported as such even when short, so check
        // the magic before requiring a full header
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated { what: "header" });
        }
        let version = read_u32(bytes, 8);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        if read_u32(bytes, 12) != ENDIAN_MARKER {
            return Err(StoreError::Corrupt("endianness marker mismatch".into()));
        }
        let dim = read_u32(bytes, 16);
        let flags = read_u32(bytes, 20);
        let node_count = read_u64(bytes, 24);
        let target_count = read_u64(bytes, 32);
        let section_count = read_u32(bytes, 40) as usize;
        let stored_crc = read_u32(bytes, 44);

        let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(StoreError::Truncated { what: "section table" });
        }
        let mut crc = Crc32::new();
        crc.update(&bytes[..44]);
        crc.update(&bytes[HEADER_LEN..table_end]);
        if crc.finish() != stored_crc {
            return Err(StoreError::ChecksumMismatch { section: "header" });
        }

        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let id = read_u32(bytes, at);
            let crc = read_u32(bytes, at + 4);
            let offset = read_u64(bytes, at + 8) as usize;
            let len = read_u64(bytes, at + 16) as usize;
            let end = offset.checked_add(len).ok_or_else(|| {
                StoreError::Corrupt(format!("section {id} extent overflows"))
            })?;
            if end > bytes.len() {
                return Err(StoreError::Truncated { what: "section payload" });
            }
            let (mut sum, mut check, mut flaw) = (Crc32::new(), Check::of(id), None);
            // NBR's chunks are checked on first touch
            if id != SectionId::Nbr as u32 {
                for chunk in bytes[offset..end].chunks(VERIFY_CHUNK) {
                    sum.update(chunk);
                    if flaw.is_none() {
                        flaw = check.chunk(chunk);
                    }
                }
                if sum.finish() != crc {
                    return Err(StoreError::ChecksumMismatch {
                        section: SectionId::name_of(id),
                    });
                }
            }
            sections.push(SectionEntry {
                id,
                offset,
                len,
                flaw,
            });
        }

        let find = |id: SectionId| sections.iter().find(|s| s.id == id as u32);
        let nbr = match (find(SectionId::Nbr), find(SectionId::NbrCrc)) {
            (Some(nbr), Some(crcs)) => {
                NbrChunks::parse(&bytes[crcs.offset..crcs.offset + crcs.len], nbr.len)?
            }
            (Some(_), None) => return Err(StoreError::MissingSection("NBR_CRC")),
            // no adjacency to check: `mapped_graph` reports the missing NBR
            (None, _) => NbrChunks::parse(&[], 0)?,
        };
        Ok(GraphStore {
            mapping,
            sections,
            nbr,
            dim,
            flags,
            node_count,
            target_count,
        })
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        (self.target_count / 2) as usize
    }

    /// Total neighbor-list entries (`2m`), from the header.
    fn target_count(&self) -> usize {
        self.target_count as usize
    }

    /// Stored torus dimension (0 for a bare graph).
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Whether geometry sections (POS/WEIGHT/META) are present.
    pub fn has_geometry(&self) -> bool {
        self.flags & FLAG_GEOMETRY != 0
    }

    /// Whether a shard partition is stored.
    pub fn has_shards(&self) -> bool {
        self.flags & FLAG_SHARDS != 0
    }

    /// Whether the backing bytes are a live memory mapping rather than an
    /// owned copy.
    pub fn is_zero_copy(&self) -> bool {
        self.mapping.is_zero_copy()
    }

    /// Bytes the CRCs of [`GraphStore::open`] covered: the header's first
    /// 44 bytes, the section table and every section payload but NBR's,
    /// whose chunks are counted by [`GraphStore::first_touch`] as they are
    /// checked.
    pub fn verified_bytes(&self) -> usize {
        44 + self.sections.len() * SECTION_ENTRY_LEN
            + self
                .sections
                .iter()
                .filter(|s| s.id != SectionId::Nbr as u32)
                .map(|s| s.len)
                .sum::<usize>()
    }

    /// The NBR chunks checked so far, by every cursor, decode and thread
    /// of this store, with their bytes and the time their CRCs took.
    pub fn first_touch(&self) -> FirstTouch {
        self.nbr.account()
    }

    fn entry(&self, id: SectionId) -> Result<&SectionEntry, StoreError> {
        self.sections
            .iter()
            .find(|s| s.id == id as u32)
            .ok_or(StoreError::MissingSection(id.name()))
    }

    fn section(&self, id: SectionId) -> Result<&[u8], StoreError> {
        self.entry(id)
            .map(|s| &self.mapping[s.offset..s.offset + s.len])
    }

    /// What open's structural check found in section `id` (present).
    fn flaw(&self, id: SectionId) -> Option<Flaw> {
        self.entry(id).ok().and_then(|s| s.flaw)
    }

    /// A decode-free adjacency view borrowing this store's OFFSETS and NBR
    /// sections. The offsets index and the header counts are validated as
    /// [`CompressedCsr::from_parts`] does before any neighbor list is
    /// touched, with the scan for decreasing offsets taken from open; on
    /// a little-endian target an aligned OFFSETS section (every mmap'd
    /// one) is borrowed in place, not copied. Every decode through the view
    /// checks the NBR chunks it reads on first touch, sharing the store's
    /// record of verified chunks.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when either section is missing, and
    /// [`StoreError::Corrupt`] when the offsets index is malformed or the
    /// header's counts do not fit it.
    pub fn mapped_graph(&self) -> Result<MappedGraph<'_>, StoreError> {
        let bytes = self.section(SectionId::Offsets)?;
        let offsets = le_words(bytes).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "OFFSETS section is {} bytes, not whole u64s",
                bytes.len()
            ))
        })?;
        let decreasing = self.flaw(SectionId::Offsets) == Some(Flaw::Decreasing);
        CompressedCsr::from_scanned_parts(
            offsets,
            self.section(SectionId::Nbr)?,
            self.node_count(),
            self.target_count(),
            |_| !decreasing,
        )
        .map(|csr| csr.checked_by(&self.nbr))
    }

    /// Decodes the full adjacency into a [`Graph`]: the one checked pass
    /// of [`CompressedCsr::decode`] over [`GraphStore::mapped_graph`]'s
    /// borrowed CSR, straight out of the mapping, so no copy of the NBR
    /// bytes or the offsets index is made. It first checks every NBR chunk
    /// no earlier decode has checked.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on missing or malformed sections, and
    /// [`StoreError::ChecksumMismatch`] if an NBR chunk does not match its
    /// CRC.
    pub fn load_graph(&self) -> Result<Graph, StoreError> {
        self.mapped_graph()?.decode()
    }

    /// The stored model parameters and planted-vertex count.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingSection`] for a bare-graph store and
    /// [`StoreError::Corrupt`] on a malformed META section.
    pub fn params(&self) -> Result<(GirgParams, usize), StoreError> {
        let meta = self.section(SectionId::Meta)?;
        if meta.len() != 48 {
            return Err(StoreError::Corrupt(format!(
                "META section is {} bytes, expected 48",
                meta.len()
            )));
        }
        let f = |i: usize| f64::from_le_bytes(meta[i * 8..(i + 1) * 8].try_into().expect("8"));
        let alpha_raw = f(3);
        let params = GirgParams {
            intensity: f(0),
            beta: f(1),
            wmin: f(2),
            alpha: Alpha::from(alpha_raw),
            lambda: f(4),
        };
        let planted = read_u64(meta, 40) as usize;
        if planted > self.node_count as usize {
            return Err(StoreError::Corrupt(format!(
                "planted count {planted} exceeds {} vertices",
                self.node_count
            )));
        }
        Ok((params, planted))
    }

    /// Section `id` as `count` little-endian `f64`s.
    fn f64_section(&self, id: SectionId, count: usize) -> Result<Cow<'_, [f64]>, StoreError> {
        let bytes = self.section(id)?;
        if count.checked_mul(8) != Some(bytes.len()) {
            return Err(StoreError::Corrupt(format!(
                "{} section is {} bytes, expected {count} f64 values",
                id.name(),
                bytes.len(),
            )));
        }
        Ok(le_words(bytes).expect("length is a multiple of 8"))
    }

    /// The packed position coordinates: `node_count · dim` canonical torus
    /// coordinates, vertex-major. Zero-copy when the section is aligned in
    /// a little-endian mapping; the coordinates were range-checked at open.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if geometry is absent or malformed, and
    /// [`StoreError::Corrupt`] if any coordinate lies outside the canonical
    /// torus `[0, 1)` (NaN included).
    pub fn packed_positions(&self) -> Result<Cow<'_, [f64]>, StoreError> {
        let count = self
            .node_count()
            .checked_mul(self.dim as usize)
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "{} vertices of dimension {} overflow the POS size",
                    self.node_count, self.dim
                ))
            })?;
        let positions = self.f64_section(SectionId::Pos, count)?;
        if let Some(Flaw::Coordinate(c)) = self.flaw(SectionId::Pos) {
            return Err(StoreError::Corrupt(format!(
                "position coordinate {c} outside the canonical torus"
            )));
        }
        Ok(positions)
    }

    /// The packed vertex weights (`node_count` values). Zero-copy when
    /// aligned, like [`GraphStore::packed_positions`]; checked finite at
    /// open.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if geometry is absent or malformed, and
    /// [`StoreError::Corrupt`] if any weight is not finite.
    pub fn packed_weights(&self) -> Result<Cow<'_, [f64]>, StoreError> {
        let weights = self.f64_section(SectionId::Weight, self.node_count())?;
        if self.flaw(SectionId::Weight) == Some(Flaw::NonFiniteWeight) {
            return Err(StoreError::Corrupt("non-finite vertex weight".into()));
        }
        Ok(weights)
    }

    /// Reassembles the stored GIRG: adjacency, positions, weights, and
    /// parameters, bit-for-bit as written. The adjacency decodes as
    /// [`GraphStore::load_graph`] does; positions and weights are copied
    /// out of the lanes open checked into vectors of exact size that, like
    /// the decoded arrays, are advised onto huge pages before first touch.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::DimensionMismatch`] when `D` differs from the
    /// stored dimension, and the usual variants for missing/corrupt
    /// sections. Non-finite or out-of-range coordinates and non-finite
    /// weights are rejected as [`StoreError::Corrupt`] (by
    /// [`GraphStore::packed_positions`] / [`GraphStore::packed_weights`])
    /// rather than panicking.
    pub fn load_girg<const D: usize>(&self) -> Result<Girg<D>, StoreError> {
        if self.dim as usize != D {
            return Err(StoreError::DimensionMismatch {
                file: self.dim,
                expected: D as u32,
            });
        }
        let graph = self.load_graph()?;
        let flat = self.packed_positions()?;
        // `packed_positions` checked every coordinate canonical
        let mut positions = huge_page_vec(self.node_count());
        Point::from_canonical(&flat, &mut positions);
        let lane = self.packed_weights()?;
        let mut weights = huge_page_vec(lane.len());
        weights.extend_from_slice(&lane);
        let (params, planted) = self.params()?;
        if graph.node_count() != self.node_count as usize {
            return Err(StoreError::Corrupt(
                "adjacency and header disagree on the vertex count".into(),
            ));
        }
        Ok(Girg::from_parts(graph, positions, weights, params, planted))
    }

    /// Loads the stored shard partition.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingSection`] when the store was written
    /// without shards, or [`StoreError::Corrupt`] on malformed payload.
    pub fn load_shards(&self) -> Result<ShardedStore, StoreError> {
        ShardedStore::from_bytes(self.section(SectionId::Shards)?, self.node_count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_up_is_exact_on_boundaries() {
        assert_eq!(round_up(0, PAGE), 0);
        assert_eq!(round_up(1, PAGE), PAGE);
        assert_eq!(round_up(PAGE, PAGE), PAGE);
        assert_eq!(round_up(PAGE + 1, PAGE), 2 * PAGE);
    }
}
