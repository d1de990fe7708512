//! The `.swg` on-disk format: a versioned, checksummed, sectioned binary
//! container designed for zero-copy mapping.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SWGSTOR1"
//! 8       4     format version (u32 LE) = 1
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
//! All integers are little-endian. Every section payload carries its own
//! CRC32, verified when the file is opened. Payloads start on page
//! boundaries so that, under `mmap`, fixed-width sections (OFFSETS, POS,
//! WEIGHT) are naturally aligned for direct `&[u64]`/`&[f64]` views.
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

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use smallworld_geometry::Point;
use smallworld_graph::Graph;
use smallworld_models::girg::{Girg, GirgParams};
use smallworld_models::Alpha;

use crate::csr::CompressedCsr;
use crate::mmap::{map_readonly, Mapping};
use crate::shard::ShardedStore;
use crate::StoreError;

/// File magic: the first 8 bytes of every `.swg` store.
pub const MAGIC: [u8; 8] = *b"SWGSTOR1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Endianness marker stored little-endian.
const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;
/// Section payload alignment.
pub const PAGE: usize = 4096;
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
}

impl SectionId {
    fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "META",
            SectionId::Offsets => "OFFSETS",
            SectionId::Nbr => "NBR",
            SectionId::Pos => "POS",
            SectionId::Weight => "WEIGHT",
            SectionId::Shards => "SHARDS",
        }
    }
}

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 of `bytes` (IEEE polynomial, as in gzip/zlib).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Incremental CRC32 for producers that stream a payload to disk: start
/// from [`Crc32::new`], feed chunks, take [`Crc32::finish`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        self.0 = crc32_update(self.0, bytes);
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ CRC_TABLE[((state ^ b as u32) & 0xFF) as usize];
    }
    state
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

/// A section payload for the writer: bytes held in memory, or a spill file
/// an out-of-core producer already wrote (with its length and CRC32
/// accumulated while spilling). Both feed the identical layout code, so a
/// file-backed section is byte-for-byte what the in-memory path would have
/// written.
pub(crate) enum SectionSource {
    /// Payload materialized in memory.
    Bytes(Vec<u8>),
    /// Payload staged in a file, copied into the store in chunks.
    File {
        /// The staged payload file.
        path: std::path::PathBuf,
        /// Payload length in bytes.
        len: u64,
        /// CRC32 of the payload, precomputed by the producer.
        crc: u32,
    },
}

impl SectionSource {
    fn len(&self) -> u64 {
        match self {
            SectionSource::Bytes(b) => b.len() as u64,
            SectionSource::File { len, .. } => *len,
        }
    }

    fn crc(&self) -> u32 {
        match self {
            SectionSource::Bytes(b) => crc32(b),
            SectionSource::File { crc, .. } => *crc,
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
        table.extend_from_slice(&(*id as u32).to_le_bytes());
        table.extend_from_slice(&payload.crc().to_le_bytes());
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
    let mut crc_state = crc32_update(0xFFFF_FFFF, &header);
    crc_state = crc32_update(crc_state, &table);
    header.extend_from_slice(&(crc_state ^ 0xFFFF_FFFF).to_le_bytes());
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

fn adjacency_sections(graph: &Graph) -> (CompressedCsr, Vec<(SectionId, SectionSource)>) {
    let compressed = CompressedCsr::from_graph(graph);
    let offsets_bytes = offsets_section_bytes(compressed.offsets());
    let sections = vec![
        (SectionId::Offsets, SectionSource::Bytes(offsets_bytes)),
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
}

/// An opened `.swg` store: the file mapped (or read) into memory with the
/// header parsed and every section checksum verified.
///
/// Loading is layered: [`GraphStore::load_graph`] decodes the adjacency,
/// [`GraphStore::load_girg`] reassembles the full [`Girg`], and the
/// `packed_*` accessors expose the geometry sections without materializing
/// `Point` vectors — the zero-copy path for kernels that score straight off
/// the store (`smallworld_core::GirgObjective::from_lanes`).
#[derive(Debug)]
pub struct GraphStore {
    mapping: Mapping,
    sections: Vec<SectionEntry>,
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

impl GraphStore {
    /// Opens a `.swg` store, via `mmap` when available (see
    /// [`map_readonly`](crate::map_readonly)). The header, section table,
    /// and every section checksum are validated before this returns.
    ///
    /// # Errors
    ///
    /// Returns the appropriate [`StoreError`] variant for I/O failures,
    /// foreign files, version or endianness mismatches, truncation, and
    /// checksum failures.
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
        let mut crc_state = crc32_update(0xFFFF_FFFF, &bytes[..44]);
        crc_state = crc32_update(crc_state, &bytes[HEADER_LEN..table_end]);
        if crc_state ^ 0xFFFF_FFFF != stored_crc {
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
            if crc32(&bytes[offset..end]) != crc {
                return Err(StoreError::ChecksumMismatch {
                    section: section_name(id),
                });
            }
            sections.push(SectionEntry { id, offset, len });
        }

        Ok(GraphStore {
            mapping,
            sections,
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
    pub(crate) fn target_count(&self) -> usize {
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

    pub(crate) fn section(&self, id: SectionId) -> Result<&[u8], StoreError> {
        self.sections
            .iter()
            .find(|s| s.id == id as u32)
            .map(|s| &self.mapping[s.offset..s.offset + s.len])
            .ok_or(StoreError::MissingSection(id.name()))
    }

    /// The compressed adjacency (copies the two sections out of the
    /// mapping).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the sections are missing or malformed.
    pub fn compressed(&self) -> Result<CompressedCsr, StoreError> {
        let offsets_bytes = self.section(SectionId::Offsets)?;
        let expected = (self.node_count as usize + 1) * 8;
        if offsets_bytes.len() != expected {
            return Err(StoreError::Corrupt(format!(
                "OFFSETS section is {} bytes, expected {expected}",
                offsets_bytes.len()
            )));
        }
        let offsets: Vec<u64> = offsets_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let data = self.section(SectionId::Nbr)?.to_vec();
        CompressedCsr::from_raw_parts(offsets, data, self.target_count as usize)
    }

    /// Decodes the full adjacency into a [`Graph`].
    ///
    /// Goes through [`GraphStore::mapped_graph`], which decodes straight
    /// out of the mapping — no intermediate copy of the NBR bytes or the
    /// offsets index is made (the `open_buffered` fallback used to pay
    /// both copies on top of its owned file buffer).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on missing or malformed sections.
    pub fn load_graph(&self) -> Result<Graph, StoreError> {
        self.mapped_graph()?.decode_full()
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

    fn f64_section(&self, id: SectionId, expected: usize) -> Result<Cow<'_, [f64]>, StoreError> {
        let bytes = self.section(id)?;
        if bytes.len() != expected * 8 {
            return Err(StoreError::Corrupt(format!(
                "{} section is {} bytes, expected {}",
                id.name(),
                bytes.len(),
                expected * 8
            )));
        }
        #[cfg(target_endian = "little")]
        {
            // SAFETY: every bit pattern is a valid f64; align_to only
            // reinterprets, and the borrowed path is taken solely when the
            // slice is 8-aligned (mmap'd sections are page-aligned).
            let (pre, mid, post) = unsafe { bytes.align_to::<f64>() };
            if pre.is_empty() && post.is_empty() {
                return Ok(Cow::Borrowed(mid));
            }
        }
        Ok(Cow::Owned(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect(),
        ))
    }

    /// The packed position coordinates: `node_count · dim` canonical torus
    /// coordinates, vertex-major. Zero-copy when the section is aligned in
    /// a little-endian mapping.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if geometry is absent or malformed, and
    /// [`StoreError::Corrupt`] if any coordinate lies outside the canonical
    /// torus `[0, 1)` (NaN included).
    pub fn packed_positions(&self) -> Result<Cow<'_, [f64]>, StoreError> {
        let positions = self.f64_section(
            SectionId::Pos,
            self.node_count as usize * self.dim as usize,
        )?;
        if let Some(c) = positions.iter().find(|c| !(0.0..1.0).contains(*c)) {
            return Err(StoreError::Corrupt(format!(
                "position coordinate {c} outside the canonical torus"
            )));
        }
        Ok(positions)
    }

    /// The packed vertex weights (`node_count` values). Zero-copy when
    /// aligned, like [`GraphStore::packed_positions`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if geometry is absent or malformed, and
    /// [`StoreError::Corrupt`] if any weight is not finite.
    pub fn packed_weights(&self) -> Result<Cow<'_, [f64]>, StoreError> {
        let weights = self.f64_section(SectionId::Weight, self.node_count as usize)?;
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(StoreError::Corrupt("non-finite vertex weight".into()));
        }
        Ok(weights)
    }

    /// Reassembles the stored GIRG: adjacency, positions, weights, and
    /// parameters, bit-for-bit as written.
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
        let positions = flat.as_chunks::<D>().0.iter().map(|&c| Point::new(c)).collect();
        let weights = self.packed_weights()?;
        let (params, planted) = self.params()?;
        if graph.node_count() != self.node_count as usize {
            return Err(StoreError::Corrupt(
                "adjacency and header disagree on the vertex count".into(),
            ));
        }
        Ok(Girg::from_parts(
            graph,
            positions,
            weights.into_owned(),
            params,
            planted,
        ))
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

fn section_name(id: u32) -> &'static str {
    match id {
        1 => "META",
        2 => "OFFSETS",
        3 => "NBR",
        4 => "POS",
        5 => "WEIGHT",
        6 => "SHARDS",
        _ => "unknown",
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
