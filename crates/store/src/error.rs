//! The one error type of the store: every failure mode of the binary
//! `.swg` path and the legacy text path funnels into [`StoreError`], so
//! callers match on a single enum regardless of which serialization they
//! hit.

use std::error::Error;
use std::fmt;

use smallworld_graph::GraphError;
use smallworld_models::io::IoError;

/// Error reading or writing a stored graph.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (open, read, write, mmap).
    Io(std::io::Error),
    /// The file does not start with the `.swg` magic bytes.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file ended before the named structure was complete.
    Truncated {
        /// Which structure was cut short (header, section table, …).
        what: &'static str,
    },
    /// A section's stored CRC32 does not match its bytes.
    ChecksumMismatch {
        /// The section whose checksum failed.
        section: &'static str,
    },
    /// A required section is absent from the section table.
    MissingSection(&'static str),
    /// The file stores a different torus dimension than the caller asked
    /// for (e.g. loading a `d=3` file as `Girg<2>`).
    DimensionMismatch {
        /// Dimension recorded in the file header.
        file: u32,
        /// Dimension the caller requested.
        expected: u32,
    },
    /// Structurally invalid contents (bad varint stream, non-monotone
    /// offsets, out-of-range ids, …); the message names the spot.
    Corrupt(String),
    /// Decoded adjacency violated the CSR invariants.
    Graph(GraphError),
    /// Failure in the legacy plain-text format (`smallworld-girg v1`).
    Legacy(IoError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a .swg store (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported .swg format version {v}: this build reads version {}; \
                 write the store again with `girg_gen --out <path>.swg`",
                crate::VERSION
            ),
            StoreError::Truncated { what } => write!(f, "truncated .swg store: {what}"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            StoreError::MissingSection(s) => write!(f, "missing section {s}"),
            StoreError::DimensionMismatch { file, expected } => {
                write!(f, "store has dimension {file}, expected {expected}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt .swg store: {msg}"),
            StoreError::Graph(e) => write!(f, "invalid stored adjacency: {e}"),
            StoreError::Legacy(e) => write!(f, "legacy text format: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Graph(e) => Some(e),
            StoreError::Legacy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

impl From<IoError> for StoreError {
    fn from(e: IoError) -> Self {
        StoreError::Legacy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        assert!(StoreError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(StoreError::UnsupportedVersion(1)
            .to_string()
            .contains("girg_gen --out"));
        assert!(
            StoreError::ChecksumMismatch { section: "NBR" }
                .to_string()
                .contains("NBR")
        );
        assert!(
            StoreError::DimensionMismatch { file: 3, expected: 2 }
                .to_string()
                .contains("dimension 3")
        );
    }

    #[test]
    fn sources_are_threaded() {
        let io = StoreError::from(std::io::Error::other("x"));
        assert!(io.source().is_some());
        assert!(StoreError::BadMagic.source().is_none());
    }
}
