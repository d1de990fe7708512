//! File mapping: zero-copy `mmap(2)` on unix behind the `mmap` feature,
//! with a portable read-into-`Vec` fallback.
//!
//! # Safety notes (see also DESIGN.md §4h)
//!
//! A mapped file is shared memory: if another process truncates or rewrites
//! the file while it is mapped, loads can fault (`SIGBUS`) or observe torn
//! bytes. The store treats `.swg` files as immutable once written —
//! `girg_gen --out` writes to a fresh file — and verifies a CRC32 per
//! section immediately after mapping, so silent mid-read mutation is
//! outside the supported contract, exactly as for any mmap-based database.
//! The mapping is `MAP_PRIVATE` and read-only (`PROT_READ`), so the store
//! never writes through it.
//!
//! The `Vec` fallback (non-unix, or `--no-default-features`) has none of
//! these caveats at the cost of one full copy and the corresponding RSS.
//!
//! The same FFI advises the arrays a full decode fills onto transparent
//! huge pages ([`huge_page_vec`]), on Linux with the `mmap` feature.

use std::fs::File;
use std::io::Read;
use std::ops::Deref;
use std::path::Path;

/// A read-only view of a file's bytes: either an owned buffer or a live
/// memory mapping (unmapped on drop).
#[derive(Debug)]
pub enum Mapping {
    /// The file was read into an owned buffer.
    Owned(Vec<u8>),
    /// The file is memory-mapped (unix, `mmap` feature).
    #[cfg(all(feature = "mmap", unix))]
    Mapped {
        /// Page-aligned base address returned by `mmap(2)`.
        ptr: *const u8,
        /// Length of the mapping in bytes.
        len: usize,
    },
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared bytes,
// safe to read from any thread; the raw pointer is never handed out mutably.
#[cfg(all(feature = "mmap", unix))]
unsafe impl Send for Mapping {}
#[cfg(all(feature = "mmap", unix))]
unsafe impl Sync for Mapping {}

impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Mapping::Owned(v) => v,
            #[cfg(all(feature = "mmap", unix))]
            Mapping::Mapped { ptr, len } => {
                // SAFETY: ptr/len describe a live PROT_READ mapping owned by
                // self; it is unmapped only in Drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(feature = "mmap", unix))]
        if let Mapping::Mapped { ptr, len } = *self {
            // SAFETY: exactly one munmap for the mmap that created this
            // variant; failure is unrecoverable and ignored (fd is closed).
            unsafe {
                sys::munmap(ptr as *mut core::ffi::c_void, len);
            }
        }
    }
}

impl Mapping {
    /// Whether this view aliases the page cache (true mmap) rather than an
    /// owned copy.
    pub fn is_zero_copy(&self) -> bool {
        match self {
            Mapping::Owned(_) => false,
            #[cfg(all(feature = "mmap", unix))]
            Mapping::Mapped { .. } => true,
        }
    }
}

#[cfg(all(feature = "mmap", unix))]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    // std already links libc on unix targets, so these symbols resolve
    // without any external crate. `off_t` is 64-bit on every tier-1 unix
    // target with 64-bit file offsets (Rust enables _FILE_OFFSET_BITS=64
    // semantics via the libc it links).
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        #[cfg(target_os = "linux")]
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    /// `madvise(2)` advice: back the range with transparent huge pages.
    #[cfg(target_os = "linux")]
    pub const MADV_HUGEPAGE: i32 = 14;
}

/// An empty vector with room for exactly `capacity` elements, whose
/// 2 MiB-aligned interior is advised for transparent huge pages before
/// anything touches it: a large array filled front to back then takes one
/// page fault per 2 MiB instead of one per 4 KiB. Only whole huge pages
/// inside the allocation are advised, so the advice never makes the
/// resident set larger than the allocation. The advice is a hint: where
/// it fails, where the kernel has huge pages switched off, off Linux and
/// without the `mmap` feature the vector is an ordinary one.
pub(crate) fn huge_page_vec<T>(capacity: usize) -> Vec<T> {
    let vec = Vec::with_capacity(capacity);
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    {
        const HUGE_PAGE: usize = 2 << 20;
        let base = vec.as_ptr() as usize;
        let start = base.next_multiple_of(HUGE_PAGE);
        let end = (base + vec.capacity() * std::mem::size_of::<T>()) / HUGE_PAGE * HUGE_PAGE;
        if start < end {
            // SAFETY: `[start, end)` lies inside the vector's own
            // allocation, and the advice changes no byte of it. Failure
            // leaves the range as it was and is ignored.
            unsafe {
                sys::madvise(
                    start as *mut core::ffi::c_void,
                    end - start,
                    sys::MADV_HUGEPAGE,
                );
            }
        }
    }
    vec
}

/// Maps `path` read-only, preferring `mmap(2)` when available and falling
/// back to reading the file into memory (always used for empty files, on
/// non-unix targets, without the `mmap` feature, or when the syscall
/// fails).
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be opened or read.
pub fn map_readonly(path: &Path) -> std::io::Result<Mapping> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let len_usize = usize::try_from(len).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "file exceeds address space")
    })?;

    #[cfg(all(feature = "mmap", unix))]
    if len_usize > 0 {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a valid open file descriptor; a NULL hint with
        // PROT_READ|MAP_PRIVATE over [0, len) is always a valid request.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len_usize,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize != -1 && !ptr.is_null() {
            return Ok(Mapping::Mapped {
                ptr: ptr as *const u8,
                len: len_usize,
            });
        }
        // fall through to the owned read on mmap failure
    }

    let mut buf = Vec::with_capacity(len_usize);
    file.read_to_end(&mut buf)?;
    Ok(Mapping::Owned(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smallworld-store-mmap-{}-{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("basic");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        File::create(&path).unwrap().write_all(&payload).unwrap();
        let mapping = map_readonly(&path).unwrap();
        assert_eq!(&mapping[..], &payload[..]);
        #[cfg(all(feature = "mmap", unix))]
        assert!(mapping.is_zero_copy());
        drop(mapping);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let mapping = map_readonly(&path).unwrap();
        assert!(mapping.is_empty());
        assert!(!mapping.is_zero_copy());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(map_readonly(Path::new("/nonexistent/smallworld.swg")).is_err());
    }
}
