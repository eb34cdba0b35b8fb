//! Shared, alignment-aware byte buffers — the backing store for in-place
//! (zero-copy) artifact views.
//!
//! The artifact layout (`docs/ARTIFACT_FORMAT.md`) lays every section
//! out at an 8-byte-aligned offset so the packed CSR tables can be read
//! directly from the file bytes. A [`SharedBytes`] is the cheaply
//! clonable handle those views hold: an `Arc` over any byte provider —
//! an `mmap(2)` region, an aligned heap copy, a `Vec` a test built — so
//! a frozen artifact and every view borrowed from it share one buffer
//! and one page cache.
//!
//! Two invariants the in-place readers rely on:
//!
//! * **Stability.** A provider must return the same slice (same address,
//!   same length, same contents) on every call for as long as any clone
//!   of the `SharedBytes` is alive. Validators check offsets once and
//!   then index without re-checking.
//! * **Alignment.** In-place views require the buffer base to sit on an
//!   8-byte boundary ([`BUFFER_ALIGN`]). `mmap` regions are page-aligned
//!   and satisfy this for free; [`SharedBytes::copy_aligned`] produces a
//!   conforming heap copy for everything else. Validators *verify* the
//!   alignment (`artifact/misaligned-section`) rather than assume it, so
//!   a misaligned provider fails closed instead of degrading.
//!
//! # Examples
//!
//! ```
//! use spanner_graph::bytes::SharedBytes;
//!
//! let shared = SharedBytes::copy_aligned(&[1, 2, 3, 4]);
//! assert_eq!(shared.as_slice(), &[1, 2, 3, 4]);
//! assert!(shared.is_aligned());
//! let clone = shared.clone(); // shares the same buffer
//! assert_eq!(clone.as_slice().as_ptr(), shared.as_slice().as_ptr());
//! ```

use std::fmt;
use std::sync::Arc;

/// Base alignment (bytes) an in-place artifact buffer must satisfy.
pub const BUFFER_ALIGN: usize = 8;

/// A cheaply clonable, shared, immutable byte buffer.
///
/// See the module docs for the stability and alignment contract.
#[derive(Clone)]
pub struct SharedBytes {
    source: Arc<dyn AsRef<[u8]> + Send + Sync>,
}

impl SharedBytes {
    /// Wraps an existing byte provider (an mmap region, a pre-aligned
    /// buffer, …) without copying.
    ///
    /// The provider must uphold the stability contract in the module
    /// docs; alignment is checked by the consumers that need it.
    pub fn from_source(source: Arc<dyn AsRef<[u8]> + Send + Sync>) -> Self {
        SharedBytes { source }
    }

    /// Copies `bytes` into a fresh heap buffer whose base address is
    /// guaranteed to satisfy [`BUFFER_ALIGN`] — the portable fallback
    /// when no page-aligned mapping is available.
    pub fn copy_aligned(bytes: &[u8]) -> Self {
        SharedBytes::from_source(Arc::new(AlignedBytes::copy_from(bytes)))
    }

    /// The shared bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.source.as_ref().as_ref()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Whether the buffer base sits on a [`BUFFER_ALIGN`] boundary.
    pub fn is_aligned(&self) -> bool {
        self.as_slice().as_ptr() as usize % BUFFER_ALIGN == 0
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len())
            .field("aligned", &self.is_aligned())
            .finish()
    }
}

/// A heap copy of a byte string whose first payload byte is guaranteed
/// to sit on a [`BUFFER_ALIGN`] boundary.
///
/// `Vec<u8>` only guarantees 1-byte alignment, so the copy over-allocates
/// by one alignment quantum and starts the payload at the first aligned
/// address inside the allocation — all in safe code (the buffer is never
/// reallocated after construction, so the computed start offset stays
/// valid).
pub struct AlignedBytes {
    buf: Vec<u8>,
    start: usize,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into an aligned buffer.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut buf = vec![0u8; bytes.len() + BUFFER_ALIGN];
        let residue = buf.as_ptr() as usize % BUFFER_ALIGN;
        let start = (BUFFER_ALIGN - residue) % BUFFER_ALIGN;
        buf[start..start + bytes.len()].copy_from_slice(bytes);
        AlignedBytes {
            buf,
            start,
            len: bytes.len(),
        }
    }

    /// The aligned payload.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for AlignedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len)
            .finish()
    }
}

/// Reads a little-endian `u32` at `offset`.
///
/// # Panics
///
/// Panics if `offset + 4` exceeds the slice — callers pass offsets a
/// validator has already bounds-checked.
#[inline]
pub fn read_u32_at(bytes: &[u8], offset: usize) -> u32 {
    let b = &bytes[offset..offset + 4];
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Reads a little-endian `u64` at `offset`.
///
/// # Panics
///
/// Panics if `offset + 8` exceeds the slice — callers pass offsets a
/// validator has already bounds-checked.
#[inline]
pub fn read_u64_at(bytes: &[u8], offset: usize) -> u64 {
    let b = &bytes[offset..offset + 8];
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_aligned_preserves_content_and_aligns() {
        for len in [0usize, 1, 7, 8, 9, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let shared = SharedBytes::copy_aligned(&data);
            assert_eq!(shared.as_slice(), &data[..]);
            assert!(shared.is_aligned(), "len {len} copy must be aligned");
            assert_eq!(shared.len(), len);
            assert_eq!(shared.is_empty(), len == 0);
        }
    }

    #[test]
    fn clones_share_the_same_buffer() {
        let shared = SharedBytes::copy_aligned(&[9u8; 64]);
        let clone = shared.clone();
        assert_eq!(shared.as_slice().as_ptr(), clone.as_slice().as_ptr());
    }

    #[test]
    fn from_source_wraps_without_copying() {
        let vec: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(vec![1u8, 2, 3]);
        let shared = SharedBytes::from_source(vec);
        assert_eq!(shared.as_slice(), &[1, 2, 3]);
        // Alignment is a property of the provider, not a promise of the
        // wrapper: a Vec-backed source may or may not be aligned, and
        // consumers must check.
        let _ = shared.is_aligned();
    }

    #[test]
    fn le_readers_match_manual_decoding() {
        let mut bytes = vec![0u8; 16];
        bytes[4..8].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        bytes[8..16].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(read_u32_at(&bytes, 4), 0xdead_beef);
        assert_eq!(read_u64_at(&bytes, 8), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn debug_formats_are_compact() {
        let shared = SharedBytes::copy_aligned(&[0u8; 5]);
        let dbg = format!("{shared:?}");
        assert!(dbg.contains("len: 5"), "{dbg}");
    }
}
