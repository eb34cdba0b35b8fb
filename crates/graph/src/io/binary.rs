//! The binary container — the persistence substrate for frozen
//! artifacts.
//!
//! The text edge list ([`io::to_edge_list`](crate::io::to_edge_list)) is
//! for humans and fixtures; serving replicas ship *binary* artifacts.
//! This module defines the one container envelope every `vft-spanner`
//! binary artifact uses (byte-level spec in `docs/ARTIFACT_FORMAT.md`):
//!
//! ```text
//! magic: [u8; 8]                      file-type tag, e.g. b"VFTSPANR"
//! version: u32 LE                     FORMAT_VERSION (exact match required)
//! flags: u32 LE                       file-type bit set (unknown bits rejected)
//! section_count: u64 LE
//! table: section_count entries of
//!     tag u32, reserved u32, offset u64, len u64
//! payloads                            each 8-byte aligned, zero padding between
//! checksum: u64 LE                    word-wise FNV-1a 64 over all preceding bytes
//! ```
//!
//! Three properties the serving story depends on:
//!
//! * **Decoding never panics.** Every read is bounds-checked through
//!   [`ByteReader`] or validated up front by [`parse_container`];
//!   truncated, corrupt, or crafted input surfaces as a typed
//!   [`BinaryError`] (the binary sibling of
//!   [`ParseGraphError`](crate::io::ParseGraphError)), never a panic or
//!   an abort — and claimed lengths are validated against the bytes
//!   actually present *before* any allocation is sized from them.
//! * **Version compatibility is explicit.** A decoder accepts exactly
//!   [`FORMAT_VERSION`] ([`BinaryError::UnsupportedVersion`] otherwise)
//!   and rejects section tags it does not recognize, so an artifact of
//!   another version is refused instead of misread. Artifacts are
//!   rebuilt from their parents rather than migrated.
//! * **Encoding is canonical.** The same value always encodes to the
//!   same bytes (sections in fixed order, forced offsets, zero padding,
//!   adjacency derived from the edge list), so `encode ∘ decode ∘
//!   encode` is byte-identical and artifacts can be compared or
//!   content-addressed by hash.
//!
//! On top of the container sits the graph payload codec:
//! [`write_view_payload`] serializes any [`GraphView`] as `node_count,
//! edge_count, (u, v, w)*`, and [`read_graph_payload`] rebuilds a
//! [`Graph`] from it, enforcing the simple-graph invariants.
//! `spanner_core`'s `FrozenSpanner::encode`/`decode` embed graph and
//! in-place CSR payloads as sections of the `VFTSPANR` artifact, the one
//! file type built on this container.
//!
//! # Examples
//!
//! ```
//! use spanner_graph::io::binary::{self, ByteReader, ContainerWriter};
//! use spanner_graph::generators;
//!
//! let mut payload = Vec::new();
//! binary::write_view_payload(&generators::petersen(), &mut payload);
//! let mut writer = ContainerWriter::new(*b"EXAMPLE1", 0);
//! writer.section(1, payload);
//! let bytes = writer.finish();
//!
//! let container = binary::parse_container(&bytes, *b"EXAMPLE1", 0)?;
//! let s = container.section(1).expect("section 1 was written");
//! let mut reader = ByteReader::new(&bytes[s.offset..s.offset + s.len]);
//! let back = binary::read_graph_payload(&mut reader)?;
//! assert_eq!(back.edge_count(), 15);
//! // Hostile input fails loudly, never panics.
//! assert!(binary::parse_container(&bytes[..bytes.len() - 1], *b"EXAMPLE1", 0).is_err());
//! # Ok::<(), spanner_graph::io::binary::BinaryError>(())
//! ```

use crate::{Graph, GraphError, GraphView, NodeId, Weight};
use std::error::Error;
use std::fmt;

/// The one version of the container format this module reads and
/// writes, for every file type. Decoders require an exact match; older
/// artifacts are refused and rebuilt from their parents (see the
/// compatibility policy in `docs/ARTIFACT_FORMAT.md`).
pub const FORMAT_VERSION: u32 = 3;

/// Byte width of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Errors from decoding a binary container. Every malformed input maps
/// to one of these — decoding never panics.
///
/// The enum is `Clone` so layers that decode lazily (the in-place open
/// path) can memoize a failure once and hand it back verbatim on
/// every subsequent access.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum BinaryError {
    /// The input ended before the field named by `context` was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The first eight bytes are not the expected file-type magic.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 8],
        /// The magic this decoder expected.
        expected: [u8; 8],
    },
    /// The header names a format version this decoder does not speak.
    UnsupportedVersion {
        /// The version in the file.
        found: u32,
        /// The version this decoder supports.
        supported: u32,
    },
    /// The trailing checksum does not match the content (corruption).
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum recomputed from the content.
        computed: u64,
    },
    /// A section tag this decoder does not recognize.
    UnknownSection {
        /// The offending tag.
        tag: u32,
    },
    /// The same section tag appeared twice.
    DuplicateSection {
        /// The offending tag.
        tag: u32,
    },
    /// A section (or the buffer backing it) missed the 8-byte alignment
    /// the in-place layout requires.
    MisalignedSection {
        /// What was misaligned (a table entry, a payload, a buffer base).
        context: &'static str,
        /// The offending byte offset.
        offset: u64,
    },
    /// A section the format requires was absent.
    MissingSection {
        /// Human name of the missing section.
        name: &'static str,
    },
    /// A field parsed but its value violates the format's invariants.
    Malformed {
        /// What was being validated.
        context: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The decoded edge list violated graph invariants
    /// (range/loops/duplicates), reported by the graph layer.
    Graph(GraphError),
}

/// Every stable error code a [`BinaryError`] can carry, one per variant.
/// The snapshot test in `crates/core/tests/error_taxonomy.rs` pins this
/// list against the constructed variants and against the taxonomy
/// appendix in `docs/ARTIFACT_FORMAT.md`: adding a variant without
/// updating both is a test failure, not a silent taxonomy drift.
pub const BINARY_ERROR_CODES: &[&str] = &[
    "artifact/truncation",
    "artifact/bad-magic",
    "artifact/bad-version",
    "artifact/bit-flip",
    "artifact/unknown-section",
    "artifact/section-replay",
    "artifact/misaligned-section",
    "artifact/missing-section",
    "artifact/malformed",
    "artifact/graph-invariant",
];

impl BinaryError {
    /// A stable, machine-readable error code (part of the public error
    /// taxonomy: codes never change meaning; new variants get new
    /// codes). Match on codes, not on variants, when forward
    /// compatibility matters — the enum is `#[non_exhaustive]`.
    ///
    /// Each code doubles as the attack class the decoder fails closed
    /// on (`docs/ARTIFACT_FORMAT.md`, "Attack classes & error
    /// taxonomy"): the checksum gate reports `artifact/bit-flip`, a
    /// duplicated section reports `artifact/section-replay`, an
    /// inflated length claim reports `artifact/malformed` or
    /// `artifact/truncation`, and so on.
    pub fn code(&self) -> &'static str {
        match self {
            BinaryError::Truncated { .. } => "artifact/truncation",
            BinaryError::BadMagic { .. } => "artifact/bad-magic",
            BinaryError::UnsupportedVersion { .. } => "artifact/bad-version",
            BinaryError::ChecksumMismatch { .. } => "artifact/bit-flip",
            BinaryError::UnknownSection { .. } => "artifact/unknown-section",
            BinaryError::DuplicateSection { .. } => "artifact/section-replay",
            BinaryError::MisalignedSection { .. } => "artifact/misaligned-section",
            BinaryError::MissingSection { .. } => "artifact/missing-section",
            BinaryError::Malformed { .. } => "artifact/malformed",
            BinaryError::Graph(_) => "artifact/graph-invariant",
        }
    }

    /// The operator-facing remediation hint for this error's code
    /// (printed by `spanner-artifact` next to the code, documented in
    /// the taxonomy appendix). Stable like the code itself.
    pub fn remediation(&self) -> &'static str {
        remediation_for_code(self.code())
    }
}

/// Remediation hint for a stable error code, shared by every layer that
/// reports codes (one source of truth for the CLI and the docs). An
/// unknown code gets the generic hint rather than a panic, so forward
/// compatibility holds here too.
pub fn remediation_for_code(code: &str) -> &'static str {
    match code {
        "artifact/truncation" => "re-transfer the artifact; the byte stream ended early",
        "artifact/bad-magic" => "check the file type; this is not the expected container",
        "artifact/bad-version" => "rebuild from the parent graph with `spanner-artifact build`",
        "artifact/bit-flip" => "re-transfer or rebuild the artifact from a trusted source; content does not match its checksum",
        "artifact/unknown-section" => "upgrade the decoder or re-encode without the unrecognized section",
        "artifact/section-replay" => "rebuild the artifact from a trusted source; a section tag appears more than once",
        "artifact/misaligned-section" => "rebuild the artifact, or load it into an 8-aligned buffer; a section or buffer misses the 8-byte alignment the in-place layout requires",
        "artifact/witnesses-detached" => "this artifact was built routing-only; rebuild without --detach-witnesses to serve witness queries",
        "artifact/missing-section" => "rebuild the artifact from a trusted source; a required section is absent",
        "artifact/malformed" => "rebuild the artifact from a trusted source; a field violates the format invariants",
        "artifact/graph-invariant" => "rebuild the artifact from a trusted source; the graph payload violates simple-graph invariants",
        "artifact/invalid-edge" => "query a spanner edge id below the artifact's edge count",
        "artifact/cross-section" => "rebuild the artifact from a trusted source; its sections contradict each other",
        _ => "rebuild the artifact from a trusted source",
    }
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            BinaryError::BadMagic { found, expected } => write!(
                f,
                "bad magic {found:?} (expected {:?})",
                String::from_utf8_lossy(expected)
            ),
            BinaryError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this decoder speaks version {supported})"
            ),
            BinaryError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BinaryError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
            BinaryError::DuplicateSection { tag } => write!(f, "duplicate section tag {tag}"),
            BinaryError::MisalignedSection { context, offset } => write!(
                f,
                "misaligned {context}: byte offset {offset} is not 8-byte aligned"
            ),
            BinaryError::MissingSection { name } => write!(f, "missing required {name} section"),
            BinaryError::Malformed { context, detail } => {
                write!(f, "malformed {context}: {detail}")
            }
            BinaryError::Graph(e) => write!(f, "invalid graph payload: {e}"),
        }
    }
}

impl Error for BinaryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BinaryError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for BinaryError {
    fn from(e: GraphError) -> Self {
        BinaryError::Graph(e)
    }
}

/// FNV-1a 64-bit folded 8 little-endian bytes per round — the
/// container's integrity checksum. Not cryptographic: it detects
/// truncation and accidental corruption (every input byte perturbs the
/// state), which is the contract — artifacts are trusted content once
/// verified. The word-wise fold keeps the scan cheap enough that
/// validating the envelope costs far less than materializing it on the
/// zero-copy `open` path. The trailing partial word is zero-padded and
/// the total length is folded in last, so buffers differing only in
/// trailing zero bytes still hash apart.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        hash = hash.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(PRIME)
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// A bounds-checked cursor over untrusted bytes: every read either
/// yields a value or a typed [`BinaryError::Truncated`] — no panics, no
/// silent wraparound.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes, or reports what was being read.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], BinaryError> {
        if self.remaining() < n {
            return Err(BinaryError::Truncated { context });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, BinaryError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, BinaryError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, BinaryError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Rejects trailing bytes after a fully parsed payload: a section
    /// that decodes but leaves unread bytes is malformed, not merely
    /// padded.
    pub fn expect_drained(&self, context: &'static str) -> Result<(), BinaryError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(BinaryError::Malformed {
                context,
                detail: format!("{} trailing bytes", self.remaining()),
            })
        }
    }

    /// Reads a length-like `u64` and proves it fits in memory here and
    /// now: the claimed `count` of `item_width`-byte items must not
    /// exceed the bytes actually remaining. This is what makes it safe
    /// to size allocations from decoded counts — a crafted
    /// `count = u64::MAX` fails the comparison instead of aborting the
    /// process in `Vec::with_capacity`.
    pub fn count(
        &mut self,
        item_width: usize,
        context: &'static str,
    ) -> Result<usize, BinaryError> {
        let raw = self.u64(context)?;
        let fits = usize::try_from(raw)
            .ok()
            .and_then(|c| c.checked_mul(item_width))
            .is_some_and(|total| total <= self.remaining());
        if !fits {
            return Err(BinaryError::Malformed {
                context,
                detail: format!(
                    "claimed count {raw} x {item_width} bytes exceeds the {} bytes present",
                    self.remaining()
                ),
            });
        }
        Ok(raw as usize)
    }
}

/// Byte width of the container header (magic + version + flags +
/// section count).
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Byte width of one section-table entry
/// (`tag u32, reserved u32, offset u64, len u64`).
pub const SECTION_ENTRY_LEN: usize = 24;

/// Alignment every section payload offset must satisfy, so packed
/// tables inside the payloads can be read in place.
pub const SECTION_ALIGN: usize = 8;

/// Rounds `len` up to the next [`SECTION_ALIGN`] boundary.
pub const fn align8(len: usize) -> usize {
    (len + (SECTION_ALIGN - 1)) & !(SECTION_ALIGN - 1)
}

/// One entry of a parsed section table: where the payload lives inside
/// the container bytes.
#[derive(Clone, Copy, Debug)]
pub struct Section {
    /// The section's tag.
    pub tag: u32,
    /// Absolute byte offset of the payload inside the container.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A structurally valid container: checksum verified, magic and version
/// matched, flags known, section table parsed and proven aligned,
/// ordered, in-bounds, and zero-padded. Payload interpretation is the
/// caller's job — crucially, payloads can be interpreted *in place*,
/// because every offset here has already been validated.
#[derive(Debug)]
pub struct Container {
    /// The header flag bits (all within the caller's known mask).
    pub flags: u32,
    /// The sections in file order (tags verified unique).
    pub sections: Vec<Section>,
}

impl Container {
    /// The location of the section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<Section> {
        self.sections.iter().find(|s| s.tag == tag).copied()
    }
}

/// Builds a container at [`FORMAT_VERSION`]: a fixed header (`magic,
/// version u32, flags u32, section_count u64`), a 24-byte-per-entry
/// section table, then the payloads — each starting on an 8-byte
/// boundary with zero padding between them and none after the last —
/// sealed by a trailing [`fnv1a64_words`] checksum.
///
/// The layout is canonical: given the same `(tag, payload)` sequence
/// the writer produces exactly one byte string, and [`parse_container`]
/// accepts no other encoding of it (padding must be zero, offsets are
/// forced, trailing bytes are rejected).
#[derive(Debug)]
pub struct ContainerWriter {
    magic: [u8; 8],
    flags: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl ContainerWriter {
    /// Starts a container with the given magic and header flags.
    pub fn new(magic: [u8; 8], flags: u32) -> Self {
        ContainerWriter {
            magic,
            flags,
            sections: Vec::new(),
        }
    }

    /// Appends one section in file order. Duplicate tags are not
    /// rejected here (the fuzzer uses this writer to build hostile
    /// replays); [`parse_container`] rejects them.
    pub fn section(&mut self, tag: u32, payload: Vec<u8>) -> &mut Self {
        self.sections.push((tag, payload));
        self
    }

    /// Seals the container: lays out the table and padded payloads,
    /// computes the checksum, and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = HEADER_LEN + table_len;
        for (i, (_, payload)) in self.sections.iter().enumerate() {
            offsets.push(cursor);
            cursor += payload.len();
            if i + 1 < self.sections.len() {
                cursor = align8(cursor);
            }
        }
        let mut buf = Vec::with_capacity(cursor + CHECKSUM_LEN);
        buf.extend_from_slice(&self.magic);
        put_u32(&mut buf, FORMAT_VERSION);
        put_u32(&mut buf, self.flags);
        put_u64(&mut buf, self.sections.len() as u64);
        for ((tag, payload), offset) in self.sections.iter().zip(&offsets) {
            put_u32(&mut buf, *tag);
            put_u32(&mut buf, 0); // reserved
            put_u64(&mut buf, *offset as u64);
            put_u64(&mut buf, payload.len() as u64);
        }
        for (i, (_, payload)) in self.sections.iter().enumerate() {
            debug_assert_eq!(buf.len(), offsets[i]);
            buf.extend_from_slice(payload);
            if i + 1 < self.sections.len() {
                buf.resize(align8(buf.len()), 0);
            }
        }
        let checksum = fnv1a64_words(&buf);
        put_u64(&mut buf, checksum);
        buf
    }
}

/// Parses and verifies a container envelope.
///
/// Validation order (each gate fully decided before the next): magic,
/// version (exactly [`FORMAT_VERSION`] — the version defines the rest of
/// the layout, checksum included, so an artifact of another version is
/// refused as such rather than as corrupt), overall length, trailing
/// checksum (verified *before* any other field is interpreted, so
/// corruption is reported as corruption rather than as whatever field
/// it happened to land in), header flags (`flags & !known_flags` must be
/// zero), section count (bounded by the bytes present before any
/// allocation), then each table entry in order — reserved field zero,
/// payload offset 8-byte aligned ([`BinaryError::MisalignedSection`]),
/// in bounds, at its canonical position, tag unique, and every padding
/// byte between payloads zero. Trailing bytes after the last payload
/// are rejected, which makes the encoding canonical.
///
/// # Errors
///
/// Any structural defect maps to the matching [`BinaryError`] variant;
/// no input can cause a panic.
pub fn parse_container(
    bytes: &[u8],
    magic: [u8; 8],
    known_flags: u32,
) -> Result<Container, BinaryError> {
    if bytes.len() < 12 {
        return Err(BinaryError::Truncated {
            context: "container header",
        });
    }
    if bytes[..8] != magic {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(BinaryError::BadMagic {
            found,
            expected: magic,
        });
    }
    let version = crate::bytes::read_u32_at(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(BinaryError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(BinaryError::Truncated {
            context: "container header",
        });
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let mut tail = ByteReader::new(&bytes[body_end..]);
    let stored = tail.u64("checksum")?;
    let computed = fnv1a64_words(&bytes[..body_end]);
    if stored != computed {
        return Err(BinaryError::ChecksumMismatch { stored, computed });
    }
    let flags = crate::bytes::read_u32_at(bytes, 12);
    if flags & !known_flags != 0 {
        return Err(BinaryError::Malformed {
            context: "container flags",
            detail: format!("unknown flag bits {:#010x}", flags & !known_flags),
        });
    }
    let count_raw = crate::bytes::read_u64_at(bytes, 16);
    let table_avail = body_end - HEADER_LEN;
    let count = usize::try_from(count_raw)
        .ok()
        .filter(|c| c.checked_mul(SECTION_ENTRY_LEN).is_some_and(|t| t <= table_avail))
        .ok_or_else(|| BinaryError::Malformed {
            context: "section table",
            detail: format!(
                "claimed count {count_raw} x {SECTION_ENTRY_LEN} bytes exceeds the {table_avail} bytes present"
            ),
        })?;
    let mut sections: Vec<Section> = Vec::with_capacity(count);
    let mut cursor = HEADER_LEN + count * SECTION_ENTRY_LEN;
    for i in 0..count {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let tag = crate::bytes::read_u32_at(bytes, at);
        let reserved = crate::bytes::read_u32_at(bytes, at + 4);
        let offset_raw = crate::bytes::read_u64_at(bytes, at + 8);
        let len_raw = crate::bytes::read_u64_at(bytes, at + 16);
        if reserved != 0 {
            return Err(BinaryError::Malformed {
                context: "section table",
                detail: format!("entry {i}: reserved field is {reserved:#x}, expected zero"),
            });
        }
        if offset_raw % SECTION_ALIGN as u64 != 0 {
            return Err(BinaryError::MisalignedSection {
                context: "section payload",
                offset: offset_raw,
            });
        }
        let (offset, len) = match (usize::try_from(offset_raw), usize::try_from(len_raw)) {
            (Ok(o), Ok(l)) if o.checked_add(l).is_some_and(|end| end <= body_end) => (o, l),
            _ => {
                return Err(BinaryError::Truncated {
                    context: "section payload",
                })
            }
        };
        // Exactly the minimum alignment padding is legal: anything else
        // would give one value two encodings and break canonicality.
        if offset != align8(cursor) {
            return Err(BinaryError::Malformed {
                context: "section table",
                detail: format!(
                    "entry {i}: offset {offset} is not the canonical position {}",
                    align8(cursor)
                ),
            });
        }
        if let Some(pos) = bytes[cursor..offset].iter().position(|&b| b != 0) {
            return Err(BinaryError::Malformed {
                context: "section padding",
                detail: format!("nonzero pad byte at offset {}", cursor + pos),
            });
        }
        if sections.iter().any(|s| s.tag == tag) {
            return Err(BinaryError::DuplicateSection { tag });
        }
        sections.push(Section { tag, offset, len });
        cursor = offset + len;
    }
    if cursor != body_end {
        return Err(BinaryError::Malformed {
            context: "container body",
            detail: format!(
                "{} trailing bytes after the last section",
                body_end - cursor
            ),
        });
    }
    Ok(Container { flags, sections })
}

/// Serializes any graph view as the canonical edge-list payload:
/// `node_count u64, edge_count u64`, then one `(u u32, v u32, w u64)`
/// record per edge in edge-id order. Adjacency is *not* stored — it is
/// derivable (and re-derived on decode) from the edge list under the
/// [`GraphView`] neighbor-order contract, which keeps the payload
/// minimal and the encoding canonical.
pub fn write_view_payload<V: GraphView>(view: &V, out: &mut Vec<u8>) {
    out.reserve(16 + EDGE_RECORD_LEN * view.edge_count());
    put_u64(out, view.node_count() as u64);
    put_u64(out, view.edge_count() as u64);
    for e in 0..view.edge_count() {
        let id = crate::EdgeId::new(e);
        let (u, v) = view.edge_endpoints(id);
        put_u32(out, u.raw());
        put_u32(out, v.raw());
        put_u64(out, view.edge_weight(id).get());
    }
}

/// Byte width of one `(u, v, w)` edge record in a graph payload.
const EDGE_RECORD_LEN: usize = 4 + 4 + 8;

/// Node counts a decoder accepts unconditionally, regardless of payload
/// size (the allocation guard in the graph-payload header read). Public
/// because the in-place CSR validator applies the identical
/// proportionality guard.
pub const NODE_COUNT_FLOOR: usize = 1 << 16;

/// Above [`NODE_COUNT_FLOOR`], every claimed node must be backed by at
/// least `1/NODE_BYTES_FACTOR` payload bytes.
pub const NODE_BYTES_FACTOR: usize = 64;

/// Reads the `(node_count, edge_count)` header of a graph payload and
/// validates both against the id width and the bytes present.
///
/// The node count is the one length a graph structure allocates by
/// directly (adjacency headers, CSR offsets), so it gets the same
/// input-proportionality guard as every other count: beyond a floor of
/// 2^16, each claimed node must be backed by payload bytes
/// (`n ≤ max(65 536, 64 × payload length)`). Any graph that is not
/// overwhelmingly isolated vertices satisfies this trivially — a
/// connected graph carries 16 bytes per edge with `m ≥ n − 1` — while a
/// 100-byte hostile file can no longer claim 2^32 nodes and force a
/// ~100 GiB adjacency allocation.
fn read_graph_header(r: &mut ByteReader<'_>) -> Result<(usize, usize), BinaryError> {
    let payload_len = r.remaining();
    let n = r.u64("node count")?;
    let bound = NODE_COUNT_FLOOR.max(payload_len.saturating_mul(NODE_BYTES_FACTOR));
    if n > u32::MAX as u64 || n > bound as u64 {
        return Err(BinaryError::Malformed {
            context: "node count",
            detail: format!(
                "claimed {n} nodes exceeds the decoder bound ({bound}) for a {payload_len}-byte payload"
            ),
        });
    }
    let m = r.count(EDGE_RECORD_LEN, "edge count")?;
    Ok((n as usize, m))
}

/// Reads one validated edge record: endpoints in range, no self-loop,
/// positive weight.
fn read_edge_record(
    r: &mut ByteReader<'_>,
    n: usize,
) -> Result<(NodeId, NodeId, Weight), BinaryError> {
    let u = r.u32("edge endpoint")? as usize;
    let v = r.u32("edge endpoint")? as usize;
    let w = r.u64("edge weight")?;
    if u >= n || v >= n {
        return Err(BinaryError::Malformed {
            context: "edge endpoint",
            detail: format!("endpoint out of range for {n} nodes"),
        });
    }
    if u == v {
        return Err(BinaryError::Malformed {
            context: "edge record",
            detail: format!("self-loop at vertex {u}"),
        });
    }
    let weight = Weight::new(w).ok_or(BinaryError::Malformed {
        context: "edge weight",
        detail: "zero weight".to_string(),
    })?;
    Ok((NodeId::new(u), NodeId::new(v), weight))
}

/// Rebuilds a [`Graph`] from a graph payload, enforcing the full
/// simple-graph invariants.
///
/// # Errors
///
/// [`BinaryError`] on truncation, malformed records, or structural
/// violations surfaced as [`BinaryError::Graph`].
pub fn read_graph_payload(r: &mut ByteReader<'_>) -> Result<Graph, BinaryError> {
    let (n, m) = read_graph_header(r)?;
    let mut graph = Graph::with_edge_capacity(n, m);
    for _ in 0..m {
        let (u, v, w) = read_edge_record(r, n)?;
        graph.try_add_edge(u, v, w)?;
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::read_u64_at;
    use crate::generators;

    const TEST_MAGIC: [u8; 8] = *b"VFTTESTC";

    /// The one section tag [`read_test_graph`] knows.
    const GRAPH_SECTION: u32 = 1;

    /// `payload` as the graph section of a test container.
    fn seal_graph_payload(payload: Vec<u8>) -> Vec<u8> {
        let mut w = ContainerWriter::new(TEST_MAGIC, 0);
        w.section(GRAPH_SECTION, payload);
        w.finish()
    }

    fn sealed_graph(view: &impl GraphView) -> Vec<u8> {
        let mut payload = Vec::new();
        write_view_payload(view, &mut payload);
        seal_graph_payload(payload)
    }

    /// Reads a test container the way an artifact decoder reads one:
    /// the container gates, known section tags only, then the graph
    /// payload, which must fill its section exactly.
    fn read_test_graph(bytes: &[u8]) -> Result<Graph, BinaryError> {
        let container = parse_container(bytes, TEST_MAGIC, 0)?;
        if let Some(s) = container.sections.iter().find(|s| s.tag != GRAPH_SECTION) {
            return Err(BinaryError::UnknownSection { tag: s.tag });
        }
        let s = container
            .section(GRAPH_SECTION)
            .ok_or(BinaryError::MissingSection { name: "graph" })?;
        let mut r = ByteReader::new(&bytes[s.offset..s.offset + s.len]);
        let graph = read_graph_payload(&mut r)?;
        r.expect_drained("graph section")?;
        Ok(graph)
    }

    #[test]
    fn graph_payload_enforces_simple_graph() {
        let g = generators::cycle(5);
        let mut payload = Vec::new();
        write_view_payload(&g, &mut payload);
        let back = read_graph_payload(&mut ByteReader::new(&payload)).unwrap();
        assert_eq!(back.edge_count(), 5);
        // Extreme weights and the empty graph survive, and a decoded
        // graph re-encodes to the same bytes.
        let heavy =
            Graph::from_weighted_edges(4, [(0, 1, 5), (1, 2, 2), (0, 3, u64::MAX - 1)]).unwrap();
        for g in [heavy, Graph::new(0)] {
            let bytes = sealed_graph(&g);
            assert_eq!(sealed_graph(&read_test_graph(&bytes).unwrap()), bytes);
        }
        // A duplicate edge is refused with a typed error.
        let mut dup = Vec::new();
        put_u64(&mut dup, 3);
        put_u64(&mut dup, 2);
        for _ in 0..2 {
            put_u32(&mut dup, 0);
            put_u32(&mut dup, 1);
            put_u64(&mut dup, 1);
        }
        assert!(matches!(
            read_graph_payload(&mut ByteReader::new(&dup)),
            Err(BinaryError::Graph(_))
        ));
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let g = generators::petersen();
        let bytes = sealed_graph(&g);
        for len in 0..bytes.len() {
            assert!(
                read_test_graph(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_errors() {
        let g = generators::cycle(6);
        let bytes = sealed_graph(&g);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            assert!(
                read_test_graph(&corrupt).is_err(),
                "flipping byte {i} must be detected"
            );
        }
    }

    #[test]
    fn wrong_magic_version_and_checksum_are_typed() {
        let g = generators::cycle(4);
        let bytes = sealed_graph(&g);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            read_test_graph(&wrong_magic),
            Err(BinaryError::BadMagic { .. })
        ));

        // Older and newer versions alike are refused, never guessed —
        // whether or not the checksum matches this version's algorithm,
        // because the header is read before the checksum it defines.
        for (version, sealed) in [(1u32, false), (1, true), (2, false), (2, true), (4, true)] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            if sealed {
                reseal(&mut other);
            }
            let err = read_test_graph(&other).unwrap_err();
            assert!(
                matches!(
                    err,
                    BinaryError::UnsupportedVersion {
                        found,
                        supported: FORMAT_VERSION
                    } if found == version
                ),
                "version {version}: {err}"
            );
            assert_eq!(err.code(), "artifact/bad-version");
        }

        let mut bad_sum = bytes.clone();
        let last = bad_sum.len() - 1;
        bad_sum[last] ^= 0xff;
        assert!(matches!(
            read_test_graph(&bad_sum),
            Err(BinaryError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn oversized_counts_rejected_before_allocation() {
        // A payload claiming u64::MAX edges in a 16-byte body must fail
        // the count check, not abort in Vec::with_capacity.
        let mut payload = Vec::new();
        put_u64(&mut payload, 4);
        put_u64(&mut payload, u64::MAX);
        assert!(matches!(
            read_test_graph(&seal_graph_payload(payload)),
            Err(BinaryError::Malformed { .. })
        ));
        // The node count allocates adjacency headers directly, so a tiny
        // payload claiming ~2^32 nodes (and 0 edges, passing the edge
        // guard) must be rejected by the proportionality bound too.
        let mut payload = Vec::new();
        put_u64(&mut payload, u32::MAX as u64);
        put_u64(&mut payload, 0);
        assert!(matches!(
            read_test_graph(&seal_graph_payload(payload)),
            Err(BinaryError::Malformed { .. })
        ));
        // While the floor keeps small isolated-vertex graphs legal.
        let bytes = sealed_graph(&Graph::new(50_000));
        assert_eq!(read_test_graph(&bytes).unwrap().node_count(), 50_000);
    }

    #[test]
    fn unknown_and_duplicate_sections_rejected() {
        let mut payload = Vec::new();
        write_view_payload(&generators::cycle(3), &mut payload);
        let mut w = ContainerWriter::new(TEST_MAGIC, 0);
        w.section(GRAPH_SECTION, payload.clone());
        w.section(99, Vec::new());
        assert!(matches!(
            read_test_graph(&w.finish()),
            Err(BinaryError::UnknownSection { tag: 99 })
        ));
        let mut w = ContainerWriter::new(TEST_MAGIC, 0);
        w.section(GRAPH_SECTION, payload.clone());
        w.section(GRAPH_SECTION, payload);
        assert!(matches!(
            read_test_graph(&w.finish()),
            Err(BinaryError::DuplicateSection { .. })
        ));
    }

    fn v2_two_sections() -> Vec<u8> {
        let mut w = ContainerWriter::new(TEST_MAGIC, 0);
        w.section(1, vec![0xAA; 5]); // 5 bytes: forces 3 pad bytes
        w.section(2, vec![0xBB; 8]);
        w.finish()
    }

    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - CHECKSUM_LEN;
        let sum = fnv1a64_words(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
    }

    #[test]
    fn v2_envelope_round_trips_and_is_canonical() {
        let bytes = v2_two_sections();
        let c = parse_container(&bytes, TEST_MAGIC, 0).unwrap();
        assert_eq!(c.flags, 0);
        assert_eq!(c.sections.len(), 2);
        let s1 = c.section(1).unwrap();
        assert_eq!(&bytes[s1.offset..s1.offset + s1.len], &[0xAA; 5]);
        let s2 = c.section(2).unwrap();
        assert_eq!(s2.offset % SECTION_ALIGN, 0);
        assert_eq!(&bytes[s2.offset..s2.offset + s2.len], &[0xBB; 8]);
        // Re-emitting the same sections reproduces the bytes exactly.
        let mut again = ContainerWriter::new(TEST_MAGIC, 0);
        again.section(1, vec![0xAA; 5]);
        again.section(2, vec![0xBB; 8]);
        assert_eq!(again.finish(), bytes);
    }

    #[test]
    fn v2_every_truncation_and_flip_errors() {
        let bytes = v2_two_sections();
        for len in 0..bytes.len() {
            assert!(
                parse_container(&bytes[..len], TEST_MAGIC, 0).is_err(),
                "truncation to {len} must fail"
            );
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            assert!(
                parse_container(&corrupt, TEST_MAGIC, 0).is_err(),
                "flipping byte {i} must be detected"
            );
        }
    }

    #[test]
    fn v2_misaligned_offset_is_typed() {
        let mut bytes = v2_two_sections();
        // Bump section 0's table offset by one: no longer 8-byte aligned.
        let entry = HEADER_LEN + 8;
        let offset = read_u64_at(&bytes, entry) + 1;
        bytes[entry..entry + 8].copy_from_slice(&offset.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            parse_container(&bytes, TEST_MAGIC, 0),
            Err(BinaryError::MisalignedSection { offset: o, .. }) if o == offset
        ));
    }

    #[test]
    fn v2_rejects_nonzero_padding_reserved_and_trailing() {
        // Nonzero pad byte between the sections.
        let mut bytes = v2_two_sections();
        let c = parse_container(&bytes, TEST_MAGIC, 0).unwrap();
        let pad_at = c.section(1).unwrap().offset + 5; // first pad byte
        bytes[pad_at] = 1;
        reseal(&mut bytes);
        assert!(matches!(
            parse_container(&bytes, TEST_MAGIC, 0),
            Err(BinaryError::Malformed {
                context: "section padding",
                ..
            })
        ));
        // Nonzero reserved field in a table entry.
        let mut bytes = v2_two_sections();
        bytes[HEADER_LEN + 4] = 7;
        reseal(&mut bytes);
        assert!(matches!(
            parse_container(&bytes, TEST_MAGIC, 0),
            Err(BinaryError::Malformed {
                context: "section table",
                ..
            })
        ));
        // A non-canonical (over-padded) section offset.
        let mut w = ContainerWriter::new(TEST_MAGIC, 0);
        w.section(1, vec![0xAA; 5]);
        let mut bytes = w.finish();
        // Grow the file by 8 zero bytes before the checksum and shift the
        // (single) section 8 bytes right: still aligned, still zero
        // padding, but not the canonical position.
        let entry = HEADER_LEN + 8;
        let old_offset = read_u64_at(&bytes, entry) as usize;
        let mut grown = bytes[..old_offset].to_vec();
        grown.extend_from_slice(&[0u8; 8]);
        grown.extend_from_slice(&bytes[old_offset..bytes.len() - CHECKSUM_LEN]);
        grown.extend_from_slice(&[0u8; CHECKSUM_LEN]);
        grown[entry..entry + 8].copy_from_slice(&((old_offset + 8) as u64).to_le_bytes());
        reseal(&mut grown);
        assert!(matches!(
            parse_container(&grown, TEST_MAGIC, 0),
            Err(BinaryError::Malformed {
                context: "section table",
                ..
            })
        ));
        // Trailing bytes after the last section.
        bytes.truncate(bytes.len() - CHECKSUM_LEN);
        bytes.extend_from_slice(&[0u8; 4]);
        let sum = fnv1a64_words(&bytes).to_le_bytes();
        bytes.extend_from_slice(&sum);
        assert!(matches!(
            parse_container(&bytes, TEST_MAGIC, 0),
            Err(BinaryError::Malformed {
                context: "container body",
                ..
            })
        ));
    }

    #[test]
    fn v2_rejects_unknown_flags_version_and_oversized_count() {
        let mut w = ContainerWriter::new(TEST_MAGIC, 0b10);
        w.section(1, vec![1, 2, 3]);
        let bytes = w.finish();
        // Flag bit 1 is unknown to a decoder that only knows bit 0.
        assert!(matches!(
            parse_container(&bytes, TEST_MAGIC, 0b1),
            Err(BinaryError::Malformed {
                context: "container flags",
                ..
            })
        ));
        // But fine for a decoder that knows it.
        assert!(parse_container(&bytes, TEST_MAGIC, 0b11).is_ok());
        // Any other version is typed.
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&2u32.to_le_bytes());
        reseal(&mut old);
        assert!(matches!(
            parse_container(&old, TEST_MAGIC, 0b11),
            Err(BinaryError::UnsupportedVersion {
                found: 2,
                supported: FORMAT_VERSION
            })
        ));
        // A section count that cannot fit in the file fails before any
        // table-sized allocation.
        let mut huge = v2_two_sections();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut huge);
        assert!(matches!(
            parse_container(&huge, TEST_MAGIC, 0),
            Err(BinaryError::Malformed {
                context: "section table",
                ..
            })
        ));
        // Duplicate tags are a replay.
        let mut w = ContainerWriter::new(TEST_MAGIC, 0);
        w.section(1, vec![1]);
        w.section(1, vec![2]);
        assert!(matches!(
            parse_container(&w.finish(), TEST_MAGIC, 0),
            Err(BinaryError::DuplicateSection { tag: 1 })
        ));
    }

    #[test]
    fn malformed_records_rejected() {
        // (u, v, w) records for a 3-node payload, each invalid.
        let cases = [
            ("self-loop", (1u32, 1u32, 1u64)),
            ("out of range", (9, 0, 1)),
            ("zero weight", (0, 1, 0)),
        ];
        for (what, (u, v, w)) in cases {
            let mut payload = Vec::new();
            put_u64(&mut payload, 3);
            put_u64(&mut payload, 1);
            put_u32(&mut payload, u);
            put_u32(&mut payload, v);
            put_u64(&mut payload, w);
            assert!(
                matches!(
                    read_test_graph(&seal_graph_payload(payload)),
                    Err(BinaryError::Malformed { .. })
                ),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn every_variant_has_a_listed_code_and_remediation() {
        let variants = [
            BinaryError::Truncated { context: "x" },
            BinaryError::BadMagic {
                found: [0; 8],
                expected: TEST_MAGIC,
            },
            BinaryError::UnsupportedVersion {
                found: 2,
                supported: 1,
            },
            BinaryError::ChecksumMismatch {
                stored: 0,
                computed: 1,
            },
            BinaryError::UnknownSection { tag: 9 },
            BinaryError::DuplicateSection { tag: 1 },
            BinaryError::MisalignedSection {
                context: "section payload",
                offset: 1,
            },
            BinaryError::MissingSection { name: "meta" },
            BinaryError::Malformed {
                context: "x",
                detail: String::new(),
            },
            BinaryError::Graph(GraphError::SelfLoop {
                node: NodeId::new(0),
            }),
        ];
        let codes: Vec<&str> = variants.iter().map(BinaryError::code).collect();
        assert_eq!(codes, BINARY_ERROR_CODES, "taxonomy snapshot drifted");
        for e in &variants {
            assert!(
                !e.remediation().is_empty(),
                "{} has no remediation",
                e.code()
            );
        }
        // Unknown codes degrade to the generic hint, never panic.
        assert!(!remediation_for_code("artifact/not-a-code").is_empty());
    }

    #[test]
    fn error_display_and_source() {
        let e = BinaryError::Truncated { context: "header" };
        assert!(e.to_string().contains("header"));
        let g = BinaryError::from(GraphError::SelfLoop {
            node: NodeId::new(1),
        });
        assert!(g.source().is_some());
        assert!(BinaryError::MissingSection { name: "meta" }
            .to_string()
            .contains("meta"));
    }
}
