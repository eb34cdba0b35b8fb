//! The frozen spanner artifact: the construction's output, sealed for
//! serving.
//!
//! A [`Spanner`] is a *construction-time* object: it
//! grows edge by edge and keeps an incremental CSR view so the fault
//! oracle can query it mid-build. Once the construction finishes, the
//! consumer-facing problem inverts — the spanner never changes again,
//! but it is read by every query of every epoch, possibly from many
//! threads at once. [`FrozenSpanner`] is the artifact for that phase:
//!
//! * the adjacency is finalized into a cache-packed, immutable
//!   [`FrozenCsr`] (one contiguous record per neighbor slot);
//! * the bookkeeping a serving layer needs travels with it — the
//!   spanner-edge → parent-edge map *and* its precomputed inverse (so
//!   translating a parent-id fault set costs O(|F|), not O(|E(H)|) as
//!   [`Spanner::fault_mask`](crate::Spanner::fault_mask) pays), the
//!   stretch target, and optionally the parent graph handle, the fault
//!   budget/model it was built for, and the recorded witness fault sets;
//! * the whole structure is immutable and `Send + Sync`: share one
//!   artifact across any number of
//!   [`EpochServer`](crate::serve::EpochServer) sessions via `Arc` and
//!   serve from every core at once.
//!
//! Freeze from either layer: [`Spanner::freeze`](crate::Spanner::freeze)
//! seals the subgraph alone; [`FtSpanner::freeze`](crate::FtSpanner::freeze)
//! additionally records the parent handle, budget, model and witnesses
//! (the metadata adversarial replay and stretch audits feed on).
//!
//! # Persistence: build once, serve many
//!
//! The expensive half of the Bodwin–Patel story is *construction* (every
//! kept edge pays an exact fault-oracle decision); serving is cheap.
//! [`FrozenSpanner::encode`] therefore turns the artifact into a
//! versioned binary document (the `VFTSPANR` container of
//! [`spanner_graph::io::binary`]; byte-level spec in
//! `docs/ARTIFACT_FORMAT.md`) and [`FrozenSpanner::decode`] loads it
//! back — in another process, on another machine — without re-running
//! FT-greedy. Everything a serving replica needs travels in the bytes:
//! the packed adjacency, stretch/budget/model metadata, the witness
//! map, both parent↔spanner edge translation tables (the inverse stored
//! rather than re-derived, so decode's allocations stay bounded by the
//! input — and revalidated element-wise against the forward table), and
//! optionally the parent graph itself.
//!
//! The codec's contract, pinned by `tests/artifact_props.rs`:
//!
//! * `decode(encode(a))` re-encodes **byte-identically** and serves
//!   every epoch'd query batch **bit-identically** to `a`;
//! * truncated, corrupt, or crafted input returns a typed
//!   [`ArtifactError`] — decoding never panics;
//! * unknown format versions and unknown sections are rejected with
//!   typed errors, never misread (the compatibility policy).
//!
//! The `spanner-artifact` harness binary wraps the codec for the shell
//! (`build` / `inspect` / `serve`), and CI round-trips an artifact
//! through a fresh process on every push.

use crate::landmarks::Landmarks;
use crate::Spanner;
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::bytes::{read_u32_at, read_u64_at, SharedBytes};
use spanner_graph::io::binary::{self, put_u32, put_u64, BinaryError, ByteReader, ContainerWriter};
use spanner_graph::{EdgeId, FaultMask, FrozenCsr, Graph, GraphView, NodeId};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Magic bytes of a persisted [`FrozenSpanner`] container.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"VFTSPANR";

/// The v1 container format: tag/length section framing, eager decode.
/// This is what freeze paths write by default; [`FrozenSpanner::decode`]
/// accepts it forever.
pub const ARTIFACT_VERSION: u32 = 1;

/// The v2 container format: alignment-padded sections behind a 64-bit
/// section table, readable **in place** via [`FrozenSpanner::open`].
/// Produced by [`FrozenSpanner::to_v2`] / `spanner-artifact migrate`.
pub const ARTIFACT_VERSION_V2: u32 = 2;

/// v2 header flag: the artifact is routing-only — the witness section
/// was detached at build time and witness accessors return
/// [`ArtifactError::WitnessesDetached`].
pub const FLAG_WITNESSES_DETACHED: u32 = 1;

/// v2 header flag: the witness map is stored *sharded* — every record is
/// zero-padded to an 8-byte boundary and a [`SECTION_WITNESS_INDEX`]
/// section carries per-edge offsets into it, so
/// [`FrozenSpanner::witnesses_for`] decodes only the bytes of the edge
/// it was asked about. Produced by [`FrozenSpanner::to_v2_sharded`] /
/// `spanner-artifact migrate --shard`.
pub const FLAG_WITNESSES_SHARDED: u32 = 2;

/// Construction metadata: stretch, model, budget, counts.
pub const SECTION_META: u32 = 1;
/// The spanner adjacency (graph payload, edge ids = spanner edge ids).
pub const SECTION_SPANNER: u32 = 2;
/// Spanner-edge → parent-edge id map, in spanner edge-id order.
pub const SECTION_PARENT_EDGES: u32 = 3;
/// Recorded witness fault sets, indexed by spanner edge id.
pub const SECTION_WITNESSES: u32 = 4;
/// The parent graph (graph payload), present iff the artifact carries
/// the handle.
pub const SECTION_PARENT: u32 = 5;
/// Per-edge offset index over [`SECTION_WITNESSES`]: `count` then
/// `count + 1` monotone 8-aligned `u64` offsets bracketing each witness
/// record. Present iff [`FLAG_WITNESSES_SHARDED`] is set.
pub const SECTION_WITNESS_INDEX: u32 = 6;

/// Errors from [`FrozenSpanner::decode`] / [`FrozenSpanner::open`]:
/// either the container itself is bad, it parsed but describes an
/// inconsistent artifact, or an accessor asked for data the artifact was
/// deliberately built without. Hostile input always lands here — never
/// in a panic.
///
/// `Clone` so lazily-decoded sections can memoize a failure and return
/// it verbatim on every subsequent access.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The binary container was malformed (truncation, corruption, bad
    /// magic/version/section framing, invalid graph payload).
    Format(BinaryError),
    /// The container parsed, but its sections contradict each other
    /// (counts disagree, translation table out of range, spanner edges
    /// absent from the parent, …).
    Inconsistent {
        /// What was being cross-checked.
        context: &'static str,
        /// The contradiction found.
        detail: String,
    },
    /// The artifact is a routing-only replica: its witness section was
    /// detached at build time ([`FLAG_WITNESSES_DETACHED`]), so witness
    /// queries cannot be served from it.
    WitnessesDetached,
}

/// Stable error codes [`ArtifactError`] adds on top of the
/// [`BinaryError`] taxonomy
/// ([`BINARY_ERROR_CODES`](spanner_graph::io::binary::BINARY_ERROR_CODES)).
/// The full decode-path code set is the union of the two; the snapshot
/// test in `tests/error_taxonomy.rs` pins it.
pub const ARTIFACT_ERROR_CODES: &[&str] =
    &["artifact/cross-section", "artifact/witnesses-detached"];

impl ArtifactError {
    /// A stable, machine-readable error code (part of the public error
    /// taxonomy: codes never change meaning; new variants get new
    /// codes). Match on codes, not on variants, when forward
    /// compatibility matters — the enum is `#[non_exhaustive]`.
    ///
    /// [`ArtifactError::Format`] routes straight through
    /// [`BinaryError::code`] so the container-level taxonomy has one
    /// source of truth; the only code added at this layer is
    /// `artifact/cross-section` for sections that parse individually
    /// but contradict each other.
    pub fn code(&self) -> &'static str {
        match self {
            ArtifactError::Format(e) => e.code(),
            ArtifactError::Inconsistent { .. } => "artifact/cross-section",
            ArtifactError::WitnessesDetached => "artifact/witnesses-detached",
        }
    }

    /// The operator-facing remediation hint for this error's code (one
    /// source of truth with the container layer:
    /// [`binary::remediation_for_code`]).
    pub fn remediation(&self) -> &'static str {
        binary::remediation_for_code(self.code())
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Format(e) => write!(f, "invalid artifact container: {e}"),
            ArtifactError::Inconsistent { context, detail } => {
                write!(f, "inconsistent artifact ({context}): {detail}")
            }
            ArtifactError::WitnessesDetached => {
                write!(f, "witnesses are detached from this routing-only artifact")
            }
        }
    }
}

impl Error for ArtifactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArtifactError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BinaryError> for ArtifactError {
    fn from(e: BinaryError) -> Self {
        ArtifactError::Format(e)
    }
}

/// Shorthand for building [`ArtifactError::Inconsistent`].
fn inconsistent(context: &'static str, detail: String) -> ArtifactError {
    ArtifactError::Inconsistent { context, detail }
}

/// Sentinel in the parent→spanner edge map for "not kept".
const NOT_KEPT: u32 = u32::MAX;

/// The spanner↔parent edge translation tables: owned `Vec`s (freeze and
/// v1 decode) or in-place reads over a shared v2 buffer (the open path).
/// Both store the forward table (spanner edge → parent edge id) and the
/// precomputed inverse, in the same canonical byte format.
#[derive(Clone, Debug)]
enum TranslationTables {
    Owned {
        parent_edges: Vec<EdgeId>,
        spanner_of_parent: Vec<u32>,
    },
    Bytes {
        bytes: SharedBytes,
        /// Absolute section range inside `bytes` (raw re-encode).
        at: usize,
        len: usize,
        fwd_count: usize,
        inv_count: usize,
    },
}

impl TranslationTables {
    fn fwd_len(&self) -> usize {
        match self {
            TranslationTables::Owned { parent_edges, .. } => parent_edges.len(),
            TranslationTables::Bytes { fwd_count, .. } => *fwd_count,
        }
    }

    /// Parent edge id of spanner edge `i`. Panics if `i` is out of range.
    fn fwd(&self, i: usize) -> EdgeId {
        match self {
            TranslationTables::Owned { parent_edges, .. } => parent_edges[i],
            TranslationTables::Bytes {
                bytes,
                at,
                fwd_count,
                ..
            } => {
                assert!(i < *fwd_count, "spanner edge out of range");
                EdgeId::from(read_u32_at(bytes.as_slice(), at + 8 + 4 * i))
            }
        }
    }

    fn inv_len(&self) -> usize {
        match self {
            TranslationTables::Owned {
                spanner_of_parent, ..
            } => spanner_of_parent.len(),
            TranslationTables::Bytes { inv_count, .. } => *inv_count,
        }
    }

    /// Inverse slot of parent edge `s` (`NOT_KEPT` when not kept).
    /// Panics if `s` is out of range.
    fn inv(&self, s: usize) -> u32 {
        match self {
            TranslationTables::Owned {
                spanner_of_parent, ..
            } => spanner_of_parent[s],
            TranslationTables::Bytes {
                bytes,
                at,
                fwd_count,
                inv_count,
                ..
            } => {
                assert!(s < *inv_count, "parent edge slot out of range");
                read_u32_at(bytes.as_slice(), at + 16 + 4 * fwd_count + 4 * s)
            }
        }
    }

    /// The canonical `PARENT_EDGES` section payload.
    fn payload(&self) -> Vec<u8> {
        match self {
            TranslationTables::Owned {
                parent_edges,
                spanner_of_parent,
            } => {
                let mut out =
                    Vec::with_capacity(16 + 4 * (parent_edges.len() + spanner_of_parent.len()));
                put_u64(&mut out, parent_edges.len() as u64);
                for id in parent_edges {
                    put_u32(&mut out, id.raw());
                }
                put_u64(&mut out, spanner_of_parent.len() as u64);
                for own in spanner_of_parent {
                    put_u32(&mut out, *own);
                }
                out
            }
            TranslationTables::Bytes { bytes, at, len, .. } => {
                bytes.as_slice()[*at..*at + *len].to_vec()
            }
        }
    }
}

/// Where the parent graph lives: absent, decoded (freeze / v1 decode),
/// or raw v2 section bytes decoded lazily on first use and memoized —
/// clones share the memo cell, so one decode serves every handle.
#[derive(Clone, Debug)]
enum ParentStore {
    None,
    Eager(Arc<Graph>),
    Lazy {
        bytes: SharedBytes,
        at: usize,
        len: usize,
        cell: Arc<OnceLock<Result<Arc<Graph>, ArtifactError>>>,
    },
}

/// Where the witness map lives: decoded, raw v2 section bytes decoded
/// lazily on first use (memoized, shared across clones), raw *sharded*
/// v2 bytes behind a per-edge offset index (single records decoded on
/// demand, the full map only when [`FrozenSpanner::witnesses`] forces
/// it), or detached at build time (routing-only replica).
///
/// The `touched` counters meter witness-section bytes actually read —
/// the instrumentation `witnessbench` and the sharded-access tests
/// assert on. Shared across clones like the memo cells.
#[derive(Clone, Debug)]
enum WitnessStore {
    Eager(Vec<FaultSet>),
    Lazy {
        bytes: SharedBytes,
        at: usize,
        len: usize,
        cell: Arc<OnceLock<Result<Vec<FaultSet>, ArtifactError>>>,
        touched: Arc<AtomicU64>,
    },
    Sharded {
        bytes: SharedBytes,
        /// Witness section range inside `bytes`.
        at: usize,
        len: usize,
        /// Witness-index section range inside `bytes`.
        idx_at: usize,
        idx_len: usize,
        /// Record count (validated against the payload header at decode).
        count: usize,
        cell: Arc<OnceLock<Result<Vec<FaultSet>, ArtifactError>>>,
        touched: Arc<AtomicU64>,
    },
    Detached,
}

/// An immutable, shareable spanner artifact (see the module docs).
///
/// # Examples
///
/// ```
/// use spanner_core::FtGreedy;
/// use spanner_graph::generators::complete;
/// use std::sync::Arc;
///
/// let g = complete(8);
/// let ft = FtGreedy::new(&g, 3).faults(1).run();
/// let frozen = Arc::new(ft.freeze(&g));
/// assert_eq!(frozen.stretch(), 3);
/// assert_eq!(frozen.budget(), Some(1));
/// assert_eq!(frozen.witnesses().unwrap().len(), frozen.edge_count());
/// ```
#[derive(Clone, Debug)]
pub struct FrozenSpanner {
    csr: FrozenCsr,
    parent: ParentStore,
    tables: TranslationTables,
    stretch: u64,
    budget: Option<usize>,
    model: FaultModel,
    witnesses: WitnessStore,
    /// The container version this artifact round-trips through:
    /// [`FrozenSpanner::encode`] re-emits the version the artifact was
    /// decoded from (or built as), so canonical re-encode holds for both
    /// formats.
    version: u32,
    /// Whether [`FrozenSpanner::encode`] writes the witness map sharded
    /// ([`FLAG_WITNESSES_SHARDED`] + [`SECTION_WITNESS_INDEX`]). Carried
    /// separately from the store so an eagerly-held map (the
    /// [`FrozenSpanner::to_v2_sharded`] path) still encodes sharded.
    sharded: bool,
    /// The A* landmark table, built from the adjacency on first use and
    /// shared by every clone (clones share the adjacency). Never encoded.
    landmarks: Arc<OnceLock<Landmarks>>,
}

impl FrozenSpanner {
    /// Seals a bare spanner (no parent handle, no budget metadata, no
    /// witnesses); the artifact [`Spanner::freeze`](crate::Spanner::freeze)
    /// builds.
    pub fn from_spanner(spanner: &Spanner) -> Self {
        FrozenSpanner::assemble(spanner, None, None, FaultModel::Vertex, Vec::new())
    }

    /// Seals a spanner together with its construction metadata; the
    /// artifact [`FtSpanner::freeze`](crate::FtSpanner::freeze) builds.
    pub(crate) fn assemble(
        spanner: &Spanner,
        parent: Option<Arc<Graph>>,
        budget: Option<usize>,
        model: FaultModel,
        witnesses: Vec<FaultSet>,
    ) -> Self {
        let parent_edges = spanner.parent_edge_ids().to_vec();
        let spanner_of_parent =
            inverse_translation(parent.as_ref().map(|p| p.edge_count()), &parent_edges);
        FrozenSpanner {
            csr: FrozenCsr::from_view(spanner.graph()),
            parent: parent.map_or(ParentStore::None, ParentStore::Eager),
            tables: TranslationTables::Owned {
                parent_edges,
                spanner_of_parent,
            },
            stretch: spanner.stretch(),
            budget,
            model,
            witnesses: WitnessStore::Eager(witnesses),
            version: ARTIFACT_VERSION,
            sharded: false,
            landmarks: Arc::default(),
        }
    }

    /// The packed adjacency queries run over.
    pub fn csr(&self) -> &FrozenCsr {
        &self.csr
    }

    /// The landmark table single-pair serving runs A* on (see
    /// [`crate::landmarks`]). Built from the unfaulted adjacency on first
    /// use, then memoized and shared by every clone; it is a pure
    /// function of the adjacency, so owned and in-place artifacts of the
    /// same bytes build identical tables. Never part of the encoding.
    pub fn landmarks(&self) -> &Landmarks {
        self.landmarks.get_or_init(|| Landmarks::build(&self.csr))
    }

    /// Number of vertices (same ids as the parent graph).
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of spanner edges.
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// The stretch target the spanner was built for.
    pub fn stretch(&self) -> u64 {
        self.stretch
    }

    /// The fault budget the spanner was built for (`None` when frozen
    /// from a bare [`Spanner`], which records none).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// The fault model of the construction (meaningful when
    /// [`FrozenSpanner::budget`] is set).
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The container version this artifact round-trips through
    /// ([`ARTIFACT_VERSION`] or [`ARTIFACT_VERSION_V2`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether this artifact serves its packed tables in place from a
    /// shared buffer (the [`FrozenSpanner::open`] path).
    pub fn is_in_place(&self) -> bool {
        self.csr.is_in_place()
    }

    /// Whether the witness section was detached at build time
    /// (routing-only replica).
    pub fn witnesses_detached(&self) -> bool {
        matches!(self.witnesses, WitnessStore::Detached)
    }

    /// Whether the witness map travels sharded: per-record 8-aligned
    /// padding plus a [`SECTION_WITNESS_INDEX`] offset index, so
    /// [`FrozenSpanner::witnesses_for`] touches only the queried edge's
    /// bytes.
    pub fn witnesses_sharded(&self) -> bool {
        self.sharded
    }

    /// Witness-section bytes this artifact has actually read so far:
    /// index entries plus record extents for sharded per-edge access,
    /// the whole section once for a forced monolithic decode. Always 0
    /// for eagerly-decoded or detached stores — the meter exists for the
    /// lazy serving paths, where "how many bytes did that lookup fault
    /// in" is the quantity `witnessbench` gates.
    pub fn witness_bytes_touched(&self) -> u64 {
        match &self.witnesses {
            WitnessStore::Lazy { touched, .. } | WitnessStore::Sharded { touched, .. } => {
                touched.load(Ordering::Relaxed)
            }
            _ => 0,
        }
    }

    /// The parent graph handle, when the artifact carries one.
    ///
    /// On an artifact loaded via [`FrozenSpanner::open`] the parent
    /// section is decoded (and fully cross-checked against the spanner)
    /// on first use, then memoized — including a memoized failure.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when the lazily-decoded parent section is
    /// corrupt or contradicts the spanner sections. Artifacts built in
    /// process or decoded eagerly never fail here.
    pub fn parent(&self) -> Result<Option<&Arc<Graph>>, ArtifactError> {
        match &self.parent {
            ParentStore::None => Ok(None),
            ParentStore::Eager(g) => Ok(Some(g)),
            ParentStore::Lazy {
                bytes,
                at,
                len,
                cell,
            } => {
                let res = cell.get_or_init(|| {
                    let payload = &bytes.as_slice()[*at..*at + *len];
                    let parent = parse_parent_payload(payload)?;
                    self.check_parent_consistency(&parent)?;
                    Ok(Arc::new(parent))
                });
                match res {
                    Ok(g) => Ok(Some(g)),
                    Err(e) => Err(e.clone()),
                }
            }
        }
    }

    /// The recorded witness fault sets, indexed by spanner edge id
    /// (empty when frozen from a bare spanner).
    ///
    /// On an artifact loaded via [`FrozenSpanner::open`] the witness
    /// section is decoded on first use, then memoized.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::WitnessesDetached`] on a routing-only replica;
    /// otherwise an [`ArtifactError`] when the lazily-decoded witness
    /// section is corrupt.
    pub fn witnesses(&self) -> Result<&[FaultSet], ArtifactError> {
        match &self.witnesses {
            WitnessStore::Eager(w) => Ok(w),
            WitnessStore::Detached => Err(ArtifactError::WitnessesDetached),
            WitnessStore::Lazy {
                bytes,
                at,
                len,
                cell,
                touched,
            } => {
                let res = cell.get_or_init(|| {
                    touched.fetch_add(*len as u64, Ordering::Relaxed);
                    let payload = &bytes.as_slice()[*at..*at + *len];
                    parse_witness_payload(payload, self.node_count(), self.edge_count())
                });
                match res {
                    Ok(w) => Ok(w),
                    Err(e) => Err(e.clone()),
                }
            }
            WitnessStore::Sharded {
                bytes,
                at,
                len,
                idx_at,
                idx_len,
                cell,
                touched,
                ..
            } => {
                let res = cell.get_or_init(|| {
                    touched.fetch_add((*len + *idx_len) as u64, Ordering::Relaxed);
                    let data = bytes.as_slice();
                    parse_sharded_witness_payload(
                        &data[*at..*at + *len],
                        &data[*idx_at..*idx_at + *idx_len],
                        self.node_count(),
                        self.edge_count(),
                    )
                });
                match res {
                    Ok(w) => Ok(w),
                    Err(e) => Err(e.clone()),
                }
            }
        }
    }

    /// The witness fault set of one spanner edge.
    ///
    /// On a sharded artifact ([`FrozenSpanner::witnesses_sharded`]) this
    /// is the page-granular path: two index entries locate edge `e`'s
    /// record and only that record's bytes are read and decoded —
    /// O(|F_e|) per call, no up-front scan, nothing memoized. Every
    /// other store answers from the full map (forcing the one-shot
    /// monolithic decode on a lazy store). An artifact carrying no
    /// witness map (frozen from a bare [`Spanner`]) answers with an
    /// empty set in the artifact's fault model.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::WitnessesDetached`] on a routing-only replica;
    /// otherwise an [`ArtifactError`] when the lazily-read record (or,
    /// for monolithic stores, section) is corrupt.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn witnesses_for(&self, edge: EdgeId) -> Result<FaultSet, ArtifactError> {
        let i = edge.index();
        assert!(i < self.edge_count(), "spanner edge out of range");
        match &self.witnesses {
            WitnessStore::Detached => Err(ArtifactError::WitnessesDetached),
            WitnessStore::Eager(sets) => Ok(sets
                .get(i)
                .cloned()
                .unwrap_or_else(|| FaultSet::empty(self.model))),
            WitnessStore::Lazy { .. } => {
                let sets = self.witnesses()?;
                Ok(sets
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| FaultSet::empty(self.model)))
            }
            WitnessStore::Sharded {
                bytes,
                at,
                idx_at,
                count,
                touched,
                ..
            } => {
                if *count == 0 {
                    return Ok(FaultSet::empty(self.model));
                }
                // The offset index was validated at decode/open time
                // (monotone, 8-aligned, bracketed by the payload), so
                // these two reads and the record slice are in bounds.
                let data = bytes.as_slice();
                let start = read_u64_at(data, idx_at + 8 + 8 * i) as usize;
                let next = read_u64_at(data, idx_at + 8 + 8 * (i + 1)) as usize;
                touched.fetch_add(16 + (next - start) as u64, Ordering::Relaxed);
                parse_sharded_witness_record(
                    &data[*at + start..*at + next],
                    i,
                    self.node_count(),
                    self.edge_count(),
                )
            }
        }
    }

    /// Parent edge id of a spanner edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn parent_edge(&self, edge: EdgeId) -> EdgeId {
        self.tables.fwd(edge.index())
    }

    /// All kept parent edge ids, in spanner edge-id order.
    pub fn parent_edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.tables.fwd_len()).map(move |i| self.tables.fwd(i))
    }

    /// The spanner copy of a parent edge, if it was kept (O(1), unlike
    /// the linear scan a construction-time
    /// [`Spanner`] would need).
    pub fn spanner_edge_of_parent(&self, parent_edge: EdgeId) -> Option<EdgeId> {
        let s = parent_edge.index();
        if s >= self.tables.inv_len() {
            return None;
        }
        match self.tables.inv(s) {
            NOT_KEPT => None,
            own => Some(EdgeId::new(own as usize)),
        }
    }

    /// Applies a fault set expressed in *parent* ids into a mask over
    /// the spanner: vertex faults carry over unchanged, edge faults hit
    /// the spanner copies of those parent edges (absent copies are
    /// no-ops). The mask is the caller's reusable epoch scratch; this
    /// method only adds faults, it never clears.
    pub fn apply_faults(&self, faults: &FaultSet, mask: &mut FaultMask) {
        for v in faults.vertex_faults() {
            mask.fault_vertex(*v);
        }
        for e in faults.edge_faults() {
            if let Some(own) = self.spanner_edge_of_parent(*e) {
                mask.fault_edge(own);
            }
        }
    }
}

/// Builds the parent→spanner inverse of a `parent_edges` table: one slot
/// per parent edge id (the parent's edge count when the handle is
/// available, otherwise just enough to cover the referenced ids),
/// `NOT_KEPT` where the parent edge did not survive. Shared by
/// [`FrozenSpanner::assemble`] and [`FrozenSpanner::decode`] so the two
/// construction paths cannot drift.
fn inverse_translation(parent_edge_count: Option<usize>, parent_edges: &[EdgeId]) -> Vec<u32> {
    let slots = parent_edge_count.unwrap_or(0).max(
        parent_edges
            .iter()
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0),
    );
    let mut spanner_of_parent = vec![NOT_KEPT; slots];
    for (own, parent_id) in parent_edges.iter().enumerate() {
        spanner_of_parent[parent_id.index()] = own as u32;
    }
    spanner_of_parent
}

/// The fields of a parsed `META` section.
struct MetaFields {
    stretch: u64,
    model: FaultModel,
    budget: Option<usize>,
    node_count: usize,
    edge_count: usize,
}

/// Parses the 35-byte `META` payload (identical in v1 and v2).
fn parse_meta_payload(payload: &[u8]) -> Result<MetaFields, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let stretch = r.u64("stretch")?;
    let model = match r.u8("fault model")? {
        0 => FaultModel::Vertex,
        1 => FaultModel::Edge,
        other => {
            return Err(BinaryError::Malformed {
                context: "fault model",
                detail: format!("unknown tag {other}"),
            }
            .into())
        }
    };
    let has_budget = match r.u8("budget flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(BinaryError::Malformed {
                context: "budget flag",
                detail: format!("expected 0 or 1, found {other}"),
            }
            .into())
        }
    };
    let budget_raw = r.u64("budget")?;
    if !has_budget && budget_raw != 0 {
        return Err(BinaryError::Malformed {
            context: "budget",
            detail: format!("flag says absent but value is {budget_raw}"),
        }
        .into());
    }
    let budget = has_budget.then_some(budget_raw as usize);
    let node_count = r.u64("node count")? as usize;
    let edge_count = r.u64("edge count")? as usize;
    r.expect_drained("meta")?;
    Ok(MetaFields {
        stretch,
        model,
        budget,
        node_count,
        edge_count,
    })
}

/// Serializes the `WITNESSES` section payload (identical in v1 and v2).
fn witness_payload(sets: &[FaultSet]) -> Vec<u8> {
    let mut witnesses = Vec::new();
    put_u64(&mut witnesses, sets.len() as u64);
    for set in sets {
        witnesses.push(match set.model() {
            FaultModel::Vertex => 0,
            FaultModel::Edge => 1,
        });
        let (vs, es) = (set.vertex_faults(), set.edge_faults());
        put_u64(&mut witnesses, set.len() as u64);
        for v in vs {
            put_u32(&mut witnesses, v.raw());
        }
        for e in es {
            put_u32(&mut witnesses, e.raw());
        }
    }
    witnesses
}

/// Parses and validates one witness record (model tag, length, ids)
/// from `r`: ids in range for their model's id space, stored normalized
/// (sorted, deduplicated) so accept implies canonical re-encode. The
/// record body is byte-identical between the monolithic and sharded
/// layouts; only the framing around it differs.
fn parse_witness_record(
    r: &mut ByteReader<'_>,
    i: usize,
    node_count: usize,
    edge_count: usize,
) -> Result<FaultSet, ArtifactError> {
    let model_tag = r.u8("witness model")?;
    let len = r.count(4, "witness length")?;
    let mut ids = Vec::with_capacity(len);
    for _ in 0..len {
        ids.push(r.u32("witness component id")? as usize);
    }
    let bound = match model_tag {
        0 => node_count,
        1 => edge_count,
        other => {
            return Err(BinaryError::Malformed {
                context: "witness model",
                detail: format!("unknown tag {other}"),
            }
            .into())
        }
    };
    if let Some(&bad) = ids.iter().find(|&&id| id >= bound) {
        return Err(inconsistent(
            "witness map",
            format!("witness {i} references component {bad}, id space is {bound}"),
        ));
    }
    // The format stores witness ids normalized (sorted ascending,
    // deduplicated). The FaultSet constructors would silently
    // renormalize a crafted record — and then the artifact would
    // no longer re-encode to the bytes that were accepted, so
    // reject denormalized input here with a typed error instead.
    if ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(inconsistent(
            "witness map",
            format!("witness {i} ids are not sorted and deduplicated"),
        ));
    }
    Ok(if model_tag == 0 {
        FaultSet::vertices(ids.into_iter().map(NodeId::new))
    } else {
        FaultSet::edges(ids.into_iter().map(EdgeId::new))
    })
}

/// Parses and validates a `WITNESSES` payload (monolithic layout:
/// records packed back to back, no padding). Shared by v1 decode and
/// the v2 lazy store.
fn parse_witness_payload(
    payload: &[u8],
    node_count: usize,
    edge_count: usize,
) -> Result<Vec<FaultSet>, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let count = r.count(9, "witness count")?;
    if count != 0 && count != edge_count {
        return Err(inconsistent(
            "witness map",
            format!("{count} witness sets for {edge_count} spanner edges"),
        ));
    }
    let mut witnesses = Vec::with_capacity(count);
    for i in 0..count {
        witnesses.push(parse_witness_record(&mut r, i, node_count, edge_count)?);
    }
    r.expect_drained("witness map")?;
    Ok(witnesses)
}

/// Parses and validates one *sharded* witness record: the record body
/// followed by zero padding up to the 8-byte boundary the offset index
/// promised. The indexed extent must be exactly the canonical padded
/// length — a record that under- or over-fills its slice means the
/// index and payload disagree, which is the sharded layout's own
/// failure class ([`BinaryError::WitnessIndex`]).
fn parse_sharded_witness_record(
    rec: &[u8],
    i: usize,
    node_count: usize,
    edge_count: usize,
) -> Result<FaultSet, ArtifactError> {
    let mut r = ByteReader::new(rec);
    let set = parse_witness_record(&mut r, i, node_count, edge_count)?;
    let body = 9 + 4 * set.len();
    let padded = body.next_multiple_of(binary::V2_SECTION_ALIGN);
    if rec.len() != padded {
        return Err(BinaryError::WitnessIndex {
            context: "witness record",
            detail: format!(
                "record {i} is indexed as {} bytes, its body pads to {padded}",
                rec.len()
            ),
        }
        .into());
    }
    if rec[body..].iter().any(|&b| b != 0) {
        return Err(BinaryError::WitnessIndex {
            context: "witness record",
            detail: format!("record {i} carries nonzero padding"),
        }
        .into());
    }
    Ok(set)
}

/// Parses and validates a full sharded `WITNESSES` payload against its
/// offset index: every record must start exactly where the index says,
/// fill its indexed extent, and pass the shared per-record checks. This
/// is the force-everything path ([`FrozenSpanner::witnesses`] on a
/// sharded store, which the eager [`FrozenSpanner::decode`] uses to
/// validate the whole file); per-edge serving goes through
/// [`parse_sharded_witness_record`] directly.
fn parse_sharded_witness_payload(
    payload: &[u8],
    idx_payload: &[u8],
    node_count: usize,
    edge_count: usize,
) -> Result<Vec<FaultSet>, ArtifactError> {
    let count = binary::parse_offset_index(idx_payload, 8, payload.len() as u64)?;
    let declared = read_u64_at(payload, 0) as usize;
    if declared != count {
        return Err(BinaryError::WitnessIndex {
            context: "witness index",
            detail: format!("index holds {count} records, witness map declares {declared}"),
        }
        .into());
    }
    if count != 0 && count != edge_count {
        return Err(inconsistent(
            "witness map",
            format!("{count} witness sets for {edge_count} spanner edges"),
        ));
    }
    let offset_at = |i: usize| read_u64_at(idx_payload, 8 + 8 * i) as usize;
    let mut witnesses = Vec::with_capacity(count);
    for i in 0..count {
        witnesses.push(parse_sharded_witness_record(
            &payload[offset_at(i)..offset_at(i + 1)],
            i,
            node_count,
            edge_count,
        )?);
    }
    Ok(witnesses)
}

/// Serializes the sharded `WITNESSES` payload and its offset index:
/// every record zero-padded to the next 8-byte boundary (so each starts
/// aligned and the final offset closes the section aligned), offsets
/// collected as the records are laid down. Returns
/// `(witness_payload, index_payload)`.
fn witness_payload_sharded(sets: &[FaultSet]) -> (Vec<u8>, Vec<u8>) {
    let mut payload = Vec::new();
    put_u64(&mut payload, sets.len() as u64);
    let mut offsets = Vec::with_capacity(sets.len() + 1);
    for set in sets {
        offsets.push(payload.len() as u64);
        payload.push(match set.model() {
            FaultModel::Vertex => 0,
            FaultModel::Edge => 1,
        });
        put_u64(&mut payload, set.len() as u64);
        for v in set.vertex_faults() {
            put_u32(&mut payload, v.raw());
        }
        for e in set.edge_faults() {
            put_u32(&mut payload, e.raw());
        }
        payload.resize(payload.len().next_multiple_of(binary::V2_SECTION_ALIGN), 0);
    }
    offsets.push(payload.len() as u64);
    (payload, binary::write_offset_index(&offsets))
}

/// Parses a `PARENT` payload into a [`Graph`] (full simple-graph
/// invariants re-enforced). Cross-checks against the spanner happen in
/// `FrozenSpanner::check_parent_consistency` / the v1 decode body.
fn parse_parent_payload(payload: &[u8]) -> Result<Graph, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let graph = binary::read_graph_payload(&mut r)?;
    r.expect_drained("parent graph")?;
    Ok(graph)
}

/// Validates a v2 `PARENT_EDGES` section **in place** and returns a
/// borrowed table view. O(fwd + inv) scans, no allocation sized by the
/// input. The checks pin the stored inverse to exactly the inverse
/// function of the forward table (back-pointer agreement + a kept-slot
/// census that also proves the forward table injective), and — when no
/// parent travels with the artifact — the canonical slot count
/// `max(fwd) + 1`; with a parent, the slot count is checked against the
/// parent's edge count when the parent is decoded.
fn validate_tables_v2(
    bytes: &SharedBytes,
    at: usize,
    len: usize,
    edge_count: usize,
    parent_present: bool,
) -> Result<TranslationTables, ArtifactError> {
    let data = bytes.as_slice();
    if len < 16 {
        return Err(BinaryError::Truncated {
            context: "parent-edge table",
        }
        .into());
    }
    let fwd_count_raw = read_u64_at(data, at);
    if fwd_count_raw != edge_count as u64 {
        return Err(inconsistent(
            "parent-edge table",
            format!("{fwd_count_raw} entries for {edge_count} spanner edges"),
        ));
    }
    let fwd_count = edge_count;
    let inv_header = 8 + 4 * fwd_count;
    let Some(inv_bytes) = len.checked_sub(inv_header + 8) else {
        return Err(BinaryError::Truncated {
            context: "parent-edge table",
        }
        .into());
    };
    let inv_count_raw = read_u64_at(data, at + inv_header);
    if inv_bytes % 4 != 0 || inv_count_raw != (inv_bytes / 4) as u64 {
        return Err(BinaryError::Malformed {
            context: "parent-edge table",
            detail: format!(
                "{inv_count_raw} inverse slots declared, {inv_bytes} payload bytes present"
            ),
        }
        .into());
    }
    let inv_count = inv_count_raw as usize;
    let fwd = |i: usize| read_u32_at(data, at + 8 + 4 * i) as usize;
    let inv = |s: usize| read_u32_at(data, at + inv_header + 8 + 4 * s);
    let mut max_fwd_plus1 = 0usize;
    for own in 0..fwd_count {
        let pid = fwd(own);
        if pid >= inv_count {
            return Err(inconsistent(
                "parent-edge table",
                format!("forward table references parent edge {pid} outside the {inv_count}-slot inverse"),
            ));
        }
        max_fwd_plus1 = max_fwd_plus1.max(pid + 1);
    }
    let mut kept = 0usize;
    for s in 0..inv_count {
        let own = inv(s);
        if own == NOT_KEPT {
            continue;
        }
        kept += 1;
        if own as usize >= fwd_count || fwd(own as usize) != s {
            return Err(inconsistent(
                "parent-edge table",
                format!("stored inverse disagrees with the forward table at slot {s}"),
            ));
        }
    }
    // kept == edge_count, with every kept slot pointing at a distinct
    // forward entry that points back, makes slot↔entry a bijection:
    // the stored inverse IS the inverse function, and the forward table
    // is injective (two spanner copies of one parent edge would let
    // `apply_faults` mask only one of them).
    if kept != edge_count {
        return Err(inconsistent(
            "parent-edge table",
            format!(
                "forward table is not injective: {edge_count} spanner edges share {kept} parent edges"
            ),
        ));
    }
    if !parent_present && inv_count != max_fwd_plus1 {
        return Err(inconsistent(
            "parent-edge table",
            format!("inverse has {inv_count} slots, canonical is {max_fwd_plus1}"),
        ));
    }
    Ok(TranslationTables::Bytes {
        bytes: bytes.clone(),
        at,
        len,
        fwd_count,
        inv_count,
    })
}

impl FrozenSpanner {
    /// Serializes the artifact into the versioned `VFTSPANR` binary
    /// container (spec: `docs/ARTIFACT_FORMAT.md`). The encoding is
    /// canonical — the same artifact always yields the same bytes — and
    /// self-contained: [`FrozenSpanner::decode`] rebuilds an artifact
    /// that serves bit-identically, in any process, with no access to
    /// the construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use spanner_core::{FrozenSpanner, FtGreedy};
    /// use spanner_graph::generators::complete;
    ///
    /// let g = complete(8);
    /// let frozen = FtGreedy::new(&g, 3).faults(1).run().freeze(&g);
    /// let bytes = frozen.encode();
    /// let back = FrozenSpanner::decode(&bytes)?;
    /// assert_eq!(back.encode(), bytes); // canonical roundtrip
    /// # Ok::<(), spanner_core::frozen::ArtifactError>(())
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        match self.version {
            ARTIFACT_VERSION_V2 => self.encode_v2(),
            _ => self.encode_v1(),
        }
    }

    /// The 35-byte `META` section payload (shared by both versions).
    fn meta_payload(&self) -> Vec<u8> {
        let mut meta = Vec::with_capacity(35);
        put_u64(&mut meta, self.stretch);
        meta.push(match self.model {
            FaultModel::Vertex => 0,
            FaultModel::Edge => 1,
        });
        meta.push(self.budget.is_some() as u8);
        put_u64(&mut meta, self.budget.unwrap_or(0) as u64);
        put_u64(&mut meta, self.node_count() as u64);
        put_u64(&mut meta, self.edge_count() as u64);
        meta
    }

    fn encode_v1(&self) -> Vec<u8> {
        let mut spanner = Vec::new();
        binary::write_view_payload(&self.csr, &mut spanner);

        // Both translation directions travel in the bytes. The inverse
        // is derivable from the forward table, but *storing* it is what
        // keeps decode's allocations bounded by the input: its length is
        // then guarded against the bytes actually present, where a
        // re-derived table would be sized by an attacker-controlled
        // maximum id (a crafted 100-byte file claiming parent edge
        // 0xfffffffe must not conjure a 16 GiB allocation).
        let parent_edges = self.tables.payload();

        let sets = match &self.witnesses {
            WitnessStore::Eager(sets) => sets,
            // v1 artifacts are always eagerly decoded; lazy or detached
            // stores only arise behind `version == 2`.
            _ => unreachable!("v1 artifacts hold eager witness stores"),
        };
        let witnesses = witness_payload(sets);

        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
        w.section(SECTION_META, &self.meta_payload())
            .section(SECTION_SPANNER, &spanner)
            .section(SECTION_PARENT_EDGES, &parent_edges)
            .section(SECTION_WITNESSES, &witnesses);
        if let ParentStore::Eager(parent) = &self.parent {
            let mut payload = Vec::new();
            binary::write_view_payload(parent.as_ref(), &mut payload);
            w.section(SECTION_PARENT, &payload);
        }
        w.finish()
    }

    fn encode_v2(&self) -> Vec<u8> {
        let mut flags = if self.witnesses_detached() {
            FLAG_WITNESSES_DETACHED
        } else {
            0
        };
        if self.sharded {
            flags |= FLAG_WITNESSES_SHARDED;
        }
        let mut w = binary::ContainerWriterV2::new(ARTIFACT_MAGIC, ARTIFACT_VERSION_V2, flags);
        w.section(SECTION_META, self.meta_payload());
        let mut spanner = Vec::with_capacity(self.csr.payload_v2_len());
        self.csr.write_payload_v2(&mut spanner);
        w.section(SECTION_SPANNER, spanner);
        w.section(SECTION_PARENT_EDGES, self.tables.payload());
        // The witness index (tag 6) sorts after the parent section (tag
        // 5) in the canonical ascending-tag order, so it is held back
        // here and emitted last.
        let mut witness_index: Option<Vec<u8>> = None;
        match &self.witnesses {
            WitnessStore::Eager(sets) => {
                if self.sharded {
                    let (payload, idx) = witness_payload_sharded(sets);
                    w.section(SECTION_WITNESSES, payload);
                    witness_index = Some(idx);
                } else {
                    w.section(SECTION_WITNESSES, witness_payload(sets));
                }
            }
            // Lazily-held sections re-emit their raw (validated) bytes,
            // so re-encoding never forces a decode and stays canonical.
            WitnessStore::Lazy { bytes, at, len, .. } => {
                w.section(
                    SECTION_WITNESSES,
                    bytes.as_slice()[*at..*at + *len].to_vec(),
                );
            }
            WitnessStore::Sharded {
                bytes,
                at,
                len,
                idx_at,
                idx_len,
                ..
            } => {
                let data = bytes.as_slice();
                w.section(SECTION_WITNESSES, data[*at..*at + *len].to_vec());
                witness_index = Some(data[*idx_at..*idx_at + *idx_len].to_vec());
            }
            WitnessStore::Detached => {}
        }
        match &self.parent {
            ParentStore::None => {}
            ParentStore::Eager(parent) => {
                let mut payload = Vec::new();
                binary::write_view_payload(parent.as_ref(), &mut payload);
                w.section(SECTION_PARENT, payload);
            }
            ParentStore::Lazy { bytes, at, len, .. } => {
                w.section(SECTION_PARENT, bytes.as_slice()[*at..*at + *len].to_vec());
            }
        }
        if let Some(idx) = witness_index {
            w.section(SECTION_WITNESS_INDEX, idx);
        }
        w.finish()
    }

    /// Re-versions this artifact as a v2 (in-place layout) container:
    /// [`FrozenSpanner::encode`] then writes the alignment-padded v2
    /// format [`FrozenSpanner::open`] reads in place. Content is
    /// unchanged — this is the `spanner-artifact migrate` primitive, and
    /// it is byte-canonical: the same artifact always yields the same
    /// v2 bytes, and re-migrating a v2 artifact is the identity.
    ///
    /// Always produces the *monolithic* witness layout: on a sharded
    /// artifact this is the unshard direction, and
    /// `to_v2_sharded().to_v2()` round-trips to the original monolithic
    /// bytes (the migrate identity `artifact_props.rs` pins).
    ///
    /// # Panics
    ///
    /// Panics when unsharding an [`FrozenSpanner::open`]ed artifact
    /// whose (lazily-validated) witness records turn out corrupt —
    /// untrusted bytes should go through [`FrozenSpanner::decode`],
    /// which validates everything first.
    pub fn to_v2(&self) -> FrozenSpanner {
        let mut out = self.clone();
        if matches!(self.witnesses, WitnessStore::Sharded { .. }) {
            let sets = self
                .witnesses()
                .expect("sharded witness store failed validation")
                .to_vec();
            out.witnesses = WitnessStore::Eager(sets);
        }
        out.sharded = false;
        out.version = ARTIFACT_VERSION_V2;
        out
    }

    /// Re-versions this artifact as a v2 container with a **sharded**
    /// witness map: records padded to 8-byte boundaries, a
    /// [`SECTION_WITNESS_INDEX`] of per-edge offsets, and
    /// [`FLAG_WITNESSES_SHARDED`] in the header, so a mapped replica's
    /// [`FrozenSpanner::witnesses_for`] touches only the queried edge's
    /// bytes. Byte-canonical like [`FrozenSpanner::to_v2`], and the
    /// `spanner-artifact migrate --shard` primitive. A detached
    /// (routing-only) artifact has no witness map to shard and passes
    /// through unchanged.
    ///
    /// # Panics
    ///
    /// Panics when the witness map must be forced from a lazily-opened
    /// artifact whose witness section turns out corrupt — untrusted
    /// bytes should go through [`FrozenSpanner::decode`] first.
    pub fn to_v2_sharded(&self) -> FrozenSpanner {
        let mut out = self.clone();
        if self.witnesses_detached() {
            out.sharded = false;
        } else {
            let sets = self
                .witnesses()
                .expect("witness store failed validation")
                .to_vec();
            out.witnesses = WitnessStore::Eager(sets);
            out.sharded = true;
        }
        out.version = ARTIFACT_VERSION_V2;
        out
    }

    /// A routing-only copy of this artifact: the witness section (which
    /// dominates artifact size) is dropped, the v2 header carries
    /// [`FLAG_WITNESSES_DETACHED`], and [`FrozenSpanner::witnesses`]
    /// returns [`ArtifactError::WitnessesDetached`]. Always a v2
    /// artifact — v1 has no flag field to mark the absence.
    pub fn detach_witnesses(&self) -> FrozenSpanner {
        let mut out = self.clone();
        out.witnesses = WitnessStore::Detached;
        out.sharded = false;
        out.version = ARTIFACT_VERSION_V2;
        out
    }

    /// Deserializes an artifact previously produced by
    /// [`FrozenSpanner::encode`], revalidating every invariant the
    /// serving layer relies on (translation tables in range, witness map
    /// sized to the edge set, spanner edges present in the parent with
    /// identical endpoints and weights).
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any defect — truncation, corruption, an
    /// unknown version or section, or internally contradictory sections.
    /// No input, however hostile, can cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<FrozenSpanner, ArtifactError> {
        // Dispatch on the declared version field; each branch then
        // re-validates the whole container (checksum first) for its
        // format, so a lying version field still fails closed.
        if bytes.len() >= 12 && bytes[8..12] == ARTIFACT_VERSION_V2.to_le_bytes() {
            Self::decode_v2(SharedBytes::copy_aligned(bytes), true)
        } else {
            Self::decode_v1(bytes)
        }
    }

    fn decode_v1(bytes: &[u8]) -> Result<FrozenSpanner, ArtifactError> {
        let container = binary::parse_container(bytes, ARTIFACT_MAGIC, ARTIFACT_VERSION)?;
        for section in &container.sections {
            if !matches!(
                section.tag,
                SECTION_META
                    | SECTION_SPANNER
                    | SECTION_PARENT_EDGES
                    | SECTION_WITNESSES
                    | SECTION_PARENT
            ) {
                return Err(BinaryError::UnknownSection { tag: section.tag }.into());
            }
        }
        let require = |tag: u32, name: &'static str| {
            container
                .section(tag)
                .ok_or(BinaryError::MissingSection { name })
        };

        // META: the declared shape everything else is checked against.
        let meta = parse_meta_payload(require(SECTION_META, "meta")?)?;
        let (stretch, model, budget) = (meta.stretch, meta.model, meta.budget);
        let (node_count, edge_count) = (meta.node_count, meta.edge_count);

        // SPANNER: the packed adjacency, cross-checked against META.
        let mut r = ByteReader::new(require(SECTION_SPANNER, "spanner adjacency")?);
        let csr = binary::read_frozen_csr_payload(&mut r)?;
        r.expect_drained("spanner adjacency")?;
        if csr.node_count() != node_count || csr.edge_count() != edge_count {
            return Err(inconsistent(
                "spanner shape",
                format!(
                    "meta declares {node_count} nodes / {edge_count} edges, adjacency holds {} / {}",
                    csr.node_count(),
                    csr.edge_count()
                ),
            ));
        }

        // PARENT (optional): full simple-graph invariants re-enforced.
        let parent = match container.section(SECTION_PARENT) {
            None => None,
            Some(payload) => {
                let mut r = ByteReader::new(payload);
                let graph = binary::read_graph_payload(&mut r)?;
                r.expect_drained("parent graph")?;
                if graph.node_count() != node_count {
                    return Err(inconsistent(
                        "parent shape",
                        format!(
                            "parent has {} nodes, spanner has {node_count}",
                            graph.node_count()
                        ),
                    ));
                }
                Some(Arc::new(graph))
            }
        };

        // PARENT_EDGES: both translation directions. The stored inverse
        // is read first under the bytes-present allocation guard
        // (`ByteReader::count`), then proven equal to what the freezing
        // path would have derived — never re-derived from the forward
        // ids, whose attacker-controlled maximum would otherwise size
        // the table (and the allocation) unboundedly.
        let mut r = ByteReader::new(require(SECTION_PARENT_EDGES, "parent-edge table")?);
        let count = r.count(4, "parent-edge count")?;
        if count != edge_count {
            return Err(inconsistent(
                "parent-edge table",
                format!("{count} entries for {edge_count} spanner edges"),
            ));
        }
        let mut parent_edges = Vec::with_capacity(count);
        for _ in 0..count {
            parent_edges.push(EdgeId::from(r.u32("parent edge id")?));
        }
        let slots = r.count(4, "parent-edge slot count")?;
        let mut spanner_of_parent = Vec::with_capacity(slots);
        for _ in 0..slots {
            spanner_of_parent.push(r.u32("parent-edge slot")?);
        }
        r.expect_drained("parent-edge table")?;
        if let Some(&widest) = parent_edges.iter().max() {
            if widest.index() >= slots {
                return Err(inconsistent(
                    "parent-edge table",
                    format!(
                        "forward table references parent edge {widest} outside the {slots}-slot inverse"
                    ),
                ));
            }
        }
        let expected = inverse_translation(parent.as_ref().map(|p| p.edge_count()), &parent_edges);
        if expected != spanner_of_parent {
            return Err(inconsistent(
                "parent-edge table",
                format!(
                    "stored inverse ({} slots) disagrees with the forward table (expect {} slots)",
                    spanner_of_parent.len(),
                    expected.len()
                ),
            ));
        }
        // Injectivity: two spanner edges claiming the same parent edge
        // would let `apply_faults` mask only one copy of a failed link,
        // serving routes over the other. The inverse keeps one entry per
        // distinct parent id, so a simple census detects collisions.
        let kept = spanner_of_parent.iter().filter(|&&s| s != NOT_KEPT).count();
        if kept != edge_count {
            return Err(inconsistent(
                "parent-edge table",
                format!(
                    "forward table is not injective: {edge_count} spanner edges share {kept} parent edges"
                ),
            ));
        }
        if let Some(parent) = &parent {
            for (own, parent_id) in parent_edges.iter().enumerate() {
                if parent_id.index() >= parent.edge_count() {
                    return Err(inconsistent(
                        "parent-edge table",
                        format!(
                            "spanner edge {own} maps to parent edge {parent_id} but the parent has {} edges",
                            parent.edge_count()
                        ),
                    ));
                }
                let own_id = EdgeId::new(own);
                let e = parent.edge(*parent_id);
                if csr.edge_endpoints(own_id) != e.endpoints()
                    || csr.edge_weight(own_id) != e.weight()
                {
                    return Err(inconsistent(
                        "parent-edge table",
                        format!("spanner edge {own} disagrees with parent edge {parent_id}"),
                    ));
                }
            }
        }

        // WITNESSES: indexed by spanner edge id; ids validated against
        // the id spaces they reference (vertex ids over the shared
        // vertex set, edge ids over the partial spanner, matching
        // `FtSpanner::witnesses`).
        let witnesses = parse_witness_payload(
            require(SECTION_WITNESSES, "witness map")?,
            node_count,
            edge_count,
        )?;

        Ok(FrozenSpanner {
            csr,
            parent: parent.map_or(ParentStore::None, ParentStore::Eager),
            tables: TranslationTables::Owned {
                parent_edges,
                spanner_of_parent,
            },
            stretch,
            budget,
            model,
            witnesses: WitnessStore::Eager(witnesses),
            version: ARTIFACT_VERSION,
            sharded: false,
            landmarks: Arc::default(),
        })
    }

    /// Parses a v2 container over `shared`. With `eager` set (the
    /// [`FrozenSpanner::decode`] path) the witness and parent sections
    /// are forced immediately, so the call validates the whole file;
    /// without it (the [`FrozenSpanner::open`] path) they stay raw bytes
    /// until first use and open cost is O(sections + tables scan), with
    /// no per-record materialization of the packed CSR.
    fn decode_v2(shared: SharedBytes, eager: bool) -> Result<FrozenSpanner, ArtifactError> {
        let container = binary::parse_container_v2(
            shared.as_slice(),
            ARTIFACT_MAGIC,
            ARTIFACT_VERSION_V2,
            FLAG_WITNESSES_DETACHED | FLAG_WITNESSES_SHARDED,
        )?;
        let detached = container.flags & FLAG_WITNESSES_DETACHED != 0;
        let sharded = container.flags & FLAG_WITNESSES_SHARDED != 0;
        if detached && sharded {
            return Err(BinaryError::Malformed {
                context: "header flags",
                detail: "witness map declared both detached and sharded".to_string(),
            }
            .into());
        }
        for section in &container.sections {
            match section.tag {
                SECTION_META | SECTION_SPANNER | SECTION_PARENT_EDGES | SECTION_PARENT => {}
                SECTION_WITNESSES if !detached => {}
                SECTION_WITNESSES => {
                    return Err(BinaryError::Malformed {
                        context: "witness map",
                        detail: "detached artifact carries a witness section".to_string(),
                    }
                    .into())
                }
                SECTION_WITNESS_INDEX if sharded => {}
                SECTION_WITNESS_INDEX => {
                    return Err(BinaryError::WitnessIndex {
                        context: "witness index",
                        detail: "index section present without the sharded header flag".to_string(),
                    }
                    .into())
                }
                tag => return Err(BinaryError::UnknownSection { tag }.into()),
            }
        }
        // Canonical section order: ascending tags, the order the writer
        // emits. Anything else would decode fine but re-encode to
        // different bytes, breaking the canonical-roundtrip oracle.
        if container.sections.windows(2).any(|w| w[0].tag >= w[1].tag) {
            return Err(BinaryError::Malformed {
                context: "section table",
                detail: "sections are not in canonical tag order".to_string(),
            }
            .into());
        }
        let require = |tag: u32, name: &'static str| {
            container
                .section(tag)
                .ok_or(BinaryError::MissingSection { name })
        };
        let data = shared.as_slice();
        let section_bytes = |s: binary::SectionV2| &data[s.offset..s.offset + s.len];

        let meta = parse_meta_payload(section_bytes(require(SECTION_META, "meta")?))?;

        // SPANNER: validated in place — alignment, counts, ranges, and
        // adjacency ≡ canonical derivation — then *borrowed*, not
        // rebuilt.
        let sp = require(SECTION_SPANNER, "spanner adjacency")?;
        let csr = FrozenCsr::from_bytes(shared.clone(), sp.offset, sp.len)?;
        if csr.node_count() != meta.node_count || csr.edge_count() != meta.edge_count {
            return Err(inconsistent(
                "spanner shape",
                format!(
                    "meta declares {} nodes / {} edges, adjacency holds {} / {}",
                    meta.node_count,
                    meta.edge_count,
                    csr.node_count(),
                    csr.edge_count()
                ),
            ));
        }

        let parent_section = container.section(SECTION_PARENT);
        let pe = require(SECTION_PARENT_EDGES, "parent-edge table")?;
        let tables = validate_tables_v2(
            &shared,
            pe.offset,
            pe.len,
            meta.edge_count,
            parent_section.is_some(),
        )?;

        let parent = match parent_section {
            None => ParentStore::None,
            Some(p) => ParentStore::Lazy {
                bytes: shared.clone(),
                at: p.offset,
                len: p.len,
                cell: Arc::new(OnceLock::new()),
            },
        };
        let witnesses = if detached {
            WitnessStore::Detached
        } else {
            let w = require(SECTION_WITNESSES, "witness map")?;
            if sharded {
                // The offset index is validated up front — O(count)
                // over the index section only, never the payload — so
                // per-edge access can slice records without any bounds
                // arithmetic of its own.
                let idx = require(SECTION_WITNESS_INDEX, "witness index")?;
                let count = binary::parse_offset_index(section_bytes(idx), 8, w.len as u64)?;
                let declared = read_u64_at(data, w.offset) as usize;
                if declared != count {
                    return Err(BinaryError::WitnessIndex {
                        context: "witness index",
                        detail: format!(
                            "index holds {count} records, witness map declares {declared}"
                        ),
                    }
                    .into());
                }
                if count != 0 && count != meta.edge_count {
                    return Err(inconsistent(
                        "witness map",
                        format!("{count} witness sets for {} spanner edges", meta.edge_count),
                    ));
                }
                WitnessStore::Sharded {
                    bytes: shared.clone(),
                    at: w.offset,
                    len: w.len,
                    idx_at: idx.offset,
                    idx_len: idx.len,
                    count,
                    cell: Arc::new(OnceLock::new()),
                    touched: Arc::new(AtomicU64::new(0)),
                }
            } else {
                WitnessStore::Lazy {
                    bytes: shared.clone(),
                    at: w.offset,
                    len: w.len,
                    cell: Arc::new(OnceLock::new()),
                    touched: Arc::new(AtomicU64::new(0)),
                }
            }
        };

        let frozen = FrozenSpanner {
            csr,
            parent,
            tables,
            stretch: meta.stretch,
            budget: meta.budget,
            model: meta.model,
            witnesses,
            version: ARTIFACT_VERSION_V2,
            sharded,
            landmarks: Arc::default(),
        };
        if eager {
            // Force (and memoize) the lazy sections so decode() means
            // "the whole file is valid", exactly as it does for v1. A
            // detached witness store is not an invalid file.
            frozen.parent()?;
            match frozen.witnesses() {
                Ok(_) | Err(ArtifactError::WitnessesDetached) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(frozen)
    }

    /// Opens a v2 artifact **in place**: the packed adjacency and
    /// translation tables are validated and then *borrowed* from
    /// `bytes` (an mmap'd file, an aligned heap buffer, …) with no `Vec`
    /// rebuild; the witness map and parent graph are decoded lazily on
    /// first use. Open cost is O(header + validation scans) — the
    /// cold-start path for "build once, serve from thousands of
    /// replicas".
    ///
    /// v1 artifacts are rejected with a typed
    /// [`BinaryError::UnsupportedVersion`] (run `spanner-artifact
    /// migrate` first); [`FrozenSpanner::decode`] keeps accepting them
    /// forever.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any structural defect, including a buffer
    /// that misses the 8-byte base alignment
    /// (`artifact/misaligned-section`). Hostile input cannot panic and
    /// cannot size an allocation beyond the bytes present.
    pub fn open(bytes: SharedBytes) -> Result<MappedSpanner, ArtifactError> {
        Ok(MappedSpanner {
            inner: Self::decode_v2(bytes, false)?,
        })
    }

    /// Full parent cross-checks, shared by the lazy (v2) decode path:
    /// the parent must agree with the spanner and translation tables in
    /// shape, ids, endpoints, and weights.
    fn check_parent_consistency(&self, parent: &Graph) -> Result<(), ArtifactError> {
        if parent.node_count() != self.node_count() {
            return Err(inconsistent(
                "parent shape",
                format!(
                    "parent has {} nodes, spanner has {}",
                    parent.node_count(),
                    self.node_count()
                ),
            ));
        }
        // Canonical inverse size when a parent travels with the
        // artifact: one slot per parent edge.
        if self.tables.inv_len() != parent.edge_count() {
            return Err(inconsistent(
                "parent-edge table",
                format!(
                    "inverse has {} slots, parent has {} edges",
                    self.tables.inv_len(),
                    parent.edge_count()
                ),
            ));
        }
        for own in 0..self.tables.fwd_len() {
            let parent_id = self.tables.fwd(own);
            if parent_id.index() >= parent.edge_count() {
                return Err(inconsistent(
                    "parent-edge table",
                    format!(
                        "spanner edge {own} maps to parent edge {parent_id} but the parent has {} edges",
                        parent.edge_count()
                    ),
                ));
            }
            let own_id = EdgeId::new(own);
            let e = parent.edge(parent_id);
            if self.csr.edge_endpoints(own_id) != e.endpoints()
                || self.csr.edge_weight(own_id) != e.weight()
            {
                return Err(inconsistent(
                    "parent-edge table",
                    format!("spanner edge {own} disagrees with parent edge {parent_id}"),
                ));
            }
        }
        Ok(())
    }
}

/// An artifact opened in place over a shared byte buffer — the result
/// of [`FrozenSpanner::open`]. Derefs to [`FrozenSpanner`], so every
/// serving API works unchanged; the wrapper exists to make "this came
/// from the zero-copy path" explicit in signatures like
/// `EpochServer::from_mapped`.
#[derive(Clone, Debug)]
pub struct MappedSpanner {
    inner: FrozenSpanner,
}

impl MappedSpanner {
    /// The underlying artifact.
    pub fn spanner(&self) -> &FrozenSpanner {
        &self.inner
    }

    /// Unwraps into the underlying artifact.
    pub fn into_inner(self) -> FrozenSpanner {
        self.inner
    }
}

impl std::ops::Deref for MappedSpanner {
    type Target = FrozenSpanner;

    fn deref(&self) -> &FrozenSpanner {
        &self.inner
    }
}

/// Compile-time proof of the serving contract: one artifact, any number
/// of threads.
#[allow(dead_code)]
fn frozen_spanner_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FrozenSpanner>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtGreedy;
    use spanner_graph::generators::{complete, cycle};
    use spanner_graph::NodeId;

    #[test]
    fn freeze_preserves_structure_and_metadata() {
        let g = complete(10);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        let frozen = ft.freeze(&g);
        assert_eq!(frozen.node_count(), 10);
        assert_eq!(frozen.edge_count(), ft.spanner().edge_count());
        assert_eq!(frozen.stretch(), 3);
        assert_eq!(frozen.budget(), Some(1));
        assert_eq!(frozen.model(), FaultModel::Vertex);
        assert_eq!(frozen.version(), ARTIFACT_VERSION);
        assert_eq!(frozen.witnesses().unwrap(), ft.witnesses());
        assert_eq!(
            frozen.parent_edge_ids().collect::<Vec<_>>(),
            ft.spanner().parent_edge_ids()
        );
        assert_eq!(
            frozen.parent().unwrap().unwrap().edge_count(),
            g.edge_count()
        );
    }

    #[test]
    fn bare_freeze_has_no_metadata() {
        let g = cycle(6);
        let s = Spanner::from_parent_edges(&g, g.edge_ids(), 3);
        let frozen = s.freeze();
        assert_eq!(frozen.budget(), None);
        assert!(frozen.parent().unwrap().is_none());
        assert!(frozen.witnesses().unwrap().is_empty());
        assert_eq!(frozen.edge_count(), 6);
    }

    #[test]
    fn parent_edge_translation_round_trips() {
        let g = cycle(4);
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(1), EdgeId::new(3)], 3);
        let frozen = s.freeze();
        assert_eq!(
            frozen.spanner_edge_of_parent(EdgeId::new(1)),
            Some(EdgeId::new(0))
        );
        assert_eq!(
            frozen.spanner_edge_of_parent(EdgeId::new(3)),
            Some(EdgeId::new(1))
        );
        assert_eq!(frozen.spanner_edge_of_parent(EdgeId::new(0)), None);
        assert_eq!(frozen.spanner_edge_of_parent(EdgeId::new(99)), None);
        assert_eq!(frozen.parent_edge(EdgeId::new(1)), EdgeId::new(3));
    }

    #[test]
    fn landmark_tables_agree_across_decode_and_open() {
        use rand::{rngs::StdRng, SeedableRng};
        let g =
            spanner_graph::generators::random_geometric(80, 0.25, &mut StdRng::seed_from_u64(3));
        let frozen = FtGreedy::new(&g, 3).faults(1).run().freeze(&g);
        let bytes = frozen.to_v2_sharded().encode();
        let decoded = FrozenSpanner::decode(&bytes).unwrap();
        let opened = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes)).unwrap();
        assert!(opened.is_in_place());
        assert_eq!(decoded.landmarks(), opened.landmarks());
        assert_eq!(frozen.landmarks(), opened.landmarks());
        // The table is never encoded: building it leaves the bytes alone.
        assert_eq!(opened.to_v2_sharded().encode(), bytes);
    }

    #[test]
    fn codec_round_trips_full_artifact() {
        let g = complete(10);
        let ft = FtGreedy::new(&g, 3).faults(2).run();
        let frozen = ft.freeze(&g);
        let bytes = frozen.encode();
        let back = FrozenSpanner::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes, "re-encoding must be byte-identical");
        assert_eq!(back.node_count(), frozen.node_count());
        assert_eq!(back.edge_count(), frozen.edge_count());
        assert_eq!(back.stretch(), frozen.stretch());
        assert_eq!(back.budget(), frozen.budget());
        assert_eq!(back.model(), frozen.model());
        assert_eq!(back.witnesses().unwrap(), frozen.witnesses().unwrap());
        assert_eq!(
            back.parent_edge_ids().collect::<Vec<_>>(),
            frozen.parent_edge_ids().collect::<Vec<_>>()
        );
        for pe in 0..g.edge_count() {
            assert_eq!(
                back.spanner_edge_of_parent(EdgeId::new(pe)),
                frozen.spanner_edge_of_parent(EdgeId::new(pe))
            );
        }
        let p = back.parent().unwrap().unwrap();
        assert_eq!(p.edge_count(), g.edge_count());
        for (id, e) in g.edges() {
            assert_eq!(p.endpoints(id), e.endpoints());
            assert_eq!(p.weight(id), e.weight());
        }
    }

    #[test]
    fn codec_round_trips_bare_artifact() {
        let g = cycle(6);
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(1), EdgeId::new(4)], 5);
        let frozen = s.freeze();
        let bytes = frozen.encode();
        let back = FrozenSpanner::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.budget(), None);
        assert!(back.parent().unwrap().is_none());
        assert!(back.witnesses().unwrap().is_empty());
        assert_eq!(
            back.spanner_edge_of_parent(EdgeId::new(4)),
            Some(EdgeId::new(1))
        );
        assert_eq!(back.spanner_edge_of_parent(EdgeId::new(0)), None);
    }

    #[test]
    fn decode_rejects_truncation_and_corruption_everywhere() {
        let g = complete(7);
        let bytes = FtGreedy::new(&g, 3).faults(1).run().freeze(&g).encode();
        for len in 0..bytes.len() {
            assert!(
                FrozenSpanner::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
        for i in (0..bytes.len()).step_by(3) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x2a;
            assert!(
                FrozenSpanner::decode(&corrupt).is_err(),
                "flipping byte {i} must be detected"
            );
        }
    }

    #[test]
    fn decode_rejects_cross_section_contradictions() {
        use spanner_graph::io::binary::{put_u32, put_u64, write_view_payload, ContainerWriter};
        let g = cycle(5);
        let frozen = Spanner::from_parent_edges(&g, g.edge_ids(), 3).freeze();
        // Rebuild the container by hand with a parent-edge table that is
        // one entry short: the count cross-check must catch it.
        let mut meta = Vec::new();
        put_u64(&mut meta, frozen.stretch());
        meta.push(0); // vertex model
        meta.push(0); // no budget
        put_u64(&mut meta, 0);
        put_u64(&mut meta, frozen.node_count() as u64);
        put_u64(&mut meta, frozen.edge_count() as u64);
        let mut spanner = Vec::new();
        write_view_payload(frozen.csr(), &mut spanner);
        let mut short_table = Vec::new();
        put_u64(&mut short_table, (frozen.edge_count() - 1) as u64);
        for id in frozen.parent_edge_ids().skip(1) {
            put_u32(&mut short_table, id.raw());
        }
        let mut witnesses = Vec::new();
        put_u64(&mut witnesses, 0);
        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
        w.section(SECTION_META, &meta)
            .section(SECTION_SPANNER, &spanner)
            .section(SECTION_PARENT_EDGES, &short_table)
            .section(SECTION_WITNESSES, &witnesses);
        let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Inconsistent { .. }),
            "want Inconsistent, got {err}"
        );
        assert!(err.to_string().contains("parent-edge table"), "{err}");
    }

    #[test]
    fn huge_parent_edge_ids_cannot_force_allocations() {
        use spanner_graph::io::binary::{put_u32, put_u64, write_view_payload, ContainerWriter};
        // A crafted *bare* artifact (no parent section) whose one
        // spanner edge claims parent edge id 0xfffffffe. The inverse
        // table that id implies would be ~16 GiB; decode must reject the
        // file from its stored (bytes-bounded) sections instead of ever
        // sizing an allocation from the id.
        let g = cycle(3);
        let frozen = Spanner::from_parent_edges(&g, [EdgeId::new(0)], 3).freeze();
        let mut meta = Vec::new();
        put_u64(&mut meta, 3);
        meta.push(0);
        meta.push(0);
        put_u64(&mut meta, 0);
        put_u64(&mut meta, frozen.node_count() as u64);
        put_u64(&mut meta, 1);
        let mut spanner = Vec::new();
        write_view_payload(frozen.csr(), &mut spanner);
        let mut witnesses = Vec::new();
        put_u64(&mut witnesses, 0);
        // Case A: the inverse claims u64::MAX slots — the bytes-present
        // guard rejects the count before any allocation.
        // Case B: the inverse is tiny — the forward id falls outside it.
        for inverse_slots in [u64::MAX, 1] {
            let mut table = Vec::new();
            put_u64(&mut table, 1);
            put_u32(&mut table, 0xffff_fffe);
            put_u64(&mut table, inverse_slots);
            if inverse_slots == 1 {
                put_u32(&mut table, 0);
            }
            let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
            w.section(SECTION_META, &meta)
                .section(SECTION_SPANNER, &spanner)
                .section(SECTION_PARENT_EDGES, &table)
                .section(SECTION_WITNESSES, &witnesses);
            let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
            assert!(
                err.to_string().contains("parent-edge"),
                "slots={inverse_slots}: {err}"
            );
        }
    }

    #[test]
    fn noninjective_forward_table_rejected() {
        use spanner_graph::io::binary::{put_u32, put_u64, ContainerWriter};
        // Two spanner copies of the same physical link, both mapped to
        // parent edge 2: epoching {e2} would mask only one copy, so the
        // decoder must refuse the artifact outright.
        let mut meta = Vec::new();
        put_u64(&mut meta, 3);
        meta.push(0);
        meta.push(0);
        put_u64(&mut meta, 0);
        put_u64(&mut meta, 3); // nodes
        put_u64(&mut meta, 2); // edges
        let mut spanner = Vec::new();
        put_u64(&mut spanner, 3);
        put_u64(&mut spanner, 2);
        for _ in 0..2 {
            put_u32(&mut spanner, 0);
            put_u32(&mut spanner, 1);
            put_u64(&mut spanner, 1);
        }
        let mut table = Vec::new();
        put_u64(&mut table, 2);
        put_u32(&mut table, 2);
        put_u32(&mut table, 2);
        put_u64(&mut table, 3); // slots 0..=2
        put_u32(&mut table, NOT_KEPT);
        put_u32(&mut table, NOT_KEPT);
        put_u32(&mut table, 1); // later claimant wins, as derivation does
        let mut witnesses = Vec::new();
        put_u64(&mut witnesses, 0);
        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
        w.section(SECTION_META, &meta)
            .section(SECTION_SPANNER, &spanner)
            .section(SECTION_PARENT_EDGES, &table)
            .section(SECTION_WITNESSES, &witnesses);
        let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
        assert!(err.to_string().contains("not injective"), "{err}");
    }

    #[test]
    fn denormalized_witness_ids_rejected() {
        use spanner_graph::io::binary::{put_u32, put_u64, write_view_payload, ContainerWriter};
        // Witness ids arrive unsorted: FaultSet would silently
        // renormalize them, breaking re-encode byte identity — so decode
        // must reject them with a typed error instead.
        let g = cycle(4);
        let frozen = Spanner::from_parent_edges(&g, [EdgeId::new(0)], 3).freeze();
        let mut meta = Vec::new();
        put_u64(&mut meta, 3);
        meta.push(0);
        meta.push(0);
        put_u64(&mut meta, 0);
        put_u64(&mut meta, frozen.node_count() as u64);
        put_u64(&mut meta, 1);
        let mut spanner = Vec::new();
        write_view_payload(frozen.csr(), &mut spanner);
        let mut table = Vec::new();
        put_u64(&mut table, 1);
        put_u32(&mut table, 0);
        put_u64(&mut table, 1);
        put_u32(&mut table, 0);
        for bad_ids in [[3u32, 1], [2, 2]] {
            let mut witnesses = Vec::new();
            put_u64(&mut witnesses, 1);
            witnesses.push(0); // vertex model
            put_u64(&mut witnesses, 2);
            for id in bad_ids {
                put_u32(&mut witnesses, id);
            }
            let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
            w.section(SECTION_META, &meta)
                .section(SECTION_SPANNER, &spanner)
                .section(SECTION_PARENT_EDGES, &table)
                .section(SECTION_WITNESSES, &witnesses);
            let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
            assert!(
                err.to_string().contains("sorted and deduplicated"),
                "{bad_ids:?}: {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_version_and_section() {
        let g = cycle(4);
        let frozen = Spanner::from_parent_edges(&g, g.edge_ids(), 3).freeze();
        let bytes = frozen.encode();
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = future.len() - 8;
        let sum = spanner_graph::io::binary::fnv1a64(&future[..body_len]).to_le_bytes();
        future[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            FrozenSpanner::decode(&future),
            Err(ArtifactError::Format(
                spanner_graph::io::binary::BinaryError::UnsupportedVersion { found: 99, .. }
            ))
        ));
    }

    #[test]
    fn apply_faults_matches_spanner_fault_mask() {
        let g = cycle(5);
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(0), EdgeId::new(2), EdgeId::new(4)], 3);
        let frozen = s.freeze();
        for faults in [
            FaultSet::vertices([NodeId::new(2), NodeId::new(4)]),
            FaultSet::edges([EdgeId::new(0), EdgeId::new(1), EdgeId::new(4)]),
            FaultSet::empty(FaultModel::Vertex),
        ] {
            let reference = s.fault_mask(&faults);
            let mut mask = FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
            frozen.apply_faults(&faults, &mut mask);
            assert_eq!(mask, reference, "faults {faults:?}");
        }
    }
}
