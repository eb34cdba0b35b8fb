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
//! The witness map is one fixed-stride section. The paper bounds every
//! witness at |F_e| ≤ f under the artifact's single fault model, so a
//! record is a `u32` length plus `f` `u32` id slots — `4 + 4f` bytes —
//! and [`FrozenSpanner::witnesses_for`] is one multiply and one bounds
//! check, reading exactly one record.
//!
//! The codec's contract, pinned by `tests/artifact_props.rs` and
//! `tests/witness_props.rs`:
//!
//! * `decode(encode(a))` re-encodes **byte-identically** and serves
//!   every epoch'd query batch **bit-identically** to `a`;
//! * truncated, corrupt, or crafted input returns a typed
//!   [`ArtifactError`] — decoding never panics;
//! * other format versions and unknown sections are rejected with
//!   typed errors, never misread (the compatibility policy: rebuild
//!   from the parent graph).
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

/// Header flag: the artifact is routing-only — the witness section was
/// detached at build time and witness accessors return
/// [`ArtifactError::WitnessesDetached`].
pub const FLAG_WITNESSES_DETACHED: u32 = 1;

/// Construction metadata: stretch, model, budget, counts.
pub const SECTION_META: u32 = 1;
/// The spanner adjacency (in-place CSR payload, edge ids = spanner edge
/// ids).
pub const SECTION_SPANNER: u32 = 2;
/// Spanner-edge → parent-edge id map, in spanner edge-id order.
pub const SECTION_PARENT_EDGES: u32 = 3;
/// Recorded witness fault sets: a count, then one fixed-stride record
/// per spanner edge.
pub const SECTION_WITNESSES: u32 = 4;
/// The parent graph (graph payload), present iff the artifact carries
/// the handle.
pub const SECTION_PARENT: u32 = 5;

/// Errors from [`FrozenSpanner::decode`] / [`FrozenSpanner::open`] and
/// the witness accessors: either the container itself is bad, it parsed
/// but describes an inconsistent artifact, an accessor asked for data
/// the artifact was deliberately built without, or the caller named an
/// edge the artifact does not have. Hostile input always lands here —
/// never in a panic.
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
    /// A witness query named a spanner edge id at or beyond the
    /// artifact's edge count.
    InvalidEdge {
        /// The edge id that was asked for.
        edge: EdgeId,
        /// The artifact's spanner edge count.
        edge_count: usize,
    },
}

/// Stable error codes [`ArtifactError`] adds on top of the
/// [`BinaryError`] taxonomy
/// ([`BINARY_ERROR_CODES`](spanner_graph::io::binary::BINARY_ERROR_CODES)).
/// The full decode-path code set is the union of the two; the snapshot
/// test in `tests/error_taxonomy.rs` pins it.
pub const ARTIFACT_ERROR_CODES: &[&str] = &[
    "artifact/cross-section",
    "artifact/invalid-edge",
    "artifact/witnesses-detached",
];

impl ArtifactError {
    /// A stable, machine-readable error code (part of the public error
    /// taxonomy: codes never change meaning; new variants get new
    /// codes). Match on codes, not on variants, when forward
    /// compatibility matters — the enum is `#[non_exhaustive]`.
    ///
    /// [`ArtifactError::Format`] routes straight through
    /// [`BinaryError::code`] so the container-level taxonomy has one
    /// source of truth; this layer adds `artifact/cross-section` for
    /// sections that parse individually but contradict each other, plus
    /// the two accessor refusals.
    pub fn code(&self) -> &'static str {
        match self {
            ArtifactError::Format(e) => e.code(),
            ArtifactError::Inconsistent { .. } => "artifact/cross-section",
            ArtifactError::WitnessesDetached => "artifact/witnesses-detached",
            ArtifactError::InvalidEdge { .. } => "artifact/invalid-edge",
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
            ArtifactError::InvalidEdge { edge, edge_count } => write!(
                f,
                "spanner edge {edge} is out of range (the artifact has {edge_count} edges)"
            ),
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

/// The spanner↔parent edge translation tables: owned `Vec`s (freeze) or
/// in-place reads over a shared buffer (decode and open).
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

/// Where the parent graph lives: absent, held (freeze), or raw section
/// bytes decoded lazily on first use and memoized — clones share the
/// memo cell, so one decode serves every handle.
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

/// Where the witness map lives: held (freeze), raw fixed-stride section
/// bytes read in place, or detached at build time (routing-only
/// replica). A bytes store reads single records on demand and decodes
/// the full map only when [`FrozenSpanner::witnesses`] forces it
/// (memoized, shared across clones).
///
/// The `touched` counter meters witness-section bytes actually read,
/// shared across clones like the memo cell.
#[derive(Clone, Debug)]
enum WitnessStore {
    Eager(Vec<FaultSet>),
    Bytes {
        bytes: SharedBytes,
        /// Witness section range inside `bytes`.
        at: usize,
        len: usize,
        /// Record count (0 or the edge count, validated at open).
        count: usize,
        /// Record width `4 + 4f` (overflow-checked at open).
        stride: usize,
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
    ///
    /// # Panics
    ///
    /// Panics unless every witness holds at most `budget` ids (none
    /// without a budget) in `model` — the bound the fixed-stride witness
    /// section is laid out by.
    pub(crate) fn assemble(
        spanner: &Spanner,
        parent: Option<Arc<Graph>>,
        budget: Option<usize>,
        model: FaultModel,
        witnesses: Vec<FaultSet>,
    ) -> Self {
        let f = budget.unwrap_or(0);
        assert!(
            witnesses.iter().all(|w| w.model() == model && w.len() <= f),
            "every witness must hold at most f = {f} ids in the {model} model"
        );
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

    /// Witness-section bytes this artifact has actually read so far:
    /// exactly one `4 + 4f`-byte record per
    /// [`FrozenSpanner::witnesses_for`] lookup, plus the whole section
    /// once when [`FrozenSpanner::witnesses`] forces the full map. Always
    /// 0 for held or detached stores — the meter exists for the in-place
    /// serving path, where "how many bytes did that lookup fault in" is
    /// the quantity worth watching.
    pub fn witness_bytes_touched(&self) -> u64 {
        match &self.witnesses {
            WitnessStore::Bytes { touched, .. } => touched.load(Ordering::Relaxed),
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
    /// On an artifact read from bytes the witness section is decoded on
    /// first use, then memoized.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::WitnessesDetached`] on a routing-only replica;
    /// otherwise an [`ArtifactError`] when a witness record is corrupt.
    pub fn witnesses(&self) -> Result<&[FaultSet], ArtifactError> {
        match &self.witnesses {
            WitnessStore::Eager(w) => Ok(w),
            WitnessStore::Detached => Err(ArtifactError::WitnessesDetached),
            WitnessStore::Bytes {
                bytes,
                at,
                len,
                stride,
                cell,
                touched,
                ..
            } => {
                let res = cell.get_or_init(|| {
                    touched.fetch_add(*len as u64, Ordering::Relaxed);
                    bytes.as_slice()[at + 8..at + len]
                        .chunks_exact(*stride)
                        .enumerate()
                        .map(|(i, rec)| self.parse_witness_record(rec, i))
                        .collect()
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
    /// On an artifact read from bytes this reads and validates exactly
    /// edge `edge`'s `4 + 4f`-byte record — O(f) per call, no up-front
    /// scan, nothing memoized. An artifact carrying no witness map
    /// (frozen from a bare [`Spanner`]) answers with an empty set in the
    /// artifact's fault model.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::InvalidEdge`] when `edge` is not a spanner edge;
    /// [`ArtifactError::WitnessesDetached`] on a routing-only replica;
    /// otherwise an [`ArtifactError`] when the record is corrupt.
    pub fn witnesses_for(&self, edge: EdgeId) -> Result<FaultSet, ArtifactError> {
        let i = edge.index();
        if i >= self.edge_count() {
            return Err(ArtifactError::InvalidEdge {
                edge,
                edge_count: self.edge_count(),
            });
        }
        match &self.witnesses {
            WitnessStore::Detached => Err(ArtifactError::WitnessesDetached),
            WitnessStore::Eager(sets) => Ok(sets
                .get(i)
                .cloned()
                .unwrap_or_else(|| FaultSet::empty(self.model))),
            WitnessStore::Bytes { count: 0, .. } => Ok(FaultSet::empty(self.model)),
            WitnessStore::Bytes {
                bytes,
                at,
                stride,
                touched,
                ..
            } => {
                // The section length was proven equal to `8 + count ×
                // stride` at open, so the record slice is in bounds.
                touched.fetch_add(*stride as u64, Ordering::Relaxed);
                let start = at + 8 + i * stride;
                self.parse_witness_record(&bytes.as_slice()[start..start + stride], i)
            }
        }
    }

    /// Validates witness record `i` (`rec` is its `4 + 4f` bytes): a
    /// length of at most f, ids in range for the artifact's model, stored
    /// sorted and deduplicated, unused slots zero — so accept implies
    /// canonical re-encode.
    fn parse_witness_record(&self, rec: &[u8], i: usize) -> Result<FaultSet, ArtifactError> {
        let f = (rec.len() - 4) / 4;
        let len = read_u32_at(rec, 0) as usize;
        if len > f {
            return Err(BinaryError::Malformed {
                context: "witness length",
                detail: format!("witness {i} claims {len} ids, the fault budget is {f}"),
            }
            .into());
        }
        let id = |j: usize| read_u32_at(rec, 4 + 4 * j) as usize;
        if let Some(j) = (len..f).find(|&j| id(j) != 0) {
            return Err(BinaryError::Malformed {
                context: "witness padding",
                detail: format!("witness {i} carries a nonzero unused slot {j}"),
            }
            .into());
        }
        let bound = match self.model {
            FaultModel::Vertex => self.node_count(),
            FaultModel::Edge => self.edge_count(),
        };
        if let Some(bad) = (0..len).map(id).find(|&c| c >= bound) {
            return Err(inconsistent(
                "witness map",
                format!("witness {i} references component {bad}, id space is {bound}"),
            ));
        }
        // Ids are stored normalized (sorted ascending, deduplicated). The
        // FaultSet constructors would silently renormalize a crafted
        // record — and then the artifact would no longer re-encode to the
        // bytes that were accepted — so reject it with a typed error.
        if (1..len).any(|j| id(j - 1) >= id(j)) {
            return Err(inconsistent(
                "witness map",
                format!("witness {i} ids are not sorted and deduplicated"),
            ));
        }
        let ids = (0..len).map(id);
        Ok(match self.model {
            FaultModel::Vertex => FaultSet::vertices(ids.map(NodeId::new)),
            FaultModel::Edge => FaultSet::edges(ids.map(EdgeId::new)),
        })
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
/// `NOT_KEPT` where the parent edge did not survive. Decoding never
/// derives the table: `validate_tables` proves the stored inverse equal
/// to it in place, so allocations stay bounded by the input.
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

/// Parses the 34-byte `META` payload.
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

/// Serializes the fixed-stride `WITNESSES` section payload: `count`,
/// then per witness a `u32` length and `f` `u32` id slots, ids sorted
/// ascending, unused slots zero.
fn witness_payload(sets: &[FaultSet], f: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + sets.len() * (4 + 4 * f));
    put_u64(&mut out, sets.len() as u64);
    for set in sets {
        put_u32(&mut out, set.len() as u32);
        for id in set.component_indices() {
            put_u32(&mut out, id as u32);
        }
        for _ in set.len()..f {
            put_u32(&mut out, 0);
        }
    }
    out
}

/// Validates the shape of a `WITNESSES` section before anything is
/// sliced from it and returns `(count, stride)`. The budget comes from
/// META — outside the program — so the stride `4 + 4f` and the section
/// length `8 + count × stride` are computed with checked arithmetic and
/// compared against the bytes present; records are validated one by
/// one as they are read.
fn witness_layout(
    data: &[u8],
    at: usize,
    len: usize,
    budget: Option<usize>,
    edge_count: usize,
) -> Result<(usize, usize), ArtifactError> {
    if len < 8 {
        return Err(BinaryError::Truncated {
            context: "witness count",
        }
        .into());
    }
    let count_raw = read_u64_at(data, at);
    if count_raw != 0 && count_raw != edge_count as u64 {
        return Err(inconsistent(
            "witness map",
            format!("{count_raw} witness sets for {edge_count} spanner edges"),
        ));
    }
    let count = count_raw as usize;
    let stride = budget
        .unwrap_or(0)
        .checked_mul(4)
        .and_then(|ids| ids.checked_add(4));
    let expected = stride
        .and_then(|s| count.checked_mul(s))
        .and_then(|records| records.checked_add(8));
    match (stride, expected) {
        (Some(stride), Some(expected)) if expected == len => Ok((count, stride)),
        _ => Err(BinaryError::Malformed {
            context: "witness map",
            detail: format!(
                "{count} records at fault budget {} do not fill the {len}-byte section",
                budget.unwrap_or(0)
            ),
        }
        .into()),
    }
}

/// Parses a `PARENT` payload into a [`Graph`] (full simple-graph
/// invariants re-enforced). Cross-checks against the spanner happen in
/// `FrozenSpanner::check_parent_consistency`.
fn parse_parent_payload(payload: &[u8]) -> Result<Graph, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let graph = binary::read_graph_payload(&mut r)?;
    r.expect_drained("parent graph")?;
    Ok(graph)
}

/// Validates a `PARENT_EDGES` section **in place** and returns a
/// borrowed table view. O(fwd + inv) scans, no allocation sized by the
/// input. The checks pin the stored inverse to exactly the inverse
/// function of the forward table (back-pointer agreement + a kept-slot
/// census that also proves the forward table injective), and — when no
/// parent travels with the artifact — the canonical slot count
/// `max(fwd) + 1`; with a parent, the slot count is checked against the
/// parent's edge count when the parent is decoded.
fn validate_tables(
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
        let flags = if self.witnesses_detached() {
            FLAG_WITNESSES_DETACHED
        } else {
            0
        };
        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, flags);
        w.section(SECTION_META, self.meta_payload());
        let mut spanner = Vec::with_capacity(self.csr.payload_len());
        self.csr.write_payload(&mut spanner);
        w.section(SECTION_SPANNER, spanner);
        // Both translation directions travel in the bytes. The inverse
        // is derivable from the forward table, but *storing* it is what
        // keeps decode's allocations bounded by the input: its length is
        // then guarded against the bytes actually present, where a
        // re-derived table would be sized by an attacker-controlled
        // maximum id.
        w.section(SECTION_PARENT_EDGES, self.tables.payload());
        // Sections held as raw (validated) bytes are re-emitted as they
        // are, so re-encoding never forces a decode and stays canonical.
        match &self.witnesses {
            WitnessStore::Eager(sets) => {
                w.section(
                    SECTION_WITNESSES,
                    witness_payload(sets, self.budget.unwrap_or(0)),
                );
            }
            WitnessStore::Bytes { bytes, at, len, .. } => {
                w.section(
                    SECTION_WITNESSES,
                    bytes.as_slice()[*at..*at + *len].to_vec(),
                );
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
        w.finish()
    }

    /// The 34-byte `META` section payload.
    fn meta_payload(&self) -> Vec<u8> {
        let mut meta = Vec::with_capacity(34);
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

    /// The identity: a copy of this artifact, which already has the only
    /// witness layout there is.
    // The `pipebench/` benchmark is the only caller; the next benchmark
    // change removes the call, and this shim with it.
    #[doc(hidden)]
    pub fn to_v2_sharded(&self) -> FrozenSpanner {
        self.clone()
    }

    /// A routing-only copy of this artifact: the witness section is
    /// dropped, the header carries [`FLAG_WITNESSES_DETACHED`], and
    /// [`FrozenSpanner::witnesses`] returns
    /// [`ArtifactError::WitnessesDetached`].
    pub fn detach_witnesses(&self) -> FrozenSpanner {
        let mut out = self.clone();
        out.witnesses = WitnessStore::Detached;
        out
    }

    /// Deserializes an artifact previously produced by
    /// [`FrozenSpanner::encode`], revalidating every invariant the
    /// serving layer relies on (translation tables in range, every
    /// witness record well formed, spanner edges present in the parent
    /// with identical endpoints and weights). The bytes are copied into
    /// an aligned buffer and then read like [`FrozenSpanner::open`]
    /// reads them, with the lazy sections forced up front.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any defect — truncation, corruption, another
    /// format version, an unknown section, or internally contradictory
    /// sections. No input, however hostile, can cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<FrozenSpanner, ArtifactError> {
        let frozen = Self::load(SharedBytes::copy_aligned(bytes))?;
        // Force (and memoize) the lazy sections so decode() means "the
        // whole file is valid". A detached witness store is not an
        // invalid file.
        frozen.parent()?;
        match frozen.witnesses() {
            Ok(_) | Err(ArtifactError::WitnessesDetached) => {}
            Err(e) => return Err(e),
        }
        Ok(frozen)
    }

    /// Opens an artifact **in place**: the packed adjacency and
    /// translation tables are validated and then *borrowed* from
    /// `bytes` (an mmap'd file, an aligned heap buffer, …) with no `Vec`
    /// rebuild; the witness section's shape is validated up front and
    /// its records on read, and the parent graph is decoded lazily on
    /// first use. Open cost is O(header + validation scans) — the
    /// cold-start path for "build once, serve from thousands of
    /// replicas".
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any structural defect, including a buffer
    /// that misses the 8-byte base alignment
    /// (`artifact/misaligned-section`). Hostile input cannot panic and
    /// cannot size an allocation beyond the bytes present.
    pub fn open(bytes: SharedBytes) -> Result<MappedSpanner, ArtifactError> {
        Ok(MappedSpanner {
            inner: Self::load(bytes)?,
        })
    }

    /// Parses a container over `shared`, validating everything but the
    /// parent section and the individual witness records, which stay
    /// raw bytes until first use. No per-record materialization of the
    /// packed CSR.
    fn load(shared: SharedBytes) -> Result<FrozenSpanner, ArtifactError> {
        let container =
            binary::parse_container(shared.as_slice(), ARTIFACT_MAGIC, FLAG_WITNESSES_DETACHED)?;
        let detached = container.flags & FLAG_WITNESSES_DETACHED != 0;
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
        let m = require(SECTION_META, "meta")?;
        let meta = parse_meta_payload(&data[m.offset..m.offset + m.len])?;

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
        let tables = validate_tables(
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
            let (count, stride) =
                witness_layout(data, w.offset, w.len, meta.budget, meta.edge_count)?;
            WitnessStore::Bytes {
                bytes: shared.clone(),
                at: w.offset,
                len: w.len,
                count,
                stride,
                cell: Arc::new(OnceLock::new()),
                touched: Arc::new(AtomicU64::new(0)),
            }
        };

        Ok(FrozenSpanner {
            csr,
            parent,
            tables,
            stretch: meta.stretch,
            budget: meta.budget,
            model: meta.model,
            witnesses,
            landmarks: Arc::default(),
        })
    }

    /// Full parent cross-checks, run when the lazy parent section is
    /// first decoded:
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

    /// Seals hand-built sections into an artifact container.
    fn container(sections: Vec<(u32, Vec<u8>)>) -> Vec<u8> {
        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, 0);
        for (tag, payload) in sections {
            w.section(tag, payload);
        }
        w.finish()
    }

    /// A `META` payload with the given budget and shape.
    fn meta(budget: Option<u64>, node_count: usize, edge_count: usize) -> Vec<u8> {
        let mut meta = Vec::new();
        put_u64(&mut meta, 3);
        meta.push(0); // vertex model
        meta.push(budget.is_some() as u8);
        put_u64(&mut meta, budget.unwrap_or(0));
        put_u64(&mut meta, node_count as u64);
        put_u64(&mut meta, edge_count as u64);
        meta
    }

    /// The in-place CSR payload of a frozen adjacency.
    fn csr_payload(csr: &FrozenCsr) -> Vec<u8> {
        let mut out = Vec::new();
        csr.write_payload(&mut out);
        out
    }

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
        let bytes = frozen.encode();
        let decoded = FrozenSpanner::decode(&bytes).unwrap();
        let opened = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes)).unwrap();
        assert!(opened.is_in_place());
        assert_eq!(decoded.landmarks(), opened.landmarks());
        assert_eq!(frozen.landmarks(), opened.landmarks());
        // The table is never encoded: building it leaves the bytes alone.
        assert_eq!(opened.encode(), bytes);
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
        let g = cycle(5);
        let frozen = Spanner::from_parent_edges(&g, g.edge_ids(), 3).freeze();
        // Rebuild the container by hand with a parent-edge table that is
        // one entry short: the count cross-check must catch it.
        let mut short_table = Vec::new();
        put_u64(&mut short_table, (frozen.edge_count() - 1) as u64);
        for id in frozen.parent_edge_ids().skip(1) {
            put_u32(&mut short_table, id.raw());
        }
        let bytes = container(vec![
            (
                SECTION_META,
                meta(None, frozen.node_count(), frozen.edge_count()),
            ),
            (SECTION_SPANNER, csr_payload(frozen.csr())),
            (SECTION_PARENT_EDGES, short_table),
            (SECTION_WITNESSES, 0u64.to_le_bytes().to_vec()),
        ]);
        let err = FrozenSpanner::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Inconsistent { .. }),
            "want Inconsistent, got {err}"
        );
        assert!(err.to_string().contains("parent-edge table"), "{err}");
    }

    #[test]
    fn huge_parent_edge_ids_cannot_force_allocations() {
        // A crafted *bare* artifact (no parent section) whose one
        // spanner edge claims parent edge id 0xfffffffe. The inverse
        // table that id implies would be ~16 GiB; decode must reject the
        // file from its stored (bytes-bounded) sections instead of ever
        // sizing an allocation from the id.
        let g = cycle(3);
        let frozen = Spanner::from_parent_edges(&g, [EdgeId::new(0)], 3).freeze();
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
            let bytes = container(vec![
                (SECTION_META, meta(None, frozen.node_count(), 1)),
                (SECTION_SPANNER, csr_payload(frozen.csr())),
                (SECTION_PARENT_EDGES, table),
                (SECTION_WITNESSES, 0u64.to_le_bytes().to_vec()),
            ]);
            let err = FrozenSpanner::decode(&bytes).unwrap_err();
            assert!(
                err.to_string().contains("parent-edge"),
                "slots={inverse_slots}: {err}"
            );
        }
    }

    #[test]
    fn noninjective_forward_table_rejected() {
        // Two spanner edges both mapped to parent edge 2: epoching {e2}
        // would mask only one of them, so the decoder must refuse the
        // artifact outright.
        let path = spanner_graph::generators::path(3);
        let mut table = Vec::new();
        put_u64(&mut table, 2);
        put_u32(&mut table, 2);
        put_u32(&mut table, 2);
        put_u64(&mut table, 3); // slots 0..=2
        put_u32(&mut table, NOT_KEPT);
        put_u32(&mut table, NOT_KEPT);
        put_u32(&mut table, 1); // later claimant wins, as derivation does
        let bytes = container(vec![
            (SECTION_META, meta(None, 3, 2)),
            (SECTION_SPANNER, csr_payload(&FrozenCsr::from_view(&path))),
            (SECTION_PARENT_EDGES, table),
            (SECTION_WITNESSES, 0u64.to_le_bytes().to_vec()),
        ]);
        let err = FrozenSpanner::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("not injective"), "{err}");
    }

    #[test]
    fn denormalized_witness_ids_rejected() {
        // Witness ids arrive unsorted: FaultSet would silently
        // renormalize them, breaking re-encode byte identity — so decode
        // must reject them with a typed error instead.
        let g = cycle(4);
        let frozen = Spanner::from_parent_edges(&g, [EdgeId::new(0)], 3).freeze();
        let mut table = Vec::new();
        put_u64(&mut table, 1);
        put_u32(&mut table, 0);
        put_u64(&mut table, 1);
        put_u32(&mut table, 0);
        for bad_ids in [[3u32, 1], [2, 2]] {
            let mut witnesses = Vec::new();
            put_u64(&mut witnesses, 1);
            put_u32(&mut witnesses, 2);
            for id in bad_ids {
                put_u32(&mut witnesses, id);
            }
            let bytes = container(vec![
                (SECTION_META, meta(Some(2), frozen.node_count(), 1)),
                (SECTION_SPANNER, csr_payload(frozen.csr())),
                (SECTION_PARENT_EDGES, table.clone()),
                (SECTION_WITNESSES, witnesses),
            ]);
            let err = FrozenSpanner::decode(&bytes).unwrap_err();
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
        let reseal = |bytes: &mut Vec<u8>| {
            let body_len = bytes.len() - 8;
            let sum = binary::fnv1a64_words(&bytes[..body_len]).to_le_bytes();
            bytes[body_len..].copy_from_slice(&sum);
        };
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        reseal(&mut future);
        assert!(matches!(
            FrozenSpanner::decode(&future),
            Err(ArtifactError::Format(BinaryError::UnsupportedVersion {
                found: 99,
                ..
            }))
        ));
        let mut unknown = bytes.clone();
        unknown[binary::HEADER_LEN..binary::HEADER_LEN + 4]
            .copy_from_slice(&0xBEEFu32.to_le_bytes());
        reseal(&mut unknown);
        assert!(matches!(
            FrozenSpanner::decode(&unknown),
            Err(ArtifactError::Format(BinaryError::UnknownSection {
                tag: 0xBEEF
            }))
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
