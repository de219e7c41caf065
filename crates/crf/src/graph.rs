//! The factor-graph representation of a probabilistic fact database.
//!
//! Following §3.1 of the paper, the CRF is an undirected graph over three
//! kinds of random variables — sources `S`, documents `D`, and claims `C` —
//! where every *relation factor* (clique) joins exactly one claim, one
//! document, and one source. Source and document variables are observed
//! (their feature vectors are data); only the binary claim variables are
//! latent. Opposing stances are handled per §3.1: a document that *refutes*
//! a claim is attached to the claim's opposing variable `¬c`, which we encode
//! by evaluating the clique potential with the claim's value flipped — this
//! realises the non-equality constraint of Eq. 3 exactly (a claim and its
//! opposing variable can never agree because they are two views of one bit).
//!
//! The mutual-reinforcement between claims of a shared source (the paper's
//! *indirect relation*) is carried by a dynamic source-trust statistic
//! appended to each clique's feature vector: the smoothed fraction of the
//! source's *other* claims currently believed credible. Validating one claim
//! therefore shifts the conditional distribution of all claims sharing one
//! of its sources, which is exactly the propagation behaviour §3.2 requires
//! of the Gibbs sampler ("we weight the influence of causal interactions by
//! the credibility of their contained claims").
//!
//! # Versioned lifecycle (streaming arrivals and retirement, §7)
//!
//! There is one way to lay out the factor graph: a private *splice* that
//! validates a [`ModelDelta`]'s references and merges its entities into
//! the CSR adjacency. [`CrfModel::build`] is one splice of a
//! [`ModelDelta::new`] into the empty model; the streaming mode of Alg. 2
//! then both **grows** and **shrinks** the factor graph in place as claims
//! arrive and expire. The lifecycle has three operations, each bumping the
//! [`CrfModel::revision`] counter while the build-lineage
//! [`CrfModel::model_id`] is preserved:
//!
//! 1. **Grow** — a [`ModelDelta`] collects new sources, documents, claims,
//!    and cliques against a base `(model_id, revision)` pair, and
//!    [`CrfModel::apply`] splices it into the CSR adjacency.
//! 2. **Retire** — a [`RetireSet`] names claims and sources to take out of
//!    service; [`CrfModel::retire`] *tombstones* them in `O(touched)`:
//!    entity ids and array layouts are untouched, dead entities are marked
//!    in bitmaps, every clique incident to a retired claim or source is
//!    marked dead with it, and the per-source live-claim counts that feed
//!    the dynamic trust statistic are maintained. Inference skips dead
//!    entities (dead claims are never swept, dead cliques contribute
//!    exactly nothing) but pays no relocation cost per retire.
//! 3. **Compact** — when the dead fraction warrants it (a threshold the
//!    caller picks; see `stream`'s `RetentionPolicy`),
//!    [`CrfModel::compact`] splices the survivors into the empty model —
//!    the **canonical layout** of the surviving subgraph — and publishes
//!    an [`IdRemap`] so holders of per-entity state (per-claim
//!    probabilities and labels, upstream sync maps) *relocate* it instead
//!    of starting over. Documents whose cliques all died are dropped with them — this is
//!    what bounds the memory of a long-running stream.
//!
//! The contract model-derived caches rely on:
//!
//! * **Identity** — equal `model_id` means one build lineage, and
//!   `(model_id, revision)` names the content exactly. A derived structure
//!   records a [`SyncPoint`] ([`CrfModel::sync_point`]) when it syncs and
//!   asks [`CrfModel::since`] how to catch up; that one decision tells
//!   growth, retirement and compaction apart within a revision jump
//!   ([`Since::Unchanged`], [`Since::Patch`], [`Since::Relocate`],
//!   [`Since::Rebuild`]) and answers another lineage or a divergent clone
//!   (fewer entities than the sync point saw, or one revision with two
//!   contents) with a rebuild.
//! * **Stable ids between compactions** — existing claim/source/document
//!   indices and clique ids never change meaning while tombstoned; a delta
//!   only adds, a retire only marks. Clique ids are assigned in arrival
//!   order, so `cliques()[k]` is stable until the next compaction.
//! * **Canonical layout** — the splice appends each claim's new clique ids
//!   after its old ones and merges new edges into the sorted,
//!   deduplicated source↔claim rows, so after any sequence of deltas the
//!   adjacency is **identical** (same arrays, same element order) to one
//!   splice of the final content in the same insertion order; after a
//!   [`CrfModel::compact`] it is identical to a one-shot build of the
//!   *surviving* entities in their original insertion order (the
//!   [`IdRemap`] is exactly that order-preserving renumbering). Claim-major
//!   spans shift only when a claim gains cliques, and the claim-major
//!   position of every old clique is recoverable from its id. Structures
//!   computed from one snapshot ([`crate::partition::Partition`], the
//!   E-step's `potentials::ClaimEvidence`) read the live cliques in this
//!   canonical order, so they come out the same, bit for bit, on a
//!   lifecycle model and on a one-shot build of its survivors. Inference
//!   on a grown, retired-then-compacted model is therefore bit-identical
//!   — modulo the published [`IdRemap`] — to inference on a one-shot build
//!   of the surviving subgraph.
//! * **Remap availability** — the model keeps only the **latest**
//!   compaction's [`IdRemap`]. A structure that syncs at least once per
//!   compaction gets [`Since::Relocate`] — even when the model grew in the
//!   gap before the compaction, since the remap covers every id the sync
//!   point saw — and relocates in `O(state)`; one that slept through two
//!   compactions gets [`Since::Rebuild`]. Holders of raw ids rather than
//!   sync points (upstream sync maps, query cursors) record
//!   [`CrfModel::compactions`] and translate through
//!   [`CrfModel::remap_since`], which refuses a gap of two with
//!   [`ModelError::Remapped`].
//!
//! # Edits as log records (LSN ↔ lineage mapping)
//!
//! Every lifecycle operation is reified as a [`ModelEdit`] — a grow delta,
//! a retire set, or a compact marker — and every edit is prepared against
//! one `(model_id, revision)` pair ([`ModelEdit::base_revision`]) and, when
//! it commits, bumps the revision by **exactly one**. The edit stream of a
//! lineage is therefore totally ordered by revision, which is what lets a
//! write-ahead log (the `durability` crate) assign each record a monotonic
//! log sequence number with the invariant
//!
//! ```text
//! record lsn L  ⇔  edit with base revision R0 + (L − L0)
//! ```
//!
//! where `(L0, R0)` anchor the log segment. Replaying the records in LSN
//! order through [`CrfModel::edit`] reproduces the model **bit-identically**
//! (the canonical-layout contract above): a grow replays its exact delta, a
//! retire its exact tombstone set, and a compact marker re-runs
//! [`CrfModel::compact`] — which is a deterministic function of the model
//! state, so the regenerated [`IdRemap`] equals the original and need not
//! be logged. [`ModelEdit`] (and its payloads [`ModelDelta`], [`RetireSet`],
//! [`IdRemap`]) serialise with `serde` for exactly this purpose; a
//! deserialised edit applies to the same revision and produces the same
//! canonical layout as the original.
//!
//! # Ownership
//!
//! A lineage has one writer, which owns its `Arc<CrfModel>` and edits it
//! through `Arc::make_mut`: in place while nobody else holds the `Arc`,
//! on a private copy while a reader pins a clone. A pinned clone is
//! therefore a consistent snapshot that never changes under its holder.
//! Another component that follows the lineage (an offline engine beside
//! a streaming checker) is handed the writer's current `Arc` and syncs to
//! it through [`CrfModel::since`].

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Index of a claim variable in the CRF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable index as a usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Index of a clique (relation factor) in the CRF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CliqueId(pub u32);

impl CliqueId {
    /// The clique index as a usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A monotone version counter of one model lineage: `Revision(0)` is the
/// freshly built model, and every successful (non-empty)
/// [`CrfModel::apply`] increments it. Caches pair it with
/// [`CrfModel::model_id`] to decide between patching and rebuilding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Revision(pub u64);

impl std::fmt::Display for Revision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Whether a document supports or refutes the claim it references (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stance {
    /// The document asserts the claim.
    Support,
    /// The document disputes the claim; the clique attaches to the opposing
    /// variable `¬c`.
    Refute,
}

impl Stance {
    /// Apply the stance to a claim value: the effective label seen by the
    /// clique potential.
    #[inline]
    pub fn effective(self, claim_value: bool) -> bool {
        match self {
            Stance::Support => claim_value,
            Stance::Refute => !claim_value,
        }
    }
}

/// A relation factor joining one claim, one document, and one source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Clique {
    /// The latent claim variable.
    pub claim: VarId,
    /// Index of the source providing the document (into `source_features`).
    pub source: u32,
    /// Index of the document (into `doc_features`).
    pub doc: u32,
    /// Stance of the document towards the claim.
    pub stance: Stance,
}

/// The full factor graph plus observed feature matrices.
///
/// Construct via [`CrfModel::build`] from a [`ModelDelta::new`], grow with
/// [`CrfModel::apply`]. The model is immutable during
/// inference; all mutable state (weights, probabilities, labels) lives in
/// [`crate::em::Icrf`].
///
/// # Adjacency layout
///
/// All three adjacency maps (claim → cliques, source → distinct claims,
/// claim → distinct sources) are stored in **CSR form**: one flat offset
/// array of length `n + 1` plus one flat index array, instead of a
/// `Vec<Vec<u32>>` of per-node heap allocations. The Gibbs sampler walks
/// claim → cliques on every single-site update, so its inner loop reads one
/// contiguous index slice per visit — no pointer chase per neighbour list,
/// no per-list allocation, and the whole adjacency of a typical model fits
/// in L2. The accessor API is unchanged (`cliques_of` & friends still
/// return `&[u32]`); only the backing layout moved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrfModel {
    /// Build-lineage identity: every [`CrfModel::build`] call draws
    /// a fresh process-unique id; clones and serde round-trips (which are
    /// content-identical) keep it. Model-derived caches key their
    /// freshness on this, so two independently built models can never be
    /// confused — not even same-shape models reusing a heap address.
    model_id: u64,
    /// Edit counter within the lineage: 0 at build, +1 per applied
    /// non-empty [`ModelDelta`], [`RetireSet`], or [`Self::compact`].
    /// `(model_id, revision)` identifies the content exactly.
    revision: u64,
    /// Number of [`Self::retire`] operations applied over the lineage's
    /// lifetime (monotone; [`Self::since`] diffs it to report retirement).
    retire_ops: u64,
    /// Number of [`Self::compact`] operations applied over the lineage's
    /// lifetime (monotone; [`Self::since`] diffs it to decide relocation
    /// vs rebuild).
    compactions: u64,
    /// Lifetime entity counters: grown by [`Self::apply`], never reduced by
    /// retirement or compaction. Upstream stores (`FactDatabase`) key their
    /// sync point on these, so records once ingested are never re-emitted
    /// after the model lets them go.
    ingested_claims: u64,
    ingested_sources: u64,
    ingested_docs: u64,
    ingested_cliques: u64,
    /// Tombstone bitmaps (empty ⇔ nothing dead of that kind). Cleared by
    /// [`Self::compact`].
    dead_claims: Vec<bool>,
    dead_sources: Vec<bool>,
    dead_cliques: Vec<bool>,
    n_dead_claims: usize,
    n_dead_sources: usize,
    n_dead_cliques: usize,
    /// Per-source count of **live** claims — the denominator of the dynamic
    /// trust statistic. Empty ⇔ no tombstones (the CSR degree is the count).
    live_claims_per_source: Vec<u32>,
    /// The latest compaction's renumbering, kept so model-keyed structures
    /// can relocate instead of rebuilding ([`Self::since`],
    /// [`Self::remap_since`]). Shared, so copies of it are pointer copies.
    last_compaction: Option<Arc<IdRemap>>,
    n_claims: usize,
    n_sources: usize,
    n_docs: usize,
    m_source: usize,
    m_doc: usize,
    cliques: Vec<Clique>,
    /// CSR offsets (`n_claims + 1`) into [`Self::claim_clique_ids`].
    claim_clique_offsets: Vec<u32>,
    /// Clique ids per claim, in clique-insertion order (claim-major).
    claim_clique_ids: Vec<u32>,
    /// Source of each entry of `claim_clique_ids` (parallel array), so the
    /// sampler's inner loop never chases into `cliques` for the source id.
    claim_clique_sources: Vec<u32>,
    /// CSR offsets (`n_sources + 1`) into [`Self::source_claim_ids`].
    source_claim_offsets: Vec<u32>,
    /// Distinct claim ids per source, ascending (the set `C_s` of Eq. 17).
    source_claim_ids: Vec<u32>,
    /// CSR offsets (`n_claims + 1`) into [`Self::claim_source_ids`].
    claim_source_offsets: Vec<u32>,
    /// Distinct source ids per claim, ascending.
    claim_source_ids: Vec<u32>,
    /// row-major `n_docs x m_doc`
    doc_features: Vec<f64>,
    /// row-major `n_sources x m_source`
    source_features: Vec<f64>,
}

/// Process-unique id source for [`CrfModel`] build lineages (0 is never
/// issued, so caches can use it as "nothing cached yet").
static NEXT_MODEL_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl CrfModel {
    /// The model's build-lineage id: clone/serde copies of one build share
    /// it; independent builds always differ. Derived structures compare it
    /// through [`Self::since`] rather than directly.
    #[inline]
    pub fn model_id(&self) -> u64 {
        self.model_id
    }

    /// The model's revision within its lineage: how many deltas have been
    /// applied since [`Self::build`]. Clones and serde
    /// round-trips keep it; [`Self::apply`] bumps it.
    #[inline]
    pub fn revision(&self) -> Revision {
        Revision(self.revision)
    }

    /// Number of [`Self::compact`] operations applied over the lineage's
    /// lifetime: the epoch of the id space. Holders of raw ids record it
    /// and translate through [`Self::remap_since`].
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The model's current position, for a derived structure to record
    /// when it syncs and hand back to [`Self::since`] on the next sync.
    pub fn sync_point(&self) -> SyncPoint {
        SyncPoint {
            model_id: self.model_id,
            revision: self.revision,
            retire_ops: self.retire_ops,
            compactions: self.compactions,
            n_claims: self.n_claims,
            n_cliques: self.cliques.len(),
        }
    }

    /// How a structure synced at `at` catches up with this model — the
    /// one place the patch / relocate / rebuild decision is made (see
    /// [`Since`] and the module docs).
    pub fn since(&self, at: SyncPoint) -> Since<'_> {
        if at == self.sync_point() {
            return Since::Unchanged;
        }
        // Another lineage, or a state this model cannot have grown from:
        // a counter ran backwards, or one revision shows two contents (a
        // divergent clone; the equal-state case returned above).
        if at.model_id != self.model_id
            || at.revision >= self.revision
            || at.retire_ops > self.retire_ops
            || at.compactions > self.compactions
        {
            return Since::Rebuild;
        }
        let retired = at.retire_ops != self.retire_ops;
        match (
            self.compactions - at.compactions,
            self.last_compaction.as_deref(),
        ) {
            (0, _) if at.n_claims <= self.n_claims && at.n_cliques <= self.cliques.len() => {
                Since::Patch { retired }
            }
            (1, Some(remap))
                if remap.from_revision >= at.revision
                    && remap.n_old_claims() >= at.n_claims
                    && remap.n_old_cliques() >= at.n_cliques =>
            {
                Since::Relocate { remap, retired }
            }
            _ => Since::Rebuild,
        }
    }

    /// The remap that carries ids valid after `compactions` compactions
    /// into this model's numbering: `None` when no compaction intervened,
    /// [`ModelError::Remapped`] when the single retained remap cannot
    /// bridge the gap (two or more compactions, or a count from the
    /// future).
    pub fn remap_since(&self, compactions: u64) -> Result<Option<&IdRemap>, ModelError> {
        remap_across(
            self.compactions,
            self.last_compaction.as_deref(),
            compactions,
        )
    }

    /// The latest compaction's remap (`None` before the first), shared:
    /// a holder that outlives this revision clones the `Arc`, not the maps.
    pub fn last_compaction(&self) -> Option<&Arc<IdRemap>> {
        self.last_compaction.as_ref()
    }

    /// Lifetime count of claims ever ingested into this lineage (monotone;
    /// unaffected by retirement or compaction). The sync point for upstream
    /// record stores.
    pub fn ingested_claims(&self) -> usize {
        self.ingested_claims as usize
    }

    /// Lifetime count of sources ever ingested (see [`Self::ingested_claims`]).
    pub fn ingested_sources(&self) -> usize {
        self.ingested_sources as usize
    }

    /// Lifetime count of documents ever ingested (see [`Self::ingested_claims`]).
    pub fn ingested_docs(&self) -> usize {
        self.ingested_docs as usize
    }

    /// Lifetime count of cliques ever ingested (see [`Self::ingested_claims`]).
    pub fn ingested_cliques(&self) -> usize {
        self.ingested_cliques as usize
    }

    /// Whether any entity is currently tombstoned (retired but not yet
    /// compacted away).
    #[inline]
    pub fn has_tombstones(&self) -> bool {
        self.n_dead_claims + self.n_dead_sources + self.n_dead_cliques > 0
    }

    /// Whether claim `c` is still in service (not tombstoned).
    #[inline]
    pub fn claim_live(&self, c: usize) -> bool {
        self.dead_claims.is_empty() || !self.dead_claims[c]
    }

    /// Whether source `s` is still in service.
    #[inline]
    pub fn source_live(&self, s: usize) -> bool {
        self.dead_sources.is_empty() || !self.dead_sources[s]
    }

    /// Whether clique `ci` is still in service (its claim *and* source are
    /// live).
    #[inline]
    pub fn clique_live(&self, ci: usize) -> bool {
        self.dead_cliques.is_empty() || !self.dead_cliques[ci]
    }

    /// Number of live (non-tombstoned) claims.
    pub fn n_live_claims(&self) -> usize {
        self.n_claims - self.n_dead_claims
    }

    /// Number of live cliques.
    pub fn n_live_cliques(&self) -> usize {
        self.cliques.len() - self.n_dead_cliques
    }

    /// Number of **live** distinct claims of a source — the denominator of
    /// the dynamic trust statistic `τ(s)`. Equals
    /// [`Self::n_claims_of_source`] when nothing is tombstoned.
    #[inline]
    pub fn n_live_claims_of_source(&self, source: u32) -> usize {
        if self.live_claims_per_source.is_empty() {
            self.n_claims_of_source(source)
        } else {
            self.live_claims_per_source[source as usize] as usize
        }
    }

    /// The fraction of the model that is tombstoned: the larger of the dead
    /// claim and dead clique ratios. The threshold signal for
    /// [`Self::compact`] (retention policies compact when it crosses their
    /// configured bound).
    pub fn dead_fraction(&self) -> f64 {
        let claims = if self.n_claims == 0 {
            0.0
        } else {
            self.n_dead_claims as f64 / self.n_claims as f64
        };
        let cliques = if self.cliques.is_empty() {
            0.0
        } else {
            self.n_dead_cliques as f64 / self.cliques.len() as f64
        };
        claims.max(cliques)
    }

    /// Number of claim variables.
    pub fn n_claims(&self) -> usize {
        self.n_claims
    }

    /// Number of sources.
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// Number of documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Dimensionality of the source feature vectors.
    pub fn m_source(&self) -> usize {
        self.m_source
    }

    /// Dimensionality of the document feature vectors.
    pub fn m_doc(&self) -> usize {
        self.m_doc
    }

    /// All cliques.
    pub fn cliques(&self) -> &[Clique] {
        &self.cliques
    }

    /// A single clique by id.
    pub fn clique(&self, id: CliqueId) -> &Clique {
        &self.cliques[id.idx()]
    }

    /// Ids of the cliques a claim participates in.
    #[inline]
    pub fn cliques_of(&self, claim: VarId) -> &[u32] {
        let (lo, hi) = self.claim_clique_span(claim.idx());
        &self.claim_clique_ids[lo..hi]
    }

    /// The source of each clique of `claim`, parallel to [`Self::cliques_of`].
    #[inline]
    pub fn clique_sources_of(&self, claim: VarId) -> &[u32] {
        let (lo, hi) = self.claim_clique_span(claim.idx());
        &self.claim_clique_sources[lo..hi]
    }

    /// Half-open CSR span of `claim`'s cliques: positions into the
    /// claim-major clique arrays (and into the incidence signs of the
    /// E-step's `potentials::ClaimEvidence`, which share this layout).
    #[inline]
    pub fn claim_clique_span(&self, claim: usize) -> (usize, usize) {
        (
            self.claim_clique_offsets[claim] as usize,
            self.claim_clique_offsets[claim + 1] as usize,
        )
    }

    /// Total number of (claim, clique) incidences — the length of the
    /// claim-major arrays; equals `cliques().len()`.
    #[inline]
    pub fn n_incidences(&self) -> usize {
        self.claim_clique_ids.len()
    }

    /// The distinct claims connected to a source (`C_s`).
    #[inline]
    pub fn claims_of_source(&self, source: u32) -> &[u32] {
        let s = source as usize;
        &self.source_claim_ids
            [self.source_claim_offsets[s] as usize..self.source_claim_offsets[s + 1] as usize]
    }

    /// Number of distinct claims of a source (`|C_s|`) without forming the
    /// slice.
    #[inline]
    pub fn n_claims_of_source(&self, source: u32) -> usize {
        let s = source as usize;
        (self.source_claim_offsets[s + 1] - self.source_claim_offsets[s]) as usize
    }

    /// The distinct sources connected to a claim.
    #[inline]
    pub fn sources_of_claim(&self, claim: VarId) -> &[u32] {
        let c = claim.idx();
        &self.claim_source_ids
            [self.claim_source_offsets[c] as usize..self.claim_source_offsets[c + 1] as usize]
    }

    /// Feature row of a document.
    #[inline]
    pub fn doc_feature_row(&self, doc: u32) -> &[f64] {
        let d = doc as usize;
        &self.doc_features[d * self.m_doc..(d + 1) * self.m_doc]
    }

    /// Feature row of a source.
    #[inline]
    pub fn source_feature_row(&self, source: u32) -> &[f64] {
        let s = source as usize;
        &self.source_features[s * self.m_source..(s + 1) * self.m_source]
    }

    /// Total length of the per-configuration weight block:
    /// bias + document features + source features + dynamic trust statistic.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        1 + self.m_doc + self.m_source + 1
    }
}

/// Errors produced while assembling a [`CrfModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A feature row had the wrong dimensionality.
    FeatureDim {
        /// What kind of entity the row belonged to.
        entity: &'static str,
        /// Expected row width.
        expected: usize,
        /// Observed row width.
        got: usize,
    },
    /// A clique referenced an out-of-range entity.
    DanglingReference {
        /// What kind of entity was referenced.
        entity: &'static str,
        /// The out-of-range index.
        index: usize,
        /// Number of entities of that kind.
        len: usize,
    },
    /// The model contains no cliques.
    Empty,
    /// A [`ModelDelta`] was applied to a model it was not built against:
    /// either another lineage entirely, or the same lineage after further
    /// deltas landed in between (the revision check every edit runs).
    StaleDelta {
        /// Lineage id the delta was prepared for.
        delta_model_id: u64,
        /// Revision the delta was prepared for.
        delta_revision: u64,
        /// Lineage id of the model the delta was applied to.
        model_id: u64,
        /// Revision of the model the delta was applied to.
        model_revision: u64,
    },
    /// An operation referenced an entity that has been retired: a delta
    /// attaching evidence to a tombstoned claim or source, or a
    /// [`RetireSet`] naming an entity that is already dead.
    RetiredReference {
        /// What kind of entity was referenced.
        entity: &'static str,
        /// The retired index.
        index: usize,
    },
    /// The caller's entity ids were invalidated by compaction(s) it has not
    /// observed — either the model compacted while the caller held raw ids
    /// (`synced < model`), or more than one compaction elapsed so the
    /// single retained [`IdRemap`] cannot bridge the gap. Re-synchronise
    /// through the remap (or a `factdb` `SyncMap`).
    Remapped {
        /// Compactions the model has performed.
        model: u64,
        /// Compactions the caller had observed.
        synced: u64,
    },
    /// A model lags or leads the upstream store it is synchronised from
    /// (e.g. a `FactDatabase` emitting deltas for records added since the
    /// last sync found the model ahead of its own records).
    OutOfSync {
        /// What kind of entity disagrees.
        entity: &'static str,
        /// Entity count in the model.
        model: usize,
        /// Entity count upstream.
        upstream: usize,
    },
    /// A feature row carried a NaN or an infinity.
    NonFinite {
        /// What kind of entity the row belonged to.
        entity: &'static str,
        /// The entity's absolute index.
        index: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::FeatureDim {
                entity,
                expected,
                got,
            } => write!(f, "{entity} feature row has dim {got}, expected {expected}"),
            ModelError::DanglingReference { entity, index, len } => {
                write!(f, "clique references {entity} {index} but only {len} exist")
            }
            ModelError::Empty => write!(f, "model has no cliques"),
            ModelError::StaleDelta {
                delta_model_id,
                delta_revision,
                model_id,
                model_revision,
            } => write!(
                f,
                "delta built for model {delta_model_id} r{delta_revision} cannot apply to \
                 model {model_id} r{model_revision}"
            ),
            ModelError::RetiredReference { entity, index } => {
                write!(f, "{entity} {index} has been retired")
            }
            ModelError::Remapped { model, synced } => write!(
                f,
                "model ids were renumbered by compaction ({model} compactions vs {synced} \
                 observed); re-sync through the IdRemap"
            ),
            ModelError::OutOfSync {
                entity,
                model,
                upstream,
            } => write!(
                f,
                "model has {model} {entity}s but the upstream store has {upstream}"
            ),
            ModelError::NonFinite { entity, index } => {
                write!(f, "{entity} {index} has a non-finite feature")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Splice new `(node, neighbour)` pairs into a sorted-deduplicated CSR
/// adjacency, growing the node range to `n_nodes_new`. Pairs already present
/// are dropped, so the result depends only on the union of all edges ever
/// merged: every row is ascending and duplicate-free.
fn merge_into_csr(
    offsets: &mut Vec<u32>,
    ids: &mut Vec<u32>,
    n_nodes_new: usize,
    mut pairs: Vec<(u32, u32)>,
) {
    pairs.sort_unstable();
    pairs.dedup();
    let n_old = offsets.len() - 1;
    pairs.retain(|&(node, nb)| {
        let n = node as usize;
        n >= n_old
            || ids[offsets[n] as usize..offsets[n + 1] as usize]
                .binary_search(&nb)
                .is_err()
    });

    let mut new_offsets = vec![0u32; n_nodes_new + 1];
    for node in 0..n_old {
        new_offsets[node + 1] = offsets[node + 1] - offsets[node];
    }
    for &(node, _) in &pairs {
        new_offsets[node as usize + 1] += 1;
    }
    for i in 0..n_nodes_new {
        new_offsets[i + 1] += new_offsets[i];
    }

    let mut new_ids = vec![0u32; new_offsets[n_nodes_new] as usize];
    let mut pi = 0;
    for node in 0..n_nodes_new {
        let mut k = new_offsets[node] as usize;
        let (mut i, hi) = if node < n_old {
            (offsets[node] as usize, offsets[node + 1] as usize)
        } else {
            (0, 0)
        };
        // Two-pointer merge of the (ascending, disjoint) old row and the
        // node's new neighbours.
        while i < hi && pi < pairs.len() && pairs[pi].0 as usize == node {
            if ids[i] < pairs[pi].1 {
                new_ids[k] = ids[i];
                i += 1;
            } else {
                new_ids[k] = pairs[pi].1;
                pi += 1;
            }
            k += 1;
        }
        while i < hi {
            new_ids[k] = ids[i];
            i += 1;
            k += 1;
        }
        while pi < pairs.len() && pairs[pi].0 as usize == node {
            new_ids[k] = pairs[pi].1;
            pi += 1;
            k += 1;
        }
    }
    *offsets = new_offsets;
    *ids = new_ids;
}

/// Append `src` to `dst`, taking over `src`'s buffer when `dst` is empty.
fn append<T: Copy>(dst: &mut Vec<T>, src: Vec<T>) {
    if dst.is_empty() {
        *dst = src;
    } else {
        dst.extend_from_slice(&src);
    }
}

/// Check one of a delta's feature blocks — rows of width `width`, the first
/// of them entity `first_index` — against the model's row width
/// `model_width`. A delta decoded from bytes can carry another width or a
/// partial trailing row ([`ModelError::FeatureDim`]); any delta can carry a
/// NaN or an infinity ([`ModelError::NonFinite`]).
fn check_feature_block(
    entity: &'static str,
    features: &[f64],
    width: usize,
    model_width: usize,
    first_index: usize,
) -> Result<(), ModelError> {
    if width != model_width {
        return Err(ModelError::FeatureDim {
            entity,
            expected: model_width,
            got: width,
        });
    }
    let partial = features.len().checked_rem(width).unwrap_or(features.len());
    if partial != 0 {
        return Err(ModelError::FeatureDim {
            entity,
            expected: width,
            got: partial,
        });
    }
    match features.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(ModelError::NonFinite {
            entity,
            index: first_index + i / width,
        }),
        None => Ok(()),
    }
}

/// A batch of new entities to graft onto an existing [`CrfModel`] — the
/// unit of streaming ingestion (Alg. 2's "claim arrives with its documents
/// and sources").
///
/// A delta is prepared against a specific `(model_id, revision)` pair via
/// [`ModelDelta::for_model`] and can only be applied to exactly that
/// model state — [`CrfModel::apply`] rejects anything else with
/// [`ModelError::StaleDelta`]. A delta from [`ModelDelta::new`] is prepared
/// against the empty model instead, and [`CrfModel::build`] turns it into a
/// fresh lineage. Entity ids returned by the `add_*` methods are
/// **absolute**: they are valid in the grown model and follow on from the
/// base model's counts.
///
/// New cliques may reference both new and pre-existing claims, documents,
/// and sources; referential integrity and the feature rows (whole rows of
/// the model's widths, every value finite) are checked when the delta is
/// spliced in, by `build` and `apply` alike.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelDelta {
    base_model_id: u64,
    base_revision: u64,
    base_claims: usize,
    base_sources: usize,
    base_docs: usize,
    base_cliques: usize,
    m_source: usize,
    m_doc: usize,
    new_claims: usize,
    new_source_features: Vec<f64>,
    new_doc_features: Vec<f64>,
    new_cliques: Vec<Clique>,
}

impl ModelDelta {
    /// Start a delta against the empty model with the given feature
    /// dimensionalities: the content of a new model, for [`CrfModel::build`].
    pub fn new(m_source: usize, m_doc: usize) -> Self {
        ModelDelta::for_model(&CrfModel::empty(m_source, m_doc))
    }

    /// Start an empty delta against the current state of `model`.
    pub fn for_model(model: &CrfModel) -> Self {
        ModelDelta {
            base_model_id: model.model_id,
            base_revision: model.revision,
            base_claims: model.n_claims,
            base_sources: model.n_sources,
            base_docs: model.n_docs,
            base_cliques: model.cliques.len(),
            m_source: model.m_source,
            m_doc: model.m_doc,
            new_claims: 0,
            new_source_features: Vec::new(),
            new_doc_features: Vec::new(),
            new_cliques: Vec::new(),
        }
    }

    /// Register a new source, returning its absolute index in the grown
    /// model. The feature slice must have length `m_source`.
    pub fn add_source(&mut self, features: &[f64]) -> Result<u32, ModelError> {
        if features.len() != self.m_source {
            return Err(ModelError::FeatureDim {
                entity: "source",
                expected: self.m_source,
                got: features.len(),
            });
        }
        self.new_source_features.extend_from_slice(features);
        Ok((self.base_sources + self.n_new_sources() - 1) as u32)
    }

    /// Register a new document, returning its absolute index in the grown
    /// model. The feature slice must have length `m_doc`.
    pub fn add_document(&mut self, features: &[f64]) -> Result<u32, ModelError> {
        if features.len() != self.m_doc {
            return Err(ModelError::FeatureDim {
                entity: "document",
                expected: self.m_doc,
                got: features.len(),
            });
        }
        self.new_doc_features.extend_from_slice(features);
        Ok((self.base_docs + self.n_new_docs() - 1) as u32)
    }

    /// Register a new claim variable, returning its absolute id in the
    /// grown model.
    pub fn add_claim(&mut self) -> VarId {
        self.new_claims += 1;
        VarId((self.base_claims + self.new_claims - 1) as u32)
    }

    /// Add a relation factor joining `claim`, `doc`, and `source` (absolute
    /// indices; both new and pre-existing entities are allowed). Integrity
    /// is checked by [`CrfModel::apply`] or [`CrfModel::build`].
    pub fn add_clique(&mut self, claim: VarId, doc: u32, source: u32, stance: Stance) {
        self.new_cliques.push(Clique {
            claim,
            doc,
            source,
            stance,
        });
    }

    /// Number of new claims in the delta.
    pub fn n_new_claims(&self) -> usize {
        self.new_claims
    }

    /// Claim count of the model state this delta was prepared against. On
    /// a successful [`CrfModel::apply`] the delta's claims occupy ids
    /// `base_claims()..base_claims() + n_new_claims()` — the revision check
    /// guarantees these bases even when other deltas race for the model.
    pub fn base_claims(&self) -> usize {
        self.base_claims
    }

    /// Source count of the model state this delta was prepared against.
    pub fn base_sources(&self) -> usize {
        self.base_sources
    }

    /// Document count of the model state this delta was prepared against.
    pub fn base_docs(&self) -> usize {
        self.base_docs
    }

    /// Clique count of the model state this delta was prepared against; on
    /// a successful apply the delta's cliques take ids
    /// `base_cliques()..base_cliques() + n_new_cliques()`.
    pub fn base_cliques(&self) -> usize {
        self.base_cliques
    }

    /// The `(model_id, revision)` pair this delta can be applied to.
    pub fn base_revision(&self) -> (u64, Revision) {
        (self.base_model_id, Revision(self.base_revision))
    }

    /// Number of new sources in the delta.
    pub fn n_new_sources(&self) -> usize {
        self.new_source_features
            .len()
            .checked_div(self.m_source)
            .unwrap_or(0)
    }

    /// Number of new documents in the delta.
    pub fn n_new_docs(&self) -> usize {
        self.new_doc_features
            .len()
            .checked_div(self.m_doc)
            .unwrap_or(0)
    }

    /// Number of new cliques in the delta.
    pub fn n_new_cliques(&self) -> usize {
        self.new_cliques.len()
    }

    /// Whether the delta adds nothing (applying it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.new_claims == 0
            && self.new_source_features.is_empty()
            && self.new_doc_features.is_empty()
            && self.new_cliques.is_empty()
    }
}

impl CrfModel {
    /// The empty model of the given dimensionalities: the base every
    /// [`ModelDelta::new`] is prepared against. Lineage id 0 is never
    /// issued to a built model, so no live model accepts such a delta.
    fn empty(m_source: usize, m_doc: usize) -> Self {
        CrfModel {
            model_id: 0,
            revision: 0,
            retire_ops: 0,
            compactions: 0,
            ingested_claims: 0,
            ingested_sources: 0,
            ingested_docs: 0,
            ingested_cliques: 0,
            dead_claims: Vec::new(),
            dead_sources: Vec::new(),
            dead_cliques: Vec::new(),
            n_dead_claims: 0,
            n_dead_sources: 0,
            n_dead_cliques: 0,
            live_claims_per_source: Vec::new(),
            last_compaction: None,
            n_claims: 0,
            n_sources: 0,
            n_docs: 0,
            m_source,
            m_doc,
            cliques: Vec::new(),
            claim_clique_offsets: vec![0],
            claim_clique_ids: Vec::new(),
            claim_clique_sources: Vec::new(),
            source_claim_offsets: vec![0],
            source_claim_ids: Vec::new(),
            claim_source_offsets: vec![0],
            claim_source_ids: Vec::new(),
            doc_features: Vec::new(),
            source_features: Vec::new(),
        }
    }

    /// Build a model from a delta prepared by [`ModelDelta::new`]: one
    /// splice into the empty model, returned at revision 0 under a fresh
    /// lineage id.
    ///
    /// A delta prepared against a live model is refused with
    /// [`ModelError::StaleDelta`], one without cliques with
    /// [`ModelError::Empty`], and malformed feature rows and dangling
    /// references with the same errors that [`Self::apply`] returns.
    pub fn build(delta: ModelDelta) -> Result<CrfModel, ModelError> {
        let mut model = CrfModel::empty(delta.m_source, delta.m_doc);
        model.check_base(delta.base_revision())?;
        if delta.new_cliques.is_empty() {
            return Err(ModelError::Empty);
        }
        model.splice(delta)?;
        model.model_id = NEXT_MODEL_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(model)
    }

    /// The revision check every edit passes: it must have been prepared
    /// against exactly this `(model_id, revision)` state.
    fn check_base(&self, (model_id, revision): (u64, Revision)) -> Result<(), ModelError> {
        if model_id != self.model_id || revision.0 != self.revision {
            return Err(ModelError::StaleDelta {
                delta_model_id: model_id,
                delta_revision: revision.0,
                model_id: self.model_id,
                model_revision: self.revision,
            });
        }
        Ok(())
    }

    /// Grow the model in place by one delta, returning the new revision.
    ///
    /// The delta must have been prepared against exactly this
    /// `(model_id, revision)` state ([`ModelError::StaleDelta`] otherwise),
    /// its feature blocks must hold whole rows of the model's widths
    /// ([`ModelError::FeatureDim`]) and only finite values
    /// ([`ModelError::NonFinite`]), and every new clique must reference
    /// in-range entities ([`ModelError::DanglingReference`], against the
    /// grown counts) that are not retired
    /// ([`ModelError::RetiredReference`]). On any error the
    /// model is left untouched; an empty delta is a no-op that returns the
    /// current revision without bumping it.
    ///
    /// Growth is the same splice [`Self::build`] performs into the empty
    /// model, so the resulting adjacency is canonical: identical, array for
    /// array, to a one-shot build of the final content in the same
    /// insertion order. See the module docs for the cache-patching contract
    /// this guarantees.
    ///
    /// # Divergent clones
    ///
    /// `CrfModel` is `Clone`, and clones keep the lineage id: growing two
    /// clones *independently* therefore produces different content under
    /// equal `(model_id, revision)` pairs, which model-keyed caches use as
    /// the identity. Never share a cache or scratch buffer across
    /// independently grown clones — under a single writer (the intended
    /// ownership, see the module docs) this cannot arise, and
    /// [`Self::since`] answers the detectable cases (one revision with two
    /// contents, fewer entities than a sync point saw) with
    /// [`Since::Rebuild`].
    pub fn apply(&mut self, delta: ModelDelta) -> Result<Revision, ModelError> {
        self.check_base(delta.base_revision())?;
        if delta.is_empty() {
            return Ok(Revision(self.revision));
        }
        self.splice(delta)?;
        self.revision += 1;
        Ok(Revision(self.revision))
    }

    /// Validate `delta`'s feature blocks and references against the grown
    /// counts, then splice its entities in: the only place the claim-major
    /// arrays are filled and the deduplicated source↔claim rows are grown.
    /// On error the model is untouched. Leaves the revision to the caller.
    fn splice(&mut self, delta: ModelDelta) -> Result<(), ModelError> {
        check_feature_block(
            "source",
            &delta.new_source_features,
            delta.m_source,
            self.m_source,
            self.n_sources,
        )?;
        check_feature_block(
            "document",
            &delta.new_doc_features,
            delta.m_doc,
            self.m_doc,
            self.n_docs,
        )?;
        let (new_sources, new_docs) = (delta.n_new_sources(), delta.n_new_docs());
        let n_claims = self.n_claims + delta.new_claims;
        let n_sources = self.n_sources + new_sources;
        let n_docs = self.n_docs + new_docs;
        for cl in &delta.new_cliques {
            if cl.claim.idx() >= n_claims {
                return Err(ModelError::DanglingReference {
                    entity: "claim",
                    index: cl.claim.idx(),
                    len: n_claims,
                });
            }
            if cl.doc as usize >= n_docs {
                return Err(ModelError::DanglingReference {
                    entity: "document",
                    index: cl.doc as usize,
                    len: n_docs,
                });
            }
            if cl.source as usize >= n_sources {
                return Err(ModelError::DanglingReference {
                    entity: "source",
                    index: cl.source as usize,
                    len: n_sources,
                });
            }
            // Evidence cannot attach to retired entities (new entities of
            // the delta itself are beyond the old ranges and always live).
            if cl.claim.idx() < self.n_claims && !self.claim_live(cl.claim.idx()) {
                return Err(ModelError::RetiredReference {
                    entity: "claim",
                    index: cl.claim.idx(),
                });
            }
            if (cl.source as usize) < self.n_sources && !self.source_live(cl.source as usize) {
                return Err(ModelError::RetiredReference {
                    entity: "source",
                    index: cl.source as usize,
                });
            }
        }

        // ---- Claim-major arrays. Per claim, old entries keep their
        // relative order and the delta's entries follow in delta order;
        // clique ids continue the insertion order.
        let first_new_id = self.cliques.len() as u32;
        let mut offsets = vec![0u32; n_claims + 1];
        for c in 0..self.n_claims {
            offsets[c + 1] = self.claim_clique_offsets[c + 1] - self.claim_clique_offsets[c];
        }
        for cl in &delta.new_cliques {
            offsets[cl.claim.idx() + 1] += 1;
        }
        for i in 0..n_claims {
            offsets[i + 1] += offsets[i];
        }
        let total = offsets[n_claims] as usize;
        let mut ids = vec![0u32; total];
        let mut srcs = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n_claims].to_vec();
        for (c, cur) in cursor.iter_mut().enumerate().take(self.n_claims) {
            let (lo, hi) = self.claim_clique_span(c);
            let dst = *cur as usize;
            ids[dst..dst + (hi - lo)].copy_from_slice(&self.claim_clique_ids[lo..hi]);
            srcs[dst..dst + (hi - lo)].copy_from_slice(&self.claim_clique_sources[lo..hi]);
            *cur += (hi - lo) as u32;
        }
        for (i, cl) in delta.new_cliques.iter().enumerate() {
            let slot = cursor[cl.claim.idx()] as usize;
            ids[slot] = first_new_id + i as u32;
            srcs[slot] = cl.source;
            cursor[cl.claim.idx()] += 1;
        }
        self.claim_clique_offsets = offsets;
        self.claim_clique_ids = ids;
        self.claim_clique_sources = srcs;

        // ---- Deduplicated adjacency in both directions: merge only the
        // new edges into the sorted CSR rows.
        merge_into_csr(
            &mut self.source_claim_offsets,
            &mut self.source_claim_ids,
            n_sources,
            delta
                .new_cliques
                .iter()
                .map(|cl| (cl.source, cl.claim.0))
                .collect(),
        );
        merge_into_csr(
            &mut self.claim_source_offsets,
            &mut self.claim_source_ids,
            n_claims,
            delta
                .new_cliques
                .iter()
                .map(|cl| (cl.claim.0, cl.source))
                .collect(),
        );

        self.ingested_claims += delta.new_claims as u64;
        self.ingested_sources += new_sources as u64;
        self.ingested_docs += new_docs as u64;
        self.ingested_cliques += delta.new_cliques.len() as u64;

        // Tombstone bookkeeping: grown bitmaps stay in step with the entity
        // ranges, and the live-claim counts of every source the delta
        // touched are re-derived from its (deduplicated) grown row.
        if !self.dead_claims.is_empty() {
            self.dead_claims.resize(n_claims, false);
        }
        if !self.dead_sources.is_empty() {
            self.dead_sources.resize(n_sources, false);
        }
        if !self.dead_cliques.is_empty() {
            self.dead_cliques
                .resize(self.cliques.len() + delta.new_cliques.len(), false);
        }
        if !self.live_claims_per_source.is_empty() {
            self.live_claims_per_source.resize(n_sources, 0);
            let mut touched: Vec<u32> = delta.new_cliques.iter().map(|cl| cl.source).collect();
            touched.sort_unstable();
            touched.dedup();
            for s in touched {
                // Temporarily borrow-free recount over the merged row.
                let lo = self.source_claim_offsets[s as usize] as usize;
                let hi = self.source_claim_offsets[s as usize + 1] as usize;
                let live = self.source_claim_ids[lo..hi]
                    .iter()
                    .filter(|&&c| self.dead_claims.is_empty() || !self.dead_claims[c as usize])
                    .count();
                self.live_claims_per_source[s as usize] = live as u32;
            }
        }

        // Feature matrices and the clique list are pure appends; into the
        // empty model the delta's buffers move in without a copy.
        append(&mut self.source_features, delta.new_source_features);
        append(&mut self.doc_features, delta.new_doc_features);
        append(&mut self.cliques, delta.new_cliques);
        self.n_claims = n_claims;
        self.n_sources = n_sources;
        self.n_docs = n_docs;
        Ok(())
    }

    /// Tombstone the claims and sources of `set` in `O(touched)`, returning
    /// the new revision.
    ///
    /// The set must have been prepared against exactly this
    /// `(model_id, revision)` state ([`ModelError::StaleDelta`] otherwise),
    /// every named entity must exist ([`ModelError::DanglingReference`])
    /// and still be live ([`ModelError::RetiredReference`]). On any error
    /// the model is untouched; an empty set is a no-op that returns the
    /// current revision without bumping it.
    ///
    /// Retirement marks, it does not move: entity ids, array layouts, and
    /// clique ids are all preserved. Every clique incident to a retired
    /// claim or source dies with it, and the per-source live-claim counts
    /// feeding the dynamic trust statistic are maintained, so inference on
    /// the tombstoned model equals inference on the surviving subgraph (see
    /// the module docs). Reclaiming the memory is [`Self::compact`]'s job.
    pub fn retire(&mut self, set: RetireSet) -> Result<Revision, ModelError> {
        self.check_base(set.base_revision())?;
        let mut claims = set.claims;
        claims.sort_unstable();
        claims.dedup();
        let mut sources = set.sources;
        sources.sort_unstable();
        sources.dedup();
        for &c in &claims {
            if c as usize >= self.n_claims {
                return Err(ModelError::DanglingReference {
                    entity: "claim",
                    index: c as usize,
                    len: self.n_claims,
                });
            }
            if !self.claim_live(c as usize) {
                return Err(ModelError::RetiredReference {
                    entity: "claim",
                    index: c as usize,
                });
            }
        }
        for &s in &sources {
            if s as usize >= self.n_sources {
                return Err(ModelError::DanglingReference {
                    entity: "source",
                    index: s as usize,
                    len: self.n_sources,
                });
            }
            if !self.source_live(s as usize) {
                return Err(ModelError::RetiredReference {
                    entity: "source",
                    index: s as usize,
                });
            }
        }
        if claims.is_empty() && sources.is_empty() {
            return Ok(Revision(self.revision));
        }

        // Materialise the tombstone state on first use.
        if self.dead_claims.is_empty() {
            self.dead_claims.resize(self.n_claims, false);
        }
        if self.dead_sources.is_empty() {
            self.dead_sources.resize(self.n_sources, false);
        }
        if self.dead_cliques.is_empty() {
            self.dead_cliques.resize(self.cliques.len(), false);
        }
        if self.live_claims_per_source.is_empty() {
            self.live_claims_per_source = (0..self.n_sources)
                .map(|s| self.source_claim_offsets[s + 1] - self.source_claim_offsets[s])
                .collect();
        }

        for &c in &claims {
            self.dead_claims[c as usize] = true;
            self.n_dead_claims += 1;
            let (lo, hi) = self.claim_clique_span(c as usize);
            for k in lo..hi {
                let ci = self.claim_clique_ids[k] as usize;
                if !self.dead_cliques[ci] {
                    self.dead_cliques[ci] = true;
                    self.n_dead_cliques += 1;
                }
            }
            let slo = self.claim_source_offsets[c as usize] as usize;
            let shi = self.claim_source_offsets[c as usize + 1] as usize;
            for k in slo..shi {
                let s = self.claim_source_ids[k] as usize;
                self.live_claims_per_source[s] -= 1;
            }
        }
        for &s in &sources {
            self.dead_sources[s as usize] = true;
            self.n_dead_sources += 1;
            // Kill the retired source's surviving cliques: walk its live
            // claims' rows and mark the entries carrying this source.
            let lo = self.source_claim_offsets[s as usize] as usize;
            let hi = self.source_claim_offsets[s as usize + 1] as usize;
            for k in lo..hi {
                let c = self.source_claim_ids[k] as usize;
                if self.dead_claims[c] {
                    continue; // its cliques are already dead
                }
                let (clo, chi) = self.claim_clique_span(c);
                for p in clo..chi {
                    if self.claim_clique_sources[p] == s
                        && !self.dead_cliques[self.claim_clique_ids[p] as usize]
                    {
                        self.dead_cliques[self.claim_clique_ids[p] as usize] = true;
                        self.n_dead_cliques += 1;
                    }
                }
            }
        }
        self.revision += 1;
        self.retire_ops += 1;
        Ok(Revision(self.revision))
    }

    /// Rebuild the arrays to the canonical layout of the surviving
    /// subgraph, dropping every tombstoned claim, source, and clique —
    /// and every document whose cliques all died — and publish the
    /// order-preserving [`IdRemap`] from old to new ids.
    ///
    /// The survivors, in their original insertion order, are spliced into
    /// the empty model exactly as [`Self::build`] does, so the compacted
    /// model is identical, array for array, to a one-shot build of them;
    /// `model_id` is preserved, `revision` bumps, and the remap is
    /// retained for [`Self::since`] and [`Self::remap_since`] (only the
    /// latest is kept). With nothing to drop this is a no-op returning an
    /// identity remap without bumping the revision. [`ModelError::Empty`] is
    /// returned — and the model left untouched — when no clique would
    /// survive; retire less, or keep the tombstoned model.
    pub fn compact(&mut self) -> Result<IdRemap, ModelError> {
        const DROP: u32 = u32::MAX;
        // A document survives iff it never had cliques (feature-only row)
        // or at least one of its cliques is live.
        let mut doc_has_clique = vec![false; self.n_docs];
        let mut doc_has_live = vec![false; self.n_docs];
        for (ci, cl) in self.cliques.iter().enumerate() {
            doc_has_clique[cl.doc as usize] = true;
            if self.clique_live(ci) {
                doc_has_live[cl.doc as usize] = true;
            }
        }
        let drop_doc = |d: usize, has: &[bool], live: &[bool]| -> bool { has[d] && !live[d] };

        if !self.has_tombstones()
            && !(0..self.n_docs).any(|d| drop_doc(d, &doc_has_clique, &doc_has_live))
        {
            return Ok(IdRemap::identity(self));
        }

        let number = |n: usize, live: &dyn Fn(usize) -> bool| -> (Vec<u32>, u32) {
            let mut map = vec![DROP; n];
            let mut next = 0u32;
            for (i, slot) in map.iter_mut().enumerate() {
                if live(i) {
                    *slot = next;
                    next += 1;
                }
            }
            (map, next)
        };
        let (claim_map, new_claims) = number(self.n_claims, &|c| self.claim_live(c));
        let (source_map, new_sources) = number(self.n_sources, &|s| self.source_live(s));
        let (doc_map, new_docs) = number(self.n_docs, &|d| {
            !drop_doc(d, &doc_has_clique, &doc_has_live)
        });
        let (clique_map, new_cliques) = number(self.cliques.len(), &|ci| self.clique_live(ci));

        // One-shot build of the survivors, in original insertion order —
        // canonical layout by construction.
        let mut delta = ModelDelta::new(self.m_source, self.m_doc);
        for (s, &mapped) in source_map.iter().enumerate() {
            if mapped != DROP {
                delta.add_source(self.source_feature_row(s as u32))?;
            }
        }
        for _ in 0..new_claims {
            delta.add_claim();
        }
        for (d, &mapped) in doc_map.iter().enumerate() {
            if mapped != DROP {
                delta.add_document(self.doc_feature_row(d as u32))?;
            }
        }
        for (ci, cl) in self.cliques.iter().enumerate() {
            if clique_map[ci] != DROP {
                delta.add_clique(
                    VarId(claim_map[cl.claim.idx()]),
                    doc_map[cl.doc as usize],
                    source_map[cl.source as usize],
                    cl.stance,
                );
            }
        }
        let built = CrfModel::build(delta)?; // Empty when no clique survives; model untouched

        let remap = IdRemap {
            from_revision: self.revision,
            to_revision: self.revision + 1,
            claims: claim_map,
            sources: source_map,
            docs: doc_map,
            cliques: clique_map,
            new_claims,
            new_sources,
            new_docs,
            new_cliques,
        };

        // The survivors' layout, without tombstones, under this lineage.
        *self = CrfModel {
            model_id: self.model_id,
            revision: self.revision + 1,
            retire_ops: self.retire_ops,
            compactions: self.compactions + 1,
            ingested_claims: self.ingested_claims,
            ingested_sources: self.ingested_sources,
            ingested_docs: self.ingested_docs,
            ingested_cliques: self.ingested_cliques,
            last_compaction: Some(Arc::new(remap.clone())),
            ..built
        };
        Ok(remap)
    }
}

/// One edit of the versioned model lifecycle — the generalisation of the
/// original grow-only [`ModelDelta`] API to both directions, plus the
/// compact marker. Every variant is prepared against a specific
/// `(model_id, revision)` pair and applied through [`CrfModel::edit`],
/// which rejects a stale edit with [`ModelError::StaleDelta`] exactly like
/// the underlying operations.
///
/// `ModelEdit` is also the **log-record contract** of the `durability`
/// crate's write-ahead edit log: it round-trips through `serde`
/// (deserialising to an edit that applies to the same revision and
/// produces the same canonical layout), and the compact variant is a bare
/// *marker* — [`CrfModel::compact`] is a deterministic function of the
/// model state, so replaying the marker regenerates the original
/// [`IdRemap`] without logging it. See the module docs for the
/// LSN ↔ lineage mapping.
#[derive(Debug, Clone)]
pub enum ModelEdit {
    /// Grow the model by a delta ([`CrfModel::apply`]).
    Grow(ModelDelta),
    /// Tombstone a set of claims and sources ([`CrfModel::retire`]).
    Retire(RetireSet),
    /// Compact to the canonical survivor layout ([`CrfModel::compact`]).
    /// Carries only the base `(model_id, revision)` pair: the resulting
    /// remap is deterministically regenerated on replay.
    Compact {
        /// Lineage id of the model state the compaction ran against.
        base_model_id: u64,
        /// Revision the compaction ran against.
        base_revision: u64,
    },
}

impl ModelEdit {
    /// A compact marker against the current state of `model`.
    pub fn compact_marker(model: &CrfModel) -> Self {
        ModelEdit::Compact {
            base_model_id: model.model_id,
            base_revision: model.revision,
        }
    }

    /// The `(model_id, revision)` pair this edit can be applied to.
    pub fn base_revision(&self) -> (u64, Revision) {
        match self {
            ModelEdit::Grow(delta) => delta.base_revision(),
            ModelEdit::Retire(set) => set.base_revision(),
            ModelEdit::Compact {
                base_model_id,
                base_revision,
            } => (*base_model_id, Revision(*base_revision)),
        }
    }
}

// The derive shim does not support newtype enum variants, so the
// log-record encoding of `ModelEdit` is hand-written: a tagged object
// `{"op": "grow"|"retire"|"compact", ...payload}` whose payload field
// reuses the derived encodings of `ModelDelta` / `RetireSet`.
impl Serialize for ModelEdit {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        match self {
            ModelEdit::Grow(delta) => Value::Object(vec![
                ("op".to_string(), Value::Str("grow".to_string())),
                ("delta".to_string(), delta.to_value()),
            ]),
            ModelEdit::Retire(set) => Value::Object(vec![
                ("op".to_string(), Value::Str("retire".to_string())),
                ("set".to_string(), set.to_value()),
            ]),
            ModelEdit::Compact {
                base_model_id,
                base_revision,
            } => Value::Object(vec![
                ("op".to_string(), Value::Str("compact".to_string())),
                ("base_model_id".to_string(), base_model_id.to_value()),
                ("base_revision".to_string(), base_revision.to_value()),
            ]),
        }
    }
}

impl Deserialize for ModelEdit {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        match value.field("op")?.as_str()? {
            "grow" => Ok(ModelEdit::Grow(ModelDelta::from_value(
                value.field("delta")?,
            )?)),
            "retire" => Ok(ModelEdit::Retire(RetireSet::from_value(
                value.field("set")?,
            )?)),
            "compact" => Ok(ModelEdit::Compact {
                base_model_id: u64::from_value(value.field("base_model_id")?)?,
                base_revision: u64::from_value(value.field("base_revision")?)?,
            }),
            other => Err(serde::DeError::new(format!(
                "unknown ModelEdit op `{other}`"
            ))),
        }
    }
}

impl From<ModelDelta> for ModelEdit {
    fn from(delta: ModelDelta) -> Self {
        ModelEdit::Grow(delta)
    }
}

impl From<RetireSet> for ModelEdit {
    fn from(set: RetireSet) -> Self {
        ModelEdit::Retire(set)
    }
}

impl CrfModel {
    /// Apply one lifecycle edit, returning the new revision — the uniform
    /// entry point over [`Self::apply`], [`Self::retire`], and
    /// [`Self::compact`]. A compact edit is revision-checked like the
    /// others (the underlying `compact` is unconditional) and discards the
    /// regenerated remap; callers that need the remap use
    /// [`Self::compact`] directly.
    pub fn edit(&mut self, edit: impl Into<ModelEdit>) -> Result<Revision, ModelError> {
        match edit.into() {
            ModelEdit::Grow(delta) => self.apply(delta),
            ModelEdit::Retire(set) => self.retire(set),
            ModelEdit::Compact {
                base_model_id,
                base_revision,
            } => {
                self.check_base((base_model_id, Revision(base_revision)))?;
                self.compact()?;
                Ok(Revision(self.revision))
            }
        }
    }
}

/// A batch of claims and sources to take out of service — the shrink-side
/// dual of [`ModelDelta`]. Prepared against a specific
/// `(model_id, revision)` pair via [`RetireSet::for_model`] and applied
/// by [`CrfModel::retire`], which rejects anything else with
/// [`ModelError::StaleDelta`]. Duplicates within the set are tolerated
/// (deduplicated at apply time); naming an entity that is already dead is
/// an error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetireSet {
    base_model_id: u64,
    base_revision: u64,
    claims: Vec<u32>,
    sources: Vec<u32>,
}

impl RetireSet {
    /// Start an empty retire set against the current state of `model`.
    pub fn for_model(model: &CrfModel) -> Self {
        RetireSet {
            base_model_id: model.model_id,
            base_revision: model.revision,
            claims: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// Name a claim for retirement.
    pub fn retire_claim(&mut self, claim: VarId) {
        self.claims.push(claim.0);
    }

    /// Name a source for retirement (its surviving cliques die with it;
    /// its claims stay live).
    pub fn retire_source(&mut self, source: u32) {
        self.sources.push(source);
    }

    /// Number of claims named (before deduplication).
    pub fn n_claims(&self) -> usize {
        self.claims.len()
    }

    /// Number of sources named (before deduplication).
    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set names nothing (applying it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty() && self.sources.is_empty()
    }

    /// The `(model_id, revision)` pair this set can be applied to.
    pub fn base_revision(&self) -> (u64, Revision) {
        (self.base_model_id, Revision(self.base_revision))
    }
}

/// The bridging rule of [`CrfModel::remap_since`] for any holder of a
/// state's compaction count (`now`) and its latest remap (`last`): ids
/// valid after `synced` compactions need no remap when no compaction
/// intervened, go through `last` across exactly one, and are refused with
/// [`ModelError::Remapped`] otherwise (two or more compactions, or a count
/// from the future).
pub fn remap_across(
    now: u64,
    last: Option<&IdRemap>,
    synced: u64,
) -> Result<Option<&IdRemap>, ModelError> {
    if synced == now {
        return Ok(None);
    }
    match last {
        Some(remap) if now.checked_sub(synced) == Some(1) => Ok(Some(remap)),
        _ => Err(ModelError::Remapped { model: now, synced }),
    }
}

/// The order-preserving renumbering a [`CrfModel::compact`] publishes: for
/// each entity kind, old id → new id, with dropped entities mapping to
/// `None`. Survivors keep their relative order, which is what lets every
/// holder of per-entity state (per-claim probabilities and labels,
/// upstream sync maps) *relocate* it instead of rebuilding it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdRemap {
    /// The revision whose ids form the domain of the maps.
    from_revision: u64,
    /// The revision whose ids form the codomain.
    to_revision: u64,
    claims: Vec<u32>,
    sources: Vec<u32>,
    docs: Vec<u32>,
    cliques: Vec<u32>,
    new_claims: u32,
    new_sources: u32,
    new_docs: u32,
    new_cliques: u32,
}

impl IdRemap {
    const DROPPED: u32 = u32::MAX;

    /// The identity remap of a model's current state (what a no-op
    /// [`CrfModel::compact`] returns).
    fn identity(model: &CrfModel) -> Self {
        IdRemap {
            from_revision: model.revision,
            to_revision: model.revision,
            claims: (0..model.n_claims as u32).collect(),
            sources: (0..model.n_sources as u32).collect(),
            docs: (0..model.n_docs as u32).collect(),
            cliques: (0..model.cliques.len() as u32).collect(),
            new_claims: model.n_claims as u32,
            new_sources: model.n_sources as u32,
            new_docs: model.n_docs as u32,
            new_cliques: model.cliques.len() as u32,
        }
    }

    /// Whether the remap renumbers nothing (every entity survives in place).
    pub fn is_identity(&self) -> bool {
        self.from_revision == self.to_revision
    }

    /// The revision whose ids the remap consumes.
    pub fn from_revision(&self) -> Revision {
        Revision(self.from_revision)
    }

    /// The revision whose ids the remap produces.
    pub fn to_revision(&self) -> Revision {
        Revision(self.to_revision)
    }

    /// New id of an old claim (`None` when it was dropped).
    #[inline]
    pub fn claim(&self, old: VarId) -> Option<VarId> {
        match self.claims[old.idx()] {
            Self::DROPPED => None,
            new => Some(VarId(new)),
        }
    }

    /// New id of an old source (`None` when it was dropped).
    #[inline]
    pub fn source(&self, old: u32) -> Option<u32> {
        match self.sources[old as usize] {
            Self::DROPPED => None,
            new => Some(new),
        }
    }

    /// New id of an old document (`None` when it was dropped).
    #[inline]
    pub fn doc(&self, old: u32) -> Option<u32> {
        match self.docs[old as usize] {
            Self::DROPPED => None,
            new => Some(new),
        }
    }

    /// New id of an old clique (`None` when it was dropped).
    #[inline]
    pub fn clique(&self, old: CliqueId) -> Option<CliqueId> {
        match self.cliques[old.idx()] {
            Self::DROPPED => None,
            new => Some(CliqueId(new)),
        }
    }

    /// Claim count of the pre-compaction model (the domain size).
    pub fn n_old_claims(&self) -> usize {
        self.claims.len()
    }

    /// Clique count of the pre-compaction model.
    pub fn n_old_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// Claim count of the compacted model.
    pub fn n_new_claims(&self) -> usize {
        self.new_claims as usize
    }

    /// Source count of the compacted model.
    pub fn n_new_sources(&self) -> usize {
        self.new_sources as usize
    }

    /// Document count of the compacted model.
    pub fn n_new_docs(&self) -> usize {
        self.new_docs as usize
    }

    /// Clique count of the compacted model.
    pub fn n_new_cliques(&self) -> usize {
        self.new_cliques as usize
    }

    /// Relocate per-claim state indexed by old claim id into `n_new`
    /// slots indexed by compacted id: each surviving claim's entry moves
    /// to its new id, and every slot no old claim maps to (a dropped
    /// claim's or one grown after the compaction) holds `fill`.
    pub fn relocate<T: Copy>(&self, old: &[T], n_new: usize, fill: T) -> Vec<T> {
        let mut out = vec![fill; n_new];
        for (c, &value) in old.iter().enumerate() {
            if let Some(nc) = self.claim(VarId(c as u32)) {
                out[nc.idx()] = value;
            }
        }
        out
    }
}

/// Where a model-derived structure last synchronised with its model:
/// the lineage position plus the claim and clique counts it covered.
/// Taken by [`CrfModel::sync_point`] and handed back to
/// [`CrfModel::since`]. The default point belongs to no lineage (id 0 is
/// never issued), so a structure that never synced rebuilds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncPoint {
    model_id: u64,
    revision: u64,
    retire_ops: u64,
    compactions: u64,
    n_claims: usize,
    n_cliques: usize,
}

/// How a structure synced at a [`SyncPoint`] catches up with the model
/// ([`CrfModel::since`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Since<'a> {
    /// Same state: nothing to do.
    Unchanged,
    /// Same id space: growth only appended claims and cliques after the
    /// ones the structure saw; `retired` says tombstones changed.
    Patch {
        /// Whether a retire landed since the sync point.
        retired: bool,
    },
    /// Exactly one compaction happened and `remap` covers the sync
    /// point: relocate the seen entities through it. Compacted ids that
    /// no seen entity maps to (growth before or after the compaction) are
    /// unseen.
    Relocate {
        /// The compaction's renumbering, old ids → compacted ids.
        remap: &'a IdRemap,
        /// Whether a retire landed since the sync point (before or after
        /// the compaction).
        retired: bool,
    },
    /// Another lineage, two compactions, or a divergent clone: start over.
    Rebuild,
}

/// Build a random but well-formed synthetic model: `n_claims` claims spread
/// over `n_sources` sources, `docs_per_claim` documents each, with
/// `m_source`/`m_doc`-dimensional uniform feature rows and an 80/20
/// support/refute stance mix. Fully deterministic given `seed`.
///
/// Used by the equivalence tests and the Gibbs throughput benchmarks, which
/// need graphs (up to 10k claims) without pulling in the `factdb` corpus
/// generators.
pub fn synthetic_model(
    n_claims: usize,
    n_sources: usize,
    docs_per_claim: usize,
    m_source: usize,
    m_doc: usize,
    seed: u64,
) -> CrfModel {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut delta = ModelDelta::new(m_source, m_doc);
    let mut row = vec![0.0; m_source.max(m_doc)];
    for _ in 0..n_sources {
        for x in row[..m_source].iter_mut() {
            *x = rng.gen::<f64>();
        }
        delta.add_source(&row[..m_source]).unwrap();
    }
    let claims: Vec<VarId> = (0..n_claims).map(|_| delta.add_claim()).collect();
    for &c in &claims {
        for _ in 0..docs_per_claim {
            for x in row[..m_doc].iter_mut() {
                *x = rng.gen::<f64>();
            }
            let d = delta.add_document(&row[..m_doc]).unwrap();
            let s = rng.gen_range(0..n_sources) as u32;
            let stance = if rng.gen_bool(0.8) {
                Stance::Support
            } else {
                Stance::Refute
            };
            delta.add_clique(c, d, s, stance);
        }
    }
    CrfModel::build(delta).unwrap()
}

/// Build a synthetic model with a **controlled component structure**:
/// `n_components` blocks of `claims_per_component` claims, each block owning
/// its own disjoint pool of `sources_per_component` sources. Every claim's
/// first clique uses its block's first source, so each block is guaranteed
/// connected and the claim graph has exactly `n_components` connected
/// components; remaining cliques draw a random source from the block's
/// pool. Feature rows and stances follow [`synthetic_model`]'s conventions.
/// Fully deterministic given `seed`.
///
/// Used by the component-scheduler benchmarks and tests, which need
/// many-small-components and few-giant-components topologies on demand.
pub fn synthetic_components_model(
    n_components: usize,
    claims_per_component: usize,
    sources_per_component: usize,
    docs_per_claim: usize,
    m_source: usize,
    m_doc: usize,
    seed: u64,
) -> CrfModel {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    assert!(
        sources_per_component >= 1,
        "need at least one source per component"
    );
    assert!(docs_per_claim >= 1, "need at least one document per claim");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut delta = ModelDelta::new(m_source, m_doc);
    let mut row = vec![0.0; m_source.max(m_doc)];
    for _ in 0..n_components * sources_per_component {
        for x in row[..m_source].iter_mut() {
            *x = rng.gen::<f64>();
        }
        delta.add_source(&row[..m_source]).unwrap();
    }
    for comp in 0..n_components {
        let base = (comp * sources_per_component) as u32;
        for _ in 0..claims_per_component {
            let c = delta.add_claim();
            for k in 0..docs_per_claim {
                for x in row[..m_doc].iter_mut() {
                    *x = rng.gen::<f64>();
                }
                let d = delta.add_document(&row[..m_doc]).unwrap();
                let s = if k == 0 {
                    base
                } else {
                    base + rng.gen_range(0..sources_per_component) as u32
                };
                let stance = if rng.gen_bool(0.8) {
                    Stance::Support
                } else {
                    Stance::Refute
                };
                delta.add_clique(c, d, s, stance);
            }
        }
    }
    CrfModel::build(delta).unwrap()
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Build a small random but well-formed model: `n_claims` claims spread
    /// over `n_sources` sources, `docs_per_claim` documents each.
    pub fn random_model(
        n_claims: usize,
        n_sources: usize,
        docs_per_claim: usize,
        seed: u64,
    ) -> CrfModel {
        synthetic_model(n_claims, n_sources, docs_per_claim, 2, 2, seed)
    }

    /// One chunk of a random build script: entities added together. The
    /// first chunk seeds the base model; later chunks become deltas.
    #[derive(Debug, Clone, Default)]
    pub struct GrowthChunk {
        /// Feature rows of new sources (each of width 2).
        pub sources: Vec<[f64; 2]>,
        /// New claims added before the documents below.
        pub claims: usize,
        /// New documents: feature row plus cliques `(claim, source, refute)`
        /// referencing any entity that exists once this chunk's claims and
        /// sources are in.
        pub docs: Vec<ChunkDoc>,
    }

    /// One document of a [`GrowthChunk`]: its feature row and its cliques
    /// as `(claim, source, refute)` triples.
    pub type ChunkDoc = ([f64; 2], Vec<(u32, u32, bool)>);

    /// A random multi-chunk build script (2-dimensional features). The
    /// first chunk always contains at least one source, claim, and clique,
    /// so the base model builds; later chunks may add any mix, including
    /// cliques that attach new documents to old claims.
    pub fn random_growth_script(seed: u64, n_chunks: usize) -> Vec<GrowthChunk> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut chunks = Vec::with_capacity(n_chunks);
        let (mut n_sources, mut n_claims) = (0u32, 0u32);
        for i in 0..n_chunks {
            let mut chunk = GrowthChunk {
                sources: (0..if i == 0 {
                    rng.gen_range(1..4usize)
                } else {
                    rng.gen_range(0..3usize)
                })
                    .map(|_| [rng.gen::<f64>(), rng.gen::<f64>()])
                    .collect(),
                claims: if i == 0 {
                    rng.gen_range(1..5)
                } else {
                    rng.gen_range(0..5)
                },
                docs: Vec::new(),
            };
            n_sources += chunk.sources.len() as u32;
            n_claims += chunk.claims as u32;
            let n_docs = if i == 0 {
                rng.gen_range(1..6usize)
            } else {
                rng.gen_range(0..6usize)
            };
            for _ in 0..n_docs {
                let row = [rng.gen::<f64>(), rng.gen::<f64>()];
                let n_links = rng.gen_range(1..3usize);
                let links = (0..n_links)
                    .map(|_| {
                        (
                            rng.gen_range(0..n_claims),
                            rng.gen_range(0..n_sources),
                            rng.gen_bool(0.25),
                        )
                    })
                    .collect();
                chunk.docs.push((row, links));
            }
            chunks.push(chunk);
        }
        chunks
    }

    /// Replay a build script in one shot through [`CrfModel::build`].
    pub fn build_batch(chunks: &[GrowthChunk]) -> CrfModel {
        let mut b = ModelDelta::new(2, 2);
        for chunk in chunks {
            for row in &chunk.sources {
                b.add_source(row).unwrap();
            }
            for _ in 0..chunk.claims {
                b.add_claim();
            }
            for (row, links) in &chunk.docs {
                let d = b.add_document(row).unwrap();
                for &(claim, source, refute) in links {
                    let stance = if refute {
                        Stance::Refute
                    } else {
                        Stance::Support
                    };
                    b.add_clique(VarId(claim), d, source, stance);
                }
            }
        }
        CrfModel::build(b).unwrap()
    }

    /// Turn one chunk into a delta against the current model state.
    pub fn chunk_delta(model: &CrfModel, chunk: &GrowthChunk) -> ModelDelta {
        let mut delta = ModelDelta::for_model(model);
        for row in &chunk.sources {
            delta.add_source(row).unwrap();
        }
        for _ in 0..chunk.claims {
            delta.add_claim();
        }
        for (row, links) in &chunk.docs {
            let d = delta.add_document(row).unwrap();
            for &(claim, source, refute) in links {
                let stance = if refute {
                    Stance::Refute
                } else {
                    Stance::Support
                };
                delta.add_clique(VarId(claim), d, source, stance);
            }
        }
        delta
    }

    /// Replay a build script incrementally: chunk 0 through
    /// [`CrfModel::build`], every later chunk through [`CrfModel::apply`].
    pub fn build_grown(chunks: &[GrowthChunk]) -> CrfModel {
        let mut model = build_batch(&chunks[..1]);
        for chunk in &chunks[1..] {
            let delta = chunk_delta(&model, chunk);
            model.apply(delta).unwrap();
        }
        model
    }

    /// One step of a random lifecycle script: either a growth chunk or a
    /// retirement of currently-live entities.
    #[derive(Debug, Clone)]
    pub enum LifecycleOp {
        /// Grow by one chunk (entities only reference live ids).
        Grow(GrowthChunk),
        /// Retire the named (live) claims and sources.
        Retire {
            /// Claims to tombstone.
            claims: Vec<u32>,
            /// Sources to tombstone.
            sources: Vec<u32>,
        },
    }

    /// A naive mirror of the lifecycle — the executable specification the
    /// tombstone/compaction machinery is held against. It tracks entities
    /// and liveness in plain vectors and can produce the one-shot
    /// *survivors* build through the ordinary [`CrfModel::build`], entirely
    /// independently of [`CrfModel::retire`] / [`CrfModel::compact`].
    #[derive(Debug, Clone, Default)]
    pub struct LifecycleSim {
        /// Source feature rows.
        pub sources: Vec<[f64; 2]>,
        /// Liveness per source.
        pub source_live: Vec<bool>,
        /// Number of claims ever added.
        pub claims: usize,
        /// Liveness per claim.
        pub claim_live: Vec<bool>,
        /// Document feature rows.
        pub docs: Vec<[f64; 2]>,
        /// Cliques as `(claim, doc, source, refute)`.
        pub cliques: Vec<(u32, u32, u32, bool)>,
    }

    impl LifecycleSim {
        /// Whether clique `i` is live (claim and source both live).
        pub fn clique_live(&self, i: usize) -> bool {
            let (c, _, s, _) = self.cliques[i];
            self.claim_live[c as usize] && self.source_live[s as usize]
        }

        /// Number of live cliques.
        pub fn n_live_cliques(&self) -> usize {
            (0..self.cliques.len())
                .filter(|&i| self.clique_live(i))
                .count()
        }

        /// Mirror one growth chunk (same id assignment as the delta).
        pub fn apply_chunk(&mut self, chunk: &GrowthChunk) {
            for row in &chunk.sources {
                self.sources.push(*row);
                self.source_live.push(true);
            }
            for _ in 0..chunk.claims {
                self.claims += 1;
                self.claim_live.push(true);
            }
            for (row, links) in &chunk.docs {
                let d = self.docs.len() as u32;
                self.docs.push(*row);
                for &(claim, source, refute) in links {
                    self.cliques.push((claim, d, source, refute));
                }
            }
        }

        /// Mirror a retirement.
        pub fn retire(&mut self, claims: &[u32], sources: &[u32]) {
            for &c in claims {
                self.claim_live[c as usize] = false;
            }
            for &s in sources {
                self.source_live[s as usize] = false;
            }
        }

        /// The one-shot build of the survivors, in original insertion
        /// order, with the same document-drop rule the compactor uses (a
        /// doc is dropped iff it had cliques and none survived). Returns
        /// the model plus the old→new claim map (`u32::MAX` = dropped).
        pub fn build_survivors(&self) -> (CrfModel, Vec<u32>) {
            const DROP: u32 = u32::MAX;
            let mut b = ModelDelta::new(2, 2);
            let mut source_map = vec![DROP; self.sources.len()];
            for (s, row) in self.sources.iter().enumerate() {
                if self.source_live[s] {
                    source_map[s] = b.add_source(row).unwrap();
                }
            }
            let mut claim_map = vec![DROP; self.claims];
            for (c, slot) in claim_map.iter_mut().enumerate() {
                if self.claim_live[c] {
                    *slot = b.add_claim().0;
                }
            }
            let mut doc_has = vec![false; self.docs.len()];
            let mut doc_live = vec![false; self.docs.len()];
            for (i, &(_, d, _, _)) in self.cliques.iter().enumerate() {
                doc_has[d as usize] = true;
                if self.clique_live(i) {
                    doc_live[d as usize] = true;
                }
            }
            let mut doc_map = vec![DROP; self.docs.len()];
            for (d, row) in self.docs.iter().enumerate() {
                if !doc_has[d] || doc_live[d] {
                    doc_map[d] = b.add_document(row).unwrap();
                }
            }
            for (i, &(c, d, s, refute)) in self.cliques.iter().enumerate() {
                if self.clique_live(i) {
                    let stance = if refute {
                        Stance::Refute
                    } else {
                        Stance::Support
                    };
                    b.add_clique(
                        VarId(claim_map[c as usize]),
                        doc_map[d as usize],
                        source_map[s as usize],
                        stance,
                    );
                }
            }
            (CrfModel::build(b).unwrap(), claim_map)
        }
    }

    /// A random interleaved grow/retire script. Op 0 is always a growth
    /// chunk that seeds a buildable model; retire steps only name live
    /// entities and never kill the last live clique, so the survivors
    /// build always succeeds. Growth chunks only reference live claims and
    /// sources (evidence cannot attach to retired entities).
    pub fn random_lifecycle_script(seed: u64, n_ops: usize) -> Vec<LifecycleOp> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = LifecycleSim::default();
        let mut ops = Vec::with_capacity(n_ops);

        let grow = |rng: &mut SmallRng, sim: &mut LifecycleSim, first: bool| -> GrowthChunk {
            let live_sources: Vec<u32> = (0..sim.sources.len() as u32)
                .filter(|&s| sim.source_live[s as usize])
                .collect();
            let live_claims: Vec<u32> = (0..sim.claims as u32)
                .filter(|&c| sim.claim_live[c as usize])
                .collect();
            let n_new_sources = if first || live_sources.is_empty() {
                rng.gen_range(1..3usize)
            } else {
                rng.gen_range(0..3usize)
            };
            let n_new_claims = if first || live_claims.is_empty() {
                rng.gen_range(1..4)
            } else {
                rng.gen_range(0..4)
            };
            let mut chunk = GrowthChunk {
                sources: (0..n_new_sources)
                    .map(|_| [rng.gen::<f64>(), rng.gen::<f64>()])
                    .collect(),
                claims: n_new_claims,
                docs: Vec::new(),
            };
            // Referencable pools: live old entities plus this chunk's new ones.
            let mut claims_pool = live_claims;
            claims_pool.extend(sim.claims as u32..(sim.claims + n_new_claims) as u32);
            let mut sources_pool = live_sources;
            sources_pool
                .extend(sim.sources.len() as u32..(sim.sources.len() + n_new_sources) as u32);
            let n_docs = if first {
                rng.gen_range(1..5usize)
            } else {
                rng.gen_range(0..5usize)
            };
            for _ in 0..n_docs {
                let row = [rng.gen::<f64>(), rng.gen::<f64>()];
                let links = (0..rng.gen_range(1..3usize))
                    .map(|_| {
                        (
                            claims_pool[rng.gen_range(0..claims_pool.len())],
                            sources_pool[rng.gen_range(0..sources_pool.len())],
                            rng.gen_bool(0.25),
                        )
                    })
                    .collect();
                chunk.docs.push((row, links));
            }
            sim.apply_chunk(&chunk);
            chunk
        };

        ops.push(LifecycleOp::Grow(grow(&mut rng, &mut sim, true)));
        for _ in 1..n_ops {
            let retire_possible = sim.n_live_cliques() > 1;
            if retire_possible && rng.gen_bool(0.45) {
                // Candidate entities, shuffled-ish by random picks; accept
                // each only while at least one live clique would remain.
                let mut claims = Vec::new();
                let mut sources = Vec::new();
                let mut trial = sim.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    if rng.gen_bool(0.7) {
                        let live: Vec<u32> = (0..trial.claims as u32)
                            .filter(|&c| trial.claim_live[c as usize])
                            .collect();
                        if live.is_empty() {
                            continue;
                        }
                        let c = live[rng.gen_range(0..live.len())];
                        let mut t = trial.clone();
                        t.retire(&[c], &[]);
                        if t.n_live_cliques() >= 1 {
                            claims.push(c);
                            trial = t;
                        }
                    } else {
                        let live: Vec<u32> = (0..trial.sources.len() as u32)
                            .filter(|&s| trial.source_live[s as usize])
                            .collect();
                        if live.is_empty() {
                            continue;
                        }
                        let s = live[rng.gen_range(0..live.len())];
                        let mut t = trial.clone();
                        t.retire(&[], &[s]);
                        if t.n_live_cliques() >= 1 {
                            sources.push(s);
                            trial = t;
                        }
                    }
                }
                if claims.is_empty() && sources.is_empty() {
                    ops.push(LifecycleOp::Grow(grow(&mut rng, &mut sim, false)));
                } else {
                    sim.retire(&claims, &sources);
                    ops.push(LifecycleOp::Retire { claims, sources });
                }
            } else {
                ops.push(LifecycleOp::Grow(grow(&mut rng, &mut sim, false)));
            }
        }
        ops
    }

    /// Replay a lifecycle script against a live model (chunk 0 through
    /// [`CrfModel::build`], growth through [`CrfModel::apply`], retirement
    /// through [`CrfModel::retire`]) while mirroring it in a
    /// [`LifecycleSim`].
    pub fn replay_lifecycle(ops: &[LifecycleOp]) -> (CrfModel, LifecycleSim) {
        let mut sim = LifecycleSim::default();
        let LifecycleOp::Grow(first) = &ops[0] else {
            panic!("script must start with growth");
        };
        sim.apply_chunk(first);
        let mut model = build_batch(std::slice::from_ref(first));
        for op in &ops[1..] {
            match op {
                LifecycleOp::Grow(chunk) => {
                    let delta = chunk_delta(&model, chunk);
                    model.apply(delta).unwrap();
                    sim.apply_chunk(chunk);
                }
                LifecycleOp::Retire { claims, sources } => {
                    let mut set = RetireSet::for_model(&model);
                    for &c in claims {
                        set.retire_claim(VarId(c));
                    }
                    for &s in sources {
                        set.retire_source(s);
                    }
                    model.retire(set).unwrap();
                    sim.retire(claims, sources);
                }
            }
        }
        (model, sim)
    }

    /// Assert two models have identical content (everything except the
    /// build-lineage id): counts, feature rows, cliques, and every CSR
    /// adjacency view, element for element.
    pub fn assert_same_content(a: &CrfModel, b: &CrfModel) {
        assert_eq!(a.n_claims(), b.n_claims());
        assert_eq!(a.n_sources(), b.n_sources());
        assert_eq!(a.n_docs(), b.n_docs());
        assert_eq!(a.m_source(), b.m_source());
        assert_eq!(a.m_doc(), b.m_doc());
        assert_eq!(a.cliques(), b.cliques());
        assert_eq!(a.n_incidences(), b.n_incidences());
        for c in 0..a.n_claims() {
            let v = VarId(c as u32);
            assert_eq!(a.cliques_of(v), b.cliques_of(v), "claim {c} cliques");
            assert_eq!(
                a.clique_sources_of(v),
                b.clique_sources_of(v),
                "claim {c} clique sources"
            );
            assert_eq!(
                a.sources_of_claim(v),
                b.sources_of_claim(v),
                "claim {c} sources"
            );
            assert_eq!(a.claim_clique_span(c), b.claim_clique_span(c));
        }
        for s in 0..a.n_sources() as u32 {
            assert_eq!(a.claims_of_source(s), b.claims_of_source(s), "source {s}");
            assert_eq!(a.source_feature_row(s), b.source_feature_row(s));
        }
        for d in 0..a.n_docs() as u32 {
            assert_eq!(a.doc_feature_row(d), b.doc_feature_row(d), "doc {d}");
        }
    }

    /// The layout spec, independent of the splice: the CSR arrays reproduce
    /// exactly the nested `Vec<Vec<u32>>` adjacency they replaced —
    /// per-claim clique lists in insertion order, per-claim parallel source
    /// lists, and sorted-deduplicated source↔claim lists, all rebuilt here
    /// directly from the clique list.
    pub fn assert_matches_nested_reference(m: &CrfModel) {
        use std::collections::BTreeSet;
        let mut claim_cliques = vec![Vec::<u32>::new(); m.n_claims()];
        let mut claim_clique_sources = vec![Vec::<u32>::new(); m.n_claims()];
        let mut claim_sources = vec![BTreeSet::<u32>::new(); m.n_claims()];
        let mut source_claims = vec![BTreeSet::<u32>::new(); m.n_sources()];
        for (i, cl) in m.cliques().iter().enumerate() {
            claim_cliques[cl.claim.idx()].push(i as u32);
            claim_clique_sources[cl.claim.idx()].push(cl.source);
            claim_sources[cl.claim.idx()].insert(cl.source);
            source_claims[cl.source as usize].insert(cl.claim.0);
        }

        let mut incidences = 0;
        for c in 0..m.n_claims() {
            let v = VarId(c as u32);
            assert_eq!(m.cliques_of(v), claim_cliques[c].as_slice(), "claim {c}");
            assert_eq!(
                m.clique_sources_of(v),
                claim_clique_sources[c].as_slice(),
                "claim {c} sources"
            );
            let expect: Vec<u32> = claim_sources[c].iter().copied().collect();
            assert_eq!(m.sources_of_claim(v), expect.as_slice(), "claim {c} dedup");
            let (lo, hi) = m.claim_clique_span(c);
            assert_eq!(hi - lo, claim_cliques[c].len());
            incidences += hi - lo;
        }
        assert_eq!(incidences, m.n_incidences());
        assert_eq!(m.n_incidences(), m.cliques().len());
        for s in 0..m.n_sources() as u32 {
            let expect: Vec<u32> = source_claims[s as usize].iter().copied().collect();
            assert_eq!(m.claims_of_source(s), expect.as_slice(), "source {s}");
            assert_eq!(m.n_claims_of_source(s), expect.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> CrfModel {
        CrfModel::build(tiny_delta()).unwrap()
    }

    /// The content of [`tiny_model`], as a delta against the empty model.
    fn tiny_delta() -> ModelDelta {
        let mut b = ModelDelta::new(1, 1);
        let s0 = b.add_source(&[0.9]).unwrap();
        let s1 = b.add_source(&[0.1]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        let d0 = b.add_document(&[0.8]).unwrap();
        let d1 = b.add_document(&[0.2]).unwrap();
        let d2 = b.add_document(&[0.5]).unwrap();
        b.add_clique(c0, d0, s0, Stance::Support);
        b.add_clique(c0, d1, s1, Stance::Refute);
        b.add_clique(c1, d2, s0, Stance::Support);
        b
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = ModelDelta::new(2, 3);
        assert_eq!(b.add_source(&[1.0, 2.0]).unwrap(), 0);
        assert_eq!(b.add_source(&[3.0, 4.0]).unwrap(), 1);
        assert_eq!(b.add_document(&[1.0, 2.0, 3.0]).unwrap(), 0);
        assert_eq!(b.add_claim(), VarId(0));
        assert_eq!(b.add_claim(), VarId(1));
    }

    #[test]
    fn builder_rejects_wrong_feature_dims() {
        let mut b = ModelDelta::new(2, 2);
        assert!(matches!(
            b.add_source(&[1.0]),
            Err(ModelError::FeatureDim {
                entity: "source",
                ..
            })
        ));
        assert!(matches!(
            b.add_document(&[1.0, 2.0, 3.0]),
            Err(ModelError::FeatureDim {
                entity: "document",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_dangling_clique() {
        let mut b = ModelDelta::new(1, 1);
        let c = b.add_claim();
        let d = b.add_document(&[0.5]).unwrap();
        b.add_clique(c, d, 7, Stance::Support); // source 7 does not exist
        assert!(matches!(
            CrfModel::build(b),
            Err(ModelError::DanglingReference {
                entity: "source",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_empty_model() {
        let b = ModelDelta::new(1, 1);
        assert_eq!(CrfModel::build(b).unwrap_err(), ModelError::Empty);
    }

    #[test]
    fn build_rejects_a_delta_prepared_against_a_live_model() {
        let m = tiny_model();
        let mut delta = ModelDelta::for_model(&m);
        let c = delta.add_claim();
        let d = delta.add_document(&[0.5]).unwrap();
        delta.add_clique(c, d, 0, Stance::Support);
        assert_eq!(
            CrfModel::build(delta).unwrap_err(),
            ModelError::StaleDelta {
                delta_model_id: m.model_id(),
                delta_revision: 0,
                model_id: 0,
                model_revision: 0,
            }
        );
    }

    /// `build` and `apply` validate through the same splice: a dangling
    /// clique of each kind gives the same error whether it arrives in a
    /// delta on the tiny model or in one build of the same content.
    #[test]
    fn build_and_apply_reject_a_dangling_clique_alike() {
        for (claim, doc, source) in [(9, 0, 0), (0, 9, 0), (0, 0, 9)] {
            let mut grown = tiny_model();
            let mut delta = ModelDelta::for_model(&grown);
            delta.add_clique(VarId(claim), doc, source, Stance::Support);
            let from_apply = grown.apply(delta).unwrap_err();

            let mut batch = tiny_delta();
            batch.add_clique(VarId(claim), doc, source, Stance::Support);
            let from_build = CrfModel::build(batch).unwrap_err();
            assert!(matches!(
                from_build,
                ModelError::DanglingReference { index: 9, .. }
            ));
            assert_eq!(from_build, from_apply);
        }
    }

    #[test]
    fn adjacency_is_consistent() {
        let m = tiny_model();
        assert_eq!(m.n_claims(), 2);
        assert_eq!(m.n_sources(), 2);
        assert_eq!(m.n_docs(), 3);
        assert_eq!(m.cliques_of(VarId(0)).len(), 2);
        assert_eq!(m.cliques_of(VarId(1)).len(), 1);
        assert_eq!(m.claims_of_source(0), &[0, 1]);
        assert_eq!(m.claims_of_source(1), &[0]);
        assert_eq!(m.sources_of_claim(VarId(0)), &[0, 1]);
        assert_eq!(m.sources_of_claim(VarId(1)), &[0]);
    }

    #[test]
    fn csr_adjacency_round_trips_nested_reference() {
        test_support::assert_matches_nested_reference(&test_support::random_model(60, 12, 3, 21));
    }

    #[test]
    fn stance_effective_flips_for_refute() {
        assert!(Stance::Support.effective(true));
        assert!(!Stance::Support.effective(false));
        assert!(!Stance::Refute.effective(true));
        assert!(Stance::Refute.effective(false));
    }

    #[test]
    fn feature_rows_are_correct() {
        let m = tiny_model();
        assert_eq!(m.source_feature_row(0), &[0.9]);
        assert_eq!(m.source_feature_row(1), &[0.1]);
        assert_eq!(m.doc_feature_row(2), &[0.5]);
        assert_eq!(m.feature_dim(), 1 + 1 + 1 + 1);
    }

    #[test]
    fn model_serde_roundtrip() {
        let m = tiny_model();
        let json = serde_json::to_string(&m).unwrap();
        let back: CrfModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_claims(), m.n_claims());
        assert_eq!(back.cliques().len(), m.cliques().len());
    }

    // ---------------------------------------------- versioned growth

    #[test]
    fn apply_grows_claims_docs_and_cliques() {
        let mut m = tiny_model();
        assert_eq!(m.revision(), Revision(0));
        let id = m.model_id();

        let mut delta = ModelDelta::for_model(&m);
        let s = delta.add_source(&[0.4]).unwrap();
        assert_eq!(s, 2, "absolute source id continues the base count");
        let c = delta.add_claim();
        assert_eq!(c, VarId(2));
        let d = delta.add_document(&[0.6]).unwrap();
        assert_eq!(d, 3);
        delta.add_clique(c, d, s, Stance::Support);
        // A new document can also attach to an old claim.
        let d2 = delta.add_document(&[0.7]).unwrap();
        delta.add_clique(VarId(0), d2, 0, Stance::Refute);

        assert_eq!(m.apply(delta).unwrap(), Revision(1));
        assert_eq!(m.revision(), Revision(1));
        assert_eq!(m.model_id(), id, "lineage survives growth");
        assert_eq!(m.n_claims(), 3);
        assert_eq!(m.n_sources(), 3);
        assert_eq!(m.n_docs(), 5);
        assert_eq!(m.cliques().len(), 5);
        // Old claim 0 gained a clique: old entries first, new one after.
        assert_eq!(m.cliques_of(VarId(0)), &[0, 1, 4]);
        assert_eq!(m.cliques_of(VarId(2)), &[3]);
        assert_eq!(m.sources_of_claim(VarId(0)), &[0, 1]);
        assert_eq!(m.claims_of_source(0), &[0, 1]);
        assert_eq!(m.claims_of_source(2), &[2]);
        assert_eq!(m.source_feature_row(2), &[0.4]);
        assert_eq!(m.doc_feature_row(3), &[0.6]);
    }

    #[test]
    fn apply_rejects_stale_and_foreign_deltas() {
        let mut m = tiny_model();
        let stale = ModelDelta::for_model(&m);
        let mut bump = ModelDelta::for_model(&m);
        bump.add_claim();
        m.apply(bump).unwrap();
        // Same lineage, old revision.
        let mut stale = stale;
        stale.add_claim();
        assert!(matches!(
            m.apply(stale),
            Err(ModelError::StaleDelta {
                delta_revision: 0,
                model_revision: 1,
                ..
            })
        ));
        // Another lineage entirely.
        let other = tiny_model();
        let mut foreign = ModelDelta::for_model(&other);
        foreign.add_claim();
        assert!(matches!(
            m.apply(foreign),
            Err(ModelError::StaleDelta { .. })
        ));
    }

    #[test]
    fn apply_validates_dangling_references_atomically() {
        let mut m = tiny_model();
        let mut delta = ModelDelta::for_model(&m);
        let c = delta.add_claim();
        let d = delta.add_document(&[0.5]).unwrap();
        delta.add_clique(c, d, 9, Stance::Support); // source 9 missing
        assert!(matches!(
            m.apply(delta),
            Err(ModelError::DanglingReference {
                entity: "source",
                ..
            })
        ));
        // The failed apply left the model untouched.
        assert_eq!(m.revision(), Revision(0));
        assert_eq!(m.n_claims(), 2);
        assert_eq!(m.cliques().len(), 3);
    }

    #[test]
    fn apply_rejects_wrong_feature_dims() {
        let m = tiny_model();
        let mut delta = ModelDelta::for_model(&m);
        assert!(matches!(
            delta.add_source(&[1.0, 2.0]),
            Err(ModelError::FeatureDim {
                entity: "source",
                ..
            })
        ));
        assert!(matches!(
            delta.add_document(&[]),
            Err(ModelError::FeatureDim {
                entity: "document",
                ..
            })
        ));
    }

    /// Malformed feature blocks are refused with a typed error and leave
    /// the model untouched: a NaN added through the API, and — made by a
    /// `serde_json` round trip, the encoding the edit log uses — a delta of
    /// another document width and one with a partial trailing row.
    #[test]
    fn apply_rejects_malformed_feature_blocks() {
        let mut b = ModelDelta::new(1, 2);
        let s = b.add_source(&[0.5]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.125, 0.25]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        let mut m = CrfModel::build(b).unwrap();
        let before = m.clone();
        let delta_with = |row: &[f64]| {
            let mut delta = ModelDelta::for_model(&m);
            let c = delta.add_claim();
            let d = delta.add_document(row).unwrap();
            delta.add_clique(c, d, 0, Stance::Support);
            delta
        };
        let reencoded = |from: &str, to: &str| -> ModelDelta {
            let json = serde_json::to_string(&delta_with(&[0.375, 0.5])).unwrap();
            assert!(json.contains(from), "{json}");
            serde_json::from_str(&json.replace(from, to)).unwrap()
        };
        let cases = [
            (
                delta_with(&[0.375, f64::NAN]),
                ModelError::NonFinite {
                    entity: "document",
                    index: 1,
                },
            ),
            (
                reencoded("\"m_doc\":2", "\"m_doc\":3"),
                ModelError::FeatureDim {
                    entity: "document",
                    expected: 2,
                    got: 3,
                },
            ),
            (
                reencoded("[0.375,0.5]", "[0.375,0.5,0.625]"),
                ModelError::FeatureDim {
                    entity: "document",
                    expected: 2,
                    got: 1,
                },
            ),
        ];
        for (delta, expect) in cases {
            assert_eq!(m.apply(delta).unwrap_err(), expect);
            assert_eq!(m.revision(), before.revision());
            test_support::assert_same_content(&m, &before);
        }
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut m = tiny_model();
        let delta = ModelDelta::for_model(&m);
        assert!(delta.is_empty());
        assert_eq!(m.apply(delta).unwrap(), Revision(0));
        assert_eq!(m.revision(), Revision(0));
    }

    #[test]
    fn serde_keeps_revision() {
        let mut m = tiny_model();
        let mut delta = ModelDelta::for_model(&m);
        delta.add_claim();
        m.apply(delta).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: CrfModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.revision(), Revision(1));
        assert_eq!(back.model_id(), m.model_id());
    }

    /// Canonical-layout spec: replaying a build script delta-by-delta
    /// produces exactly the adjacency, feature matrices, and clique list of
    /// the one-shot build — on fixed seeds covering old-claim attachment,
    /// source-only chunks, and claim-heavy chunks.
    #[test]
    fn grown_model_matches_batch_build() {
        for seed in 0..24u64 {
            let chunks = test_support::random_growth_script(seed, 1 + (seed as usize % 6));
            let batch = test_support::build_batch(&chunks);
            let grown = test_support::build_grown(&chunks);
            test_support::assert_same_content(&batch, &grown);
            assert_eq!(grown.revision().0 as usize, chunks.len() - 1);
        }
    }

    proptest::proptest! {
        /// The growth path is canonical for *any* random script split into
        /// any number of deltas (the incremental-vs-batch equivalence spec
        /// at the model layer).
        #[test]
        fn prop_grown_model_matches_batch_build(seed in 0u64..400, chunks in 1usize..7) {
            let script = test_support::random_growth_script(seed ^ 0x9e37, chunks);
            let batch = test_support::build_batch(&script);
            let grown = test_support::build_grown(&script);
            test_support::assert_same_content(&batch, &grown);
            test_support::assert_matches_nested_reference(&batch);
            test_support::assert_matches_nested_reference(&grown);
        }
    }

    // ---------------------------------------------- retirement + compaction

    #[test]
    fn retire_tombstones_in_place() {
        let mut m = tiny_model();
        let id = m.model_id();
        let before = m.sync_point();
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(1));
        assert_eq!(m.retire(set).unwrap(), Revision(1));
        assert_eq!(m.model_id(), id);
        assert_eq!(m.since(before), Since::Patch { retired: true });
        assert_eq!(m.compactions(), 0);
        // Layout untouched, liveness changed.
        assert_eq!(m.n_claims(), 2);
        assert_eq!(m.n_live_claims(), 1);
        assert!(m.claim_live(0) && !m.claim_live(1));
        assert!(!m.clique_live(2), "claim 1's clique dies with it");
        assert!(m.clique_live(0) && m.clique_live(1));
        assert_eq!(m.n_live_cliques(), 2);
        // Source 0 served both claims; its live-claim count drops to 1.
        assert_eq!(m.n_live_claims_of_source(0), 1);
        assert_eq!(m.n_live_claims_of_source(1), 1);
        assert!(m.has_tombstones());
        assert!(m.dead_fraction() > 0.0);
        // Lifetime counters are unaffected.
        assert_eq!(m.ingested_claims(), 2);
        assert_eq!(m.ingested_cliques(), 3);
    }

    #[test]
    fn retire_source_kills_its_cliques_only() {
        let mut m = tiny_model();
        let mut set = RetireSet::for_model(&m);
        set.retire_source(1);
        m.retire(set).unwrap();
        assert!(!m.source_live(1));
        assert!(m.claim_live(0), "the source's claim stays live");
        assert!(!m.clique_live(1), "clique via source 1 dies");
        assert!(m.clique_live(0) && m.clique_live(2));
        assert_eq!(
            m.n_live_claims_of_source(1),
            1,
            "row counts stay claim-side"
        );
    }

    #[test]
    fn retire_rejects_stale_dangling_and_double() {
        let mut m = tiny_model();
        let stale = RetireSet::for_model(&m);
        let mut bump = ModelDelta::for_model(&m);
        bump.add_claim();
        m.apply(bump).unwrap();
        let mut stale = stale;
        stale.retire_claim(VarId(0));
        assert!(matches!(
            m.retire(stale),
            Err(ModelError::StaleDelta { .. })
        ));

        let mut bad = RetireSet::for_model(&m);
        bad.retire_claim(VarId(99));
        assert!(matches!(
            m.retire(bad),
            Err(ModelError::DanglingReference {
                entity: "claim",
                ..
            })
        ));

        let mut first = RetireSet::for_model(&m);
        first.retire_claim(VarId(0));
        m.retire(first).unwrap();
        let mut again = RetireSet::for_model(&m);
        again.retire_claim(VarId(0));
        assert!(matches!(
            m.retire(again),
            Err(ModelError::RetiredReference {
                entity: "claim",
                index: 0
            })
        ));
        // Errors left the model untouched beyond the successful retire.
        assert_eq!(m.n_dead_claims, 1);
    }

    /// The uniform edit entry point dispatches both directions and keeps
    /// the revision-check semantics.
    #[test]
    fn model_edit_unifies_grow_and_retire() {
        let mut m = tiny_model();
        let mut delta = ModelDelta::for_model(&m);
        delta.add_claim();
        assert_eq!(m.edit(delta).unwrap(), Revision(1));
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(0));
        assert_eq!(m.edit(ModelEdit::Retire(set)).unwrap(), Revision(2));
        assert!(!m.claim_live(0));
        let stale = RetireSet::for_model(&m);
        let mut bump = ModelDelta::for_model(&m);
        bump.add_claim();
        m.edit(bump).unwrap();
        let mut stale = stale;
        stale.retire_claim(VarId(1));
        assert!(matches!(m.edit(stale), Err(ModelError::StaleDelta { .. })));
    }

    // ------------------------------------------- log-record serde contract

    /// The WAL log-record contract (module docs, "Edits as log records"):
    /// a deserialised `ModelEdit` applies to the same revision and produces
    /// the same canonical layout — and, since clones of one model share a
    /// `model_id`, the identical serialised model state — as the original.
    #[test]
    fn model_edit_serde_round_trip_applies_identically() {
        let round_trip = |edit: &ModelEdit| -> ModelEdit {
            serde_json::from_str(&serde_json::to_string(edit).unwrap()).unwrap()
        };
        let apply_both = |base: &CrfModel, edit: ModelEdit| -> CrfModel {
            let back = round_trip(&edit);
            assert_eq!(back.base_revision(), edit.base_revision());
            let (mut a, mut b) = (base.clone(), base.clone());
            assert_eq!(a.edit(edit).unwrap(), b.edit(back).unwrap());
            test_support::assert_same_content(&a, &b);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "full model state (liveness, lineage, remap) must match"
            );
            a
        };
        for seed in 0..12u64 {
            let script = test_support::random_growth_script(seed.wrapping_mul(37) ^ 0x51, 2);
            let base = test_support::build_batch(&script[..1]);

            // Grow: the delta payload carries every entity kind.
            let delta = test_support::chunk_delta(&base, &script[1]);
            let grown = apply_both(&base, ModelEdit::Grow(delta));

            // Retire: both payload vectors populated.
            let mut set = RetireSet::for_model(&grown);
            set.retire_claim(VarId(0));
            set.retire_source(0);
            let retired = apply_both(&grown, ModelEdit::Retire(set));

            // Compact: the marker carries only the base pair; the remap is
            // regenerated deterministically on both sides (checked through
            // the serialised `last_compaction` field above). Skipped when
            // the retire left no survivors (compact would refuse `Empty`).
            if retired.n_live_cliques() > 0 {
                let compacted = apply_both(&retired, ModelEdit::compact_marker(&retired));
                assert_eq!(compacted.compactions(), 1);
            }
        }
    }

    /// A round-tripped compact marker is revision-checked like any other
    /// edit: against a moved-on model it is refused with `StaleDelta`.
    #[test]
    fn compact_marker_round_trip_keeps_revision_check() {
        let mut m = tiny_model();
        let marker = ModelEdit::compact_marker(&m);
        let back: ModelEdit =
            serde_json::from_str(&serde_json::to_string(&marker).unwrap()).unwrap();
        let mut delta = ModelDelta::for_model(&m);
        delta.add_claim();
        m.apply(delta).unwrap();
        assert!(matches!(m.edit(back), Err(ModelError::StaleDelta { .. })));
    }

    /// `IdRemap` itself round-trips value-identically — checkpoints carry
    /// the retained remap so recovered caches can still relocate.
    #[test]
    fn id_remap_serde_round_trip_is_identity() {
        let mut m = test_support::random_model(20, 6, 2, 7);
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(3));
        set.retire_claim(VarId(11));
        m.retire(set).unwrap();
        let remap = m.compact().unwrap();
        let back: IdRemap = serde_json::from_str(&serde_json::to_string(&remap).unwrap()).unwrap();
        assert_eq!(back, remap);
    }

    #[test]
    fn model_edit_rejects_unknown_op() {
        let err = serde_json::from_str::<ModelEdit>(r#"{"op":"merge"}"#);
        assert!(err.is_err());
    }

    #[test]
    fn empty_retire_set_is_a_no_op() {
        let mut m = tiny_model();
        let set = RetireSet::for_model(&m);
        assert!(set.is_empty());
        assert_eq!(m.retire(set).unwrap(), Revision(0));
        assert!(!m.has_tombstones());
    }

    #[test]
    fn apply_rejects_evidence_for_retired_entities() {
        let mut m = tiny_model();
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(0));
        m.retire(set).unwrap();
        let mut delta = ModelDelta::for_model(&m);
        let d = delta.add_document(&[0.3]).unwrap();
        delta.add_clique(VarId(0), d, 0, Stance::Support);
        assert!(matches!(
            m.apply(delta),
            Err(ModelError::RetiredReference {
                entity: "claim",
                index: 0
            })
        ));
        let rev = m.revision();
        let mut delta = ModelDelta::for_model(&m);
        let d = delta.add_document(&[0.3]).unwrap();
        delta.add_clique(VarId(1), d, 0, Stance::Support);
        assert_eq!(m.apply(delta).unwrap(), Revision(rev.0 + 1));
    }

    #[test]
    fn compact_matches_one_shot_survivors_build() {
        let mut m = tiny_model();
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(0));
        m.retire(set).unwrap();
        let id = m.model_id();
        let remap = m.compact().unwrap();
        assert!(!remap.is_identity());
        assert_eq!(m.model_id(), id, "lineage survives compaction");
        assert_eq!(m.compactions(), 1);
        assert_eq!(m.revision(), Revision(2));
        assert_eq!(m.remap_since(0), Ok(Some(&remap)));
        assert!(!m.has_tombstones());

        // Survivors: claim 1 (now 0), both sources, doc 2 (now 0), clique 2.
        assert_eq!(remap.claim(VarId(0)), None);
        assert_eq!(remap.claim(VarId(1)), Some(VarId(0)));
        assert_eq!(remap.doc(2), Some(0));
        assert_eq!(remap.doc(0), None, "doc 0's only clique died");
        assert_eq!(remap.clique(CliqueId(2)), Some(CliqueId(0)));
        assert_eq!(remap.n_new_claims(), 1);

        // Canonical: identical to the one-shot build of the survivors.
        let mut b = ModelDelta::new(1, 1);
        b.add_source(&[0.9]).unwrap();
        b.add_source(&[0.1]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.5]).unwrap();
        b.add_clique(c, d, 0, Stance::Support);
        let expect = CrfModel::build(b).unwrap();
        test_support::assert_same_content(&m, &expect);
        // Lifetime counters remember everything ever ingested.
        assert_eq!(m.ingested_claims(), 2);
        assert_eq!(m.ingested_docs(), 3);
    }

    #[test]
    fn compact_without_tombstones_is_identity() {
        let mut m = tiny_model();
        let remap = m.compact().unwrap();
        assert!(remap.is_identity());
        assert_eq!(m.revision(), Revision(0));
        assert_eq!(m.compactions(), 0);
        assert_eq!(m.remap_since(0), Ok(None));
        assert_eq!(remap.claim(VarId(1)), Some(VarId(1)));
    }

    /// Every outcome of the one patch / relocate / rebuild decision, on
    /// the tiny model (2 claims, 3 cliques; claim 0 owns cliques 0 and 1).
    #[test]
    fn since_decides_patch_relocate_or_rebuild() {
        fn grow_claim(m: &mut CrfModel) {
            let mut d = ModelDelta::for_model(m);
            let c = d.add_claim();
            let doc = d.add_document(&[0.4]).unwrap();
            d.add_clique(c, doc, 1, Stance::Support);
            m.apply(d).unwrap();
        }
        fn grow_clique(m: &mut CrfModel) {
            let mut d = ModelDelta::for_model(m);
            let doc = d.add_document(&[0.6]).unwrap();
            d.add_clique(VarId(1), doc, 1, Stance::Refute);
            m.apply(d).unwrap();
        }
        fn retire_claim(m: &mut CrfModel, c: u32) {
            let mut set = RetireSet::for_model(m);
            set.retire_claim(VarId(c));
            m.retire(set).unwrap();
        }
        let base = tiny_model();
        let at = base.sync_point();
        assert_eq!(base.since(at), Since::Unchanged);
        assert_eq!(base.since(SyncPoint::default()), Since::Rebuild);
        assert_eq!(base.since(tiny_model().sync_point()), Since::Rebuild);

        // Growth and retirement within one id space.
        let mut m = base.clone();
        grow_claim(&mut m);
        assert_eq!(m.since(at), Since::Patch { retired: false });
        retire_claim(&mut m, 1);
        assert!(matches!(m.since(at), Since::Patch { retired: true, .. }));

        // One compaction that exactly covers the sync point.
        let mut m = base.clone();
        retire_claim(&mut m, 0);
        let at_retired = m.sync_point();
        let remap = m.compact().unwrap();
        let relocate = Since::Relocate {
            remap: &remap,
            retired: false,
        };
        assert_eq!(m.since(at_retired), relocate);
        assert_eq!(m.remap_since(0), Ok(Some(&remap)));

        // Growth in the gap before the compaction: the remap still covers
        // every id the sync point saw (old claim 2, grown after it, maps
        // to compacted claim 1), and post-compaction growth stays behind it.
        let mut m = base.clone();
        grow_claim(&mut m);
        retire_claim(&mut m, 0);
        let remap = m.compact().unwrap();
        grow_claim(&mut m);
        let relocate = Since::Relocate {
            remap: &remap,
            retired: true,
        };
        assert_eq!(m.since(at), relocate);
        assert_eq!(remap.claim(VarId(2)), Some(VarId(1)));

        // Two compactions outrun the single retained remap.
        retire_claim(&mut m, 0);
        m.compact().unwrap();
        assert_eq!(m.compactions(), 2);
        assert_eq!(m.since(at), Since::Rebuild);
        assert_eq!(
            m.remap_since(0),
            Err(ModelError::Remapped {
                model: 2,
                synced: 0
            })
        );
        assert!(m.remap_since(3).is_err(), "a count from the future");
        assert!(m.remap_since(u64::MAX).is_err());

        // Divergent clones of one lineage: one revision with two contents
        // (in both directions — `a` covers every count `b` saw), and fewer
        // claims than the sync point saw at a later revision.
        let mut a = base.clone();
        grow_claim(&mut a);
        let mut b = base.clone();
        grow_clique(&mut b);
        assert_eq!(a.revision(), b.revision());
        assert_eq!(a.since(b.sync_point()), Since::Rebuild);
        assert_eq!(b.since(a.sync_point()), Since::Rebuild);
        grow_clique(&mut b);
        assert_eq!(b.since(a.sync_point()), Since::Rebuild);
    }

    #[test]
    fn compact_of_everything_dead_is_rejected() {
        let mut m = tiny_model();
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(0));
        set.retire_claim(VarId(1));
        m.retire(set).unwrap();
        assert!(matches!(m.compact(), Err(ModelError::Empty)));
        // The failed compact left the tombstoned model intact.
        assert_eq!(m.n_claims(), 2);
        assert!(m.has_tombstones());
    }

    #[test]
    fn grow_after_compact_stays_canonical() {
        let mut m = tiny_model();
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(0));
        m.retire(set).unwrap();
        m.compact().unwrap();
        let mut delta = ModelDelta::for_model(&m);
        let c = delta.add_claim();
        let d = delta.add_document(&[0.7]).unwrap();
        delta.add_clique(c, d, 0, Stance::Refute);
        delta.add_clique(VarId(0), d, 1, Stance::Support);
        m.apply(delta).unwrap();

        let mut b = ModelDelta::new(1, 1);
        b.add_source(&[0.9]).unwrap();
        b.add_source(&[0.1]).unwrap();
        let c0 = b.add_claim();
        let c1 = b.add_claim();
        let d0 = b.add_document(&[0.5]).unwrap();
        b.add_clique(c0, d0, 0, Stance::Support);
        let d1 = b.add_document(&[0.7]).unwrap();
        b.add_clique(c1, d1, 0, Stance::Refute);
        b.add_clique(c0, d1, 1, Stance::Support);
        test_support::assert_same_content(&m, &CrfModel::build(b).unwrap());
    }

    #[test]
    fn serde_keeps_lifecycle_state() {
        let mut m = tiny_model();
        let before = m.sync_point();
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(1));
        m.retire(set).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: CrfModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.revision(), m.revision());
        assert_eq!(back.sync_point(), m.sync_point());
        assert!(matches!(
            back.since(before),
            Since::Patch { retired: true, .. }
        ));
        assert!(!back.claim_live(1));
        assert_eq!(back.n_live_claims_of_source(0), 1);
        assert_eq!(back.ingested_claims(), 2);
    }

    /// The tentpole spec at the model layer: any interleaved grow/retire
    /// script, compacted, equals a one-shot build of the survivors in
    /// original insertion order — on fixed seeds and under proptest.
    #[test]
    fn lifecycle_compact_matches_survivors_build() {
        for seed in 0..24u64 {
            let ops = test_support::random_lifecycle_script(seed, 2 + (seed as usize % 7));
            let (mut model, sim) = test_support::replay_lifecycle(&ops);
            let (expect, claim_map) = sim.build_survivors();
            let remap = model.compact().unwrap();
            test_support::assert_same_content(&model, &expect);
            for (old, &new) in claim_map.iter().enumerate() {
                let got = remap.claim(VarId(old as u32));
                if new == u32::MAX {
                    assert_eq!(got, None, "seed {seed} claim {old}");
                } else {
                    assert_eq!(got, Some(VarId(new)), "seed {seed} claim {old}");
                }
            }
        }
    }

    /// Tombstone invariants hold mid-script: live counts match bitmaps,
    /// per-source live-claim counts match a direct recount.
    #[test]
    fn lifecycle_live_counts_are_consistent() {
        for seed in 100..112u64 {
            let ops = test_support::random_lifecycle_script(seed, 6);
            let (model, sim) = test_support::replay_lifecycle(&ops);
            assert_eq!(model.n_claims(), sim.claims);
            assert_eq!(
                model.n_live_claims(),
                sim.claim_live.iter().filter(|&&l| l).count(),
                "seed {seed}"
            );
            assert_eq!(model.n_live_cliques(), sim.n_live_cliques(), "seed {seed}");
            for s in 0..model.n_sources() as u32 {
                let direct = model
                    .claims_of_source(s)
                    .iter()
                    .filter(|&&c| model.claim_live(c as usize))
                    .count();
                assert_eq!(
                    model.n_live_claims_of_source(s),
                    direct,
                    "seed {seed} source {s}"
                );
            }
            for (i, cl) in model.cliques().iter().enumerate() {
                assert_eq!(
                    model.clique_live(i),
                    model.claim_live(cl.claim.idx()) && model.source_live(cl.source as usize),
                    "seed {seed} clique {i}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Proptest form of the compaction spec over random interleaved
        /// grow/retire scripts.
        #[test]
        fn prop_lifecycle_compact_matches_survivors(seed in 0u64..250, ops in 2usize..8) {
            let ops = test_support::random_lifecycle_script(seed ^ 0xbead, ops);
            let (mut model, sim) = test_support::replay_lifecycle(&ops);
            let (expect, _) = sim.build_survivors();
            test_support::assert_matches_nested_reference(&model);
            model.compact().unwrap();
            test_support::assert_same_content(&model, &expect);
            test_support::assert_matches_nested_reference(&model);
            test_support::assert_matches_nested_reference(&expect);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        /// The cross-consumer spec of [`CrfModel::since`]: catching a
        /// stale per-claim structure up across an arbitrary slice of the
        /// lifecycle — several accumulated edits, growth before a
        /// compaction, a retire on either side of it, or two compactions
        /// that outrun the single retained remap — always lands on exactly
        /// the state kept edit by edit. The structure holds each claim's
        /// ingest ordinal (`None` once dead): it keeps what it saw under
        /// [`Since::Patch`], moves it through the remap under
        /// [`Since::Relocate`], takes only unseen claims from the edit-by-
        /// edit record, and starts over under [`Since::Rebuild`], which
        /// must only answer two compactions in one gap.
        #[test]
        fn prop_since_catch_up_matches_batch(
            seed in 0u64..300,
            n_ops in 3usize..24,
            stride in 1usize..7,
        ) {

            // Edits are generated against the *current* model (ids stay
            // valid across mid-script compactions), xorshift-driven.
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };

            let mut b = ModelDelta::new(1, 1);
            let s0 = b.add_source(&[0.1]).unwrap();
            let s1 = b.add_source(&[0.2]).unwrap();
            let claims: Vec<_> = (0..3).map(|_| b.add_claim()).collect();
            for (i, &c) in claims.iter().enumerate() {
                let d = b.add_document(&[0.0]).unwrap();
                b.add_clique(c, d, if i % 2 == 0 { s0 } else { s1 }, Stance::Support);
            }
            let mut model = CrfModel::build(b).unwrap();
            // `keys`: every claim's ingest ordinal, kept edit by edit;
            // `held`: the same, caught up only at sync points.
            let mut keys: Vec<Option<u64>> = (0..3).map(Some).collect();
            let mut next_key = 3u64;
            let mut held = keys.clone();
            let mut held_at = model.sync_point();
            let mut held_compactions = model.compactions();

            for i in 0..n_ops {
                match rng() % 4 {
                    0 | 1 => {
                        let mut delta = ModelDelta::for_model(&model);
                        let s = delta.add_source(&[(rng() % 7) as f64 / 7.0]).unwrap();
                        for _ in 0..(1 + rng() % 3) {
                            let c = delta.add_claim();
                            let d = delta.add_document(&[0.0]).unwrap();
                            delta.add_clique(c, d, s, Stance::Support);
                            if rng() % 2 == 0 {
                                // Also cite from an existing live source so
                                // growth can merge old components.
                                let live: Vec<u32> = (0..model.n_sources() as u32)
                                    .filter(|&x| model.source_live(x as usize))
                                    .collect();
                                if !live.is_empty() {
                                    let es = live[rng() as usize % live.len()];
                                    let d2 = delta.add_document(&[0.5]).unwrap();
                                    delta.add_clique(c, d2, es, Stance::Refute);
                                }
                            }
                        }
                        model.apply(delta).unwrap();
                        while keys.len() < model.n_claims() {
                            keys.push(Some(next_key));
                            next_key += 1;
                        }
                    }
                    2 => {
                        let mut set = RetireSet::for_model(&model);
                        let mut any = false;
                        let live_claims: Vec<u32> = (0..model.n_claims() as u32)
                            .filter(|&c| model.claim_live(c as usize))
                            .collect();
                        if !live_claims.is_empty() && rng() % 2 == 0 {
                            set.retire_claim(VarId(
                                live_claims[rng() as usize % live_claims.len()],
                            ));
                            any = true;
                        }
                        let live_sources: Vec<u32> = (0..model.n_sources() as u32)
                            .filter(|&s| model.source_live(s as usize))
                            .collect();
                        if live_sources.len() > 1 && rng() % 3 == 0 {
                            set.retire_source(
                                live_sources[rng() as usize % live_sources.len()],
                            );
                            any = true;
                        }
                        if any {
                            model.retire(set).unwrap();
                            for (c, key) in keys.iter_mut().enumerate() {
                                if !model.claim_live(c) {
                                    *key = None;
                                }
                            }
                        }
                    }
                    _ => {
                        // With `stride` > 1 two of these can land between
                        // syncs, exercising the outrun fallback. A compact
                        // that would leave no clique is refused and the
                        // tombstoned model kept.
                        match model.compact() {
                            Ok(remap) => {
                                let mut moved = vec![None; remap.n_new_claims()];
                                for (c, &key) in keys.iter().enumerate() {
                                    if let Some(nc) = remap.claim(VarId(c as u32)) {
                                        moved[nc.idx()] = key;
                                    }
                                }
                                keys = moved;
                            }
                            Err(ModelError::Empty) => {}
                            Err(e) => panic!("compact failed: {e}"),
                        }
                    }
                }
                if i % stride == stride - 1 || i == n_ops - 1 {
                    let n = model.n_claims();
                    let retired = match model.since(held_at) {
                        Since::Unchanged => false,
                        Since::Patch { retired } => {
                            let seen = held.len();
                            held.extend_from_slice(&keys[seen..n]);
                            retired
                        }
                        Since::Relocate { remap, retired } => {
                            let mut moved = vec![None; n];
                            let mut seen = vec![false; n];
                            for (c, &key) in held.iter().enumerate() {
                                if let Some(nc) = remap.claim(VarId(c as u32)) {
                                    moved[nc.idx()] = key;
                                    seen[nc.idx()] = true;
                                }
                            }
                            for c in (0..n).filter(|&c| !seen[c]) {
                                moved[c] = keys[c];
                            }
                            held = moved;
                            retired
                        }
                        Since::Rebuild => {
                            proptest::prop_assert!(model.compactions() >= held_compactions + 2);
                            held = keys.clone();
                            false
                        }
                    };
                    if retired {
                        for (c, key) in held.iter_mut().enumerate() {
                            if !model.claim_live(c) {
                                *key = None;
                            }
                        }
                    }
                    proptest::prop_assert_eq!(&held, &keys);
                    held_at = model.sync_point();
                    held_compactions = model.compactions();
                }
            }
        }
    }
}
