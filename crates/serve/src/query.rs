//! The reader side: staleness-tagged query execution over the published
//! state.
//!
//! Every answer carries the [`Staleness`] tag of the exact published state
//! it was computed from. The serving contract is **stale-bounded
//! bit-reproducibility**: an answer may lag the ingest path by at most the
//! publication cadence (see [`crate::server::PublishPolicy`]), and given
//! the published state its tag names, the answer is bit-identical to an
//! offline recomputation from that state — `truth` returns
//! `probs[claim]`, `source_trust` returns the published trust table entry
//! (itself bit-identical to `source_trust_from_probs` on the published
//! revision's model and `probs`), and `top_k_uncertain` orders by the
//! binary entropy of `probs` with a deterministic tie-break.
//!
//! Every query is a read of the published tables alone: batched queries
//! answer each claim in input order from the one pinned state.

use crate::cursor::ClaimCursor;
use crate::publish::{PublishCell, Published};
use crf::graph::Revision;
use crf::VarId;
use std::sync::Arc;

/// How stale an answer is: the identity of the published state it was
/// computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staleness {
    /// Model revision of the published state.
    pub revision: Revision,
    /// Compaction count of the published state (cursors key on this).
    pub compactions: u64,
    /// Arrivals the ingest path had processed at publication.
    pub arrivals: usize,
}

impl Staleness {
    /// The tag of `state`.
    pub fn of(state: &Published) -> Self {
        Staleness {
            revision: state.revision,
            compactions: state.compactions,
            arrivals: state.arrivals,
        }
    }
}

/// A query result tagged with the published state it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer<T> {
    /// The result.
    pub value: T,
    /// Which published state produced it.
    pub at: Staleness,
}

/// One claim's truth-probability answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthAnswer {
    /// The claim asked about, in the published state's id space.
    pub claim: VarId,
    /// Whether the claim is live in the published state. Out-of-range and
    /// tombstoned claims answer `live: false` rather than erroring — a
    /// reader racing a retirement gets a truthful "out of service".
    pub live: bool,
    /// The published credibility estimate (0.5 for claims that never
    /// arrived; 0.0 for claims out of service).
    pub probability: f64,
}

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A cursor's claim ids are keyed to a compaction count the published
    /// state cannot translate: more than one compaction elapsed (only the
    /// latest remap is retained), or the cursor outpaced the snapshot it
    /// was handed. The holder must re-resolve its ids from a fresh
    /// snapshot; serving anyway could address a *renumbered* claim.
    Remapped {
        /// Compaction count the cursor's ids are valid against.
        synced: u64,
        /// Compaction count of the published state.
        current: u64,
    },
    /// The published state belongs to a different model lineage.
    WrongLineage {
        /// Lineage id the cursor was created against.
        expected: u64,
        /// Lineage id of the published state.
        found: u64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Remapped { synced, current } => write!(
                f,
                "cursor ids synced to compaction {synced} cannot be relocated \
                 to published compaction {current}"
            ),
            QueryError::WrongLineage { expected, found } => write!(
                f,
                "cursor keyed to model lineage {expected} served lineage {found}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A cloneable, `Send + Sync` reader handle over one server's published
/// state. Obtain from [`crate::server::TruthServer::reader`]; clone freely
/// into query threads. Every method loads the current published state
/// once and answers entirely from it.
#[derive(Clone)]
pub struct QueryHandle {
    cell: Arc<PublishCell>,
}

impl QueryHandle {
    /// Wrap a publication cell. Internal to the crate; readers come from
    /// [`crate::server::TruthServer::reader`].
    pub(crate) fn new(cell: Arc<PublishCell>) -> Self {
        QueryHandle { cell }
    }

    /// Pin the current published state. All query methods are convenience
    /// wrappers over answering from one such pin.
    pub fn snapshot(&self) -> Arc<Published> {
        self.cell.load()
    }

    /// Truth probability of one claim, from the current published state.
    pub fn truth(&self, claim: VarId) -> Answer<TruthAnswer> {
        let state = self.snapshot();
        Answer {
            value: answer_one(&state, claim),
            at: Staleness::of(&state),
        }
    }

    /// Truth probabilities for a batch of claims, answered in input order
    /// from one published state. Duplicate and dead claims are fine; dead
    /// claims answer `live: false`.
    pub fn truth_batch(&self, claims: &[VarId]) -> Answer<Vec<TruthAnswer>> {
        let state = self.snapshot();
        Answer {
            value: claims.iter().map(|&c| answer_one(&state, c)).collect(),
            at: Staleness::of(&state),
        }
    }

    /// The `k` most uncertain live claims — descending binary entropy of
    /// the published credibility, ties broken by ascending claim id — with
    /// their entropies. Deterministic for a given published state.
    pub fn top_k_uncertain(&self, k: usize) -> Answer<Vec<(VarId, f64)>> {
        let state = self.snapshot();
        let mut scored: Vec<(VarId, f64)> = (0..state.probs.len())
            .filter(|&c| state.claim_live(c))
            .map(|c| (VarId(c as u32), binary_entropy(state.probs[c])))
            .collect();
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
        scored.truncate(k);
        Answer {
            value: scored,
            at: Staleness::of(&state),
        }
    }

    /// The published trust of one source (`None` when the source is out of
    /// range or out of service). The value is the published trust-table
    /// entry: bit-identical to `source_trust_from_probs` on the published
    /// revision's model and `probs`.
    pub fn source_trust(&self, source: u32) -> Answer<Option<f64>> {
        let state = self.snapshot();
        let value = state
            .source_live(source as usize)
            .then(|| state.trust[source as usize]);
        Answer {
            value,
            at: Staleness::of(&state),
        }
    }

    /// Open a cursor over `claims` (ids in the current published state's
    /// space), pinned to that state's compaction count. The cursor
    /// revalidates against the then-current published state on every
    /// [`ClaimCursor::next`], relocating its remaining ids when exactly
    /// one compaction elapsed and refusing with [`QueryError::Remapped`]
    /// when it cannot translate — never serving a renumbered claim.
    pub fn cursor(&self, claims: Vec<VarId>) -> ClaimCursor {
        ClaimCursor::new(&self.snapshot(), claims)
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("QueryHandle")
            .field("revision", &s.revision)
            .field("arrivals", &s.arrivals)
            .finish()
    }
}

/// Answer one claim from one published state — the shared primitive of
/// [`QueryHandle::truth`], [`QueryHandle::truth_batch`], and the cursor.
pub(crate) fn answer_one(state: &Published, claim: VarId) -> TruthAnswer {
    let live = state.claim_live(claim.idx());
    TruthAnswer {
        claim,
        live,
        probability: if live { state.probs[claim.idx()] } else { 0.0 },
    }
}

/// Binary entropy of `p` in bits; 0 at the deterministic endpoints.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}
