//! Long-lived query cursors vs compaction: relocate or refuse.
//!
//! A cursor holds claim ids. Ids are stable across growth and retirement
//! but a [`crf::CrfModel::compact`] renumbers every survivor, so a cursor
//! that sleeps across a compaction would silently address *different
//! claims* if it kept iterating raw ids. [`ClaimCursor`] therefore keys
//! its ids to the compaction count of the published state it last
//! validated against and revalidates on every [`ClaimCursor::next`]:
//!
//! * **same compaction count** — serve directly;
//! * **exactly one compaction elapsed**, and the published remap covers
//!   the cursor's id space — relocate every remaining id through the
//!   remap (claims the compaction dropped are counted in
//!   [`ClaimCursor::dropped`] and skipped) and continue;
//! * **anything else** — refuse with [`QueryError::Remapped`]: only the
//!   latest remap is retained, so provenance is lost and the only safe
//!   answer is "re-resolve your ids". The cursor never yields data for a
//!   claim other than the one its creator named.
//!
//! This mirrors the ingest-side `SyncMap`/`IdRemap` machinery
//! (`factdb::SyncMap::catch_up`) on the query path.

use crate::publish::Published;
use crate::query::{answer_one, QueryError, Staleness, TruthAnswer};
use crf::VarId;

/// A relocatable iterator over a fixed set of claims, robust to the model
/// compacting mid-iteration. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct ClaimCursor {
    /// Model lineage the ids belong to.
    model_id: u64,
    /// Compaction count the ids are currently valid against.
    compactions: u64,
    /// Remaining claims to serve, in the id space of `compactions`.
    claims: Vec<VarId>,
    /// Next index into `claims`.
    pos: usize,
    /// Claims lost to relocation (compacted away before being served).
    dropped: usize,
}

impl ClaimCursor {
    /// A cursor over `claims`, whose ids live in `state`'s id space.
    pub fn new(state: &Published, claims: Vec<VarId>) -> Self {
        ClaimCursor {
            model_id: state.model_id,
            compactions: state.compactions,
            claims,
            pos: 0,
            dropped: 0,
        }
    }

    /// Serve the next claim from `state` (the published state to answer
    /// from — typically a fresh [`crate::QueryHandle::snapshot`]).
    /// Relocates the remaining ids first if `state` is one compaction
    /// ahead; refuses with [`QueryError::Remapped`] if it cannot translate
    /// (see module docs). `Ok(None)` once exhausted. Tombstoned claims are
    /// served with `live: false`, not skipped — the caller asked about
    /// them and deserves the truthful answer.
    pub fn next(&mut self, state: &Published) -> Result<Option<CursorAnswer>, QueryError> {
        if state.model_id != self.model_id {
            return Err(QueryError::WrongLineage {
                expected: self.model_id,
                found: state.model_id,
            });
        }
        if state.compactions != self.compactions {
            self.relocate(state)?;
        }
        match self.claims.get(self.pos) {
            None => Ok(None),
            Some(&claim) => {
                self.pos += 1;
                Ok(Some(CursorAnswer {
                    answer: answer_one(state, claim),
                    at: Staleness::of(state),
                }))
            }
        }
    }

    /// Claims lost to compaction relocations so far (dropped before they
    /// could be served).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Remaining claims, in the id space of the last validated state.
    pub fn remaining(&self) -> &[VarId] {
        &self.claims[self.pos.min(self.claims.len())..]
    }

    /// Re-point the remaining ids at `state`'s numbering, or refuse.
    fn relocate(&mut self, state: &Published) -> Result<(), QueryError> {
        let refuse = QueryError::Remapped {
            synced: self.compactions,
            current: state.compactions,
        };
        // One compaction forward, with a remap wide enough to cover the
        // cursor's id space — everything else is untranslatable: a remap
        // chain is not retained, and a *smaller* count means the caller
        // fed an older snapshot than the cursor already validated against.
        let Some(remap) = state
            .remap_since(self.compactions)
            .map_err(|_| refuse.clone())?
        else {
            return Ok(());
        };
        let max_id = self.claims[self.pos..].iter().map(|c| c.idx() + 1).max();
        if max_id.is_some_and(|m| m > remap.n_old_claims()) {
            return Err(refuse);
        }
        let before = self.claims.len() - self.pos;
        let relocated: Vec<VarId> = self.claims[self.pos..]
            .iter()
            .filter_map(|&c| remap.claim(c))
            .collect();
        self.dropped += before - relocated.len();
        self.claims = relocated;
        self.pos = 0;
        self.compactions = state.compactions;
        Ok(())
    }
}

/// One cursor step: the claim's truth answer plus the staleness tag of
/// the published state that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CursorAnswer {
    /// The claim's answer, in the served state's id space.
    pub answer: TruthAnswer,
    /// Which published state produced it.
    pub at: Staleness,
}
