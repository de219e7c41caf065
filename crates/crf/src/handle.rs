//! Shared, versioned access to a growable [`CrfModel`].
//!
//! The pre-redesign API shared an immutable `Arc<CrfModel>` between the
//! inference engine, the validation process, and the streaming checker —
//! nothing could grow the factor graph at runtime without a full rebuild
//! that invalidated every model-keyed cache. [`ModelHandle`] replaces that
//! plumbing: one handle per model lineage, cloned freely across components,
//! with
//!
//! * **cheap consistent reads** — [`ModelHandle::snapshot`] hands out an
//!   `Arc<CrfModel>` pinned at the current revision. A snapshot never
//!   changes under its holder; it is the "revision-checked read view" the
//!   engine runs a whole E/M-step against.
//! * **in-place growth** — [`ModelHandle::apply`] splices a [`ModelDelta`]
//!   into the live model ([`CrfModel::apply`]) and bumps the
//!   [`Revision`]. When no snapshot from an older revision is still alive,
//!   the growth is truly in place (no copy); if one is, the model is cloned
//!   once so the old snapshot stays valid — readers are never torn.
//! * **revision-keyed cache patching** — holders compare
//!   [`ModelHandle::revision`] against the revision they last synced and
//!   patch their state (training set, probability vectors) forward
//!   instead of rebuilding, and recompute the cheap per-snapshot
//!   structures (partition, claim evidence); see
//!   the contract in the [`crate::graph`] module docs.
//!
//! Locking discipline: the internal `RwLock` is held only for the duration
//! of a pointer clone (reads) or one `CrfModel::apply` (writes) — never
//! across an inference call — so handle users cannot deadlock against the
//! sampler.

use crate::graph::{CrfModel, IdRemap, ModelDelta, ModelEdit, ModelError, RetireSet, Revision};
#[cfg(loom)]
use loom::sync::RwLock;
use std::sync::Arc;
#[cfg(not(loom))]
use std::sync::RwLock;

/// A cloneable, versioned handle to one growable model lineage.
///
/// Obtain read views with [`Self::snapshot`], grow the model with
/// [`Self::apply`], and key caches on `(model_id, revision)`.
#[derive(Clone)]
pub struct ModelHandle {
    model: Arc<RwLock<Arc<CrfModel>>>,
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.snapshot();
        f.debug_struct("ModelHandle")
            .field("model_id", &m.model_id())
            .field("revision", &m.revision())
            .field("n_claims", &m.n_claims())
            .finish()
    }
}

impl ModelHandle {
    /// Wrap a freshly built model into a shareable handle.
    pub fn new(model: CrfModel) -> Self {
        ModelHandle::adopt(Arc::new(model))
    }

    fn adopt(model: Arc<CrfModel>) -> Self {
        ModelHandle {
            model: Arc::new(RwLock::new(model)),
        }
    }

    /// The model slot, write-locked for one edit.
    fn write(&self) -> impl std::ops::DerefMut<Target = Arc<CrfModel>> + '_ {
        self.model.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The current model state, pinned: the returned `Arc` keeps pointing
    /// at this revision even while the handle grows past it.
    pub fn snapshot(&self) -> Arc<CrfModel> {
        self.model.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The lineage id shared by every revision of this handle's model.
    pub fn model_id(&self) -> u64 {
        self.snapshot().model_id()
    }

    /// The current revision (bumped by every non-empty [`Self::apply`]).
    pub fn revision(&self) -> Revision {
        self.snapshot().revision()
    }

    /// Start an empty [`ModelDelta`] against the current revision. If
    /// another delta lands before this one is applied, [`Self::apply`]
    /// rejects it with [`ModelError::StaleDelta`] instead of corrupting the
    /// graph.
    pub fn delta(&self) -> ModelDelta {
        ModelDelta::for_model(&self.snapshot())
    }

    /// Grow the model in place, returning the new revision. Errors leave
    /// the model untouched; see [`CrfModel::apply`] for the validation
    /// rules. Snapshots taken before the call keep observing the old
    /// revision.
    pub fn apply(&self, delta: ModelDelta) -> Result<Revision, ModelError> {
        Arc::make_mut(&mut self.write()).apply(delta)
    }

    /// Start an empty [`RetireSet`] against the current revision. Like
    /// [`Self::delta`], it is revision-checked at apply time: if any other
    /// edit lands first, [`Self::retire`] rejects it with
    /// [`ModelError::StaleDelta`].
    pub fn retire_set(&self) -> RetireSet {
        RetireSet::for_model(&self.snapshot())
    }

    /// Tombstone the set's claims and sources in place, returning the new
    /// revision. Errors leave the model untouched; see [`CrfModel::retire`]
    /// for the validation rules. Snapshots taken before the call keep
    /// observing the old revision (the model is cloned once when pinned
    /// snapshots are outstanding, exactly like [`Self::apply`]).
    pub fn retire(&self, set: RetireSet) -> Result<Revision, ModelError> {
        Arc::make_mut(&mut self.write()).retire(set)
    }

    /// Apply one lifecycle edit ([`ModelEdit`]) — the uniform,
    /// revision-checked entry point over [`Self::apply`],
    /// [`Self::retire`], and (via the compact marker) [`Self::compact`].
    /// Unlike [`Self::compact`], the compact marker is revision-checked:
    /// it is refused with [`ModelError::StaleDelta`] unless the model sits
    /// at exactly its base.
    pub fn edit(&self, edit: impl Into<ModelEdit>) -> Result<Revision, ModelError> {
        match edit.into() {
            ModelEdit::Grow(delta) => self.apply(delta),
            ModelEdit::Retire(set) => self.retire(set),
            ModelEdit::Compact {
                base_model_id,
                base_revision,
            } => self
                .compact_checked(Some((base_model_id, base_revision)))
                .map(|(_, rev)| rev),
        }
    }

    /// Compact the model to the canonical layout of its surviving
    /// subgraph, returning the published [`IdRemap`]; see
    /// [`CrfModel::compact`]. Snapshots taken before the call keep
    /// observing the tombstoned (pre-compaction) layout — readers are
    /// never torn; they relocate when they next sync.
    pub fn compact(&self) -> Result<IdRemap, ModelError> {
        self.compact_checked(None).map(|(remap, _)| remap)
    }

    /// The shared compact path, optionally revision-checked (the
    /// [`ModelEdit::Compact`] marker).
    fn compact_checked(
        &self,
        check: Option<(u64, u64)>,
    ) -> Result<(IdRemap, Revision), ModelError> {
        let mut guard = self.write();
        if let Some((base_model_id, base_revision)) = check {
            if base_model_id != guard.model_id() || base_revision != guard.revision().0 {
                return Err(ModelError::StaleDelta {
                    delta_model_id: base_model_id,
                    delta_revision: base_revision,
                    model_id: guard.model_id(),
                    model_revision: guard.revision().0,
                });
            }
        }
        let remap = Arc::make_mut(&mut guard).compact()?;
        Ok((remap, guard.revision()))
    }
}

impl From<CrfModel> for ModelHandle {
    fn from(model: CrfModel) -> Self {
        ModelHandle::new(model)
    }
}

impl From<Arc<CrfModel>> for ModelHandle {
    /// Adopt an existing shared model as revision-0 content of a handle.
    /// The `Arc` is reused as the initial snapshot; the first growth clones
    /// the model only if the caller still holds the original `Arc`.
    ///
    /// **Each conversion mints an independent handle.** Passing
    /// `arc.clone()` to two components gives each its own lineage: growth
    /// applied through one is invisible to the other, and both advance
    /// revisions under the same `model_id` (see the divergent-clone caveat
    /// on [`CrfModel::apply`]). When components must observe each other's
    /// growth — an ingester feeding a validation process — convert once
    /// and pass **clones of the `ModelHandle`** instead.
    fn from(model: Arc<CrfModel>) -> Self {
        ModelHandle::adopt(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrfModel, ModelDelta, Stance, VarId};

    fn handle() -> ModelHandle {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.5]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.5]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        ModelHandle::new(CrfModel::build(b).unwrap())
    }

    #[test]
    fn clones_share_growth() {
        let h = handle();
        let h2 = h.clone();
        let mut delta = h.delta();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.1]).unwrap();
        delta.add_clique(c, d, 0, Stance::Refute);
        let rev = h.apply(delta).unwrap();
        assert_eq!(rev, Revision(1));
        assert_eq!(h2.revision(), Revision(1), "clone observes the growth");
        assert_eq!(h2.snapshot().n_claims(), 2);
        assert_eq!(h.model_id(), h2.model_id());
    }

    #[test]
    fn snapshots_are_pinned_at_their_revision() {
        let h = handle();
        let old = h.snapshot();
        let mut delta = h.delta();
        delta.add_claim();
        h.apply(delta).unwrap();
        assert_eq!(old.revision(), Revision(0));
        assert_eq!(old.n_claims(), 1, "old snapshot untouched by growth");
        assert_eq!(h.snapshot().n_claims(), 2);
        assert_eq!(h.snapshot().model_id(), old.model_id());
    }

    #[test]
    fn stale_delta_is_rejected_across_the_handle() {
        let h = handle();
        let stale = h.delta();
        let mut first = h.delta();
        first.add_claim();
        h.apply(first).unwrap();
        let mut stale = stale;
        stale.add_claim();
        assert!(matches!(h.apply(stale), Err(ModelError::StaleDelta { .. })));
        assert_eq!(h.revision(), Revision(1));
    }

    #[test]
    fn retire_and_compact_through_the_handle() {
        let h: ModelHandle = crate::graph::test_support::random_model(8, 3, 2, 5).into();
        let pinned = h.snapshot();
        let mut set = h.retire_set();
        set.retire_claim(VarId(2));
        assert_eq!(h.retire(set).unwrap(), Revision(1));
        assert!(!h.snapshot().claim_live(2));
        assert!(
            pinned.claim_live(2),
            "pinned snapshot observes no tombstone"
        );

        let stale = h.retire_set();
        let remap = h.compact().unwrap();
        assert_eq!(remap.claim(VarId(2)), None);
        assert_eq!(h.snapshot().n_claims(), 7);
        assert_eq!(pinned.n_claims(), 8, "pinned snapshot keeps the old layout");
        // A retire set prepared before the compaction is stale.
        let mut stale = stale;
        stale.retire_claim(VarId(0));
        assert!(matches!(
            h.retire(stale),
            Err(ModelError::StaleDelta { .. })
        ));
    }

    /// Structural invariants a torn write would violate; checked by the
    /// contention proptest on every concurrently taken snapshot.
    fn assert_invariants(m: &crate::graph::CrfModel) {
        assert_eq!(m.n_incidences(), m.cliques().len());
        let mut incidences = 0;
        for c in 0..m.n_claims() {
            let v = VarId(c as u32);
            let (lo, hi) = m.claim_clique_span(c);
            assert!(lo <= hi && hi <= m.n_incidences());
            let cliques = m.cliques_of(v);
            let sources = m.clique_sources_of(v);
            assert_eq!(cliques.len(), sources.len());
            for (&ci, &s) in cliques.iter().zip(sources) {
                let cl = &m.cliques()[ci as usize];
                assert_eq!(cl.claim, v, "claim-major row points at a foreign clique");
                assert_eq!(cl.source, s, "parallel source array out of step");
            }
            incidences += cliques.len();
        }
        assert_eq!(incidences, m.n_incidences());
        let mut live = 0;
        for s in 0..m.n_sources() as u32 {
            let row = m.claims_of_source(s);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted-dedup");
            let recount = row.iter().filter(|&&c| m.claim_live(c as usize)).count();
            assert_eq!(m.n_live_claims_of_source(s), recount);
            live += recount;
        }
        let _ = live;
        assert_eq!(
            m.n_live_claims(),
            (0..m.n_claims()).filter(|&c| m.claim_live(c)).count()
        );
    }

    /// One edit kind a racer can prepare up front.
    enum Edit {
        Grow(crate::graph::ModelDelta),
        Retire(crate::graph::RetireSet),
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// Contention spec: racers prepare edits (grow or retire) against
        /// one revision and apply them concurrently while readers hold and
        /// take snapshot pins. Exactly one racer wins per round,
        /// [`ModelError::StaleDelta`] fires on every loser, no snapshot is
        /// ever torn, and pinned snapshots keep their pre-round content.
        #[test]
        fn prop_concurrent_pins_and_edits_never_tear(
            seed in 0u64..1000,
            racers in 2usize..5,
            rounds in 1usize..4,
        ) {
            let h: ModelHandle =
                crate::graph::test_support::random_model(24, 6, 2, seed).into();
            for round in 0..rounds {
                let start_rev = h.revision();
                let pinned = h.snapshot();
                let pinned_claims = pinned.n_claims();
                let edits: Vec<Edit> = (0..racers)
                    .map(|i| {
                        if (i + round) % 2 == 0 {
                            let mut d = h.delta();
                            let c = d.add_claim();
                            let doc = d.add_document(&[0.1, 0.9]).unwrap();
                            d.add_clique(c, doc, 0, Stance::Support);
                            Edit::Grow(d)
                        } else {
                            let victim = (0..pinned.n_claims() as u32)
                                .find(|&c| c != 0 && pinned.claim_live(c as usize))
                                .expect("a live claim to retire");
                            let mut set = h.retire_set();
                            set.retire_claim(VarId(victim));
                            Edit::Retire(set)
                        }
                    })
                    .collect();

                let results: Vec<Result<Revision, ModelError>> = std::thread::scope(|s| {
                    let readers: Vec<_> = (0..2)
                        .map(|_| {
                            let h = h.clone();
                            s.spawn(move || {
                                for _ in 0..8 {
                                    assert_invariants(&h.snapshot());
                                }
                            })
                        })
                        .collect();
                    let writers: Vec<_> = edits
                        .into_iter()
                        .map(|e| {
                            let h = h.clone();
                            s.spawn(move || match e {
                                Edit::Grow(d) => h.apply(d),
                                Edit::Retire(set) => h.retire(set),
                            })
                        })
                        .collect();
                    for r in readers {
                        r.join().unwrap();
                    }
                    writers.into_iter().map(|t| t.join().unwrap()).collect()
                });

                let winners = results.iter().filter(|r| r.is_ok()).count();
                proptest::prop_assert_eq!(winners, 1, "exactly one racer must win");
                for r in &results {
                    if let Err(e) = r {
                        proptest::prop_assert!(
                            matches!(e, ModelError::StaleDelta { .. }),
                            "loser failed with {e:?}, not StaleDelta"
                        );
                    }
                }
                proptest::prop_assert_eq!(h.revision(), Revision(start_rev.0 + 1));
                // Pinned snapshot is untouched by the round's winner.
                proptest::prop_assert_eq!(pinned.revision(), start_rev);
                proptest::prop_assert_eq!(pinned.n_claims(), pinned_claims);
                assert_invariants(&pinned);
                assert_invariants(&h.snapshot());
            }
        }
    }

    #[test]
    fn from_arc_adopts_shared_model() {
        let m = handle().snapshot();
        let h = ModelHandle::from(m.clone());
        assert_eq!(h.model_id(), m.model_id());
        let mut delta = h.delta();
        delta.add_claim();
        h.apply(delta).unwrap();
        // The externally held Arc keeps the pre-adoption content.
        assert_eq!(m.n_claims(), 1);
        assert_eq!(h.snapshot().n_claims(), 2);
        assert_eq!(h.snapshot().cliques_of(VarId(0)).len(), 1);
    }
}
