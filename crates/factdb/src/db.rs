//! The fact-database container and its conversion to a CRF model.

use crate::features;
use crate::model::{ClaimId, ClaimRecord, DocId, DocumentRecord, SourceId, SourceRecord};
use crf::{CrfModel, ModelDelta, ModelError};
use serde::{Deserialize, Serialize};

/// The concrete `<S, D, C>` part of a probabilistic fact database; the
/// credibility model `P` lives in the inference engine (`factcheck` crate).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FactDatabase {
    sources: Vec<SourceRecord>,
    documents: Vec<DocumentRecord>,
    claims: Vec<ClaimRecord>,
}

/// Referential-integrity error when adding a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The document references a source that has not been added.
    UnknownSource(SourceId),
    /// The document references a claim that has not been added.
    UnknownClaim(ClaimId),
    /// The document references no claims at all.
    NoClaims,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::UnknownSource(s) => write!(f, "unknown source {:?}", s),
            DbError::UnknownClaim(c) => write!(f, "unknown claim {:?}", c),
            DbError::NoClaims => write!(f, "document references no claims"),
        }
    }
}

impl std::error::Error for DbError {}

/// Corpus statistics, comparable to the dataset table in §8.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of sources.
    pub n_sources: usize,
    /// Number of documents.
    pub n_documents: usize,
    /// Number of claims.
    pub n_claims: usize,
    /// Mean number of documents referencing a claim.
    pub docs_per_claim: f64,
    /// Mean number of distinct claims per source.
    pub claims_per_source: f64,
    /// Fraction of document–claim links with a refuting stance.
    pub refute_fraction: f64,
    /// Fraction of claims whose ground truth is credible.
    pub true_fraction: f64,
}

impl FactDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a source, returning its id.
    pub fn add_source(&mut self, source: SourceRecord) -> SourceId {
        self.sources.push(source);
        SourceId(self.sources.len() as u32 - 1)
    }

    /// Register a claim, returning its id.
    pub fn add_claim(&mut self, claim: ClaimRecord) -> ClaimId {
        self.claims.push(claim);
        ClaimId(self.claims.len() as u32 - 1)
    }

    /// Register a document; all referenced sources and claims must already
    /// exist.
    pub fn add_document(&mut self, doc: DocumentRecord) -> Result<DocId, DbError> {
        if doc.source.idx() >= self.sources.len() {
            return Err(DbError::UnknownSource(doc.source));
        }
        if doc.claims.is_empty() {
            return Err(DbError::NoClaims);
        }
        for (c, _) in &doc.claims {
            if c.idx() >= self.claims.len() {
                return Err(DbError::UnknownClaim(*c));
            }
        }
        self.documents.push(doc);
        Ok(DocId(self.documents.len() as u32 - 1))
    }

    /// All sources.
    pub fn sources(&self) -> &[SourceRecord] {
        &self.sources
    }

    /// All documents.
    pub fn documents(&self) -> &[DocumentRecord] {
        &self.documents
    }

    /// All claims.
    pub fn claims(&self) -> &[ClaimRecord] {
        &self.claims
    }

    /// Number of sources.
    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of documents.
    pub fn n_documents(&self) -> usize {
        self.documents.len()
    }

    /// Number of claims.
    pub fn n_claims(&self) -> usize {
        self.claims.len()
    }

    /// Ground-truth credibility per claim (None where unlabelled).
    pub fn truth(&self) -> Vec<Option<bool>> {
        self.claims.iter().map(|c| c.truth).collect()
    }

    /// Corpus statistics.
    pub fn stats(&self) -> DatasetStats {
        let mut links = 0usize;
        let mut refutes = 0usize;
        let mut claim_docs = vec![0u32; self.n_claims()];
        let mut source_claims: Vec<std::collections::HashSet<u32>> =
            vec![Default::default(); self.n_sources()];
        for doc in &self.documents {
            for (c, stance) in &doc.claims {
                links += 1;
                if *stance == crf::Stance::Refute {
                    refutes += 1;
                }
                claim_docs[c.idx()] += 1;
                source_claims[doc.source.idx()].insert(c.0);
            }
        }
        let n_true = self.claims.iter().filter(|c| c.truth == Some(true)).count();
        let n_labelled = self.claims.iter().filter(|c| c.truth.is_some()).count();
        DatasetStats {
            n_sources: self.n_sources(),
            n_documents: self.n_documents(),
            n_claims: self.n_claims(),
            docs_per_claim: if self.n_claims() == 0 {
                0.0
            } else {
                claim_docs.iter().map(|&x| x as f64).sum::<f64>() / self.n_claims() as f64
            },
            claims_per_source: if self.n_sources() == 0 {
                0.0
            } else {
                source_claims.iter().map(|s| s.len() as f64).sum::<f64>() / self.n_sources() as f64
            },
            refute_fraction: if links == 0 {
                0.0
            } else {
                refutes as f64 / links as f64
            },
            true_fraction: if n_labelled == 0 {
                0.0
            } else {
                n_true as f64 / n_labelled as f64
            },
        }
    }

    /// Convert into the CRF factor graph: claim `i` becomes variable `i`,
    /// every document–claim link becomes one clique, and feature matrices
    /// are assembled and standardised by [`crate::features`].
    ///
    /// Referential integrity is checked on insert, so the only error an
    /// intact database can produce is [`ModelError::Empty`] (no documents
    /// were added yet — the factor graph would have no cliques).
    pub fn to_crf_model(&self) -> Result<CrfModel, ModelError> {
        let sf = features::source_features(self);
        let df = features::doc_features(self);
        let mut delta = ModelDelta::new(features::N_SOURCE_FEATURES, features::N_DOC_FEATURES);
        for i in 0..self.n_sources() {
            delta.add_source(
                &sf[i * features::N_SOURCE_FEATURES..(i + 1) * features::N_SOURCE_FEATURES],
            )?;
        }
        for _ in 0..self.n_claims() {
            delta.add_claim();
        }
        for (i, doc) in self.documents.iter().enumerate() {
            let d = delta.add_document(
                &df[i * features::N_DOC_FEATURES..(i + 1) * features::N_DOC_FEATURES],
            )?;
            for (c, stance) in &doc.claims {
                delta.add_clique(crf::VarId(c.0), d, doc.source.0, *stance);
            }
        }
        CrfModel::build(delta)
    }

    /// Emit a [`ModelDelta`] covering every record added to this database
    /// since `map` was last committed — the streaming bridge between the
    /// record store and the live factor graph. `map` carries the db-id →
    /// model-id correspondence across the renumberings of a lineage that
    /// retires and compacts. Returns the delta plus the successor map;
    /// commit the successor only after the delta applied. A map *ahead* of
    /// the database (it covers records the database does not hold) is
    /// rejected with [`ModelError::OutOfSync`], and a map that slept
    /// through two compactions with [`ModelError::Remapped`] (only the
    /// latest remap is retained).
    ///
    /// Retirement symmetry: links to retired or dropped claims are
    /// dropped, as are documents whose source retired, and documents with
    /// no surviving links are skipped entirely — their feature rows never
    /// enter the model, which is the memory-respecting behaviour a
    /// windowed stream wants. Retired records are never re-emitted.
    ///
    /// Feature rows for the new records are standardised against the
    /// statistics of the **current** corpus; rows already in the model keep
    /// the standardisation of their own sync epoch. Exact z-scores over a
    /// growing corpus would require rewriting history — the drift vanishes
    /// as the corpus grows and is irrelevant to the graph structure, which
    /// is identical to a one-shot build.
    pub fn sync_delta_mapped(
        &self,
        model: &CrfModel,
        map: &SyncMap,
    ) -> Result<(ModelDelta, SyncMap), ModelError> {
        let mut next = map.clone();
        next.catch_up(model)?;
        for (entity, in_map, upstream) in [
            ("source", next.sources.len(), self.n_sources()),
            ("claim", next.claims.len(), self.n_claims()),
            ("document", next.docs_synced, self.n_documents()),
        ] {
            if in_map > upstream {
                return Err(ModelError::OutOfSync {
                    entity,
                    model: in_map,
                    upstream,
                });
            }
        }
        let sf = features::source_features(self);
        let df = features::doc_features(self);
        let mut delta = ModelDelta::for_model(model);
        let first_new_source = next.sources.len();
        for i in first_new_source..self.n_sources() {
            let id = delta.add_source(
                &sf[i * features::N_SOURCE_FEATURES..(i + 1) * features::N_SOURCE_FEATURES],
            )?;
            next.sources.push(id);
        }
        let first_new_claim = next.claims.len();
        for _ in first_new_claim..self.n_claims() {
            next.claims.push(delta.add_claim().0);
        }
        for i in next.docs_synced..self.n_documents() {
            let doc = &self.documents[i];
            let src = next.sources[doc.source.idx()];
            if src == SyncMap::DROPPED
                || ((src as usize) < model.n_sources() && !model.source_live(src as usize))
            {
                continue; // the source retired: its evidence is dropped
            }
            let links: Vec<(u32, crf::Stance)> = doc
                .claims
                .iter()
                .filter_map(|&(c, stance)| {
                    let id = next.claims[c.idx()];
                    if id == SyncMap::DROPPED
                        || ((id as usize) < model.n_claims() && !model.claim_live(id as usize))
                    {
                        None
                    } else {
                        Some((id, stance))
                    }
                })
                .collect();
            if links.is_empty() {
                continue; // nothing this document says survives
            }
            let d = delta.add_document(
                &df[i * features::N_DOC_FEATURES..(i + 1) * features::N_DOC_FEATURES],
            )?;
            for (c, stance) in links {
                delta.add_clique(crf::VarId(c), d, src, stance);
            }
        }
        next.docs_synced = self.n_documents();
        Ok((delta, next))
    }

    /// Serialise to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("database serialises")
    }

    /// Deserialise from a JSON string.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The db-id → model-id correspondence for a model lineage that retires
/// and compacts. Database record ids are stable forever; model ids are
/// renumbered by every [`CrfModel::compact`]. The map carries the
/// translation across those renumberings (catching up through the model's
/// published [`crf::IdRemap`] on each sync), so a long-running store can
/// keep feeding a bounded-memory model without ever re-emitting or
/// mis-addressing a record.
///
/// Obtain one with [`SyncMap::for_built_model`] right after
/// [`FactDatabase::to_crf_model`], then thread it through
/// [`FactDatabase::sync_delta_mapped`], committing each successor map
/// once its delta applied.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SyncMap {
    /// Model claim id per db claim id ([`SyncMap::DROPPED`] = compacted
    /// away).
    claims: Vec<u32>,
    /// Model source id per db source id.
    sources: Vec<u32>,
    /// Database documents consumed so far (documents are never referenced
    /// again once ingested, so a count suffices).
    docs_synced: usize,
    /// Compaction count of the model state the ids are valid against.
    compactions: u64,
}

impl SyncMap {
    /// Sentinel for a record whose model entity was compacted away.
    pub const DROPPED: u32 = u32::MAX;

    /// The identity map for a model freshly built from `db` by
    /// [`FactDatabase::to_crf_model`]. Rejects a model whose entity counts
    /// do not match the database's with [`ModelError::OutOfSync`].
    pub fn for_built_model(db: &FactDatabase, model: &CrfModel) -> Result<Self, ModelError> {
        for (entity, in_model, upstream) in [
            ("source", model.n_sources(), db.n_sources()),
            ("claim", model.n_claims(), db.n_claims()),
            ("document", model.n_docs(), db.n_documents()),
        ] {
            if in_model != upstream {
                return Err(ModelError::OutOfSync {
                    entity,
                    model: in_model,
                    upstream,
                });
            }
        }
        Ok(SyncMap {
            claims: (0..db.n_claims() as u32).collect(),
            sources: (0..db.n_sources() as u32).collect(),
            docs_synced: db.n_documents(),
            compactions: model.compactions(),
        })
    }

    /// Current model id of a db claim (`None` once compacted away).
    pub fn model_claim(&self, claim: ClaimId) -> Option<crf::VarId> {
        match *self.claims.get(claim.idx())? {
            Self::DROPPED => None,
            id => Some(crf::VarId(id)),
        }
    }

    /// Current model id of a db source (`None` once compacted away).
    pub fn model_source(&self, source: SourceId) -> Option<u32> {
        match *self.sources.get(source.idx())? {
            Self::DROPPED => None,
            id => Some(id),
        }
    }

    /// Database documents consumed so far.
    pub fn docs_synced(&self) -> usize {
        self.docs_synced
    }

    /// Compaction count of the model state the ids are valid against.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Re-point every id at the model's current numbering through
    /// [`CrfModel::remap_since`]. Fails with [`ModelError::Remapped`] when
    /// more than one compaction elapsed since the last sync (only the
    /// latest remap is retained).
    ///
    /// Public for query-side id resolution: a long-lived external reader
    /// (a query cursor, a serving front end) holding db-stable ids calls
    /// this against each model snapshot it pins, then translates through
    /// [`SyncMap::model_claim`] / [`SyncMap::model_source`]. A `Remapped`
    /// error means the reader outran the single retained remap and must
    /// re-resolve its ids from scratch rather than risk addressing a
    /// renumbered entity.
    pub fn catch_up(&mut self, model: &CrfModel) -> Result<(), ModelError> {
        let Some(remap) = model.remap_since(self.compactions)? else {
            return Ok(());
        };
        for slot in self.claims.iter_mut() {
            if *slot != Self::DROPPED {
                *slot = remap
                    .claim(crf::VarId(*slot))
                    .map_or(Self::DROPPED, |v| v.0);
            }
        }
        for slot in self.sources.iter_mut() {
            if *slot != Self::DROPPED {
                *slot = remap.source(*slot).unwrap_or(Self::DROPPED);
            }
        }
        self.compactions = model.compactions();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceKind;
    use crf::{Revision, Stance};

    fn source(name: &str) -> SourceRecord {
        SourceRecord {
            name: name.into(),
            kind: SourceKind::Website,
            age: None,
            post_count: 0,
        }
    }

    fn claim(text: &str, truth: bool) -> ClaimRecord {
        ClaimRecord {
            text: text.into(),
            truth: Some(truth),
        }
    }

    fn sample_db() -> FactDatabase {
        let mut db = FactDatabase::new();
        let s0 = db.add_source(source("a.org"));
        let s1 = db.add_source(source("b.org"));
        let c0 = db.add_claim(claim("claim zero", true));
        let c1 = db.add_claim(claim("claim one", false));
        db.add_document(DocumentRecord {
            source: s0,
            claims: vec![(c0, Stance::Support)],
            tokens: vec!["verified".into()],
        })
        .unwrap();
        db.add_document(DocumentRecord {
            source: s1,
            claims: vec![(c0, Stance::Support), (c1, Stance::Refute)],
            tokens: vec!["hoax".into(), "debunked".into()],
        })
        .unwrap();
        db
    }

    #[test]
    fn add_document_checks_references() {
        let mut db = FactDatabase::new();
        let s = db.add_source(source("x.org"));
        let err = db
            .add_document(DocumentRecord {
                source: SourceId(9),
                claims: vec![(ClaimId(0), Stance::Support)],
                tokens: vec![],
            })
            .unwrap_err();
        assert_eq!(err, DbError::UnknownSource(SourceId(9)));

        let err = db
            .add_document(DocumentRecord {
                source: s,
                claims: vec![(ClaimId(3), Stance::Support)],
                tokens: vec![],
            })
            .unwrap_err();
        assert_eq!(err, DbError::UnknownClaim(ClaimId(3)));

        let err = db
            .add_document(DocumentRecord {
                source: s,
                claims: vec![],
                tokens: vec![],
            })
            .unwrap_err();
        assert_eq!(err, DbError::NoClaims);
    }

    #[test]
    fn stats_are_correct() {
        let db = sample_db();
        let st = db.stats();
        assert_eq!(st.n_sources, 2);
        assert_eq!(st.n_documents, 2);
        assert_eq!(st.n_claims, 2);
        // Links: c0 twice, c1 once -> docs_per_claim = 1.5
        assert!((st.docs_per_claim - 1.5).abs() < 1e-12);
        // s0 has 1 claim, s1 has 2 -> 1.5
        assert!((st.claims_per_source - 1.5).abs() < 1e-12);
        // 1 refute of 3 links
        assert!((st.refute_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((st.true_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_database_yields_model_error_not_panic() {
        let db = FactDatabase::new();
        assert!(matches!(db.to_crf_model(), Err(ModelError::Empty)));
    }

    /// The sync grafts the records added since the model was built:
    /// identical graph structure to rebuilding from the full database, and
    /// the model's revision advances while its lineage id stays.
    #[test]
    fn sync_into_grafts_new_records() {
        let mut db = sample_db();
        let mut model = db.to_crf_model().unwrap();
        let map = SyncMap::for_built_model(&db, &model).unwrap();
        let id = model.model_id();
        let (delta, map) = db.sync_delta_mapped(&model, &map).unwrap();
        assert_eq!(model.apply(delta).unwrap(), Revision(0), "no-op sync");

        let s2 = db.add_source(source("c.org"));
        let c2 = db.add_claim(claim("claim two", true));
        db.add_document(DocumentRecord {
            source: s2,
            claims: vec![(c2, Stance::Support), (ClaimId(0), Stance::Refute)],
            tokens: vec!["disputed".into()],
        })
        .unwrap();

        let (delta, _) = db.sync_delta_mapped(&model, &map).unwrap();
        assert_eq!(model.apply(delta).unwrap(), Revision(1));
        assert_eq!(model.model_id(), id);
        let fresh = db.to_crf_model().unwrap();
        assert_eq!(model.n_claims(), fresh.n_claims());
        assert_eq!(model.n_sources(), fresh.n_sources());
        assert_eq!(model.n_docs(), fresh.n_docs());
        assert_eq!(model.cliques(), fresh.cliques());
        for c in 0..model.n_claims() as u32 {
            assert_eq!(
                model.cliques_of(crf::VarId(c)),
                fresh.cliques_of(crf::VarId(c)),
                "claim {c}"
            );
            assert_eq!(
                model.sources_of_claim(crf::VarId(c)),
                fresh.sources_of_claim(crf::VarId(c)),
                "claim {c}"
            );
        }
        // The new rows carry the current corpus standardisation.
        assert_eq!(
            model.source_feature_row(s2.0),
            fresh.source_feature_row(s2.0)
        );
        assert_eq!(model.doc_feature_row(2), fresh.doc_feature_row(2));
    }

    /// A map ahead of the database (e.g. built against a different store)
    /// is rejected instead of silently duplicating records.
    #[test]
    fn sync_rejects_map_ahead_of_database() {
        let db = sample_db();
        let mut other = db.clone();
        other.add_claim(claim("claim two", true));
        let model = other.to_crf_model().unwrap();
        let map = SyncMap::for_built_model(&other, &model).unwrap();
        assert!(matches!(
            db.sync_delta_mapped(&model, &map),
            Err(ModelError::OutOfSync {
                entity: "claim",
                model: 3,
                upstream: 2,
            })
        ));
    }

    /// Retirement symmetry: the map keeps the sync point, so retired
    /// records are never re-emitted, and new evidence for retired claims
    /// is dropped instead of rejected.
    #[test]
    fn sync_survives_retirement_without_reemitting() {
        let mut db = sample_db();
        let mut model = db.to_crf_model().unwrap();
        let map = SyncMap::for_built_model(&db, &model).unwrap();
        let mut set = crf::RetireSet::for_model(&model);
        set.retire_claim(crf::VarId(1));
        model.retire(set).unwrap();

        // No new records: the sync is a no-op even though the live counts
        // now lag the database's.
        let rev = model.revision();
        let (delta, map) = db.sync_delta_mapped(&model, &map).unwrap();
        assert_eq!(model.apply(delta).unwrap(), rev);
        assert_eq!(model.n_live_claims(), 1);

        // A new document citing both the retired claim and a live one:
        // only the live link lands.
        let s2 = db.add_source(source("c.org"));
        db.add_document(DocumentRecord {
            source: s2,
            claims: vec![(ClaimId(0), Stance::Support), (ClaimId(1), Stance::Refute)],
            tokens: vec!["mixed".into()],
        })
        .unwrap();
        let before = model.cliques().len();
        let (delta, map) = db.sync_delta_mapped(&model, &map).unwrap();
        model.apply(delta).unwrap();
        assert_eq!(model.cliques().len(), before + 1, "retired link dropped");
        assert_eq!(model.ingested_docs(), 3);
        // Syncing again re-emits nothing.
        let rev = model.revision();
        let (delta, _) = db.sync_delta_mapped(&model, &map).unwrap();
        assert_eq!(model.apply(delta).unwrap(), rev);
    }

    /// The map keeps the correspondence across a compaction's
    /// renumbering.
    #[test]
    fn mapped_sync_tracks_ids_across_compaction() {
        let mut db = sample_db();
        let mut model = db.to_crf_model().unwrap();
        let mut map = SyncMap::for_built_model(&db, &model).unwrap();

        let mut set = crf::RetireSet::for_model(&model);
        set.retire_claim(crf::VarId(0));
        model.retire(set).unwrap();
        model.compact().unwrap();

        // New records: a document about the surviving claim and a new one.
        let s2 = db.add_source(source("c.org"));
        let c2 = db.add_claim(claim("claim two", true));
        db.add_document(DocumentRecord {
            source: s2,
            claims: vec![(c2, Stance::Support), (ClaimId(1), Stance::Support)],
            tokens: vec!["fresh".into()],
        })
        .unwrap();
        // And one only about the dropped claim: skipped entirely.
        db.add_document(DocumentRecord {
            source: s2,
            claims: vec![(ClaimId(0), Stance::Refute)],
            tokens: vec!["stale".into()],
        })
        .unwrap();

        let docs_before = model.n_docs();
        let (delta, next) = db.sync_delta_mapped(&model, &map).unwrap();
        model.apply(delta).unwrap();
        map = next;
        assert_eq!(map.model_claim(ClaimId(0)), None, "dropped by compaction");
        assert_eq!(
            map.model_claim(ClaimId(1)),
            Some(crf::VarId(0)),
            "renumbered"
        );
        let c2_model = map.model_claim(c2).unwrap();
        assert!(model.claim_live(c2_model.idx()));
        assert_eq!(
            model.n_docs(),
            docs_before + 1,
            "the dead-claim-only document never entered the model"
        );
        assert_eq!(map.docs_synced(), db.n_documents());
        // Nothing re-emits on the next sync.
        let rev = model.revision();
        let (delta, next) = db.sync_delta_mapped(&model, &map).unwrap();
        assert_eq!(model.apply(delta).unwrap(), rev);
        assert_eq!(next.docs_synced(), map.docs_synced());
    }

    /// Query-side id resolution: an external reader holding db-stable ids
    /// calls `catch_up` directly against each pinned snapshot — ids
    /// relocate across one compaction, and a two-compaction gap refuses
    /// with `Remapped` instead of mis-addressing renumbered entities.
    #[test]
    fn catch_up_relocates_reader_ids_or_refuses() {
        let mut db = sample_db();
        let s = db.add_source(source("c.org"));
        for i in 0..3 {
            let c = db.add_claim(claim(&format!("extra {i}"), true));
            db.add_document(DocumentRecord {
                source: s,
                claims: vec![(c, Stance::Support)],
                tokens: vec!["extra".into()],
            })
            .unwrap();
        }
        let mut model = db.to_crf_model().unwrap();
        let mut map = SyncMap::for_built_model(&db, &model).unwrap();

        let mut set = crf::RetireSet::for_model(&model);
        set.retire_claim(crf::VarId(0));
        model.retire(set).unwrap();
        model.compact().unwrap();

        map.catch_up(&model).unwrap();
        assert_eq!(map.compactions(), model.compactions());
        assert_eq!(map.model_claim(ClaimId(0)), None, "compacted away");
        assert_eq!(map.model_claim(ClaimId(1)), Some(crf::VarId(0)));
        // Idempotent once caught up.
        map.catch_up(&model).unwrap();

        // Sleep through two more compactions: refuse, don't mis-address.
        let stale = map.clone();
        for _ in 0..2 {
            let mut set = crf::RetireSet::for_model(&model);
            let victim = (0..model.n_claims())
                .find(|&c| model.claim_live(c))
                .unwrap();
            set.retire_claim(crf::VarId(victim as u32));
            model.retire(set).unwrap();
            model.compact().unwrap();
        }
        let mut stale = stale;
        assert!(matches!(
            stale.catch_up(&model),
            Err(ModelError::Remapped {
                model: 3,
                synced: 1
            })
        ));
    }

    /// A map that sleeps through two compactions cannot catch up (only the
    /// latest remap is retained).
    #[test]
    fn mapped_sync_rejects_compaction_gap() {
        let mut db = sample_db();
        let s = db.add_source(source("c.org"));
        let c = db.add_claim(claim("claim two", true));
        db.add_document(DocumentRecord {
            source: s,
            claims: vec![(c, Stance::Support)],
            tokens: vec!["extra".into()],
        })
        .unwrap();
        let mut model = db.to_crf_model().unwrap();
        let map = SyncMap::for_built_model(&db, &model).unwrap();
        for _ in 0..2 {
            let mut set = crf::RetireSet::for_model(&model);
            set.retire_claim(crf::VarId(0));
            model.retire(set).unwrap();
            model.compact().unwrap();
        }
        db.add_claim(claim("late", true));
        assert!(matches!(
            db.sync_delta_mapped(&model, &map),
            Err(ModelError::Remapped {
                model: 2,
                synced: 0
            })
        ));
    }

    /// Per-epoch standardisation regression: every model feature row must
    /// equal a full re-featurise of the corpus **as it stood when the row
    /// was synced** — no row silently changes scale after it is emitted.
    #[test]
    fn standardisation_log_matches_full_refeaturise_per_epoch() {
        let mut db = sample_db();
        let mut model = db.to_crf_model().unwrap();
        let mut map = SyncMap::for_built_model(&db, &model).unwrap();
        let mut snapshots = vec![db.clone()]; // db state per sync epoch
        let mut source_epoch = vec![0; db.n_sources()];
        let mut doc_epoch = vec![0; db.n_documents()];

        for step in 0..3 {
            let s = db.add_source(source(&format!("extra{step}.org")));
            let c = db.add_claim(claim(&format!("claim {step}"), step % 2 == 0));
            db.add_document(DocumentRecord {
                source: s,
                claims: vec![(c, Stance::Support), (ClaimId(0), Stance::Refute)],
                tokens: vec!["because".into(), "therefore".into(), format!("w{step}")],
            })
            .unwrap();
            let (delta, next) = db.sync_delta_mapped(&model, &map).unwrap();
            model.apply(delta).unwrap();
            map = next;
            source_epoch.resize(db.n_sources(), snapshots.len());
            doc_epoch.resize(db.n_documents(), snapshots.len());
            snapshots.push(db.clone());
        }
        assert_eq!(snapshots.len(), 4);

        for (i, &e) in source_epoch.iter().enumerate() {
            let full = features::source_features(&snapshots[e]);
            let expect =
                &full[i * features::N_SOURCE_FEATURES..(i + 1) * features::N_SOURCE_FEATURES];
            assert_eq!(
                model.source_feature_row(i as u32),
                expect,
                "source {i} (epoch {e}) diverged from the epoch re-featurise"
            );
        }
        for (i, &e) in doc_epoch.iter().enumerate() {
            let full = features::doc_features(&snapshots[e]);
            let expect = &full[i * features::N_DOC_FEATURES..(i + 1) * features::N_DOC_FEATURES];
            assert_eq!(
                model.doc_feature_row(i as u32),
                expect,
                "doc {i} (epoch {e}) diverged from the epoch re-featurise"
            );
        }
    }

    #[test]
    fn to_crf_model_preserves_structure() {
        let db = sample_db();
        let m = db.to_crf_model().unwrap();
        assert_eq!(m.n_claims(), 2);
        assert_eq!(m.n_sources(), 2);
        assert_eq!(m.n_docs(), 2);
        assert_eq!(m.cliques().len(), 3);
        // Claim 0 appears in two cliques, claim 1 in one.
        assert_eq!(m.cliques_of(crf::VarId(0)).len(), 2);
        assert_eq!(m.cliques_of(crf::VarId(1)).len(), 1);
        // The refuting stance survives the conversion.
        let refutes = m
            .cliques()
            .iter()
            .filter(|cl| cl.stance == Stance::Refute)
            .count();
        assert_eq!(refutes, 1);
    }

    #[test]
    fn json_roundtrip() {
        let db = sample_db();
        let json = db.to_json();
        let back = FactDatabase::from_json(&json).unwrap();
        assert_eq!(back.n_sources(), db.n_sources());
        assert_eq!(back.n_documents(), db.n_documents());
        assert_eq!(back.stats(), db.stats());
    }

    #[test]
    fn truth_vector_matches_claims() {
        let db = sample_db();
        assert_eq!(db.truth(), vec![Some(true), Some(false)]);
    }
}
