//! A prebuilt corpus replayed as a stream.
//!
//! §8.8 replays each corpus in the order of its posting time. A
//! [`Replay`] cuts a corpus that was built in one piece into the arrivals
//! a live feed would have produced, as [`ModelDelta`]s for
//! [`crate::stream::StreamingChecker::arrive_new`] — so a replayed run
//! takes the same ingest path as a live one:
//!
//! * sources are the directory of feeds, known up front: the seed model
//!   carries every corpus source under its corpus id;
//! * each arrival is one claim, together with every document it
//!   completes — a document is published with the last of its claims to
//!   arrive, since it can only be posted once everything it discusses
//!   exists;
//! * feature rows are the corpus's own rows, so the grown lineage has the
//!   corpus's feature dimension and exchanges weights with an engine over
//!   the corpus.

use crf::{CrfModel, ModelDelta, ModelError, VarId};
use std::sync::Arc;

/// A corpus exposed claim by claim in a given arrival order. See the
/// module docs.
pub struct Replay {
    corpus: Arc<CrfModel>,
    order: Vec<VarId>,
    /// Corpus cliques of each corpus document.
    doc_cliques: Vec<Vec<u32>>,
    /// Corpus documents each arrival publishes, ascending.
    docs_at: Vec<Vec<u32>>,
    /// Grown-lineage id of each corpus claim that has arrived.
    grown: Vec<VarId>,
    /// Arrivals cut so far, the seed's included.
    next: usize,
}

impl Replay {
    /// Start replaying `corpus` in `order` (a permutation of its claims).
    /// Returns the replay and the model the grown lineage starts from:
    /// every corpus source plus the shortest prefix of `order` that
    /// publishes a document (a model needs a clique). The prefix's claims
    /// are built into that model; they count as arrived in
    /// [`Self::arrived`] but never pass through a checker's ingest. Fails
    /// with [`ModelError::Empty`] when no document is ever published.
    ///
    /// # Panics
    /// When `order` is not a permutation of the corpus's claims.
    pub fn start(corpus: Arc<CrfModel>, order: Vec<VarId>) -> Result<(Self, CrfModel), ModelError> {
        let n = corpus.n_claims();
        let mut position = vec![usize::MAX; n];
        for (p, c) in order.iter().enumerate() {
            assert!(
                c.idx() < n && position[c.idx()] == usize::MAX,
                "arrival order must be a permutation of the corpus claims"
            );
            position[c.idx()] = p;
        }
        assert_eq!(order.len(), n, "arrival order must cover every claim");
        let mut doc_cliques = vec![Vec::new(); corpus.n_docs()];
        for (ci, clique) in corpus.cliques().iter().enumerate() {
            doc_cliques[clique.doc as usize].push(ci as u32);
        }
        let mut docs_at = vec![Vec::new(); n];
        for (d, cliques) in doc_cliques.iter().enumerate() {
            let last = cliques
                .iter()
                .map(|&ci| position[corpus.cliques()[ci as usize].claim.idx()])
                .max();
            if let Some(p) = last {
                docs_at[p].push(d as u32);
            }
        }
        let mut replay = Replay {
            grown: vec![VarId(u32::MAX); n],
            corpus,
            order,
            doc_cliques,
            docs_at,
            next: 0,
        };

        let mut seed = ModelDelta::new(replay.corpus.m_source(), replay.corpus.m_doc());
        for s in 0..replay.corpus.n_sources() as u32 {
            seed.add_source(replay.corpus.source_feature_row(s))?;
        }
        while seed.n_new_cliques() == 0 && replay.next < n {
            replay.cut_next(&mut seed)?;
        }
        let seed = CrfModel::build(seed)?;
        Ok((replay, seed))
    }

    /// The next arrival as a delta against `model`, the grown lineage's
    /// current state: the claim and every document it completes. `None`
    /// once the order is exhausted. The replay counts the claim as
    /// arrived, so the caller must ingest the delta.
    ///
    /// # Panics
    /// When `model` has compacted: the delta addresses earlier arrivals
    /// and the seeded sources by the ids they were grown under.
    pub fn next_delta(&mut self, model: &CrfModel) -> Option<ModelDelta> {
        if self.next == self.order.len() {
            return None;
        }
        assert_eq!(
            model.compactions(),
            0,
            "a replayed lineage must not compact: its ids are the grown ones"
        );
        let mut delta = ModelDelta::for_model(model);
        self.cut_next(&mut delta)
            .expect("corpus rows have the corpus's widths");
        Some(delta)
    }

    /// Corpus claims that have arrived so far (the seed's included), in
    /// arrival order.
    pub fn arrived(&self) -> &[VarId] {
        &self.order[..self.next]
    }

    /// Append the next arrival — its claim, then each document it
    /// completes with that document's cliques — to `delta`.
    fn cut_next(&mut self, delta: &mut ModelDelta) -> Result<(), ModelError> {
        let claim = self.order[self.next];
        self.grown[claim.idx()] = delta.add_claim();
        for &d in &self.docs_at[self.next] {
            let doc = delta.add_document(self.corpus.doc_feature_row(d))?;
            for &ci in &self.doc_cliques[d as usize] {
                let clique = &self.corpus.cliques()[ci as usize];
                delta.add_clique(
                    self.grown[clique.claim.idx()],
                    doc,
                    clique.source,
                    clique.stance,
                );
            }
        }
        self.next += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online_em::OnlineEmConfig;
    use crate::stream::StreamingChecker;

    fn corpus() -> Arc<CrfModel> {
        Arc::new(
            factdb::DatasetPreset::WikiMini
                .generate()
                .db
                .to_crf_model()
                .unwrap(),
        )
    }

    /// Replayed in id order, the grown lineage holds the corpus's graph:
    /// the same claims, sources and cliques per claim, and the corpus's
    /// feature rows.
    #[test]
    fn replay_in_id_order_regrows_the_corpus() {
        let corpus = corpus();
        let n = corpus.n_claims();
        let order = (0..n as u32).map(VarId).collect();
        let (mut replay, seed) = Replay::start(corpus.clone(), order).unwrap();
        assert_eq!(seed.n_sources(), corpus.n_sources());
        let seeded = replay.arrived().len();
        assert!(seeded >= 1 && seed.n_claims() == seeded);

        let mut checker = StreamingChecker::try_new(seed, OnlineEmConfig::default()).unwrap();
        while let Some(delta) = replay.next_delta(checker.model()) {
            checker.arrive_new(delta).unwrap();
        }
        assert_eq!(checker.arrivals(), n - seeded);
        assert_eq!(replay.arrived().len(), n);
        let grown = checker.model();
        assert_eq!(grown.n_claims(), n);
        assert_eq!(grown.n_docs(), corpus.n_docs());
        assert_eq!(grown.cliques().len(), corpus.cliques().len());
        assert_eq!(grown.feature_dim(), corpus.feature_dim());
        for c in 0..n as u32 {
            assert_eq!(
                grown.sources_of_claim(VarId(c)),
                corpus.sources_of_claim(VarId(c)),
                "claim {c}"
            );
            let rows = |m: &CrfModel| {
                let mut rows: Vec<(u32, Vec<f64>, bool)> = m
                    .cliques_of(VarId(c))
                    .iter()
                    .map(|&ci| {
                        let cl = &m.cliques()[ci as usize];
                        let support = cl.stance == crf::Stance::Support;
                        (cl.source, m.doc_feature_row(cl.doc).to_vec(), support)
                    })
                    .collect();
                rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
                rows
            };
            assert_eq!(rows(grown), rows(&corpus), "claim {c}");
        }
        for s in 0..corpus.n_sources() as u32 {
            assert_eq!(grown.source_feature_row(s), corpus.source_feature_row(s));
        }
    }

    /// A shuffled order grows claims under arrival-order ids and publishes
    /// each document exactly when the last claim it discusses arrives.
    #[test]
    fn shuffled_replay_publishes_documents_with_their_last_claim() {
        let corpus = corpus();
        let n = corpus.n_claims();
        let order: Vec<VarId> = (0..n as u32).rev().map(VarId).collect();
        let (mut replay, seed) = Replay::start(corpus.clone(), order.clone()).unwrap();
        let complete_docs = |arrived: &[VarId]| {
            let mut seen = vec![false; n];
            for c in arrived {
                seen[c.idx()] = true;
            }
            let mut open = vec![false; corpus.n_docs()];
            for cl in corpus.cliques() {
                open[cl.doc as usize] |= !seen[cl.claim.idx()];
            }
            open.iter().filter(|&&o| !o).count()
        };
        assert_eq!(seed.n_docs(), complete_docs(replay.arrived()));
        let mut checker = StreamingChecker::try_new(seed, OnlineEmConfig::default()).unwrap();
        while let Some(delta) = replay.next_delta(checker.model()) {
            checker.arrive_new(delta).unwrap();
            assert_eq!(checker.model().n_docs(), complete_docs(replay.arrived()));
        }
        let m = checker.model();
        for (grown_id, corpus_id) in order.iter().enumerate() {
            assert_eq!(
                m.cliques_of(VarId(grown_id as u32)).len(),
                corpus.cliques_of(*corpus_id).len(),
                "arrival {grown_id}"
            );
        }
    }
}
