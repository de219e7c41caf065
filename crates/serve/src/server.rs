//! The write path: [`TruthServer`] couples an ingest backend with the
//! publication cell.
//!
//! One server owns one ingest backend (a volatile
//! [`streamcheck::StreamingChecker`] or a crash-safe
//! [`streamcheck::DurableChecker`]) and is the **single writer** of its
//! [`PublishCell`]. Arrivals flow through [`TruthServer::ingest`]; after
//! every [`PublishPolicy::every`]-th arrival the server derives a fresh
//! [`Published`] state — liveness, credibility and trust tables — and
//! swaps it in. Readers ([`TruthServer::reader`]) never block the ingest
//! path and never see a torn state; the cost is bounded staleness,
//! explicitly tagged on every answer.
//!
//! A publication is a copy of exactly what readers query: claim and
//! source liveness, the checker's `probs`, the trust table derived from
//! them, the lineage id and the latest compaction's remap. It does not
//! pin the model, so the next arrival still grows the graph in place.
//! Nothing else is maintained per publish.

use crate::publish::{PublishCell, Published};
use crate::query::QueryHandle;
use crf::graph::{ModelDelta, ModelError};
use std::sync::Arc;
use streamcheck::{ArrivalStats, DurableChecker, DurableError, StreamingChecker};

/// An ingest error surfaced through the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The model rejected the edit (stale delta, validation failure).
    Model(ModelError),
    /// The durability layer failed (I/O, checkpoint, recovery).
    Durable(DurableError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Model(e) => write!(f, "model edit rejected: {e}"),
            ServeError::Durable(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

impl From<DurableError> for ServeError {
    fn from(e: DurableError) -> Self {
        ServeError::Durable(e)
    }
}

/// The single write path a [`TruthServer`] drives: ingest plus access to
/// the underlying [`StreamingChecker`] state the published tables are
/// derived from. Implemented by the volatile checker and the durable
/// (WAL-backed) one, so a server is generic over crash safety.
pub trait IngestBackend {
    /// Ingest one arrival batch and run the retention sweep riding on it
    /// (see [`StreamingChecker::arrive_new`]).
    fn arrive_new(&mut self, delta: ModelDelta) -> Result<ArrivalStats, ServeError>;
    /// The checker whose state gets published.
    fn checker(&self) -> &StreamingChecker;
}

impl IngestBackend for StreamingChecker {
    fn arrive_new(&mut self, delta: ModelDelta) -> Result<ArrivalStats, ServeError> {
        StreamingChecker::arrive_new(self, delta).map_err(ServeError::from)
    }
    fn checker(&self) -> &StreamingChecker {
        self
    }
}

impl IngestBackend for DurableChecker {
    fn arrive_new(&mut self, delta: ModelDelta) -> Result<ArrivalStats, ServeError> {
        DurableChecker::arrive_new(self, delta).map_err(ServeError::from)
    }
    fn checker(&self) -> &StreamingChecker {
        DurableChecker::checker(self)
    }
}

/// When the server republishes. Publication costs O(n_claims + n_sources)
/// per swap (copies of the liveness and `probs` plus the trust table), so
/// the cadence trades write-path overhead against reader staleness: with
/// `every = k`, an answer's tag lags ingest by at most `k - 1` arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishPolicy {
    /// Publish after every `every`-th arrival (min 1 = after each).
    pub every: usize,
}

impl PublishPolicy {
    /// Publish after every arrival — freshest reads, costliest ingest.
    pub fn every_arrival() -> Self {
        PublishPolicy { every: 1 }
    }

    /// Publish after every `every`-th arrival (0 is clamped to 1).
    pub fn batched(every: usize) -> Self {
        PublishPolicy {
            every: every.max(1),
        }
    }
}

impl Default for PublishPolicy {
    fn default() -> Self {
        PublishPolicy::every_arrival()
    }
}

/// A concurrent truth-serving front end: single-writer ingest, many-reader
/// staleness-tagged queries. See the module docs and `docs/serving.md`.
pub struct TruthServer<B: IngestBackend> {
    backend: B,
    cell: Arc<PublishCell>,
    policy: PublishPolicy,
    /// Arrivals since the last publication.
    unpublished: usize,
}

impl<B: IngestBackend> TruthServer<B> {
    /// Serve `backend`, publishing its current state immediately (readers
    /// never observe an unpublished server) under the default
    /// [`PublishPolicy::every_arrival`].
    pub fn new(backend: B) -> Self {
        let initial = Self::derive(backend.checker());
        TruthServer {
            backend,
            cell: Arc::new(PublishCell::new(Arc::new(initial))),
            policy: PublishPolicy::default(),
            unpublished: 0,
        }
    }

    /// Replace the publication policy (builder style).
    pub fn with_policy(mut self, policy: PublishPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Ingest one arrival batch through the backend, then republish when
    /// the policy's cadence is due. The returned stats are the backend's;
    /// the published revision advances with the model on each publication.
    // rev-ok: the revision bookkeeping lives in publish(), which copies the
    // checker's revision into the state it swaps in.
    pub fn ingest(&mut self, delta: ModelDelta) -> Result<ArrivalStats, ServeError> {
        let stats = self.backend.arrive_new(delta)?;
        self.unpublished += 1;
        if self.unpublished >= self.policy.every {
            self.publish();
        }
        Ok(stats)
    }

    /// Derive and swap in a fresh [`Published`] state right now,
    /// regardless of cadence.
    // rev-ok: publish copies the checker's revision into the state with
    // the tables, so the swapped-in tag always names the tables' revision.
    pub fn publish(&mut self) {
        let state = Self::derive(self.backend.checker());
        self.cell.publish(Arc::new(state));
        self.unpublished = 0;
    }

    /// Build the published tables from one checker state: claim and
    /// source liveness, a copy of `probs`, the trust table under them, and
    /// the latest remap (the model's shared `Arc`, so a publish copies no
    /// remap).
    fn derive(checker: &StreamingChecker) -> Published {
        let model = checker.model();
        let mut trust = Vec::new();
        checker.source_trust_into(&mut trust);
        Published {
            claim_liveness: (0..model.n_claims()).map(|c| model.claim_live(c)).collect(),
            source_liveness: (0..model.n_sources())
                .map(|s| model.source_live(s))
                .collect(),
            model_id: model.model_id(),
            remap: model.last_compaction().cloned(),
            probs: checker.probs().to_vec(),
            trust,
            revision: model.revision(),
            compactions: model.compactions(),
            arrivals: checker.arrivals(),
        }
    }

    /// A cloneable reader over this server's published state. Readers are
    /// `Send + Sync` and never block the ingest path.
    pub fn reader(&self) -> QueryHandle {
        QueryHandle::new(self.cell.clone())
    }

    /// The current published state (what a fresh reader would load).
    pub fn published(&self) -> Arc<Published> {
        self.cell.load()
    }

    /// The ingest backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the ingest backend — for maintenance outside the
    /// serving loop (checkpointing a durable backend, tuning retention,
    /// exchanging parameters). Changes made here are not auto-published;
    /// readers see them at the next [`TruthServer::publish`] / cadence
    /// point.
    // rev-ok: deliberately defers the revision swap to publish(), which
    // copies the checker's revision into the state with the tables.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<B: IngestBackend> std::fmt::Debug for TruthServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.published();
        f.debug_struct("TruthServer")
            .field("revision", &p.revision)
            .field("arrivals", &p.arrivals)
            .field("n_claims", &p.claim_liveness.len())
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::query::QueryError;
    use crf::graph::{CrfModel, ModelDelta, Stance};
    use crf::{ModelHandle, VarId};
    use streamcheck::{OnlineEmConfig, RetentionPolicy};

    fn seed_handle() -> ModelHandle {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.8]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.6]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        ModelHandle::new(CrfModel::build(b).unwrap())
    }

    fn server() -> TruthServer<StreamingChecker> {
        TruthServer::new(
            StreamingChecker::try_new(seed_handle(), OnlineEmConfig::default()).unwrap(),
        )
    }

    /// One synthetic arrival: a fresh claim with one document from a fresh
    /// source (mirrors the stream crate's ingest helper).
    fn ingest_one<B: IngestBackend>(srv: &mut TruthServer<B>, k: usize) -> ArrivalStats {
        let mut delta = srv.backend().checker().delta();
        let src = delta.add_source(&[0.1 + (k % 7) as f64 * 0.1]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.2 + (k % 5) as f64 * 0.1]).unwrap();
        delta.add_clique(c, d, src, Stance::Support);
        srv.ingest(delta).unwrap()
    }

    /// Serving does not make an arrival copy the model: a server that
    /// publishes every arrival, with a reader holding a published state
    /// across the ingest, still grows and tombstones the writer's model in
    /// place, because a published state does not pin the model.
    fn assert_served_arrival_grows_in_place<B: IngestBackend>(mut srv: TruthServer<B>) {
        for k in 0..3 {
            ingest_one(&mut srv, k);
        }
        let pinned = srv.reader().snapshot();
        let ptr = Arc::as_ptr(srv.backend().checker().model());
        let stats = ingest_one(&mut srv, 3);
        assert_eq!(stats.retired_claims, 1);
        assert!(!stats.compacted);
        assert_eq!(
            Arc::as_ptr(srv.backend().checker().model()),
            ptr,
            "a served arrival must grow and tombstone in place, not copy the model"
        );
        assert_eq!(pinned.arrivals, 3, "the reader's state must not move");
    }

    fn retiring_no_compaction() -> RetentionPolicy {
        RetentionPolicy {
            window: Some(3),
            compact_threshold: 1.0,
        }
    }

    #[test]
    fn served_volatile_arrival_grows_in_place_without_copy() {
        let mut srv = server();
        srv.backend_mut().set_retention(retiring_no_compaction());
        assert_served_arrival_grows_in_place(srv);
    }

    #[test]
    fn served_durable_arrival_grows_in_place_without_copy() {
        use durability::MemFs;
        use streamcheck::DurabilityConfig;

        let backend = DurableChecker::create(
            Arc::new(MemFs::new()) as Arc<dyn durability::Storage>,
            seed_handle(),
            OnlineEmConfig::default(),
            retiring_no_compaction(),
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_served_arrival_grows_in_place(TruthServer::new(backend));
    }

    /// The current published state next to the writer's model at
    /// publication: the test-side oracle every published table is checked
    /// against, never the published tables themselves.
    fn published_with_model<B: IngestBackend>(
        srv: &TruthServer<B>,
    ) -> (Arc<Published>, Arc<CrfModel>) {
        (srv.published(), srv.backend().checker().model().clone())
    }

    /// The published tables must be bit-identical to an offline
    /// recomputation from the model revision they were published from —
    /// the serving contract's foundation.
    fn assert_published_consistent(p: &Published, model: &CrfModel) {
        assert_eq!(p.revision, model.revision());
        assert_eq!(p.compactions, model.compactions());
        assert_eq!(p.model_id, model.model_id());
        assert_eq!(p.probs.len(), model.n_claims());
        for c in 0..model.n_claims() + 2 {
            let live = c < model.n_claims() && model.claim_live(c);
            assert_eq!(p.claim_live(c), live, "claim {c} liveness");
        }
        for s in 0..model.n_sources() + 2 {
            let live = s < model.n_sources() && model.source_live(s);
            assert_eq!(p.source_live(s), live, "source {s} liveness");
        }
        let now = model.compactions();
        for synced in [
            now.checked_sub(2),
            now.checked_sub(1),
            Some(now),
            Some(now + 1),
        ]
        .into_iter()
        .flatten()
        {
            assert_eq!(
                p.remap_since(synced),
                model.remap_since(synced),
                "remap since compaction {synced}"
            );
        }
        match (&p.remap, model.last_compaction()) {
            (None, None) => {}
            (Some(published), Some(own)) => assert!(
                Arc::ptr_eq(published, own),
                "published remap copied instead of shared"
            ),
            (published, own) => panic!("published remap {published:?}, model's {own:?}"),
        }
        let trust = crf::em::source_trust_from_probs(model, &p.probs);
        assert_eq!(
            p.trust, trust,
            "trust table not derived from published pair"
        );
    }

    #[test]
    fn new_server_publishes_initial_state() {
        let srv = server();
        let (p, model) = published_with_model(&srv);
        assert_eq!(p.revision, crf::Revision(0));
        assert_eq!(p.arrivals, 0);
        assert_published_consistent(&p, &model);
    }

    #[test]
    fn ingest_publishes_on_cadence() {
        let mut srv = server().with_policy(PublishPolicy::batched(2));
        ingest_one(&mut srv, 0);
        let p = srv.published();
        assert_eq!(p.revision, crf::Revision(0), "one arrival: cadence not due");
        ingest_one(&mut srv, 1);
        let (p, model) = published_with_model(&srv);
        assert_eq!(p.arrivals, 2);
        assert_published_consistent(&p, &model);
    }

    #[test]
    fn published_tables_stay_consistent_across_retire_and_compact() {
        let mut srv = server();
        srv.backend_mut().set_retention(RetentionPolicy {
            window: Some(3),
            compact_threshold: 0.0,
        });
        for k in 0..10 {
            ingest_one(&mut srv, k);
            let (p, model) = published_with_model(&srv);
            assert_published_consistent(&p, &model);
        }
        assert!(
            srv.published().compactions > 0,
            "tight window + zero threshold must have compacted"
        );
    }

    #[test]
    fn reader_queries_match_offline_recomputation() {
        let mut srv = server();
        for k in 0..6 {
            ingest_one(&mut srv, k);
        }
        // Retire the oldest claims at the next arrival but keep their
        // tombstones: a threshold of 1.0 defers compaction, so retired ids
        // stay in range and dead.
        srv.backend_mut().set_retention(RetentionPolicy {
            window: Some(3),
            compact_threshold: 1.0,
        });
        ingest_one(&mut srv, 6);
        let reader = srv.reader();
        let (p, model) = published_with_model(&srv);
        assert_eq!(p.compactions, 0, "threshold 1.0 must defer compaction");
        let (retired, live): (Vec<VarId>, Vec<VarId>) = (0..model.n_claims() as u32)
            .map(VarId)
            .partition(|c| !model.claim_live(c.idx()));
        assert!(!retired.is_empty() && !live.is_empty());

        // Point lookups and the batch path agree with raw table reads.
        let batch = reader.truth_batch(&live);
        assert_eq!(batch.at.revision, p.revision);
        for (i, &claim) in live.iter().enumerate() {
            let one = reader.truth(claim);
            assert_eq!(one.value, batch.value[i], "batch diverges from point");
            assert!(one.value.live);
            assert_eq!(one.value.probability, p.probs[claim.idx()]);
        }
        // Out-of-range claims answer dead, not panic.
        let oob = reader.truth(VarId(9999));
        assert!(!oob.value.live);

        // A mixed batch answers in input order; the retired claim is dead.
        let mixed = [retired[0], live[0], live[0], VarId(9999)];
        let answers = reader.truth_batch(&mixed).value;
        assert_eq!(answers.len(), mixed.len());
        for (a, &c) in answers.iter().zip(&mixed) {
            assert_eq!(*a, reader.truth(c).value, "batch out of input order");
        }
        assert!(!answers[0].live);
        assert_eq!(answers[0].probability, 0.0);
        assert!(answers[1].live && answers[2].live);

        // Top-k over every id never surfaces a retired claim.
        let every = reader.top_k_uncertain(model.n_claims()).value;
        assert_eq!(every.len(), live.len());
        assert!(every.iter().all(|(c, _)| !retired.contains(c)));

        // Top-k is entropy-descending, id-ascending, k-bounded.
        let top = reader.top_k_uncertain(3).value;
        assert_eq!(top.len(), 3);
        for w in top.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "top-k order violated: {w:?}"
            );
        }
        for &(c, h) in &top {
            assert_eq!(h, crate::query::binary_entropy(p.probs[c.idx()]));
        }

        // Source trust serves the published table; dead/oob are None.
        assert_eq!(reader.source_trust(0).value, Some(p.trust[0]));
        assert_eq!(reader.source_trust(9999).value, None);
    }

    #[test]
    fn cursor_relocates_across_one_compaction_and_refuses_two() {
        let mut srv = server();
        for k in 0..6 {
            ingest_one(&mut srv, k);
        }
        let reader = srv.reader();
        let before = reader.snapshot();
        assert_eq!(before.compactions, 0);
        let n_claims = srv.backend().checker().model().n_claims();
        let all: Vec<VarId> = (0..n_claims as u32).map(VarId).collect();
        let mut cursor = reader.cursor(all.clone());

        // Serve two answers pre-compaction.
        for want in &all[..2] {
            let step = cursor.next(&before).unwrap().unwrap();
            assert_eq!(step.answer.claim, *want);
            assert_eq!(step.at.compactions, 0);
        }

        // Force exactly one retire+compact cycle: the sweep of the next
        // arrival.
        srv.backend_mut().set_retention(RetentionPolicy {
            window: Some(3),
            compact_threshold: 0.0,
        });
        ingest_one(&mut srv, 6);
        let after = reader.snapshot();
        assert_eq!(after.compactions, 1);
        let model = srv.backend().checker().model().clone();
        let remap = model.remap_since(0).unwrap().unwrap();

        // The cursor relocates its *remaining* ids through the published
        // remap: survivors are served under their new ids, compacted-away
        // claims are counted as dropped, and ids the creator named are
        // never silently re-pointed at different claims.
        let expect: Vec<VarId> = all[2..].iter().filter_map(|&c| remap.claim(c)).collect();
        let mut served = Vec::new();
        while let Some(step) = cursor.next(&after).unwrap() {
            assert_eq!(step.at.compactions, 1);
            served.push(step.answer.claim);
        }
        assert_eq!(served, expect);
        assert_eq!(cursor.dropped(), all.len() - 2 - expect.len());

        // Two more compactions without revalidating: the remap chain is
        // gone, so the cursor must refuse rather than guess.
        let mut stale = reader.cursor(vec![VarId(0)]);
        for k in 7..15 {
            ingest_one(&mut srv, k);
        }
        let now = reader.snapshot();
        assert!(now.compactions >= 3, "expected more compactions");
        assert_eq!(
            stale.next(&now),
            Err(QueryError::Remapped {
                synced: 1,
                current: now.compactions,
            })
        );
    }

    /// A compaction that drops every id the cursor has left between two
    /// steps ends the cursor: the next step relocates, finds nothing, and
    /// answers `Ok(None)` with every remaining id counted as dropped.
    #[test]
    fn cursor_ends_when_a_compaction_drops_every_remaining_id() {
        let mut srv = server();
        for k in 0..6 {
            ingest_one(&mut srv, k);
        }
        let reader = srv.reader();
        let before = reader.snapshot();
        // The three oldest claims, which a window of three retires.
        let mut cursor = reader.cursor(vec![VarId(0), VarId(1), VarId(2)]);
        assert_eq!(
            cursor.next(&before).unwrap().unwrap().answer.claim,
            VarId(0)
        );

        srv.backend_mut().set_retention(RetentionPolicy {
            window: Some(3),
            compact_threshold: 0.0,
        });
        ingest_one(&mut srv, 6);
        let after = reader.snapshot();
        assert_eq!(after.compactions, 1);
        let model = srv.backend().checker().model().clone();
        let remap = model.remap_since(0).unwrap().unwrap();
        let left = cursor.remaining().to_vec();
        assert_eq!(left, [VarId(1), VarId(2)]);
        assert!(
            left.iter().all(|&c| remap.claim(c).is_none()),
            "the compaction must drop every remaining id"
        );

        assert_eq!(cursor.next(&after), Ok(None));
        assert_eq!(cursor.dropped(), left.len());
        assert!(cursor.remaining().is_empty());
        assert_eq!(cursor.next(&after), Ok(None), "an ended cursor stays ended");
    }

    #[test]
    fn durable_backend_serves_and_survives_reopen() {
        use durability::MemFs;
        use streamcheck::DurabilityConfig;

        let fs = Arc::new(MemFs::new());
        let backend = DurableChecker::create(
            fs.clone() as Arc<dyn durability::Storage>,
            seed_handle(),
            OnlineEmConfig::default(),
            RetentionPolicy::unbounded(),
            DurabilityConfig::default(),
        )
        .unwrap();
        let mut srv = TruthServer::new(backend);
        let mut delta = srv.backend().checker().delta();
        let src = delta.add_source(&[0.3]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.2]).unwrap();
        delta.add_clique(c, d, src, Stance::Support);
        srv.ingest(delta).unwrap();

        let (p, model) = published_with_model(&srv);
        assert_eq!(model.n_claims(), 2);
        assert_published_consistent(&p, &model);
        drop(model);

        // The durable lineage replays to the same model the server served.
        drop(srv);
        let reopened =
            DurableChecker::recover(fs, OnlineEmConfig::default(), DurabilityConfig::default())
                .unwrap();
        let srv2 = TruthServer::new(reopened);
        let (p2, model2) = published_with_model(&srv2);
        assert_eq!(model2.n_claims(), 2);
        assert_eq!(p2.revision, p.revision);
        assert_published_consistent(&p2, &model2);
    }
}
