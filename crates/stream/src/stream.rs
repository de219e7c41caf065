//! The streaming checker — the main loop of Alg. 2.
//!
//! Claims arrive one at a time with their documents and sources. Two
//! ingestion paths are supported:
//!
//! * **True streaming** ([`StreamingChecker::arrive_new`]) — the arrival
//!   carries a [`ModelDelta`] and the factor graph **grows in place**
//!   through the shared [`ModelHandle`]: new sources, documents, claims,
//!   and cliques are spliced into the live CSR adjacency
//!   ([`crf::CrfModel::apply`]), and every model-keyed structure catches
//!   up: the EM training set and per-claim state patch forward, and the
//!   partition, the Gibbs claim evidence and the component schedule are
//!   recomputed from the new snapshot. An
//!   offline validation process holding a clone of the same handle picks
//!   the growth up on its next inference (Alg. 2 line 10 hands the online
//!   parameters back the same way as before).
//! * **Prebuilt replay** ([`StreamingChecker::arrive`]) — the arrival
//!   order exposes progressively more of an already-built factor graph,
//!   mirroring how the paper replays corpora "in the order of their
//!   posting time" (§8.8). Table 2's [`crate::interleave`] runs, the
//!   `stream_update_time` experiment and the `streaming_news` example
//!   drive this path; no test holds the growth path against it.
//!
//! For each arrival the checker:
//!
//! 1. marks the claim(s) visible (lines 2–6),
//! 2. receives the current model parameters (line 7 — see
//!    [`StreamingChecker::exchange_from`]),
//! 3. estimates each new claim's credibility under the current parameters
//!    (the expectation of Eq. 29) and performs the stochastic-approximation
//!    update of the parameters (lines 8–9), and
//! 4. can feed the updated parameters back into Alg. 1
//!    ([`StreamingChecker::feed_into`], line 10).

use crate::online_em::{ArrivalStats, OnlineEm, OnlineEmConfig, OnlineEmError, OnlineEmState};
use crf::em::source_trust_from_probs;
use crf::potentials::{claim_probability, clique_features};
use crf::{
    Clique, CliqueId, CrfModel, Icrf, ModelDelta, ModelError, ModelHandle, RetireSet, Since,
    Stance, SyncPoint, VarId,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The resource-retention contract of a long-running stream: which claims
/// may be let go, and when the tombstones they leave behind are worth
/// compacting away.
///
/// Without a policy the factor graph grows without bound — every claim,
/// document, and clique ever ingested stays hot forever. A policy bounds
/// the live set by **arrival recency** ([`RetentionPolicy::window`]: a
/// sliding window over the arrival index) and/or by **size**
/// ([`RetentionPolicy::max_live_claims`]), retiring the oldest arrivals
/// first. Retirement is `O(touched)` tombstoning
/// ([`crf::CrfModel::retire`]); the memory comes back when the dead
/// fraction crosses [`RetentionPolicy::compact_threshold`] and the checker
/// triggers a [`crf::CrfModel::compact`], which also drops every document
/// whose evidence died with its claims. Together they give a memory
/// *plateau*: array sizes are bounded by
/// `live set / (1 − compact_threshold)` regardless of stream length.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Retire a claim once `window` further arrivals have landed after it
    /// (`None` = no recency bound). Claims prebuilt into the model count
    /// from the arrival that exposed them.
    pub window: Option<u64>,
    /// Cap on the model's live claims; the oldest arrivals are retired
    /// first to get back under it (`None` = no size bound).
    pub max_live_claims: Option<usize>,
    /// Also retire a source when every live claim it serves expires in the
    /// same sweep (a directory entry kept alive only by expired stories).
    pub retire_orphan_sources: bool,
    /// Compact when [`crf::CrfModel::dead_fraction`] reaches this value.
    /// `1.0` effectively defers compaction forever; `0.0` compacts after
    /// every retirement sweep. The default `0.25` bounds tombstone bloat
    /// at a third of the live set while amortising the compaction cost
    /// over many arrivals.
    pub compact_threshold: f64,
}

impl Default for RetentionPolicy {
    /// Unbounded retention (the pre-lifecycle behaviour): nothing expires.
    fn default() -> Self {
        RetentionPolicy::unbounded()
    }
}

impl RetentionPolicy {
    /// Keep everything forever (no window, no cap).
    pub fn unbounded() -> Self {
        RetentionPolicy {
            window: None,
            max_live_claims: None,
            retire_orphan_sources: true,
            compact_threshold: 0.25,
        }
    }

    /// A sliding window over the arrival index: a claim expires once
    /// `window` further arrivals have landed.
    pub fn sliding_window(window: u64) -> Self {
        RetentionPolicy {
            window: Some(window),
            ..RetentionPolicy::unbounded()
        }
    }

    /// A hard cap on live claims, oldest arrivals retired first.
    pub fn max_claims(cap: usize) -> Self {
        RetentionPolicy {
            max_live_claims: Some(cap),
            ..RetentionPolicy::unbounded()
        }
    }

    /// Whether the policy can ever retire anything.
    pub fn is_unbounded(&self) -> bool {
        self.window.is_none() && self.max_live_claims.is_none()
    }
}

/// What one retention sweep ([`StreamingChecker::expire_old`]) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpiryStats {
    /// Claims tombstoned by this sweep.
    pub retired_claims: usize,
    /// Sources tombstoned by this sweep (orphaned by their claims).
    pub retired_sources: usize,
    /// Whether the sweep ended in a compaction.
    pub compacted: bool,
}

/// Claims that never arrived carry this sentinel in the arrival log.
const NEVER: u64 = u64::MAX;

/// The streaming fact checker of Alg. 2.
pub struct StreamingChecker {
    /// The shared, growable model lineage; cloned by the offline process.
    handle: ModelHandle,
    /// Snapshot pinned at the revision `visible`/`probs` are sized for.
    /// `None` only transiently inside [`Self::arrive_new`], which releases
    /// the pin so an in-place growth does not have to copy the model on
    /// the checker's account.
    model: Option<Arc<CrfModel>>,
    visible: Vec<bool>,
    probs: Vec<f64>,
    /// Arrival index per claim ([`NEVER`] = not yet arrived); what the
    /// retention window slides over. Relocated across compactions.
    arrival_seq: Vec<u64>,
    /// The model state the per-claim state is sized for.
    synced: SyncPoint,
    policy: RetentionPolicy,
    online: OnlineEm,
    arrivals: usize,
}

impl StreamingChecker {
    /// A checker over the model behind `model` (a bare [`CrfModel`], a
    /// shared `Arc<CrfModel>`, or a clone of a live [`ModelHandle`]).
    /// Claims already in the model count as not-yet-arrived until
    /// [`Self::arrive`] exposes them; claims ingested through
    /// [`Self::arrive_new`] become visible as they land. Validates the
    /// online-EM configuration up front.
    ///
    /// To share one growable lineage with other components (the offline
    /// engine, a validation process), pass **clones of one
    /// [`ModelHandle`]** — converting the same `Arc<CrfModel>` twice mints
    /// two *independent* handles that do not observe each other's growth.
    pub fn try_new(
        model: impl Into<ModelHandle>,
        config: OnlineEmConfig,
    ) -> Result<Self, OnlineEmError> {
        let handle = model.into();
        let model = handle.snapshot();
        let n = model.n_claims();
        let dim = model.feature_dim();
        Ok(StreamingChecker {
            handle,
            synced: model.sync_point(),
            model: Some(model),
            visible: vec![false; n],
            probs: vec![0.5; n],
            arrival_seq: vec![NEVER; n],
            policy: RetentionPolicy::unbounded(),
            online: OnlineEm::try_new(dim, config)?,
            arrivals: 0,
        })
    }

    /// Builder-style retention configuration: bound the live set (and
    /// therefore the memory of a long-running stream) by the given policy.
    /// [`Self::arrive_new`] runs a retention sweep after every ingest;
    /// [`Self::expire_old`] runs one on demand.
    pub fn with_retention(mut self, policy: RetentionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the retention policy of a live checker.
    pub fn set_retention(&mut self, policy: RetentionPolicy) {
        self.policy = policy;
    }

    /// The active retention policy.
    pub fn retention(&self) -> &RetentionPolicy {
        &self.policy
    }

    /// The checker's snapshot of the model, pinned at the revision its
    /// per-claim state is sized for (refreshed by every arrival).
    pub fn model(&self) -> &Arc<CrfModel> {
        self.model
            .as_ref()
            .expect("snapshot pinned outside arrive_new")
    }

    /// The shared handle of the model lineage this checker ingests into.
    pub fn handle(&self) -> &ModelHandle {
        &self.handle
    }

    /// Start an empty [`ModelDelta`] against the current model state — the
    /// staging buffer for the next [`Self::arrive_new`].
    pub fn delta(&self) -> ModelDelta {
        self.handle.delta()
    }

    /// Catch the per-claim state up with the current handle revision (the
    /// model may have been grown, retired, or compacted by another holder
    /// of the handle). New claims start invisible at probability 0.5;
    /// tombstoned claims drop out of the visible set; a compaction
    /// relocates the per-claim state through the published remap (or, when
    /// two compactions elapsed unseen, resets it). Also re-pins the
    /// snapshot after [`Self::arrive_new`] released it.
    pub(crate) fn sync(&mut self) {
        let model = self.handle.snapshot();
        let n = model.n_claims();
        match model.since(self.synced) {
            Since::Unchanged => {
                self.model = Some(model);
                return;
            }
            Since::Patch { .. } => {}
            Since::Relocate { remap, .. } => {
                let mut visible = vec![false; n];
                let mut probs = vec![0.5; n];
                let mut seq = vec![NEVER; n];
                for c in 0..self.visible.len() {
                    if let Some(nc) = remap.claim(VarId(c as u32)) {
                        visible[nc.idx()] = self.visible[c];
                        probs[nc.idx()] = self.probs[c];
                        seq[nc.idx()] = self.arrival_seq[c];
                    }
                }
                self.visible = visible;
                self.probs = probs;
                self.arrival_seq = seq;
                // The online buffer relocates with us: surviving claims'
                // instances are re-tagged, dropped claims' instances die
                // with the claim.
                self.online.remap_claims(remap);
            }
            Since::Rebuild => {
                // Outran the single retained remap: provenance is lost and
                // the per-claim state resets. Visibility cannot be
                // reconstructed, but retention must keep working — treat
                // every live claim as having arrived *now*, so nothing
                // becomes immortal under the window or the live-claim cap.
                self.visible = vec![false; n];
                self.probs = vec![0.5; n];
                self.arrival_seq = vec![NEVER; n];
                for (c, slot) in self.arrival_seq.iter_mut().enumerate() {
                    if model.claim_live(c) {
                        *slot = self.arrivals as u64;
                    }
                }
                // Claim-id provenance is lost with the remap: stale tags
                // must not get a live claim's instances pruned as dead, so
                // the buffered instances fall back to decay-only lifetime.
                self.online.clear_claim_tags();
            }
        }
        self.visible.resize(n, false);
        self.probs.resize(n, 0.5);
        self.arrival_seq.resize(n, NEVER);
        if model.has_tombstones() {
            for (c, v) in self.visible.iter_mut().enumerate() {
                if *v && !model.claim_live(c) {
                    *v = false; // expired: out of the visible working set
                }
            }
            // A retired claim's buffered training instances are reclaimed
            // with the claim — the point of tagging them — instead of
            // accumulating until decay pushes them under the weight floor.
            self.online
                .prune_dead_claims(|c| (c as usize) < n && model.claim_live(c as usize));
        }
        self.synced = model.sync_point();
        self.model = Some(model);
    }

    /// Claims that have arrived and are still in service (retired claims
    /// drop out of the visible set).
    pub fn visible_claims(&self) -> Vec<VarId> {
        let model = self.model();
        self.visible
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (v && model.claim_live(i)).then_some(VarId(i as u32)))
            .collect()
    }

    /// Number of arrivals processed.
    pub fn arrivals(&self) -> usize {
        self.arrivals
    }

    /// Current credibility estimates (0.5 for unseen claims).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Per-source trust under the current credibility estimates, written
    /// into `out` (resized to the model's source count) — the serving-layer
    /// accessor: a query front end republishes trust from the same
    /// `(model, probs)` pair it pins, so answers stay bit-reproducible from
    /// the published state. Uses the same Beta `prior` convention as
    /// [`crf::em::source_trust_from_probs`]; the ingest loop's internal
    /// estimate uses `(1.0, 1.0)`.
    pub fn source_trust_into(&self, prior: (f64, f64), out: &mut Vec<f64>) {
        crf::em::source_trust_into(self.model(), &self.probs, prior, out);
    }

    /// Current online parameters.
    pub fn weights(&self) -> &crf::potentials::Weights {
        self.online.weights()
    }

    /// Receive the current parameters from the offline process
    /// (Alg. 2 line 7).
    pub fn exchange_from(&mut self, icrf: &Icrf) {
        if icrf.weights().dim() == self.model().feature_dim() {
            self.online.set_weights(icrf.weights().clone());
        }
    }

    /// Feed the online parameters into the offline process
    /// (Alg. 2 line 10).
    pub fn feed_into(&self, icrf: &mut Icrf) {
        icrf.set_weights(self.online.weights().clone());
    }

    /// Ingest a genuinely new arrival: grow the factor graph in place by
    /// `delta` (Alg. 2 lines 1–6 — the claim arrives *with* its documents
    /// and sources), estimate the credibility of every claim the delta
    /// added, and blend the new cliques' expected log-likelihood into the
    /// online objective (lines 8–9). Returns the update statistics — the
    /// `∆t` measured in §8.8 — or the [`ModelError`] when the delta does
    /// not apply (stale revision, dangling reference); on error nothing
    /// changes.
    ///
    /// Cliques the delta attaches to *old* claims (a newly arrived document
    /// discussing an already-seen claim) contribute training rows too,
    /// targeted at the claim's current estimate.
    ///
    /// Under a bounded [`RetentionPolicy`] a retention sweep rides on every
    /// successful ingest; the sweep's outcome lands in the returned stats
    /// (`retired_claims`/`retired_sources`/`compacted`). An error from this
    /// method always means the arrival itself was **not** ingested — a
    /// sweep that loses a revision race to another handle holder does not
    /// fail the call (it re-runs on the next arrival).
    pub fn arrive_new(&mut self, delta: ModelDelta) -> Result<ArrivalStats, ModelError> {
        // The arrival window comes from the delta itself, not from a
        // snapshot diff: `apply` only succeeds against exactly the
        // revision the delta was prepared for, so its entities occupy
        // `base..base + n_new` even if another handle holder grows the
        // model concurrently — their claims are never attributed to this
        // arrival (they surface as not-yet-arrived through `sync`).
        let first_new_claim = delta.base_claims();
        let n_new_claims = delta.n_new_claims();
        let first_new_clique = delta.base_cliques();
        let n_new_cliques = delta.n_new_cliques();

        // Release our snapshot pin for the duration of the growth: when
        // the checker is the only holder, `apply` then splices strictly in
        // place instead of copying the whole model to keep our pin valid.
        self.model = None;
        let applied = self.handle.apply(delta);
        self.sync(); // re-pin (the grown model, or the untouched one on error)
        applied?;

        let model = self.model().clone();
        // Trust statistics of the neighbourhood *before* the new claims'
        // own estimates land, mirroring the prebuilt path: the arriving
        // claim itself sits at the maximum-entropy 0.5 while its
        // probability is computed.
        let trust = source_trust_from_probs(&model, &self.probs, (1.0, 1.0));
        for c in first_new_claim..first_new_claim + n_new_claims {
            self.mark_arrived(c);
            self.probs[c] =
                claim_probability(&model, self.online.weights(), VarId(c as u32), |s| {
                    trust[s as usize]
                });
        }

        // One training row per clique the delta added.
        let rows = self.training_rows(
            &model,
            &trust,
            model.cliques()[first_new_clique..first_new_clique + n_new_cliques].iter(),
        );
        let mut stats = self.online.observe_for_claims(&rows);

        // Retention rides on the ingest path: expired claims are tombstoned
        // and, past the dead-fraction threshold, compacted away — this is
        // what keeps a windowed stream's memory on a plateau. The arrival
        // itself is already committed at this point (model grown, online
        // update done), so a sweep losing the revision race to another
        // handle holder must NOT fail the call — the loser's sweep simply
        // re-runs on the next arrival (or via [`Self::expire_old`]). Any
        // other sweep error would be an internal invariant violation and
        // still surfaces.
        if !self.policy.is_unbounded() {
            match self.run_retention() {
                Ok(expiry) => {
                    stats.retired_claims = expiry.retired_claims;
                    stats.retired_sources = expiry.retired_sources;
                    stats.compacted = expiry.compacted;
                }
                Err(ModelError::StaleDelta { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(stats)
    }

    /// Run one retention sweep on demand: retire every claim the policy
    /// says has expired (plus orphaned sources), and compact when the dead
    /// fraction crosses the policy threshold. A no-op returning zeroed
    /// stats under an unbounded policy or when nothing has expired.
    /// [`Self::arrive_new`] calls this automatically after every ingest.
    ///
    /// Retirement is revision-checked like every other edit: if another
    /// holder of the handle edits the model concurrently, the sweep
    /// surfaces [`ModelError::StaleDelta`] and can simply be retried.
    pub fn expire_old(&mut self) -> Result<ExpiryStats, ModelError> {
        self.sync();
        self.run_retention()
    }

    /// The retention sweep proper; expects a fresh snapshot pin.
    fn run_retention(&mut self) -> Result<ExpiryStats, ModelError> {
        let mut out = ExpiryStats::default();
        let model = self.model().clone();

        // ---- Which claims expire. Only arrived, still-live claims are
        // candidates; prebuilt claims that never arrived are not the
        // stream's to retire.
        let mut expire: Vec<u32> = Vec::new();
        let mut expiring = vec![false; model.n_claims()];
        if let Some(window) = self.policy.window {
            for (c, flag) in expiring.iter_mut().enumerate() {
                if self.arrival_seq[c] != NEVER
                    && self.arrival_seq[c] + window <= self.arrivals as u64
                    && model.claim_live(c)
                {
                    expire.push(c as u32);
                    *flag = true;
                }
            }
        }
        if let Some(cap) = self.policy.max_live_claims {
            let live_after_window = model.n_live_claims() - expire.len();
            if live_after_window > cap {
                // Oldest arrivals first.
                let mut candidates: Vec<(u64, u32)> = (0..model.n_claims())
                    .filter(|&c| {
                        self.arrival_seq[c] != NEVER && model.claim_live(c) && !expiring[c]
                    })
                    .map(|c| (self.arrival_seq[c], c as u32))
                    .collect();
                candidates.sort_unstable();
                for &(_, c) in candidates.iter().take(live_after_window - cap) {
                    expire.push(c);
                    expiring[c as usize] = true;
                }
            }
        }

        if !expire.is_empty() {
            let mut set = RetireSet::for_model(&model);
            let mut retired_sources = 0;
            for &c in &expire {
                set.retire_claim(VarId(c));
            }
            if self.policy.retire_orphan_sources {
                // A source orphaned by this sweep: every live claim it
                // serves is expiring.
                let mut touched: Vec<u32> = expire
                    .iter()
                    .flat_map(|&c| model.sources_of_claim(VarId(c)).iter().copied())
                    .collect();
                touched.sort_unstable();
                touched.dedup();
                for s in touched {
                    if model.source_live(s as usize)
                        && model
                            .claims_of_source(s)
                            .iter()
                            .filter(|&&c| model.claim_live(c as usize))
                            .all(|&c| expiring[c as usize])
                    {
                        set.retire_source(s);
                        retired_sources += 1;
                    }
                }
            }
            self.model = None; // release the pin: tombstone in place
            let retired = self.handle.retire(set);
            self.sync();
            retired?;
            out.retired_claims = expire.len();
            out.retired_sources = retired_sources;
        }

        // ---- Deferred compaction: reclaim the memory once tombstones are
        // worth the rebuild. `Empty` means the policy retired everything —
        // keep the tombstoned model; the next arrival revives it.
        if self.model().dead_fraction() >= self.policy.compact_threshold {
            self.model = None;
            let compacted = self.handle.compact();
            self.sync();
            match compacted {
                Ok(remap) => out.compacted = !remap.is_identity(),
                Err(ModelError::Empty) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Process the arrival of `claim` by exposing it from a prebuilt model
    /// (Alg. 2 lines 1–9; the replay path of §8.8). Returns the update
    /// statistics — the `∆t` measured in §8.8.
    pub fn arrive(&mut self, claim: VarId) -> ArrivalStats {
        self.sync();
        self.mark_arrived(claim.idx());

        // Estimate the new claim's credibility under current parameters
        // using the trust statistics of the visible neighbourhood.
        let model = self.model().clone();
        let trust = source_trust_from_probs(&model, &self.probs, (1.0, 1.0));
        self.probs[claim.idx()] =
            claim_probability(&model, self.online.weights(), claim, |s| trust[s as usize]);
        self.observe_claim(&model, &trust, claim)
    }

    /// Process a labelled arrival: the claim comes with user input already
    /// attached (e.g. from a parallel validation process), which pins the
    /// expectation instead of self-estimating it.
    pub fn arrive_labelled(&mut self, claim: VarId, credible: bool) -> ArrivalStats {
        self.sync();
        self.mark_arrived(claim.idx());
        self.probs[claim.idx()] = if credible { 1.0 } else { 0.0 };
        // Unlike `arrive`, trust is taken after the label is pinned.
        let model = self.model().clone();
        let trust = source_trust_from_probs(&model, &self.probs, (1.0, 1.0));
        self.observe_claim(&model, &trust, claim)
    }

    /// Expose `claim` as the next arrival (Alg. 2 lines 2–6).
    fn mark_arrived(&mut self, claim: usize) {
        self.visible[claim] = true;
        self.arrivals += 1;
        self.arrival_seq[claim] = self.arrivals as u64;
    }

    /// Feed the online estimator one training row per clique of `claim`.
    fn observe_claim(&mut self, model: &CrfModel, trust: &[f64], claim: VarId) -> ArrivalStats {
        let cliques = model.cliques_of(claim).iter();
        let rows = self.training_rows(model, trust, cliques.map(|&ci| model.clique(CliqueId(ci))));
        self.online.observe_for_claims(&rows)
    }

    /// One claim-tagged `(features, soft target)` row per clique: the
    /// target is the clique's claim's current probability, flipped for a
    /// refuting stance. The tag lets retirement reclaim the instance early.
    fn training_rows<'a>(
        &self,
        model: &CrfModel,
        trust: &[f64],
        cliques: impl Iterator<Item = &'a Clique>,
    ) -> Vec<(u32, Vec<f64>, f64)> {
        cliques
            .map(|cl| {
                let mut row = vec![0.0; model.feature_dim()];
                clique_features(model, cl, trust[cl.source as usize], &mut row);
                let p = self.probs[cl.claim.idx()];
                let target = match cl.stance {
                    Stance::Support => p,
                    Stance::Refute => 1.0 - p,
                };
                (cl.claim.0, row, target)
            })
            .collect()
    }

    /// Snapshot the checker's complete volatile state — per-claim
    /// bookkeeping, retention policy, online estimator — keyed to the
    /// model lineage position it is sized for. The checkpoint payload of
    /// the durability layer (the model itself is serialised alongside by
    /// [`crate::durable`]).
    pub(crate) fn export_state(&mut self) -> CheckerState {
        self.sync();
        let model = self.model();
        CheckerState {
            model_id: model.model_id(),
            revision: model.revision().0,
            visible: self.visible.clone(),
            probs: self.probs.clone(),
            arrival_seq: self.arrival_seq.clone(),
            compactions: model.compactions(),
            arrivals: self.arrivals as u64,
            policy: self.policy.clone(),
            online: self.online.export_state(),
        }
    }

    /// Restore a checkpointed state. The handle must already sit at
    /// exactly the `(model_id, revision)` the state was exported at —
    /// recovery rebuilds the model first, then restores the checker —
    /// otherwise the restore is refused with [`ModelError::StaleDelta`]
    /// and the checker is left untouched.
    pub(crate) fn restore_state(&mut self, state: CheckerState) -> Result<(), ModelError> {
        self.sync();
        let model = self.model().clone();
        if (model.model_id(), model.revision().0) != (state.model_id, state.revision) {
            return Err(ModelError::StaleDelta {
                delta_model_id: state.model_id,
                delta_revision: state.revision,
                model_id: model.model_id(),
                model_revision: model.revision().0,
            });
        }
        debug_assert_eq!(state.probs.len(), model.n_claims());
        debug_assert_eq!(state.compactions, model.compactions());
        self.visible = state.visible;
        self.probs = state.probs;
        self.arrival_seq = state.arrival_seq;
        self.synced = model.sync_point();
        self.arrivals = state.arrivals as usize;
        self.policy = state.policy;
        self.online
            .restore_state(state.online)
            .expect("same lineage position implies same feature dim");
        Ok(())
    }
}

/// The serialisable volatile state of a [`StreamingChecker`]
/// ([`StreamingChecker::export_state`] /
/// [`StreamingChecker::restore_state`]) — everything the checker holds
/// besides the model itself, keyed to the exact lineage position it is
/// sized for.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CheckerState {
    pub model_id: u64,
    pub revision: u64,
    pub visible: Vec<bool>,
    pub probs: Vec<f64>,
    pub arrival_seq: Vec<u64>,
    pub compactions: u64,
    pub arrivals: u64,
    pub policy: RetentionPolicy,
    pub online: OnlineEmState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crf::graph::{CrfModel, ModelDelta, Stance};

    fn model() -> (Arc<CrfModel>, Vec<bool>) {
        let ds = factdb::DatasetPreset::WikiMini.generate();
        (Arc::new(ds.db.to_crf_model().unwrap()), ds.truth)
    }

    fn checker(m: Arc<CrfModel>) -> StreamingChecker {
        StreamingChecker::try_new(m, OnlineEmConfig::default()).unwrap()
    }

    #[test]
    fn arrivals_become_visible_in_order() {
        let (m, _) = model();
        let mut s = checker(m);
        assert!(s.visible_claims().is_empty());
        s.arrive(VarId(3));
        s.arrive(VarId(0));
        assert_eq!(s.visible_claims(), vec![VarId(0), VarId(3)]);
        assert_eq!(s.arrivals(), 2);
    }

    #[test]
    fn unseen_claims_stay_at_half() {
        let (m, _) = model();
        let mut s = checker(m.clone());
        s.arrive(VarId(0));
        for c in 1..m.n_claims() {
            assert_eq!(s.probs()[c], 0.5, "claim {c} should be untouched");
        }
    }

    /// Streaming over labelled arrivals learns parameters that classify
    /// later claims better than chance. Uses the healthcare preset, whose
    /// source features carry the strongest signal — a label *prefix*
    /// (rather than guided label placement) is enough there.
    #[test]
    fn labelled_stream_learns() {
        let ds = factdb::DatasetPreset::HealthMini.generate();
        let (m, truth) = (Arc::new(ds.db.to_crf_model().unwrap()), ds.truth);
        let n = m.n_claims();
        let mut s = checker(m.clone());
        // First 60% arrive labelled; the rest self-estimated.
        let split = n * 6 / 10;
        for (c, &t) in truth.iter().enumerate().take(split) {
            s.arrive_labelled(VarId(c as u32), t);
        }
        let mut correct = 0;
        for (c, &t) in truth.iter().enumerate().take(n).skip(split) {
            s.arrive(VarId(c as u32));
            if (s.probs()[c] >= 0.5) == t {
                correct += 1;
            }
        }
        let acc = correct as f64 / (n - split) as f64;
        // The stream sees each claim exactly once and never revisits it —
        // §7 calls these one-shot estimates "educated guesses"; better than
        // chance is the contract, offline-grade accuracy is not.
        assert!(acc > 0.5, "streaming accuracy {acc}");
    }

    #[test]
    fn parameter_exchange_roundtrip() {
        let (m, _) = model();
        let mut s = checker(m.clone());
        let mut icrf = Icrf::new(m, crf::IcrfConfig::default());
        icrf.run();
        s.exchange_from(&icrf);
        assert_eq!(s.weights().as_slice(), icrf.weights().as_slice());
        s.arrive(VarId(0));
        s.feed_into(&mut icrf);
        assert_eq!(icrf.weights().as_slice(), s.weights().as_slice());
    }

    /// An invalid step schedule surfaces as a config error from `try_new`
    /// instead of a panic on the first arrival.
    #[test]
    fn invalid_schedule_propagates_as_config_error() {
        let (m, _) = model();
        let config = OnlineEmConfig {
            schedule: crate::online_em::StepSchedule {
                kappa: 0.1,
                t0: 1.0,
            },
            ..Default::default()
        };
        assert!(matches!(
            StreamingChecker::try_new(m, config),
            Err(crate::online_em::OnlineEmError::InvalidKappa(_))
        ));
    }

    #[test]
    fn update_stats_have_positive_gamma() {
        let (m, _) = model();
        let mut s = checker(m);
        let st = s.arrive(VarId(1));
        assert!(st.gamma > 0.0);
        assert!(st.retained_instances > 0);
    }

    // ------------------------------------------- true streaming ingestion

    fn seed_handle() -> ModelHandle {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.8]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.6]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        ModelHandle::new(CrfModel::build(b).unwrap())
    }

    /// `arrive_new` grows the graph in place: the new claim is visible,
    /// estimated, and the online objective was updated — while the
    /// lineage's `model_id` survives and the revision advances.
    #[test]
    fn arrive_new_grows_and_estimates() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle.clone(), OnlineEmConfig::default()).unwrap();
        let id = s.model().model_id();

        let mut delta = s.delta();
        let src = delta.add_source(&[0.3]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.2]).unwrap();
        delta.add_clique(c, d, src, Stance::Support);
        let stats = s.arrive_new(delta).unwrap();
        assert!(stats.gamma > 0.0);
        assert!(stats.retained_instances > 0);

        assert_eq!(s.model().n_claims(), 2);
        assert_eq!(s.model().model_id(), id);
        assert_eq!(s.model().revision(), crf::Revision(1));
        assert_eq!(s.visible_claims(), vec![VarId(1)]);
        assert_eq!(s.arrivals(), 1);
        assert!((0.0..=1.0).contains(&s.probs()[1]));
        // The handle observed the same growth.
        assert_eq!(handle.revision(), crf::Revision(1));
    }

    /// When the checker is the only snapshot holder, `arrive_new` grows
    /// the model strictly in place: the pin is released around `apply`, so
    /// `Arc::make_mut` never has to copy the model on the checker's
    /// account (the allocation survives the growth).
    #[test]
    fn arrive_new_grows_in_place_without_copy() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle, OnlineEmConfig::default()).unwrap();
        let ptr = Arc::as_ptr(s.model());
        let mut delta = s.delta();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.2]).unwrap();
        delta.add_clique(c, d, 0, Stance::Support);
        s.arrive_new(delta).unwrap();
        assert_eq!(
            Arc::as_ptr(s.model()),
            ptr,
            "checker-only growth must splice in place, not copy the model"
        );
        assert_eq!(s.model().n_claims(), 2);
    }

    /// A stale delta (prepared before another delta landed) is rejected
    /// without corrupting the checker.
    #[test]
    fn arrive_new_rejects_stale_delta() {
        let mut s = StreamingChecker::try_new(seed_handle(), OnlineEmConfig::default()).unwrap();
        let stale = s.delta();
        let mut first = s.delta();
        first.add_claim();
        s.arrive_new(first).unwrap();
        let mut stale = stale;
        stale.add_claim();
        assert!(matches!(
            s.arrive_new(stale),
            Err(ModelError::StaleDelta { .. })
        ));
        assert_eq!(s.model().n_claims(), 2);
        assert_eq!(s.arrivals(), 1);
    }

    /// New evidence about an *old* claim (a fresh document, no new claim)
    /// still updates the online parameters.
    #[test]
    fn arrive_new_accepts_evidence_for_old_claims() {
        let mut s = StreamingChecker::try_new(seed_handle(), OnlineEmConfig::default()).unwrap();
        let mut delta = s.delta();
        let d = delta.add_document(&[0.1]).unwrap();
        delta.add_clique(VarId(0), d, 0, Stance::Refute);
        let stats = s.arrive_new(delta).unwrap();
        assert_eq!(s.arrivals(), 0, "no claim arrived — only evidence");
        assert!(stats.retained_instances > 0);
        assert_eq!(s.model().cliques().len(), 2);
    }

    /// One synthetic arrival: a fresh claim with one document from a fresh
    /// source.
    fn ingest_one(s: &mut StreamingChecker, k: usize) -> ArrivalStats {
        let mut delta = s.delta();
        let src = delta.add_source(&[0.1 + (k % 7) as f64 * 0.1]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.2 + (k % 5) as f64 * 0.1]).unwrap();
        delta.add_clique(c, d, src, Stance::Support);
        s.arrive_new(delta).unwrap()
    }

    /// The tentpole behaviour: under a sliding window the live set — and,
    /// through deferred compaction, the backing arrays — plateau instead
    /// of growing with the stream, while the lineage id survives and the
    /// telemetry reports the retire/compact traffic.
    #[test]
    fn sliding_window_bounds_model_size() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle.clone(), OnlineEmConfig::default())
            .unwrap()
            .with_retention(RetentionPolicy::sliding_window(5));
        let id = handle.model_id();
        let mut total_retired = 0;
        let mut compactions_seen = 0;
        for k in 0..40 {
            let stats = ingest_one(&mut s, k);
            total_retired += stats.retired_claims;
            compactions_seen += usize::from(stats.compacted);
            let m = s.model();
            // Live set bounded by the window (+1 for the immortal seed
            // claim that never arrived).
            assert!(
                m.n_live_claims() <= 6,
                "arrival {k}: {} live claims",
                m.n_live_claims()
            );
            // The arrays themselves plateau: live / (1 - threshold) + the
            // current sweep's tombstones.
            assert!(
                m.n_claims() <= 10,
                "arrival {k}: arrays grew to {} claims",
                m.n_claims()
            );
            assert!(
                m.n_docs() <= 12,
                "arrival {k}: {} docs retained",
                m.n_docs()
            );
        }
        assert_eq!(
            handle.model_id(),
            id,
            "lineage survives the whole lifecycle"
        );
        assert!(total_retired >= 30, "retired only {total_retired}");
        assert!(compactions_seen >= 2, "compacted only {compactions_seen}x");
        assert_eq!(
            s.model().ingested_claims(),
            1 + 40,
            "lifetime counter keeps history"
        );
        assert!(s.visible_claims().len() <= 6);
        // The online estimator is unaffected: parameters stay finite.
        assert!(s.weights().as_slice().iter().all(|w| w.is_finite()));
    }

    /// A live-claim cap retires the oldest arrivals first.
    #[test]
    fn max_claims_cap_retires_oldest_first() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle, OnlineEmConfig::default())
            .unwrap()
            .with_retention(RetentionPolicy {
                max_live_claims: Some(4),
                compact_threshold: 1.0, // never compact: ids stay stable
                ..RetentionPolicy::unbounded()
            });
        for k in 0..6 {
            ingest_one(&mut s, k);
        }
        let m = s.model().clone();
        assert_eq!(m.n_live_claims(), 4);
        // The sweep runs per arrival, so the three oldest arrivals (claims
        // 1–3) have expired; the seed claim 0 never arrived and is not the
        // stream's to retire.
        assert!(m.claim_live(0));
        assert!((1..4).all(|c| !m.claim_live(c)));
        assert!((4..7).all(|c| m.claim_live(c)));
        assert_eq!(s.visible_claims(), vec![VarId(4), VarId(5), VarId(6)]);
    }

    /// `expire_old` works on demand, retires orphaned sources with their
    /// claims, and compacts past the threshold — relocating the checker's
    /// own per-claim state through the remap.
    #[test]
    fn expire_old_retires_compacts_and_relocates() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle.clone(), OnlineEmConfig::default()).unwrap();
        for k in 0..6 {
            ingest_one(&mut s, k);
        }
        assert_eq!(s.model().n_claims(), 7);
        let nothing = s.expire_old().unwrap();
        assert_eq!(
            nothing,
            ExpiryStats::default(),
            "unbounded policy is a no-op"
        );

        s.set_retention(RetentionPolicy {
            window: Some(2),
            compact_threshold: 0.1,
            ..RetentionPolicy::unbounded()
        });
        let stats = s.expire_old().unwrap();
        assert_eq!(
            stats.retired_claims, 4,
            "arrivals 1-4 of 6 are outside the window"
        );
        assert_eq!(
            stats.retired_sources, 4,
            "their sources served nothing else"
        );
        assert!(stats.compacted);
        let m = s.model().clone();
        assert!(!m.has_tombstones(), "compaction reclaimed the tombstones");
        assert_eq!(m.n_claims(), 3, "seed claim + the last two arrivals");
        assert_eq!(m.compactions(), 1);
        // The survivors' visibility and probabilities relocated.
        assert_eq!(s.visible_claims().len(), 2);
        assert!(s.probs().iter().all(|p| (0.0..=1.0).contains(p)));
        // The stream keeps flowing on the compacted model (the sweep rides
        // on the ingest, so the window keeps sliding).
        let st = ingest_one(&mut s, 99);
        assert!(st.retained_instances > 0);
        assert_eq!(
            s.model().n_live_claims(),
            3,
            "seed + the window's two claims"
        );
    }

    /// A checker that outran the single retained remap (two compactions by
    /// another holder between its calls) resets its per-claim state — but
    /// the surviving claims must stay evictable, or the bounded-memory
    /// promise silently erodes.
    #[test]
    fn double_compaction_reset_keeps_claims_evictable() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle.clone(), OnlineEmConfig::default()).unwrap();
        for k in 0..5 {
            ingest_one(&mut s, k);
        }
        // Another holder retires + compacts twice, unseen by the checker.
        for _ in 0..2 {
            let mut set = handle.retire_set();
            set.retire_claim(VarId(1));
            handle.retire(set).unwrap();
            handle.compact().unwrap();
        }
        assert_eq!(handle.snapshot().compactions(), 2);
        s.set_retention(RetentionPolicy {
            max_live_claims: Some(2),
            compact_threshold: 1.0,
            ..RetentionPolicy::unbounded()
        });
        let stats = s.expire_old().unwrap();
        assert_eq!(
            stats.retired_claims, 2,
            "post-reset live claims must remain cap-evictable"
        );
        assert_eq!(s.model().n_live_claims(), 2);
    }

    /// Retirement done by the checker is visible to an offline engine
    /// sharing the handle — and vice versa the engine keeps inferring on
    /// the survivors.
    #[test]
    fn expired_claims_leave_the_offline_engine() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle.clone(), OnlineEmConfig::default())
            .unwrap()
            .with_retention(RetentionPolicy {
                window: Some(3),
                compact_threshold: 0.3,
                ..RetentionPolicy::unbounded()
            });
        let mut icrf = Icrf::new(handle.clone(), crf::IcrfConfig::default());
        icrf.run();
        for k in 0..8 {
            ingest_one(&mut s, k);
            if k % 3 == 2 {
                icrf.run(); // engine periodically syncs through the lifecycle
            }
        }
        icrf.run();
        assert_eq!(icrf.probs().len(), handle.snapshot().n_claims());
        assert_eq!(icrf.partition().n_claims(), icrf.probs().len());
        assert!(
            handle.snapshot().n_claims() < 9,
            "retention kept the model small"
        );
    }

    /// The growth is shared: an offline engine holding a clone of the
    /// handle sees the ingested claims on its next inference and can label
    /// them.
    #[test]
    fn ingested_claims_reach_the_offline_engine() {
        let handle = seed_handle();
        let mut s = StreamingChecker::try_new(handle.clone(), OnlineEmConfig::default()).unwrap();
        let mut icrf = Icrf::new(handle, crf::IcrfConfig::default());
        icrf.run();
        let mut delta = s.delta();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.4]).unwrap();
        delta.add_clique(c, d, 0, Stance::Support);
        s.arrive_new(delta).unwrap();
        icrf.run();
        assert_eq!(icrf.probs().len(), 2);
        icrf.set_label(c, true);
        icrf.run();
        assert_eq!(icrf.probs()[c.idx()], 1.0);
        // Parameter exchange still lines up (feature dim unchanged).
        s.exchange_from(&icrf);
        s.feed_into(&mut icrf);
    }
}
