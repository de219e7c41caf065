//! The incremental `iCRF` inference algorithm (§3.2).
//!
//! `iCRF` adopts the Expectation–Maximisation principle: the E-step draws
//! Gibbs samples of the unlabelled claim configuration under the current
//! parameters (Eq. 6–7), and the M-step re-estimates the log-linear weights
//! by maximising the expected complete-data log-likelihood (Eq. 8) with the
//! damped Newton solver. The *incremental* aspect — the view-
//! maintenance principle the paper highlights — is that an [`Icrf`] value is
//! long-lived: each call to [`Icrf::run`] starts from the weights,
//! probabilities, and sample set of the previous validation iteration
//! instead of from scratch, so one new user label only perturbs an almost-
//! converged state (typically 1–2 EM iterations instead of dozens).
//!
//! The information-gain guidance strategies score each candidate under a
//! hypothetical label. What they read of the hypothetical state — claim
//! marginals and the final sample set — comes from its first E-step, so
//! [`Icrf::hypothetical_estep`] runs just that E-step on borrowed model,
//! partition, and weights, copying only the labels and probabilities, and
//! reuses one caller-owned Gibbs scratch across hypotheses. A full
//! hypothetical engine ([`Icrf::hypothetical`] plus [`Icrf::run`]) remains
//! for callers that need the re-estimated weights or several EM
//! iterations, and as the executable spec of the borrowed E-step.
//!
//! Both paths start warm. The engine's Gibbs scratch is synced to its
//! snapshot after every run; a clone carries it, and
//! [`Icrf::estep_scratch`] hands a copy to scoring workers. A cold scratch
//! first sums the per-claim evidence, one pass over the live cliques.
//!
//! # Streaming growth
//!
//! The engine pins one `Arc<CrfModel>` and edits nothing. When a streaming
//! ingester that owns the lineage grows the factor graph
//! ([`crate::graph::ModelDelta`]), the caller hands the engine the
//! ingester's current model through [`Icrf::sync_to`], which carries the
//! warm state forward — new claims start at the maximum-entropy
//! probability 0.5, and the weights, labels, and probabilities of
//! pre-existing claims are untouched. What EM reads of the model is
//! computed afresh per snapshot: the partition ([`Partition::of_model`], a
//! single union pass over the live source rows, well under a millisecond
//! at Snopes scale) once per changed model here, the per-clique training
//! set of the M-step on the next run, and the per-claim evidence
//! (`potentials::ClaimEvidence`, one pass over the live cliques) in the
//! Gibbs scratch on the next E-step.

use crate::bitset::Bitset;
use crate::gibbs::{GibbsConfig, GibbsResult, GibbsSampler, GibbsScratch};
use crate::graph::{CrfModel, ModelError, Since, Stance, SyncPoint, VarId};
use crate::logistic::{Dataset, LogisticObjective};
use crate::newton::{self, NewtonScratch};
use crate::partition::Partition;
use crate::potentials::{clique_features, Weights, TRUST_PRIOR};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The checkpointable warm state of an [`Icrf`] engine: everything `run`
/// carries between calls that cannot be recomputed from the model alone —
/// weights, probabilities, labels, and the epoch counter feeding the Gibbs
/// seed stream. Tied to the `(model_id, revision)` the arrays are sized
/// for; [`Icrf::restore_state`] refuses a state captured against different
/// model content. The sample set, partition, and scratch buffers are *not*
/// part of the state: they are deterministically regenerated by the next
/// [`Icrf::run`], which is why restoring a state and re-running yields
/// bit-identical samples and marginals to an engine that never stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IcrfState {
    /// Lineage id of the model the state was captured against.
    pub model_id: u64,
    /// Revision the arrays are sized for.
    pub revision: u64,
    /// Log-linear weights (exact bits).
    pub weights: Weights,
    /// Per-claim credibility probabilities (exact bits).
    pub probs: Vec<f64>,
    /// Per-claim user labels.
    pub labels: Vec<Option<bool>>,
    /// Inference-call counter: the Gibbs seed stream position.
    pub epoch: u64,
}

/// EM has converged when the M-step moves the weight vector less than
/// this (Euclidean) and no claim probability moved more than [`PROB_TOL`].
const WEIGHT_TOL: f64 = 1e-3;
/// See [`WEIGHT_TOL`].
const PROB_TOL: f64 = 5e-3;

/// Configuration of the EM loop.
#[derive(Debug, Clone)]
pub struct IcrfConfig {
    /// Maximum EM iterations per inference call. The incremental design
    /// means small values suffice after the first call.
    pub max_em_iters: usize,
    /// L2 regularisation strength of the M-step.
    pub lambda: f64,
    /// E-step sampler settings.
    pub gibbs: GibbsConfig,
}

impl Default for IcrfConfig {
    fn default() -> Self {
        IcrfConfig {
            max_em_iters: 4,
            lambda: 1.0,
            gibbs: GibbsConfig::default(),
        }
    }
}

/// Aggregate statistics of one inference call.
#[derive(Debug, Clone, Default)]
pub struct IcrfStats {
    /// EM iterations executed.
    pub em_iterations: usize,
    /// Total Newton iterations across all M-steps (the name is the
    /// paper's solver, TRON, which this one replaces).
    pub tron_iterations: usize,
    /// Total Gibbs sweeps across all E-steps.
    pub gibbs_sweeps: usize,
    /// Whether the loop stopped on the tolerance criteria (vs. iteration cap).
    pub converged: bool,
    /// Connected components of the claim graph (the units the
    /// component-aware E-step scheduler parallelises over).
    pub components: usize,
    /// Claims in the largest connected component.
    pub largest_component: usize,
    /// Always 0. The E-step no longer keeps weight-keyed state it could
    /// patch incrementally; the field stays only because the end-to-end
    /// benchmark still reads it (`crf.cache_incremental_share`), and it
    /// goes with that metric.
    pub cache_incremental: usize,
}

/// Long-lived hot-path buffers threaded through every E- and M-step.
///
/// The engine is called once per validation iteration (hundreds of times per
/// session) and each call runs several EM iterations; everything sized by
/// the model — the Gibbs scratch with its per-claim evidence, the Newton
/// solver vectors, the per-clique training set, and the per-source trust
/// vector — is allocated once here and reused. The training set is
/// special: its static feature prefix (`[1, f^D, f^S]` per clique) is
/// fixed for one model snapshot, so it is filled once per snapshot and
/// every M-step patches only the dynamic trust column and the
/// per-instance targets in place.
///
/// A cloned engine ([`Icrf::hypothetical`]) carries all of it, the Gibbs
/// scratch included: it is synced to the snapshot the clone shares, so the
/// clone's first E-step finds the claim evidence already built.
#[derive(Debug, Clone, Default)]
struct InferenceScratch {
    gibbs: GibbsScratch,
    newton: NewtonScratch,
    dataset: Dataset,
    /// The model state the training set's static prefix was filled from.
    dataset_synced: SyncPoint,
    trust: Vec<f64>,
}

/// The incremental inference engine: owns the mutable model state
/// (weights, probabilities, labels, last sample set).
#[derive(Debug, Clone)]
pub struct Icrf {
    /// Snapshot pinned at the revision the engine state is sized for;
    /// moved forward by [`Icrf::sync_to`].
    model: Arc<CrfModel>,
    partition: Arc<Partition>,
    config: IcrfConfig,
    weights: Weights,
    probs: Vec<f64>,
    labels: Vec<Option<bool>>,
    last_samples: Vec<Bitset>,
    /// Distinct seed stream per inference call so successive calls do not
    /// replay identical chains.
    epoch: u64,
    scratch: InferenceScratch,
}

impl Icrf {
    /// Fresh engine: weights zero, every claim at probability 0.5
    /// (the maximum-entropy initialisation of §8.1).
    ///
    /// Accepts a bare [`CrfModel`] or a shared `Arc<CrfModel>`.
    pub fn new(model: impl Into<Arc<CrfModel>>, config: IcrfConfig) -> Self {
        let model = model.into();
        let n = model.n_claims();
        let partition = Arc::new(Partition::of_model(&model));
        Icrf {
            model,
            partition,
            config,
            weights: Weights::zeros(0),
            probs: vec![0.5; n],
            labels: vec![None; n],
            last_samples: Vec::new(),
            epoch: 0,
            scratch: InferenceScratch::default(),
        }
    }

    /// The engine's snapshot of the model, pinned at the revision its
    /// probabilities, labels, and partition are sized for. Call
    /// [`Self::sync_to`] to move it to a later state of the lineage.
    pub fn model(&self) -> &Arc<CrfModel> {
        &self.model
    }

    /// Always `false`: the engine edits nothing and follows no other
    /// writer on its own, so there is never anything to pick up. Kept for
    /// the end-to-end benchmark's replica of the validation step; use
    /// [`Self::sync_to`] to follow a lineage another component edits.
    pub fn sync(&mut self) -> bool {
        false
    }

    /// Move the engine to `model`, a later state of its lineage (the
    /// current model of the streaming checker that owns it). Returns
    /// `true` when the model changed. Per-claim state is carried forward
    /// across the whole lifecycle ([`CrfModel::since`] decides):
    ///
    /// * **Growth** — new claims enter at probability 0.5 / unlabelled.
    /// * **Retirement** — tombstoned claims drop their label and
    ///   probability (they are out of service), and their training rows go
    ///   to weight zero on the next M-step.
    /// * **Compaction** — probabilities and labels are *relocated* through
    ///   the published [`crate::graph::IdRemap`]. Claims grown in the gap
    ///   before the compaction enter as growth.
    ///
    /// In every case the partition is recomputed from the new snapshot
    /// with [`Partition::of_model`]: one union pass over the live source
    /// rows, about 0.4 ms at 10k claims and 0.6 ms at Snopes scale. The
    /// M-step's training set is rebuilt from the new snapshot on the next
    /// [`Self::run`].
    ///
    /// The weights and all surviving per-claim state are untouched in every
    /// case. The stale sample set is dropped (its bitsets have the old
    /// claim width) and regenerated by the next E-step. A lineage that
    /// compacted twice between syncs outruns the single retained remap; the
    /// engine then rebuilds its per-claim state from scratch (weights
    /// kept).
    pub fn sync_to(&mut self, model: Arc<CrfModel>) -> bool {
        let old = std::mem::replace(&mut self.model, model);
        let n = self.model.n_claims();
        let retired = match self.model.since(old.sync_point()) {
            Since::Unchanged => return false,
            Since::Patch { retired, .. } => {
                self.probs.resize(n, 0.5);
                self.labels.resize(n, None);
                retired
            }
            Since::Relocate { remap, retired } => {
                // Per-claim state through the remap; unseen claims enter
                // fresh.
                self.probs = remap.relocate(&self.probs, n, 0.5);
                self.labels = remap.relocate(&self.labels, n, None);
                retired
            }
            Since::Rebuild => {
                // Outran the single retained remap: rebuild per-claim state
                // (weights survive — the feature space is unchanged).
                self.probs = vec![0.5; n];
                self.labels = vec![None; n];
                false
            }
        };
        if retired {
            for c in (0..n).filter(|&c| !self.model.claim_live(c)) {
                self.probs[c] = 0.0;
                self.labels[c] = None;
            }
        }
        self.partition = Arc::new(Partition::of_model(&self.model));
        self.last_samples.clear();
        true
    }

    /// The connected-component partition of the claim graph.
    pub fn partition(&self) -> &Arc<Partition> {
        &self.partition
    }

    /// Current credibility probabilities `P(c)` per claim.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Current user labels (`None` = unvalidated).
    pub fn labels(&self) -> &[Option<bool>] {
        &self.labels
    }

    /// Current log-linear weights.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Replace the weights (used by the streaming algorithm to feed back
    /// online-estimated parameters, Alg. 2 line 10).
    pub fn set_weights(&mut self, weights: Weights) {
        self.weights = weights;
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut IcrfConfig {
        &mut self.config
    }

    /// The configuration.
    pub fn config(&self) -> &IcrfConfig {
        &self.config
    }

    /// Samples `Ω*` of the most recent E-step (drives grounding, Eq. 10).
    pub fn last_samples(&self) -> &[Bitset] {
        &self.last_samples
    }

    /// A copy of the engine's Gibbs scratch, synced to the snapshot its
    /// last E-step sampled: the warm start for scoring hypotheses through
    /// [`Self::hypothetical_estep`]. A scratch may be reused at any weights
    /// and labels without changing a bit of the output, so a copy only
    /// saves the rebuild of the claim evidence and the component schedule.
    pub fn estep_scratch(&self) -> GibbsScratch {
        self.scratch.gibbs.clone()
    }

    /// Number of labelled claims `|C^L|`.
    pub fn n_labelled(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Record user input on a claim: pins its probability to 0/1 and moves
    /// it from `C^U` to `C^L`.
    pub fn set_label(&mut self, claim: VarId, value: bool) {
        self.labels[claim.idx()] = Some(value);
        self.probs[claim.idx()] = if value { 1.0 } else { 0.0 };
    }

    /// Remove a label (used by k-fold cross-validation, §6.1, and the
    /// confirmation check, §5.2). The probability reverts to 0.5 until the
    /// next inference call.
    pub fn clear_label(&mut self, claim: VarId) {
        self.labels[claim.idx()] = None;
        self.probs[claim.idx()] = 0.5;
    }

    /// Cheap hypothetical copy with one extra label pinned; the basis of the
    /// information-gain computations (Eq. 14, 19). The copy carries the
    /// engine's warm Gibbs scratch, so its first E-step does not rebuild
    /// the claim evidence.
    pub fn hypothetical(&self, claim: VarId, value: bool) -> Icrf {
        let mut h = self.clone();
        h.set_label(claim, value);
        h
    }

    /// Capture the checkpointable warm state (see [`IcrfState`]), sized
    /// for the engine's model revision — the revision a checkpoint
    /// records.
    pub fn export_state(&self) -> IcrfState {
        IcrfState {
            model_id: self.model.model_id(),
            revision: self.model.revision().0,
            weights: self.weights.clone(),
            probs: self.probs.clone(),
            labels: self.labels.clone(),
            epoch: self.epoch,
        }
    }

    /// Restore a previously exported warm state. `state` must have been
    /// captured against exactly the engine's `(model_id, revision)` —
    /// restoring into different model content is refused with
    /// [`ModelError::StaleDelta`] and leaves the engine untouched. After a
    /// successful restore the next [`Self::run`] is bit-identical to the
    /// run the original engine would have produced (same warm arrays, same
    /// epoch, regenerated partition/samples — see [`IcrfState`]).
    pub fn restore_state(&mut self, state: IcrfState) -> Result<(), ModelError> {
        if state.model_id != self.model.model_id() || state.revision != self.model.revision().0 {
            return Err(ModelError::StaleDelta {
                delta_model_id: state.model_id,
                delta_revision: state.revision,
                model_id: self.model.model_id(),
                model_revision: self.model.revision().0,
            });
        }
        debug_assert_eq!(state.probs.len(), self.model.n_claims());
        self.weights = state.weights;
        self.probs = state.probs;
        self.labels = state.labels;
        self.epoch = state.epoch;
        self.last_samples.clear();
        Ok(())
    }

    /// Smoothed per-source trust values derived from the current claim
    /// probabilities, used for the M-step feature assembly.
    pub fn source_trust(&self) -> Vec<f64> {
        source_trust_from_probs(&self.model, &self.probs)
    }

    /// Run EM to convergence (bounded by `max_em_iters`), warm-starting from
    /// the previous state. Returns aggregate statistics.
    ///
    /// The hot path allocates nothing in steady state: the Gibbs scratch,
    /// the Newton solver buffers, and the per-clique training set all
    /// live in the engine and are reused across EM iterations *and* across
    /// calls (see the `InferenceScratch` internals).
    pub fn run(&mut self) -> IcrfStats {
        let dim = self.model.feature_dim();
        if self.weights.dim() != dim {
            self.weights = Weights::zeros(dim);
        }
        let mut stats = IcrfStats {
            components: self.partition.len(),
            largest_component: self.partition.max_component_size(),
            ..IcrfStats::default()
        };
        self.ensure_dataset();
        self.epoch += 1;

        // Lent to the E-step helper, which borrows the rest of the engine.
        let mut gibbs = std::mem::take(&mut self.scratch.gibbs);
        for l in 0..self.config.max_em_iters {
            stats.em_iterations += 1;

            // ---- E-step: Gibbs sampling under the current weights.
            let GibbsResult {
                samples,
                marginals,
                sweeps,
            } = self.estep(
                self.epoch,
                l,
                &self.weights,
                &self.labels,
                &self.probs,
                &mut gibbs,
            );
            stats.gibbs_sweeps += sweeps;

            let max_prob_change = marginals
                .iter()
                .zip(&self.probs)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            self.probs = marginals;
            self.last_samples = samples;

            // ---- M-step: weighted logistic regression by Newton (Eq. 8).
            // Only the dynamic trust column and the per-instance targets
            // change between iterations; the static feature prefix was
            // written for this snapshot by `ensure_dataset`.
            source_trust_into(&self.model, &self.probs, &mut self.scratch.trust);
            let trust_col = dim - 1;
            for (i, clique) in self.model.cliques().iter().enumerate() {
                self.scratch.dataset.row_mut(i)[trust_col] =
                    self.scratch.trust[clique.source as usize] - 0.5;
                // Unlabelled claims use *damped* marginals as targets: pure
                // self-training targets let an early wrong guess reinforce
                // itself into a confidently-wrong cluster; shrinking them
                // towards 1/2 keeps the unlabelled contribution calibrated
                // while labelled claims carry full-strength targets.
                let p = match self.labels[clique.claim.idx()] {
                    Some(_) => self.probs[clique.claim.idx()],
                    None => 0.5 + 0.7 * (self.probs[clique.claim.idx()] - 0.5),
                };
                let target = match clique.stance {
                    Stance::Support => p,
                    Stance::Refute => 1.0 - p,
                };
                // Labelled claims anchor the regression with much more
                // mass, making user input a first-class citizen of
                // inference: without this, the self-training loop (targets
                // are the model's own marginals) can lock into an inverted
                // interpretation of the features early on. Tombstoned
                // cliques carry zero mass — retired evidence must not
                // steer the weights (their rows are dropped for good at
                // the next compaction).
                let weight = if !self.model.clique_live(i) {
                    0.0
                } else if self.labels[clique.claim.idx()].is_some() {
                    5.0
                } else {
                    1.0
                };
                self.scratch.dataset.set_instance(i, target, weight);
            }
            let obj = LogisticObjective::new(&self.scratch.dataset, self.config.lambda);
            let res = newton::solve(&obj, self.weights.as_mut_slice(), &mut self.scratch.newton);
            stats.tron_iterations += res.iterations;

            if res.step_norm < WEIGHT_TOL && max_prob_change < PROB_TOL {
                stats.converged = true;
                break;
            }
        }
        self.scratch.gibbs = gibbs;
        stats
    }

    /// The E-step of EM iteration `l` of the inference call numbered
    /// `epoch`: component-scheduled Gibbs sampling under `weights`
    /// (Eq. 6–7, §5.1). The scheduler parallelises across chains *and*
    /// across connected components within each chain; `scratch` keeps the
    /// per-claim evidence until the model changes, and the weights enter
    /// only as one dot product per claim. The seed rule lives here
    /// alone, so [`Self::run`] and [`Self::hypothetical_estep`] draw the
    /// same chains for the same `(epoch, l)`.
    fn estep(
        &self,
        epoch: u64,
        l: usize,
        weights: &Weights,
        labels: &[Option<bool>],
        probs: &[f64],
        scratch: &mut GibbsScratch,
    ) -> GibbsResult {
        let mut gcfg = self.config.gibbs.clone();
        gcfg.seed = gcfg
            .seed
            .wrapping_add(epoch.wrapping_mul(0x9e37_79b9))
            .wrapping_add(l as u64);
        GibbsSampler::new(&self.model, gcfg).run_scheduled(
            weights,
            labels,
            probs,
            &self.partition,
            scratch,
        )
    }

    /// The first E-step that `self.hypothetical(claim, value).run()` would
    /// run, without cloning the engine and without the M-step that follows
    /// it: the model, partition, and weights are borrowed, and only the
    /// labels and probabilities are copied to pin the hypothetical label.
    /// The result's `marginals` and `samples` equal the probabilities and
    /// [`Self::last_samples`] of that hypothetical engine after a one-
    /// iteration run, bit for bit.
    ///
    /// `scratch` is the caller's: every hypothesis scored against one
    /// engine state shares its model, so a scratch seeded from
    /// [`Self::estep_scratch`] finds the per-claim evidence already built on
    /// the first call, and any scratch keeps it after its first call. Which scratch is passed never changes a bit
    /// of the result.
    ///
    /// An engine that has never run infers under zero weights, as
    /// [`Self::run`] does. A scratch last used on an older snapshot syncs
    /// forward from it ([`CrfModel::since`]).
    pub fn hypothetical_estep(
        &self,
        claim: VarId,
        value: bool,
        scratch: &mut GibbsScratch,
    ) -> GibbsResult {
        let mut labels = self.labels.clone();
        let mut probs = self.probs.clone();
        labels[claim.idx()] = Some(value);
        probs[claim.idx()] = if value { 1.0 } else { 0.0 };
        self.next_estep(&labels, &probs, scratch)
    }

    /// The first E-step the next [`Self::run`] of this engine would run
    /// if it held `labels` and `probs`: seeded for the next epoch, under
    /// zero weights if the engine has never run.
    fn next_estep(
        &self,
        labels: &[Option<bool>],
        probs: &[f64],
        scratch: &mut GibbsScratch,
    ) -> GibbsResult {
        let dim = self.model.feature_dim();
        let zeros;
        let weights = if self.weights.dim() == dim {
            &self.weights
        } else {
            zeros = Weights::zeros(dim);
            &zeros
        };
        self.estep(self.epoch + 1, 0, weights, labels, probs, scratch)
    }

    /// Bring the training set to the engine's snapshot: a no-op when it is
    /// unchanged since the last fill, otherwise one row per clique with its
    /// static feature prefix, rebuilt whole. The trust column is
    /// overwritten before every solve, so its initial value is irrelevant.
    fn ensure_dataset(&mut self) {
        if self.model.since(self.scratch.dataset_synced) == Since::Unchanged {
            return;
        }
        let dim = self.model.feature_dim();
        let mut dataset = Dataset::new(dim);
        let mut row = vec![0.0; dim];
        for clique in self.model.cliques() {
            clique_features(&self.model, clique, 0.5, &mut row);
            dataset.push(&row, 0.5, 1.0);
        }
        self.scratch.dataset = dataset;
        self.scratch.dataset_synced = self.model.sync_point();
    }
}

/// Smoothed fraction of each source's claims currently believed credible:
/// `τ(s) = (a + Σ_{c∈C_s} P(c)) / (a + b + |C_s|)`.
pub fn source_trust_from_probs(model: &CrfModel, probs: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    source_trust_into(model, probs, &mut out);
    out
}

/// Allocation-free form of [`source_trust_from_probs`]: writes one trust
/// value per source into `out` (cleared first, allocation reused).
/// Tombstoned claims are excluded from both the numerator and the
/// denominator, so a source's trust reflects only its in-service claims.
pub fn source_trust_into(model: &CrfModel, probs: &[f64], out: &mut Vec<f64>) {
    let (a, b) = TRUST_PRIOR;
    out.clear();
    if !model.has_tombstones() {
        out.extend((0..model.n_sources() as u32).map(|s| {
            let claims = model.claims_of_source(s);
            let sum: f64 = claims.iter().map(|&c| probs[c as usize]).sum();
            (a + sum) / (a + b + claims.len() as f64)
        }));
        return;
    }
    out.extend((0..model.n_sources() as u32).map(|s| {
        let sum: f64 = model
            .claims_of_source(s)
            .iter()
            .filter(|&&c| model.claim_live(c as usize))
            .map(|&c| probs[c as usize])
            .sum();
        (a + sum) / (a + b + model.n_live_claims_of_source(s) as f64)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrfModel, ModelDelta, RetireSet, Stance};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A model where source feature 0 is a perfect trustworthiness signal:
    /// trustworthy sources support true claims, untrustworthy sources
    /// support false claims.
    fn signal_model(n_claims: usize, seed: u64) -> (Arc<CrfModel>, Vec<bool>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = ModelDelta::new(1, 1);
        let good = b.add_source(&[1.0]).unwrap();
        let bad = b.add_source(&[-1.0]).unwrap();
        let mut truth = Vec::new();
        for i in 0..n_claims {
            let c = b.add_claim();
            let t = i % 2 == 0;
            truth.push(t);
            for _ in 0..2 {
                let d = b.add_document(&[rng.gen::<f64>()]).unwrap();
                // Trustworthy source supports true claims and refutes false
                // ones; the bad source does the opposite.
                let (s, stance) = if rng.gen_bool(0.9) {
                    (good, if t { Stance::Support } else { Stance::Refute })
                } else {
                    (bad, if t { Stance::Refute } else { Stance::Support })
                };
                b.add_clique(c, d, s, stance);
            }
        }
        (Arc::new(CrfModel::build(b).unwrap()), truth)
    }

    fn small_config() -> IcrfConfig {
        IcrfConfig {
            max_em_iters: 3,
            gibbs: GibbsConfig {
                burn_in: 10,
                samples: 40,
                thin: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn initial_state_is_maximum_entropy() {
        let (m, _) = signal_model(6, 1);
        let icrf = Icrf::new(m, small_config());
        assert!(icrf.probs().iter().all(|&p| p == 0.5));
        assert_eq!(icrf.n_labelled(), 0);
    }

    #[test]
    fn labels_pin_probabilities() {
        let (m, _) = signal_model(6, 1);
        let mut icrf = Icrf::new(m, small_config());
        icrf.set_label(VarId(0), true);
        icrf.set_label(VarId(1), false);
        assert_eq!(icrf.probs()[0], 1.0);
        assert_eq!(icrf.probs()[1], 0.0);
        assert_eq!(icrf.n_labelled(), 2);
        icrf.run();
        assert_eq!(icrf.probs()[0], 1.0, "label must survive inference");
        assert_eq!(icrf.probs()[1], 0.0);
        icrf.clear_label(VarId(0));
        assert_eq!(icrf.n_labelled(), 1);
    }

    /// After labelling a few claims, inference should predict the remaining
    /// ones better than chance (the features are informative).
    #[test]
    fn inference_learns_from_labels() {
        let (m, truth) = signal_model(20, 2);
        let mut icrf = Icrf::new(m, small_config());
        // Label 8 claims.
        for i in 0..8 {
            icrf.set_label(VarId(i), truth[i as usize]);
        }
        icrf.run();
        let correct = (8..20)
            .filter(|&i| (icrf.probs()[i] >= 0.5) == truth[i])
            .count();
        assert!(
            correct >= 9,
            "only {correct}/12 unlabelled claims recovered; probs={:?}",
            &icrf.probs()[8..]
        );
    }

    /// The incremental property: a second run after one new label converges
    /// in no more EM iterations than the first run from scratch.
    #[test]
    fn warm_start_converges_quickly() {
        let (m, truth) = signal_model(16, 3);
        let mut icrf = Icrf::new(m.clone(), small_config());
        for i in 0..4 {
            icrf.set_label(VarId(i), truth[i as usize]);
        }
        icrf.run();
        let w_before = icrf.weights().clone();
        icrf.set_label(VarId(4), truth[4]);
        icrf.run();
        // The weights should move only slightly after a single new label.
        assert!(
            icrf.weights().distance(&w_before) < 2.0,
            "weights jumped by {}",
            icrf.weights().distance(&w_before)
        );
    }

    #[test]
    fn hypothetical_does_not_mutate_original() {
        let (m, _) = signal_model(8, 4);
        let mut icrf = Icrf::new(m, small_config());
        icrf.run();
        let probs_before = icrf.probs().to_vec();
        let mut hyp = icrf.hypothetical(VarId(3), true);
        hyp.run();
        assert_eq!(icrf.probs(), probs_before.as_slice());
        assert_eq!(hyp.probs()[3], 1.0);
        assert_eq!(icrf.labels()[3], None);
    }

    /// The borrowed E-step is the first E-step of the hypothetical run,
    /// bit for bit, on a scratch shared across hypotheses — including one
    /// last warmed by an engine at other weights.
    #[test]
    fn hypothetical_estep_is_the_first_estep_of_a_hypothetical_run() {
        let (m, _) = signal_model(8, 4);
        let mut icrf = Icrf::new(m, small_config());
        icrf.run();
        let mut scratch = GibbsScratch::new();
        for (claim, value) in [(VarId(3), true), (VarId(5), false)] {
            let r = icrf.hypothetical_estep(claim, value, &mut scratch);
            let mut spec = icrf.hypothetical(claim, value);
            spec.config_mut().max_em_iters = 1;
            spec.run();
            assert_eq!(r.marginals, spec.probs());
            assert_eq!(r.samples, spec.last_samples());
        }

        // Warm the scratch on the same model at other weights (one
        // coordinate moved), then score a hypothesis at the engine's own.
        let mut moved = icrf.clone();
        let mut w = icrf.weights().clone();
        w.as_mut_slice()[1] += 0.37;
        moved.set_weights(w);
        moved.hypothetical_estep(VarId(2), true, &mut scratch);
        let r = icrf.hypothetical_estep(VarId(6), false, &mut scratch);
        let mut spec = icrf.hypothetical(VarId(6), false);
        spec.config_mut().max_em_iters = 1;
        spec.run();
        assert_eq!(r.marginals, spec.probs());
        assert_eq!(r.samples, spec.last_samples());
        assert_eq!(icrf.labels()[3], None, "the engine is only borrowed");
    }

    /// A clone starts warm: it carries the engine's Gibbs scratch, synced
    /// to the snapshot both share, so its first E-step keeps the claim
    /// evidence an engine restored from the same state has to rebuild.
    /// Either way the next run is the same, bit for bit.
    #[test]
    fn clone_runs_warm_and_matches_a_cold_restore() {
        let (m, truth) = signal_model(12, 10);
        let mut icrf = Icrf::new(m.clone(), small_config());
        for i in 0..3 {
            icrf.set_label(VarId(i), truth[i as usize]);
        }
        icrf.run();
        let mut cold = Icrf::new(m, small_config());
        cold.restore_state(icrf.export_state()).unwrap();
        cold.set_label(VarId(5), true);
        let mut warm = icrf.hypothetical(VarId(5), true);

        let warm_scratch = |e: &Icrf| e.estep_scratch().synced_to(&e.model);
        assert!(warm_scratch(&warm), "the clone carries a synced scratch");
        assert!(!warm_scratch(&cold), "a restored engine starts cold");

        warm.run();
        cold.run();
        assert_eq!(warm.weights(), cold.weights());
        let bits = |e: &Icrf| e.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&warm), bits(&cold));
        assert_eq!(warm.last_samples(), cold.last_samples());
    }

    #[test]
    fn source_trust_reflects_probs() {
        let (m, _) = signal_model(4, 5);
        let icrf = Icrf::new(m.clone(), small_config());
        let t = icrf.source_trust();
        assert_eq!(t.len(), m.n_sources());
        // All probs 0.5 with symmetric prior -> trust 0.5 exactly.
        for &ti in &t {
            assert!((ti - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let (m, truth) = signal_model(10, 6);
        let mk = || {
            let mut icrf = Icrf::new(m.clone(), small_config());
            for i in 0..3 {
                icrf.set_label(VarId(i), truth[i as usize]);
            }
            icrf.run();
            icrf.probs().to_vec()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn stats_are_populated() {
        let (m, _) = signal_model(6, 7);
        let mut icrf = Icrf::new(m, small_config());
        let stats = icrf.run();
        assert!(stats.em_iterations >= 1);
        assert!(stats.gibbs_sweeps > 0);
        assert!(!icrf.last_samples().is_empty());
    }

    /// Streaming growth by the lineage's writer: `sync_to` resizes the
    /// engine without dropping warm state (weights, old probabilities,
    /// labels), and the next E-step samples the grown model.
    #[test]
    fn sync_grows_engine_without_dropping_warm_state() {
        let (mut m, truth) = signal_model(10, 8);
        let mut icrf = Icrf::new(m.clone(), small_config());
        for i in 0..3 {
            icrf.set_label(VarId(i), truth[i as usize]);
        }
        icrf.run();
        let w_before = icrf.weights().clone();
        let probs_before = icrf.probs().to_vec();
        assert!(!icrf.sync_to(m.clone()), "nothing to sync before growth");

        let mut delta = ModelDelta::for_model(&m);
        let s = delta.add_source(&[1.0]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.5]).unwrap();
        delta.add_clique(c, d, s, Stance::Support);
        Arc::make_mut(&mut m).apply(delta).unwrap();

        assert!(icrf.sync_to(m.clone()), "growth must be picked up");
        assert_eq!(icrf.model().n_claims(), 11);
        assert_eq!(icrf.partition().n_claims(), 11);
        assert_eq!(icrf.probs().len(), 11);
        assert_eq!(icrf.probs()[10], 0.5, "new claim enters at max entropy");
        assert_eq!(icrf.labels()[10], None);
        assert_eq!(
            icrf.weights().as_slice(),
            w_before.as_slice(),
            "weights survive growth"
        );
        assert_eq!(
            &icrf.probs()[..10],
            &probs_before[..],
            "old probabilities survive growth"
        );

        let stats = icrf.run();
        assert!(stats.em_iterations >= 1);
        assert_eq!(icrf.probs()[0], if truth[0] { 1.0 } else { 0.0 });
        assert_eq!(icrf.last_samples()[0].len(), 11);
    }

    /// Retirement by the lineage's writer: `sync_to` drops the dead claim's
    /// label and probability, keeps every survivor's warm state, recomputes
    /// the partition on the tombstoned model, and the next E-step samples
    /// the tombstoned model.
    #[test]
    fn sync_retires_claims_without_dropping_survivor_state() {
        let (mut m, truth) = signal_model(10, 21);
        let mut icrf = Icrf::new(m.clone(), small_config());
        for i in 0..4 {
            icrf.set_label(VarId(i), truth[i as usize]);
        }
        icrf.run();
        let w_before = icrf.weights().clone();
        let probs_before = icrf.probs().to_vec();

        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(0));
        set.retire_claim(VarId(7));
        Arc::make_mut(&mut m).retire(set).unwrap();

        assert!(icrf.sync_to(m.clone()));
        assert_eq!(icrf.probs().len(), 10);
        assert_eq!(icrf.probs()[0], 0.0, "retired claim is out of service");
        assert_eq!(icrf.labels()[0], None, "retired claim loses its label");
        assert_eq!(icrf.labels()[1], Some(truth[1]));
        assert_eq!(
            icrf.probs()[2..7],
            probs_before[2..7],
            "survivor probabilities are untouched"
        );
        assert_eq!(icrf.weights().as_slice(), w_before.as_slice());
        // Partition matches a fresh computation on the tombstoned model.
        let fresh = Partition::of_model(icrf.model());
        assert_eq!(icrf.partition().len(), fresh.len());
        for i in 0..fresh.len() {
            assert_eq!(icrf.partition().component(i), fresh.component(i));
        }

        let stats = icrf.run();
        assert!(stats.em_iterations >= 1);
        assert_eq!(
            icrf.probs()[0],
            0.0,
            "dead claims stay at 0 through inference"
        );
        assert_eq!(icrf.probs()[1], if truth[1] { 1.0 } else { 0.0 });
    }

    /// Compaction by the lineage's writer: `sync_to` relocates
    /// probabilities, labels, and the training set through the published
    /// remap — survivors keep their warm state at their new ids — and
    /// inference runs on the compacted model.
    #[test]
    fn sync_relocates_state_across_compaction() {
        let (mut m, truth) = signal_model(12, 22);
        let mut icrf = Icrf::new(m.clone(), small_config());
        for i in 0..5 {
            icrf.set_label(VarId(i), truth[i as usize]);
        }
        icrf.run();
        let probs_before = icrf.probs().to_vec();
        let w_before = icrf.weights().clone();

        // Retire + compact in one revision gap (the streaming shape).
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(1));
        set.retire_claim(VarId(6));
        Arc::make_mut(&mut m).retire(set).unwrap();
        let remap = Arc::make_mut(&mut m).compact().unwrap();

        assert!(icrf.sync_to(m.clone()));
        let n = icrf.model().n_claims();
        assert_eq!(n, 10);
        for c in 0..12u32 {
            if let Some(nc) = remap.claim(VarId(c)) {
                assert_eq!(
                    icrf.probs()[nc.idx()],
                    probs_before[c as usize],
                    "claim {c} probability did not relocate"
                );
                let expect_label = if c < 5 { Some(truth[c as usize]) } else { None };
                assert_eq!(icrf.labels()[nc.idx()], expect_label, "claim {c} label");
            }
        }
        assert_eq!(icrf.weights().as_slice(), w_before.as_slice());
        let fresh = Partition::of_model(icrf.model());
        assert_eq!(icrf.partition().len(), fresh.len());
        for i in 0..fresh.len() {
            assert_eq!(icrf.partition().component(i), fresh.component(i));
        }

        let stats = icrf.run();
        assert!(stats.em_iterations >= 1);
        // A survivor's pinned label still pins at its new id.
        let nc = remap.claim(VarId(0)).unwrap();
        assert_eq!(icrf.probs()[nc.idx()], if truth[0] { 1.0 } else { 0.0 });
        // Growth keeps working after the relocation.
        let mut delta = ModelDelta::for_model(&m);
        let c = delta.add_claim();
        let d = delta.add_document(&[0.4]).unwrap();
        delta.add_clique(c, d, 0, Stance::Support);
        Arc::make_mut(&mut m).apply(delta).unwrap();
        icrf.sync_to(m);
        icrf.run();
        assert_eq!(icrf.probs().len(), n + 1);
    }

    /// Outrunning the single retained remap (two compactions in one gap)
    /// falls back to a clean rebuild instead of corrupt relocation.
    #[test]
    fn double_compaction_rebuilds_engine_state() {
        let (mut m, _) = signal_model(10, 23);
        let mut icrf = Icrf::new(m.clone(), small_config());
        icrf.run();
        for victim in [0u32, 1] {
            let model = Arc::make_mut(&mut m);
            let mut set = RetireSet::for_model(model);
            set.retire_claim(VarId(victim));
            model.retire(set).unwrap();
            model.compact().unwrap();
        }
        assert!(icrf.sync_to(m));
        assert_eq!(icrf.probs().len(), 8);
        assert!(
            icrf.probs().iter().all(|&p| p == 0.5),
            "state rebuilt fresh"
        );
        let stats = icrf.run();
        assert!(stats.em_iterations >= 1);
    }

    /// The checkpoint contract of [`IcrfState`]: a fresh engine restored
    /// from an exported state — even across a serde round-trip — produces
    /// bit-identical marginals and samples on the next run, and a state
    /// captured against different model content is refused.
    #[test]
    fn restored_state_resumes_bit_identically() {
        let (mut m, _) = signal_model(6, 9);
        let mut icrf = Icrf::new(m.clone(), small_config());
        icrf.run();
        icrf.set_label(VarId(0), true);
        icrf.run();

        let json = serde_json::to_string(&icrf.export_state()).unwrap();
        let state: IcrfState = serde_json::from_str(&json).unwrap();
        let mut fresh = Icrf::new(m.clone(), small_config());
        fresh.restore_state(state).unwrap();

        icrf.run();
        fresh.run();
        assert_eq!(icrf.weights(), fresh.weights());
        assert_eq!(icrf.probs().len(), fresh.probs().len());
        for (a, b) in icrf.probs().iter().zip(fresh.probs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(icrf.last_samples(), fresh.last_samples());

        // The lineage moves on; the stale capture is refused untouched.
        let mut d = ModelDelta::for_model(&m);
        d.add_claim();
        Arc::make_mut(&mut m).apply(d).unwrap();
        let stale: IcrfState = serde_json::from_str(&json).unwrap();
        let mut late = Icrf::new(m, small_config());
        assert!(matches!(
            late.restore_state(stale),
            Err(ModelError::StaleDelta { .. })
        ));
    }

    /// A label landing on a freshly grown claim participates in inference
    /// like any other label: the run after `sync_to` samples the grown
    /// model, and the engine's own `sync` never has anything to pick up.
    #[test]
    fn run_syncs_implicitly_after_growth() {
        let (mut m, _) = signal_model(6, 9);
        let mut icrf = Icrf::new(m.clone(), small_config());
        icrf.run();
        let mut delta = ModelDelta::for_model(&m);
        let c = delta.add_claim();
        let d = delta.add_document(&[0.2]).unwrap();
        delta.add_clique(c, d, 0, Stance::Support);
        Arc::make_mut(&mut m).apply(delta).unwrap();
        assert!(!icrf.sync(), "the engine follows no writer on its own");
        icrf.sync_to(m);
        let stats = icrf.run();
        assert!(stats.em_iterations >= 1);
        assert_eq!(icrf.probs().len(), 7);
        icrf.set_label(c, true);
        icrf.run();
        assert_eq!(icrf.probs()[c.idx()], 1.0);
    }
}
