//! Online EM with stochastic approximation (Eq. 29–30).
//!
//! The running objective `Q_t(W)` of Eq. 29 is a convex combination of the
//! previous objective and the expected log-likelihood of the new arrival:
//! `Q_t = (1−γ_t)·Q_{t−1} + γ_t·E[ℓ_t]`. For our log-linear model the
//! objective is determined by a weighted instance set, so the recursion is
//! realised *exactly* by multiplying all existing instance weights by
//! `(1−γ_t)` and inserting the new arrival's clique instances with weight
//! `γ_t`. Old instances decay geometrically; once their weight drops below
//! a floor they are dropped — this implements the paper's "claim and
//! associated user input are discarded after validation" with bounded
//! memory. `W_t = argmax Q_t(W)` (Eq. 30) is computed by the damped Newton
//! solver of [`crf::newton`], warm-started from `W_{t−1}`.

use crf::logistic::{Dataset, LogisticObjective};
use crf::newton::{self, NewtonScratch};
use crf::potentials::Weights;
use crf::{IdRemap, VarId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Robbins–Monro decay exponent `κ ∈ (0.5, 1]` of the step sizes
/// `γ_t = (t0 + t)^{−κ}`, which then satisfy `Σγ_t = ∞` and `Σγ_t² < ∞` as
/// Eq. 29 requires.
const KAPPA: f64 = 0.7;
/// Offset `t0` damping the earliest steps.
const T0: f64 = 2.0;
/// L2 regularisation of the M-step.
const LAMBDA: f64 = 1.0;
/// Instances whose decayed weight falls below this floor are discarded.
const WEIGHT_FLOOR: f64 = 1e-4;
/// Hard cap on retained instances (oldest dropped first).
const MAX_INSTANCES: usize = 4096;

/// The step size `γ_t` at arrival `t` (1-based).
fn gamma(t: u64) -> f64 {
    (T0 + t as f64).powf(-KAPPA)
}

/// Errors of the online estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineEmError {
    /// A restored [`OnlineEmState`] was built for a different feature
    /// dimension than the estimator it is being restored into.
    DimMismatch {
        /// The estimator's feature dimension.
        expected: usize,
        /// The state's feature dimension.
        got: usize,
    },
}

impl std::fmt::Display for OnlineEmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineEmError::DimMismatch { expected, got } => {
                write!(
                    f,
                    "restored state has feature dim {got}, estimator expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for OnlineEmError {}

/// Configuration of the online estimator. It has no fields: the
/// step schedule, the regularisation and the instance bounds are the
/// constants above.
#[derive(Debug, Clone, Default)]
pub struct OnlineEmConfig {}

/// Statistics of one arrival update.
#[derive(Debug, Clone)]
pub struct ArrivalStats {
    /// Step size `γ_t` the arrival was blended in with.
    pub gamma: f64,
    /// Newton iterations of the M-step (the name is the paper's solver,
    /// TRON, which this one replaces).
    pub tron_iterations: usize,
    /// Instances retained after the update.
    pub retained_instances: usize,
    /// Claims the retention sweep riding on this arrival tombstoned
    /// (always 0 under an unbounded [`crate::stream::RetentionPolicy`]).
    pub retired_claims: usize,
    /// Sources the retention sweep tombstoned as orphans.
    pub retired_sources: usize,
    /// Whether the retention sweep ended in a compaction.
    pub compacted: bool,
}

/// One retained term of the running objective: a clique's feature row and
/// soft target, carrying its decayed blend weight and (when known) the
/// claim the clique belongs to. The claim tag ties the instance's lifetime
/// to the claim's: when retention retires the claim, the instance is
/// dropped immediately ([`OnlineEm::prune_dead_claims`]) instead of
/// lingering until geometric decay pushes it under the weight floor.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WeightedInstance {
    claim: Option<u32>,
    row: Vec<f64>,
    target: f64,
    weight: f64,
}

/// The complete serialisable state of an [`OnlineEm`] — weights, arrival
/// counter, and the retained instance set with claim tags and blend
/// weights. Round-tripping through [`OnlineEm::export_state`] /
/// [`OnlineEm::restore_state`] resumes the estimator bit-identically: the
/// next [`OnlineEm::observe_for_claims`] rebuilds its solver buffers from the
/// restored instances, and every weight is carried as an exact `f64`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineEmState {
    /// Feature dimension the state was exported at.
    pub dim: u64,
    /// Arrivals processed (`t` of the step schedule).
    pub arrivals: u64,
    /// Parameters `W_t`.
    pub weights: Weights,
    instances: Vec<WeightedInstance>,
}

/// The online parameter estimator.
pub struct OnlineEm {
    dim: usize,
    weights: Weights,
    instances: VecDeque<WeightedInstance>,
    t: u64,
    /// Reused M-step buffers: every arrival triggers a Newton solve, and
    /// the stream path has the same zero-steady-state-allocation contract
    /// as the batch EM loop — the dataset and solver vectors keep their
    /// capacity across arrivals.
    data: Dataset,
    newton: NewtonScratch,
}

impl OnlineEm {
    /// Fresh estimator over `dim`-dimensional clique features.
    pub fn new(dim: usize) -> Self {
        OnlineEm {
            dim,
            weights: Weights::zeros(dim),
            instances: VecDeque::new(),
            t: 0,
            data: Dataset::new(dim),
            newton: NewtonScratch::default(),
        }
    }

    /// Current parameters `W_t`.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Replace the parameters (parameter exchange with Alg. 1, line 7).
    pub fn set_weights(&mut self, weights: Weights) {
        assert_eq!(weights.dim(), self.dim);
        self.weights = weights;
    }

    /// Number of arrivals processed.
    pub fn arrivals(&self) -> u64 {
        self.t
    }

    /// Number of retained instances.
    pub fn retained(&self) -> usize {
        self.instances.len()
    }

    /// Incorporate a new arrival: `rows` holds one `(claim, features, soft
    /// target)` triple per clique of the arrival (Eq. 29's expectation
    /// term), then re-estimate `W_t` (Eq. 30). The claim tag lets a later
    /// [`Self::prune_dead_claims`] drop the instances of retired claims
    /// instead of waiting for geometric decay to push them under the
    /// weight floor.
    pub fn observe_for_claims(&mut self, rows: &[(u32, Vec<f64>, f64)]) -> ArrivalStats {
        self.t += 1;
        let gamma = gamma(self.t);

        // Decay the running objective: (1−γ)·Q_{t−1}.
        let decay = 1.0 - gamma;
        for inst in self.instances.iter_mut() {
            inst.weight *= decay;
        }
        // Blend in the new expectation term: γ·E[ℓ_t].
        for (claim, row, target) in rows {
            assert_eq!(row.len(), self.dim, "feature row width mismatch");
            self.instances.push_back(WeightedInstance {
                claim: Some(*claim),
                row: row.clone(),
                target: target.clamp(0.0, 1.0),
                weight: gamma,
            });
        }
        // Bound memory: apply the weight floor and the hard cap (this is
        // the "discard after validation" policy of §7 made concrete).
        self.instances.retain(|i| i.weight >= WEIGHT_FLOOR);
        while self.instances.len() > MAX_INSTANCES {
            self.instances.pop_front();
        }

        if self.instances.is_empty() {
            return ArrivalStats {
                gamma,
                tron_iterations: 0,
                retained_instances: 0,
                retired_claims: 0,
                retired_sources: 0,
                compacted: false,
            };
        }

        // Eq. 30: maximise Q_t by Newton, warm-started from W_{t−1}. The
        // safeguard of [18] (the blended likelihood must not degrade) lives
        // in the solver: `newton::solve` accepts only steps that do not
        // raise the objective, so W_t is never worse than W_{t−1} on Q_t.
        self.data.clear();
        for inst in &self.instances {
            self.data.push(&inst.row, inst.target, inst.weight);
        }
        let obj = LogisticObjective::new(&self.data, LAMBDA);
        let res = newton::solve(&obj, self.weights.as_mut_slice(), &mut self.newton);

        ArrivalStats {
            gamma,
            tron_iterations: res.iterations,
            retained_instances: self.instances.len(),
            retired_claims: 0,
            retired_sources: 0,
            compacted: false,
        }
    }

    /// Drop every instance whose claim tag fails `live` (untagged
    /// instances are kept — their lifetime is decay-only). Called by the
    /// streaming checker's retention sweep, so a retired claim's buffered
    /// cliques stop contributing to the objective the moment the claim
    /// leaves service rather than at window wrap. Returns the number of
    /// instances dropped. The objective change is exactly the retirement
    /// semantics: the retired claim's expectation terms leave `Q_t`; the
    /// weights re-settle on the next arrival's M-step.
    pub fn prune_dead_claims(&mut self, live: impl Fn(u32) -> bool) -> usize {
        let before = self.instances.len();
        self.instances.retain(|i| i.claim.is_none_or(&live));
        before - self.instances.len()
    }

    /// Relocate claim tags through a compaction `remap`: surviving claims
    /// are re-tagged with their new ids, instances of dropped claims are
    /// removed (compaction only drops tombstoned claims, so this is the
    /// same contract as [`Self::prune_dead_claims`]). Returns the number
    /// of instances dropped.
    pub fn remap_claims(&mut self, remap: &IdRemap) -> usize {
        let before = self.instances.len();
        self.instances.retain_mut(|i| match i.claim {
            None => true,
            Some(c) => match remap.claim(VarId(c)) {
                Some(nc) => {
                    i.claim = Some(nc.0);
                    true
                }
                None => false,
            },
        });
        before - self.instances.len()
    }

    /// Snapshot the complete estimator state for a checkpoint.
    pub fn export_state(&self) -> OnlineEmState {
        OnlineEmState {
            dim: self.dim as u64,
            arrivals: self.t,
            weights: self.weights.clone(),
            instances: self.instances.iter().cloned().collect(),
        }
    }

    /// Restore a checkpointed state. The estimator resumes bit-identically:
    /// the arrival counter continues the step schedule where it left off,
    /// and the instance buffer (tags, targets, decayed weights) is exact.
    /// Fails with [`OnlineEmError::DimMismatch`], leaving the estimator
    /// untouched, when the state's declared dimension, its weights or any
    /// buffered instance's row has a different width than the estimator's
    /// features.
    pub fn restore_state(&mut self, state: OnlineEmState) -> Result<(), OnlineEmError> {
        let widths = std::iter::once(state.dim as usize)
            .chain(std::iter::once(state.weights.dim()))
            .chain(state.instances.iter().map(|i| i.row.len()));
        for got in widths {
            if got != self.dim {
                return Err(OnlineEmError::DimMismatch {
                    expected: self.dim,
                    got,
                });
            }
        }
        self.weights = state.weights;
        self.t = state.arrivals;
        self.instances = state.instances.into();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_satisfies_robbins_monro_shape() {
        // Decreasing.
        assert!(gamma(1) > gamma(2));
        assert!(gamma(10) > gamma(100));
        // Partial sums of γ grow without bound while Σγ² converges: check
        // numerically over a horizon.
        let sum: f64 = (1..10_000).map(gamma).sum();
        let sum_sq: f64 = (1..10_000).map(|t| gamma(t).powi(2)).sum();
        assert!(sum > 30.0, "Σγ too small: {sum}");
        assert!(sum_sq < 3.0, "Σγ² too large: {sum_sq}");
    }

    /// Feeding consistent data drives the weights towards the batch
    /// solution: positive bias for target-1 instances.
    #[test]
    fn converges_on_stationary_stream() {
        let mut em = OnlineEm::new(2);
        for i in 0..300 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let y = if x > 0.0 { 1.0 } else { 0.0 };
            em.observe_for_claims(&[(i, vec![1.0, x], y)]);
        }
        let w = em.weights().as_slice();
        // The L2 regulariser shrinks the decayed-weight objective, so the
        // magnitude is modest; the sign must be unambiguous.
        assert!(w[1] > 0.2, "slope {} should be clearly positive", w[1]);
    }

    #[test]
    fn later_updates_move_weights_less() {
        let mut em = OnlineEm::new(1);
        let mut deltas = Vec::new();
        for i in 0..60 {
            let before = em.weights().clone();
            em.observe_for_claims(&[(i, vec![1.0], 1.0)]);
            deltas.push(em.weights().distance(&before));
        }
        let early: f64 = deltas[..10].iter().sum();
        let late: f64 = deltas[50..].iter().sum();
        assert!(
            late < early,
            "updates should shrink: early {early} late {late}"
        );
    }

    #[test]
    fn memory_is_bounded() {
        let mut em = OnlineEm::new(1);
        // Wide arrivals fill the buffer before decay reaches the floor, so
        // the hard cap is what binds.
        let rows: Vec<_> = (0..1000).map(|i| (i, vec![1.0], 1.0)).collect();
        for _ in 0..5 {
            em.observe_for_claims(&rows);
        }
        assert_eq!(em.retained(), MAX_INSTANCES);
        assert_eq!(em.arrivals(), 5);
    }

    #[test]
    fn stats_are_populated() {
        let mut em = OnlineEm::new(1);
        let stats = em.observe_for_claims(&[(0, vec![1.0], 0.8)]);
        assert!(stats.gamma > 0.0 && stats.gamma < 1.0);
        assert_eq!(stats.retained_instances, 1);
    }

    #[test]
    fn set_weights_exchanges_parameters() {
        let mut em = OnlineEm::new(2);
        em.set_weights(Weights::from_vec(vec![0.5, -0.5]));
        assert_eq!(em.weights().as_slice(), &[0.5, -0.5]);
    }

    #[test]
    fn empty_arrival_is_safe() {
        let mut em = OnlineEm::new(3);
        let stats = em.observe_for_claims(&[]);
        assert_eq!(stats.retained_instances, 0);
    }

    /// Untag every buffered instance, as a checkpoint holding untagged
    /// instances restores them: they expire by decay only.
    fn clear_claim_tags(em: &mut OnlineEm) {
        for inst in em.instances.iter_mut() {
            inst.claim = None;
        }
    }

    /// Retiring a claim reclaims its buffered instances immediately —
    /// untagged instances and instances of live claims are untouched.
    #[test]
    fn dead_claims_instances_are_pruned() {
        let mut em = OnlineEm::new(1);
        em.observe_for_claims(&[(3, vec![0.5], 1.0)]);
        clear_claim_tags(&mut em); // untagged: decay-only lifetime
        em.observe_for_claims(&[(3, vec![1.0], 1.0), (4, vec![-1.0], 0.0)]);
        assert_eq!(em.retained(), 3);
        let dropped = em.prune_dead_claims(|c| c != 3);
        assert_eq!(dropped, 1);
        assert_eq!(em.retained(), 2);
        // Idempotent: a second sweep with the same live set drops nothing.
        assert_eq!(em.prune_dead_claims(|c| c != 3), 0);
    }

    /// A compaction remap relocates surviving tags and drops the rest;
    /// clearing tags makes instances immune to later pruning.
    #[test]
    fn remap_relocates_tags_and_clear_detaches_them() {
        use crf::graph::{CrfModel, ModelDelta, Stance};
        use crf::{RetireSet, VarId};
        // Build a real remap: retire claim 0 of a two-claim model, compact.
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.8]).unwrap();
        for _ in 0..2 {
            let c = b.add_claim();
            let d = b.add_document(&[0.5]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let mut m = CrfModel::build(b).unwrap();
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(0));
        m.retire(set).unwrap();
        let remap = m.compact().unwrap();
        assert!(remap.claim(VarId(0)).is_none());

        let mut em = OnlineEm::new(1);
        em.observe_for_claims(&[(0, vec![1.0], 1.0), (1, vec![-1.0], 0.0)]);
        let dropped = em.remap_claims(&remap);
        assert_eq!(dropped, 1, "claim 0's instance dies with the claim");
        assert_eq!(em.retained(), 1);
        // The survivor was re-tagged to the claim's new id: pruning with
        // "new id is live" keeps it, pruning with the old id does nothing.
        let new_id = remap.claim(VarId(1)).unwrap().0;
        assert_eq!(em.prune_dead_claims(|c| c == new_id), 0);
        clear_claim_tags(&mut em);
        assert_eq!(em.prune_dead_claims(|_| false), 0, "untagged = unprunable");
        assert_eq!(em.retained(), 1);
    }

    /// Export → serde round-trip → restore resumes bit-identically: the
    /// restored estimator's subsequent updates produce exactly the same
    /// weights as the uninterrupted one.
    #[test]
    fn state_round_trip_resumes_bit_identically() {
        let mut em = OnlineEm::new(2);
        for i in 0..20 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            em.observe_for_claims(&[(i as u32, vec![1.0, x], f64::from(u8::from(x > 0.0)))]);
        }
        let json = serde_json::to_string(&em.export_state()).unwrap();
        let state: OnlineEmState = serde_json::from_str(&json).unwrap();

        let mut restored = OnlineEm::new(2);
        restored.restore_state(state).unwrap();
        assert_eq!(restored.arrivals(), em.arrivals());
        assert_eq!(restored.retained(), em.retained());
        for i in 20..30 {
            let x = if i % 3 == 0 { 1.0 } else { -1.0 };
            let rows = [(i as u32, vec![1.0, x], 0.7)];
            em.observe_for_claims(&rows);
            restored.observe_for_claims(&rows);
        }
        let (a, b) = (em.weights().as_slice(), restored.weights().as_slice());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "weights diverged after restore");
        }

        // Dimension mismatch is refused.
        let mut other = OnlineEm::new(3);
        let state: OnlineEmState = serde_json::from_str(&json).unwrap();
        assert!(matches!(
            other.restore_state(state),
            Err(OnlineEmError::DimMismatch {
                expected: 3,
                got: 2
            })
        ));
    }
}
