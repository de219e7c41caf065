//! Log-linear clique potentials (Eq. 2 of the paper).
//!
//! The paper instantiates each clique potential as a log-linear model with
//! per-configuration weights `W_π = {w_{π,0}, w_{π,1}, w^D_{π,t}, w^S_{π,t}}`.
//! Because only the *difference* between the two configurations matters for
//! the conditional distribution of the binary claim variable, we learn the
//! discriminative direction `β = W_1 − W_0` directly — this is the standard
//! logistic-regression reduction of a binary log-linear CRF and is precisely
//! what the paper's M-step (L2-regularised trust-region Newton logistic
//! regression, \[45\]) estimates.
//!
//! The feature vector of a clique `π = {c, d, s}` is
//! `x_π = [1, f^D(d), f^S(s), τ(s)]` where `τ(s)` is the dynamic
//! source-trust statistic carrying the indirect relations (see
//! [`crate::graph`] module docs). A refuting clique contributes with the
//! claim value flipped, which realises the opposing variable `¬c` and its
//! non-equality constraint (Eq. 3).
//!
//! [`claim_logit`] states a claim's conditional logit clique by clique and
//! is the spec. The E-step never scores a clique: the static part of the
//! logit is linear in the features, so `ClaimEvidence` sums each claim's
//! signed `[1, f^D, f^S]` rows once per model snapshot, and the weights
//! enter as one dot product per claim.

use crate::graph::{Clique, CliqueId, CrfModel, Since, Stance, SyncPoint, VarId};
use crate::numerics;
use serde::{Deserialize, Serialize};

/// The learned model parameters: one weight per clique-feature dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    beta: Vec<f64>,
}

impl Weights {
    /// All-zero weights of the given dimensionality (the maximum-entropy
    /// initialisation the paper uses: every claim starts at probability 0.5).
    pub fn zeros(dim: usize) -> Self {
        Weights {
            beta: vec![0.0; dim],
        }
    }

    /// Weights from an explicit coefficient vector.
    pub fn from_vec(beta: Vec<f64>) -> Self {
        Weights { beta }
    }

    /// Dimensionality of the weight vector.
    pub fn dim(&self) -> usize {
        self.beta.len()
    }

    /// Immutable view of the coefficients.
    pub fn as_slice(&self) -> &[f64] {
        &self.beta
    }

    /// Mutable view of the coefficients (used by the M-step optimiser).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.beta
    }

    /// Euclidean distance to another weight vector. The EM loop's
    /// convergence check reads the same quantity from the M-step solver's
    /// [`crate::newton::NewtonResult::step_norm`].
    pub fn distance(&self, other: &Weights) -> f64 {
        self.beta
            .iter()
            .zip(&other.beta)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Write the clique feature vector `x_π = [1, f^D(d), f^S(s), τ(s)]` into
/// `out`, which must have length `model.feature_dim()`.
#[inline]
pub fn clique_features(model: &CrfModel, clique: &Clique, trust: f64, out: &mut [f64]) {
    debug_assert_eq!(out.len(), model.feature_dim());
    out[0] = 1.0;
    let md = model.m_doc();
    out[1..1 + md].copy_from_slice(model.doc_feature_row(clique.doc));
    let ms = model.m_source();
    out[1 + md..1 + md + ms].copy_from_slice(model.source_feature_row(clique.source));
    // Centred so that a neutral source (τ = 1/2) contributes nothing: this
    // keeps the trust coordinate from feeding a collective drift of
    // unlabelled claims through the bias term.
    out[1 + md + ms] = trust - 0.5;
}

/// The *static* part of a clique's score: `β · [1, f^D(d), f^S(s)]`, i.e.
/// everything except the dynamic-trust term.
#[inline]
fn clique_static_score(model: &CrfModel, weights: &Weights, clique: &Clique) -> f64 {
    let beta = weights.as_slice();
    let mut acc = beta[0]; // bias * 1
    let md = model.m_doc();
    let ms = model.m_source();
    let df = model.doc_feature_row(clique.doc);
    for t in 0..md {
        acc += beta[1 + t] * df[t];
    }
    let sf = model.source_feature_row(clique.source);
    for t in 0..ms {
        acc += beta[1 + md + t] * sf[t];
    }
    acc
}

/// The raw score `β · x_π` of a clique under the given dynamic trust.
#[inline]
pub fn clique_score(model: &CrfModel, weights: &Weights, clique: &Clique, trust: f64) -> f64 {
    let md = model.m_doc();
    let ms = model.m_source();
    clique_static_score(model, weights, clique) + weights.as_slice()[1 + md + ms] * (trust - 0.5)
}

/// The signed contribution of a clique to the logit of *its claim being
/// credible*: supporting cliques push with `+score`, refuting cliques with
/// `-score` (they attach to the opposing variable).
#[inline]
pub fn clique_logit_contribution(
    model: &CrfModel,
    weights: &Weights,
    clique: &Clique,
    trust: f64,
) -> f64 {
    let s = clique_score(model, weights, clique, trust);
    match clique.stance {
        Stance::Support => s,
        Stance::Refute => -s,
    }
}

/// The full conditional logit of claim `c` given per-source trust values:
/// the sum of its **live** cliques' signed contributions (retired evidence
/// contributes nothing).
pub fn claim_logit(
    model: &CrfModel,
    weights: &Weights,
    claim: VarId,
    trust_of: impl Fn(u32) -> f64,
) -> f64 {
    model
        .cliques_of(claim)
        .iter()
        .filter(|&&ci| model.clique_live(ci as usize))
        .map(|&ci| {
            let cl = model.clique(CliqueId(ci));
            clique_logit_contribution(model, weights, cl, trust_of(cl.source))
        })
        .sum()
}

/// The conditional probability `P(c = 1 | rest)` induced by [`claim_logit`].
pub fn claim_probability(
    model: &CrfModel,
    weights: &Weights,
    claim: VarId,
    trust_of: impl Fn(u32) -> f64,
) -> f64 {
    numerics::sigmoid(claim_logit(model, weights, claim, trust_of))
}

/// The weight-independent evidence of every claim in one model snapshot:
/// the E-step's input.
///
/// A claim's conditional logit sums its live cliques' signed scores,
/// `Σ_π sign_π·(β_s·[1, f^D, f^S] + β_τ·(τ(s) − ½))`, with `β_s` every
/// weight but the trust weight `β_τ`. The static part is `β_s·X_c` for
///
/// ```text
/// X_c = Σ_{live π ∋ c} sign_π·[1, f^D(d), f^S(s)]
/// ```
///
/// an `n_claims × (dim − 1)` matrix that does not depend on the weights,
/// so an E-step pays one short dot product per claim instead of scoring
/// every clique. The trust part needs each incidence's sign, kept in
/// claim-major order (the layout of [`CrfModel::cliques_of`]): `+1`
/// support, `−1` refute, `0` for a tombstoned clique, which then
/// contributes nothing.
///
/// The structure is a function of one snapshot, like
/// [`crate::partition::Partition::of_model`]: [`Self::sync`] rebuilds it
/// whole whenever the model changed. A row adds its live cliques in
/// [`CrfModel::cliques_of`] order, which the canonical layout fixes, so a
/// grown, retired or compacted model has the same rows, bit for bit, as a
/// one-shot build of its survivors.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClaimEvidence {
    /// `X` stored column-major — column `t` holds entry `t` of every
    /// claim — so [`Self::static_logits`] runs across claims.
    x: Vec<f64>,
    n_claims: usize,
    /// Per incidence, claim-major: the clique's sign, `0` when dead.
    signs: Vec<f64>,
    /// The model state the rows were summed from.
    synced: SyncPoint,
}

impl ClaimEvidence {
    /// Bring the evidence to `model`'s current snapshot: a no-op when it
    /// is unchanged since the last sync, a whole rebuild otherwise.
    pub(crate) fn sync(&mut self, model: &CrfModel) {
        if model.since(self.synced) == Since::Unchanged {
            return;
        }
        let n = model.n_claims();
        let md = model.m_doc();
        self.n_claims = n;
        self.x.clear();
        self.x.resize(n * (1 + md + model.m_source()), 0.0);
        self.signs.clear();
        self.signs.reserve(model.n_incidences());
        for c in 0..n {
            for &ci in model.cliques_of(VarId(c as u32)) {
                if !model.clique_live(ci as usize) {
                    self.signs.push(0.0);
                    continue;
                }
                let clique = model.clique(CliqueId(ci));
                let sign = match clique.stance {
                    Stance::Support => 1.0,
                    Stance::Refute => -1.0,
                };
                self.signs.push(sign);
                self.x[c] += sign;
                let features = model
                    .doc_feature_row(clique.doc)
                    .iter()
                    .chain(model.source_feature_row(clique.source));
                for (t, f) in features.enumerate() {
                    self.x[(1 + t) * n + c] += sign * f;
                }
            }
        }
        self.synced = model.sync_point();
    }

    /// Column `t` of `X`: entry `t` of every claim's row. Column 0 is each
    /// claim's signed count of live cliques.
    #[inline]
    pub(crate) fn column(&self, t: usize) -> &[f64] {
        &self.x[t * self.n_claims..(t + 1) * self.n_claims]
    }

    /// Every incidence's sign in claim-major order; a claim's signs sit
    /// at its [`CrfModel::claim_clique_span`].
    #[inline]
    pub(crate) fn signs(&self) -> &[f64] {
        &self.signs
    }

    /// `β_s·X_c` of every claim into `out`, the static part of each
    /// claim's logit (`beta` is the full weight vector; its trust weight
    /// is not read). Each claim's products are added in column order onto
    /// `0.0` — the order is part of the E-step's bit spec — and the
    /// column-outer loop lets the additions of different claims run side
    /// by side.
    pub(crate) fn static_logits(&self, beta: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n_claims, 0.0);
        let columns = self.x.len() / self.n_claims.max(1);
        for (t, &b) in beta[..columns].iter().enumerate() {
            for (acc, &x) in out.iter_mut().zip(self.column(t)) {
                *acc += b * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrfModel, ModelDelta, VarId};

    fn evidence_of(model: &CrfModel) -> ClaimEvidence {
        let mut evidence = ClaimEvidence::default();
        evidence.sync(model);
        evidence
    }

    /// `X_c`, gathered from the columns.
    fn row(evidence: &ClaimEvidence, claim: usize) -> Vec<f64> {
        let columns = evidence.x.len() / evidence.n_claims;
        (0..columns).map(|t| evidence.column(t)[claim]).collect()
    }

    fn model_one_claim(stance: Stance) -> CrfModel {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.5]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.25]).unwrap();
        b.add_clique(c, d, s, stance);
        CrfModel::build(b).unwrap()
    }

    #[test]
    fn clique_features_layout() {
        let m = model_one_claim(Stance::Support);
        let mut x = vec![0.0; m.feature_dim()];
        clique_features(&m, &m.cliques()[0], 0.7, &mut x);
        // Trust is centred: 0.7 - 0.5 = 0.2 (up to float rounding).
        let expect = [1.0, 0.25, 0.5, 0.2];
        for (a, b) in x.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn clique_score_is_dot_product() {
        let m = model_one_claim(Stance::Support);
        let w = Weights::from_vec(vec![0.1, 1.0, 2.0, 3.0]);
        let got = clique_score(&m, &w, &m.cliques()[0], 0.7);
        let expect = 0.1 + 1.0 * 0.25 + 2.0 * 0.5 + 3.0 * (0.7 - 0.5);
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn refute_flips_the_sign() {
        let msup = model_one_claim(Stance::Support);
        let mref = model_one_claim(Stance::Refute);
        let w = Weights::from_vec(vec![0.1, 1.0, 2.0, 3.0]);
        let a = clique_logit_contribution(&msup, &w, &msup.cliques()[0], 0.7);
        let b = clique_logit_contribution(&mref, &w, &mref.cliques()[0], 0.7);
        assert!((a + b).abs() < 1e-12, "support and refute must be opposite");
    }

    #[test]
    fn zero_weights_give_half_probability() {
        let m = model_one_claim(Stance::Support);
        let w = Weights::zeros(m.feature_dim());
        let p = claim_probability(&m, &w, VarId(0), |_| 0.5);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multiple_cliques_sum_their_logits() {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[1.0]).unwrap();
        let c = b.add_claim();
        for _ in 0..3 {
            let d = b.add_document(&[1.0]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        let m = CrfModel::build(b).unwrap();
        let w = Weights::from_vec(vec![0.5, 0.0, 0.0, 0.0]);
        let logit = claim_logit(&m, &w, VarId(0), |_| 0.0);
        assert!((logit - 1.5).abs() < 1e-12, "3 cliques x bias 0.5");
    }

    /// The E-step's decomposition of a claim's logit — `β_s·X_c` plus
    /// each incidence's sign times `β_τ·(τ(s) − ½)` — reproduces
    /// [`claim_logit`] within 1e-12 on a random model with tombstones,
    /// mixed-sign weights and a sweep of per-source trust values.
    #[test]
    fn claim_evidence_reproduces_claim_logit() {
        use crate::graph::RetireSet;
        let mut m = crate::graph::test_support::random_model(40, 8, 3, 77);
        let mut set = RetireSet::for_model(&m);
        set.retire_claim(VarId(5));
        set.retire_source(2);
        m.retire(set).unwrap();
        assert!((0..m.n_incidences()).any(|ci| !m.clique_live(ci)));
        let w = Weights::from_vec(
            (0..m.feature_dim())
                .map(|i| 0.31 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let beta = w.as_slice();
        let trust_w = beta[beta.len() - 1];
        let evidence = evidence_of(&m);
        assert_eq!(evidence.signs().len(), m.n_incidences());
        let mut statics = Vec::new();
        evidence.static_logits(beta, &mut statics);
        for shift in [0.0, 0.17, 0.5, 0.93] {
            let trust_of = |s: u32| (shift + 0.13 * s as f64) % 1.0;
            for (c, &stat) in statics.iter().enumerate() {
                let (lo, hi) = m.claim_clique_span(c);
                let dynamic: f64 = evidence.signs()[lo..hi]
                    .iter()
                    .zip(m.clique_sources_of(VarId(c as u32)))
                    .map(|(sign, &s)| sign * trust_w * (trust_of(s) - 0.5))
                    .sum();
                let folded = stat + dynamic;
                let direct = claim_logit(&m, &w, VarId(c as u32), trust_of);
                assert!(
                    (direct - folded).abs() < 1e-12,
                    "claim {c} shift {shift}: direct {direct} vs folded {folded}"
                );
            }
        }
        // A retired claim keeps a zero row and all-zero signs.
        let (lo, hi) = m.claim_clique_span(5);
        assert!(row(&evidence, 5).iter().all(|&x| x == 0.0));
        assert!(evidence.signs()[lo..hi].iter().all(|&s| s == 0.0));
    }

    /// Lifecycle spec: the evidence of a grown and retired model — and of
    /// the same model after compaction — equals the evidence of a
    /// one-shot build of its survivors bit for bit, row by row through
    /// the claim map, with the live incidences' signs in the same order.
    #[test]
    fn lifecycle_evidence_matches_survivors() {
        use crate::graph::test_support as ts;
        for seed in 0..24u64 {
            let ops = ts::random_lifecycle_script(seed ^ 0x0e71d, 6);
            let (mut model, sim) = ts::replay_lifecycle(&ops);
            let (survivors, claim_map) = sim.build_survivors();
            let expect = evidence_of(&survivors);
            let live_signs = |ev: &ClaimEvidence, m: &CrfModel, c: usize| -> Vec<u64> {
                let (lo, hi) = m.claim_clique_span(c);
                ev.signs()[lo..hi]
                    .iter()
                    .filter(|&&s| s != 0.0)
                    .map(|s| s.to_bits())
                    .collect()
            };
            let bits = |ev: &ClaimEvidence, c: usize| -> Vec<u64> {
                row(ev, c).iter().map(|x| x.to_bits()).collect()
            };
            let got = evidence_of(&model);
            for (c, &to) in claim_map.iter().enumerate() {
                if to == u32::MAX {
                    continue;
                }
                let to = to as usize;
                assert_eq!(bits(&got, c), bits(&expect, to), "seed {seed} claim {c}");
                assert_eq!(
                    live_signs(&got, &model, c),
                    live_signs(&expect, &survivors, to),
                    "seed {seed} claim {c}"
                );
            }
            model.compact().unwrap();
            let compacted = evidence_of(&model);
            assert_eq!(compacted.signs(), expect.signs(), "seed {seed}");
            for c in 0..model.n_claims() {
                assert_eq!(
                    bits(&compacted, c),
                    bits(&expect, c),
                    "seed {seed} compacted claim {c}"
                );
            }
        }
    }

    #[test]
    fn weights_distance() {
        let a = Weights::from_vec(vec![0.0, 0.0]);
        let b = Weights::from_vec(vec![3.0, 4.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
