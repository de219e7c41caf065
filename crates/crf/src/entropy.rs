//! Uncertainty measures over a probabilistic fact database (§4.1).
//!
//! Two estimators of `H_C(Q)` are provided, mirroring the paper:
//!
//! * [`claim_entropy`] — the linear-time approximation of Eq. 13 that treats
//!   claims as independent Bernoulli variables with their current marginal
//!   probabilities. This is the "scalable" variant evaluated in Fig. 2.
//! * [`database_entropy`] with [`EntropyMode::Exact`] — the exact entropy of
//!   the joint configuration distribution, computed per connected component
//!   by exhaustive enumeration (components are source-closed, so the joint
//!   factorises across them; the paper computes the same quantity with Ising
//!   methods \[57\], which equally exploit the acyclic component structure).
//!   Components larger than the configured bound fall back to the
//!   approximation, keeping the estimator total.
//!
//! The source-trust entropy `H_S(Q)` of Eq. 18, which drives the
//! source-driven guidance strategy, is provided by [`source_trust_entropy`].

use crate::bitset::Bitset;
use crate::graph::{CliqueId, CrfModel, VarId};
use crate::numerics::{binary_entropy, logsumexp};
use crate::partition::Partition;
use crate::potentials::{clique_score, Weights, TRUST_PRIOR};

/// How to estimate the database entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntropyMode {
    /// Eq. 13: sum of independent binary claim entropies. Linear time.
    Approximate,
    /// Exact enumeration within connected components of at most
    /// `max_component` unlabelled claims; larger components use the
    /// approximation.
    Exact {
        /// Enumeration bound (2^max_component configurations per component).
        max_component: usize,
    },
}

/// Eq. 13: `H_C(Q) ≈ Σ_c H(P(c))` in nats. Labelled claims have
/// probability 0 or 1 and contribute nothing.
pub fn claim_entropy(probs: &[f64]) -> f64 {
    probs.iter().map(|&p| binary_entropy(p)).sum()
}

/// Eq. 17–18: entropy of the per-source trustworthiness values derived from
/// a grounding: `Pr(s) = Σ_{c ∈ C_s} g(c) / |C_s|`.
pub fn source_trust_entropy(model: &CrfModel, grounding: &Bitset) -> f64 {
    (0..model.n_sources() as u32)
        .map(|s| {
            let claims = model.claims_of_source(s);
            if claims.is_empty() {
                return 0.0;
            }
            let credible = claims
                .iter()
                .filter(|&&c| grounding.get(c as usize))
                .count();
            binary_entropy(credible as f64 / claims.len() as f64)
        })
        .sum()
}

/// Per-source trust probabilities from a grounding (Eq. 17), exposed for
/// the hybrid strategy's unreliable-source ratio (Alg. 1 line 17).
pub fn source_trust_probs(model: &CrfModel, grounding: &Bitset) -> Vec<f64> {
    (0..model.n_sources() as u32)
        .map(|s| {
            let claims = model.claims_of_source(s);
            if claims.is_empty() {
                return 0.5;
            }
            let credible = claims
                .iter()
                .filter(|&&c| grounding.get(c as usize))
                .count();
            credible as f64 / claims.len() as f64
        })
        .collect()
}

/// Entropy of the full database under the chosen mode.
///
/// `labels` pins validated claims; `probs` supplies marginals for the
/// approximate path and for components that exceed the enumeration bound.
pub fn database_entropy(
    model: &CrfModel,
    weights: &Weights,
    labels: &[Option<bool>],
    probs: &[f64],
    partition: &Partition,
    mode: EntropyMode,
) -> f64 {
    match mode {
        EntropyMode::Approximate => claim_entropy(probs),
        EntropyMode::Exact { max_component } => {
            let mut h = 0.0;
            for comp in partition.iter() {
                let unlabelled: Vec<usize> = comp
                    .iter()
                    .copied()
                    .filter(|&c| labels[c].is_none())
                    .collect();
                if unlabelled.is_empty() {
                    continue;
                }
                if unlabelled.len() <= max_component {
                    h += exact_component_entropy(model, weights, labels, comp);
                } else {
                    h += comp.iter().map(|&c| binary_entropy(probs[c])).sum::<f64>();
                }
            }
            h
        }
    }
}

/// Exact entropy of one connected component by exhaustive enumeration.
///
/// The joint over the component's unlabelled claims is
/// `p(ω) ∝ exp( Σ_π 1[effective value = 1] · β·x_π(τ(ω)) )`, where the
/// dynamic trust `τ` is evaluated on the full configuration `ω` (labelled
/// claims fixed). The component is source-closed by construction of
/// [`Partition`], so no trust term depends on claims outside it.
pub fn exact_component_entropy(
    model: &CrfModel,
    weights: &Weights,
    labels: &[Option<bool>],
    component: &[usize],
) -> f64 {
    let unlabelled: Vec<usize> = component
        .iter()
        .copied()
        .filter(|&c| labels[c].is_none())
        .collect();
    let k = unlabelled.len();
    assert!(k <= 24, "component too large for enumeration: {k}");
    if k == 0 {
        return 0.0;
    }

    // All cliques touching the component's claims.
    let clique_ids: Vec<u32> = component
        .iter()
        .flat_map(|&c| model.cliques_of(VarId(c as u32)).iter().copied())
        .collect();
    // All sources of the component (for trust evaluation).
    let mut sources: Vec<u32> = component
        .iter()
        .flat_map(|&c| model.sources_of_claim(VarId(c as u32)).iter().copied())
        .collect();
    sources.sort_unstable();
    sources.dedup();

    let n = model.n_claims();
    let mut value = vec![false; n];
    for &c in component {
        if let Some(v) = labels[c] {
            value[c] = v;
        }
    }

    let mut log_weights = Vec::with_capacity(1usize << k);
    for mask in 0u64..(1u64 << k) {
        for (j, &c) in unlabelled.iter().enumerate() {
            value[c] = (mask >> j) & 1 == 1;
        }
        // Trust per source under this configuration.
        let trust_of = |s: u32| -> f64 {
            let (a, b) = TRUST_PRIOR;
            let claims = model.claims_of_source(s);
            let credible = claims.iter().filter(|&&c| value[c as usize]).count() as f64;
            (a + credible) / (a + b + claims.len() as f64)
        };
        let mut lw = 0.0;
        for &ci in &clique_ids {
            let cl = model.clique(CliqueId(ci));
            let effective = cl.stance.effective(value[cl.claim.idx()]);
            if effective {
                lw += clique_score(model, weights, cl, trust_of(cl.source));
            }
        }
        log_weights.push(lw);
    }

    let log_z = logsumexp(&log_weights);
    // H = log Z − Σ p·log p̃ = Σ p (log Z − log p̃)
    log_weights
        .iter()
        .map(|&lw| {
            let p = (lw - log_z).exp();
            if p > 0.0 {
                p * (log_z - lw)
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrfModel, ModelDelta, Stance};
    use proptest::prelude::*;

    fn chain_model(n: usize) -> CrfModel {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.3]).unwrap();
        for _ in 0..n {
            let c = b.add_claim();
            let d = b.add_document(&[0.6]).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
        CrfModel::build(b).unwrap()
    }

    #[test]
    fn claim_entropy_of_uniform_is_n_log2() {
        let h = claim_entropy(&[0.5, 0.5, 0.5]);
        assert!((h - 3.0 * 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn claim_entropy_of_certain_db_is_zero() {
        assert_eq!(claim_entropy(&[0.0, 1.0, 1.0, 0.0]), 0.0);
    }

    /// With zero weights the joint is uniform: exact entropy = k·ln 2,
    /// matching the approximation exactly.
    #[test]
    fn exact_matches_approx_for_uniform_joint() {
        let m = chain_model(4);
        let w = Weights::zeros(m.feature_dim());
        let labels = vec![None; 4];
        let comp: Vec<usize> = (0..4).collect();
        let h = exact_component_entropy(&m, &w, &labels, &comp);
        assert!((h - 4.0 * 2.0f64.ln()).abs() < 1e-9, "h={h}");
    }

    /// Strong positive weights concentrate the joint: entropy far below
    /// uniform.
    #[test]
    fn exact_entropy_decreases_with_concentration() {
        let m = chain_model(4);
        let labels = vec![None; 4];
        let comp: Vec<usize> = (0..4).collect();
        let w = Weights::from_vec(vec![4.0, 0.0, 0.0, 0.0]);
        let h = exact_component_entropy(&m, &w, &labels, &comp);
        assert!(h < 0.5, "h={h} should be far below {}", 4.0 * 2.0f64.ln());
    }

    /// Labelling claims removes them from the entropy.
    #[test]
    fn labels_reduce_exact_entropy() {
        let m = chain_model(4);
        let w = Weights::zeros(m.feature_dim());
        let comp: Vec<usize> = (0..4).collect();
        let h_full = exact_component_entropy(&m, &w, &[None; 4], &comp);
        let mut labels = vec![None; 4];
        labels[0] = Some(true);
        labels[1] = Some(false);
        let h_half = exact_component_entropy(&m, &w, &labels, &comp);
        assert!((h_full - 4.0 * 2.0f64.ln()).abs() < 1e-9);
        assert!((h_half - 2.0 * 2.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn database_entropy_modes_agree_on_uniform() {
        let m = chain_model(5);
        let w = Weights::zeros(m.feature_dim());
        let labels = vec![None; 5];
        let probs = vec![0.5; 5];
        let p = Partition::of_model(&m);
        let ha = database_entropy(&m, &w, &labels, &probs, &p, EntropyMode::Approximate);
        let he = database_entropy(
            &m,
            &w,
            &labels,
            &probs,
            &p,
            EntropyMode::Exact { max_component: 10 },
        );
        assert!((ha - he).abs() < 1e-9, "approx={ha} exact={he}");
    }

    #[test]
    fn oversized_component_falls_back_to_approx() {
        let m = chain_model(6);
        let w = Weights::from_vec(vec![3.0, 0.0, 0.0, 0.0]);
        let labels = vec![None; 6];
        let probs = vec![0.9; 6];
        let p = Partition::of_model(&m);
        let h = database_entropy(
            &m,
            &w,
            &labels,
            &probs,
            &p,
            EntropyMode::Exact { max_component: 2 }, // component has 6 > 2
        );
        assert!((h - claim_entropy(&probs)).abs() < 1e-12);
    }

    #[test]
    fn source_trust_entropy_zero_when_unanimous() {
        let m = chain_model(4);
        let g_all = Bitset::from_bools(&[true; 4]);
        assert_eq!(source_trust_entropy(&m, &g_all), 0.0);
        let g_none = Bitset::from_bools(&[false; 4]);
        assert_eq!(source_trust_entropy(&m, &g_none), 0.0);
        let g_half = Bitset::from_bools(&[true, true, false, false]);
        assert!(source_trust_entropy(&m, &g_half) > 0.6);
    }

    #[test]
    fn source_trust_probs_fraction() {
        let m = chain_model(4);
        let g = Bitset::from_bools(&[true, false, false, false]);
        let t = source_trust_probs(&m, &g);
        assert_eq!(t.len(), 1);
        assert!((t[0] - 0.25).abs() < 1e-12);
    }

    proptest! {
        /// Exact component entropy is bounded by k·ln 2 and non-negative.
        #[test]
        fn prop_exact_entropy_bounds(
            bias in -2.0f64..2.0,
            n in 1usize..6,
        ) {
            let m = chain_model(n);
            let w = Weights::from_vec(vec![bias, 0.0, 0.0, 0.0]);
            let labels = vec![None; n];
            let comp: Vec<usize> = (0..n).collect();
            let h = exact_component_entropy(&m, &w, &labels, &comp);
            prop_assert!(h >= -1e-12);
            prop_assert!(h <= n as f64 * 2.0f64.ln() + 1e-9);
        }

        /// The approximation upper-bounds the exact entropy when marginals
        /// are the true ones (independence maximises joint entropy for fixed
        /// marginals). We verify with marginals computed from enumeration.
        #[test]
        fn prop_independence_bound(bias in -1.5f64..1.5, trustw in -1.5f64..1.5) {
            let m = chain_model(3);
            let w = Weights::from_vec(vec![bias, 0.0, 0.0, trustw]);
            let labels = vec![None; 3];
            let comp: Vec<usize> = (0..3).collect();
            let h_exact = exact_component_entropy(&m, &w, &labels, &comp);
            // Enumerate to get true marginals.
            let mut marginals = [0.0f64; 3];
            let mut lws = Vec::new();
            for mask in 0u64..8 {
                let vals = [(mask & 1) == 1, (mask & 2) != 0, (mask & 4) != 0];
                let trust_of = |_s: u32| {
                    let credible = vals.iter().filter(|&&v| v).count() as f64;
                    (1.0 + credible) / (2.0 + 3.0)
                };
                let mut lw = 0.0;
                for (ci, cl) in m.cliques().iter().enumerate() {
                    let _ = ci;
                    if cl.stance.effective(vals[cl.claim.idx()]) {
                        lw += crate::potentials::clique_score(&m, &w, cl, trust_of(cl.source));
                    }
                }
                lws.push((mask, lw));
            }
            let logz = crate::numerics::logsumexp(
                &lws.iter().map(|&(_, lw)| lw).collect::<Vec<_>>(),
            );
            for &(mask, lw) in &lws {
                let p = (lw - logz).exp();
                for (j, marg) in marginals.iter_mut().enumerate() {
                    if (mask >> j) & 1 == 1 {
                        *marg += p;
                    }
                }
            }
            let h_approx = claim_entropy(&marginals);
            prop_assert!(h_approx >= h_exact - 1e-9,
                "approx {h_approx} < exact {h_exact}");
        }
    }
}
