//! Source-driven user guidance (§4.3).
//!
//! The information-driven strategy assumes trustworthy sources; when that
//! fails, the paper guides by the uncertainty of *source trustworthiness*:
//! `Pr(s)` is the fraction of a source's claims deemed credible by the
//! current grounding (Eq. 17), `H_S(Q)` its entropy (Eq. 18), and the claim
//! maximising `IG_S(c) = H_S(Q) − H_S(Q|c)` (Eq. 19–21) is selected. Like
//! `IG_C`, the conditional term requires two hypothetical `iCRF` runs per
//! candidate, after each of which a grounding is instantiated from the run's
//! final Gibbs samples — with one hypothetical iteration, the samples of a
//! borrowed E-step (see [`crate::info_gain`]).

use crate::context::{GuidanceContext, SelectionStrategy};
use crate::info_gain::{
    borrows_estep, expected_over_estep, hypothetical_run, score_candidates, InfoGainConfig,
};
use crate::strategies::rank_by_uncertainty;
use crf::entropy::source_trust_entropy;
use crf::gibbs::mode_configuration;
use crf::{Icrf, VarId};

/// `H_S(Q|c)`: expected source-trust entropy after validating `claim`
/// (Eq. 19).
pub fn conditional_source_entropy(icrf: &Icrf, claim: VarId, em_iters: usize) -> f64 {
    let p = icrf.probs()[claim.idx()];
    let h = |value: bool| {
        let hyp = hypothetical_run(icrf, claim, value, em_iters);
        let grounding = mode_configuration(hyp.last_samples(), hyp.partition());
        source_trust_entropy(hyp.model(), &grounding)
    };
    p * h(true) + (1.0 - p) * h(false)
}

/// Score `IG_S` for every candidate, optionally on worker threads. With
/// one hypothetical iteration the candidates are scored through borrowed
/// E-steps (see [`crate::info_gain`]); the result is bit-identical to
/// `H_S(Q) − `[`conditional_source_entropy`] either way.
pub fn source_gains(
    icrf: &Icrf,
    grounding: &crf::Bitset,
    candidates: &[VarId],
    em_iters: usize,
    threads: usize,
) -> Vec<f64> {
    let h_base = source_trust_entropy(icrf.model(), grounding);
    if borrows_estep(icrf, em_iters) {
        score_candidates(icrf, candidates, threads, |c, scratch| {
            h_base
                - expected_over_estep(icrf, c, scratch, |r| {
                    let grounding = mode_configuration(&r.samples, icrf.partition());
                    source_trust_entropy(icrf.model(), &grounding)
                })
        })
    } else {
        score_candidates(icrf, candidates, threads, |c, _| {
            h_base - conditional_source_entropy(icrf, c, em_iters)
        })
    }
}

/// The source-driven strategy (`source` in Fig. 6).
#[derive(Debug, Clone)]
pub struct SourceDrivenStrategy {
    config: InfoGainConfig,
}

impl SourceDrivenStrategy {
    /// Build with the given evaluation configuration (shared shape with the
    /// information-driven strategy).
    pub fn new(config: InfoGainConfig) -> Self {
        SourceDrivenStrategy { config }
    }
}

impl SelectionStrategy for SourceDrivenStrategy {
    fn name(&self) -> &'static str {
        "source"
    }

    fn rank(&mut self, ctx: &GuidanceContext<'_>, k: usize) -> Vec<VarId> {
        let pool = rank_by_uncertainty(ctx, self.config.pool_size.max(k));
        if pool.is_empty() {
            return Vec::new();
        }
        let gains = source_gains(
            ctx.icrf,
            ctx.grounding,
            &pool,
            self.config.hypothetical_em_iters,
            self.config.threads,
        );
        let mut scored: Vec<(f64, VarId)> = gains.into_iter().zip(pool).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().take(k).map(|(_, c)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GuidanceContext;
    use crf::entropy::EntropyMode;
    use crf::{GibbsConfig, IcrfConfig};
    use std::sync::Arc;

    fn engine() -> (Icrf, crf::Bitset) {
        let ds = factdb::DatasetPreset::WikiMini.generate();
        let model = Arc::new(ds.db.to_crf_model().unwrap());
        let mut icrf = Icrf::new(
            model,
            IcrfConfig {
                max_em_iters: 2,
                gibbs: GibbsConfig {
                    burn_in: 8,
                    samples: 30,
                    thin: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        icrf.run();
        let grounding = mode_configuration(icrf.last_samples(), icrf.partition());
        (icrf, grounding)
    }

    #[test]
    fn conditional_source_entropy_is_finite_and_nonnegative() {
        let (icrf, _) = engine();
        let h = conditional_source_entropy(&icrf, VarId(0), 1);
        assert!(h.is_finite() && h >= 0.0, "H_S|c = {h}");
    }

    /// Any thread count, including more workers than candidates, scores
    /// bit-identically to the sequential path.
    #[test]
    fn parallel_matches_sequential() {
        let (icrf, g) = engine();
        let candidates: Vec<VarId> = (0..6).map(VarId).collect();
        let seq = source_gains(&icrf, &g, &candidates, 1, 1);
        for threads in [2, 3, 4, 8] {
            let par = source_gains(&icrf, &g, &candidates, 1, threads);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&par), bits(&seq), "{threads} threads");
        }
    }

    #[test]
    fn strategy_selects_unlabelled() {
        let (icrf, g) = engine();
        let ctx = GuidanceContext {
            icrf: &icrf,
            grounding: &g,
            entropy_mode: EntropyMode::Approximate,
        };
        let mut s = SourceDrivenStrategy::new(InfoGainConfig {
            pool_size: 5,
            ..Default::default()
        });
        let c = s.select(&ctx).expect("claims remain");
        assert!(icrf.labels()[c.idx()].is_none());
        assert_eq!(s.name(), "source");
    }

    #[test]
    fn rank_respects_k() {
        let (icrf, g) = engine();
        let ctx = GuidanceContext {
            icrf: &icrf,
            grounding: &g,
            entropy_mode: EntropyMode::Approximate,
        };
        let mut s = SourceDrivenStrategy::new(InfoGainConfig {
            pool_size: 8,
            ..Default::default()
        });
        assert_eq!(s.rank(&ctx, 3).len(), 3);
    }
}
