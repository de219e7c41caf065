//! Information-driven user guidance (§4.2) and the shared information-gain
//! machinery.
//!
//! The benefit of validating claim `c` is the expected reduction in database
//! entropy (Eq. 14–15): `IG_C(c) = H_C(Q) − [P(c)·H_C(Q⁺) + (1−P(c))·H_C(Q⁻)]`,
//! where `Q⁺`/`Q⁻` are obtained by running `iCRF` under the hypothetical
//! input that confirms or refutes `c`. Each candidate therefore costs two
//! bounded inference runs; three optimisations keep this interactive — the
//! two of §5.1 and one that removes work the entropies never read:
//!
//! * **candidate pooling** — information gain is evaluated only for the
//!   `pool_size` most uncertain unlabelled claims (everything else has
//!   near-zero marginal entropy and thus near-zero gain),
//! * **parallelisation** — candidates are scored concurrently on scoped
//!   worker threads (the computations are independent), and
//! * **borrowed E-step** — with one hypothetical EM iteration, the
//!   approximate entropy (Eq. 13) reads only the hypothetical claim
//!   marginals and the source-trust entropy (Eq. 18) reads only the
//!   grounding decided from the hypothetical samples. Both come out of the
//!   iteration's E-step; its trailing M-step only re-estimates weights,
//!   which neither entropy reads. Such candidates are scored through
//!   [`Icrf::hypothetical_estep`]: no engine clone, no M-step, and one
//!   Gibbs scratch per worker, copied from the engine's own
//!   ([`Icrf::estep_scratch`]), so every hypothesis finds the per-claim
//!   evidence already built. The exact entropy reads the
//!   re-estimated weights, and several iterations need M-steps between
//!   E-steps, so both keep running the full hypothetical engine
//!   ([`hypothetical_run`]), a clone that carries the same warm scratch;
//!   it is also the spec the borrowed path is tested against.
//!
//! Opposing claims need no separate ranking: confirming `c` and refuting
//! `¬c` induce the same conditional entropies (§4.2), which our single-bit
//! encoding makes literal.

use crate::context::{GuidanceContext, SelectionStrategy};
use crate::strategies::rank_by_uncertainty;
use crf::entropy::{self, EntropyMode};
use crf::gibbs::{GibbsResult, GibbsScratch};
use crf::{Icrf, VarId};

/// Tuning of the information-gain evaluation.
#[derive(Debug, Clone)]
pub struct InfoGainConfig {
    /// Number of most-uncertain candidates scored per selection.
    pub pool_size: usize,
    /// EM iterations allowed per hypothetical inference run.
    pub hypothetical_em_iters: usize,
    /// Worker threads for candidate scoring (1 = sequential).
    pub threads: usize,
}

impl Default for InfoGainConfig {
    fn default() -> Self {
        InfoGainConfig {
            pool_size: 12,
            hypothetical_em_iters: 1,
            threads: 1,
        }
    }
}

/// `H_C(Q)` of the engine's current state under the chosen estimator.
pub fn database_entropy_of(icrf: &Icrf, mode: EntropyMode) -> f64 {
    entropy::database_entropy(
        icrf.model(),
        icrf.weights(),
        icrf.labels(),
        icrf.probs(),
        icrf.partition(),
        mode,
    )
}

/// Run a bounded hypothetical inference with `claim` pinned to `value` and
/// return the resulting engine.
pub fn hypothetical_run(icrf: &Icrf, claim: VarId, value: bool, em_iters: usize) -> Icrf {
    let mut h = icrf.hypothetical(claim, value);
    h.config_mut().max_em_iters = em_iters;
    h.run();
    h
}

/// The conditional entropy `H_C(Q | c)` of Eq. 14.
pub fn conditional_entropy(icrf: &Icrf, claim: VarId, mode: EntropyMode, em_iters: usize) -> f64 {
    let p = icrf.probs()[claim.idx()];
    let h_plus = database_entropy_of(&hypothetical_run(icrf, claim, true, em_iters), mode);
    let h_minus = database_entropy_of(&hypothetical_run(icrf, claim, false, em_iters), mode);
    p * h_plus + (1.0 - p) * h_minus
}

/// Whether a `em_iters`-iteration hypothetical inference on `icrf` can be
/// replaced by [`Icrf::hypothetical_estep`] for an entropy that reads only
/// marginals or samples: exactly one iteration (its trailing M-step is
/// dead), on an engine whose snapshot is current (a stale one would score
/// against its old model and partition, while the spec syncs).
pub(crate) fn borrows_estep(icrf: &Icrf, em_iters: usize) -> bool {
    em_iters == 1 && icrf.model().revision() == icrf.handle().revision()
}

/// `P(c)·f(E-step | c = 1) + (1 − P(c))·f(E-step | c = 0)` over borrowed
/// hypothetical E-steps: the expectation of Eq. 14 and Eq. 19 when `f`
/// reads only the E-step's marginals or samples (see [`borrows_estep`]).
pub(crate) fn expected_over_estep(
    icrf: &Icrf,
    claim: VarId,
    scratch: &mut GibbsScratch,
    f: impl Fn(&GibbsResult) -> f64,
) -> f64 {
    let p = icrf.probs()[claim.idx()];
    let h_plus = f(&icrf.hypothetical_estep(claim, true, scratch));
    let h_minus = f(&icrf.hypothetical_estep(claim, false, scratch));
    p * h_plus + (1.0 - p) * h_minus
}

/// Score every candidate with `score`, in the candidates' order, on up to
/// `threads` scoped worker threads (§5.1). Each worker lends one Gibbs
/// scratch, a copy of `icrf`'s synced one, to all of its score calls.
pub(crate) fn score_candidates<F>(
    icrf: &Icrf,
    candidates: &[VarId],
    threads: usize,
    score: F,
) -> Vec<f64>
where
    F: Fn(VarId, &mut GibbsScratch) -> f64 + Sync,
{
    let score_chunk = |chunk: &[VarId]| {
        let mut scratch = icrf.estep_scratch();
        chunk
            .iter()
            .map(|&c| score(c, &mut scratch))
            .collect::<Vec<f64>>()
    };
    if threads <= 1 || candidates.len() <= 1 {
        return score_chunk(candidates);
    }
    let chunk = candidates.len().div_ceil(threads.min(candidates.len()));
    std::thread::scope(|s| {
        let handles: Vec<_> = candidates
            .chunks(chunk)
            .map(|cands| s.spawn(move || score_chunk(cands)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("information-gain worker panicked"))
            .collect()
    })
}

/// Score `IG_C` for every candidate, in the candidates' order. Runs on
/// `threads` scoped worker threads when `threads > 1` (§5.1). The
/// approximate entropy with one hypothetical iteration is scored through
/// borrowed E-steps (see the module docs); the result is bit-identical to
/// `H_C(Q) − `[`conditional_entropy`] either way.
pub fn info_gains(
    icrf: &Icrf,
    candidates: &[VarId],
    mode: EntropyMode,
    em_iters: usize,
    threads: usize,
) -> Vec<f64> {
    let h_base = database_entropy_of(icrf, mode);
    if mode == EntropyMode::Approximate && borrows_estep(icrf, em_iters) {
        score_candidates(icrf, candidates, threads, |c, scratch| {
            h_base - expected_over_estep(icrf, c, scratch, |r| entropy::claim_entropy(&r.marginals))
        })
    } else {
        score_candidates(icrf, candidates, threads, |c, _| {
            h_base - conditional_entropy(icrf, c, mode, em_iters)
        })
    }
}

/// The information-driven strategy (`info` in Fig. 6): pick the pooled
/// candidate with maximal `IG_C`.
#[derive(Debug, Clone)]
pub struct InfoGainStrategy {
    config: InfoGainConfig,
}

impl InfoGainStrategy {
    /// Build with the given evaluation configuration.
    pub fn new(config: InfoGainConfig) -> Self {
        InfoGainStrategy { config }
    }

    /// The evaluation configuration.
    pub fn config(&self) -> &InfoGainConfig {
        &self.config
    }
}

impl SelectionStrategy for InfoGainStrategy {
    fn name(&self) -> &'static str {
        "info"
    }

    fn rank(&mut self, ctx: &GuidanceContext<'_>, k: usize) -> Vec<VarId> {
        let pool = rank_by_uncertainty(ctx, self.config.pool_size.max(k));
        if pool.is_empty() {
            return Vec::new();
        }
        let gains = info_gains(
            ctx.icrf,
            &pool,
            ctx.entropy_mode,
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
    use crf::bitset::Bitset;
    use crf::{GibbsConfig, Icrf, IcrfConfig};
    use std::sync::Arc;

    fn engine() -> Icrf {
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
        icrf
    }

    #[test]
    fn hypothetical_run_pins_claim() {
        let icrf = engine();
        let h = hypothetical_run(&icrf, VarId(3), true, 1);
        assert_eq!(h.probs()[3], 1.0);
        assert_eq!(icrf.labels()[3], None, "original untouched");
    }

    /// Validating a claim cannot increase the approximate entropy much: the
    /// claim's own entropy disappears.
    #[test]
    fn labelling_reduces_entropy_in_expectation() {
        let icrf = engine();
        let h0 = database_entropy_of(&icrf, EntropyMode::Approximate);
        // Pick the most uncertain claim.
        let g = Bitset::zeros(icrf.model().n_claims());
        let ctx = GuidanceContext {
            icrf: &icrf,
            grounding: &g,
            entropy_mode: EntropyMode::Approximate,
        };
        let c = rank_by_uncertainty(&ctx, 1)[0];
        let hc = conditional_entropy(&icrf, c, EntropyMode::Approximate, 1);
        assert!(hc < h0, "conditional entropy {hc} not below base {h0}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let icrf = engine();
        let candidates: Vec<VarId> = (0..8).map(VarId).collect();
        let seq = info_gains(&icrf, &candidates, EntropyMode::Approximate, 1, 1);
        let par = info_gains(&icrf, &candidates, EntropyMode::Approximate, 1, 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits(), "seq {a} par {b}");
        }
    }

    #[test]
    fn strategy_returns_unlabelled_claim() {
        let icrf = engine();
        let g = Bitset::zeros(icrf.model().n_claims());
        let ctx = GuidanceContext {
            icrf: &icrf,
            grounding: &g,
            entropy_mode: EntropyMode::Approximate,
        };
        let mut s = InfoGainStrategy::new(InfoGainConfig {
            pool_size: 6,
            ..Default::default()
        });
        let c = s.select(&ctx).expect("claims remain");
        assert!(icrf.labels()[c.idx()].is_none());
    }

    #[test]
    fn ranking_is_descending_in_gain() {
        let icrf = engine();
        let g = Bitset::zeros(icrf.model().n_claims());
        let ctx = GuidanceContext {
            icrf: &icrf,
            grounding: &g,
            entropy_mode: EntropyMode::Approximate,
        };
        let mut s = InfoGainStrategy::new(InfoGainConfig {
            pool_size: 6,
            ..Default::default()
        });
        let ranked = s.rank(&ctx, 6);
        let gains = info_gains(ctx.icrf, &ranked, EntropyMode::Approximate, 1, 1);
        for w in gains.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "gains not descending: {gains:?}");
        }
    }

    #[test]
    fn empty_pool_returns_nothing() {
        let mut icrf = engine();
        let n = icrf.model().n_claims();
        for i in 0..n {
            icrf.set_label(VarId(i as u32), true);
        }
        let g = Bitset::zeros(n);
        let ctx = GuidanceContext {
            icrf: &icrf,
            grounding: &g,
            entropy_mode: EntropyMode::Approximate,
        };
        let mut s = InfoGainStrategy::new(InfoGainConfig::default());
        assert!(s.select(&ctx).is_none());
    }
}
