//! Interleaving Alg. 1 (validation) and Alg. 2 (streaming) — the
//! experimental setup of Table 2.
//!
//! Both algorithms run "in parallel and influence the parameters of one
//! another" (§7). To compare against the offline setting, §8.8 replays a
//! corpus in arrival order and periodically invokes the validation process
//! on the claims seen so far; the resulting validation *sequence* is then
//! correlated (Kendall's τ_b) with the sequence the fully offline process
//! produces. This module computes both sequences.

use crate::online_em::OnlineEmConfig;
use crate::replay::Replay;
use crate::stream::StreamingChecker;
use crf::{Icrf, IcrfConfig, ModelHandle, VarId};
use factcheck::instantiate_grounding;
use guidance::{GuidanceContext, HybridStrategy, InfoGainConfig, SelectionStrategy};
use oracle::{GroundTruthUser, User};

/// Configuration of the interleaved run.
#[derive(Debug, Clone)]
pub struct InterleaveConfig {
    /// Invoke the validation process after every `period_fraction` of new
    /// claims has arrived (Table 2 varies this from 5% to 30%).
    pub period_fraction: f64,
    /// Claims validated per invocation.
    pub validations_per_period: usize,
    /// Inference settings for the periodic offline passes.
    pub icrf: IcrfConfig,
    /// Guidance settings (hybrid strategy, like Table 2).
    pub ig: InfoGainConfig,
    /// RNG seed for the hybrid roulette.
    pub seed: u64,
    /// Arrival order of the claims ("posting time", §8.8). Defaults to
    /// index order when `None`.
    pub arrival_order: Option<Vec<VarId>>,
}

impl Default for InterleaveConfig {
    fn default() -> Self {
        InterleaveConfig {
            period_fraction: 0.1,
            validations_per_period: 2,
            icrf: IcrfConfig::default(),
            ig: InfoGainConfig::default(),
            seed: 0x17ea,
            arrival_order: None,
        }
    }
}

/// The offline validation sequence: run the hybrid strategy over the full
/// corpus for `n_validations` iterations and record the claim order.
pub fn offline_sequence(
    model: impl Into<ModelHandle>,
    truth: &[bool],
    n_validations: usize,
    icrf_config: IcrfConfig,
    ig: InfoGainConfig,
    seed: u64,
) -> Vec<VarId> {
    let mut icrf = Icrf::new(model, icrf_config);
    icrf.run();
    let mut strategy = HybridStrategy::new(ig, seed);
    let mut user = GroundTruthUser::new(truth.to_vec());
    let mut sequence = Vec::with_capacity(n_validations);
    for _ in 0..n_validations {
        let grounding = instantiate_grounding(&icrf);
        let pick = {
            let ctx = GuidanceContext {
                icrf: &icrf,
                grounding: &grounding,
                entropy_mode: crf::entropy::EntropyMode::Approximate,
            };
            strategy.select(&ctx)
        };
        let Some(claim) = pick else { break };
        let v = user
            .validate(claim.idx())
            .expect("ground-truth user answers");
        icrf.set_label(claim, v);
        icrf.run();
        sequence.push(claim);
    }
    sequence
}

/// The streaming validation sequence: claims arrive in
/// [`InterleaveConfig::arrival_order`]; after every period, the validation
/// process is invoked on the claims arrived so far, with model parameters
/// provided by the streaming algorithm.
///
/// The checker grows its own lineage from a [`Replay`] of the corpus, while
/// the validation process infers over the whole corpus and selects only
/// among arrived claims. The two exchange parameters only (Alg. 2 lines 7
/// and 10).
pub fn streaming_sequence(
    model: impl Into<ModelHandle>,
    truth: &[bool],
    n_validations: usize,
    config: &InterleaveConfig,
) -> Vec<VarId> {
    let corpus = model.into();
    let n = corpus.snapshot().n_claims();
    let order: Vec<VarId> = config
        .arrival_order
        .clone()
        .unwrap_or_else(|| (0..n as u32).map(VarId).collect());
    let (mut replay, seed) =
        Replay::start(corpus.snapshot(), order).expect("a corpus publishes a document");
    let mut checker = StreamingChecker::try_new(seed, OnlineEmConfig::default())
        .expect("the online estimator has no settings to reject");
    let mut icrf = Icrf::new(corpus, config.icrf.clone());
    let mut strategy = HybridStrategy::new(config.ig.clone(), config.seed);
    let mut user = GroundTruthUser::new(truth.to_vec());
    let mut sequence = Vec::new();

    let period = ((n as f64 * config.period_fraction).round() as usize).max(1);
    for arrived in 1..=n {
        // The seed model already holds the first arrivals.
        if arrived > replay.arrived().len() {
            let delta = replay
                .next_delta(checker.model())
                .expect("the order covers every claim");
            checker
                .arrive_new(delta)
                .expect("a replayed arrival applies");
        }
        if arrived % period != 0 && arrived != n {
            continue;
        }
        // Parameter hand-off from the streaming side (Alg. 2 line 10), then
        // run the offline inference and restrict the strategy's choices to
        // the arrived claims by filtering its ranking.
        checker.feed_into(&mut icrf);
        icrf.run();
        let visible = &replay.arrived()[..arrived];
        for _ in 0..config.validations_per_period {
            if sequence.len() >= n_validations {
                break;
            }
            let grounding = instantiate_grounding(&icrf);
            let ranked = {
                let ctx = GuidanceContext {
                    icrf: &icrf,
                    grounding: &grounding,
                    entropy_mode: crf::entropy::EntropyMode::Approximate,
                };
                strategy.rank(&ctx, visible.len())
            };
            let Some(claim) = ranked.into_iter().find(|c| visible.contains(c)) else {
                break;
            };
            let v = user
                .validate(claim.idx())
                .expect("ground-truth user answers");
            icrf.set_label(claim, v);
            icrf.run();
            checker.exchange_from(&icrf);
            sequence.push(claim);
        }
        if sequence.len() >= n_validations {
            break;
        }
    }
    sequence
}

#[cfg(test)]
mod tests {
    use super::*;
    use crf::GibbsConfig;
    use std::sync::Arc;

    fn quick_icrf() -> IcrfConfig {
        IcrfConfig {
            max_em_iters: 1,
            gibbs: GibbsConfig {
                burn_in: 5,
                samples: 15,
                thin: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn quick_ig() -> InfoGainConfig {
        InfoGainConfig {
            pool_size: 4,
            hypothetical_em_iters: 1,
            threads: 1,
        }
    }

    #[test]
    fn offline_sequence_has_distinct_claims() {
        let ds = factdb::DatasetPreset::WikiMini.generate();
        let model = Arc::new(ds.db.to_crf_model().unwrap());
        let seq = offline_sequence(model, &ds.truth, 8, quick_icrf(), quick_ig(), 1);
        assert_eq!(seq.len(), 8);
        let mut ids: Vec<u32> = seq.iter().map(|v| v.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "claims validated twice");
    }

    #[test]
    fn streaming_sequence_only_validates_visible_claims() {
        let ds = factdb::DatasetPreset::WikiMini.generate();
        let model = Arc::new(ds.db.to_crf_model().unwrap());
        let n = model.n_claims();
        let config = InterleaveConfig {
            period_fraction: 0.25,
            validations_per_period: 2,
            icrf: quick_icrf(),
            ig: quick_ig(),
            ..Default::default()
        };
        let seq = streaming_sequence(model, &ds.truth, 8, &config);
        assert!(!seq.is_empty());
        let period = (n as f64 * 0.25).round() as usize;
        // The first validated claim can only come from the first period.
        assert!(
            seq[0].idx() < period,
            "first validation {:?} arrived after the first period",
            seq[0]
        );
    }

    /// The streaming arrival path is reproducible end to end under the
    /// component-scheduled E-step.
    #[test]
    fn streaming_sequence_is_deterministic_under_component_schedule() {
        let ds = factdb::DatasetPreset::WikiMini.generate();
        let model = Arc::new(ds.db.to_crf_model().unwrap());
        let mk = || {
            let config = InterleaveConfig {
                period_fraction: 0.25,
                validations_per_period: 2,
                icrf: quick_icrf(),
                ig: quick_ig(),
                ..Default::default()
            };
            streaming_sequence(model.clone(), &ds.truth, 6, &config)
        };
        let a = mk();
        assert!(!a.is_empty());
        assert_eq!(a, mk(), "streaming run must be reproducible");
    }

    #[test]
    fn longer_periods_allow_larger_pools() {
        // Sanity: both sequences are non-empty and bounded by the corpus.
        let ds = factdb::DatasetPreset::WikiMini.generate();
        let model = Arc::new(ds.db.to_crf_model().unwrap());
        for period in [0.1, 0.3] {
            let config = InterleaveConfig {
                period_fraction: period,
                validations_per_period: 1,
                icrf: quick_icrf(),
                ig: quick_ig(),
                ..Default::default()
            };
            let seq = streaming_sequence(model.clone(), &ds.truth, 5, &config);
            assert!(seq.len() <= 5);
            assert!(!seq.is_empty());
        }
    }
}
