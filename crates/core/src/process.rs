//! The complete validation process — Algorithm 1 of the paper.
//!
//! Each call to [`ValidationProcess::step`] performs one iteration:
//!
//! 1. *select* a claim through the configured [`SelectionStrategy`]
//!    (falling back to the next-ranked candidates when the user skips),
//! 2. *elicit* user input,
//! 3. *infer* the implications with the warm `iCRF` engine, and
//! 4. *decide* on the new grounding from the final Gibbs samples,
//!
//! then computes the bookkeeping Alg. 1 carries between iterations: the
//! error rate `ε_i` (Eq. 22), the unreliable-source ratio `r_i` (line 17),
//! and the strategy feedback that updates the hybrid score `z_i` (line 18).
//! The loop honours the effort budget `b` and the validation goal `Δ`
//! (Problem 1) and optionally interleaves the confirmation check of §5.2.
//!
//! The process owns one long-lived [`Icrf`] engine, which is what makes the
//! per-iteration inference cheap: the engine's internal scratch — the Gibbs
//! sampler's per-claim evidence and CSR-sized buffers, the per-clique
//! training set, and the Newton solver vectors — is allocated on the first
//! `step` and reused by every subsequent validation, batch, and
//! confirmation-check inference for the lifetime of the session. Inference
//! runs the component-aware E-step scheduler (chains × connected
//! components, §5.1); the per-component telemetry of the most recent
//! inference is available via [`ValidationProcess::last_em_stats`].

use crate::config::ProcessConfig;
use crate::grounding::{grounding_changes, instantiate_grounding};
use crate::robust::confirmation_check;
use crf::bitset::Bitset;
use crf::entropy::source_trust_probs;
use crf::{CrfModel, Icrf, IcrfStats, VarId};
use guidance::{GuidanceContext, IterationFeedback, SelectionStrategy};
use oracle::User;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Telemetry of one validation iteration; the early-termination indicators
/// of §6.1 are computed from sequences of these records.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration number `i`.
    pub iteration: usize,
    /// The validated claim.
    pub claim: VarId,
    /// The user's verdict.
    pub verdict: bool,
    /// Claims the user skipped before answering in this iteration.
    pub skips: usize,
    /// Error rate `ε_i` of the previous grounding on this claim (Eq. 22).
    pub error_rate: f64,
    /// Whether the previous grounding already agreed with the user
    /// ("amount of validated predictions", §6.1).
    pub prediction_matched: bool,
    /// Database entropy `H_C(Q_i)` after inference.
    pub entropy: f64,
    /// Ratio of unreliable sources `r_i` after inference.
    pub unreliable_ratio: f64,
    /// Claims whose grounding value flipped in this iteration.
    pub grounding_changes: usize,
    /// Re-elicitations charged by the confirmation check this iteration.
    pub repair_effort: usize,
    /// Wall-clock time of the full iteration (the `Δt` of Fig. 2–3).
    pub elapsed: Duration,
}

/// The validation process binding a strategy and a user to the engine.
pub struct ValidationProcess<S, U> {
    icrf: Icrf,
    strategy: S,
    user: U,
    config: ProcessConfig,
    grounding: Bitset,
    history: Vec<IterationRecord>,
    effort: usize,
    flagged_log: Vec<VarId>,
    last_em_stats: IcrfStats,
}

impl<S: SelectionStrategy, U: User> ValidationProcess<S, U> {
    /// Initialise the process: runs the first inference (Alg. 1 line 2) and
    /// instantiates the initial grounding `g_0`.
    ///
    /// Accepts a bare `CrfModel` or a shared `Arc<CrfModel>`.
    pub fn new(
        model: impl Into<Arc<CrfModel>>,
        strategy: S,
        user: U,
        config: ProcessConfig,
    ) -> Self {
        let mut icrf = Icrf::new(model, config.icrf.clone());
        let last_em_stats = icrf.run();
        let grounding = instantiate_grounding(&icrf);
        ValidationProcess {
            icrf,
            strategy,
            user,
            config,
            grounding,
            history: Vec::new(),
            effort: 0,
            flagged_log: Vec::new(),
            last_em_stats,
        }
    }

    /// The inference engine (read-only).
    pub fn icrf(&self) -> &Icrf {
        &self.icrf
    }

    /// The current grounding `g_i`.
    pub fn grounding(&self) -> &Bitset {
        &self.grounding
    }

    /// All iteration records so far.
    pub fn history(&self) -> &[IterationRecord] {
        &self.history
    }

    /// Total user effort spent: validations plus repair re-elicitations.
    pub fn effort(&self) -> usize {
        self.effort
    }

    /// Effort as a fraction of the claim count (`E = |C^L| / |C|`, §8.1,
    /// measured in elicitations).
    pub fn effort_ratio(&self) -> f64 {
        self.effort as f64 / self.icrf.model().n_claims() as f64
    }

    /// Engine statistics of the most recent inference call: EM/Newton/Gibbs
    /// effort and the component structure (count, largest).
    pub fn last_em_stats(&self) -> &IcrfStats {
        &self.last_em_stats
    }

    /// The configured strategy (for inspection in experiments).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The configured user (for inspection in experiments, e.g. reading the
    /// mistakes a simulated noisy user injected).
    pub fn user(&self) -> &U {
        &self.user
    }

    /// Current database entropy under the configured estimator.
    pub fn entropy(&self) -> f64 {
        guidance::info_gain::database_entropy_of(&self.icrf, self.config.entropy_mode)
    }

    /// Whether the budget still allows another validation and unlabelled
    /// claims remain.
    pub fn can_continue(&self) -> bool {
        self.effort < self.config.budget
            && self.icrf.n_labelled() < self.icrf.model().n_claims()
            && !self
                .config
                .goal
                .satisfied(self.entropy(), self.icrf.probs())
    }

    /// One iteration of Alg. 1 (lines 6–19). Returns `None` when the goal
    /// is met, the budget is exhausted, or no claims remain.
    pub fn step(&mut self) -> Option<&IterationRecord> {
        if !self.can_continue() {
            return None;
        }
        // det-ok: feeds the iteration-record latency stat only; selection
        // and sampling never read it.
        let started = Instant::now();

        // ---- (1) Select a claim (with skip fallbacks, Fig. 8).
        let ranked = {
            let ctx = GuidanceContext {
                icrf: &self.icrf,
                grounding: &self.grounding,
                entropy_mode: self.config.entropy_mode,
            };
            self.strategy.rank(&ctx, 1 + self.config.skip_fallbacks)
        };
        if ranked.is_empty() {
            return None;
        }

        // ---- (2) Elicit user input; on a skip, try the next-best claim.
        let mut skips = 0usize;
        let mut chosen: Option<(VarId, bool)> = None;
        for attempt in 0..100 {
            let claim = ranked[attempt % ranked.len()];
            if self.icrf.labels()[claim.idx()].is_some() {
                continue;
            }
            match self.user.validate(claim.idx()) {
                Some(v) => {
                    chosen = Some((claim, v));
                    break;
                }
                None => skips += 1,
            }
        }
        let (claim, verdict) = chosen?;

        // ---- Error rate ε_i against the previous grounding (Eq. 22).
        let prev_prob = self.icrf.probs()[claim.idx()];
        let error_rate = if self.grounding.get(claim.idx()) {
            1.0 - prev_prob
        } else {
            prev_prob
        };
        let prediction_matched = self.grounding.get(claim.idx()) == verdict;

        // ---- (3) Incorporate the input and infer (lines 14–15).
        self.icrf.set_label(claim, verdict);
        self.last_em_stats = self.icrf.run();
        self.effort += 1;

        // ---- (4) Decide on the grounding (line 16).
        let new_grounding = instantiate_grounding(&self.icrf);
        let changes = grounding_changes(&self.grounding, &new_grounding);
        self.grounding = new_grounding;

        // ---- Unreliable-source ratio r_i (line 17).
        let trust = source_trust_probs(self.icrf.model(), &self.grounding);
        let unreliable = trust.iter().filter(|&&t| t < 0.5).count();
        let unreliable_ratio = unreliable as f64 / trust.len().max(1) as f64;

        // ---- Strategy feedback: drives z_i (line 18).
        let iteration = self.history.len() + 1;
        self.strategy.observe(IterationFeedback {
            error_rate,
            unreliable_ratio,
            n_validated: self.icrf.n_labelled(),
            n_claims: self.icrf.model().n_claims(),
        });

        // ---- Confirmation check (§5.2), interleaved periodically.
        let mut repair_effort = 0;
        if let Some(every) = self.config.confirmation_check_every {
            if every > 0 && iteration.is_multiple_of(every) {
                let report = self.run_confirmation_check();
                repair_effort = report.re_elicitations;
            }
        }

        let entropy = self.entropy();
        self.history.push(IterationRecord {
            iteration,
            claim,
            verdict,
            skips,
            error_rate,
            prediction_matched,
            entropy,
            unreliable_ratio,
            grounding_changes: changes,
            repair_effort,
            elapsed: started.elapsed(),
        });
        self.history.last()
    }

    /// Run one confirmation sweep (§5.2) immediately, regardless of the
    /// configured period. Flagged claims are logged
    /// ([`Self::flagged_claims`]) and re-elicitations charged to the
    /// effort. Useful as a final audit after the budget is spent.
    pub fn run_confirmation_check(&mut self) -> crate::robust::RepairReport {
        let report = confirmation_check(
            &mut self.icrf,
            &mut self.user,
            self.config.confirmation_em_iters,
        );
        self.effort += report.re_elicitations;
        self.flagged_log.extend(report.flagged.iter().copied());
        if !report.repaired.is_empty() {
            self.grounding = instantiate_grounding(&self.icrf);
        }
        report
    }

    /// Every claim the confirmation check ever flagged as a potential
    /// mistake (duplicates possible across sweeps).
    pub fn flagged_claims(&self) -> &[VarId] {
        &self.flagged_log
    }

    /// Validate a whole batch in one iteration (§6.2): elicit input on all
    /// claims, then run a single inference. Returns the number of claims
    /// actually validated (skips are dropped within a batch).
    pub fn validate_batch(&mut self, claims: &[VarId]) -> usize {
        let mut validated = 0;
        for &claim in claims {
            if self.effort >= self.config.budget {
                break;
            }
            if self.icrf.labels()[claim.idx()].is_some() {
                continue;
            }
            if let Some(v) = self.user.validate(claim.idx()) {
                self.icrf.set_label(claim, v);
                self.effort += 1;
                validated += 1;
            }
        }
        if validated > 0 {
            self.last_em_stats = self.icrf.run();
            self.grounding = instantiate_grounding(&self.icrf);
        }
        validated
    }

    /// Run to completion under the configured budget and goal; returns the
    /// iterations executed by this call.
    pub fn run(&mut self) -> usize {
        let before = self.history.len();
        while self.step().is_some() {}
        self.history.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Goal;
    use crf::GibbsConfig;
    use crf::IcrfConfig;
    use guidance::{InfoGainConfig, InfoGainStrategy, RandomStrategy, UncertaintyStrategy};
    use oracle::{GroundTruthUser, SkippingUser};

    fn quick_icrf_config() -> IcrfConfig {
        IcrfConfig {
            max_em_iters: 1,
            gibbs: GibbsConfig {
                burn_in: 5,
                samples: 20,
                thin: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn fixture() -> (Arc<CrfModel>, Vec<bool>) {
        let ds = factdb::DatasetPreset::WikiMini.generate();
        (Arc::new(ds.db.to_crf_model().unwrap()), ds.truth)
    }

    #[test]
    fn budget_bounds_effort() {
        let (model, truth) = fixture();
        let mut p = ValidationProcess::new(
            model,
            RandomStrategy::new(1),
            GroundTruthUser::new(truth),
            ProcessConfig {
                budget: 5,
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        let iterations = p.run();
        assert_eq!(iterations, 5);
        assert_eq!(p.effort(), 5);
        assert_eq!(p.icrf().n_labelled(), 5);
        assert!(p.step().is_none(), "budget exhausted");
    }

    #[test]
    fn process_terminates_when_all_claims_labelled() {
        let (model, truth) = fixture();
        let n = model.n_claims();
        let mut p = ValidationProcess::new(
            model,
            RandomStrategy::new(2),
            GroundTruthUser::new(truth.clone()),
            ProcessConfig {
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        let iterations = p.run();
        assert_eq!(iterations, n);
        assert_eq!(p.icrf().n_labelled(), n);
        // With a perfect user, the grounding equals the truth on labelled
        // claims (all of them).
        for (i, &t) in truth.iter().enumerate() {
            assert_eq!(p.grounding().get(i), t, "claim {i}");
        }
    }

    #[test]
    fn entropy_goal_stops_early() {
        let (model, truth) = fixture();
        let mut p = ValidationProcess::new(
            model.clone(),
            UncertaintyStrategy::new(),
            GroundTruthUser::new(truth),
            ProcessConfig {
                goal: Goal::EntropyBelow(4.0),
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        p.run();
        assert!(
            p.entropy() < 4.0,
            "stopped at entropy {} without meeting the goal",
            p.entropy()
        );
        assert!(
            p.icrf().n_labelled() < model.n_claims(),
            "goal should fire before exhausting all claims"
        );
    }

    #[test]
    fn records_carry_consistent_telemetry() {
        let (model, truth) = fixture();
        let mut p = ValidationProcess::new(
            model,
            UncertaintyStrategy::new(),
            GroundTruthUser::new(truth),
            ProcessConfig {
                budget: 8,
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        p.run();
        for (idx, rec) in p.history().iter().enumerate() {
            assert_eq!(rec.iteration, idx + 1);
            assert!(
                (0.0..=1.0).contains(&rec.error_rate),
                "ε={}",
                rec.error_rate
            );
            assert!((0.0..=1.0).contains(&rec.unreliable_ratio));
            assert!(rec.entropy >= 0.0);
            assert!(rec.elapsed > Duration::ZERO);
        }
    }

    #[test]
    fn error_rate_matches_eq22() {
        // If the previous grounding said credible with P=0.9, the error
        // rate of that iteration must be 0.1.
        let (model, truth) = fixture();
        let mut p = ValidationProcess::new(
            model,
            RandomStrategy::new(5),
            GroundTruthUser::new(truth),
            ProcessConfig {
                budget: 3,
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        while let Some(_rec) = p.step() {}
        for rec in p.history() {
            // prediction_matched <-> low error rate relative to verdict:
            // ε is 1−P when grounded credible; both derive from the same
            // pre-label state, so ε must lie in [0,1]. (Exact cross-check
            // happens in the crf-level tests; here we check coherence.)
            if rec.prediction_matched && rec.verdict {
                assert!(rec.error_rate <= 1.0);
            }
        }
    }

    #[test]
    fn skipping_user_still_progresses() {
        let (model, truth) = fixture();
        let user = SkippingUser::new(GroundTruthUser::new(truth), 0.4, 11);
        let mut p = ValidationProcess::new(
            model,
            RandomStrategy::new(3),
            user,
            ProcessConfig {
                budget: 10,
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        let iterations = p.run();
        assert_eq!(iterations, 10, "skips must not consume budget");
        let total_skips: usize = p.history().iter().map(|r| r.skips).sum();
        assert!(total_skips > 0, "p_skip=0.4 should skip sometimes");
    }

    #[test]
    fn confirmation_check_spends_repair_effort_on_noisy_user() {
        let (model, truth) = fixture();
        let user = oracle::NoisyUser::new(GroundTruthUser::new(truth), 0.3, 17);
        let mut p = ValidationProcess::new(
            model,
            UncertaintyStrategy::new(),
            user,
            ProcessConfig {
                budget: 30,
                confirmation_check_every: Some(5),
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        p.run();
        let repair: usize = p.history().iter().map(|r| r.repair_effort).sum();
        assert!(
            p.effort() >= p.history().len(),
            "effort {} < iterations {}",
            p.effort(),
            p.history().len()
        );
        // With 30% mistakes, at least one repair is overwhelmingly likely.
        assert!(repair > 0, "no repairs despite noisy user");
    }

    /// The per-component E-step telemetry is populated and kept current
    /// across validation iterations.
    #[test]
    fn em_stats_carry_component_telemetry() {
        let (model, truth) = fixture();
        let n = model.n_claims();
        let mut p = ValidationProcess::new(
            model,
            RandomStrategy::new(4),
            GroundTruthUser::new(truth),
            ProcessConfig {
                budget: 2,
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        let initial = p.last_em_stats().clone();
        assert!(initial.components >= 1);
        assert!(initial.largest_component >= 1 && initial.largest_component <= n);
        assert!(initial.em_iterations >= 1);
        p.run();
        let after = p.last_em_stats();
        assert_eq!(after.components, initial.components);
        assert!(after.em_iterations >= 1);
    }

    #[test]
    fn info_gain_strategy_drives_process() {
        let (model, truth) = fixture();
        let mut p = ValidationProcess::new(
            model,
            InfoGainStrategy::new(InfoGainConfig {
                pool_size: 5,
                ..Default::default()
            }),
            GroundTruthUser::new(truth),
            ProcessConfig {
                budget: 4,
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        assert_eq!(p.run(), 4);
    }

    #[test]
    fn validate_batch_labels_and_infers_once() {
        let (model, truth) = fixture();
        let mut p = ValidationProcess::new(
            model,
            RandomStrategy::new(8),
            GroundTruthUser::new(truth.clone()),
            ProcessConfig {
                icrf: quick_icrf_config(),
                ..Default::default()
            },
        );
        let batch: Vec<VarId> = (0..6).map(VarId).collect();
        let validated = p.validate_batch(&batch);
        assert_eq!(validated, 6);
        assert_eq!(p.effort(), 6);
        for c in &batch {
            assert_eq!(p.icrf().labels()[c.idx()], Some(truth[c.idx()]));
        }
        // Re-validating the same batch is a no-op.
        assert_eq!(p.validate_batch(&batch), 0);
    }
}
