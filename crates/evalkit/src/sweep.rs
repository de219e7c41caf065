//! Experiment-sweep helpers shared by the figure/table binaries.
//!
//! [`run_curve`] executes one full guided-validation run and records a
//! [`CurvePoint`] after every iteration — the (effort, precision) curves of
//! Fig. 6/7, the timing series of Fig. 2/3, and the indicator traces of
//! Fig. 9 are all projections of this output.

use crf::{CrfModel, GibbsConfig, IcrfConfig};
use factcheck::{ProcessConfig, ValidationProcess};
use guidance::{
    HybridStrategy, InfoGainConfig, InfoGainStrategy, RandomStrategy, SelectionStrategy,
    SourceDrivenStrategy, UncertaintyStrategy,
};
use oracle::{GroundTruthUser, NoisyUser, SkippingUser};
use std::sync::Arc;
use std::time::Duration;

/// The five strategies compared in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Uniform random selection.
    Random,
    /// Marginal-entropy uncertainty sampling.
    Uncertainty,
    /// Information-driven guidance (Eq. 16).
    Info,
    /// Source-driven guidance (Eq. 21).
    Source,
    /// The hybrid roulette (Eq. 23).
    Hybrid,
}

impl StrategyKind {
    /// All strategies in the paper's legend order.
    pub fn all() -> [StrategyKind; 5] {
        [
            StrategyKind::Random,
            StrategyKind::Uncertainty,
            StrategyKind::Info,
            StrategyKind::Source,
            StrategyKind::Hybrid,
        ]
    }

    /// The legend name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Random => "random",
            StrategyKind::Uncertainty => "uncertainty",
            StrategyKind::Info => "info",
            StrategyKind::Source => "source",
            StrategyKind::Hybrid => "hybrid",
        }
    }

    /// Instantiate the strategy.
    pub fn build(self, ig: InfoGainConfig, seed: u64) -> Box<dyn SelectionStrategy + Send> {
        match self {
            StrategyKind::Random => Box::new(RandomStrategy::new(seed)),
            StrategyKind::Uncertainty => Box::new(UncertaintyStrategy::new()),
            StrategyKind::Info => Box::new(InfoGainStrategy::new(ig)),
            StrategyKind::Source => Box::new(SourceDrivenStrategy::new(ig)),
            StrategyKind::Hybrid => Box::new(HybridStrategy::new(ig, seed)),
        }
    }
}

/// Configuration of one validation run.
#[derive(Debug, Clone)]
pub struct CurveConfig {
    /// Inference settings.
    pub icrf: IcrfConfig,
    /// Information-gain settings for the guided strategies.
    pub ig: InfoGainConfig,
    /// Maximum user validations.
    pub budget: usize,
    /// Probability of a user mistake (§8.5); 0 = exact user.
    pub mistake_p: f64,
    /// Probability of skipping a claim (Fig. 8); 0 = never skips.
    pub skip_p: f64,
    /// Confirmation-check period (§5.2); `None` disables.
    pub confirmation_every: Option<usize>,
    /// Stop once precision reaches this level (measured against truth).
    pub target_precision: Option<f64>,
    /// Entropy estimator for goal checks and strategy context (the
    /// `origin` vs `scalable` variants of Fig. 2).
    pub entropy_mode: crf::entropy::EntropyMode,
    /// RNG seed for strategy/user randomness.
    pub seed: u64,
}

impl Default for CurveConfig {
    fn default() -> Self {
        CurveConfig {
            icrf: fast_icrf(),
            ig: fast_ig(),
            budget: usize::MAX,
            mistake_p: 0.0,
            skip_p: 0.0,
            confirmation_every: None,
            target_precision: None,
            entropy_mode: crf::entropy::EntropyMode::Approximate,
            seed: 0xc0de,
        }
    }
}

/// A quick-but-faithful inference configuration for sweep experiments.
///
/// The L2 strength is raised above the library default: sweeps run only one
/// EM iteration per validation, and well-calibrated (non-overconfident)
/// marginals matter more than sharp ones for uncertainty-driven selection.
pub fn fast_icrf() -> IcrfConfig {
    IcrfConfig {
        max_em_iters: 1,
        lambda: 5.0,
        gibbs: GibbsConfig {
            burn_in: 6,
            samples: 24,
            thin: 1,
            ..Default::default()
        },
    }
}

/// A quick information-gain configuration for sweep experiments.
pub fn fast_ig() -> InfoGainConfig {
    InfoGainConfig {
        pool_size: 6,
        hypothetical_em_iters: 1,
        threads: 1,
    }
}

/// One point on a validation curve: the state after one iteration.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Effort spent so far (validations + repairs) over `|C|`.
    pub effort: f64,
    /// Precision of the grounding against ground truth.
    pub precision: f64,
    /// Database entropy after the iteration.
    pub entropy: f64,
    /// Wall-clock time of the iteration.
    pub elapsed: Duration,
    /// Grounding flips in the iteration.
    pub grounding_changes: usize,
    /// Whether inference already agreed with the user.
    pub prediction_matched: bool,
}

/// The outcome of a full run.
#[derive(Debug, Clone)]
pub struct CurveResult {
    /// Per-iteration points.
    pub points: Vec<CurvePoint>,
    /// Initial precision `P_0` (before any user input).
    pub initial_precision: f64,
    /// Final credibility probabilities.
    pub final_probs: Vec<f64>,
}

/// Execute one guided-validation run and trace the curve.
pub fn run_curve(
    model: Arc<CrfModel>,
    truth: &[bool],
    kind: StrategyKind,
    cfg: &CurveConfig,
) -> CurveResult {
    let strategy = kind.build(cfg.ig.clone(), cfg.seed);
    let user = SkippingUser::new(
        NoisyUser::new(
            GroundTruthUser::new(truth.to_vec()),
            cfg.mistake_p,
            cfg.seed ^ 0x5a5a,
        ),
        cfg.skip_p,
        cfg.seed ^ 0xa5a5,
    );
    let mut process = ValidationProcess::new(
        model,
        strategy,
        user,
        ProcessConfig {
            budget: cfg.budget,
            icrf: cfg.icrf.clone(),
            confirmation_check_every: cfg.confirmation_every,
            entropy_mode: cfg.entropy_mode,
            ..Default::default()
        },
    );
    let initial_precision = crate::metrics::precision(process.grounding(), truth);
    let mut points = Vec::new();
    while process.step().is_some() {
        let rec = process.history().last().expect("step pushed a record");
        let precision = crate::metrics::precision(process.grounding(), truth);
        points.push(CurvePoint {
            iteration: rec.iteration,
            effort: process.effort_ratio(),
            precision,
            entropy: rec.entropy,
            elapsed: rec.elapsed,
            grounding_changes: rec.grounding_changes,
            prediction_matched: rec.prediction_matched,
        });
        if let Some(target) = cfg.target_precision {
            if precision >= target {
                break;
            }
        }
    }
    CurveResult {
        points,
        initial_precision,
        final_probs: process.icrf().probs().to_vec(),
    }
}

/// The effort needed to first reach `target` precision, as a fraction of
/// `|C|`; `None` when never reached.
pub fn effort_to_reach(points: &[CurvePoint], target: f64) -> Option<f64> {
    points
        .iter()
        .find(|p| p.precision >= target)
        .map(|p| p.effort)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Arc<CrfModel>, Vec<bool>) {
        let ds = factdb::DatasetPreset::WikiMini.generate();
        (Arc::new(ds.db.to_crf_model().unwrap()), ds.truth)
    }

    #[test]
    fn strategies_enumerate_in_paper_order() {
        let names: Vec<&str> = StrategyKind::all().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["random", "uncertainty", "info", "source", "hybrid"]
        );
    }

    #[test]
    fn full_run_reaches_perfect_precision() {
        let (model, truth) = fixture();
        let r = run_curve(
            model,
            &truth,
            StrategyKind::Random,
            &CurveConfig {
                target_precision: Some(1.0),
                ..Default::default()
            },
        );
        assert!(!r.points.is_empty());
        let last = r.points.last().unwrap();
        assert!(
            (last.precision - 1.0).abs() < 1e-12,
            "final precision {}",
            last.precision
        );
    }

    #[test]
    fn effort_is_monotone_and_bounded() {
        let (model, truth) = fixture();
        let r = run_curve(
            model,
            &truth,
            StrategyKind::Uncertainty,
            &CurveConfig {
                budget: 10,
                ..Default::default()
            },
        );
        assert_eq!(r.points.len(), 10);
        for w in r.points.windows(2) {
            assert!(w[1].effort >= w[0].effort);
        }
        assert!(r.points.last().unwrap().effort <= 1.0);
    }

    #[test]
    fn guided_beats_random_in_effort_to_target() {
        // The headline claim (Fig. 6) at mini scale: hybrid should reach a
        // precision target with no more effort than random, averaged over
        // seeds. To keep the test fast we use a modest target.
        let (model, truth) = fixture();
        let target = 0.85;
        let mut random_total = 0.0;
        let mut hybrid_total = 0.0;
        for seed in [1u64, 2, 3] {
            let cfg = CurveConfig {
                target_precision: Some(target),
                seed,
                ..Default::default()
            };
            let r = run_curve(model.clone(), &truth, StrategyKind::Random, &cfg);
            let h = run_curve(model.clone(), &truth, StrategyKind::Hybrid, &cfg);
            random_total += effort_to_reach(&r.points, target).unwrap_or(1.0);
            hybrid_total += effort_to_reach(&h.points, target).unwrap_or(1.0);
        }
        assert!(
            hybrid_total <= random_total + 0.15 * 3.0,
            "hybrid effort {hybrid_total} vs random {random_total}"
        );
    }

    #[test]
    fn effort_to_reach_finds_first_crossing() {
        let mk = |effort: f64, precision: f64| CurvePoint {
            iteration: 1,
            effort,
            precision,
            entropy: 0.0,
            elapsed: Duration::ZERO,
            grounding_changes: 0,
            prediction_matched: false,
        };
        let points = vec![mk(0.1, 0.5), mk(0.2, 0.8), mk(0.3, 0.85)];
        assert_eq!(effort_to_reach(&points, 0.8), Some(0.2));
        assert_eq!(effort_to_reach(&points, 0.99), None);
    }

    #[test]
    fn mistakes_slow_the_curve() {
        let (model, truth) = fixture();
        let clean = run_curve(
            model.clone(),
            &truth,
            StrategyKind::Uncertainty,
            &CurveConfig {
                budget: 20,
                ..Default::default()
            },
        );
        let noisy = run_curve(
            model,
            &truth,
            StrategyKind::Uncertainty,
            &CurveConfig {
                budget: 20,
                mistake_p: 0.4,
                ..Default::default()
            },
        );
        let p_clean = clean.points.last().unwrap().precision;
        let p_noisy = noisy.points.last().unwrap().precision;
        assert!(
            p_clean >= p_noisy - 0.05,
            "clean {p_clean} should not lag noisy {p_noisy}"
        );
    }
}
