//! Hypothesis scoring at Snopes scale starts every worker from a copy of
//! the engine's synced Gibbs scratch. The scratch contract says that start
//! changes no output bit; this holds the production scoring of a
//! 6-candidate pool on 2 threads to scores computed on brand-new scratches.
//!
//! Generating the Snopes corpus and its cold E-steps are too slow for the
//! debug test run, which ignores this case; run it with
//! `cargo test --release -p integration-tests --test warm_scoring`.

use crf::entropy::{claim_entropy, source_trust_entropy, EntropyMode};
use crf::gibbs::{mode_configuration, GibbsResult, GibbsScratch};
use crf::{Icrf, VarId};
use evalkit::fast_icrf;
use factdb::DatasetPreset;
use guidance::info_gain::{database_entropy_of, info_gains};
use guidance::source_driven::source_gains;
use guidance::strategies::rank_by_uncertainty;
use guidance::GuidanceContext;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `h_base − [P(c)·f(E-step | c = 1) + (1 − P(c))·f(E-step | c = 0)]` per
/// candidate, every hypothetical E-step on a brand-new scratch.
fn cold_gains(
    icrf: &Icrf,
    candidates: &[VarId],
    h_base: f64,
    f: impl Fn(&GibbsResult) -> f64,
) -> Vec<f64> {
    candidates
        .iter()
        .map(|&c| {
            let p = icrf.probs()[c.idx()];
            let h = |value| f(&icrf.hypothetical_estep(c, value, &mut GibbsScratch::new()));
            h_base - (p * h(true) + (1.0 - p) * h(false))
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: Snopes-scale corpus")]
fn warm_seeded_scores_equal_cold_scores_at_snopes_scale() {
    let ds = DatasetPreset::Snopes.generate();
    let mut icrf = Icrf::new(ds.db.to_crf_model().unwrap(), fast_icrf());
    for c in (0..icrf.model().n_claims()).step_by(50) {
        icrf.set_label(VarId(c as u32), ds.truth[c]);
    }
    icrf.run();
    let grounding = mode_configuration(icrf.last_samples(), icrf.partition());
    let ctx = GuidanceContext {
        icrf: &icrf,
        grounding: &grounding,
        entropy_mode: EntropyMode::Approximate,
    };
    let pool = rank_by_uncertainty(&ctx, 6);
    assert_eq!(pool.len(), 6);

    let warm = info_gains(&icrf, &pool, EntropyMode::Approximate, 1, 2);
    let h_base = database_entropy_of(&icrf, EntropyMode::Approximate);
    let cold = cold_gains(&icrf, &pool, h_base, |r| claim_entropy(&r.marginals));
    assert_eq!(bits(&warm), bits(&cold), "info_gains");

    let warm = source_gains(&icrf, &grounding, &pool, 1, 2);
    let h_base = source_trust_entropy(icrf.model(), &grounding);
    let cold = cold_gains(&icrf, &pool, h_base, |r| {
        source_trust_entropy(
            icrf.model(),
            &mode_configuration(&r.samples, icrf.partition()),
        )
    });
    assert_eq!(bits(&warm), bits(&cold), "source_gains");
}
