//! The borrowed E-step is an optimisation, not a new estimator: scored
//! through [`Icrf::hypothetical_estep`], the information gains must equal
//! the per-candidate hypothetical-engine spec bit for bit, at any thread
//! count, on warm, never-run, and grown-but-not-rerun engines alike, whether
//! the Gibbs scratch is copied from the engine or brand new.

use crf::bitset::Bitset;
use crf::entropy::{source_trust_entropy, EntropyMode};
use crf::gibbs::GibbsScratch;
use crf::{GibbsConfig, Icrf, IcrfConfig, ModelDelta, Stance, VarId};
use factdb::{DatasetPreset, SynthConfig};
use guidance::info_gain::{conditional_entropy, database_entropy_of, hypothetical_run, info_gains};
use guidance::source_driven::{conditional_source_entropy, source_gains};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn config() -> IcrfConfig {
    IcrfConfig {
        max_em_iters: 2,
        gibbs: GibbsConfig {
            burn_in: 8,
            samples: 30,
            thin: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// How the engine under test reached its state.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// Labelled, then run: the production shape.
    Warm,
    /// Labelled, never run: zero-dimensional weights.
    NeverRun,
    /// Run, then synced to a grown model and not run since.
    Grown,
}

/// A mini-preset engine with a random label set, in the given state.
fn engine(seed: u64, label_share: f64, kind: Engine) -> Icrf {
    let ds = factdb::synth::generate(&SynthConfig {
        seed,
        ..DatasetPreset::WikiMini.config()
    });
    let mut model = Arc::new(ds.db.to_crf_model().unwrap());
    let mut icrf = Icrf::new(model.clone(), config());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    for c in 0..icrf.model().n_claims() as u32 {
        if rng.gen_bool(label_share) {
            icrf.set_label(VarId(c), rng.gen_bool(0.5));
        }
    }
    match kind {
        Engine::Warm => {
            icrf.run();
        }
        Engine::NeverRun => {}
        Engine::Grown => {
            icrf.run();
            // The new claim joins source 0's component, so the synced
            // partition differs from the one the engine last ran on.
            let mut delta = ModelDelta::for_model(&model);
            let c = delta.add_claim();
            let d = delta
                .add_document(&vec![0.5; icrf.model().m_doc()])
                .unwrap();
            delta.add_clique(c, d, 0, Stance::Support);
            Arc::make_mut(&mut model).apply(delta).unwrap();
            icrf.sync_to(model);
        }
    }
    icrf
}

/// Up to `size` distinct unlabelled claims, in a seed-drawn order.
fn pool(icrf: &Icrf, seed: u64, size: usize) -> Vec<VarId> {
    let mut unlabelled: Vec<VarId> = (0..icrf.model().n_claims() as u32)
        .map(VarId)
        .filter(|c| icrf.labels()[c.idx()].is_none())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9001);
    let mut out = Vec::new();
    while out.len() < size && !unlabelled.is_empty() {
        out.push(unlabelled.swap_remove(rng.gen_range(0..unlabelled.len())));
    }
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn check(seed: u64, label_share: f64, size: usize, threads: usize, kind: Engine) {
    let icrf = engine(seed, label_share, kind);
    let candidates = pool(&icrf, seed, size);
    let ctx = format!("seed {seed}, {kind:?}, threads {threads}");

    // IG_C against `H_C(Q) − H_C(Q | c)` per candidate.
    let h_base = database_entropy_of(&icrf, EntropyMode::Approximate);
    let spec: Vec<f64> = candidates
        .iter()
        .map(|&c| h_base - conditional_entropy(&icrf, c, EntropyMode::Approximate, 1))
        .collect();
    let fast = info_gains(&icrf, &candidates, EntropyMode::Approximate, 1, threads);
    assert_eq!(bits(&fast), bits(&spec), "info_gains, {ctx}");

    // IG_S against `H_S(Q) − H_S(Q | c)` per candidate, from a random
    // grounding (a never-run engine has no samples to decide one from).
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6a0d);
    let mut grounding = Bitset::zeros(icrf.model().n_claims());
    for c in 0..grounding.len() {
        if rng.gen_bool(0.5) {
            grounding.set(c, true);
        }
    }
    let h_base = source_trust_entropy(icrf.model(), &grounding);
    let spec: Vec<f64> = candidates
        .iter()
        .map(|&c| h_base - conditional_source_entropy(&icrf, c, 1))
        .collect();
    let fast = source_gains(&icrf, &grounding, &candidates, 1, threads);
    assert_eq!(bits(&fast), bits(&spec), "source_gains, {ctx}");

    // The E-step itself, through one scratch seeded from the engine's and
    // shared by every hypothesis, and on a brand-new scratch per
    // hypothesis: the spec's clone starts warm too, so the cold leg is the
    // reference that the warm start changes nothing.
    let mut scratch = icrf.estep_scratch();
    for &c in &candidates {
        for value in [true, false] {
            let spec = hypothetical_run(&icrf, c, value, 1);
            let warm = icrf.hypothetical_estep(c, value, &mut scratch);
            let cold = icrf.hypothetical_estep(c, value, &mut GibbsScratch::new());
            for (r, leg) in [(warm, "warm"), (cold, "cold")] {
                assert_eq!(
                    bits(&r.marginals),
                    bits(spec.probs()),
                    "{leg} marginals of {c:?}={value}, {ctx}"
                );
                assert_eq!(
                    r.samples,
                    spec.last_samples(),
                    "{leg} samples of {c:?}={value}, {ctx}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_borrowed_estep_matches_hypothetical_run(
        seed in 0u64..10_000,
        label_share in 0.0f64..0.5,
        size in 1usize..7,
        threads in 1usize..4,
        kind in 0usize..3,
    ) {
        let kind = [Engine::Warm, Engine::NeverRun, Engine::Grown][kind];
        check(seed, label_share, size, threads, kind);
    }
}

/// Each engine kind at least once, whatever the proptest draws.
#[test]
fn every_engine_kind_matches_the_spec() {
    for (i, kind) in [Engine::Warm, Engine::NeverRun, Engine::Grown]
        .into_iter()
        .enumerate()
    {
        check(17 + i as u64, 0.2, 4, 1 + i, kind);
    }
}
