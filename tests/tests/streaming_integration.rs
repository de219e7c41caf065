//! Integration tests for the streaming pipeline (Alg. 2 interleaved with
//! Alg. 1) and the Table 2 sequence-preservation property.

use evalkit::correlation::sequence_tau;
use evalkit::{fast_icrf, fast_ig};
use factdb::DatasetPreset;
use std::sync::Arc;
use streamcheck::{
    offline_sequence, streaming_sequence, InterleaveConfig, OnlineEmConfig, Replay,
    StreamingChecker,
};

/// Replay `model` in id order into a fresh lineage until `split` claims
/// have arrived; an offline engine on the same handle labels them, runs,
/// and hands its weights to the checker (Alg. 2 line 7). Returns the
/// checker and the replay, positioned after the labelled prefix.
fn labelled_prefix(
    model: Arc<crf::CrfModel>,
    truth: &[bool],
    split: usize,
) -> (StreamingChecker, Replay) {
    let order = (0..model.n_claims() as u32).map(crf::VarId).collect();
    let (mut replay, seed) = Replay::start(model, order).unwrap();
    let mut checker = StreamingChecker::try_new(seed, OnlineEmConfig::default()).unwrap();
    while replay.arrived().len() < split {
        let delta = replay.next_delta(checker.model()).unwrap();
        checker.arrive_new(delta).unwrap();
    }
    let mut icrf = crf::Icrf::new(checker.handle().clone(), crf::IcrfConfig::default());
    for (c, &t) in truth.iter().enumerate().take(split) {
        icrf.set_label(crf::VarId(c as u32), t);
    }
    icrf.run();
    checker.exchange_from(&icrf);
    (checker, replay)
}

#[test]
fn streaming_parameters_transfer_to_offline_inference() {
    // The healthcare preset carries the strongest source-feature signal
    // (author activity correlates with reliability), making generalisation
    // from a label *prefix* — rather than guided label placement — viable.
    let ds = DatasetPreset::HealthMini.generate();
    let model = Arc::new(ds.db.to_crf_model().unwrap());
    let n = model.n_claims();

    // Stream 70% of claims with labels, then hand parameters to an offline
    // engine and check it predicts the remainder better than chance.
    let split = n * 7 / 10;
    let (checker, _) = labelled_prefix(model.clone(), &ds.truth, split);
    // Allow the offline engine a full EM budget: the streamed weights are a
    // warm start, not a substitute for inference.
    let mut icrf = crf::Icrf::new(model, crf::IcrfConfig::default());
    for c in 0..split {
        icrf.set_label(crf::VarId(c as u32), ds.truth[c]);
    }
    checker.feed_into(&mut icrf);
    icrf.run();
    let correct = (split..n)
        .filter(|&c| (icrf.probs()[c] >= 0.5) == ds.truth[c])
        .count();
    let acc = correct as f64 / (n - split) as f64;
    assert!(
        acc > 0.55,
        "offline accuracy with streamed parameters: {acc}"
    );
}

/// The Table 2 trend: longer validation periods produce sequences closer
/// to the offline order (τ grows with the period).
#[test]
fn tau_increases_with_validation_period() {
    let ds = DatasetPreset::WikiMini.generate();
    let model = Arc::new(ds.db.to_crf_model().unwrap());
    let n_validations = 10;
    let offline: Vec<u32> = offline_sequence(
        model.clone(),
        &ds.truth,
        n_validations,
        fast_icrf(),
        fast_ig(),
        3,
    )
    .iter()
    .map(|v| v.0)
    .collect();

    // Shuffled arrival order (posting time != claim id), averaged over a
    // few orders: τ for long periods should not trail τ for short ones.
    let tau_for = |period: f64, avg_runs: u64| {
        let mut sum = 0.0;
        for run in 0..avg_runs {
            let n = model.n_claims();
            let mut state = 0x9e3779b97f4a7c15u64.wrapping_mul(run + 1);
            let mut order: Vec<crf::VarId> = (0..n as u32).map(crf::VarId).collect();
            for i in (1..n).rev() {
                // xorshift for a cheap deterministic shuffle
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let j = (state % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let config = InterleaveConfig {
                period_fraction: period,
                validations_per_period: ((n_validations as f64 * period).ceil() as usize).max(1),
                icrf: fast_icrf(),
                ig: fast_ig(),
                seed: 3,
                arrival_order: Some(order),
            };
            let seq: Vec<u32> =
                streaming_sequence(model.clone(), &ds.truth, n_validations, &config)
                    .iter()
                    .map(|v| v.0)
                    .collect();
            sum += sequence_tau(&offline, &seq);
        }
        sum / avg_runs as f64
    };
    let tau_short = tau_for(0.05, 3);
    let tau_long = tau_for(0.5, 3);
    assert!(
        tau_long >= tau_short - 0.25,
        "short-period τ {tau_short} vs long-period τ {tau_long}"
    );
}

/// Once seeded with a few labelled arrivals, the stream produces
/// differentiated credibility estimates for subsequent unlabelled arrivals
/// (the educated-guess mode of §7). From a cold, label-free start the
/// maximum-entropy answer 0.5 is correct, so seeding is required.
#[test]
fn seeded_stream_differentiates_claims() {
    let ds = DatasetPreset::HealthMini.generate();
    let model = Arc::new(ds.db.to_crf_model().unwrap());
    let n = model.n_claims();
    let seedn = n / 4;
    let (mut checker, mut replay) = labelled_prefix(model, &ds.truth, seedn);
    while let Some(delta) = replay.next_delta(checker.model()) {
        checker.arrive_new(delta).unwrap();
    }
    let probs = &checker.probs()[seedn..];
    assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    let spread =
        probs.iter().cloned().fold(0.0f64, f64::max) - probs.iter().cloned().fold(1.0f64, f64::min);
    assert!(
        spread > 0.05,
        "stream estimates too uniform (spread {spread})"
    );
}
