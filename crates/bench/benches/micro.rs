//! Criterion micro-benchmarks of the performance-critical substrates:
//! TRON solves, entropy estimators, information-gain selection, greedy
//! batch selection, and streaming updates. Nothing records their numbers;
//! the recorded, gated figures are the end-to-end benchmark's
//! (`crates/bench/src/bin/e2e`, declared in `BENCHMARK.json`) and, for the
//! Gibbs E-step, `benches/gibbs.rs`.

use crf::entropy::EntropyMode;
use crf::logistic::{Dataset, LogisticObjective};
use crf::{Icrf, VarId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evalkit::{fast_icrf, fast_ig};
use factdb::DatasetPreset;
use guidance::info_gain::{database_entropy_of, info_gains};
use guidance::{BatchConfig, BatchSelector, GuidanceContext};
use std::hint::black_box;
use std::sync::Arc;

fn fixture() -> (Arc<crf::CrfModel>, Vec<bool>) {
    let ds = DatasetPreset::WikiMini.generate();
    (Arc::new(ds.db.to_crf_model().unwrap()), ds.truth)
}

fn trained_engine(model: Arc<crf::CrfModel>, truth: &[bool]) -> Icrf {
    let mut icrf = Icrf::new(model, fast_icrf());
    for (i, &t) in truth.iter().enumerate().take(truth.len() / 4) {
        icrf.set_label(VarId(i as u32), t);
    }
    icrf.run();
    icrf
}

fn bench_tron(c: &mut Criterion) {
    let mut data = Dataset::new(8);
    let mut x = 0.37f64;
    for i in 0..2000 {
        let mut row = [0.0; 8];
        for r in row.iter_mut() {
            x = (x * 997.0 + 1.3).fract();
            *r = x * 2.0 - 1.0;
        }
        data.push(
            &row,
            if row[0] + 0.5 * row[1] > 0.0 {
                1.0
            } else {
                0.0
            },
            1.0,
        );
        let _ = i;
    }
    let obj = LogisticObjective::new(&data, 1.0);
    c.bench_function("tron_2000x8_cold", |b| {
        b.iter(|| {
            let mut w = vec![0.0; 8];
            black_box(crf::tron::solve(&obj, &mut w, &Default::default()))
        });
    });
}

fn bench_icrf_warm_vs_cold(c: &mut Criterion) {
    let (model, truth) = fixture();
    let mut group = c.benchmark_group("icrf");
    group.bench_function("cold_start", |b| {
        b.iter(|| {
            let mut icrf = Icrf::new(model.clone(), fast_icrf());
            for i in 0..8 {
                icrf.set_label(VarId(i), truth[i as usize]);
            }
            black_box(icrf.run())
        });
    });
    group.bench_function("warm_one_new_label", |b| {
        let mut icrf = Icrf::new(model.clone(), fast_icrf());
        for i in 0..8 {
            icrf.set_label(VarId(i), truth[i as usize]);
        }
        icrf.run();
        b.iter(|| {
            let mut warm = icrf.clone();
            warm.set_label(VarId(9), truth[9]);
            black_box(warm.run())
        });
    });
    group.finish();
}

fn bench_entropy(c: &mut Criterion) {
    let (model, truth) = fixture();
    let icrf = trained_engine(model, &truth);
    let mut group = c.benchmark_group("entropy");
    group.bench_function("approximate_eq13", |b| {
        b.iter(|| black_box(database_entropy_of(&icrf, EntropyMode::Approximate)));
    });
    group.bench_function("exact_components", |b| {
        b.iter(|| {
            black_box(database_entropy_of(
                &icrf,
                EntropyMode::Exact { max_component: 14 },
            ))
        });
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let (model, truth) = fixture();
    let icrf = trained_engine(model, &truth);
    let candidates: Vec<VarId> = (10..16).map(VarId).collect();
    let mut group = c.benchmark_group("info_gain_6_candidates");
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(info_gains(
                        &icrf,
                        &candidates,
                        EntropyMode::Approximate,
                        1,
                        threads,
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let (model, truth) = fixture();
    let icrf = trained_engine(model, &truth);
    let grounding = factcheck::instantiate_grounding(&icrf);
    let selector = BatchSelector::new(BatchConfig {
        k: 5,
        w: 4.0,
        ig: fast_ig(),
    });
    c.bench_function("batch_greedy_top5", |b| {
        b.iter(|| {
            let ctx = GuidanceContext {
                icrf: &icrf,
                grounding: &grounding,
                entropy_mode: EntropyMode::Approximate,
            };
            black_box(selector.select(&ctx))
        });
    });
}

fn bench_stream(c: &mut Criterion) {
    let (model, _) = fixture();
    c.bench_function("stream_arrival_update", |b| {
        let mut checker =
            streamcheck::StreamingChecker::try_new(model.clone(), Default::default()).unwrap();
        let n = model.n_claims();
        let mut i = 0usize;
        b.iter(|| {
            let claim = VarId((i % n) as u32);
            i += 1;
            black_box(checker.arrive(claim))
        });
    });
}

criterion_group!(
    benches,
    bench_tron,
    bench_icrf_warm_vs_cold,
    bench_entropy,
    bench_selection,
    bench_batch,
    bench_stream
);
criterion_main!(benches);
