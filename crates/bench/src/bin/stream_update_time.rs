//! §8.8 (update time): average model-update time per arriving claim in the
//! streaming setting (Alg. 2), replaying each corpus from 0% to 100% in
//! arrival order. An update is the whole `arrive_new` call: delta apply,
//! snapshot sync, credibility estimate and online M-step.
//!
//! Paper shape: update times grow with dataset size (wiki 0.34 s < health
//! 0.61 s < snopes 1.22 s on the authors' testbed) and are of the same
//! order as one offline iteration (Prop. 2 vs Prop. 3).

use evalkit::Table;
use std::time::Instant;
use streamcheck::{OnlineEmConfig, Replay, StreamingChecker};

fn main() {
    let scale = bench::scale_from_args();
    let mut table = Table::new(
        "Streaming update time per arrival",
        &["dataset", "claims", "avg update (ms)", "p95 (ms)"],
    );
    for preset in bench::presets(scale) {
        let (_ds, model) = bench::load(preset);
        let n = model.n_claims();
        let order = (0..n as u32).map(crf::VarId).collect();
        let (mut replay, seed) = Replay::start(model, order).unwrap();
        let mut checker = StreamingChecker::try_new(seed, OnlineEmConfig::default()).unwrap();
        let mut times = Vec::with_capacity(n);
        while let Some(delta) = replay.next_delta(checker.model()) {
            let t = Instant::now();
            checker.arrive_new(delta).unwrap();
            times.push(t.elapsed().as_secs_f64() * 1000.0);
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let avg = bench::mean(&times);
        let p95 = times[(times.len() as f64 * 0.95) as usize];
        table.row(&[
            preset.name().to_string(),
            n.to_string(),
            format!("{avg:.2}"),
            format!("{p95:.2}"),
        ]);
    }
    println!("{table}");
    println!("paper reference: wiki 0.34s, health 0.61s, snopes 1.22s (absolute values differ; ordering must hold)");
    println!("shape check: update time grows with dataset size");
}
