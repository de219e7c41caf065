//! Table 2: preservation of the validation sequence under streaming —
//! Kendall's τ_b between the offline validation sequence and the streaming
//! one, for validation periods of 5% / 10% / 20% / 30% of arrivals.
//!
//! Paper shape: τ grows with the period (e.g. snopes 0.12 → 0.67): the more
//! claims accumulate before validating, the closer the streaming order gets
//! to the offline order.

use evalkit::correlation::sequence_tau;
use evalkit::{fast_icrf, fast_ig, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use streamcheck::{offline_sequence, streaming_sequence, InterleaveConfig};

fn main() {
    let scale = bench::scale_from_args();
    let periods = [0.05, 0.10, 0.20, 0.30];
    let runs: u64 = 3;
    let mut table = Table::new(
        "Table 2: preservation of validation sequence (Kendall's τ_b)",
        &["dataset", "5%", "10%", "20%", "30%"],
    );

    for preset in bench::presets(scale) {
        let (ds, model) = bench::load(preset);
        let n = model.n_claims();
        let n_validations = (n / 3).clamp(6, 30);
        let offline = offline_sequence(
            model.clone(),
            &ds.truth,
            n_validations,
            fast_icrf(),
            fast_ig(),
            0x7ab2e,
        );
        let offline_ids: Vec<u32> = offline.iter().map(|v| v.0).collect();

        let mut cells = vec![preset.name().to_string()];
        for &period in &periods {
            let mut tau_sum = 0.0;
            for run in 0..runs {
                // A shuffled posting-time order per run (claims do not
                // arrive in id order on the real Web).
                let mut rng = SmallRng::seed_from_u64(0x0bde5 + run);
                let mut order: Vec<crf::VarId> = (0..n as u32).map(crf::VarId).collect();
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                let config = InterleaveConfig {
                    period_fraction: period,
                    validations_per_period: ((n_validations as f64 * period).ceil() as usize)
                        .max(1),
                    icrf: fast_icrf(),
                    ig: fast_ig(),
                    seed: 0x7ab2e,
                    arrival_order: Some(order),
                };
                let streaming =
                    streaming_sequence(model.clone(), &ds.truth, n_validations, &config);
                let streaming_ids: Vec<u32> = streaming.iter().map(|v| v.0).collect();
                tau_sum += sequence_tau(&offline_ids, &streaming_ids);
            }
            cells.push(format!("{:.2}", tau_sum / runs as f64));
        }
        table.row(&cells);
    }
    println!("{table}");
    println!("paper reference: wiki 0.23/0.46/0.78/0.84, health 0.19/0.42/0.71/0.78, snopes 0.12/0.38/0.59/0.67");
    println!("shape check: τ increases with the validation period");
}
