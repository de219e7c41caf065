//! Gibbs E-step sweep-throughput benchmark for the one production kernel
//! ([`GibbsSampler::run_scheduled`]: folded claim-order sweeps inside the
//! chain × component-group task layout).
//!
//! Compares, on a 10k-claim synthetic graph:
//!
//! * **before** — [`GibbsSampler::run_reference`], the scalar distribution
//!   spec (claim-id order, full `β·x_π` dot product per clique visit, single
//!   chain);
//! * **scheduled** — [`GibbsSampler::run_scheduled`] with one chain.
//!
//! Two additional topologies exercise the task layout: **many-small** (2000
//! components of 5 claims) and **few-giant** (2 components of 5000
//! claims). On each, `scheduled_vs_reference` is the kernel's speedup over
//! the distribution spec, with both sides measured interleaved, repetition
//! by repetition, so machine-load drift cancels out of the ratio.
//!
//! The run prints these numbers, writes
//! `BENCH_gibbs.json` at the repository root and exits nonzero when a gate
//! fails: `after_scheduled.speedup >= 3` and the per-topology
//! `scheduled_vs_reference` floors below (mirrored in `xtask::bench::GATES`).

use crf::gibbs::{GibbsConfig, GibbsSampler, GibbsScratch};
use crf::graph::{synthetic_components_model, synthetic_model, CrfModel};
use crf::partition::Partition;
use crf::potentials::Weights;
use std::hint::black_box;
use std::time::Instant;

/// Floors on `topologies.<name>.scheduled_vs_reference`, single-threaded,
/// never below 3.0. `many_small`: 0.85 × the 8.59 committed when it was
/// set. `few_giant`: 0.85 × 6.95, the median of six runs of the kernel it
/// replaced on a 2-core Xeon KVM guest, which missed the earlier 6.99
/// floor there.
const SCHEDULED_VS_REFERENCE_FLOORS: [(&str, f64); 2] = [("many_small", 7.30), ("few_giant", 5.91)];

/// The benchmark workload: 10k claims, 3 documents each (30k cliques),
/// 500 sources, 32-dimensional document and source features — large enough
/// that the feature matrices no longer fit in cache and the per-visit
/// `β·x_π` dot product is representative of real extraction pipelines
/// (bag-of-linguistic-cues document features, registration/alexa/social
/// source features; cf. §4 of the paper).
fn bench_model() -> CrfModel {
    synthetic_model(10_000, 500, 3, 32, 32, 0xB16_5EED)
}

fn bench_weights(model: &CrfModel) -> Weights {
    Weights::from_vec(
        (0..model.feature_dim())
            .map(|i| 0.05 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect(),
    )
}

fn config(chains: usize) -> GibbsConfig {
    GibbsConfig {
        burn_in: 20,
        samples: 100,
        thin: 1,
        chains,
        ..Default::default()
    }
}

/// One variant's best-of-5 throughput, in two honest units:
/// `sweeps_per_sec` is raw aggregate sweep execution rate (total sweeps
/// across chains / wall clock — the criterion's unit), and
/// `samples_per_sec` is pooled samples / wall clock.
#[derive(Default)]
struct Throughput {
    sweeps_per_sec: f64,
    samples_per_sec: f64,
}

impl Throughput {
    fn record(&mut self, result: &crf::GibbsResult, secs: f64) {
        self.sweeps_per_sec = self.sweeps_per_sec.max(result.sweeps as f64 / secs);
        self.samples_per_sec = self.samples_per_sec.max(result.samples.len() as f64 / secs);
    }
}

/// One E-step configuration under measurement.
#[derive(Clone, Copy)]
enum Variant {
    /// The distribution spec, `run_reference`.
    Reference,
    /// `run_scheduled` under the planner's layout.
    Scheduled,
}

/// Best-of-5 throughput of each variant (single chain), measured
/// **interleaved**: one repetition of every variant per round, so machine
/// load drift hits all of them alike. Each variant keeps one warm scratch
/// across rounds — the EM loop's steady state.
fn measure<const N: usize>(
    model: &CrfModel,
    weights: &Weights,
    variants: [Variant; N],
) -> [Throughput; N] {
    let labels = vec![None; model.n_claims()];
    let probs = vec![0.5; model.n_claims()];
    let sampler = GibbsSampler::new(model, config(1));
    let partition = Partition::of_model(model);
    let mut scratches: [GibbsScratch; N] = std::array::from_fn(|_| GibbsScratch::new());
    let mut best: [Throughput; N] = std::array::from_fn(|_| Throughput::default());
    for _ in 0..5 {
        for ((variant, slot), scratch) in variants.iter().zip(&mut best).zip(&mut scratches) {
            let t = Instant::now();
            let result = match *variant {
                Variant::Reference => sampler.run_reference(weights, &labels, &probs),
                Variant::Scheduled => {
                    sampler.run_scheduled(weights, &labels, &probs, &partition, scratch)
                }
            };
            let secs = t.elapsed().as_secs_f64();
            slot.record(&black_box(result), secs);
        }
    }
    best
}

/// Topology section: reference vs scheduled, single chain.
struct TopologyNumbers {
    components: usize,
    largest: usize,
    reference: Throughput,
    scheduled: Throughput,
}

impl TopologyNumbers {
    fn scheduled_vs_reference(&self) -> f64 {
        self.scheduled.sweeps_per_sec / self.reference.sweeps_per_sec
    }
}

fn measure_topology(model: &CrfModel, weights: &Weights) -> TopologyNumbers {
    let partition = Partition::of_model(model);
    let [reference, scheduled] = measure(model, weights, [Variant::Reference, Variant::Scheduled]);
    TopologyNumbers {
        components: partition.len(),
        largest: partition.max_component_size(),
        reference,
        scheduled,
    }
}

fn topology_json(name: &str, t: &TopologyNumbers, claims: usize, cliques: usize) -> String {
    format!(
        "    \"{name}\": {{ \"claims\": {claims}, \"cliques\": {cliques}, \"components\": {}, \"largest_component\": {}, \"reference_sweeps_per_sec\": {:.1}, \"scheduled_sweeps_per_sec\": {:.1}, \"scheduled_vs_reference\": {:.2} }}",
        t.components,
        t.largest,
        t.reference.sweeps_per_sec,
        t.scheduled.sweeps_per_sec,
        t.scheduled_vs_reference(),
    )
}

fn main() {
    let model = bench_model();
    let weights = bench_weights(&model);
    let threads = rayon::current_num_threads();

    // The committed before/after evidence on the main graph.
    let main = measure_topology(&model, &weights);
    let speedup = main.scheduled_vs_reference();

    // The component topologies: many small components (sharded workloads)
    // and few giant ones (the densely coupled regime).
    let many_small = synthetic_components_model(2000, 5, 2, 3, 32, 32, 0x5A11);
    let many = measure_topology(&many_small, &bench_weights(&many_small));
    let few_giant = synthetic_components_model(2, 5000, 250, 3, 32, 32, 0x61A27);
    let giant = measure_topology(&few_giant, &bench_weights(&few_giant));

    println!();
    println!(
        "graph: {} claims, {} cliques",
        model.n_claims(),
        model.cliques().len()
    );
    println!(
        "before  (reference, 1 chain):  {:>10.1} sweeps/s",
        main.reference.sweeps_per_sec
    );
    println!(
        "after   (scheduled, 1 chain):  {:>10.1} sweeps/s  ({speedup:.2}x)",
        main.scheduled.sweeps_per_sec
    );
    for (name, t) in [("many-small", &many), ("few-giant ", &giant)] {
        println!(
            "{name} ({} comps): reference {:.1} | scheduled {:.1} sweeps/s  ({:.2}x)",
            t.components,
            t.reference.sweeps_per_sec,
            t.scheduled.sweeps_per_sec,
            t.scheduled_vs_reference()
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"gibbs_sweep_throughput\",\n  \"graph\": {{ \"claims\": {}, \"cliques\": {}, \"sources\": {}, \"m_doc\": {}, \"m_source\": {} }},\n  \"config\": {{ \"burn_in\": 20, \"samples\": 100, \"thin\": 1 }},\n  \"threads\": {},\n  \"before\": {{ \"variant\": \"reference_scalar\", \"chains\": 1, \"sweeps_per_sec\": {:.1}, \"samples_per_sec\": {:.1} }},\n  \"after_scheduled\": {{ \"variant\": \"folded_claim_order\", \"chains\": 1, \"sweeps_per_sec\": {:.1}, \"samples_per_sec\": {:.1}, \"speedup\": {:.2} }},\n  \"topologies\": {{\n{},\n{}\n  }}\n}}\n",
        model.n_claims(),
        model.cliques().len(),
        model.n_sources(),
        model.m_doc(),
        model.m_source(),
        threads,
        main.reference.sweeps_per_sec,
        main.reference.samples_per_sec,
        main.scheduled.sweeps_per_sec,
        main.scheduled.samples_per_sec,
        speedup,
        topology_json(
            "many_small",
            &many,
            many_small.n_claims(),
            many_small.cliques().len()
        ),
        topology_json(
            "few_giant",
            &giant,
            few_giant.n_claims(),
            few_giant.cliques().len()
        ),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gibbs.json");
    std::fs::write(path, &json).expect("write BENCH_gibbs.json");
    println!("\nwrote {path}");

    // Acceptance gates: (1) >=3x sweep throughput over the distribution
    // spec on the main graph; (2) the per-topology kernel speedups hold
    // their floors. Clean diagnostics + nonzero exit (not a panic) so a
    // regression reads as a failed measurement.
    let mut failed = false;
    if speedup < 3.0 {
        eprintln!(
            "FAIL: scheduled sweep throughput is {speedup:.2}x the reference sampler; \
             the acceptance criterion requires >=3x (see BENCH_gibbs.json)"
        );
        failed = true;
    }
    for ((name, floor), t) in SCHEDULED_VS_REFERENCE_FLOORS.iter().zip([&many, &giant]) {
        let ratio = t.scheduled_vs_reference();
        if ratio < *floor {
            eprintln!(
                "FAIL: scheduled sweep on {name} is {ratio:.2}x the reference sampler; \
                 the gate requires >={floor:.2}x"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "acceptance: >=3x throughput met ({speedup:.2}x); topology gates met \
         (many_small {:.2}x, few_giant {:.2}x vs reference)",
        many.scheduled_vs_reference(),
        giant.scheduled_vs_reference()
    );
}
