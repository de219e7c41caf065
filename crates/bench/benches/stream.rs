//! Streaming-arrival latency benchmark: the tentpole measurement for the
//! versioned mutable-model API.
//!
//! Before the redesign, a claim arriving at runtime forced a **full
//! rebuild**: re-run `CrfModel::build` over every entity and recompute the
//! connected-component `Partition` — all `O(model)` work, and the fresh
//! `model_id` invalidated every model-keyed structure too. With the delta
//! API the same arrival is `CrfModel::apply` (splice the new rows into the
//! CSR adjacency) + `Partition::of_model` (one union pass over the live
//! source rows: the partition is computed per snapshot, not maintained).
//! The Gibbs E-step's per-claim evidence is, like the partition, computed
//! per snapshot, but by the E-step itself, not on the arrival path, so
//! neither variant measures it.
//!
//! Measured on the 10k-claim benchmark graph (30k cliques, 66-dimensional
//! features), one single-claim delta per arrival (1 claim, 3 documents,
//! 3 cliques — the §7 arrival shape). Writes `BENCH_stream.json` at the
//! repository root; the acceptance gate requires the incremental path to
//! beat the rebuild by ≥5× per arrival.

use crf::graph::{synthetic_model, CrfModel, ModelDelta, RetireSet, Stance};
use crf::partition::Partition;
use crf::{ModelHandle, VarId};
use durability::{DiskFs, FaultFs, MemFs, Storage, SyncPolicy};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use streamcheck::{
    DurabilityConfig, DurableChecker, DurableError, OnlineEmConfig, RetentionPolicy,
    StreamingChecker,
};

const DOCS_PER_ARRIVAL: usize = 3;

fn bench_model() -> CrfModel {
    synthetic_model(10_000, 500, 3, 32, 32, 0xB16_5EED)
}

/// One synthetic arrival: a claim with `DOCS_PER_ARRIVAL` documents, each a
/// clique against a deterministic existing source.
struct Arrival {
    doc_rows: Vec<Vec<f64>>,
    sources: Vec<u32>,
}

fn arrival(k: usize, n_sources: usize, m_doc: usize) -> Arrival {
    Arrival {
        doc_rows: (0..DOCS_PER_ARRIVAL)
            .map(|j| {
                (0..m_doc)
                    .map(|f| ((k * 31 + j * 7 + f) % 97) as f64 / 97.0)
                    .collect()
            })
            .collect(),
        sources: (0..DOCS_PER_ARRIVAL)
            .map(|j| ((k * DOCS_PER_ARRIVAL + j) % n_sources) as u32)
            .collect(),
    }
}

/// The pre-redesign cost of one arrival: rebuild the whole model from raw
/// rows (base entities + every arrival so far), then recompute the
/// partition from scratch.
fn rebuild_full(base: &CrfModel, arrivals: &[Arrival]) -> usize {
    let mut b = ModelDelta::new(base.m_source(), base.m_doc());
    for s in 0..base.n_sources() as u32 {
        b.add_source(base.source_feature_row(s)).unwrap();
    }
    for _ in 0..base.n_claims() {
        b.add_claim();
    }
    for d in 0..base.n_docs() as u32 {
        b.add_document(base.doc_feature_row(d)).unwrap();
    }
    for cl in base.cliques() {
        b.add_clique(cl.claim, cl.doc, cl.source, cl.stance);
    }
    for a in arrivals {
        let c = b.add_claim();
        for (row, &s) in a.doc_rows.iter().zip(&a.sources) {
            let d = b.add_document(row).unwrap();
            b.add_clique(c, d, s, Stance::Support);
        }
    }
    let model = CrfModel::build(b).unwrap();
    black_box(Partition::of_model(&model).len())
}

/// The redesigned cost of one arrival: splice the delta into the live
/// model and recompute the partition.
fn apply_incremental(model: &mut CrfModel, partition: &mut Partition, a: &Arrival) {
    let mut delta = ModelDelta::for_model(model);
    let c = delta.add_claim();
    for (row, &s) in a.doc_rows.iter().zip(&a.sources) {
        let d = delta.add_document(row).unwrap();
        delta.add_clique(c, d, s, Stance::Support);
    }
    model.apply(delta).unwrap();
    *partition = black_box(Partition::of_model(model));
}

/// One windowed arrival: a self-contained story — one claim with its own
/// source and `DOCS_PER_ARRIVAL` documents/cliques. Returns the delta plus
/// the absolute claim and source ids it will occupy.
fn windowed_delta(
    model: &CrfModel,
    k: usize,
    m_source: usize,
    m_doc: usize,
) -> (ModelDelta, u32, u32) {
    let mut delta = ModelDelta::for_model(model);
    let srow: Vec<f64> = (0..m_source)
        .map(|f| ((k * 13 + f) % 89) as f64 / 89.0)
        .collect();
    let s = delta.add_source(&srow).unwrap();
    let c = delta.add_claim();
    for j in 0..DOCS_PER_ARRIVAL {
        let drow: Vec<f64> = (0..m_doc)
            .map(|f| ((k * 31 + j * 7 + f) % 97) as f64 / 97.0)
            .collect();
        let d = delta.add_document(&drow).unwrap();
        delta.add_clique(c, d, s, Stance::Support);
    }
    (delta, c.0, s)
}

/// The no-lifecycle cost of one windowed arrival: a one-shot build of the
/// current *surviving* subgraph (build + partition) — what every arrival
/// would pay without retire/compact relocation.
fn rebuild_survivors(model: &CrfModel) -> usize {
    let mut b = ModelDelta::new(model.m_source(), model.m_doc());
    let mut smap = vec![u32::MAX; model.n_sources()];
    for (s, slot) in smap.iter_mut().enumerate() {
        if model.source_live(s) {
            *slot = b.add_source(model.source_feature_row(s as u32)).unwrap();
        }
    }
    let mut cmap = vec![u32::MAX; model.n_claims()];
    for (c, slot) in cmap.iter_mut().enumerate() {
        if model.claim_live(c) {
            *slot = b.add_claim().0;
        }
    }
    for (ci, cl) in model.cliques().iter().enumerate() {
        if model.clique_live(ci) {
            let d = b.add_document(model.doc_feature_row(cl.doc)).unwrap();
            b.add_clique(
                VarId(cmap[cl.claim.idx()]),
                d,
                smap[cl.source as usize],
                cl.stance,
            );
        }
    }
    let m = CrfModel::build(b).unwrap();
    black_box(Partition::of_model(&m).len())
}

struct WindowedReport {
    arrivals: usize,
    window: usize,
    amortised_us: f64,
    rebuild_mean_us: f64,
    speedup: f64,
    compactions: usize,
    retired: usize,
    peak_claims: usize,
    peak_docs: usize,
    peak_incidences: usize,
    final_live_claims: usize,
}

/// Run the windowed lifecycle: every arrival grows the model, slides the
/// retention window (tombstoning the oldest claim and its orphaned
/// source), and compacts past `threshold` — the partition recomputed from
/// each edited snapshot. Asserts the memory-plateau invariant; timing
/// covers the full amortised lifecycle (grow + retire + compact).
fn windowed_run(n_arrivals: usize, window: usize, threshold: f64) -> WindowedReport {
    let (m_source, m_doc) = (32, 32);
    let mut b = ModelDelta::new(m_source, m_doc);
    let s0 = b.add_source(&vec![0.5; m_source]).unwrap();
    let c0 = b.add_claim();
    let d0 = b.add_document(&vec![0.5; m_doc]).unwrap();
    b.add_clique(c0, d0, s0, Stance::Support);
    let mut model = CrfModel::build(b).unwrap();
    let mut partition = Partition::of_model(&model);
    // Live arrivals, oldest first, with each claim's own source.
    let mut order: VecDeque<(u32, u32)> = VecDeque::new();
    order.push_back((c0.0, s0));

    let lineage = model.model_id();
    let (mut peak_claims, mut peak_docs, mut peak_incidences) = (0usize, 0usize, 0usize);
    let (mut compactions, mut retired) = (0usize, 0usize);
    let mut total_s = 0.0f64;
    let mut rebuild_us: Vec<f64> = Vec::new();
    let rebuild_every = (n_arrivals / 8).max(1);

    for k in 0..n_arrivals {
        let t = Instant::now();

        // ---- Grow.
        let (delta, c, s) = windowed_delta(&model, k, m_source, m_doc);
        model.apply(delta).unwrap();
        order.push_back((c, s));

        // ---- Retire: slide the window. Growth and retirement land as two
        // revision bumps but pay **one** maintenance pass: the partition is
        // computed once, on the retired snapshot.
        if order.len() > window {
            let mut set = RetireSet::for_model(&model);
            while order.len() > window {
                let (vc, vs) = order.pop_front().unwrap();
                set.retire_claim(VarId(vc));
                retired += 1;
                // Orphaned source: every live claim it serves is expiring.
                if model
                    .claims_of_source(vs)
                    .iter()
                    .filter(|&&cc| model.claim_live(cc as usize))
                    .all(|&cc| cc == vc)
                {
                    set.retire_source(vs);
                }
            }
            model.retire(set).unwrap();
        }
        partition = black_box(Partition::of_model(&model));

        // ---- Compact past the tombstone threshold.
        if model.dead_fraction() >= threshold {
            let remap = model.compact().unwrap();
            partition = black_box(Partition::of_model(&model));
            for slot in order.iter_mut() {
                slot.0 = remap.claim(VarId(slot.0)).expect("window claim live").0;
                slot.1 = remap.source(slot.1).expect("window source live");
            }
            compactions += 1;
        }

        total_s += t.elapsed().as_secs_f64();
        peak_claims = peak_claims.max(model.n_claims());
        peak_docs = peak_docs.max(model.n_docs());
        peak_incidences = peak_incidences.max(model.n_incidences());

        // Sampled baseline (outside the timed region).
        if k % rebuild_every == rebuild_every - 1 && order.len() >= window {
            let t = Instant::now();
            rebuild_survivors(&model);
            rebuild_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    // ---- Correctness backstop: the partition equals a from-scratch
    // recompute on the final model, and the lineage survived.
    assert_eq!(model.model_id(), lineage);
    let fresh = Partition::of_model(&model);
    assert_eq!(partition.len(), fresh.len());
    for i in 0..fresh.len() {
        assert_eq!(partition.component(i), fresh.component(i));
    }

    // ---- The memory-plateau invariant: live set bounded by the window,
    // arrays bounded by live / (1 - threshold) plus one sweep of slack.
    assert!(model.n_live_claims() <= window + 1);
    let array_bound = ((window + 1) as f64 / (1.0 - threshold)).ceil() as usize + 2;
    assert!(
        peak_claims <= array_bound,
        "claim arrays peaked at {peak_claims}, bound {array_bound}: no plateau"
    );
    assert!(
        peak_docs <= DOCS_PER_ARRIVAL * array_bound + 1,
        "doc arrays peaked at {peak_docs}: no plateau"
    );
    assert!(
        peak_incidences <= DOCS_PER_ARRIVAL * array_bound + 1,
        "incidence arrays peaked at {peak_incidences}: no plateau"
    );

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let amortised_us = total_s * 1e6 / n_arrivals as f64;
    let rebuild_mean_us = mean(&rebuild_us);
    WindowedReport {
        arrivals: n_arrivals,
        window,
        amortised_us,
        rebuild_mean_us,
        speedup: rebuild_mean_us / amortised_us,
        compactions,
        retired,
        peak_claims,
        peak_docs,
        peak_incidences,
        final_live_claims: model.n_live_claims(),
    }
}

// ------------------------------------------------------------ durability

/// Seed model for the durable lifecycle runs, serialised so every variant
/// shares one exact `(model_id, revision)` lineage.
fn durable_seed_json() -> String {
    let (m_source, m_doc) = (8, 8);
    let mut b = ModelDelta::new(m_source, m_doc);
    let s = b.add_source(&vec![0.5; m_source]).unwrap();
    let c = b.add_claim();
    let d = b.add_document(&vec![0.5; m_doc]).unwrap();
    b.add_clique(c, d, s, Stance::Support);
    serde_json::to_string(&CrfModel::build(b).unwrap()).unwrap()
}

/// The k-th arrival of the durable lifecycle: one claim, its own source,
/// one document — deterministic in `k`, so an interrupted run and the
/// uninterrupted reference see identical streams.
fn durable_arrival(s: &StreamingChecker, k: usize) -> ModelDelta {
    let mut delta = s.delta();
    let srow: Vec<f64> = (0..8).map(|f| ((k * 13 + f) % 89) as f64 / 89.0).collect();
    let src = delta.add_source(&srow).unwrap();
    let c = delta.add_claim();
    let drow: Vec<f64> = (0..8).map(|f| ((k * 31 + f) % 97) as f64 / 97.0).collect();
    let d = delta.add_document(&drow).unwrap();
    delta.add_clique(c, d, src, Stance::Support);
    delta
}

/// Quick-mode recovery smoke: a windowed *logged* lifecycle killed at a
/// fixed arrival, recovered from the surviving bytes, and continued to
/// the end. Asserts the memory plateau held under logging and that the
/// recovered continuation is bit-identical to the run that never crashed
/// — no timing gate.
fn quick_recovery_smoke() {
    let (total, kill_at, window) = (300usize, 150usize, 60u64);
    let json = durable_seed_json();
    let policy = || RetentionPolicy {
        window: Some(window),
        compact_threshold: 0.25,
    };
    let seed = || -> CrfModel { serde_json::from_str(&json).unwrap() };

    let mut reference = StreamingChecker::try_new(seed(), OnlineEmConfig::default())
        .unwrap()
        .with_retention(policy());
    for k in 0..total {
        let delta = durable_arrival(&reference, k);
        reference.arrive_new(delta).unwrap();
    }

    let mem = MemFs::new();
    let storage: Arc<dyn Storage> = Arc::new(mem.clone());
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::Batched(16),
        checkpoint_every: Some(50),
        checkpoint_on_compact: true,
        full_every: 3,
    };
    let mut durable = DurableChecker::create(
        storage,
        seed(),
        OnlineEmConfig::default(),
        policy(),
        config.clone(),
    )
    .unwrap();
    let mut peak_claims = 0usize;
    let mut compactions = 0usize;
    for k in 0..kill_at {
        let stats = durable
            .arrive_new(durable_arrival(durable.checker(), k))
            .unwrap();
        compactions += stats.compacted as usize;
        peak_claims = peak_claims.max(durable.checker().model().n_claims());
    }
    drop(durable); // the fixed-arrival kill: state gone, written bytes survive

    let survivor: Arc<dyn Storage> = Arc::new(mem.survivor(true));
    let mut recovered =
        DurableChecker::recover(survivor, OnlineEmConfig::default(), config).unwrap();
    assert_eq!(
        recovered.checker().arrivals(),
        kill_at,
        "recovery must land on the kill point"
    );
    for k in kill_at..total {
        let stats = recovered
            .arrive_new(durable_arrival(recovered.checker(), k))
            .unwrap();
        compactions += stats.compacted as usize;
        peak_claims = peak_claims.max(recovered.checker().model().n_claims());
    }

    let got = recovered.checker();
    assert_eq!(
        serde_json::to_string(&**got.model()).unwrap(),
        serde_json::to_string(&**reference.model()).unwrap(),
        "recovered model diverged from the uninterrupted run"
    );
    assert_eq!(got.arrivals(), reference.arrivals());
    assert_eq!(got.visible_claims(), reference.visible_claims());
    for (x, y) in got.probs().iter().zip(reference.probs()) {
        assert_eq!(x.to_bits(), y.to_bits(), "probabilities diverged");
    }
    for (x, y) in got
        .weights()
        .as_slice()
        .iter()
        .zip(reference.weights().as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "online weights diverged");
    }
    let bound = ((window + 1) as f64 / 0.75).ceil() as usize + 2;
    assert!(
        peak_claims <= bound,
        "logged run peaked at {peak_claims} claims, bound {bound}: no plateau"
    );
    assert!(compactions >= 2, "logged lifecycle never compacted");
    println!(
        "recovery smoke: killed at {kill_at}/{total}, recovered, continued; \
         bit-identical to uninterrupted run ({compactions} compactions, peak {peak_claims} claims)"
    );
}

/// Mean per-arrival cost of `arrive_new` with the edit log in the loop:
/// the same 10k-claim graph and arrival shape as the unlogged
/// `arrive_new` measurement, on a real directory. Steady state only —
/// checkpoint cadence is off (its cost is a policy choice, amortised over
/// its interval), and `create`'s checkpoint 0 lies outside the timed
/// loop; what is measured is serialise + framed append + fsync policy.
fn logged_ingest_us(base: &CrfModel, arrivals: &[Arrival], sync_policy: SyncPolicy) -> f64 {
    let tag: String = format!("{sync_policy:?}")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = format!(
        "{}/../../target/bench-durability-{tag}",
        env!("CARGO_MANIFEST_DIR")
    );
    let _ = std::fs::remove_dir_all(&dir);
    let storage: Arc<dyn Storage> = Arc::new(DiskFs::open(dir).unwrap());
    let mut durable = DurableChecker::create(
        storage,
        base.clone(),
        OnlineEmConfig::default(),
        RetentionPolicy::unbounded(),
        DurabilityConfig {
            sync_policy,
            checkpoint_every: None,
            checkpoint_on_compact: false,
            full_every: 8,
        },
    )
    .unwrap();
    let t = Instant::now();
    for a in arrivals {
        let mut delta = durable.checker().delta();
        let c = delta.add_claim();
        for (row, &s) in a.doc_rows.iter().zip(&a.sources) {
            let d = delta.add_document(row).unwrap();
            delta.add_clique(c, d, s, Stance::Support);
        }
        durable.arrive_new(delta).unwrap();
    }
    // Close the loss window before stopping the clock so every policy is
    // measured to the same durability point — for group commit this is the
    // watermark barrier, amortised over the whole run.
    durable.sync_log().unwrap();
    t.elapsed().as_secs_f64() * 1e6 / arrivals.len() as f64
}

/// The unlogged counterpart of [`logged_ingest_us`]: the identical
/// arrival sequence through a bare checker — the overhead-gate baseline,
/// measured with the same sample count and loop structure.
fn unlogged_ingest_us(base: &CrfModel, arrivals: &[Arrival]) -> f64 {
    let mut checker = StreamingChecker::try_new(base.clone(), OnlineEmConfig::default()).unwrap();
    let t = Instant::now();
    for a in arrivals {
        let mut delta = checker.delta();
        let c = delta.add_claim();
        for (row, &s) in a.doc_rows.iter().zip(&a.sources) {
            let d = delta.add_document(row).unwrap();
            delta.add_clique(c, d, s, Stance::Support);
        }
        checker.arrive_new(delta).unwrap();
    }
    t.elapsed().as_secs_f64() * 1e6 / arrivals.len() as f64
}

/// Recovery time as a function of log length: run `records` arrivals past
/// the last checkpoint (no cadence, so the whole stream is log suffix),
/// crash, and time [`DurableChecker::recover`] — checkpoint load plus a
/// replay that re-runs estimation per logged arrival.
fn recovery_ms(json: &str, records: usize) -> f64 {
    let mem = MemFs::new();
    let storage: Arc<dyn Storage> = Arc::new(mem.clone());
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::Batched(16),
        checkpoint_every: None,
        checkpoint_on_compact: false,
        full_every: 8,
    };
    let mut durable = DurableChecker::create(
        storage,
        serde_json::from_str::<CrfModel>(json).unwrap(),
        OnlineEmConfig::default(),
        RetentionPolicy {
            window: Some(40),
            compact_threshold: 0.25,
        },
        config.clone(),
    )
    .unwrap();
    for k in 0..records {
        durable
            .arrive_new(durable_arrival(durable.checker(), k))
            .unwrap();
    }
    drop(durable);
    let survivor: Arc<dyn Storage> = Arc::new(mem.survivor(true));
    let t = Instant::now();
    let recovered = DurableChecker::recover(survivor, OnlineEmConfig::default(), config).unwrap();
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovered.checker().arrivals(), records);
    elapsed
}

/// One arrival shaped for whatever feature dimensions the live model has —
/// the [`durable_arrival`] story (claim + own source + one document per
/// clique) generalised past the 8-dim seed.
fn economy_arrival(s: &StreamingChecker, k: usize) -> ModelDelta {
    let (ms, md) = {
        let m = s.model();
        (m.m_source(), m.m_doc())
    };
    let mut delta = s.delta();
    let srow: Vec<f64> = (0..ms).map(|f| ((k * 13 + f) % 89) as f64 / 89.0).collect();
    let src = delta.add_source(&srow).unwrap();
    let c = delta.add_claim();
    for j in 0..DOCS_PER_ARRIVAL {
        let drow: Vec<f64> = (0..md)
            .map(|f| ((k * 31 + j * 7 + f) % 97) as f64 / 97.0)
            .collect();
        let d = delta.add_document(&drow).unwrap();
        delta.add_clique(c, d, src, Stance::Support);
    }
    delta
}

struct CheckpointEconomy {
    model_claims: usize,
    window: u64,
    cadence: u64,
    full_bytes: f64,
    increment_bytes: f64,
    ratio: f64,
    chain_len: usize,
    chain_recovery_ms: f64,
}

/// Full-vs-incremental checkpoint economy: a large *persistent* base
/// model with a small arrival window. A full checkpoint serialises the
/// whole model; an increment serialises only the arrivals since its
/// parent plus the small volatile state — so increment bytes track the
/// window while full bytes track the model. Measures both (sampling each
/// checkpoint file the moment it appears, before GC can take it) and
/// times a recovery through the assembled chain: newest full → linked
/// increments → log suffix.
fn checkpoint_economy() -> CheckpointEconomy {
    let base = synthetic_model(5_000, 250, 3, 16, 16, 0xECC0_5EED);
    let model_claims = base.n_claims();
    let (window, cadence, total) = (100u64, 100u64, 350usize);
    let mem = MemFs::new();
    let storage: Arc<dyn Storage> = Arc::new(mem.clone());
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::Batched(16),
        checkpoint_every: Some(cadence),
        checkpoint_on_compact: false,
        // Out of reach for this run: every cadence checkpoint is an
        // increment, and the only full is `create`'s checkpoint 0.
        full_every: 16,
    };
    let mut durable = DurableChecker::create(
        storage.clone(),
        base,
        OnlineEmConfig::default(),
        RetentionPolicy {
            window: Some(window),
            compact_threshold: 0.25,
        },
        config.clone(),
    )
    .unwrap();
    let mut seen = std::collections::HashSet::new();
    let (mut fulls, mut incs): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for k in 0..=total {
        for name in storage.list().unwrap() {
            if seen.insert(name.clone()) {
                let bytes = storage.read(&name).unwrap().len() as f64;
                if name.starts_with("ckpt-") {
                    fulls.push(bytes);
                } else if name.starts_with("inc-") {
                    incs.push(bytes);
                }
            }
        }
        if k < total {
            durable
                .arrive_new(economy_arrival(durable.checker(), k))
                .unwrap();
        }
    }
    drop(durable);

    let chain_survivor: Arc<dyn Storage> = Arc::new(mem.survivor(true));
    let chain_len = streamcheck::verify_store(&chain_survivor)
        .unwrap()
        .chain_len;
    let survivor: Arc<dyn Storage> = Arc::new(mem.survivor(true));
    let t = Instant::now();
    let recovered = DurableChecker::recover(survivor, OnlineEmConfig::default(), config).unwrap();
    let chain_recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovered.checker().arrivals(), total);
    assert!(chain_len >= 3, "economy run built no increment chain");

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (full_bytes, increment_bytes) = (mean(&fulls), mean(&incs));
    CheckpointEconomy {
        model_claims,
        window,
        cadence,
        full_bytes,
        increment_bytes,
        ratio: full_bytes / increment_bytes,
        chain_len,
        chain_recovery_ms,
    }
}

/// Quick-mode crash matrix: the three PR-7 crash surfaces — the
/// group-commit sync window, the increment boundary, and mid-GC (deletes
/// charge the same fault budget as writes) — each swept over a spread of
/// byte budgets under both crash models (unsynced bytes kept and
/// dropped). Every trial must recover to exactly some per-arrival state
/// and continue bit-identically to the uninterrupted reference.
fn quick_crash_matrix() {
    const TOTAL: usize = 12;
    let json = durable_seed_json();
    let policy = || RetentionPolicy {
        window: Some(4),
        compact_threshold: 0.25,
    };
    let snap = |c: &StreamingChecker| {
        (
            serde_json::to_string(&**c.model()).unwrap(),
            c.probs().iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
        )
    };
    let mut reference = StreamingChecker::try_new(
        serde_json::from_str::<CrfModel>(&json).unwrap(),
        OnlineEmConfig::default(),
    )
    .unwrap()
    .with_retention(policy());
    let mut refs = vec![snap(&reference)];
    for k in 0..TOTAL {
        let delta = durable_arrival(&reference, k);
        reference.arrive_new(delta).unwrap();
        refs.push(snap(&reference));
    }

    let surfaces = [
        (
            "group-commit window",
            DurabilityConfig {
                sync_policy: SyncPolicy::GroupCommit {
                    window_micros: 300,
                    max_batch: 3,
                },
                checkpoint_every: Some(3),
                checkpoint_on_compact: true,
                full_every: 1,
            },
        ),
        (
            "increment boundary",
            DurabilityConfig {
                sync_policy: SyncPolicy::Batched(4),
                checkpoint_every: Some(2),
                checkpoint_on_compact: false,
                full_every: 3,
            },
        ),
        (
            "mid-GC",
            DurabilityConfig {
                sync_policy: SyncPolicy::PerRecord,
                checkpoint_every: Some(2),
                checkpoint_on_compact: true,
                full_every: 2,
            },
        ),
    ];

    let run = |fault: &Arc<FaultFs>, config: &DurabilityConfig| -> (bool, bool) {
        let storage: Arc<dyn Storage> = fault.clone();
        match DurableChecker::create(
            storage,
            serde_json::from_str::<CrfModel>(&json).unwrap(),
            OnlineEmConfig::default(),
            policy(),
            config.clone(),
        ) {
            Ok(mut durable) => {
                for k in 0..TOTAL {
                    let delta = durable_arrival(durable.checker(), k);
                    if durable.arrive_new(delta).is_err() {
                        return (true, true);
                    }
                }
                let got = snap(durable.checker());
                assert_eq!(got, refs[TOTAL], "uncrashed run diverged");
                (true, false)
            }
            Err(_) => (false, true),
        }
    };

    let mut trials = 0usize;
    for (name, config) in &surfaces {
        const GENEROUS: u64 = 1 << 30;
        let gauge = Arc::new(FaultFs::new(MemFs::new(), GENEROUS));
        run(&gauge, config);
        let workload = GENEROUS - gauge.remaining().expect("generous budget never fires");

        for i in 0..8u64 {
            let budget = workload * i / 7;
            let keep_unsynced = i % 2 == 0;
            let ctx = format!("{name}, budget {budget}, keep_unsynced {keep_unsynced}");
            let fault = Arc::new(FaultFs::new(MemFs::new(), budget));
            let (created, crashed) = run(&fault, config);
            if !crashed {
                continue;
            }
            let survivor: Arc<dyn Storage> = Arc::new(fault.crash(keep_unsynced));
            let mut recovered = match DurableChecker::recover(
                survivor,
                OnlineEmConfig::default(),
                config.clone(),
            ) {
                Ok(r) => r,
                Err(DurableError::NoCheckpoint) if !created => continue,
                Err(e) => panic!("{ctx}: recovery failed: {e}"),
            };
            let k = recovered.checker().arrivals();
            assert!(k <= TOTAL, "{ctx}: recovered past the crash");
            assert_eq!(
                snap(recovered.checker()),
                refs[k],
                "{ctx}: recovery landed between arrivals"
            );
            for j in k..TOTAL {
                let delta = durable_arrival(recovered.checker(), j);
                recovered.arrive_new(delta).unwrap();
            }
            assert_eq!(
                snap(recovered.checker()),
                refs[TOTAL],
                "{ctx}: continuation diverged from the uninterrupted run"
            );
            trials += 1;
        }
    }
    println!(
        "crash matrix: {trials} crashed trials across 3 surfaces \
         (group-commit window, increment boundary, mid-GC) — every recovery \
         landed on a per-arrival state and continued bit-identically"
    );
    assert!(trials >= 6, "crash matrix barely crashed: {trials} trials");
}

fn main() {
    // Quick mode (CI smoke): a tiny windowed run asserting the plateau and
    // partition invariants — no timing gate, no JSON, no 10k-claim graph.
    if std::env::var("STREAM_BENCH_QUICK").is_ok() {
        let report = windowed_run(600, 150, 0.25);
        println!(
            "quick windowed smoke: {} arrivals, window {} -> peak {} claims / {} docs, \
             {} retired, {} compactions, final live {}",
            report.arrivals,
            report.window,
            report.peak_claims,
            report.peak_docs,
            report.retired,
            report.compactions,
            report.final_live_claims,
        );
        assert!(report.compactions >= 2, "quick run never compacted");
        assert!(report.retired >= 400, "quick run retired too little");
        println!("memory-plateau invariant holds");
        quick_recovery_smoke();
        quick_crash_matrix();
        return;
    }

    let base = bench_model();
    let n_sources = base.n_sources();
    let m_doc = base.m_doc();

    // ---- Incremental path: 40 consecutive single-claim arrivals against
    // one live model.
    const ARRIVALS: usize = 40;
    let arrivals: Vec<Arrival> = (0..ARRIVALS)
        .map(|k| arrival(k, n_sources, m_doc))
        .collect();
    let mut model = base.clone();
    let mut partition = Partition::of_model(&model);
    let mut incr_us = Vec::with_capacity(ARRIVALS);
    for a in &arrivals {
        let t = Instant::now();
        apply_incremental(&mut model, &mut partition, a);
        incr_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    // Sanity: the grown state matches a from-scratch recompute.
    assert_eq!(model.n_claims(), base.n_claims() + ARRIVALS);
    assert_eq!(partition.len(), Partition::of_model(&model).len());

    // ---- Public ingestion API: the same arrival shape through
    // `StreamingChecker::arrive_new` (handle apply + credibility estimate
    // + online-EM Newton update — the full `∆t` of §8.8). The checker
    // releases its snapshot pin around `apply`, so a sole holder grows the
    // model in place with no copy.
    let handle = ModelHandle::new(base.clone());
    let mut checker = StreamingChecker::try_new(handle, OnlineEmConfig::default()).unwrap();
    let mut arrive_us = Vec::with_capacity(ARRIVALS);
    for k in 0..ARRIVALS {
        let a = arrival(k, n_sources, m_doc);
        let mut delta = checker.delta();
        let c = delta.add_claim();
        for (row, &s) in a.doc_rows.iter().zip(&a.sources) {
            let d = delta.add_document(row).unwrap();
            delta.add_clique(c, d, s, Stance::Support);
        }
        let t = Instant::now();
        checker.arrive_new(delta).unwrap();
        arrive_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    assert_eq!(checker.model().n_claims(), base.n_claims() + ARRIVALS);

    // ---- Rebuild path: the same arrivals, each paying a full rebuild of
    // model + partition (5 samples are plenty — each costs the
    // whole graph).
    let mut rebuild_us = Vec::new();
    for k in [0usize, 9, 19, 29, 39] {
        let t = Instant::now();
        rebuild_full(&base, &arrivals[..=k]);
        rebuild_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // ---- Windowed lifecycle: the bounded-memory long-running stream.
    // 10k arrivals over a 2k-claim sliding window; grow + retire +
    // deferred compaction amortised per arrival, vs rebuilding the
    // surviving subgraph from scratch.
    let windowed = windowed_run(10_000, 2_000, 0.25);

    // ---- Durability: the same arrivals through the durable checker on a
    // real directory. Per-record fsync is the zero-loss-window price;
    // batched fsync is what deployments run and must stay within 25% of
    // the unlogged `arrive_new`. Plus the recovery-time curve: checkpoint
    // load + replay, as a function of log length.
    const LOGGED_SAMPLES: usize = 200;
    let logged_arrivals: Vec<Arrival> = (0..LOGGED_SAMPLES)
        .map(|k| arrival(k, n_sources, m_doc))
        .collect();
    let no_log_us = unlogged_ingest_us(&base, &logged_arrivals);
    let batched_us = logged_ingest_us(&base, &logged_arrivals, SyncPolicy::Batched(16));
    let per_record_us = logged_ingest_us(&base, &logged_arrivals, SyncPolicy::PerRecord);
    let group_us = logged_ingest_us(
        &base,
        &logged_arrivals,
        SyncPolicy::GroupCommit {
            window_micros: 5_000,
            max_batch: 64,
        },
    );
    let batched_overhead = batched_us / no_log_us - 1.0;
    let group_vs_batched = group_us / batched_us;
    let durable_json = durable_seed_json();
    let recovery: Vec<(usize, f64)> = [64usize, 256, 1024]
        .into_iter()
        .map(|n| (n, recovery_ms(&durable_json, n)))
        .collect();
    let economy = checkpoint_economy();

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let incr_mean = mean(&incr_us);
    let incr_worst = incr_us.iter().cloned().fold(0.0f64, f64::max);
    let arrive_mean = mean(&arrive_us);
    let rebuild_mean = mean(&rebuild_us);
    let rebuild_best = rebuild_us.iter().cloned().fold(f64::INFINITY, f64::min);
    let speedup = rebuild_mean / incr_mean;
    // The conservative gate number: the *best* rebuild against the *worst*
    // incremental arrival.
    let speedup_floor = rebuild_best / incr_worst;

    println!();
    println!(
        "graph: {} claims, {} cliques, feature dim {}",
        base.n_claims(),
        base.cliques().len(),
        base.feature_dim()
    );
    println!("arrival shape: 1 claim + {DOCS_PER_ARRIVAL} documents/cliques ({ARRIVALS} arrivals)");
    println!(
        "incremental (apply + partition): mean {incr_mean:>9.1} us | worst {incr_worst:>9.1} us"
    );
    println!("arrive_new (ingest + estimate + online EM): mean {arrive_mean:>9.1} us");
    println!("full rebuild (build + partition): mean {rebuild_mean:>9.1} us | best {rebuild_best:>9.1} us");
    println!("speedup: {speedup:.1}x mean ({speedup_floor:.1}x worst-case-vs-best-case)");
    println!();
    println!(
        "windowed lifecycle: {} arrivals, window {} claims, compact at 25% dead",
        windowed.arrivals, windowed.window
    );
    println!(
        "  amortised grow+retire+compact: {:>8.1} us/arrival | survivor rebuild: {:>9.1} us",
        windowed.amortised_us, windowed.rebuild_mean_us
    );
    println!(
        "  speedup {:.1}x | {} retired, {} compactions | peak arrays: {} claims, {} docs, {} cliques (live at end: {})",
        windowed.speedup,
        windowed.retired,
        windowed.compactions,
        windowed.peak_claims,
        windowed.peak_docs,
        windowed.peak_incidences,
        windowed.final_live_claims
    );
    println!();
    println!("durable ingest ({LOGGED_SAMPLES} arrivals on the 10k-claim graph, DiskFs):");
    println!(
        "  no log: {no_log_us:>7.1} us | batched(16) fsync: {batched_us:>7.1} us \
         ({:+.1}%) | per-record fsync: {per_record_us:>7.1} us ({:+.1}%)",
        batched_overhead * 100.0,
        (per_record_us / no_log_us - 1.0) * 100.0
    );
    println!(
        "  group commit (5ms window, batch 64): {group_us:>7.1} us \
         ({group_vs_batched:.2}x of batched(16))"
    );
    for (n, ms) in &recovery {
        println!("  recovery of a {n:>5}-record log suffix: {ms:>8.1} ms");
    }
    println!(
        "checkpoint economy ({} base claims, window {}, cadence {}):",
        economy.model_claims, economy.window, economy.cadence
    );
    println!(
        "  full checkpoint: {:>9.0} bytes | increment: {:>8.0} bytes ({:.1}x smaller) | \
         chain of {} recovered in {:.1} ms",
        economy.full_bytes,
        economy.increment_bytes,
        economy.ratio,
        economy.chain_len,
        economy.chain_recovery_ms
    );

    let recovery_json = recovery
        .iter()
        .map(|(n, ms)| format!("{{ \"records\": {n}, \"ms\": {ms:.1} }}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"stream_arrival_latency\",\n  \"graph\": {{ \"claims\": {}, \"cliques\": {}, \"sources\": {}, \"feature_dim\": {} }},\n  \"arrival\": {{ \"claims\": 1, \"documents\": {DOCS_PER_ARRIVAL}, \"cliques\": {DOCS_PER_ARRIVAL}, \"samples\": {ARRIVALS} }},\n  \"incremental\": {{ \"variant\": \"delta_apply_partition\", \"mean_us\": {:.1}, \"worst_us\": {:.1} }},\n  \"arrive_new\": {{ \"variant\": \"streaming_checker_ingest_estimate_online_em\", \"mean_us\": {:.1} }},\n  \"rebuild\": {{ \"variant\": \"build_partition_from_scratch\", \"mean_us\": {:.1}, \"best_us\": {:.1} }},\n  \"speedup\": {:.1},\n  \"speedup_worst_vs_best\": {:.1},\n  \"windowed\": {{ \"arrivals\": {}, \"window\": {}, \"compact_threshold\": 0.25, \"amortised_us\": {:.1}, \"survivor_rebuild_mean_us\": {:.1}, \"speedup\": {:.1}, \"retired\": {}, \"compactions\": {}, \"peak_claims\": {}, \"peak_docs\": {}, \"peak_cliques\": {}, \"final_live_claims\": {} }},\n  \"durability\": {{ \"samples\": {LOGGED_SAMPLES}, \"store\": \"DiskFs\", \"no_log_us\": {no_log_us:.1}, \"batched16_us\": {batched_us:.1}, \"per_record_us\": {per_record_us:.1}, \"group_commit_us\": {group_us:.1}, \"batched_overhead\": {batched_overhead:.3}, \"group_vs_batched\": {group_vs_batched:.3}, \"recovery\": [{recovery_json}], \"checkpoints\": {{ \"model_claims\": {}, \"window\": {}, \"cadence\": {}, \"full_bytes\": {:.0}, \"increment_bytes\": {:.0}, \"full_vs_increment\": {:.1}, \"chain_len\": {}, \"chain_recovery_ms\": {:.1} }} }},\n  \"gate\": \"incremental >= 5x rebuild per single-claim arrival; windowed amortised lifecycle >= 5x survivor rebuild; windowed arrays plateau; batched-fsync logged ingest <= 1.25x unlogged; group-commit logged ingest <= 1.10x batched(16); incremental checkpoint <= 1/4 the bytes of a full\"\n}}\n",
        base.n_claims(),
        base.cliques().len(),
        base.n_sources(),
        base.feature_dim(),
        incr_mean,
        incr_worst,
        arrive_mean,
        rebuild_mean,
        rebuild_best,
        speedup,
        speedup_floor,
        windowed.arrivals,
        windowed.window,
        windowed.amortised_us,
        windowed.rebuild_mean_us,
        windowed.speedup,
        windowed.retired,
        windowed.compactions,
        windowed.peak_claims,
        windowed.peak_docs,
        windowed.peak_incidences,
        windowed.final_live_claims,
        economy.model_claims,
        economy.window,
        economy.cadence,
        economy.full_bytes,
        economy.increment_bytes,
        economy.ratio,
        economy.chain_len,
        economy.chain_recovery_ms,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(path, &json).expect("write BENCH_stream.json");
    println!("\nwrote {path}");

    // Acceptance gates: delta-apply must beat the full rebuild >=5x per
    // single-claim arrival, and the windowed lifecycle (grow + retire +
    // amortised compaction) must beat rebuilding the surviving subgraph
    // >=5x per arrival. Clean diagnostic + nonzero exit (not a panic) so a
    // regression reads as a failed measurement.
    if speedup < 5.0 {
        eprintln!(
            "FAIL: incremental arrival is only {speedup:.1}x the full rebuild; the \
             acceptance criterion requires >=5x (see BENCH_stream.json)"
        );
        std::process::exit(1);
    }
    if windowed.speedup < 5.0 {
        eprintln!(
            "FAIL: amortised windowed lifecycle is only {:.1}x the survivor rebuild; the \
             acceptance criterion requires >=5x (see BENCH_stream.json)",
            windowed.speedup
        );
        std::process::exit(1);
    }
    if batched_overhead > 0.25 {
        eprintln!(
            "FAIL: batched-fsync logged ingest costs {:.1}% over the unlogged lifecycle; \
             the acceptance criterion allows <=25% (see BENCH_stream.json)",
            batched_overhead * 100.0
        );
        std::process::exit(1);
    }
    if group_vs_batched > 1.10 {
        eprintln!(
            "FAIL: group-commit logged ingest is {group_vs_batched:.2}x of batched(16); the \
             acceptance criterion allows <=1.10x (see BENCH_stream.json)"
        );
        std::process::exit(1);
    }
    if economy.increment_bytes * 4.0 > economy.full_bytes {
        eprintln!(
            "FAIL: an incremental checkpoint averages {:.0} bytes against {:.0} for a full — \
             not O(window); the gate requires <=1/4 (see BENCH_stream.json)",
            economy.increment_bytes, economy.full_bytes
        );
        std::process::exit(1);
    }
}
