//! Streaming fact checking (§7): claims arrive continuously from a news
//! feed and the factor graph **grows in place** as they do — each arrival
//! is a [`crf::ModelDelta`] ingested through a [`serve::TruthServer`]
//! wrapping [`streamcheck::StreamingChecker::arrive_new`], spliced into
//! the live model behind a shared [`crf::ModelHandle`]. The online EM
//! algorithm maintains model parameters with stochastic approximation
//! while two concurrent consumers work the same lineage:
//!
//! * a **validation process** — holding a clone of the handle, so it sees
//!   every ingested claim on its next inference — periodically validates
//!   the most beneficial claims seen so far;
//! * a **query thread** — holding a [`serve::QueryHandle`] — issues
//!   top-k-most-uncertain queries *during* ingest. Every answer carries a
//!   staleness tag; after the stream drains, each recorded answer is
//!   checked bit-identical against a post-hoc recomputation from the
//!   published probabilities its tag names and the model they were
//!   published from.
//!
//! ```sh
//! cargo run --release -p repro-examples --example streaming_news
//! ```

use crf::{CrfModel, Icrf, IcrfConfig, ModelHandle, VarId};
use factcheck::instantiate_grounding;
use factdb::{ClaimId, DatasetPreset, FactDatabase, SyncMap};
use guidance::{GuidanceContext, HybridStrategy, InfoGainConfig, SelectionStrategy};
use oracle::{GroundTruthUser, User};
use serve::{binary_entropy, Published, Staleness, TruthServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use streamcheck::{OnlineEmConfig, StreamingChecker};

fn main() {
    let ds = DatasetPreset::HealthMini.generate();
    let full = &ds.db;
    let n = full.n_claims();
    println!("streaming {n} claims in arrival order...");

    // Group each document with the latest-posted claim it references: a
    // document can only be published once every claim it discusses exists.
    let mut docs_by_last: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, doc) in full.documents().iter().enumerate() {
        let last = doc.claims.iter().map(|(c, _)| c.idx()).max().unwrap();
        docs_by_last[last].push(i);
    }

    // The live record store: news outlets (sources) are known up front —
    // the directory of feeds we subscribe to — while claims and documents
    // arrive over time. The first claim(s) with evidence seed the model.
    let mut live = FactDatabase::new();
    for s in full.sources() {
        live.add_source(s.clone());
    }
    let mut next_claim = 0usize;
    while live.n_documents() == 0 {
        live.add_claim(full.claims()[next_claim].clone());
        for &d in &docs_by_last[next_claim] {
            live.add_document(full.documents()[d].clone()).unwrap();
        }
        next_claim += 1;
    }

    // One growable model lineage shared by the online and offline sides,
    // fronted by a TruthServer: ingest is the single write path, and any
    // number of query threads read the published snapshots.
    // The seed claims are built into the model; every later claim arrives
    // through the server. The sync map carries the record store's ids to
    // the model's.
    let seed = live.to_crf_model().expect("seed arrivals carry evidence");
    let mut map = SyncMap::for_built_model(&live, &seed).expect("model built from the store");
    let handle = ModelHandle::new(seed);
    let checker = StreamingChecker::try_new(handle.clone(), OnlineEmConfig::default()).unwrap();
    let mut server = TruthServer::new(checker);
    let mut icrf = Icrf::new(handle.clone(), IcrfConfig::default());
    let mut strategy = HybridStrategy::new(InfoGainConfig::default(), 7);
    let mut editor = GroundTruthUser::new(ds.truth.clone());
    let period = (n as f64 * 0.2).round() as usize;

    // Every state the server publishes, in order, next to the writer's
    // model at that moment — the post-hoc record the query thread's
    // staleness tags are verified against once the stream drains.
    type TaggedTopK = (Staleness, Vec<(VarId, f64)>);
    let logged = |server: &TruthServer<StreamingChecker>| {
        (server.published(), server.backend().model().clone())
    };
    let log: Mutex<Vec<(Arc<Published>, Arc<CrfModel>)>> = Mutex::new(vec![logged(&server)]);
    let stop = Arc::new(AtomicBool::new(false));
    let samples: Mutex<Vec<TaggedTopK>> = Mutex::new(Vec::new());

    let mut validated = 0usize;
    let mut total_update_ms = 0.0;
    std::thread::scope(|scope| {
        // The query thread: top-5-most-uncertain during ingest, every
        // answer recorded with its staleness tag.
        {
            let reader = server.reader();
            let stop = stop.clone();
            let samples = &samples;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let top = reader.top_k_uncertain(5);
                    samples.lock().unwrap().push((top.at, top.value));
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }

        for (c, publishable) in docs_by_last.iter().enumerate().skip(next_claim) {
            // The arrival: append the claim and its newly publishable
            // documents to the record store, then splice everything added
            // since the last sync into the live factor graph — no rebuild,
            // caches patch, and the server republishes for its readers.
            live.add_claim(full.claims()[c].clone());
            for &d in publishable {
                live.add_document(full.documents()[d].clone()).unwrap();
            }
            let (delta, next) = live
                .sync_delta_mapped(&handle.snapshot(), &map)
                .expect("live store leads the model");
            let t = Instant::now();
            server.ingest(delta).expect("fresh delta applies");
            total_update_ms += t.elapsed().as_secs_f64() * 1000.0;
            map = next;
            log.lock().unwrap().push(logged(&server));

            if (c + 1) % period == 0 || c + 1 == n {
                // Parameter hand-off (Alg. 2 line 10) and a validation
                // burst on the claims that have arrived; `icrf.run()` syncs
                // the engine to the grown model before inferring.
                server.backend().feed_into(&mut icrf);
                icrf.run();
                // Every claim the store holds has arrived, the seed claims
                // built into the model included; the map names their
                // model ids.
                let visible: Vec<VarId> = (0..live.n_claims() as u32)
                    .filter_map(|c| map.model_claim(ClaimId(c)))
                    .collect();
                for _ in 0..3 {
                    let grounding = instantiate_grounding(&icrf);
                    let pick = {
                        let ctx = GuidanceContext {
                            icrf: &icrf,
                            grounding: &grounding,
                            entropy_mode: crf::entropy::EntropyMode::Approximate,
                        };
                        strategy
                            .rank(&ctx, visible.len())
                            .into_iter()
                            .find(|c| visible.contains(c))
                    };
                    let Some(claim) = pick else { break };
                    let verdict = editor.validate(claim.idx()).expect("editor answers");
                    icrf.set_label(claim, verdict);
                    icrf.run();
                    server.backend_mut().exchange_from(&icrf);
                    validated += 1;
                }
                // Expose the validated parameters to the query side.
                server.publish();
                log.lock().unwrap().push(logged(&server));
                println!(
                    "after {:>3} arrivals (model {}): {} validations so far, avg update {:.2} ms",
                    c + 1,
                    handle.revision(),
                    validated,
                    total_update_ms / (c + 1) as f64
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Post-hoc check: every staleness-tagged answer the query thread saw
    // must be bit-identical to a recomputation from the published
    // probabilities and the liveness of the model revision its tag names.
    let log = log.lock().unwrap();
    let samples = samples.lock().unwrap();
    for (tag, ranking) in samples.iter() {
        let (state, model) = log
            .iter()
            .find(|(p, _)| p.revision == tag.revision)
            .expect("tag names an unpublished state");
        assert_eq!(tag.compactions, state.compactions);
        assert_eq!(tag.arrivals, state.arrivals);
        let mut want: Vec<(VarId, f64)> = (0..model.n_claims())
            .filter(|&i| model.claim_live(i))
            .map(|i| (VarId(i as u32), binary_entropy(state.probs[i])))
            .collect();
        want.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.idx().cmp(&b.0.idx())));
        want.truncate(5);
        assert_eq!(ranking, &want, "top-k diverged from its tagged snapshot");
    }
    println!(
        "query thread: {} top-5-uncertain answers across {} published states, every one \
         bit-identical to its tagged snapshot",
        samples.len(),
        log.len()
    );

    let grounding = instantiate_grounding(&icrf);
    let correct = ds
        .truth
        .iter()
        .enumerate()
        .filter(|&(i, &t)| grounding.get(i) == t)
        .count();
    println!(
        "\nstream drained at revision {}: {validated} claims validated ({:.0}%), precision {:.3}",
        handle.revision(),
        100.0 * validated as f64 / n as f64,
        correct as f64 / n as f64
    );
}
