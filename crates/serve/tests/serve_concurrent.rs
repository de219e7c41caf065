//! Acceptance: concurrent serving under a random grow/retire/compact
//! ingest script.
//!
//! One writer thread drives a [`TruthServer`] through a randomized
//! lifecycle script under tight retention (so retirement sweeps and
//! compactions fire constantly), logging every state it publishes. Reader
//! threads hammer the query API the whole time and record every answer
//! together with its staleness tag; a cursor thread opens cursors and
//! steps them across compactions. After the threads join, every recorded
//! answer is checked **bit-identical** against an offline recomputation
//! from the logged state its tag names — probabilities from the published
//! table; liveness, trust (`source_trust_from_probs`) and remaps from the
//! writer's model, logged next to each publication; top-k against an
//! independent sort. The oracle never reads the published liveness or
//! remap, so the spec does not check a published state against itself.
//! Cursors must relocate exactly through the model's remap or refuse
//! with [`QueryError::Remapped`] — never serve an id the creator didn't
//! name.

use crf::graph::{CrfModel, ModelDelta, Stance};
use crf::VarId;
use serve::{binary_entropy, IngestBackend, Published, QueryError, TruthServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use streamcheck::{OnlineEmConfig, RetentionPolicy, StreamingChecker};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn seed_server(seed: u64) -> TruthServer<StreamingChecker> {
    let mut b = ModelDelta::new(1, 1);
    let s = b.add_source(&[0.5 + (seed % 5) as f64 * 0.08]).unwrap();
    let c = b.add_claim();
    let d = b.add_document(&[0.4]).unwrap();
    b.add_clique(c, d, s, Stance::Support);
    let checker = StreamingChecker::try_new(CrfModel::build(b).unwrap(), OnlineEmConfig::default())
        .unwrap()
        .with_retention(RetentionPolicy {
            window: Some(4),
            compact_threshold: 0.0, // compact after every sweep
        });
    TruthServer::new(checker)
}

/// One random arrival: a fresh claim with 1–2 documents, each from either
/// a fresh source or an existing live one.
fn random_ingest(srv: &mut TruthServer<StreamingChecker>, rng: &mut u64) {
    let mut delta = srv.backend().checker().delta();
    let model = srv.backend().checker().model().clone();
    let claim = delta.add_claim();
    for _ in 0..1 + xorshift(rng) % 2 {
        let live: Vec<u32> = (0..model.n_sources() as u32)
            .filter(|&s| model.source_live(s as usize))
            .collect();
        let src = if xorshift(rng).is_multiple_of(3) && !live.is_empty() {
            live[(xorshift(rng) % live.len() as u64) as usize]
        } else {
            delta
                .add_source(&[0.1 + (xorshift(rng) % 8) as f64 * 0.1])
                .unwrap()
        };
        let doc = delta
            .add_document(&[0.1 + (xorshift(rng) % 9) as f64 * 0.09])
            .unwrap();
        let stance = if xorshift(rng).is_multiple_of(4) {
            Stance::Refute
        } else {
            Stance::Support
        };
        delta.add_clique(claim, doc, src, stance);
    }
    srv.ingest(delta).unwrap();
}

/// What a reader recorded about one query, for post-join verification.
enum Recorded {
    Batch {
        tag: serve::Staleness,
        inputs: Vec<VarId>,
        answers: Vec<serve::TruthAnswer>,
    },
    TopK {
        tag: serve::Staleness,
        k: usize,
        ranking: Vec<(VarId, f64)>,
    },
    Trust {
        tag: serve::Staleness,
        source: u32,
        value: Option<f64>,
    },
}

/// One publication as the writer logged it: the published state and the
/// writer's model at that moment, the revision the state was derived from.
type Logged = (Arc<Published>, Arc<CrfModel>);

/// The logged publication whose tag matches `tag` — publications are
/// strictly revision-ordered, so the revision is a unique key.
fn state_for<'a>(
    log: &'a [(Arc<Published>, Offline)],
    tag: &serve::Staleness,
) -> &'a (Arc<Published>, Offline) {
    log.iter()
        .find(|(p, _)| p.revision == tag.revision)
        .unwrap_or_else(|| panic!("answer tagged with unlogged revision {:?}", tag.revision))
}

/// The writer's model at the revision `state` was published from. The
/// writer logs each publication right after making it, so a reader that
/// already holds the state waits at most for that one log entry.
fn model_for(log: &Mutex<Vec<Logged>>, state: &Published) -> Arc<CrfModel> {
    loop {
        if let Some((_, model)) = log
            .lock()
            .unwrap()
            .iter()
            .find(|(p, _)| p.revision == state.revision)
        {
            return model.clone();
        }
        std::thread::yield_now();
    }
}

/// Offline tables recomputed from scratch for one published state.
struct Offline {
    model: Arc<CrfModel>,
    trust: Vec<f64>,
}

fn offline(p: &Published, model: &Arc<CrfModel>) -> Offline {
    let trust = crf::em::source_trust_from_probs(model, &p.probs);
    Offline {
        model: model.clone(),
        trust,
    }
}

fn verify_tag(p: &Published, tag: &serve::Staleness) {
    assert_eq!(tag.compactions, p.compactions, "tag/state compaction skew");
    assert_eq!(tag.arrivals, p.arrivals, "tag/state arrival skew");
}

fn verify(rec: &Recorded, log: &[(Arc<Published>, Offline)]) {
    match rec {
        Recorded::Batch {
            tag,
            inputs,
            answers,
        } => {
            let (p, off) = state_for(log, tag);
            verify_tag(p, tag);
            assert_eq!(answers.len(), inputs.len());
            for (&claim, got) in inputs.iter().zip(answers) {
                let live = claim.idx() < off.model.n_claims() && off.model.claim_live(claim.idx());
                assert_eq!(got.claim, claim);
                assert_eq!(got.live, live, "liveness diverges at {claim:?}");
                if live {
                    assert_eq!(got.probability, p.probs[claim.idx()], "probs not bit-equal");
                } else {
                    assert_eq!(got.probability, 0.0);
                }
            }
        }
        Recorded::TopK { tag, k, ranking } => {
            let (p, off) = state_for(log, tag);
            verify_tag(p, tag);
            let mut want: Vec<(VarId, f64)> = (0..off.model.n_claims())
                .filter(|&c| off.model.claim_live(c))
                .map(|c| (VarId(c as u32), binary_entropy(p.probs[c])))
                .collect();
            want.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
            want.truncate(*k);
            assert_eq!(ranking, &want, "top-k not bit-identical to offline sort");
        }
        Recorded::Trust { tag, source, value } => {
            let (p, off) = state_for(log, tag);
            verify_tag(p, tag);
            let want = ((*source as usize) < off.model.n_sources()
                && off.model.source_live(*source as usize))
            .then(|| off.trust[*source as usize]);
            assert_eq!(*value, want, "trust not bit-equal for source {source}");
        }
    }
}

/// The cursor oracle's relocation: when `state` is one compaction past
/// `compactions`, apply the remap of `model` (the writer's model `state`
/// was published from) to `expected` offline, counting the ids it drops.
fn relocate(
    state: &Published,
    model: &CrfModel,
    expected: &mut Vec<VarId>,
    compactions: &mut u64,
    dropped: &mut usize,
) {
    if state.compactions == *compactions {
        return;
    }
    assert_eq!(state.compactions, *compactions + 1);
    let remap = model.remap_since(*compactions).unwrap().unwrap();
    let before = expected.len();
    expected.retain_mut(|c| match remap.claim(*c) {
        Some(nc) => {
            *c = nc;
            true
        }
        None => false,
    });
    *dropped += before - expected.len();
    *compactions = state.compactions;
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(4))]

    /// The acceptance property from the issue: N reader threads querying
    /// during a random grow/retire/compact ingest script, every answer
    /// bit-identical to the offline answer from the snapshot revision its
    /// tag names, and cursors relocating-or-refusing without ever
    /// wrong-claiming data.
    #[test]
    fn prop_concurrent_answers_are_bit_identical_to_their_tagged_state(
        seed in 0u64..1000,
        n_ops in 30usize..60,
        readers in 2usize..4,
    ) {
        let mut srv = seed_server(seed);
        let log: Mutex<Vec<Logged>> =
            Mutex::new(vec![(srv.published(), srv.backend().checker().model().clone())]);
        let stop = Arc::new(AtomicBool::new(false));
        let recordings: Mutex<Vec<Vec<Recorded>>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            // Query readers: random batches (including out-of-range ids),
            // top-k scans, trust lookups. Record everything.
            for r in 0..readers {
                let handle = srv.reader();
                let stop = stop.clone();
                let recordings = &recordings;
                let mut rng = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(r as u64 + 1);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut iters = 0usize;
                    // A minimum iteration count so a fast writer can't
                    // outrun thread spawn and leave nothing to verify.
                    while iters < 40 || (!stop.load(Ordering::Relaxed) && iters < 5000) {
                        iters += 1;
                        let n = srv_batch_ids(&mut rng, &handle);
                        let batch = handle.truth_batch(&n);
                        local.push(Recorded::Batch {
                            tag: batch.at,
                            inputs: n,
                            answers: batch.value,
                        });
                        let k = (xorshift(&mut rng) % 6) as usize;
                        let top = handle.top_k_uncertain(k);
                        local.push(Recorded::TopK { tag: top.at, k, ranking: top.value });
                        let source = (xorshift(&mut rng) % 12) as u32;
                        let trust = handle.source_trust(source);
                        local.push(Recorded::Trust { tag: trust.at, source, value: trust.value });
                    }
                    recordings.lock().unwrap().push(local);
                });
            }

            // Cursor thread: open a cursor, step it against fresh
            // snapshots, verifying relocation inline against the remap of
            // the writer's model each snapshot was published from.
            {
                let handle = srv.reader();
                let stop = stop.clone();
                let log = &log;
                let mut rng = seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(99);
                scope.spawn(move || {
                    let mut steps = 0usize;
                    while steps < 40 || (!stop.load(Ordering::Relaxed) && steps < 5000) {
                        let opened = handle.snapshot();
                        let n_claims = opened.probs.len() as u32;
                        if n_claims == 0 {
                            steps += 1;
                            continue;
                        }
                        let ids: Vec<VarId> = (0..1 + xorshift(&mut rng) % 4)
                            .map(|_| VarId(xorshift(&mut rng) as u32 % n_claims))
                            .collect();
                        // Pin the cursor to the snapshot this thread
                        // tracks (handle.cursor() would take its own,
                        // possibly newer, snapshot).
                        let mut cursor = serve::ClaimCursor::new(&opened, ids.clone());
                        // `expected` tracks what the cursor may serve, in
                        // the id space of `compactions`.
                        let mut expected = ids;
                        let mut compactions = opened.compactions;
                        let mut dropped = 0usize;
                        loop {
                            steps += 1;
                            let state = handle.snapshot();
                            let model = model_for(log, &state);
                            match cursor.next(&state) {
                                Err(QueryError::Remapped { synced, current }) => {
                                    assert_eq!(synced, compactions);
                                    assert_eq!(current, state.compactions);
                                    assert!(
                                        current != synced + 1 || model.remap_since(synced).is_err(),
                                        "refused a translatable relocation"
                                    );
                                    break;
                                }
                                Err(e) => panic!("unexpected cursor error: {e}"),
                                Ok(None) => {
                                    // The cursor relocates before it finds
                                    // itself exhausted: a compaction may
                                    // have dropped everything left.
                                    relocate(&state, &model, &mut expected, &mut compactions, &mut dropped);
                                    assert!(expected.is_empty(), "cursor ended early");
                                    assert_eq!(cursor.dropped(), dropped);
                                    break;
                                }
                                Ok(Some(step)) => {
                                    relocate(&state, &model, &mut expected, &mut compactions, &mut dropped);
                                    assert!(
                                        !expected.is_empty(),
                                        "cursor served {:?} with nothing left to serve",
                                        step.answer.claim
                                    );
                                    assert_eq!(
                                        step.answer.claim, expected[0],
                                        "cursor wrong-claimed data"
                                    );
                                    assert_eq!(step.at.compactions, compactions);
                                    assert_eq!(cursor.dropped(), dropped);
                                    expected.remove(0);
                                }
                            }
                        }
                    }
                });
            }

            // The single writer: run the script, logging each published
            // state next to the model it was derived from (cadence 1
            // publication per ingest).
            let mut rng = seed.wrapping_add(1);
            for _ in 0..n_ops {
                random_ingest(&mut srv, &mut rng);
                let model = srv.backend().checker().model().clone();
                log.lock().unwrap().push((srv.published(), model));
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Offline pass: every recorded answer, bit-identical to the state
        // its tag names. Offline tables are recomputed from scratch once
        // per logged state.
        let log: Vec<(Arc<Published>, Offline)> = log
            .lock()
            .unwrap()
            .iter()
            .map(|(p, model)| (p.clone(), offline(p, model)))
            .collect();
        let mut total = 0usize;
        for local in recordings.lock().unwrap().iter() {
            for rec in local {
                verify(rec, &log);
                total += 1;
            }
        }
        assert!(total > 0, "readers recorded nothing");
        // The script actually exercised the hard part.
        assert!(
            log.last().unwrap().0.compactions > 0,
            "script never compacted — retention config regressed"
        );
    }
}

/// Random batch of claim ids against the current published width, with a
/// deliberate chance of out-of-range and duplicate ids.
fn srv_batch_ids(rng: &mut u64, handle: &serve::QueryHandle) -> Vec<VarId> {
    let width = handle.snapshot().probs.len() as u64 + 3;
    (0..1 + xorshift(rng) % 8)
        .map(|_| VarId((xorshift(rng) % width.max(1)) as u32))
        .collect()
}
