//! Crash-recovery contract of the durability layer, end to end.
//!
//! The harness runs a windowed streaming lifecycle (arrivals, retention,
//! compaction) on a [`FaultFs`] whose byte budget kills the write path at
//! an exact offset — mid-record, at a record boundary, inside a
//! checkpoint's temp write, or between the temp write and its rename —
//! then recovers from the surviving bytes and continues the stream. The
//! invariant, checked at every sampled fault point under both crash
//! models:
//!
//! 1. recovery lands at *some* per-arrival state of the uninterrupted
//!    reference run (never between arrivals, never a torn hybrid), and
//! 2. continuing the stream from there is **bit-identical** to the run
//!    that never crashed — model arrays, probabilities, online weights.
//!
//! The factdb section drives the same machinery from a growing
//! [`FactDatabase`]: incremental [`SyncMap`] syncs feed a durable
//! checker, the client's own sync position is made crash-safe with an
//! intention log, and the `ModelError::Remapped` refusal paths (unmapped
//! sync of a compacted lineage, a map two compactions stale) are pinned.

use std::sync::{Arc, OnceLock};

use crf::{CrfModel, ModelDelta, ModelError, Stance};
use durability::{FaultFs, MemFs, Storage, SyncPolicy};
use factdb::{ClaimRecord, DocumentRecord, FactDatabase, SourceKind, SourceRecord, SyncMap};
use streamcheck::{
    DurabilityConfig, DurableChecker, DurableError, OnlineEmConfig, RetentionPolicy,
    StreamingChecker,
};

// ------------------------------------------------------------ fixtures

/// Arrivals per lifecycle; the window policy below retires and compacts
/// several times within this many, so the log carries all edit kinds.
const TOTAL: usize = 8;

/// One seed model, serialised: deserialising per run keeps the
/// `model_id`, so every trial and the reference share one exact lineage.
fn seed_json() -> String {
    let mut b = ModelDelta::new(1, 1);
    let s = b.add_source(&[0.8]).unwrap();
    let c = b.add_claim();
    let d = b.add_document(&[0.6]).unwrap();
    b.add_clique(c, d, s, Stance::Support);
    serde_json::to_string(&CrfModel::build(b).unwrap()).unwrap()
}

fn seed(json: &str) -> CrfModel {
    serde_json::from_str(json).unwrap()
}

/// The k-th synthetic arrival: a fresh claim with one document from a
/// fresh source, deterministic in `k` — recovery at arrival `k` can
/// regenerate the exact remainder of the stream.
fn arrival_delta(s: &StreamingChecker, k: usize) -> ModelDelta {
    let mut delta = s.delta();
    let src = delta.add_source(&[0.1 + (k % 7) as f64 * 0.1]).unwrap();
    let c = delta.add_claim();
    let d = delta.add_document(&[0.2 + (k % 5) as f64 * 0.1]).unwrap();
    delta.add_clique(c, d, src, Stance::Support);
    delta
}

/// A window small enough to retire within [`TOTAL`] arrivals and a
/// threshold low enough to compact more than once.
fn policy() -> RetentionPolicy {
    RetentionPolicy {
        window: Some(3),
        compact_threshold: 0.25,
    }
}

/// Everything bit-identity quantifies over: model content, arrival
/// bookkeeping, per-claim probabilities, online weights.
struct Snapshot {
    model: String,
    arrivals: usize,
    visible: Vec<crf::VarId>,
    probs: Vec<u64>,
    weights: Vec<u64>,
}

fn snapshot(c: &StreamingChecker) -> Snapshot {
    Snapshot {
        model: serde_json::to_string(&**c.model()).unwrap(),
        arrivals: c.arrivals(),
        visible: c.visible_claims(),
        probs: c.probs().iter().map(|p| p.to_bits()).collect(),
        weights: c.weights().as_slice().iter().map(|w| w.to_bits()).collect(),
    }
}

fn assert_snapshot_eq(got: &Snapshot, want: &Snapshot, ctx: &str) {
    assert_eq!(got.arrivals, want.arrivals, "{ctx}: arrival count diverged");
    assert_eq!(got.model, want.model, "{ctx}: model content diverged");
    assert_eq!(got.visible, want.visible, "{ctx}: visible set diverged");
    assert_eq!(got.probs, want.probs, "{ctx}: probabilities diverged");
    assert_eq!(got.weights, want.weights, "{ctx}: online weights diverged");
}

/// The uninterrupted reference: `refs[k]` is the exact state after `k`
/// arrivals. A recovered checker must match one of these and nothing
/// else.
fn reference(json: &str) -> Vec<Snapshot> {
    let mut checker = StreamingChecker::try_new(seed(json), OnlineEmConfig::default())
        .unwrap()
        .with_retention(policy());
    let mut refs = vec![snapshot(&checker)];
    for k in 0..TOTAL {
        let delta = arrival_delta(&checker, k);
        checker.arrive_new(delta).unwrap();
        refs.push(snapshot(&checker));
    }
    refs
}

/// Seed + per-arrival reference states, computed once per process.
fn fixture() -> &'static (String, Vec<Snapshot>) {
    static FIXTURE: OnceLock<(String, Vec<Snapshot>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let json = seed_json();
        let refs = reference(&json);
        (json, refs)
    })
}

/// Total bytes the full lifecycle writes under `config` — the sweep range
/// for crash-at-every-point placement.
fn workload_bytes(json: &str, config: &DurabilityConfig) -> u64 {
    const GENEROUS: u64 = 1 << 30;
    let fault = Arc::new(FaultFs::new(MemFs::new(), GENEROUS));
    let storage: Arc<dyn Storage> = fault.clone();
    let mut durable = DurableChecker::create(
        storage,
        seed(json),
        OnlineEmConfig::default(),
        policy(),
        config.clone(),
    )
    .unwrap();
    for k in 0..TOTAL {
        let delta = arrival_delta(durable.checker(), k);
        durable.arrive_new(delta).unwrap();
    }
    GENEROUS - fault.remaining().expect("generous budget never fires")
}

// ---------------------------------------------------------- the harness

/// One crash trial: run the lifecycle until the byte budget kills a
/// write, recover from what survived under the given crash model, and
/// check both clauses of the invariant.
fn run_trial(budget: u64, keep_unsynced: bool, config: &DurabilityConfig) {
    let (json, refs) = fixture();
    let ctx = format!("budget {budget}, keep_unsynced {keep_unsynced}");
    let fault = Arc::new(FaultFs::new(MemFs::new(), budget));
    let storage: Arc<dyn Storage> = fault.clone();

    let mut created = false;
    let mut crashed = false;
    match DurableChecker::create(
        storage,
        seed(json),
        OnlineEmConfig::default(),
        policy(),
        config.clone(),
    ) {
        Ok(mut durable) => {
            created = true;
            for k in 0..TOTAL {
                let delta = arrival_delta(durable.checker(), k);
                if durable.arrive_new(delta).is_err() {
                    crashed = true;
                    break;
                }
            }
            if !crashed {
                // Budget covered the whole run: the logged lifecycle must
                // not have perturbed the stream.
                assert_snapshot_eq(&snapshot(durable.checker()), &refs[TOTAL], &ctx);
                return;
            }
        }
        Err(_) => crashed = true,
    }
    assert!(crashed);

    let survivor: Arc<dyn Storage> = Arc::new(fault.crash(keep_unsynced));
    let mut recovered =
        match DurableChecker::recover(survivor, OnlineEmConfig::default(), config.clone()) {
            Ok(r) => r,
            // Only a crash inside `create`, before checkpoint 0
            // published, may leave nothing to recover.
            Err(DurableError::NoCheckpoint) if !created => return,
            Err(e) => panic!("{ctx}: recovery failed: {e}"),
        };

    // Clause 1: the recovered state is exactly some per-arrival state.
    let k = recovered.checker().arrivals();
    assert!(k <= TOTAL, "{ctx}: recovered past the end of the stream");
    assert_snapshot_eq(&snapshot(recovered.checker()), &refs[k], &ctx);

    // Clause 2: continuing from there is bit-identical to never crashing.
    for j in k..TOTAL {
        let delta = arrival_delta(recovered.checker(), j);
        recovered
            .arrive_new(delta)
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery arrival {j} failed: {e}"));
    }
    assert_snapshot_eq(&snapshot(recovered.checker()), &refs[TOTAL], &ctx);
}

/// Deterministic sweep: byte-granular over the early region (checkpoint 0
/// temp write, its rename, the log anchor, the first torn records), then
/// strided across the rest of the workload, alternating process-kill and
/// power-loss semantics so both crash models cover both regions. Since
/// deletions are charged too ([`durability::storage::FaultFs`]'s remove
/// cost), the stride also lands *between* the removes of a rotation or a
/// checkpoint prune — the mid-GC crash surface.
#[test]
fn crash_at_swept_write_offsets_recovers_bit_identically() {
    let (json, _) = fixture();
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::Batched(4),
        checkpoint_every: Some(3),
        checkpoint_on_compact: true,
        full_every: 1,
    };
    let w = workload_bytes(json, &config);
    let coarse = (w / 150).max(1);
    let mut budget = 0u64;
    let mut trial = 0u64;
    while budget <= w {
        run_trial(budget, trial.is_multiple_of(2), &config);
        trial += 1;
        // Step 7 is coprime to the frame header and rename-token sizes,
        // so the fine region hits mid-header, mid-payload, and
        // mid-rename offsets.
        budget += if budget < 600 { 7 } else { coarse };
    }
    // The exact end of the workload: everything written, nothing torn.
    run_trial(w, true, &config);
    run_trial(w, false, &config);
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    /// Randomised companion to the sweep: random fault offset, random
    /// fsync policy (per-record, batched, or group commit), random
    /// checkpoint cadence and full/increment mix, both crash models. The
    /// invariant is the same; the workload geometry (and so the set of
    /// reachable torn states) varies per case.
    #[test]
    fn prop_random_crash_recovers_bit_identically(
        frac in 0.0f64..1.0,
        batch in 1u64..12,
        every in 1u64..6,
        full_every in 1u64..4,
        coin in 0u64..2,
    ) {
        let (json, _) = fixture();
        let config = DurabilityConfig {
            sync_policy: match batch {
                1 => SyncPolicy::PerRecord,
                2..=8 => SyncPolicy::Batched(batch as u32),
                _ => SyncPolicy::GroupCommit {
                    window_micros: 200,
                    max_batch: batch as u32 - 7,
                },
            },
            checkpoint_every: Some(every),
            checkpoint_on_compact: true,
            full_every,
        };
        let w = workload_bytes(json, &config);
        run_trial((frac * w as f64) as u64, coin == 0, &config);
    }
}

/// The two new commit-pipeline features together, swept: group-commit
/// fsyncs ride a background thread (crashes land mid-window, with an
/// unsynced tail whose length depends on sync timing — clause 1 accepts
/// *any* per-arrival prefix) while checkpoints alternate full and
/// incremental (crashes land between an increment and its rotation, and
/// between the removes of a full checkpoint's GC).
#[test]
fn group_commit_incremental_sweep_recovers_bit_identically() {
    let (json, _) = fixture();
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::GroupCommit {
            window_micros: 400,
            max_batch: 4,
        },
        checkpoint_every: Some(2),
        checkpoint_on_compact: true,
        full_every: 3,
    };
    let w = workload_bytes(json, &config);
    let step = (w / 60).max(3);
    let mut budget = 0u64;
    let mut trial = 0u64;
    while budget <= w {
        run_trial(budget, trial.is_multiple_of(2), &config);
        trial += 1;
        budget += step;
    }
    run_trial(w, true, &config);
}

/// The acknowledgement contract of group commit: after
/// [`DurableChecker::wait_durable`] returns for an arrival's last LSN, a
/// power loss — which drops *every* unsynced byte — loses nothing. The
/// sync window is set far beyond the test's runtime, so only the explicit
/// barrier can have made the records durable.
#[test]
fn group_commit_acknowledgement_closes_the_loss_window() {
    let (json, refs) = fixture();
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::GroupCommit {
            window_micros: 30_000_000,
            max_batch: 1_000_000,
        },
        checkpoint_every: None,
        checkpoint_on_compact: false,
        full_every: 1,
    };
    let mem = MemFs::new();
    let storage: Arc<dyn Storage> = Arc::new(mem.clone());
    let mut durable = DurableChecker::create(
        storage,
        seed(json),
        OnlineEmConfig::default(),
        policy(),
        config.clone(),
    )
    .unwrap();
    for k in 0..TOTAL {
        let delta = arrival_delta(durable.checker(), k);
        durable.arrive_new(delta).unwrap();
        let lsn = durable.next_lsn() - 1;
        durable.wait_durable(lsn).unwrap();
        assert!(
            durable.last_acked_lsn() >= lsn,
            "watermark must cover the acknowledged LSN"
        );
        // Power loss right now: everything acknowledged must be there.
        let survivor: Arc<dyn Storage> = Arc::new(mem.survivor(false));
        let recovered =
            DurableChecker::recover(survivor, OnlineEmConfig::default(), config.clone())
                .unwrap_or_else(|e| panic!("after ack of arrival {k}: {e}"));
        assert_eq!(
            recovered.checker().arrivals(),
            k + 1,
            "acknowledged arrival {k} was lost to power loss"
        );
        assert_snapshot_eq(
            &snapshot(recovered.checker()),
            &refs[k + 1],
            &format!("power loss after ack of arrival {k}"),
        );
    }
}

/// Recovery amid clutter: a store holding a stale full checkpoint, a
/// multi-increment chain with its newest link bit-flipped, a corrupt
/// would-be-newest full, an unlinked increment copied from another chain
/// position, foreign operator files, and a garbage `wal-` name. Recovery
/// must assemble the newest *intact* chain, land on exactly a
/// per-arrival state, report every corrupt file, and continue
/// bit-identically; `verify_store` must see the same chain read-only.
#[test]
fn recovery_amid_clutter_and_corruption_falls_back_to_intact_chain() {
    let (json, refs) = fixture();
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::PerRecord,
        checkpoint_every: Some(2),
        checkpoint_on_compact: false,
        full_every: 5,
    };
    let mem = MemFs::new();
    let storage: Arc<dyn Storage> = Arc::new(mem.clone());
    let mut durable = DurableChecker::create(
        storage,
        seed(json),
        OnlineEmConfig::default(),
        policy(),
        config.clone(),
    )
    .unwrap();
    for k in 0..TOTAL {
        let delta = arrival_delta(durable.checker(), k);
        durable.arrive_new(delta).unwrap();
    }
    drop(durable); // process crash

    let wounded = mem.survivor(true);
    let incs: Vec<String> = wounded
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("inc-"))
        .collect();
    assert!(
        incs.len() >= 3,
        "fixture must have built an increment chain, found {incs:?}"
    );
    // Clutter the store.
    wounded.append("notes.txt", b"operator scribbles").unwrap();
    wounded.append("wal-not-a-number.log", b"junk").unwrap();
    wounded
        .append("ckpt-00000000000000009999.json", b"\x01\x02garbage")
        .unwrap();
    let copied = wounded.read(&incs[1]).unwrap();
    wounded
        .append("inc-00000000000000000777.json", &copied)
        .unwrap();
    // And corrupt the newest real increment.
    wounded.flip_bit(incs.last().unwrap(), 11).unwrap();

    let survivor: Arc<dyn Storage> = Arc::new(wounded);
    let report = streamcheck::verify_store(&survivor).unwrap();
    assert!(
        report.corrupt.len() >= 2,
        "scrub must flag the garbage full and the flipped increment: {:?}",
        report.corrupt
    );
    assert!(report.chain_tip.is_some(), "an intact chain must remain");

    let mut recovered =
        DurableChecker::recover(survivor, OnlineEmConfig::default(), config.clone())
            .expect("clutter must not block recovery");
    assert!(
        recovered.corrupt_checkpoints().len() >= 2,
        "recovery must report what it skipped: {:?}",
        recovered.corrupt_checkpoints()
    );
    let k = recovered.checker().arrivals();
    assert!(0 < k && k < TOTAL, "fallback must cost some arrivals");
    assert_snapshot_eq(&snapshot(recovered.checker()), &refs[k], "clutter recovery");
    for j in k..TOTAL {
        let delta = arrival_delta(recovered.checker(), j);
        recovered.arrive_new(delta).unwrap();
    }
    assert_snapshot_eq(
        &snapshot(recovered.checker()),
        &refs[TOTAL],
        "clutter recovery continuation",
    );
    // The finishing full checkpoint garbage-collected the clutter's
    // checkpoint files (foreign non-checkpoint names are left alone).
    let left = recovered.storage().list().unwrap();
    assert!(
        !left
            .iter()
            .any(|n| n.contains("9999") || n.contains("0777")),
        "stale and corrupt checkpoint files must be pruned: {left:?}"
    );
}

// ------------------------------------------------- factdb sync recovery

/// Batches a growing corpus posts over time; batch `b` adds one source,
/// two claims, and two documents, all deterministic in `b` so a crashed
/// client can rebuild its upstream view exactly.
const BATCHES: usize = 6;

fn push_batch(db: &mut FactDatabase, b: usize) {
    let s = db.add_source(SourceRecord {
        name: format!("src-{b}"),
        kind: SourceKind::Website,
        age: None,
        post_count: 0,
    });
    let c0 = db.add_claim(ClaimRecord {
        text: format!("claim-{b}-a"),
        truth: Some(b.is_multiple_of(2)),
    });
    let c1 = db.add_claim(ClaimRecord {
        text: format!("claim-{b}-b"),
        truth: Some(b.is_multiple_of(3)),
    });
    let second = if b.is_multiple_of(2) {
        Stance::Refute
    } else {
        Stance::Support
    };
    db.add_document(DocumentRecord {
        source: s,
        claims: vec![(c0, Stance::Support), (c1, second)],
        tokens: vec!["the".into(), format!("report-{b}")],
    })
    .unwrap();
    db.add_document(DocumentRecord {
        source: s,
        claims: vec![(c1, Stance::Support)],
        tokens: vec![format!("followup-{b}")],
    })
    .unwrap();
}

/// The corpus after batches `0..n`.
fn build_db(n: usize) -> FactDatabase {
    let mut db = FactDatabase::new();
    for b in 0..n {
        push_batch(&mut db, b);
    }
    db
}

/// Two claims arrive per batch, so this window spans two batches —
/// retirements and compactions fire well within [`BATCHES`].
fn db_policy() -> RetentionPolicy {
    RetentionPolicy {
        window: Some(4),
        compact_threshold: 0.3,
    }
}

fn db_config() -> DurabilityConfig {
    DurabilityConfig {
        sync_policy: SyncPolicy::Batched(4),
        checkpoint_every: Some(2),
        checkpoint_on_compact: true,
        full_every: 2,
    }
}

/// Name of the client's intention record, stored next to the checker's
/// own files (the log and checkpoint layers ignore foreign names).
const INTENT: &str = "client-intent.json";

/// Seed model JSON (shared lineage), the uninterrupted reference's final
/// state, and the workload's write volume.
fn factdb_fixture() -> &'static (String, Snapshot, u64) {
    static FIXTURE: OnceLock<(String, Snapshot, u64)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let model_json = serde_json::to_string(&build_db(1).to_crf_model().unwrap()).unwrap();

        // Uninterrupted reference: incremental mapped syncs, no durability.
        let mut db = build_db(1);
        let model: CrfModel = seed(&model_json);
        let mut map = SyncMap::for_built_model(&db, &model).unwrap();
        let mut checker = StreamingChecker::try_new(model, OnlineEmConfig::default())
            .unwrap()
            .with_retention(db_policy());
        for b in 1..BATCHES {
            push_batch(&mut db, b);
            let (delta, next) = db.sync_delta_mapped(checker.model(), &map).unwrap();
            checker.arrive_new(delta).unwrap();
            map = next;
        }
        let reference = snapshot(&checker);

        // Write volume of the fault-injected equivalent.
        const GENEROUS: u64 = 1 << 30;
        let fault = Arc::new(FaultFs::new(MemFs::new(), GENEROUS));
        factdb_trial_run(&model_json, fault.clone(), &reference, true);
        let w = GENEROUS - fault.remaining().expect("generous budget never fires");
        (model_json, reference, w)
    })
}

/// Drive the full factdb lifecycle on `fault`; when `expect_complete`,
/// assert it finishes and matches the reference (the measurement run).
/// Returns whether the run crashed before completing.
fn factdb_trial_run(
    model_json: &str,
    fault: Arc<FaultFs>,
    reference: &Snapshot,
    expect_complete: bool,
) -> (bool, bool) {
    let storage: Arc<dyn Storage> = fault.clone();
    let mut db = build_db(1);
    let model: CrfModel = seed(model_json);
    let map0 = SyncMap::for_built_model(&db, &model).unwrap();
    match DurableChecker::create(
        storage.clone(),
        model,
        OnlineEmConfig::default(),
        db_policy(),
        db_config(),
    ) {
        Ok(mut durable) => {
            let mut map = map0;
            for b in 1..BATCHES {
                push_batch(&mut db, b);
                let (delta, next) = db
                    .sync_delta_mapped(durable.checker().model(), &map)
                    .expect("live map always catches up");
                // Intention log: publish (position, successor map, delta)
                // atomically *before* applying, so a crash on either side
                // of the arrival leaves an actionable record.
                let intent =
                    serde_json::to_string(&(b as u64, next.clone(), delta.clone())).unwrap();
                if storage.write_atomic(INTENT, intent.as_bytes()).is_err() {
                    return (true, true);
                }
                if durable.arrive_new(delta).is_err() {
                    return (true, true);
                }
                map = next;
            }
            assert_snapshot_eq(
                &snapshot(durable.checker()),
                reference,
                "uninterrupted factdb lifecycle",
            );
            assert!(!expect_complete || !fault.crashed());
            (false, true)
        }
        Err(_) => {
            assert!(!expect_complete, "measurement run must not crash");
            (true, false)
        }
    }
}

/// One factdb crash trial under process-kill semantics (the intention
/// log reasons about *applied-or-not*, which a power loss of unsynced
/// client state would turn into a third case): crash at `budget`,
/// recover the checker, settle the in-flight intent — apply it if the
/// arrival never landed, accept [`ModelError::StaleDelta`] if the WAL
/// already replayed it — then resume batching to the end and demand the
/// reference's final state, bit for bit.
fn factdb_trial(budget: u64) {
    let (model_json, reference, _) = factdb_fixture();
    let ctx = format!("factdb budget {budget}");
    let fault = Arc::new(FaultFs::new(MemFs::new(), budget));
    let (crashed, created) = factdb_trial_run(model_json, fault.clone(), reference, false);
    if !crashed {
        return;
    }

    let survivor: Arc<dyn Storage> = Arc::new(fault.crash(true));
    let mut recovered =
        match DurableChecker::recover(survivor.clone(), OnlineEmConfig::default(), db_config()) {
            Ok(r) => r,
            Err(DurableError::NoCheckpoint) if !created => return,
            Err(e) => panic!("{ctx}: recovery failed: {e}"),
        };

    // Settle the intention record. Its absence means the crash predates
    // the first intent, so the client restarts from the built model.
    let (next_batch, mut map) = match survivor.read(INTENT) {
        Ok(bytes) => {
            let text = String::from_utf8(bytes).unwrap();
            let (b, next, delta): (u64, SyncMap, ModelDelta) = serde_json::from_str(&text).unwrap();
            match recovered.arrive_new(delta) {
                Ok(_) => {} // the arrival died with the process: apply it now
                Err(DurableError::Model(ModelError::StaleDelta { .. })) => {
                    // Already durable in the WAL and replayed by recovery.
                }
                Err(e) => panic!("{ctx}: intent replay failed: {e}"),
            }
            (b as usize + 1, next)
        }
        Err(_) => {
            let db = build_db(1);
            let map = SyncMap::for_built_model(&db, recovered.checker().model()).unwrap();
            (1, map)
        }
    };

    // Rebuild the upstream view to the intent point and finish the run.
    let mut db = build_db(next_batch);
    for b in next_batch..BATCHES {
        push_batch(&mut db, b);
        let (delta, next) = db
            .sync_delta_mapped(recovered.checker().model(), &map)
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery sync {b} failed: {e}"));
        let intent = serde_json::to_string(&(b as u64, next.clone(), delta.clone())).unwrap();
        survivor.write_atomic(INTENT, intent.as_bytes()).unwrap();
        recovered
            .arrive_new(delta)
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery arrival {b} failed: {e}"));
        map = next;
    }
    assert_snapshot_eq(&snapshot(recovered.checker()), reference, &ctx);
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(16))]

    /// Fault-injected factdb sync: wherever the crash lands — mid-intent,
    /// mid-record, mid-checkpoint — the intention-log protocol resumes
    /// the incremental sync exactly once per batch and converges on the
    /// uninterrupted run.
    #[test]
    fn prop_factdb_sync_survives_random_crash(frac in 0.0f64..1.0) {
        let (_, _, w) = factdb_fixture();
        factdb_trial((frac * *w as f64) as u64);
    }
}

/// A handful of pinned offsets on top of the random ones: the very start
/// (nothing durable), just past checkpoint 0, and just short of the end
/// (the last batch's intent or arrival torn).
#[test]
fn factdb_sync_survives_pinned_crash_offsets() {
    let (_, _, w) = factdb_fixture();
    for budget in [
        0,
        64,
        1024,
        w / 2,
        w.saturating_sub(200),
        w.saturating_sub(3),
    ] {
        factdb_trial(budget);
    }
}

/// The refusal path of a remapped lineage: a [`SyncMap`] two or more
/// compactions stale must refuse with [`ModelError::Remapped`] (only the
/// latest remap is retained); the live map keeps syncing.
#[test]
fn remapped_lineage_refuses_unmapped_and_stale_sync() {
    let mut db = build_db(1);
    let model = db.to_crf_model().unwrap();
    let stale_map = SyncMap::for_built_model(&db, &model).unwrap();
    let mut map = stale_map.clone();
    let mut checker = StreamingChecker::try_new(model, OnlineEmConfig::default())
        .unwrap()
        .with_retention(db_policy());
    let mut b = 1;
    while checker.model().compactions() < 2 && b < 40 {
        push_batch(&mut db, b);
        let (delta, next) = db.sync_delta_mapped(checker.model(), &map).unwrap();
        checker.arrive_new(delta).unwrap();
        map = next;
        b += 1;
    }
    assert!(
        checker.model().compactions() >= 2,
        "policy must compact at least twice to exercise staleness"
    );
    push_batch(&mut db, b);
    assert!(matches!(
        db.sync_delta_mapped(checker.model(), &stale_map),
        Err(ModelError::Remapped { .. })
    ));
    db.sync_delta_mapped(checker.model(), &map)
        .expect("the current map must keep syncing across compactions");
}
