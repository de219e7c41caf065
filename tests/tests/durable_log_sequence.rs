//! The write-ahead log of a durable checker, read back record by record.
//!
//! Every edit that moves the lineage is one log record, in commit order:
//! an arrival's grow (tagged as the arrival), then its retention sweep's
//! retire set, then the sweep's compact marker. Edits that move nothing —
//! a sweep with nothing to retire, a compaction with nothing dead, a
//! rejected stale delta — leave no record, so `lsn − revision` is the same
//! for every record of a lineage.

use crf::{CrfModel, ModelDelta, ModelEdit, ModelError, Stance};
use durability::{EditLog, LogRecord, MemFs, Storage, SyncPolicy};
use std::sync::Arc;
use streamcheck::{
    DurabilityConfig, DurableChecker, DurableError, OnlineEmConfig, RetentionPolicy,
    StreamingChecker,
};

/// The k-th synthetic arrival: a fresh claim with one document from a
/// fresh source, so a retiring sweep retires one claim and one source.
fn arrival_delta(s: &StreamingChecker, k: usize) -> ModelDelta {
    let mut delta = s.delta();
    let src = delta.add_source(&[0.1 + (k % 7) as f64 * 0.1]).unwrap();
    let c = delta.add_claim();
    let d = delta.add_document(&[0.2 + (k % 5) as f64 * 0.1]).unwrap();
    delta.add_clique(c, d, src, Stance::Support);
    delta
}

fn seed() -> CrfModel {
    let mut b = ModelDelta::new(1, 1);
    let s = b.add_source(&[0.8]).unwrap();
    let c = b.add_claim();
    let d = b.add_document(&[0.6]).unwrap();
    b.add_clique(c, d, s, Stance::Support);
    CrfModel::build(b).unwrap()
}

/// One letter per record: `A` an arrival's grow, `R` a retire set, `C` a
/// compact marker (`g` would be a grow not tagged as an arrival).
fn letter(record: &LogRecord) -> char {
    match (&record.edit, record.arrival) {
        (ModelEdit::Grow(_), true) => 'A',
        (ModelEdit::Grow(_), false) => 'g',
        (ModelEdit::Retire(_), false) => 'R',
        (ModelEdit::Compact { .. }, false) => 'C',
        (_, true) => panic!("record {} tags a non-grow as an arrival", record.lsn),
    }
}

/// Run `n` arrivals under `policy` with checkpoints off (the whole run
/// stays in one log), submitting a stale delta right after arrival
/// `stale_at`. Returns the records the log holds and the letters the
/// arrivals' own statistics predict.
fn logged_run(policy: RetentionPolicy, n: usize, stale_at: usize) -> (Vec<LogRecord>, String) {
    let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::PerRecord,
        checkpoint_every: None,
        checkpoint_on_compact: false,
        full_every: 1,
    };
    let mut durable = DurableChecker::create(
        storage.clone(),
        seed(),
        OnlineEmConfig::default(),
        policy,
        config,
    )
    .unwrap();
    let mut predicted = String::new();
    for k in 0..n {
        let stale = (k == stale_at).then(|| arrival_delta(durable.checker(), 1000));
        let delta = arrival_delta(durable.checker(), k);
        let stats = durable.arrive_new(delta).unwrap();
        predicted.push('A');
        if stats.retired_claims > 0 {
            predicted.push('R');
        }
        if stats.compacted {
            predicted.push('C');
        }
        if let Some(stale) = stale {
            let next = durable.next_lsn();
            assert!(matches!(
                durable.arrive_new(stale),
                Err(DurableError::Model(ModelError::StaleDelta { .. }))
            ));
            assert_eq!(durable.next_lsn(), next, "a rejected delta logs nothing");
        }
    }
    drop(durable);
    let (_, records) = EditLog::open(storage, SyncPolicy::PerRecord)
        .unwrap()
        .expect("the run's log");
    (records, predicted)
}

/// Check the records against the prediction and the literal sequence,
/// with consecutive LSNs from 1 and a constant `lsn − revision`.
fn assert_sequence(records: &[LogRecord], predicted: &str, want: &str) {
    let letters: String = records.iter().map(letter).collect();
    assert_eq!(letters, predicted, "log disagrees with the arrivals' stats");
    assert_eq!(letters, want, "log sequence moved");
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.lsn, i as u64 + 1, "LSNs are consecutive from 1");
        let (_, base) = record.edit.base_revision();
        // The record produced revision `base + 1`; the lineage starts at
        // revision 0 with LSN 1, so every record has lsn − revision = 0.
        assert_eq!(
            record.lsn as i64 - (base.0 as i64 + 1),
            0,
            "record {} breaks LSN ↔ revision",
            record.lsn
        );
    }
}

#[test]
fn log_holds_one_record_per_committed_edit() {
    // A retiring window that compacts once half the model is dead: some
    // sweeps retire only, some retire and compact.
    let (records, predicted) = logged_run(
        RetentionPolicy {
            window: Some(3),
            compact_threshold: 0.5,
        },
        10,
        4,
    );
    assert_sequence(&records, &predicted, "AAAARARARARCARARAR");

    // A zero threshold compacts on every sweep, also with nothing dead:
    // those identity compactions move no revision and log nothing.
    let (records, predicted) = logged_run(
        RetentionPolicy {
            window: Some(2),
            compact_threshold: 0.0,
        },
        6,
        0,
    );
    assert_sequence(&records, &predicted, "AAARCARCARCARC");
}
