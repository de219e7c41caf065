//! Loom model checking for the group-commit sync thread's
//! ack-watermark / terminal-failure handshake.
//!
//! Compiled (and run) only under `RUSTFLAGS="--cfg loom"`; the WAL's
//! `Mutex`/`Condvar`/`thread`/`Instant` then come from the `loom` shim, so
//! the sync thread and the appender are serialised by the model scheduler
//! and every lock handoff, condvar wake, and window-timeout firing is an
//! explored branch. Three protocol properties are checked on **every**
//! schedule:
//!
//! 1. the acknowledged-LSN watermark never runs ahead of what a power
//!    cut would actually preserve (no phantom durability);
//! 2. the `wait_durable` barrier really blocks until the fsync happened,
//!    and the drop handshake never hangs (a stuck handshake deadlocks the
//!    model and fails with the schedule);
//! 3. an fsync failure is terminal: every later barrier reports the dead
//!    sync thread instead of hanging or claiming durability.

#![cfg(loom)]

use durability::storage::{FaultFs, MemFs};
use durability::wal::{EditLog, SyncPolicy};
use std::sync::Arc;

const GROUP: SyncPolicy = SyncPolicy::GroupCommit {
    window_micros: 50,
    max_batch: 8,
};

fn edits(n: usize) -> Vec<crf::ModelEdit> {
    let mut b = crf::ModelDelta::new(1, 1);
    let s = b.add_source(&[0.5]).unwrap();
    let c = b.add_claim();
    let d = b.add_document(&[0.5]).unwrap();
    b.add_clique(c, d, s, crf::Stance::Support);
    let mut model = crf::CrfModel::build(b).unwrap();
    (0..n)
        .map(|_| {
            let mut delta = crf::ModelDelta::for_model(&model);
            let c = delta.add_claim();
            let d = delta.add_document(&[0.3]).unwrap();
            delta.add_clique(c, d, 0, crf::Stance::Refute);
            model.apply(delta.clone()).unwrap();
            crf::ModelEdit::Grow(delta)
        })
        .collect()
}

/// Records recoverable from a power-loss survivor of `fs` (only fsynced
/// bytes survive; the torn tail is trimmed by recovery).
fn durable_records(fs: &MemFs) -> u64 {
    match EditLog::open(Arc::new(fs.survivor(false)), SyncPolicy::OsBuffered).unwrap() {
        Some((_, records)) => records.len() as u64,
        None => 0,
    }
}

/// The watermark publishes only truly durable records, and the
/// `wait_durable` barrier delivers them all; the drop handshake joins the
/// sync thread without hanging under any interleaving of appender, sync
/// thread, window timeout, and shutdown.
#[test]
fn watermark_is_honest_and_barrier_delivers() {
    loom::model(|| {
        let all = edits(2);
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, GROUP).unwrap();
        log.append(true, &all[0]).unwrap();
        log.append(true, &all[1]).unwrap();

        // No phantom durability: whatever the watermark acknowledges at
        // this point must already be on the power-cut survivor.
        let acked = log.last_acked_lsn();
        if acked > 0 {
            assert!(
                durable_records(&fs) >= acked + 1,
                "watermark acked lsn {acked} but fewer records are durable"
            );
        }

        // The barrier: after it, both records survive a power cut.
        log.wait_durable(1).unwrap();
        assert_eq!(log.last_acked_lsn(), 1);
        assert_eq!(durable_records(&fs), 2, "barrier must have fsynced both");

        // Drop is the shutdown handshake; a hang would deadlock the model.
        drop(log);
    });
}

/// An fsync failure kills the sync thread *terminally*: the barrier that
/// observes it errors, and so does every later one — no schedule lets a
/// barrier hang on the dead thread or report success without durability.
#[test]
fn sync_failure_is_terminal_under_every_schedule() {
    // Budget measured outside the model (storage ops cost the same under
    // loom): exactly record 1 plus a few header bytes, so record 2 tears.
    let probe = MemFs::new();
    {
        let mut plog = EditLog::create(Arc::new(probe.clone()), 0, SyncPolicy::OsBuffered).unwrap();
        plog.append(true, &edits(1)[0]).unwrap();
    }
    let one_record = probe.total_bytes() as u64;

    loom::model(move || {
        let all = edits(2);
        let fault = Arc::new(FaultFs::new(MemFs::new(), one_record + 4));
        let mut log = EditLog::create(fault.clone(), 0, GROUP).unwrap();
        log.append(true, &all[0]).unwrap();
        // The second append tears on the exhausted budget and fails
        // inline (the write itself errors before the group handoff).
        assert!(log.append(true, &all[1]).is_err(), "second record tears");
        // Every fsync now fails, so the barrier must surface the dead
        // sync thread — under every interleaving of the failure and the
        // wait — and keep surfacing it.
        assert!(log.wait_durable(0).is_err(), "barrier reports the failure");
        assert!(log.wait_durable(0).is_err(), "and keeps reporting it");
        drop(log);
    });
}
