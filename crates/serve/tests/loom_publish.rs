//! Loom model checking for the [`serve::PublishCell`] epoch/slot-ring
//! protocol.
//!
//! Compiled (and run) only under `RUSTFLAGS="--cfg loom"`; the cell's slot
//! locks then come from the `loom` shim, so every lock acquisition is a
//! scheduling decision and the explorer visits every interleaving of the
//! threads below. The invariants asserted here are the same ones
//! `loads_are_monotonic_under_a_concurrent_writer` samples stochastically
//! — under loom they hold on *every* schedule or the test fails with the
//! schedule that broke them:
//!
//! * a reader never observes a torn [`serve::Published`] pair — every
//!   table it loads belongs to exactly the revision the staleness tag
//!   names;
//! * repeated loads are monotonic — a reader can observe publications
//!   only forward, never backward;
//! * the writer never blocks on readers — publications complete (and the
//!   ring wraps) while a reader still pins an `Arc` from an old epoch,
//!   and the pinned state keeps its pre-wrap content.
#![cfg(loom)]

use crf::graph::Revision;
use loom::thread;
use serve::{PublishCell, Published};
use std::sync::Arc;

/// A published state whose `revision` and `arrivals` must travel as a
/// couple: any interleaving that shows `arrivals != revision` tore a pair.
fn published(rev: u64) -> Arc<Published> {
    Arc::new(Published {
        claim_liveness: vec![true],
        source_liveness: vec![true],
        model_id: 1,
        remap: None,
        probs: vec![rev as f64],
        trust: vec![rev as f64],
        revision: Revision(rev),
        compactions: 0,
        arrivals: rev as usize,
    })
}

/// Whole-couple check: every field derived at publication names `rev`.
fn assert_coupled(p: &Published) {
    let rev = p.revision.0;
    assert_eq!(p.arrivals as u64, rev, "arrivals from a different state");
    assert_eq!(p.probs[0], rev as f64, "probs from a different state");
    assert_eq!(p.trust[0], rev as f64, "trust from a different state");
}

/// One writer publishing two states while a reader loads twice: under
/// every schedule each load returns a complete, internally-coupled state,
/// and the second load never observes an older epoch than the first.
#[test]
fn reader_never_observes_a_torn_or_backward_pair() {
    loom::model(|| {
        let cell = Arc::new(PublishCell::new(published(0)));
        let writer = {
            let cell = cell.clone();
            thread::spawn(move || {
                cell.publish(published(1));
                cell.publish(published(2));
            })
        };
        let first = cell.load();
        assert_coupled(&first);
        let second = cell.load();
        assert_coupled(&second);
        assert!(
            second.revision.0 >= first.revision.0,
            "loads went backward: {} after {}",
            second.revision.0,
            first.revision.0
        );
        writer.join().unwrap();
        assert_eq!(cell.load().revision, Revision(2));
    });
}

/// Two concurrent readers against one writer: each reader's own loads are
/// internally coupled and monotonic, independent of how the other reader
/// is scheduled.
#[test]
fn independent_readers_each_stay_monotonic() {
    loom::model(|| {
        let cell = Arc::new(PublishCell::new(published(0)));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    let a = cell.load();
                    assert_coupled(&a);
                    let b = cell.load();
                    assert_coupled(&b);
                    assert!(b.revision.0 >= a.revision.0);
                })
            })
            .collect();
        cell.publish(published(1));
        for r in readers {
            r.join().unwrap();
        }
    });
}

/// The no-block guarantee: a reader pins an `Arc` out of epoch 0 and then
/// *stops participating* — it holds no lock, only the `Arc` — while the
/// writer wraps the entire slot ring past the pinned epoch. If the writer
/// could block on the pinned reader, this model would deadlock; instead
/// every publication completes and the pinned state keeps its pre-wrap
/// content.
#[test]
fn writer_wraps_the_ring_past_a_pinned_reader() {
    loom::model(|| {
        let cell = Arc::new(PublishCell::new(published(0)));
        let pinned = cell.load();
        let writer = {
            let cell = cell.clone();
            thread::spawn(move || {
                // One more publication than the ring has slots: the
                // writer reuses the slot the pinned state came from.
                for rev in 1..=5u64 {
                    cell.publish(published(rev));
                }
            })
        };
        let seen = cell.load();
        assert_coupled(&seen);
        writer.join().unwrap();
        assert_coupled(&pinned);
        assert_eq!(pinned.revision, Revision(0), "pin must not move");
        assert_eq!(cell.load().revision, Revision(5));
        assert_eq!(cell.epoch(), 5);
    });
}
