//! Loom model checking for the [`ModelHandle`] pin/apply protocol.
//!
//! Compiled (and run) only under `RUSTFLAGS="--cfg loom"`; the handle's
//! internal `RwLock` then comes from the `loom` shim, so every lock
//! acquisition is a scheduling decision and the explorer visits every
//! interleaving of the threads below. The invariants asserted here are the
//! same ones `prop_concurrent_pins_and_edits_never_tear` samples
//! stochastically — under loom they hold on *every* schedule or the test
//! fails with the schedule that broke them.
#![cfg(loom)]

use crf::{CrfModel, ModelDelta, ModelError, ModelHandle, Revision, Stance};
use loom::thread;

fn base_handle() -> ModelHandle {
    let mut b = ModelDelta::new(1, 1);
    let s = b.add_source(&[0.5]).unwrap();
    let c = b.add_claim();
    let d = b.add_document(&[0.5]).unwrap();
    b.add_clique(c, d, s, Stance::Support);
    CrfModel::build(b).unwrap().into()
}

fn grow_delta(h: &ModelHandle) -> ModelDelta {
    let mut d = h.delta();
    let c = d.add_claim();
    let doc = d.add_document(&[0.3]).unwrap();
    d.add_clique(c, doc, 0, Stance::Refute);
    d
}

/// Two writers race deltas prepared against the same revision while the
/// root holds a pinned snapshot: under every schedule exactly one writer
/// wins, the loser gets [`ModelError::StaleDelta`], and the pinned
/// snapshot keeps its pre-race content.
#[test]
fn racing_writers_one_winner_pinned_snapshot_untouched() {
    loom::model(|| {
        let h = base_handle();
        let start_rev = h.revision();
        let pinned = h.snapshot();
        let pinned_claims = pinned.n_claims();

        // Both deltas are prepared against `start_rev` *before* either
        // writer runs — the race is between two same-base commits.
        let deltas: Vec<ModelDelta> = (0..2).map(|_| grow_delta(&h)).collect();
        let writers: Vec<_> = deltas
            .into_iter()
            .map(|d| {
                let h = h.clone();
                thread::spawn(move || h.apply(d))
            })
            .collect();
        let results: Vec<Result<Revision, ModelError>> =
            writers.into_iter().map(|t| t.join().unwrap()).collect();

        let winners = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(winners, 1, "exactly one racer must win: {results:?}");
        for r in &results {
            if let Err(e) = r {
                assert!(
                    matches!(e, ModelError::StaleDelta { .. }),
                    "loser failed with {e:?}, not StaleDelta"
                );
            }
        }
        assert_eq!(h.revision(), Revision(start_rev.0 + 1));
        assert_eq!(pinned.revision(), start_rev, "pin must not move");
        assert_eq!(pinned.n_claims(), pinned_claims, "pin must not grow");
        assert_eq!(h.snapshot().n_claims(), pinned_claims + 1);
    });
}

/// A reader racing one writer sees either the pre- or the post-apply
/// model, never a torn intermediate: snapshot revision and claim count
/// always move together.
#[test]
fn reader_never_observes_a_torn_snapshot() {
    loom::model(|| {
        let h = base_handle();
        let base_claims = h.snapshot().n_claims();
        let w = {
            let h = h.clone();
            let d = grow_delta(&h);
            thread::spawn(move || h.apply(d).unwrap())
        };
        let snap = h.snapshot();
        if snap.revision() == Revision(0) {
            assert_eq!(snap.n_claims(), base_claims);
        } else {
            assert_eq!(snap.revision(), Revision(1));
            assert_eq!(snap.n_claims(), base_claims + 1);
        }
        w.join().unwrap();
    });
}
