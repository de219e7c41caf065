//! Lock-free snapshot publication: the epoch/slot-ring `Published` cell.
//!
//! The serving layer's reader/writer contract is **never block the writer,
//! never tear the readers**. Both follow from two decisions:
//!
//! * A published state is **one** immutable [`Published`] value behind one
//!   `Arc`: the model snapshot and every table derived from it (marginals,
//!   trust) travel together, so a reader can no more see a
//!   `(model, probs)` pair from different revisions than it can see half a
//!   pointer.
//! * Publication swaps an `Arc`, not data. The cell keeps a small ring of
//!   slots plus an epoch counter: the writer installs the next state into
//!   slot `(epoch + 1) % N` — a slot no reader is directed at — and only
//!   then advances the epoch with a release store. Readers acquire-load
//!   the epoch and clone the `Arc` out of the slot it names. The writer
//!   contends with a reader only if that reader still holds a read guard
//!   from `N - 1` epochs ago — and guards are held exactly for the
//!   duration of one `Arc` clone, so the ingest path never waits on query
//!   traffic in steady state.
//!
//! Readers are monotonic: an acquire-load of epoch `e` finds slot `e % N`
//! holding the state of epoch `e` or newer (the writer only ever
//! overwrites the *oldest* slot), so a reader can observe publications out
//! of order only forward, never backward.
//!
//! The cell supports **one** writer; [`crate::server::TruthServer`]
//! enforces that structurally (publication requires `&mut self`).

use crf::graph::Revision;
use crf::CrfModel;
#[cfg(loom)]
use loom::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(not(loom))]
use std::sync::RwLock;

/// One immutable published serving state: a pinned model snapshot plus
/// every query-side table derived from exactly that snapshot. Readers
/// receive the whole value behind one `Arc`, so the pairing is atomic by
/// construction.
#[derive(Debug)]
pub struct Published {
    /// The pinned model snapshot all tables below are derived from.
    pub model: Arc<CrfModel>,
    /// Per-claim credibility estimates (0.5 for claims not yet arrived),
    /// exactly the ingest checker's state at publication.
    pub probs: Vec<f64>,
    /// Per-source trust under `probs` — bit-identical to
    /// `crf::em::source_trust_from_probs(&model, &probs)`.
    pub trust: Vec<f64>,
    /// The revision of `model` — the staleness tag's identity.
    pub revision: Revision,
    /// Compaction count of `model`; cursors compare it to relocate.
    pub compactions: u64,
    /// Arrivals the ingest checker had processed at publication; together
    /// with `revision` this is the staleness bound a reader observes.
    pub arrivals: usize,
}

impl Published {
    /// Whether `claim` is in range and live in this state.
    pub fn claim_live(&self, claim: usize) -> bool {
        claim < self.model.n_claims() && self.model.claim_live(claim)
    }
}

/// Slots in the ring. The writer blocks only on a reader still holding a
/// read guard taken `SLOTS - 1` publications ago.
const SLOTS: usize = 4;

/// The publication point: a single-writer, many-reader cell holding the
/// current [`Published`] state. See the module docs for the protocol.
pub struct PublishCell {
    /// Monotonic publication counter; names the live slot.
    epoch: AtomicU64,
    /// The slot ring. Only `epoch % SLOTS` is read; only
    /// `(epoch + 1) % SLOTS` is written.
    slots: [RwLock<Arc<Published>>; SLOTS],
}

impl PublishCell {
    /// A cell initially publishing `state` at epoch 0.
    pub fn new(state: Arc<Published>) -> Self {
        PublishCell {
            epoch: AtomicU64::new(0),
            slots: std::array::from_fn(|_| RwLock::new(state.clone())),
        }
    }

    /// The current published state. Wait-free against the writer in steady
    /// state: one atomic load plus one uncontended read lock for the
    /// duration of an `Arc` clone. Monotonic: repeated loads never observe
    /// an older epoch's state.
    pub fn load(&self) -> Arc<Published> {
        let e = self.epoch.load(Ordering::Acquire);
        self.slots[(e % SLOTS as u64) as usize]
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Install `next` as the current state. Single writer only: the caller
    /// must serialise publications ([`crate::server::TruthServer`] does so
    /// by requiring `&mut self`). Writes the spare slot first, then
    /// advances the epoch, so a concurrent [`PublishCell::load`] sees
    /// either the previous state or `next` — never a mixture.
    pub fn publish(&self, next: Arc<Published>) {
        let e = self.epoch.load(Ordering::Relaxed);
        *self.slots[((e + 1) % SLOTS as u64) as usize]
            .write()
            .unwrap_or_else(|p| p.into_inner()) = next;
        self.epoch.store(e + 1, Ordering::Release);
    }

    /// Number of publications so far (0 = only the initial state).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for PublishCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishCell")
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crf::graph::{CrfModel, ModelDelta, Stance};

    fn published(rev: u64, arrivals: usize) -> Arc<Published> {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.5]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.5]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        let model = Arc::new(CrfModel::build(b).unwrap());
        Arc::new(Published {
            probs: vec![0.5],
            trust: vec![0.5],
            revision: Revision(rev),
            compactions: 0,
            arrivals,
            model,
        })
    }

    #[test]
    fn load_returns_latest_publish() {
        let cell = PublishCell::new(published(0, 0));
        assert_eq!(cell.load().revision, Revision(0));
        assert_eq!(cell.epoch(), 0);
        for i in 1..10u64 {
            cell.publish(published(i, i as usize));
            let p = cell.load();
            assert_eq!(p.revision, Revision(i));
            assert_eq!(p.arrivals, i as usize);
            assert_eq!(cell.epoch(), i);
        }
    }

    #[test]
    fn loads_are_monotonic_under_a_concurrent_writer() {
        let cell = Arc::new(PublishCell::new(published(0, 0)));
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let cell = cell.clone();
                    s.spawn(move || {
                        let mut last = 0u64;
                        for _ in 0..500 {
                            let p = cell.load();
                            assert!(p.revision.0 >= last, "reader went backward");
                            assert_eq!(
                                p.arrivals as u64, p.revision.0,
                                "torn pair: tables from a different state"
                            );
                            last = p.revision.0;
                        }
                    })
                })
                .collect();
            for i in 1..200u64 {
                cell.publish(published(i, i as usize));
            }
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(cell.load().revision, Revision(199));
    }
}
