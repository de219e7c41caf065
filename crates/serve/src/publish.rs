//! Lock-free snapshot publication: the epoch/slot-ring `Published` cell.
//!
//! The serving layer's reader/writer contract is **never block the writer,
//! never tear the readers**. Both follow from two decisions:
//!
//! * A published state is **one** immutable [`Published`] value behind one
//!   `Arc`: every table readers query (liveness, marginals, trust, the
//!   latest remap) travels together, copied from one model revision, so a
//!   reader can no more see a `(liveness, probs)` pair from different
//!   revisions than it can see half a pointer. The state does not pin the
//!   model itself, so a published revision never makes the writer copy
//!   the model to grow it.
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

use crf::graph::{remap_across, IdRemap, ModelError, Revision};
#[cfg(loom)]
use loom::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(not(loom))]
use std::sync::RwLock;

/// One immutable published serving state: every query-side table, copied
/// from exactly one model revision. Readers receive the whole value behind
/// one `Arc`, so the pairing is atomic by construction.
#[derive(Debug)]
pub struct Published {
    /// Per-claim liveness of the published revision, one entry per claim
    /// slot (`true` = in service).
    pub claim_liveness: Vec<bool>,
    /// Per-source liveness of the published revision.
    pub source_liveness: Vec<bool>,
    /// The build lineage of the published revision; cursors refuse another.
    pub model_id: u64,
    /// The remap of the revision's latest compaction (`None` before the
    /// first); cursors relocate through it.
    pub remap: Option<Arc<IdRemap>>,
    /// Per-claim credibility estimates (0.5 for claims not yet arrived),
    /// exactly the ingest checker's state at publication.
    pub probs: Vec<f64>,
    /// Per-source trust under `probs` — bit-identical to
    /// `crf::em::source_trust_from_probs` on the published revision.
    pub trust: Vec<f64>,
    /// The published model revision — the staleness tag's identity.
    pub revision: Revision,
    /// Compaction count of the published revision; cursors compare it to
    /// relocate.
    pub compactions: u64,
    /// Arrivals the ingest checker had processed at publication; together
    /// with `revision` this is the staleness bound a reader observes.
    pub arrivals: usize,
}

impl Published {
    /// Whether `claim` is in range and live in this state.
    pub fn claim_live(&self, claim: usize) -> bool {
        self.claim_liveness.get(claim) == Some(&true)
    }

    /// Whether `source` is in range and live in this state.
    pub fn source_live(&self, source: usize) -> bool {
        self.source_liveness.get(source) == Some(&true)
    }

    /// The remap that carries ids valid after `compactions` compactions
    /// into this state's numbering, under the rules of
    /// [`crf::CrfModel::remap_since`] (one bridging rule for both,
    /// [`remap_across`]).
    pub fn remap_since(&self, compactions: u64) -> Result<Option<&IdRemap>, ModelError> {
        remap_across(self.compactions, self.remap.as_deref(), compactions)
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

    fn published(rev: u64, arrivals: usize) -> Arc<Published> {
        Arc::new(Published {
            claim_liveness: vec![true],
            source_liveness: vec![true],
            model_id: 1,
            remap: None,
            probs: vec![0.5],
            trust: vec![0.5],
            revision: Revision(rev),
            compactions: 0,
            arrivals,
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
