//! Streaming fact checking (§7, Alg. 2) with bounded-memory retention.
//!
//! Instead of validating a fixed corpus, claims arrive continuously and the
//! factor graph **grows in place** as they do: each arrival carries a
//! [`crf::ModelDelta`] that [`stream::StreamingChecker::arrive_new`], the
//! checker's one way in, splices into the model the checker owns. Nothing
//! is rebuilt. The checker's per-claim state follows each edit it
//! commits; an offline engine that follows the lineage is handed the
//! checker's current model ([`crf::Icrf::sync_to`]) and asks
//! [`crf::CrfModel::since`], from the [`crf::SyncPoint`] it last synced
//! at, whether to patch, relocate or rebuild its partition, Gibbs scratch
//! and EM state (the contract in `crf::graph`). The model parameters are
//! maintained by an online EM algorithm with stochastic approximation
//! (Eq. 29–30): upon each arrival the expected complete-data likelihood is
//! blended into a running objective with a decreasing Robbins–Monro step
//! size, and the parameters are re-estimated by the same L2-regularised
//! trust-region Newton method as the offline M-step — reusing the previous
//! solution as a warm start, which is what makes each update linear-time
//! (Prop. 3).
//!
//! # Retention: what a long-running stream lets go
//!
//! Growth alone rules out long-running deployments — every claim ever
//! ingested would stay hot forever. Retention is therefore a first-class
//! concern of this crate: a [`stream::RetentionPolicy`] bounds the live
//! set by arrival recency (a sliding window over the arrival index),
//! swept at every arrival. An expired claim is
//! *retired* — `O(touched)` tombstoning through [`crf::CrfModel::retire`];
//! its evidence immediately stops contributing to inference and to the
//! dynamic source-trust statistic, and sources left serving no live claim
//! retire with it. The memory itself comes back in batches: once the dead
//! fraction crosses the policy threshold, the checker triggers
//! [`crf::CrfModel::compact`], which rebuilds the arrays to the canonical
//! layout of the survivors (dropping the dead claims' documents — the bulk
//! of the memory) and publishes a [`crf::IdRemap`] that the checker, the
//! offline engine, and every model-keyed cache use to *relocate* their
//! state instead of rebuilding it ([`crf::IdRemap::relocate`],
//! [`crf::Since::Relocate`]; an engine that slept through two compactions
//! rebuilds). Array sizes are then bounded by `live set / (1 −
//! compact_threshold)` for any stream length — the windowed benchmark in
//! `benches/stream.rs` shows the plateau.
//!
//! * [`online_em`] — the stochastic-approximation parameter maintenance
//!   (its instance buffer has always been retention-bounded: old arrivals
//!   decay geometrically and are dropped below a weight floor),
//! * [`stream`] — [`stream::StreamingChecker`], the Alg. 2 loop that
//!   ingests arrivals (growing the graph), estimates the credibility of
//!   each new claim, runs the retention sweep, and exchanges parameters
//!   with the offline validation process (Alg. 1 / the `factcheck` crate),
//! * [`replay`] — [`replay::Replay`], a prebuilt corpus cut into arrival
//!   deltas in posting-time order, as §8.8 replays its corpora,
//! * [`interleave`] — running both algorithms side by side, the checker on
//!   a replayed lineage and the validation process on the corpus,
//!   producing the validation sequences compared in Table 2, and
//! * [`durable`] — the crash-recoverable wrapper
//!   ([`durable::DurableChecker`]): every edit ahead-logged through the
//!   `durability` crate's WAL (per-record, batched, or group-commit fsync
//!   with an acknowledged-LSN watermark), state checkpointed atomically —
//!   full snapshots interleaved with O(window) incremental diffs, garbage
//!   collected by coverage — and recovery, which reassembles the newest
//!   intact checkpoint chain (falling past corrupt files) and replays the
//!   log suffix, bit-identical to the uninterrupted run.
//!   [`durable::verify_store`] scrubs a store offline: CRC every frame,
//!   check every checkpoint envelope, and report how far the surviving
//!   bytes can recover.

#![warn(missing_docs)]

pub mod durable;
pub mod interleave;
pub mod online_em;
pub mod replay;
pub mod stream;

pub use durable::{verify_store, DurabilityConfig, DurableChecker, DurableError, StoreReport};
pub use interleave::{offline_sequence, streaming_sequence, InterleaveConfig};
pub use online_em::{ArrivalStats, OnlineEm, OnlineEmConfig, OnlineEmError, OnlineEmState};
pub use replay::Replay;
pub use stream::{RetentionPolicy, StreamingChecker};
