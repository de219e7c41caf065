//! Conditional Random Field substrate for guided fact checking.
//!
//! This crate implements the probabilistic machinery underlying the paper
//! *User Guidance for Efficient Fact Checking* (PVLDB 2019):
//!
//! * a factor-graph representation of the (source, document, claim) cliques
//!   of the fact-checking CRF ([`graph`]),
//! * log-linear clique potentials with per-configuration weights
//!   ([`potentials`]),
//! * a Gibbs sampler over claim-credibility configurations that honours
//!   user-pinned labels and the non-equality constraint between a claim and
//!   its opposing variable ([`gibbs`]),
//! * a damped Newton solver with an exact Cholesky step for the
//!   L2-regularised logistic M-step ([`newton`], [`logistic`]),
//! * the incremental `iCRF` Expectation–Maximisation loop with warm-started
//!   parameters ([`em`]),
//! * exact (per connected component) and linear-time approximate entropy of
//!   the probabilistic fact database ([`entropy`]),
//! * connected-component partitioning of the claim graph ([`partition`]),
//!   computed from one model snapshot, and
//! * a growable model ([`graph::ModelDelta`] / [`graph::CrfModel::apply`]):
//!   streaming arrivals splice new claims, documents, sources, and cliques
//!   into the factor graph. A model has one owner, which edits it through
//!   `Arc::make_mut`; readers pin an `Arc<CrfModel>` and keep their
//!   revision while the owner moves on. An engine that follows another
//!   owner's model ([`em::Icrf::sync_to`]) carries per-claim state
//!   (probabilities, labels) forward or relocates it through the
//!   compaction remap; structures derived from the model (the partition,
//!   the E-step's claim evidence, the M-step's training set) are rebuilt
//!   from the new snapshot.
//!
//! The crate is deliberately self-contained: it knows nothing about how
//! sources, documents, and claims are produced (see the `factdb` crate) nor
//! about validation strategies (see the `guidance` crate). Its unit of
//! currency is the [`graph::CrfModel`].

#![warn(missing_docs)]

pub mod bitset;
pub mod em;
pub mod entropy;
pub mod gibbs;
pub mod graph;
pub mod logistic;
pub mod newton;
pub mod numerics;
pub mod partition;
pub mod potentials;

pub use bitset::Bitset;
pub use em::{Icrf, IcrfConfig, IcrfState, IcrfStats};
pub use gibbs::{GibbsConfig, GibbsResult, GibbsSampler};
pub use graph::{
    Clique, CliqueId, CrfModel, IdRemap, ModelDelta, ModelEdit, ModelError, RetireSet, Revision,
    Since, Stance, SyncPoint, VarId,
};
pub use partition::Partition;
pub use potentials::Weights;

/// A shared model, `Arc<CrfModel>`. The name stays for the end-to-end
/// benchmark, which spells `Arc::new` through it; everything else takes
/// `impl Into<Arc<CrfModel>>`.
pub type ModelHandle = std::sync::Arc<CrfModel>;
