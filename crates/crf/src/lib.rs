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
//!   maintained incrementally under streaming growth, and
//! * versioned shared access to a growable model ([`handle`]): a
//!   [`handle::ModelHandle`] lets streaming arrivals splice new claims,
//!   documents, sources, and cliques into the live factor graph
//!   ([`graph::ModelDelta`] / [`graph::CrfModel::apply`]) while every
//!   model-keyed cache patches forward instead of rebuilding.
//!
//! The crate is deliberately self-contained: it knows nothing about how
//! sources, documents, and claims are produced (see the `factdb` crate) nor
//! about validation strategies (see the `guidance` crate). Its unit of
//! currency is the [`graph::CrfModel`].

#![warn(missing_docs)]

pub mod bitset;
pub mod coloring;
pub mod em;
pub mod entropy;
pub mod gibbs;
pub mod graph;
pub mod handle;
pub mod logistic;
pub mod newton;
pub mod numerics;
pub mod partition;
pub mod potentials;

pub use bitset::Bitset;
pub use coloring::{ColorRefresh, Coloring, NO_COLOR};
pub use em::{Icrf, IcrfConfig, IcrfState, IcrfStats};
pub use gibbs::{GibbsConfig, GibbsResult, GibbsSampler};
pub use graph::{
    Clique, CliqueId, CrfModel, IdRemap, ModelDelta, ModelEdit, ModelError, RetireSet, Revision,
    Since, Stance, SyncPoint, VarId,
};
pub use handle::{EditObserver, ModelHandle};
pub use partition::Partition;
pub use potentials::{CacheRefresh, ScoreCache, Weights};
