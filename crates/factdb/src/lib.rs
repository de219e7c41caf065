//! The probabilistic fact database of §2.1: sources, documents, claims.
//!
//! A fact-checking setting is a tuple `Q = <S, D, C, P>` — data sources,
//! documents, candidate facts (claims), and a probabilistic credibility
//! model. This crate provides:
//!
//! * the concrete data model and its referential-integrity-checked container
//!   ([`model`], [`db`]),
//! * the feature substrates the paper derives its observed variables from
//!   (§8.1): PageRank and HITS centrality over the source graph
//!   ([`graph_metrics`]), activity statistics, and lexicon-based linguistic
//!   quality indicators over document text ([`linguistic`]),
//! * feature assembly and normalisation into the CRF's observed feature
//!   matrices ([`features`]), and
//! * synthetic dataset generators calibrated to the corpus statistics of the
//!   paper's three datasets — Wikipedia hoaxes, healthcare forum, Snopes —
//!   including ground-truth labels used to simulate user input
//!   ([`synth`]).
//!
//! The real corpora are not redistributable; DESIGN.md §3 documents why the
//! generative substitution preserves the evaluated behaviour.

#![warn(missing_docs)]

pub mod db;
pub mod dist;
pub mod features;
pub mod graph_metrics;
pub mod io;
pub mod linguistic;
pub mod model;
pub mod synth;

pub use db::{DatasetStats, FactDatabase, SyncMap};
pub use model::{ClaimId, ClaimRecord, DocId, DocumentRecord, SourceId, SourceKind, SourceRecord};
pub use synth::{DatasetPreset, SynthConfig, SynthDataset};
