//! Claim-selection strategies for guided fact checking (§4, §6.2).
//!
//! The first step of every validation iteration selects the claim whose
//! manual validation is most beneficial. This crate implements the paper's
//! strategies behind one trait, [`SelectionStrategy`]:
//!
//! * [`strategies::RandomStrategy`] — the `random` baseline,
//! * [`strategies::UncertaintyStrategy`] — the `uncertainty` baseline
//!   (most problematic claim by marginal entropy),
//! * [`info_gain::InfoGainStrategy`] — information-driven guidance
//!   (Eq. 14–16): maximise the expected reduction of database entropy,
//! * [`source_driven::SourceDrivenStrategy`] — source-driven guidance
//!   (Eq. 17–21): maximise the expected reduction of source-trust entropy,
//! * [`hybrid::HybridStrategy`] — the dynamic roulette between the two
//!   (Eq. 22–23, Alg. 1 lines 7–9), and
//! * [`batch`] — top-k batch selection with the submodular utility of §6.2
//!   and its greedy `(1 − 1/e)`-approximation.
//!
//! Information-gain computation supports the two optimisations of §5.1 —
//! candidate pooling over the most uncertain claims and parallel evaluation
//! across worker threads — and scores one-iteration hypotheses through a
//! borrowed E-step instead of a cloned EM run (see [`info_gain`]).

#![warn(missing_docs)]

pub mod batch;
pub mod context;
pub mod hybrid;
pub mod info_gain;
pub mod source_driven;
pub mod strategies;

pub use batch::{BatchConfig, BatchSelector};
pub use context::{GuidanceContext, IterationFeedback, SelectionStrategy};
pub use hybrid::HybridStrategy;
pub use info_gain::{InfoGainConfig, InfoGainStrategy};
pub use source_driven::SourceDrivenStrategy;
pub use strategies::{RandomStrategy, UncertaintyStrategy};
