//! Concurrent HTAP-style query serving over live ingest.
//!
//! This crate puts a serving front end on the streaming fact-checker: one
//! [`TruthServer`] owns the single-writer ingest path (volatile or
//! durable) and publishes immutable [`Published`] snapshots that any
//! number of [`QueryHandle`] readers answer from concurrently —
//! truth-probability lookups, top-k-most-uncertain scans, per-source
//! trust — without ever blocking the writer or observing a torn state.
//!
//! The serving contract (see `docs/serving.md`):
//!
//! * **Stale-bounded**: every answer carries a [`Staleness`] tag naming
//!   the published state it came from; readers lag ingest by at most the
//!   [`PublishPolicy`] cadence.
//! * **Bit-reproducible**: given the state a tag names, every answer is
//!   bit-identical to an offline recomputation from that state.
//! * **Relocate or refuse**: long-lived [`ClaimCursor`]s survive one
//!   compaction by relocating through the published remap, and refuse
//!   with [`QueryError::Remapped`] when translation is impossible — they
//!   never silently serve a renumbered claim.

#![warn(missing_docs)]

mod cursor;
mod publish;
mod query;
mod server;

pub use cursor::{ClaimCursor, CursorAnswer};
pub use publish::{PublishCell, Published};
pub use query::{binary_entropy, Answer, QueryError, QueryHandle, Staleness, TruthAnswer};
pub use server::{IngestBackend, PublishPolicy, ServeError, TruthServer};
