//! Durability for the streaming checker: a write-ahead edit log,
//! atomic checkpoints, and bit-identical crash recovery.
//!
//! The engine's whole model lifecycle is already reified as
//! [`crf::ModelEdit`] values — grow deltas, retire sets, compact markers —
//! each committing against exactly one `(model_id, revision)` pair and
//! bumping the revision by one (the LSN ↔ lineage mapping in the
//! `crf::graph` docs). That makes the edit stream a perfect redo log:
//! this crate persists it, snapshots the volatile state it acts on, and
//! rebuilds a crashed checker from the two.
//!
//! # Log-record format
//!
//! A log segment `wal-{start_lsn:020}.log` is a run of frames:
//!
//! ```text
//! ┌──────────────┬───────────────┬──────────────────────────────┐
//! │ len: u32 LE  │ crc32: u32 LE │ payload: `len` bytes of JSON │
//! └──────────────┴───────────────┴──────────────────────────────┘
//! ```
//!
//! The CRC (IEEE 802.3, over the payload only) detects torn and corrupt
//! frames; the JSON payload is a [`wal::LogRecord`] — monotonic `lsn`, an
//! `arrival` tag (did the checker estimate probabilities for this grow?),
//! and the [`crf::ModelEdit`] itself. A compact edit is logged as a bare
//! **marker**: compaction is a deterministic function of the model state,
//! so replay regenerates the original [`crf::IdRemap`] instead of storing
//! it. Segment and checkpoint names zero-pad their LSN to 20 digits so
//! lexicographic listing order is LSN order.
//!
//! # Fsync policy trade-offs: loss windows and acknowledgement
//!
//! [`wal::SyncPolicy`] picks the durability point. The **loss window** is
//! what a power loss can take; a plain process crash loses nothing under
//! any policy, because appends always reach the storage layer before
//! `append` returns.
//!
//! * `PerRecord` — fsync on every append. Loss window zero; the append
//!   *is* the acknowledgement. One storage round-trip per arrival.
//! * `Batched(n)` — one fsync per `n` appends. Loss window `n − 1`
//!   records; an append is acknowledged when the batch boundary fsync it
//!   rode in lands ([`wal::EditLog::last_acked_lsn`] tracks this).
//! * `GroupCommit { window_micros, max_batch }` — appends return
//!   immediately; a dedicated sync thread coalesces everything that
//!   arrived within the window (or up to `max_batch` records, whichever
//!   comes first) into one fsync and publishes the **acknowledged-LSN
//!   watermark**. Loss window: one sync window plus at most the one
//!   record in flight. Callers that need a hard guarantee block on
//!   [`wal::EditLog::wait_durable`], which forces an early sync; a sync
//!   *failure* is terminal for the log (surfaces as an error on the next
//!   barrier rather than being silently retried).
//! * `OsBuffered` — never fsyncs; the OS flushes when it pleases.
//!
//! `benches/stream.rs` commits the measured overhead of each policy and
//! gates `Batched` at ≤ 25% over unlogged ingest and group commit at
//! ≤ 1.10× of `Batched(16)`.
//!
//! # Checkpoint / truncation protocol — full and incremental
//!
//! A **full** checkpoint `ckpt-{lsn:020}.json` is the complete serialised
//! checker state covering log records `… ≤ lsn`. An **incremental**
//! checkpoint `inc-{lsn:020}.json` covers the same prefix but stores only
//! the delta since its parent checkpoint — the logged [`crf::ModelEdit`]s
//! between the two plus the small volatile state — so checkpoint bytes
//! scale with the retention window, not the model. Both kinds wrap their
//! payload in the log's CRC frame **plus a length + CRC footer**
//! (see [`checkpoint`]) so truncation is a structural integrity failure,
//! not an incidental JSON parse failure; a file failing the check is
//! reported as [`checkpoint::CorruptCheckpoint`] and recovery falls back
//! to the newest intact chain.
//!
//! Each checkpoint is published atomically — temp file, sync, rename —
//! then the log **rotates**: a new segment anchored at `lsn + 1` is
//! created and segments wholly covered by the checkpoint are deleted
//! ([`wal::EditLog::rotate`]). **GC is by coverage**: a full checkpoint
//! supersedes every older chain and every increment, so publishing one
//! also prunes all other checkpoint files ([`checkpoint::prune`]);
//! increments never prune (their parent chain must stay alive). Every
//! step is individually crash-safe; a crash between any two — including
//! mid-GC — leaves a superset of one consistent state that the next
//! recovery reads past or re-deletes. Compaction is the natural *full*
//! checkpoint trigger: it is the one edit that shrinks the serialised
//! model, and checkpointing there keeps both the log suffix and the
//! increment chain short.
//!
//! # Recovery and the bit-identity contract
//!
//! Recovery (`DurableChecker::recover` in the `stream` crate) assembles
//! the newest **intact chain** — newest valid full checkpoint, then each
//! increment whose stored parent LSN links it to the chain, skipping
//! corrupt or unlinked files — opens the log, trims its torn tail
//! ([`wal::EditLog::open`] keeps the longest consistent prefix — framing,
//! CRC, and LSN contiguity all checked), and replays the records with
//! `lsn >` the chain tip through the ordinary `apply`/`retire`/`compact`
//! machinery. The contract, enforced by the crash tests: the recovered
//! checker's model arrays, warm probabilities, and subsequent
//! `run_scheduled` samples and marginals are **bit-identical** (modulo
//! the regenerated [`crf::IdRemap`]) to the uninterrupted run at the same
//! arrival count. Two things make this possible: every checker update is
//! a deterministic function of (state, edit stream), and the seed streams
//! are positional (epoch counters, not wall clocks). What is *not*
//! covered: state the checkpoint granularity loses by design — an
//! `Icrf::run` between checkpoints is not a logged event, so offline
//! inference epochs replay from the checkpoint's epoch counter.
//!
//! Storage is abstracted behind [`storage::Storage`] ([`storage::DiskFs`]
//! for production, [`storage::MemFs`] for tests, [`storage::FaultFs`] for
//! killing writes at an exact byte offset, failing reads of chosen files,
//! and charging deletions so GC can die halfway), plus deterministic
//! seeded bit-flip corruption ([`storage::MemFs::flip_bit`]), so the
//! whole recovery path — torn tails, corrupt checkpoints, interrupted
//! GC — is exercised against injected faults without touching a real
//! disk.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod scrub;
pub mod storage;
pub mod wal;

pub use checkpoint::{CheckpointEntry, CheckpointKind, CorruptCheckpoint};
pub use scrub::{ScrubReport, SegmentReport};
pub use storage::{DiskFs, FaultFs, MemFs, Storage};
pub use wal::{EditLog, LogRecord, SyncPolicy, WalError};

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the per-frame
/// payload check of the log and checkpoint formats.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"framed payload".to_vec();
        let reference = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {i}:{bit}");
            }
        }
    }
}
