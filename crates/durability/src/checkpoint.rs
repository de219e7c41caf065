//! Atomic state snapshots — full and incremental — that truncate the log.
//!
//! Two kinds of checkpoint file share one byte format:
//!
//! * `ckpt-{lsn:020}.json` — a **full** checkpoint: the complete
//!   serialised state of the recovering component. Self-sufficient.
//! * `inc-{lsn:020}.json` — an **incremental** checkpoint: the delta
//!   since its parent (the `stream` layer stores the [`crf::ModelEdit`]s
//!   committed since the previous checkpoint plus the small volatile
//!   state). Recovery chains parent → increments in LSN order; the
//!   payload carries the parent's LSN so the chain is explicit, not
//!   inferred.
//!
//! `lsn` is the LSN of the **last edit the snapshot covers**: recovery
//! assembles the newest intact chain and replays only log records with a
//! greater LSN. The payload type is the `stream` layer's business — this
//! module only moves framed bytes.
//!
//! # Integrity: header frame + footer
//!
//! A checkpoint file is one CRC-framed payload (`[len][crc32][payload]`,
//! the log's frame format) followed by a **footer** repeating the length
//! and CRC:
//!
//! ```text
//! ┌─────────┬───────────┬─────────┬─────────┬───────────┐
//! │ len u32 │ crc32 u32 │ payload │ len u32 │ crc32 u32 │
//! └─────────┴───────────┴─────────┴─────────┴───────────┘
//! ```
//!
//! The frame already rejects a bit-flipped payload; the footer makes a
//! *truncated* file structurally invalid too (a prefix of a valid file
//! never ends in a matching footer), so corruption is caught by integrity
//! check, not by incidental JSON parse failure. A file that fails any of
//! these — unreadable, torn, bit-flipped, trailing garbage — is reported
//! as a [`CorruptCheckpoint`] naming the file, and recovery falls back to
//! the newest chain that is intact.
//!
//! Publication is atomic ([`crate::storage::Storage::write_atomic`]: temp
//! file, sync, rename), so a crash mid-checkpoint leaves either the
//! previous checkpoint set intact or the new file complete — never a
//! half-written snapshot that shadows a good one.
//!
//! # GC by coverage
//!
//! A **full** checkpoint supersedes every older chain *and* every
//! increment: once `ckpt-L` is published, [`prune`] deletes every other
//! checkpoint file (older fulls, their increments, and any increment an
//! abandoned or corrupt chain left above `L`). Increments never prune —
//! they need their parent chain alive. The log rotates behind every
//! checkpoint of either kind ([`crate::wal::EditLog::rotate`]), so
//! segments wholly covered by the newest recoverable chain are deleted as
//! the chain advances. Every GC step is individually crash-safe: a crash
//! between deletions leaves extra-but-consistent files the next recovery
//! reads past.

use crate::storage::Storage;
use crate::wal::{frame, read_frame, WalError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Full (self-sufficient) or incremental (delta against a parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckpointKind {
    /// A complete state snapshot, `ckpt-{lsn:020}.json`.
    Full,
    /// A delta since the previous checkpoint, `inc-{lsn:020}.json`.
    Increment,
}

/// One checkpoint file in the store: its covered LSN, kind, and name.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// LSN of the last edit the checkpoint covers.
    pub lsn: u64,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// The file name in the store.
    pub name: String,
}

/// A checkpoint file that failed its integrity check — unreadable, torn,
/// bit-flipped, or carrying trailing garbage. Recovery reports these and
/// falls back to the newest intact chain.
#[derive(Debug, Clone)]
pub struct CorruptCheckpoint {
    /// The offending file.
    pub path: String,
    /// What failed.
    pub why: String,
}

impl std::fmt::Display for CorruptCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt checkpoint {}: {}", self.path, self.why)
    }
}

fn checkpoint_name(kind: CheckpointKind, lsn: u64) -> String {
    match kind {
        CheckpointKind::Full => format!("ckpt-{lsn:020}.json"),
        CheckpointKind::Increment => format!("inc-{lsn:020}.json"),
    }
}

/// Parse a checkpoint file name back to its LSN and kind.
pub fn parse_name(name: &str) -> Option<(u64, CheckpointKind)> {
    if let Some(rest) = name.strip_prefix("ckpt-") {
        let lsn = rest.strip_suffix(".json")?.parse().ok()?;
        return Some((lsn, CheckpointKind::Full));
    }
    let rest = name.strip_prefix("inc-")?;
    let lsn = rest.strip_suffix(".json")?.parse().ok()?;
    Some((lsn, CheckpointKind::Increment))
}

/// Frame `payload` with the checkpoint footer appended (see module docs).
fn enveloped(payload: &[u8]) -> Vec<u8> {
    let mut bytes = frame(payload);
    // panic-ok: write path, not decode — frame() always emits an 8-byte
    // header before the payload.
    let footer = bytes[0..8].to_vec();
    bytes.extend_from_slice(&footer);
    bytes
}

/// Validate the envelope of `bytes` and return the payload, or why not.
fn open_envelope(bytes: &[u8]) -> Result<&[u8], String> {
    let Some((payload, rest)) = read_frame(bytes) else {
        return Err("header frame torn or CRC mismatch".to_string());
    };
    if rest.len() != 8 {
        return Err(format!(
            "expected an 8-byte footer, found {} trailing bytes",
            rest.len()
        ));
    }
    let Some(header) = bytes.get(0..8) else {
        return Err("envelope shorter than a frame header".to_string());
    };
    if rest != header {
        return Err("footer does not match the header".to_string());
    }
    Ok(payload)
}

fn serialise<T: Serialize>(state: &T) -> Result<String, WalError> {
    serde_json::to_string(state)
        .map_err(|e| WalError::Corrupt(format!("unserialisable checkpoint: {e}")))
}

/// Atomically publish `state` as the **full** checkpoint covering
/// everything up to and including `lsn` (use `lsn = start − 1`, i.e. the
/// LSN before the first logged record, for the initial checkpoint of a
/// fresh lineage — with LSNs anchored at 1, that is 0).
pub fn write<T: Serialize>(
    storage: &Arc<dyn Storage>,
    lsn: u64,
    state: &T,
) -> Result<(), WalError> {
    let payload = serialise(state)?;
    storage.write_atomic(
        &checkpoint_name(CheckpointKind::Full, lsn),
        &enveloped(payload.as_bytes()),
    )?;
    Ok(())
}

/// Atomically publish `state` as an **incremental** checkpoint covering
/// up to and including `lsn`. The payload must identify its parent (the
/// `stream` layer stores the parent LSN inside it); this module only
/// names the file by kind.
pub fn write_increment<T: Serialize>(
    storage: &Arc<dyn Storage>,
    lsn: u64,
    state: &T,
) -> Result<(), WalError> {
    let payload = serialise(state)?;
    storage.write_atomic(
        &checkpoint_name(CheckpointKind::Increment, lsn),
        &enveloped(payload.as_bytes()),
    )?;
    Ok(())
}

/// Every checkpoint file in the store, sorted by `(lsn, kind)` — at equal
/// LSN a full sorts before an increment. No integrity check here; use
/// [`read`] per entry.
pub fn entries(storage: &Arc<dyn Storage>) -> Result<Vec<CheckpointEntry>, WalError> {
    let mut out: Vec<CheckpointEntry> = storage
        .list()?
        .into_iter()
        .filter_map(|name| parse_name(&name).map(|(lsn, kind)| CheckpointEntry { lsn, kind, name }))
        .collect();
    out.sort_by_key(|e| (e.lsn, e.kind));
    Ok(out)
}

/// Read and integrity-check one checkpoint file: envelope (frame plus
/// footer, nothing trailing) and JSON payload. Any failure — including an
/// unreadable file — comes back as a [`CorruptCheckpoint`] naming it, so the
/// caller can report it and fall back.
pub fn read<T: Deserialize>(
    storage: &Arc<dyn Storage>,
    name: &str,
) -> Result<T, CorruptCheckpoint> {
    let corrupt = |why: String| CorruptCheckpoint {
        path: name.to_string(),
        why,
    };
    let bytes = storage
        .read(name)
        .map_err(|e| corrupt(format!("unreadable: {e}")))?;
    let payload = open_envelope(&bytes).map_err(corrupt)?;
    std::str::from_utf8(payload)
        .ok()
        .and_then(|s| serde_json::from_str::<T>(s).ok())
        .ok_or_else(|| corrupt("payload does not deserialise".to_string()))
}

/// Envelope-only integrity check of one checkpoint file: readable, frame
/// CRC valid, footer present and matching, payload UTF-8. Payload
/// *deserialisation* is the caller's business ([`read`] does both) —
/// this is what a type-blind scrub can verify.
pub fn verify(storage: &Arc<dyn Storage>, name: &str) -> Result<(), CorruptCheckpoint> {
    let corrupt = |why: String| CorruptCheckpoint {
        path: name.to_string(),
        why,
    };
    let bytes = storage
        .read(name)
        .map_err(|e| corrupt(format!("unreadable: {e}")))?;
    let payload = open_envelope(&bytes).map_err(corrupt)?;
    std::str::from_utf8(payload)
        .map(|_| ())
        .map_err(|_| corrupt("payload is not UTF-8".to_string()))
}

/// GC by coverage, run right after the full checkpoint at `keep_lsn`
/// landed: that file supersedes every older chain and every increment
/// (including increments an abandoned chain left *above* it), so delete
/// every checkpoint file except the full at exactly `keep_lsn`. Each
/// deletion is individually crash-safe — a crash mid-GC leaves extra
/// files the next recovery reads past or re-deletes.
pub fn prune(storage: &Arc<dyn Storage>, keep_lsn: u64) -> Result<(), WalError> {
    for entry in entries(storage)? {
        if entry.kind == CheckpointKind::Full && entry.lsn == keep_lsn {
            continue;
        }
        storage.remove(&entry.name)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultFs, MemFs};

    fn full_name(lsn: u64) -> String {
        checkpoint_name(CheckpointKind::Full, lsn)
    }

    /// The newest valid **full** checkpoint: its covered LSN and state.
    /// Invalid or unreadable files are skipped (next-newest wins); `None`
    /// when no full checkpoint survives.
    fn latest<T: Deserialize>(storage: &Arc<dyn Storage>) -> Result<Option<(u64, T)>, WalError> {
        for entry in entries(storage)?.into_iter().rev() {
            if entry.kind != CheckpointKind::Full {
                continue;
            }
            if let Ok(state) = read::<T>(storage, &entry.name) {
                return Ok(Some((entry.lsn, state)));
            }
        }
        Ok(None)
    }

    /// Truncated envelopes — shorter than a frame header, or cut between
    /// header and footer — surface as typed errors, never a panic.
    #[test]
    fn torn_envelopes_are_typed_errors() {
        assert!(open_envelope(&[]).is_err());
        assert!(open_envelope(b"tiny").is_err());
        let whole = enveloped(b"payload");
        assert!(open_envelope(&whole).is_ok());
        for cut in [whole.len() - 1, whole.len() - 8, 9, 7] {
            assert!(
                open_envelope(&whole[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn newest_valid_checkpoint_wins() {
        let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
        write(&storage, 5, &"five".to_string()).unwrap();
        write(&storage, 9, &"nine".to_string()).unwrap();
        let (lsn, state) = latest::<String>(&storage).unwrap().unwrap();
        assert_eq!((lsn, state.as_str()), (9, "nine"));
        prune(&storage, 9).unwrap();
        assert_eq!(storage.list().unwrap(), vec![full_name(9)]);
    }

    #[test]
    fn empty_store_has_no_checkpoint() {
        let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
        assert!(latest::<String>(&storage).unwrap().is_none());
    }

    #[test]
    fn entries_sort_by_lsn_with_fulls_first() {
        let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
        write_increment(&storage, 7, &"i7".to_string()).unwrap();
        write(&storage, 3, &"f3".to_string()).unwrap();
        write_increment(&storage, 3, &"i3".to_string()).unwrap();
        let got: Vec<(u64, CheckpointKind)> = entries(&storage)
            .unwrap()
            .into_iter()
            .map(|e| (e.lsn, e.kind))
            .collect();
        assert_eq!(
            got,
            vec![
                (3, CheckpointKind::Full),
                (3, CheckpointKind::Increment),
                (7, CheckpointKind::Increment),
            ]
        );
        let inc: String = read(&storage, &checkpoint_name(CheckpointKind::Increment, 7)).unwrap();
        assert_eq!(inc, "i7");
    }

    #[test]
    fn truncated_checkpoint_fails_the_footer_not_the_parser() {
        let mem = MemFs::new();
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        write(&storage, 4, &"state".to_string()).unwrap();
        let name = full_name(4);
        let bytes = mem.read(&name).unwrap();
        // Cut the footer off: the header frame alone is still a complete,
        // CRC-valid, parseable payload — only the footer check catches it.
        mem.truncate(&name, (bytes.len() - 8) as u64).unwrap();
        let err = read::<String>(&storage, &name).unwrap_err();
        assert_eq!(err.path, name);
        assert!(err.why.contains("footer"), "wrong rejection: {}", err.why);
    }

    #[test]
    fn bit_flipped_checkpoint_is_reported_corrupt() {
        let mem = MemFs::new();
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        write(&storage, 4, &"state".to_string()).unwrap();
        let name = full_name(4);
        for seed in 0..8 {
            let twin = mem.survivor(true);
            twin.flip_bit(&name, seed).unwrap();
            let as_storage: Arc<dyn Storage> = Arc::new(twin);
            assert!(
                read::<String>(&as_storage, &name).is_err(),
                "flip with seed {seed} must be rejected"
            );
        }
    }

    #[test]
    fn unreadable_checkpoint_is_reported_not_fatal() {
        let mem = MemFs::new();
        let fault = Arc::new(FaultFs::new(mem, 1 << 20));
        let storage: Arc<dyn Storage> = fault.clone();
        write(&storage, 2, &"good".to_string()).unwrap();
        write(&storage, 6, &"bad".to_string()).unwrap();
        fault.fail_reads_of(&full_name(6));
        let err = read::<String>(&storage, &full_name(6)).unwrap_err();
        assert!(err.why.contains("unreadable"));
        let (lsn, state) = latest::<String>(&storage).unwrap().unwrap();
        assert_eq!((lsn, state.as_str()), (2, "good"));
    }

    #[test]
    fn crash_mid_publication_keeps_the_old_checkpoint() {
        let mem = MemFs::new();
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        write(&storage, 3, &"old".to_string()).unwrap();
        // Kill the writer at every byte of the second publication: the
        // survivor must always recover "old" at LSN 3.
        let probe = serde_json::to_string(&"newer".to_string()).unwrap();
        let full_cost = enveloped(probe.as_bytes()).len() as u64 + crate::storage::RENAME_COST;
        for budget in 0..full_cost {
            let faulty = Arc::new(FaultFs::new(mem.survivor(true), budget));
            let as_storage: Arc<dyn Storage> = faulty.clone();
            assert!(write(&as_storage, 7, &"newer".to_string()).is_err());
            let survivor: Arc<dyn Storage> = Arc::new(faulty.crash(true));
            let (lsn, state) = latest::<String>(&survivor).unwrap().unwrap();
            assert_eq!((lsn, state.as_str()), (3, "old"));
        }
    }

    #[test]
    fn corrupt_newest_falls_back_to_next() {
        let mem = MemFs::new();
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        write(&storage, 2, &"good".to_string()).unwrap();
        write(&storage, 8, &"bad".to_string()).unwrap();
        // Storage-level corruption of the newest file.
        let name = full_name(8);
        let mut bytes = mem.read(&name).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        mem.truncate(&name, 0).unwrap();
        mem.append(&name, &bytes).unwrap();
        let (lsn, state) = latest::<String>(&storage).unwrap().unwrap();
        assert_eq!((lsn, state.as_str()), (2, "good"));
    }

    #[test]
    fn prune_leaves_only_the_covering_full() {
        let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
        write(&storage, 2, &"old-full".to_string()).unwrap();
        write_increment(&storage, 4, &"old-inc".to_string()).unwrap();
        write(&storage, 6, &"new-full".to_string()).unwrap();
        // An increment an abandoned chain left above the new full.
        write_increment(&storage, 9, &"stray-inc".to_string()).unwrap();
        prune(&storage, 6).unwrap();
        assert_eq!(storage.list().unwrap(), vec![full_name(6)]);
    }
}
