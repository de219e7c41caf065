//! Crash-recoverable streaming: the checker wired to the durability
//! layer.
//!
//! [`DurableChecker`] wraps a [`StreamingChecker`] and owns its
//! write-ahead [`durability::EditLog`]. It is the lineage's **one
//! writer**: [`DurableChecker::arrive_new`] is the only way its state
//! changes, and once the checker has ingested the arrival, every model
//! edit it reports committed is appended to the log in commit order — the
//! arrival's grow delta (tagged as the arrival), then its retention
//! sweep's retire set, then the sweep's compact marker. The checker
//! reports exactly the edits that bumped the revision (an empty sweep, an
//! identity compaction and a rejected delta report nothing), so the log's
//! LSN sequence is exactly the lineage's revision sequence: record at LSN
//! `L` carries the edit that produced revision `R₀ + (L − L₀)`.
//!
//! An edit committed through another clone of the checker's
//! [`ModelHandle`] cannot reach the log. So before it logs or writes a
//! checkpoint, the durable checker compares the handle's revision with
//! the revision its log covers, and refuses with
//! [`DurableError::Unlogged`] once they differ: logging past the gap
//! would leave a store that recovery cannot replay. A failed append
//! leaves the same gap and is refused the same way from then on; the way
//! forward is [`DurableChecker::recover`], which lands at the last logged
//! state.
//!
//! Periodically (every [`DurabilityConfig::checkpoint_every`] arrivals,
//! and at the natural trigger of a compaction) the state is published as
//! an atomic checkpoint and the log rotates. Checkpoints come in two
//! kinds (see [`durability::CheckpointKind`]): most cadence checkpoints
//! are **incremental** — the [`crf::ModelEdit`]s committed since the
//! previous checkpoint plus the checker's volatile bookkeeping, O(window)
//! bytes — while every [`DurabilityConfig::full_every`]-th one, every
//! compaction-triggered one, and every explicit
//! [`DurableChecker::checkpoint`] is **full** (the complete serialised
//! [`crf::CrfModel`] + state). A full checkpoint supersedes everything
//! before it and prunes the store; increments only rotate the log.
//!
//! # Durability acknowledgement
//!
//! [`DurableChecker::arrive_new`] returns when the arrival's edits are
//! *appended*; whether they are *fsynced* depends on the
//! [`SyncPolicy`]. [`DurableChecker::last_acked_lsn`] reports the
//! acknowledged-LSN watermark (everything at or below it survives power
//! loss) and [`DurableChecker::wait_durable`] blocks until a given LSN is
//! acknowledged, forcing an early group-commit sync if necessary — the
//! per-record-grade guarantee at near-batched cost.
//!
//! # Recovery
//!
//! [`DurableChecker::recover`] assembles the newest **intact chain**:
//! the newest full checkpoint that passes its integrity check, plus each
//! later increment whose stored `parent_lsn` links it to the chain —
//! corrupt files ([`durability::CorruptCheckpoint`]) and stale or
//! unlinked increments are skipped and reported via
//! [`DurableChecker::corrupt_checkpoints`]. It rebuilds the checker at
//! exactly the chain-tip lineage position (replaying each increment's
//! edits, then restoring the tip's volatile state) and replays the log
//! suffix:
//!
//! * a grow record tagged as an **arrival** replays through
//!   [`StreamingChecker::arrive_new`] — probabilities are re-estimated,
//!   the online update re-runs, and the retention sweep re-fires, all
//!   deterministic functions of (restored state, edit);
//! * the retire/compact records that sweep regenerated are recognised by
//!   their base revision already being behind the replayed model and
//!   skipped;
//! * any other record replays through [`ModelHandle::edit`] (the checker
//!   writes none, but the log is outside input).
//!
//! The result is **bit-identical** to the uninterrupted run: same model
//! arrays, same probabilities, same online weights (see the crash tests
//! in `tests/`). When corruption forced a fall-back to an older chain,
//! log records the newer (corrupt) checkpoint's rotation already deleted
//! may be unreachable; recovery then lands on the newest per-arrival
//! state the intact files cover, discards the unreplayable log suffix,
//! and reports what it skipped — it never guesses. Every change of the
//! checker's state is an arrival or the sweep riding on it, so the log
//! covers the whole lifecycle.
//!
//! [`verify_store`] is the offline scrub: it walks every retained
//! segment and checkpoint, validates frames, CRCs, and the lineage
//! chain, and reports what a recovery would find — without modifying
//! the store.

use crate::online_em::{ArrivalStats, OnlineEmConfig, OnlineEmError};
use crate::stream::{CheckerState, RetentionPolicy, StreamingChecker};
use crf::{CrfModel, ModelDelta, ModelEdit, ModelError, ModelHandle, Revision};
use durability::{
    checkpoint, scrub, CheckpointKind, CorruptCheckpoint, EditLog, LogRecord, Storage, SyncPolicy,
    WalError,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the durable checker writes and snapshots.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Fsync policy of the edit log (see the [`SyncPolicy`] loss-window
    /// table).
    pub sync_policy: SyncPolicy,
    /// Publish a checkpoint every `n` successful arrivals (`None` =
    /// only on demand / on compaction). Each checkpoint rotates the log,
    /// so this bounds both recovery replay length and log size.
    pub checkpoint_every: Option<u64>,
    /// Also checkpoint whenever a retention sweep compacts — the natural
    /// trigger: compaction is the one edit that *shrinks* the serialised
    /// model, and replaying across it costs a full rebuild. Compaction
    /// checkpoints are always **full**.
    pub checkpoint_on_compact: bool,
    /// Every `n`-th cadence checkpoint is full; the `n − 1` between are
    /// incremental (delta since the previous checkpoint, O(window)
    /// bytes). `1` makes every checkpoint full. Compaction-triggered and
    /// explicit [`DurableChecker::checkpoint`] calls are full regardless,
    /// and reset the count.
    pub full_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync_policy: SyncPolicy::Batched(16),
            checkpoint_every: Some(64),
            checkpoint_on_compact: true,
            full_every: 8,
        }
    }
}

/// Errors of the durable checker: storage/log failures, model-edit
/// failures during replay, and recovery-specific conditions.
#[derive(Debug)]
pub enum DurableError {
    /// The log or checkpoint store failed.
    Wal(WalError),
    /// A model edit failed (during ingest or replay).
    Model(ModelError),
    /// A checkpoint's online-EM state does not fit the model's features:
    /// its declared dimension, its weights or a buffered instance's row
    /// has another width.
    Online(OnlineEmError),
    /// Recovery found no checkpoint at all (the store was never
    /// initialised).
    NoCheckpoint,
    /// Checkpoint files exist but every full checkpoint failed its
    /// integrity check — there is no intact chain to fall back to.
    /// `path` names the newest corrupt file.
    CorruptCheckpoint {
        /// The newest checkpoint file that failed its integrity check.
        path: String,
    },
    /// The store contradicts the checkpointed lineage — a log record's
    /// base `(model_id, revision)` neither matches the replayed model nor
    /// lies behind it, and no corruption was observed that would explain
    /// the gap; or a checkpoint's checker state does not fit the model it
    /// was saved with. Recovery refuses to guess.
    Diverged(String),
    /// The lineage moved past what the log covers: an edit was committed
    /// through another clone of the checker's handle, or an append
    /// failed. The checker logs and checkpoints nothing more; recover
    /// from the store instead.
    Unlogged {
        /// The revision the log covers.
        logged: Revision,
        /// The revision the model's handle is at.
        model: Revision,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "durability storage error: {e}"),
            DurableError::Model(e) => write!(f, "model edit failed: {e}"),
            DurableError::Online(e) => write!(f, "online EM config rejected: {e}"),
            DurableError::NoCheckpoint => write!(f, "no usable checkpoint found"),
            DurableError::CorruptCheckpoint { path } => {
                write!(f, "every full checkpoint is corrupt (newest: {path})")
            }
            DurableError::Diverged(why) => write!(f, "log diverged from checkpoint: {why}"),
            DurableError::Unlogged { logged, model } => write!(
                f,
                "the model is at {model} but the log covers {logged}: an edit went unlogged"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<ModelError> for DurableError {
    fn from(e: ModelError) -> Self {
        DurableError::Model(e)
    }
}

impl From<OnlineEmError> for DurableError {
    fn from(e: OnlineEmError) -> Self {
        DurableError::Online(e)
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Wal(WalError::Io(e))
    }
}

/// The **full**-checkpoint payload: the model itself plus the checker's
/// volatile state, both keyed to the same `(model_id, revision)`. The
/// model is the checker's shared snapshot, serialised where it lies
/// rather than copied first.
#[derive(Serialize, Deserialize)]
struct DurableState {
    model: Arc<CrfModel>,
    checker: CheckerState,
}

/// The **incremental**-checkpoint payload: the delta since the parent
/// checkpoint — every [`ModelEdit`] committed between `parent_lsn` and
/// this file's LSN, in commit order, plus the checker's volatile state at
/// the tip. `ModelEdit` is already the system's diff unit, and
/// [`CheckerState`] is O(retention window), so an increment's size scales
/// with the window, not the model.
#[derive(Serialize, Deserialize)]
struct IncrementState {
    parent_lsn: u64,
    edits: Vec<ModelEdit>,
    checker: CheckerState,
}

/// A [`StreamingChecker`] whose whole lifecycle is crash-recoverable:
/// edits ahead-logged, state checkpointed, recovery bit-identical. See
/// the module docs for the protocol.
pub struct DurableChecker {
    checker: StreamingChecker,
    storage: Arc<dyn Storage>,
    log: EditLog,
    /// The revision the log covers: the one its newest record produced
    /// (or the newest checkpoint's, before any record).
    logged: Revision,
    /// Every edit committed since the last checkpoint, in commit order —
    /// the body of the next incremental checkpoint. Cleared by
    /// checkpoints of either kind.
    pending: Vec<ModelEdit>,
    config: DurabilityConfig,
    arrivals_since_checkpoint: u64,
    /// LSN of the newest published checkpoint (of either kind) — the
    /// parent of the next increment.
    last_checkpoint_lsn: u64,
    /// Incremental checkpoints published since the last full one.
    increments_since_full: u64,
    /// Corrupt checkpoint files the last recovery skipped (empty for a
    /// fresh [`Self::create`]).
    corrupt_seen: Vec<CorruptCheckpoint>,
}

/// The newest intact checkpoint chain: the newest full checkpoint that
/// passes its integrity check, plus every later increment whose stored
/// `parent_lsn` links it in. Corrupt files met along the way ride in
/// `corrupt`; stale increments (linked to some abandoned chain) are
/// silently irrelevant — a full checkpoint supersedes them.
struct ChainPlan {
    full_lsn: u64,
    full: DurableState,
    increments: Vec<(u64, IncrementState)>,
    corrupt: Vec<CorruptCheckpoint>,
}

impl ChainPlan {
    fn tip(&self) -> u64 {
        self.increments.last().map_or(self.full_lsn, |(l, _)| *l)
    }
}

fn assemble_chain(storage: &Arc<dyn Storage>) -> Result<ChainPlan, DurableError> {
    let entries = checkpoint::entries(storage)?;
    if entries.is_empty() {
        return Err(DurableError::NoCheckpoint);
    }
    let mut corrupt = Vec::new();
    let mut base = None;
    for e in entries
        .iter()
        .rev()
        .filter(|e| e.kind == CheckpointKind::Full)
    {
        match checkpoint::read::<DurableState>(storage, &e.name) {
            Ok(state) => {
                base = Some((e.lsn, state));
                break;
            }
            Err(c) => corrupt.push(c),
        }
    }
    let Some((full_lsn, full)) = base else {
        return Err(match corrupt.into_iter().next() {
            Some(newest) => DurableError::CorruptCheckpoint { path: newest.path },
            None => DurableError::NoCheckpoint,
        });
    };
    let mut plan = ChainPlan {
        full_lsn,
        full,
        increments: Vec::new(),
        corrupt,
    };
    for e in entries
        .iter()
        .filter(|e| e.kind == CheckpointKind::Increment && e.lsn > full_lsn)
    {
        match checkpoint::read::<IncrementState>(storage, &e.name) {
            Ok(inc) if inc.parent_lsn == plan.tip() => plan.increments.push((e.lsn, inc)),
            Ok(_) => {} // unlinked: belongs to a stale or broken chain
            Err(c) => plan.corrupt.push(c),
        }
    }
    Ok(plan)
}

impl DurableChecker {
    /// Initialise a fresh durable lineage in `storage`: build the checker,
    /// publish checkpoint 0 (the pre-log state) and start the edit log at
    /// LSN 1. Any stale log segments in the store are removed — use
    /// [`Self::recover`] to continue one instead.
    pub fn create(
        storage: Arc<dyn Storage>,
        model: impl Into<ModelHandle>,
        online: OnlineEmConfig,
        retention: RetentionPolicy,
        config: DurabilityConfig,
    ) -> Result<Self, DurableError> {
        let mut checker = StreamingChecker::try_new(model, online)?.with_retention(retention);
        let state = DurableState {
            model: checker.model().clone(),
            checker: checker.export_state(),
        };
        checkpoint::write(&storage, 0, &state)?;
        let log = EditLog::create(storage.clone(), 1, config.sync_policy)?;
        Ok(DurableChecker {
            logged: checker.model().revision(),
            checker,
            storage,
            log,
            pending: Vec::new(),
            config,
            arrivals_since_checkpoint: 0,
            last_checkpoint_lsn: 0,
            increments_since_full: 0,
            corrupt_seen: Vec::new(),
        })
    }

    /// Rebuild a crashed checker from `storage`: newest intact checkpoint
    /// chain (full base + linked increments), then the log suffix
    /// replayed through the ordinary edit machinery (see the module docs
    /// for why the result is bit-identical to the uninterrupted run).
    /// Corrupt checkpoint files are skipped and reported via
    /// [`Self::corrupt_checkpoints`]; when corruption forced a fall-back
    /// past records the newer chain's rotation already deleted, replay
    /// stops at the newest reachable per-arrival state and the
    /// unreplayable suffix is discarded. Finishes by publishing a fresh
    /// **full** checkpoint, so a crash loop cannot accumulate replay work
    /// and corrupt or stale files are garbage-collected.
    pub fn recover(
        storage: Arc<dyn Storage>,
        online: OnlineEmConfig,
        config: DurabilityConfig,
    ) -> Result<Self, DurableError> {
        let plan = assemble_chain(&storage)?;
        let ChainPlan {
            full_lsn,
            full,
            increments,
            corrupt,
        } = plan;
        let handle = ModelHandle::from(full.model);
        let mut checker = StreamingChecker::try_new(handle.clone(), online)?;

        // Walk the chain: each increment's edits advance the model; only
        // the tip's volatile state matters (restore_state overwrites
        // everything the intermediate syncs would have touched).
        let mut chain_tip = full_lsn;
        let mut tip_state = full.checker;
        for (lsn, inc) in increments {
            for edit in inc.edits {
                handle.edit(edit)?;
            }
            chain_tip = lsn;
            tip_state = inc.checker;
        }
        checker.restore_state(tip_state)?;

        // Replay the suffix through the volatile path: the records are
        // already in the log.
        let (log, records) = match EditLog::open(storage.clone(), config.sync_policy)? {
            Some(opened) => opened,
            None => (
                EditLog::create(storage.clone(), chain_tip + 1, config.sync_policy)?,
                Vec::new(),
            ),
        };
        let rev_at_tip = handle.revision().0;
        let mut unreachable_suffix = false;
        for LogRecord { lsn, arrival, edit } in records {
            if lsn <= chain_tip {
                continue; // covered by the chain (log not yet rotated)
            }
            let (base_id, base_rev) = edit.base_revision();
            if base_id != handle.model_id() {
                return Err(DurableError::Diverged(format!(
                    "record {lsn} edits lineage {base_id}, checkpoint is lineage {}",
                    handle.model_id()
                )));
            }
            let current = handle.revision();
            if base_rev < current {
                // Regenerated during replay: an arrival's retention sweep
                // re-produced this retire/compact when its grow replayed.
                continue;
            }
            if base_rev > current {
                if corrupt.is_empty() {
                    return Err(DurableError::Diverged(format!(
                        "record {lsn} expects {base_rev}, model is at {current}: \
                         a preceding edit is missing from the log"
                    )));
                }
                // The records bridging the intact chain to this one were
                // rotated away behind a checkpoint that is now corrupt.
                // Stop at the newest reachable state; the suffix is
                // unrecoverable without guessing.
                unreachable_suffix = true;
                break;
            }
            match edit {
                ModelEdit::Grow(delta) if arrival => {
                    checker.arrive_new(delta)?;
                }
                other => {
                    handle.edit(other)?;
                    // Re-sync per record, as the original run did: two
                    // compactions absorbed in one sync would take the
                    // provenance-losing reset path and diverge.
                    checker.sync();
                }
            }
        }
        let log = if unreachable_suffix {
            // LSN ↔ revision: the state now sits at chain_tip plus the
            // revisions replay advanced. Restart the log there; `create`
            // removes the unreplayable segments.
            drop(log);
            let reached = chain_tip + (handle.revision().0 - rev_at_tip);
            EditLog::create(storage.clone(), reached + 1, config.sync_policy)?
        } else {
            log
        };

        let mut recovered = DurableChecker {
            logged: handle.revision(),
            checker,
            storage,
            log,
            pending: Vec::new(),
            config,
            arrivals_since_checkpoint: 0,
            last_checkpoint_lsn: chain_tip,
            increments_since_full: 0,
            corrupt_seen: corrupt,
        };
        recovered.checkpoint()?;
        Ok(recovered)
    }

    /// Ingest an arrival with ahead-logging: the edits it commits — the
    /// grow delta, then any retention edits its sweep commits — are
    /// appended to the edit log, then the configured checkpoint triggers
    /// run. Refused with [`DurableError::Unlogged`] when the lineage has
    /// moved past the log.
    pub fn arrive_new(&mut self, delta: ModelDelta) -> Result<ArrivalStats, DurableError> {
        self.ensure_logged()?;
        let mut edits = Vec::new();
        let result = self.checker.arrive_journaled(delta, Some(&mut edits));
        // Logged even when the call failed: whatever committed is in the
        // model either way.
        for edit in edits {
            let arrival = matches!(edit, ModelEdit::Grow(_));
            self.log.append(arrival, &edit)?;
            self.logged = Revision(self.logged.0 + 1);
            self.pending.push(edit);
        }
        let stats = result?;
        self.arrivals_since_checkpoint += 1;
        let on_compact = self.config.checkpoint_on_compact && stats.compacted;
        let on_count = self
            .config
            .checkpoint_every
            .is_some_and(|n| self.arrivals_since_checkpoint >= n.max(1));
        if on_compact {
            self.checkpoint()?;
        } else if on_count {
            self.checkpoint_auto()?;
        }
        Ok(stats)
    }

    /// Publish a **full** checkpoint of the complete current state,
    /// rotate the log behind it, and prune every superseded checkpoint
    /// file (older fulls, all increments). Returns the LSN the checkpoint
    /// covers.
    pub fn checkpoint(&mut self) -> Result<u64, DurableError> {
        self.ensure_logged()?;
        let state = DurableState {
            checker: self.checker.export_state(),
            model: self.checker.model().clone(),
        };
        let lsn = self.log.next_lsn() - 1;
        checkpoint::write(&self.storage, lsn, &state)?;
        self.log.rotate(lsn)?;
        checkpoint::prune(&self.storage, lsn)?;
        self.pending.clear();
        self.arrivals_since_checkpoint = 0;
        self.last_checkpoint_lsn = lsn;
        self.increments_since_full = 0;
        Ok(lsn)
    }

    /// Publish an **incremental** checkpoint — the edits committed since
    /// the previous checkpoint plus the O(window) volatile state — and
    /// rotate the log behind it. Nothing is pruned: the parent chain must
    /// stay alive until the next full checkpoint supersedes it. A no-op
    /// (returning the parent's LSN) when nothing committed since.
    pub fn checkpoint_increment(&mut self) -> Result<u64, DurableError> {
        self.ensure_logged()?;
        let lsn = self.log.next_lsn() - 1;
        if lsn == self.last_checkpoint_lsn {
            return Ok(lsn);
        }
        let state = IncrementState {
            parent_lsn: self.last_checkpoint_lsn,
            edits: std::mem::take(&mut self.pending),
            checker: self.checker.export_state(),
        };
        if let Err(e) = checkpoint::write_increment(&self.storage, lsn, &state) {
            // The edits are not covered by any checkpoint yet; put them
            // back so a later attempt still has the full delta.
            self.pending = state.edits;
            return Err(e.into());
        }
        self.log.rotate(lsn)?;
        self.arrivals_since_checkpoint = 0;
        self.last_checkpoint_lsn = lsn;
        self.increments_since_full += 1;
        Ok(lsn)
    }

    /// The cadence trigger: every [`DurabilityConfig::full_every`]-th
    /// checkpoint is full, the rest incremental.
    fn checkpoint_auto(&mut self) -> Result<u64, DurableError> {
        if self.increments_since_full + 1 >= self.config.full_every.max(1) {
            self.checkpoint()
        } else {
            self.checkpoint_increment()
        }
    }

    /// Force the log durable right now, regardless of the batched policy
    /// (e.g. before a planned shutdown).
    pub fn sync_log(&mut self) -> Result<(), DurableError> {
        self.log.sync()?;
        Ok(())
    }

    /// Block until the record at `lsn` is acknowledged durable, forcing
    /// an early sync if the policy is still holding it — the explicit
    /// durability acknowledgement for group commit (a no-op once the
    /// watermark has passed `lsn`).
    pub fn wait_durable(&mut self, lsn: u64) -> Result<(), DurableError> {
        self.log.wait_durable(lsn)?;
        Ok(())
    }

    /// The acknowledged-LSN watermark: every record at or below it has
    /// been fsynced and survives power loss.
    pub fn last_acked_lsn(&self) -> u64 {
        self.log.last_acked_lsn()
    }

    /// Corrupt checkpoint files the recovery that built this checker
    /// skipped on its way to the newest intact chain (empty for a fresh
    /// [`Self::create`] or a clean recovery).
    pub fn corrupt_checkpoints(&self) -> &[CorruptCheckpoint] {
        &self.corrupt_seen
    }

    /// The LSN the next logged edit will carry.
    pub fn next_lsn(&self) -> u64 {
        self.log.next_lsn()
    }

    /// The wrapped checker. An edit made through a clone of its handle
    /// is not logged, and stops this checker with
    /// [`DurableError::Unlogged`].
    pub fn checker(&self) -> &StreamingChecker {
        &self.checker
    }

    /// The backing store.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// Return the inner checker. Its later arrivals are not logged; the
    /// store stays as it is, and a later [`Self::recover`] resumes from
    /// it.
    pub fn into_inner(self) -> StreamingChecker {
        self.checker
    }

    /// Refuse when the lineage has moved past the log (see the module
    /// docs): an edit committed through another clone of the handle, or
    /// one whose append failed.
    fn ensure_logged(&self) -> Result<(), DurableError> {
        let model = self.checker.handle().revision();
        if model == self.logged {
            Ok(())
        } else {
            Err(DurableError::Unlogged {
                logged: self.logged,
                model,
            })
        }
    }
}

/// What [`verify_store`] found: integrity of every retained file and the
/// shape of the recoverable chain.
#[derive(Debug)]
pub struct StoreReport {
    /// Valid log records across all retained segments.
    pub log_records: usize,
    /// Per-segment issues the read-only scan hit (torn tail, CRC
    /// mismatch, LSN discontinuity, unreadable file), as `name: issue`.
    pub segment_issues: Vec<String>,
    /// Checkpoint files that failed an integrity check — envelope
    /// (frame, footer, CRC) or typed payload.
    pub corrupt: Vec<CorruptCheckpoint>,
    /// LSN of the newest recoverable chain tip (newest intact full plus
    /// its linked increments); `None` when no intact full exists.
    pub chain_tip: Option<u64>,
    /// Files in that chain (1 full + n increments).
    pub chain_len: usize,
    /// The last LSN a recovery would reach: the chain tip advanced by
    /// the contiguous valid log records above it.
    pub recoverable_to: Option<u64>,
}

/// The offline scrub pass: walk every retained log segment and
/// checkpoint **read-only** (nothing is trimmed or deleted), validate
/// frames, CRCs, footers, and the increment chain's parent links, and
/// report what a [`DurableChecker::recover`] would find. Safe to run on
/// a store a crashed process left behind, before deciding to recover.
pub fn verify_store(storage: &Arc<dyn Storage>) -> Result<StoreReport, DurableError> {
    let scrubbed = scrub::scrub(storage)?;
    let mut report = StoreReport {
        log_records: scrubbed.records(),
        segment_issues: scrubbed
            .segments
            .iter()
            .filter_map(|s| s.issue.as_ref().map(|i| format!("{}: {i}", s.name)))
            .collect(),
        corrupt: scrubbed.corrupt.clone(),
        chain_tip: None,
        chain_len: 0,
        recoverable_to: None,
    };
    match assemble_chain(storage) {
        Ok(plan) => {
            let tip = plan.tip();
            report.chain_tip = Some(tip);
            report.chain_len = 1 + plan.increments.len();
            // Typed corruption (intact envelope, undeserialisable
            // payload) that the type-blind scrub cannot see.
            for c in plan.corrupt {
                if !report.corrupt.iter().any(|x| x.path == c.path) {
                    report.corrupt.push(c);
                }
            }
            let mut reach = tip;
            for seg in &scrubbed.segments {
                if let Some((first, last)) = seg.lsns {
                    if first > reach + 1 {
                        break; // gap: later records are unreachable
                    }
                    reach = reach.max(last);
                }
                if seg.issue.is_some() {
                    break;
                }
            }
            report.recoverable_to = Some(reach);
        }
        Err(DurableError::NoCheckpoint) | Err(DurableError::CorruptCheckpoint { .. }) => {}
        Err(e) => return Err(e),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crf::graph::{CrfModel, ModelDelta, Stance};
    use durability::MemFs;

    /// One seed model, serialised: deserialising per run keeps the
    /// `model_id`, so an interrupted and an uninterrupted run share the
    /// exact lineage and can be compared byte for byte.
    fn seed_json() -> String {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.8]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.6]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        serde_json::to_string(&CrfModel::build(b).unwrap()).unwrap()
    }

    fn seed(json: &str) -> CrfModel {
        serde_json::from_str(json).unwrap()
    }

    /// The k-th synthetic arrival: a fresh claim with one document from a
    /// fresh source (deterministic in `k`).
    fn arrival_delta(s: &StreamingChecker, k: usize) -> ModelDelta {
        let mut delta = s.delta();
        let src = delta.add_source(&[0.1 + (k % 7) as f64 * 0.1]).unwrap();
        let c = delta.add_claim();
        let d = delta.add_document(&[0.2 + (k % 5) as f64 * 0.1]).unwrap();
        delta.add_clique(c, d, src, Stance::Support);
        delta
    }

    /// Bit-identity: model content, probabilities, online weights, and
    /// arrival bookkeeping all agree exactly.
    fn assert_bit_identical(a: &StreamingChecker, b: &StreamingChecker) {
        assert_eq!(
            serde_json::to_string(&**a.model()).unwrap(),
            serde_json::to_string(&**b.model()).unwrap(),
            "model content diverged"
        );
        assert_eq!(a.arrivals(), b.arrivals());
        assert_eq!(a.visible_claims(), b.visible_claims());
        assert_eq!(a.probs().len(), b.probs().len());
        for (i, (x, y)) in a.probs().iter().zip(b.probs()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "prob {i} diverged");
        }
        for (i, (x, y)) in a
            .weights()
            .as_slice()
            .iter()
            .zip(b.weights().as_slice())
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "weight {i} diverged");
        }
    }

    /// The tentpole contract, in-crate edition: kill the checker after an
    /// arbitrary arrival (drop it — a process crash keeps all written
    /// bytes), recover from the surviving files, continue the stream, and
    /// land bit-identical to the run that never crashed. The window +
    /// compaction policy makes the log carry all three edit kinds.
    #[test]
    fn crash_recover_continue_is_bit_identical() {
        let json = seed_json();
        let policy = || RetentionPolicy {
            window: Some(4),
            compact_threshold: 0.2,
        };
        let total = 17;

        // Uninterrupted reference.
        let mut reference = StreamingChecker::try_new(seed(&json), OnlineEmConfig::default())
            .unwrap()
            .with_retention(policy());
        for k in 0..total {
            let delta = arrival_delta(&reference, k);
            reference.arrive_new(delta).unwrap();
        }

        // Interrupted run: crash after each of several arrival counts.
        for crash_after in [1, 5, 9, 13] {
            let mem = MemFs::new();
            let storage: Arc<dyn Storage> = Arc::new(mem.clone());
            let config = DurabilityConfig {
                sync_policy: SyncPolicy::Batched(8),
                checkpoint_every: Some(6),
                checkpoint_on_compact: true,
                full_every: 2,
            };
            let mut durable = DurableChecker::create(
                storage,
                seed(&json),
                OnlineEmConfig::default(),
                policy(),
                config.clone(),
            )
            .unwrap();
            for k in 0..crash_after {
                let delta = arrival_delta(durable.checker(), k);
                durable.arrive_new(delta).unwrap();
            }
            drop(durable); // process crash: written bytes survive, state is gone

            let survivor: Arc<dyn Storage> = Arc::new(mem.survivor(true));
            let mut recovered =
                DurableChecker::recover(survivor, OnlineEmConfig::default(), config).unwrap();
            assert_eq!(recovered.checker().arrivals(), crash_after);
            for k in crash_after..total {
                let delta = arrival_delta(recovered.checker(), k);
                recovered.arrive_new(delta).unwrap();
            }
            assert_bit_identical(recovered.checker(), &reference);
        }
    }

    /// Incremental checkpoints: with compaction triggers off and a short
    /// cadence, the store accumulates an `inc-` chain; recovery walks
    /// full → increments → log suffix and continues bit-identically.
    /// Corrupting a mid-chain increment then truncates the chain at the
    /// previous link, and recovery lands on the newest *reachable*
    /// per-arrival state instead of failing.
    #[test]
    fn incremental_chain_recovers_bit_identically() {
        let json = seed_json();
        let total = 11;
        let config = DurabilityConfig {
            sync_policy: SyncPolicy::Batched(4),
            checkpoint_every: Some(2),
            checkpoint_on_compact: false,
            full_every: 4,
        };

        let mut reference = StreamingChecker::try_new(seed(&json), OnlineEmConfig::default())
            .unwrap()
            .with_retention(RetentionPolicy::unbounded());
        for k in 0..total {
            let delta = arrival_delta(&reference, k);
            reference.arrive_new(delta).unwrap();
        }

        let mem = MemFs::new();
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        let mut durable = DurableChecker::create(
            storage.clone(),
            seed(&json),
            OnlineEmConfig::default(),
            RetentionPolicy::unbounded(),
            config.clone(),
        )
        .unwrap();
        for k in 0..7 {
            let delta = arrival_delta(durable.checker(), k);
            durable.arrive_new(delta).unwrap();
        }
        let incs: Vec<String> = storage
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("inc-"))
            .collect();
        assert_eq!(
            incs,
            vec![
                "inc-00000000000000000002.json",
                "inc-00000000000000000004.json",
                "inc-00000000000000000006.json"
            ],
            "cadence 2 with full_every 4 should have chained three increments"
        );
        drop(durable); // crash

        // The scrub sees the whole chain and the one-record log suffix.
        let survivor: Arc<dyn Storage> = Arc::new(mem.survivor(true));
        let report = verify_store(&survivor).unwrap();
        assert!(report.corrupt.is_empty() && report.segment_issues.is_empty());
        assert_eq!(report.chain_tip, Some(6));
        assert_eq!(report.chain_len, 4);
        assert_eq!(report.recoverable_to, Some(7));

        // Clean recovery: all 7 arrivals back, continue to bit-identity.
        let mut recovered =
            DurableChecker::recover(survivor, OnlineEmConfig::default(), config.clone()).unwrap();
        assert!(recovered.corrupt_checkpoints().is_empty());
        assert_eq!(recovered.checker().arrivals(), 7);
        for k in 7..total {
            let delta = arrival_delta(recovered.checker(), k);
            recovered.arrive_new(delta).unwrap();
        }
        assert_bit_identical(recovered.checker(), &reference);

        // Corrupt the middle increment: the chain now ends at inc-2, the
        // log suffix (rotated behind inc-6) is unreachable, and recovery
        // falls back to the newest intact per-arrival state — arrival 2.
        let wounded = mem.survivor(true);
        wounded
            .flip_bit("inc-00000000000000000004.json", 1)
            .unwrap();
        let survivor: Arc<dyn Storage> = Arc::new(wounded);
        let report = verify_store(&survivor).unwrap();
        assert_eq!(report.chain_tip, Some(2));
        assert_eq!(report.corrupt.len(), 1);
        let mut recovered =
            DurableChecker::recover(survivor, OnlineEmConfig::default(), config).unwrap();
        assert_eq!(recovered.corrupt_checkpoints().len(), 1);
        assert!(recovered.corrupt_checkpoints()[0].path.contains("04.json"));
        assert_eq!(recovered.checker().arrivals(), 2);
        for k in 2..total {
            let delta = arrival_delta(recovered.checker(), k);
            recovered.arrive_new(delta).unwrap();
        }
        assert_bit_identical(recovered.checker(), &reference);
    }

    /// The value stored under `name` among `fields`.
    fn object_field_value<'a>(
        fields: &'a mut [(String, serde::Value)],
        name: &str,
    ) -> &'a mut serde::Value {
        match fields.iter_mut().find(|(k, _)| k == name) {
            Some((_, value)) => value,
            None => panic!("no field `{name}`"),
        }
    }

    /// The fields of the object stored under `name` among `fields`.
    fn object_field<'a>(
        fields: &'a mut [(String, serde::Value)],
        name: &str,
    ) -> &'a mut Vec<(String, serde::Value)> {
        match object_field_value(fields, name) {
            serde::Value::Object(inner) => inner,
            _ => panic!("no object field `{name}`"),
        }
    }

    /// A checkpoint written while the checker state still carried its
    /// `visible` mirror, and the retention policy its live-claim cap and
    /// orphan-source switch, still recovers: fields are read by name and
    /// unknown ones are ignored.
    #[test]
    fn checkpoint_with_retired_fields_still_recovers() {
        let json = seed_json();
        let policy = RetentionPolicy {
            window: Some(4),
            compact_threshold: 0.2,
        };
        let total = 9;
        let mut reference = StreamingChecker::try_new(seed(&json), OnlineEmConfig::default())
            .unwrap()
            .with_retention(policy.clone());
        for k in 0..total {
            let delta = arrival_delta(&reference, k);
            reference.arrive_new(delta).unwrap();
        }

        let mem = MemFs::new();
        let config = DurabilityConfig {
            sync_policy: SyncPolicy::PerRecord,
            checkpoint_every: None,
            checkpoint_on_compact: false,
            full_every: 1,
        };
        let mut durable = DurableChecker::create(
            Arc::new(mem.clone()),
            seed(&json),
            OnlineEmConfig::default(),
            policy,
            config.clone(),
        )
        .unwrap();
        for k in 0..5 {
            let delta = arrival_delta(durable.checker(), k);
            durable.arrive_new(delta).unwrap();
        }
        let lsn = durable.checkpoint().unwrap();
        let n_claims = durable.checker().model().n_claims();
        drop(durable);

        // Rewrite the checkpoint with the fields the state used to carry.
        let storage: Arc<dyn Storage> = Arc::new(mem.survivor(true));
        let full = checkpoint::entries(&storage)
            .unwrap()
            .into_iter()
            .find(|e| e.kind == CheckpointKind::Full && e.lsn == lsn)
            .unwrap();
        let mut state: serde::Value = checkpoint::read(&storage, &full.name).unwrap();
        let serde::Value::Object(top) = &mut state else {
            panic!("checkpoint payload is not an object")
        };
        let checker = object_field(top, "checker");
        checker.push((
            "visible".to_string(),
            serde::Value::Array(vec![serde::Value::Bool(true); n_claims]),
        ));
        let policy = object_field(checker, "policy");
        policy.push(("max_live_claims".to_string(), serde::Value::Null));
        policy.push((
            "retire_orphan_sources".to_string(),
            serde::Value::Bool(true),
        ));
        checkpoint::write(&storage, lsn, &state).unwrap();

        let mut recovered =
            DurableChecker::recover(storage, OnlineEmConfig::default(), config).unwrap();
        assert!(recovered.corrupt_checkpoints().is_empty());
        assert_eq!(recovered.checker().arrivals(), 5);
        for k in 5..total {
            let delta = arrival_delta(recovered.checker(), k);
            recovered.arrive_new(delta).unwrap();
        }
        assert_bit_identical(recovered.checker(), &reference);
    }

    /// Rewrite the checker state of the checkpoint of `kind` at `lsn`
    /// through `edit`, keeping everything else (and a valid envelope).
    fn rewrite_checker_state(
        storage: &Arc<dyn Storage>,
        kind: CheckpointKind,
        lsn: u64,
        edit: impl FnOnce(&mut Vec<(String, serde::Value)>),
    ) {
        let name = checkpoint::entries(storage)
            .unwrap()
            .into_iter()
            .find(|e| e.kind == kind && e.lsn == lsn)
            .unwrap()
            .name;
        let mut state: serde::Value = checkpoint::read(storage, &name).unwrap();
        let serde::Value::Object(top) = &mut state else {
            panic!("checkpoint payload is not an object")
        };
        edit(object_field(top, "checker"));
        match kind {
            CheckpointKind::Full => checkpoint::write(storage, lsn, &state).unwrap(),
            CheckpointKind::Increment => checkpoint::write_increment(storage, lsn, &state).unwrap(),
        }
    }

    /// A checkpoint whose checker state does not fit the model it was
    /// saved with is refused with a typed error, never a panic: per-claim
    /// vectors of another length in a full checkpoint, online features of
    /// another width in a full checkpoint or an increment.
    #[test]
    fn checkpoint_state_that_does_not_fit_the_model_is_refused() {
        let json = seed_json();
        let mem = MemFs::new();
        let config = DurabilityConfig {
            sync_policy: SyncPolicy::PerRecord,
            checkpoint_every: None,
            checkpoint_on_compact: false,
            full_every: 1,
        };
        let mut durable = DurableChecker::create(
            Arc::new(mem.clone()),
            seed(&json),
            OnlineEmConfig::default(),
            RetentionPolicy::unbounded(),
            config.clone(),
        )
        .unwrap();
        for k in 0..3 {
            let delta = arrival_delta(durable.checker(), k);
            durable.arrive_new(delta).unwrap();
        }
        let full = durable.checkpoint().unwrap();
        // A crash right here leaves the full checkpoint as the chain tip.
        let at_full = mem.survivor(true);
        for k in 3..5 {
            let delta = arrival_delta(durable.checker(), k);
            durable.arrive_new(delta).unwrap();
        }
        let inc = durable.checkpoint_increment().unwrap();
        drop(durable);

        let recover = |storage: Arc<dyn Storage>| {
            DurableChecker::recover(storage, OnlineEmConfig::default(), config.clone())
        };
        assert_eq!(
            recover(Arc::new(mem.survivor(true)))
                .unwrap()
                .checker()
                .arrivals(),
            5,
            "the untouched store recovers"
        );

        let storage: Arc<dyn Storage> = Arc::new(at_full.survivor(true));
        rewrite_checker_state(&storage, CheckpointKind::Full, full, |checker| {
            let serde::Value::Array(probs) = &mut object_field_value(checker, "probs") else {
                panic!("probs is not an array")
            };
            probs.pop();
        });
        assert!(matches!(recover(storage), Err(DurableError::Diverged(_))));

        let storage: Arc<dyn Storage> = Arc::new(at_full.survivor(true));
        rewrite_checker_state(&storage, CheckpointKind::Full, full, |checker| {
            *object_field_value(object_field(checker, "online"), "dim") = serde::Value::I64(7);
        });
        assert!(matches!(recover(storage), Err(DurableError::Online(_))));

        let storage: Arc<dyn Storage> = Arc::new(mem.survivor(true));
        rewrite_checker_state(&storage, CheckpointKind::Increment, inc, |checker| {
            let online = object_field(checker, "online");
            let serde::Value::Array(instances) = object_field_value(online, "instances") else {
                panic!("instances is not an array")
            };
            let Some(serde::Value::Object(first)) = instances.first_mut() else {
                panic!("no buffered instance")
            };
            let serde::Value::Array(row) = object_field_value(first, "row") else {
                panic!("row is not an array")
            };
            row.push(serde::Value::F64(0.5));
        });
        assert!(matches!(recover(storage), Err(DurableError::Online(_))));
    }

    /// An edit made through another clone of the checker's handle cannot
    /// reach the log, so the durable checker refuses to log or checkpoint
    /// past it; recovery lands at the last logged arrival.
    #[test]
    fn edits_outside_the_checker_are_refused() {
        let json = seed_json();
        let config = DurabilityConfig {
            sync_policy: SyncPolicy::PerRecord,
            checkpoint_every: None,
            checkpoint_on_compact: false,
            full_every: 1,
        };
        let mut reference = StreamingChecker::try_new(seed(&json), OnlineEmConfig::default())
            .unwrap()
            .with_retention(RetentionPolicy::sliding_window(2));
        let handle = ModelHandle::new(seed(&json));
        let mem = MemFs::new();
        let mut durable = DurableChecker::create(
            Arc::new(mem.clone()),
            handle.clone(),
            OnlineEmConfig::default(),
            RetentionPolicy::sliding_window(2),
            config.clone(),
        )
        .unwrap();
        for k in 0..4 {
            let delta = arrival_delta(&reference, k);
            reference.arrive_new(delta).unwrap();
            let delta = arrival_delta(durable.checker(), k);
            durable.arrive_new(delta).unwrap();
        }
        let logged = durable.checker().model().revision();

        // Grow through the kept handle.
        let mut outside = handle.delta();
        outside.add_claim();
        let model = handle.apply(outside).unwrap();

        let refused = |r: Result<u64, DurableError>| match r {
            Err(DurableError::Unlogged {
                logged: l,
                model: m,
            }) => (l, m) == (logged, model),
            _ => false,
        };
        let delta = arrival_delta(durable.checker(), 4);
        assert!(refused(durable.arrive_new(delta).map(|_| 0)));
        assert!(refused(durable.checkpoint_increment()));
        assert!(refused(durable.checkpoint()));
        assert_eq!(durable.checker().arrivals(), 4, "the arrival was refused");
        drop(durable);

        let recovered = DurableChecker::recover(
            Arc::new(mem.survivor(true)),
            OnlineEmConfig::default(),
            config,
        )
        .unwrap();
        assert_eq!(recovered.checker().model().revision(), logged);
        assert_bit_identical(recovered.checker(), &reference);
    }

    /// Recovery from a store that was never initialised refuses cleanly.
    #[test]
    fn recover_without_checkpoint_is_refused() {
        let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
        assert!(matches!(
            DurableChecker::recover(
                storage,
                OnlineEmConfig::default(),
                DurabilityConfig::default()
            ),
            Err(DurableError::NoCheckpoint)
        ));
    }

    /// An immediate recovery (no arrivals after the checkpoint) and a
    /// recovery with an empty log suffix both work, and the checker
    /// `into_inner` hands back logs nothing: later arrivals leave the store
    /// as it is.
    #[test]
    fn recover_fresh_store_and_detach() {
        let json = seed_json();
        let mem = MemFs::new();
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        let durable = DurableChecker::create(
            storage,
            seed(&json),
            OnlineEmConfig::default(),
            RetentionPolicy::unbounded(),
            DurabilityConfig::default(),
        )
        .unwrap();
        drop(durable);

        let survivor: Arc<dyn Storage> = Arc::new(mem.survivor(true));
        let recovered = DurableChecker::recover(
            survivor.clone(),
            OnlineEmConfig::default(),
            DurabilityConfig::default(),
        )
        .unwrap();
        let files_before = survivor.list().unwrap().len();
        let mut checker = recovered.into_inner();
        let delta = arrival_delta(&checker, 0);
        checker.arrive_new(delta).unwrap();
        assert_eq!(
            survivor.list().unwrap().len(),
            files_before,
            "detached checker must not touch the store"
        );
    }

    /// Manual checkpoints rotate the log and prune old checkpoint files:
    /// the store stays bounded no matter how long the stream runs.
    #[test]
    fn checkpointing_bounds_the_store() {
        let json = seed_json();
        let mem = MemFs::new();
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        let mut durable = DurableChecker::create(
            storage.clone(),
            seed(&json),
            OnlineEmConfig::default(),
            RetentionPolicy {
                window: Some(3),
                compact_threshold: 0.2,
            },
            DurabilityConfig {
                sync_policy: SyncPolicy::PerRecord,
                checkpoint_every: Some(4),
                checkpoint_on_compact: true,
                full_every: 1,
            },
        )
        .unwrap();
        let mut peak = 0usize;
        for k in 0..30 {
            let delta = arrival_delta(durable.checker(), k);
            durable.arrive_new(delta).unwrap();
            // Exactly one checkpoint + at most one log segment... plus the
            // transient second segment between rotate steps is invisible
            // here (rotation is atomic w.r.t. this thread).
            let files = storage.list().unwrap().len();
            peak = peak.max(files);
        }
        assert!(
            peak <= 3,
            "store should stay at one checkpoint + one or two segments, saw {peak} files"
        );
        assert!(durable.next_lsn() > 1, "edits were logged");
    }

    /// A full checkpoint serialises the checker's shared model where it
    /// lies; its file is byte-identical to the same state written with an
    /// owned copy of the model, so stores on either side read the same.
    #[test]
    fn full_checkpoint_bytes_match_an_owned_model_payload() {
        #[derive(Serialize)]
        struct OwnedState {
            model: CrfModel,
            checker: CheckerState,
        }
        let json = seed_json();
        let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
        let mut durable = DurableChecker::create(
            storage.clone(),
            seed(&json),
            OnlineEmConfig::default(),
            RetentionPolicy {
                window: Some(3),
                compact_threshold: 0.5,
            },
            DurabilityConfig {
                checkpoint_every: None,
                checkpoint_on_compact: false,
                ..DurabilityConfig::default()
            },
        )
        .unwrap();
        for k in 0..8 {
            let delta = arrival_delta(durable.checker(), k);
            durable.arrive_new(delta).unwrap();
        }
        assert!(durable.checker().model().compactions() > 0);
        let lsn = durable.checkpoint().unwrap();
        let name = checkpoint::entries(&storage)
            .unwrap()
            .into_iter()
            .find(|e| e.lsn == lsn && e.kind == CheckpointKind::Full)
            .expect("the full checkpoint just written")
            .name;

        let owned = OwnedState {
            model: (**durable.checker.model()).clone(),
            checker: durable.checker.export_state(),
        };
        let other: Arc<dyn Storage> = Arc::new(MemFs::new());
        checkpoint::write(&other, lsn, &owned).unwrap();
        assert_eq!(
            storage.read(&name).unwrap(),
            other.read(&name).unwrap(),
            "checkpoint bytes moved"
        );
    }
}
