//! The write-ahead edit log.
//!
//! One log = a sequence of segment files `wal-{start_lsn:020}.log`, each a
//! run of length-prefixed frames (see [`crate`] docs for the exact byte
//! layout). Appends go to the newest segment; a checkpoint rotates the log
//! — new segment anchored at the checkpoint LSN, older segments deleted —
//! so the live log never holds records a checkpoint already covers.
//!
//! Opening a log finds the **longest consistent prefix**: segments are
//! read in LSN order, every frame checks its length against the remaining
//! bytes, its CRC32 against the payload, and its recorded LSN against the
//! expected sequence; the first failure anywhere truncates that segment to
//! the bytes before the bad frame and discards all later segments. A torn
//! tail — the partial frame a crash mid-append leaves — is therefore
//! trimmed on open, exactly once, and the log is immediately appendable
//! again.

use crate::crc32;
use crate::storage::Storage;
use crf::ModelEdit;
use serde::{Deserialize, Serialize};
use std::io;
use std::sync::Arc;
use std::time::Duration;

// Under `--cfg loom` the group-commit protocol's primitives come from the
// model checker so `tests/loom_group_commit.rs` can explore its schedules;
// the swap covers exactly the state the sync thread shares with appenders.
#[cfg(loom)]
use loom::{
    sync::{Condvar, Mutex, MutexGuard},
    thread,
    time::Instant,
};
#[cfg(not(loom))]
use std::{
    sync::{Condvar, Mutex, MutexGuard},
    thread,
    time::Instant,
};

/// When appended records become durable.
///
/// | policy | fsync per | loses on power cut |
/// |---|---|---|
/// | [`SyncPolicy::PerRecord`] | record | nothing |
/// | [`SyncPolicy::Batched`]`(n)` | `n` records | up to `n−1` records |
/// | [`SyncPolicy::GroupCommit`] | window / `max_batch` | window + ≤ 1 record |
/// | [`SyncPolicy::OsBuffered`] | never | unsynced tail |
///
/// A **process** crash loses nothing under any policy (the OS holds the
/// bytes); the column above is the machine-crash exposure. Recovery
/// handles every case identically — the surviving prefix is replayed, and
/// the bit-identity contract applies to that prefix. `Batched` amortises
/// fsyncs on the append path; `GroupCommit` moves them off it entirely: a
/// dedicated sync thread coalesces them across a short window and
/// publishes an acknowledged-LSN watermark ([`EditLog::last_acked_lsn`]),
/// so an appender that needs a per-record-grade guarantee blocks on
/// [`EditLog::wait_durable`] for exactly one window instead of paying an
/// fsync per record. The stream bench gates group-commit logged ingest at
/// ≤ 1.10× of `Batched(16)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record: zero loss window, highest latency.
    PerRecord,
    /// fsync every `n` records (and on [`EditLog::sync`]): bounded loss
    /// window of `n − 1` records.
    Batched(u32),
    /// fsync on a dedicated sync thread, coalescing appends across a
    /// `window_micros`-long window (sooner once `max_batch` records are
    /// pending). Appends never fsync inline; durability is acknowledged
    /// through the watermark ([`EditLog::last_acked_lsn`] /
    /// [`EditLog::wait_durable`]). Machine-crash loss window: the sync
    /// window plus at most the record being appended.
    GroupCommit {
        /// How long the sync thread lets appends coalesce before it
        /// fsyncs them as one group.
        window_micros: u64,
        /// Pending-record count that cuts the window short.
        max_batch: u32,
    },
    /// Never fsync: the OS decides; cheapest, machine-crash exposed.
    OsBuffered,
}

/// One logged edit: the LSN it committed at, whether it was an *arrival*
/// (a grow delta ingested by `arrive_new`, carrying a new claim whose
/// probability the checker estimated) as opposed to a retention edit
/// replay regenerates bookkeeping for, and the edit payload itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogRecord {
    /// Log sequence number; consecutive within a lineage (see the
    /// LSN ↔ revision invariant in the `crf::graph` docs).
    pub lsn: u64,
    /// Whether this grow was an arrival (checker estimated a probability
    /// for its new claims) rather than a retention-sweep edit.
    pub arrival: bool,
    /// The committed edit.
    pub edit: ModelEdit,
}

/// A [`LogRecord`] that borrows its edit: [`EditLog::append`] serialises
/// it to the same bytes as the owned record, without copying the edit.
struct RecordRef<'a> {
    lsn: u64,
    arrival: bool,
    edit: &'a ModelEdit,
}

impl Serialize for RecordRef<'_> {
    /// The fields of [`LogRecord`], in its order.
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("lsn".to_string(), self.lsn.to_value()),
            ("arrival".to_string(), self.arrival.to_value()),
            ("edit".to_string(), self.edit.to_value()),
        ])
    }
}

/// Errors of the log layer: I/O from the [`Storage`], or a structurally
/// invalid log (bad segment name, non-contiguous anchor).
#[derive(Debug)]
pub enum WalError {
    /// The underlying storage failed.
    Io(io::Error),
    /// The log directory's segment structure is invalid.
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal storage error: {e}"),
            WalError::Corrupt(what) => write!(f, "wal corrupt: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

fn segment_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:020}.log")
}

/// Parse `wal-{lsn:020}.log` back to its anchor LSN.
pub(crate) fn segment_lsn(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Frame `payload` as `[len u32 LE][crc32 u32 LE][payload]`.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split one frame off `bytes`: `Some((payload, rest))` if the header,
/// length, and CRC all check out, `None` at a torn or corrupt boundary.
pub(crate) fn read_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let len_bytes: [u8; 4] = bytes.get(0..4)?.try_into().ok()?;
    let crc_bytes: [u8; 4] = bytes.get(4..8)?.try_into().ok()?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    let crc = u32::from_le_bytes(crc_bytes);
    let rest = bytes.get(8..)?;
    if rest.len() < len {
        return None;
    }
    let (payload, rest) = rest.split_at(len);
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, rest))
}

/// State shared between the appender and the group-commit sync thread.
/// `appended_next` / `acked_next` are exclusive upper bounds: every record
/// with `lsn < acked_next` is known durable.
struct GroupState {
    segment: String,
    appended_next: u64,
    acked_next: u64,
    /// An explicit barrier request ([`EditLog::sync`] /
    /// [`EditLog::wait_durable`]): fsync now, don't wait out the window.
    sync_now: bool,
    shutdown: bool,
    /// A sync failure is terminal for the thread (an fsync that failed
    /// once gives no usable guarantee afterwards); the error is stashed
    /// here for the next barrier to surface.
    error: Option<io::Error>,
    dead: bool,
}

struct GroupShared {
    storage: Arc<dyn Storage>,
    state: Mutex<GroupState>,
    cv: Condvar,
}

impl GroupShared {
    fn lock(&self) -> MutexGuard<'_, GroupState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sync thread: wait for pending appends, let them coalesce for the
/// window (cut short by `max_batch`, a barrier request, or shutdown),
/// fsync the segment once, publish the watermark, repeat.
fn group_sync_loop(shared: Arc<GroupShared>, window: Duration, max_batch: u64) {
    let mut st = shared.lock();
    loop {
        while !st.shutdown && !st.sync_now && st.appended_next <= st.acked_next {
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.shutdown {
            return;
        }
        if !st.sync_now && st.appended_next - st.acked_next < max_batch {
            // det-ok: wall-clock only gates fsync *coalescing*; it never
            // affects logged bytes (and is loom-shimmed under the model).
            let deadline = Instant::now() + window;
            loop {
                // det-ok: same coalescing window as above.
                let now = Instant::now();
                if now >= deadline
                    || st.shutdown
                    || st.sync_now
                    || st.appended_next - st.acked_next >= max_batch
                {
                    break;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
            if st.shutdown {
                return;
            }
        }
        if st.appended_next > st.acked_next {
            let target = st.appended_next;
            let segment = st.segment.clone();
            drop(st);
            let result = shared.storage.sync(&segment);
            st = shared.lock();
            match result {
                Ok(()) if st.segment == segment => {
                    st.acked_next = st.acked_next.max(target);
                }
                // Rotated away mid-sync: the rotation's own barrier
                // already covered these records; the stale result (ok or
                // not) says nothing about the live segment.
                Ok(()) | Err(_) if st.segment != segment => {}
                Err(e) => {
                    st.error = Some(e);
                    st.dead = true;
                    shared.cv.notify_all();
                    return;
                }
                Ok(()) => unreachable!(),
            }
        }
        st.sync_now = false;
        shared.cv.notify_all();
    }
}

/// The append side of the write-ahead edit log. One instance per lineage;
/// see the module docs for the on-storage layout and the crate docs for
/// how the `stream` layer drives it.
///
/// Dropping the log shuts the group-commit sync thread down **without** a
/// final fsync — drop models a process crash in the tests, and a planned
/// shutdown calls [`Self::sync`] first.
pub struct EditLog {
    storage: Arc<dyn Storage>,
    segment: String,
    next_lsn: u64,
    policy: SyncPolicy,
    /// Appends since the last fsync (Batched bookkeeping).
    unsynced: u32,
    /// Exclusive watermark for non-group policies: records with
    /// `lsn < acked_next` are known durable.
    acked_next: u64,
    /// The sync thread, present only under [`SyncPolicy::GroupCommit`].
    group: Option<(Arc<GroupShared>, thread::JoinHandle<()>)>,
    /// Anomalies [`Self::open`] skipped or truncated (unparseable segment
    /// names, gap segments, torn tails) — surfaced instead of panicking.
    warnings: Vec<String>,
}

impl Drop for EditLog {
    fn drop(&mut self) {
        if let Some((shared, handle)) = self.group.take() {
            {
                let mut st = shared.lock();
                st.shutdown = true;
                shared.cv.notify_all();
            }
            let _ = handle.join();
        }
    }
}

impl EditLog {
    /// Start a fresh log anchored at `start_lsn` (an empty segment is
    /// created so recovery can tell "fresh log" from "no log"). Any
    /// existing segments are removed — callers rotate instead when they
    /// mean to keep continuity.
    pub fn create(
        storage: Arc<dyn Storage>,
        start_lsn: u64,
        policy: SyncPolicy,
    ) -> Result<Self, WalError> {
        for name in storage.list()? {
            if segment_lsn(&name).is_some() {
                storage.remove(&name)?;
            }
        }
        let segment = segment_name(start_lsn);
        storage.append(&segment, &[])?;
        Ok(Self::finish(
            storage,
            segment,
            start_lsn,
            policy,
            Vec::new(),
        ))
    }

    /// Assemble a log positioned at `next_lsn`, spawning the sync thread
    /// when the policy is group commit.
    fn finish(
        storage: Arc<dyn Storage>,
        segment: String,
        next_lsn: u64,
        policy: SyncPolicy,
        warnings: Vec<String>,
    ) -> Self {
        let group = match policy {
            SyncPolicy::GroupCommit {
                window_micros,
                max_batch,
            } => {
                let shared = Arc::new(GroupShared {
                    storage: storage.clone(),
                    state: Mutex::new(GroupState {
                        segment: segment.clone(),
                        appended_next: next_lsn,
                        acked_next: next_lsn,
                        sync_now: false,
                        shutdown: false,
                        error: None,
                        dead: false,
                    }),
                    cv: Condvar::new(),
                });
                let thread_shared = shared.clone();
                let window = Duration::from_micros(window_micros);
                let handle = thread::spawn(move || {
                    group_sync_loop(thread_shared, window, max_batch.max(1) as u64)
                });
                Some((shared, handle))
            }
            _ => None,
        };
        EditLog {
            storage,
            segment,
            next_lsn,
            policy,
            unsynced: 0,
            acked_next: next_lsn,
            group,
            warnings,
        }
    }

    /// Open an existing log: scan its segments in order, collect the
    /// longest consistent run of records, trim the torn tail (see module
    /// docs), and return the records with a log positioned to append
    /// after them. `Ok(None)` when no segment exists (nothing was ever
    /// logged here).
    ///
    /// Filename anomalies never panic: a name that looks like a segment
    /// but fails to parse (e.g. an LSN wider than `u64`) is ignored, a
    /// segment whose anchor leaves a gap (including a zero-length
    /// straggler a crashed rotation left) is removed, and a torn or
    /// corrupt tail is truncated — each with an entry in
    /// [`Self::warnings`]. A segment that cannot be *read* ends the
    /// consistent prefix there instead of failing the open.
    pub fn open(
        storage: Arc<dyn Storage>,
        policy: SyncPolicy,
    ) -> Result<Option<(Self, Vec<LogRecord>)>, WalError> {
        let mut warnings = Vec::new();
        let mut segments: Vec<(u64, String)> = Vec::new();
        for name in storage.list()? {
            match segment_lsn(&name) {
                Some(lsn) => segments.push((lsn, name)),
                None => {
                    if name.starts_with("wal-") && name.ends_with(".log") {
                        warnings.push(format!(
                            "segment name `{name}` has an unparseable LSN: ignored"
                        ));
                    }
                }
            }
        }
        segments.sort();
        let Some(&(first_lsn, _)) = segments.first() else {
            return Ok(None);
        };

        let mut records = Vec::new();
        let mut expected = first_lsn;
        let mut live = segments.len();
        'segments: for (i, (start, name)) in segments.iter().enumerate() {
            if *start != expected {
                // A gap (e.g. a segment lost whole, or an empty straggler
                // anchored past the tail): everything from here on is
                // unreachable — longest consistent prefix ends.
                warnings.push(format!(
                    "segment `{name}` unreachable (expected anchor {expected}): removed"
                ));
                live = i;
                break;
            }
            let bytes = match storage.read(name) {
                Ok(bytes) => bytes,
                Err(e) => {
                    // An unreadable segment ends the prefix like a torn
                    // one; recovery falls back to what precedes it. If it
                    // is the only segment, empty it so appends after the
                    // anchor don't interleave with unreadable bytes.
                    warnings.push(format!("segment `{name}` unreadable ({e}): prefix ends"));
                    if i == 0 {
                        let _ = storage.truncate(name, 0);
                    }
                    live = i.max(1);
                    break;
                }
            };
            let mut rest = bytes.as_slice();
            loop {
                let offset = bytes.len() - rest.len();
                match read_frame(rest) {
                    None if rest.is_empty() => break,
                    None => {
                        // Torn or corrupt tail: trim it off and stop.
                        warnings.push(format!("segment `{name}`: torn tail trimmed at {offset}"));
                        storage.truncate(name, offset as u64)?;
                        live = i + 1;
                        break 'segments;
                    }
                    Some((payload, next)) => {
                        let record = std::str::from_utf8(payload)
                            .ok()
                            .and_then(|s| serde_json::from_str::<LogRecord>(s).ok());
                        match record {
                            Some(r) if r.lsn == expected => {
                                records.push(r);
                                expected += 1;
                                rest = next;
                            }
                            // A record that parses but jumps the sequence,
                            // or fails to parse despite a valid CRC: cut
                            // here like a torn tail.
                            _ => {
                                warnings.push(format!(
                                    "segment `{name}`: inconsistent record at {offset} \
                                     (expected lsn {expected}): truncated"
                                ));
                                storage.truncate(name, offset as u64)?;
                                live = i + 1;
                                break 'segments;
                            }
                        }
                    }
                }
            }
        }
        // Drop segments past the consistent prefix.
        for (_, name) in segments.get(live..).unwrap_or(&[]) {
            storage.remove(name)?;
        }
        let Some((_, live_name)) = live.checked_sub(1).and_then(|i| segments.get(i)) else {
            return Err(WalError::Corrupt(
                "no live segment survived open".to_string(),
            ));
        };
        let segment = live_name.clone();
        Ok(Some((
            Self::finish(storage, segment, expected, policy, warnings),
            records,
        )))
    }

    /// The LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Anomalies the open skipped or repaired (empty for a clean open).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The newest acknowledged-durable LSN: every record at or below it
    /// is known to have reached stable storage. Returns the anchor − 1
    /// (saturating at 0) while nothing has been acknowledged. Under
    /// group commit this is the sync thread's published watermark; under
    /// the other policies it advances with each fsync.
    pub fn last_acked_lsn(&self) -> u64 {
        let acked_next = match &self.group {
            Some((shared, _)) => shared.lock().acked_next,
            None => self.acked_next,
        };
        acked_next.saturating_sub(1)
    }

    /// Block until the record at `lsn` is durable (or already is). Under
    /// group commit this requests an immediate group fsync and waits on
    /// the watermark — the per-record-grade acknowledgement at group-
    /// commit cost; under the other policies it degenerates to
    /// [`Self::sync`] when the watermark is behind.
    pub fn wait_durable(&mut self, lsn: u64) -> Result<(), WalError> {
        match &self.group {
            Some((shared, _)) => {
                let target = (lsn + 1).min(self.next_lsn);
                let mut st = shared.lock();
                if st.acked_next >= target {
                    return Ok(());
                }
                st.sync_now = true;
                shared.cv.notify_all();
                while st.acked_next < target && !st.dead {
                    st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                if st.acked_next >= target {
                    Ok(())
                } else {
                    Err(WalError::Io(st.error.take().unwrap_or_else(|| {
                        io::Error::other("group-commit sync thread died")
                    })))
                }
            }
            None => {
                if self.acked_next <= lsn {
                    self.sync()?;
                }
                Ok(())
            }
        }
    }

    /// Append one edit, returning its LSN. Durability follows the
    /// [`SyncPolicy`]; call [`Self::sync`] for an explicit barrier.
    pub fn append(&mut self, arrival: bool, edit: &ModelEdit) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        let record = RecordRef { lsn, arrival, edit };
        let payload = serde_json::to_string(&record)
            .map_err(|e| WalError::Corrupt(format!("unserialisable record: {e}")))?;
        self.storage
            .append(&self.segment, &frame(payload.as_bytes()))?;
        self.next_lsn += 1;
        self.unsynced += 1;
        if let Some((shared, _)) = &self.group {
            // Hand the record to the sync thread: no inline fsync, just
            // the pending watermark (the thread times the window itself).
            let mut st = shared.lock();
            st.appended_next = self.next_lsn;
            shared.cv.notify_all();
            return Ok(lsn);
        }
        let barrier = match self.policy {
            SyncPolicy::PerRecord => true,
            SyncPolicy::Batched(n) => self.unsynced >= n.max(1),
            SyncPolicy::GroupCommit { .. } => unreachable!("handled above"),
            SyncPolicy::OsBuffered => false,
        };
        if barrier {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Force everything appended so far to stable storage. Under group
    /// commit this is the synchronous barrier: request an immediate group
    /// fsync and wait for the watermark to catch up.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.group.is_some() {
            let target = self.next_lsn.saturating_sub(1);
            self.wait_durable(target)?;
            self.unsynced = 0;
            return Ok(());
        }
        self.storage.sync(&self.segment)?;
        self.unsynced = 0;
        self.acked_next = self.next_lsn;
        Ok(())
    }

    /// Rotate after a checkpoint at `checkpoint_lsn`: start a new segment
    /// anchored at the next LSN and delete every older segment — the
    /// checkpoint supersedes them. Each step is individually crash-safe:
    /// a crash between them leaves extra-but-consistent segments that the
    /// next open simply reads past (and the checkpoint makes redundant).
    pub fn rotate(&mut self, checkpoint_lsn: u64) -> Result<(), WalError> {
        debug_assert!(checkpoint_lsn + 1 >= self.next_lsn);
        self.sync()?;
        let new_segment = segment_name(self.next_lsn);
        if new_segment != self.segment {
            self.storage.append(&new_segment, &[])?;
            if let Some((shared, _)) = &self.group {
                // Point the sync thread at the new segment; the barrier
                // above left nothing pending on the old one.
                let mut st = shared.lock();
                st.segment = new_segment.clone();
            }
            let old = std::mem::replace(&mut self.segment, new_segment);
            for name in self.storage.list()? {
                if name != self.segment && segment_lsn(&name).is_some() {
                    debug_assert!(name <= old, "zero-padded names sort by lsn");
                    self.storage.remove(&name)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemFs;
    use crf::{CrfModel, ModelDelta, ModelEdit, Stance};

    fn base_model() -> crf::CrfModel {
        let mut b = ModelDelta::new(1, 1);
        let s = b.add_source(&[0.5]).unwrap();
        let c = b.add_claim();
        let d = b.add_document(&[0.5]).unwrap();
        b.add_clique(c, d, s, Stance::Support);
        CrfModel::build(b).unwrap()
    }

    fn grow_edit(model: &mut crf::CrfModel) -> ModelEdit {
        let mut delta = ModelDelta::for_model(model);
        let c = delta.add_claim();
        let d = delta.add_document(&[0.3]).unwrap();
        delta.add_clique(c, d, 0, Stance::Refute);
        model.apply(delta.clone()).unwrap();
        ModelEdit::Grow(delta)
    }

    fn edits(n: usize) -> Vec<ModelEdit> {
        let mut m = base_model();
        (0..n).map(|_| grow_edit(&mut m)).collect()
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::PerRecord).unwrap();
        for (i, e) in edits(3).iter().enumerate() {
            assert_eq!(log.append(i % 2 == 0, e).unwrap(), i as u64);
        }
        let (reopened, records) = EditLog::open(Arc::new(fs), SyncPolicy::PerRecord)
            .unwrap()
            .expect("segments exist");
        assert_eq!(records.len(), 3);
        assert_eq!(reopened.next_lsn(), 3);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.lsn, i as u64);
            assert_eq!(r.arrival, i % 2 == 0);
            assert_eq!(r.edit.base_revision().1 .0, i as u64);
        }
    }

    /// An appended frame carries exactly the bytes of the owned record,
    /// for every edit kind.
    #[test]
    fn appended_payload_is_the_owned_record_byte_for_byte() {
        let mut m = base_model();
        let grow = grow_edit(&mut m);
        let mut set = crf::RetireSet::for_model(&m);
        set.retire_claim(crf::VarId(1));
        m.retire(set.clone()).unwrap();
        let retire = ModelEdit::Retire(set);
        let compact = ModelEdit::compact_marker(&m);
        let all = [(true, grow), (false, retire), (false, compact)];

        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 7, SyncPolicy::PerRecord).unwrap();
        for (arrival, edit) in &all {
            log.append(*arrival, edit).unwrap();
        }
        let bytes = fs.read(&segment_name(7)).unwrap();
        let mut rest = &bytes[..];
        for (lsn, (arrival, edit)) in (7..).zip(all) {
            let (payload, tail) = read_frame(rest).expect("a whole frame");
            let owned = serde_json::to_string(&LogRecord { lsn, arrival, edit }).unwrap();
            assert_eq!(payload, owned.as_bytes(), "record {lsn}");
            rest = tail;
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn open_on_empty_storage_is_none() {
        assert!(EditLog::open(Arc::new(MemFs::new()), SyncPolicy::PerRecord)
            .unwrap()
            .is_none());
    }

    #[test]
    fn torn_tail_is_trimmed_once() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::PerRecord).unwrap();
        for e in edits(2) {
            log.append(true, &e).unwrap();
        }
        let name = segment_name(0);
        let intact = fs.read(&name).unwrap().len();
        // A torn half-record at the tail...
        fs.append(&name, &[0x55; 11]).unwrap();
        let (mut log, records) = EditLog::open(Arc::new(fs.clone()), SyncPolicy::PerRecord)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 2, "intact prefix survives");
        assert_eq!(fs.read(&name).unwrap().len(), intact, "tail trimmed");
        // ...and the log appends cleanly right after it.
        let next = edits(3).pop().unwrap();
        assert_eq!(log.next_lsn(), 2);
        log.append(false, &next).unwrap();
        let (_, records) = EditLog::open(Arc::new(fs), SyncPolicy::PerRecord)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn corrupt_middle_record_cuts_the_prefix_there() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::OsBuffered).unwrap();
        for e in edits(3) {
            log.append(true, &e).unwrap();
        }
        let name = segment_name(0);
        let mut bytes = fs.read(&name).unwrap();
        // Flip one payload byte of the second record: its CRC now fails,
        // so records 2 and 3 are both gone (prefix consistency).
        let (p0, _) = read_frame(&bytes).unwrap();
        let second_payload_at = 8 + p0.len() + 8;
        bytes[second_payload_at] ^= 0xff;
        fs.truncate(&name, 0).unwrap();
        fs.append(&name, &bytes).unwrap();
        let (log, records) = EditLog::open(Arc::new(fs), SyncPolicy::OsBuffered)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(log.next_lsn(), 1);
    }

    #[test]
    fn rotation_supersedes_old_segments() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::Batched(8)).unwrap();
        let all = edits(5);
        for e in &all[..3] {
            log.append(true, e).unwrap();
        }
        log.rotate(2).unwrap();
        assert_eq!(
            fs.list().unwrap(),
            vec![segment_name(3)],
            "old segment deleted"
        );
        for e in &all[3..] {
            log.append(true, e).unwrap();
        }
        let (log, records) = EditLog::open(Arc::new(fs), SyncPolicy::Batched(8))
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 2, "only post-rotation records remain");
        assert_eq!(records[0].lsn, 3);
        assert_eq!(log.next_lsn(), 5);
    }

    /// A window so long the sync thread never fires on its own — group
    /// tests that need determinism force every sync explicitly.
    const IDLE: SyncPolicy = SyncPolicy::GroupCommit {
        window_micros: 30_000_000,
        max_batch: 1_000_000,
    };

    /// Poll `f` for up to ~5 s; background-sync tests use this instead of
    /// assuming a scheduling order.
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..5000 {
            if f() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        false
    }

    /// Every torn-byte shape a crash can leave at a frame boundary is a
    /// clean `None`, never a panic: short header, length past the buffer,
    /// CRC mismatch.
    #[test]
    fn read_frame_rejects_short_and_corrupt_buffers() {
        assert!(read_frame(&[]).is_none());
        assert!(read_frame(&[0x55; 7]).is_none(), "shorter than a header");
        let whole = frame(b"payload");
        assert!(read_frame(&whole).is_some());
        let torn = &whole[..whole.len() - 1];
        assert!(read_frame(torn).is_none(), "length runs past the buffer");
        let mut bad_crc = whole.clone();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0xff;
        assert!(read_frame(&bad_crc).is_none(), "payload bit flip");
        let mut over = whole.clone();
        over[0] = 0xff;
        assert!(read_frame(&over).is_none(), "declared length overruns");
    }

    /// A crash can tear mid-*header* too (fewer than 8 tail bytes): open
    /// trims exactly that tail and keeps the intact prefix.
    #[test]
    fn open_trims_a_header_short_tail() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::PerRecord).unwrap();
        log.append(true, &edits(1)[0]).unwrap();
        let name = segment_name(0);
        let intact = fs.read(&name).unwrap().len();
        fs.append(&name, &[0xAA; 5]).unwrap();
        let (_, records) = EditLog::open(Arc::new(fs.clone()), SyncPolicy::PerRecord)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 1, "intact record survives");
        assert_eq!(fs.read(&name).unwrap().len(), intact, "5-byte tail gone");
    }

    #[test]
    fn group_commit_appends_are_unsynced_until_acknowledged() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 1, IDLE).unwrap();
        for e in edits(3) {
            log.append(true, &e).unwrap();
        }
        assert_eq!(log.last_acked_lsn(), 0, "nothing acknowledged yet");
        assert!(
            fs.survivor(false).read(&segment_name(1)).is_err(),
            "no fsync ran: a power cut loses the whole group"
        );
        log.wait_durable(3).unwrap();
        assert_eq!(log.last_acked_lsn(), 3);
        let durable = fs.survivor(false);
        let (_, records) = EditLog::open(Arc::new(durable), SyncPolicy::PerRecord)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 3, "acknowledged group is durable");
    }

    #[test]
    fn group_commit_window_syncs_in_background() {
        let fs = MemFs::new();
        let policy = SyncPolicy::GroupCommit {
            window_micros: 500,
            max_batch: 1_000_000,
        };
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, policy).unwrap();
        for e in edits(2) {
            log.append(true, &e).unwrap();
        }
        assert!(
            eventually(|| log.last_acked_lsn() == 1),
            "window elapsed but the watermark never advanced"
        );
        let bytes = fs.survivor(false).read(&segment_name(0)).unwrap();
        let (_, rest) = read_frame(&bytes).unwrap();
        assert!(read_frame(rest).is_some(), "both records durable");
    }

    #[test]
    fn group_commit_max_batch_cuts_the_window_short() {
        let fs = MemFs::new();
        let policy = SyncPolicy::GroupCommit {
            window_micros: 30_000_000,
            max_batch: 2,
        };
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, policy).unwrap();
        for e in edits(2) {
            log.append(true, &e).unwrap();
        }
        assert!(
            eventually(|| log.last_acked_lsn() == 1),
            "a full batch must sync without waiting out the window"
        );
    }

    #[test]
    fn group_commit_drop_is_a_crash_not_a_sync() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, IDLE).unwrap();
        for e in edits(2) {
            log.append(true, &e).unwrap();
        }
        drop(log); // shuts the thread down without a final fsync
        assert!(
            fs.survivor(false).read(&segment_name(0)).is_err(),
            "drop must not quietly make the tail durable"
        );
        assert!(!fs.survivor(true).read(&segment_name(0)).unwrap().is_empty());
    }

    #[test]
    fn group_commit_sync_failure_surfaces_instead_of_hanging() {
        let all = edits(2);
        // Measure one record so the budget covers exactly record 1 and
        // tears record 2 — the storage is then "crashed" and every fsync
        // the group thread attempts fails.
        let probe = MemFs::new();
        {
            let mut plog =
                EditLog::create(Arc::new(probe.clone()), 0, SyncPolicy::OsBuffered).unwrap();
            plog.append(true, &all[0]).unwrap();
        }
        let one_record = probe.total_bytes() as u64;
        let fault = Arc::new(crate::storage::FaultFs::new(MemFs::new(), one_record + 4));
        let mut log = EditLog::create(fault.clone(), 0, IDLE).unwrap();
        log.append(true, &all[0]).unwrap();
        assert!(log.append(true, &all[1]).is_err(), "second record tears");
        let err = log.wait_durable(0);
        assert!(err.is_err(), "barrier must report the dead sync thread");
        assert!(log.wait_durable(0).is_err(), "and keep reporting it");
    }

    #[test]
    fn group_commit_rotation_carries_the_watermark() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, IDLE).unwrap();
        let all = edits(5);
        for e in &all[..3] {
            log.append(true, e).unwrap();
        }
        log.rotate(2).unwrap();
        assert_eq!(log.last_acked_lsn(), 2, "rotation is a barrier");
        assert_eq!(fs.list().unwrap(), vec![segment_name(3)]);
        for e in &all[3..] {
            log.append(true, e).unwrap();
        }
        log.wait_durable(4).unwrap();
        let (log2, records) = EditLog::open(Arc::new(fs.survivor(false)), IDLE)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(log2.next_lsn(), 5);
    }

    #[test]
    fn unparseable_segment_name_is_skipped_with_a_warning() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::PerRecord).unwrap();
        for e in edits(2) {
            log.append(true, &e).unwrap();
        }
        // An LSN wider than u64 parses to None — it must not panic the
        // open or shadow the real segments.
        fs.append("wal-99999999999999999999999999.log", b"junk")
            .unwrap();
        let (log, records) = EditLog::open(Arc::new(fs), SyncPolicy::PerRecord)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 2);
        assert!(
            log.warnings().iter().any(|w| w.contains("unparseable")),
            "overflowing name must be warned about: {:?}",
            log.warnings()
        );
    }

    #[test]
    fn zero_length_straggler_segment_is_removed_with_a_warning() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::PerRecord).unwrap();
        for e in edits(2) {
            log.append(true, &e).unwrap();
        }
        // A crashed rotation can leave an empty segment anchored past the
        // tail; it must be dropped, not treated as the live segment.
        fs.append(&segment_name(9), &[]).unwrap();
        let (mut log, records) = EditLog::open(Arc::new(fs.clone()), SyncPolicy::PerRecord)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(log.next_lsn(), 2);
        assert!(log.warnings().iter().any(|w| w.contains("unreachable")));
        assert!(
            !fs.list().unwrap().contains(&segment_name(9)),
            "straggler removed"
        );
        log.append(false, &edits(3)[2]).unwrap();
        let (_, records) = EditLog::open(Arc::new(fs), SyncPolicy::PerRecord)
            .unwrap()
            .unwrap();
        assert_eq!(records.len(), 3, "log appendable after the repair");
    }

    #[test]
    fn watermark_tracks_fsyncs_under_batched_policy() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 1, SyncPolicy::Batched(2)).unwrap();
        let all = edits(3);
        log.append(true, &all[0]).unwrap();
        assert_eq!(log.last_acked_lsn(), 0, "first record unsynced");
        log.append(true, &all[1]).unwrap();
        assert_eq!(log.last_acked_lsn(), 2, "batch of 2 synced both");
        log.append(true, &all[2]).unwrap();
        assert_eq!(log.last_acked_lsn(), 2);
        log.wait_durable(3).unwrap();
        assert_eq!(log.last_acked_lsn(), 3, "wait_durable forces the sync");
    }

    #[test]
    fn batched_policy_syncs_every_n() {
        let fs = MemFs::new();
        let mut log = EditLog::create(Arc::new(fs.clone()), 0, SyncPolicy::Batched(2)).unwrap();
        let all = edits(3);
        log.append(true, &all[0]).unwrap();
        let after_one = fs.survivor(false);
        assert!(
            read_frame(&after_one.read(&segment_name(0)).unwrap_or_default()).is_none(),
            "first record not yet durable"
        );
        log.append(true, &all[1]).unwrap();
        let after_two = fs.survivor(false);
        let bytes = after_two.read(&segment_name(0)).unwrap();
        let (_, rest) = read_frame(&bytes).unwrap();
        assert!(read_frame(rest).is_some(), "batch of 2 synced both");
    }
}
