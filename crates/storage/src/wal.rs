//! Write-ahead logging and crash recovery.
//!
//! The paper reuses relational "logging, backup and recovery" unchanged (§2),
//! which works because packed XML records are ordinary heap records and XPath
//! indexes are ordinary B+tree entries. The log here is logical and
//! operation-based: each record names a heap or index mutation precisely
//! enough to be redone (idempotently, "install at RID" semantics) and undone
//! (via before images). Recovery is ARIES-style repeat-history: redo every
//! operation in LSN order, then roll losers back.
//!
//! How a logged write is undone is decided here, once: a data record's
//! [`LogRecord::compensation`] is the record that reverses it, and
//! [`LogRecord::apply`] installs any data record on its heap or B+tree.
//! Redo applies records; `roll_back` — shared by runtime rollback and by
//! recovery's loser pass — applies each compensation, newest first, and logs
//! it (DESIGN.md §15).

use crate::btree::BTree;
use crate::buffer::SpaceId;
use crate::codec::{Dec, Enc};
use crate::error::{Result, StorageError};
use crate::heap::HeapTable;
use crate::rid::Rid;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Log sequence number.
pub type Lsn = u64;
/// Transaction identifier.
pub type TxnId = u64;

/// Encoding tag of [`LogRecord::Checkpoint`] (the first payload byte).
const CHECKPOINT_TAG: u8 = 9;

/// Bytes of framing before each record payload: `u32` payload length plus
/// the record's `u64` LSN. Frames carry their LSN so a checkpoint can tell
/// which physical records fall below its safe-truncation floor and which
/// must be carried across, and so a reopened log can resume the sequence.
const FRAME_HDR: usize = 12;

fn push_frame(out: &mut Vec<u8>, lsn: Lsn, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Walk the framed records in a log image, yielding `(lsn, payload)` and
/// stopping silently at a torn tail (a crash mid-append).
fn walk_frames(buf: &[u8]) -> impl Iterator<Item = (Lsn, &[u8])> {
    let mut p = 0usize;
    std::iter::from_fn(move || {
        let hdr = buf.get(p..p + FRAME_HDR)?;
        let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
        let lsn = Lsn::from_le_bytes(hdr[4..].try_into().unwrap());
        let start = p + FRAME_HDR;
        let payload = buf.get(start..start + len)?;
        p = start + len;
        Some((lsn, payload))
    })
}

/// The transaction id a framed record carries (every record but a
/// checkpoint stores it right after its tag).
fn frame_txn(payload: &[u8]) -> Option<TxnId> {
    match payload.first() {
        Some(1..=8) => Some(TxnId::from_le_bytes(payload.get(1..9)?.try_into().ok()?)),
        _ => None,
    }
}

/// A logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are named self-descriptively
pub enum LogRecord {
    /// Transaction start.
    Begin { txn: TxnId },
    /// Transaction commit (flush point).
    Commit { txn: TxnId },
    /// Transaction abort (undo already applied at runtime).
    Abort { txn: TxnId },
    /// Heap record installed at a RID.
    HeapInsert {
        txn: TxnId,
        space: SpaceId,
        rid: Rid,
        data: Vec<u8>,
    },
    /// Heap record replaced in place.
    HeapUpdate {
        txn: TxnId,
        space: SpaceId,
        rid: Rid,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    /// Heap record removed.
    HeapDelete {
        txn: TxnId,
        space: SpaceId,
        rid: Rid,
        before: Vec<u8>,
    },
    /// B+tree upsert; `prev` is the replaced value, if any.
    IndexInsert {
        txn: TxnId,
        space: SpaceId,
        anchor: u32,
        key: Vec<u8>,
        value: u64,
        prev: Option<u64>,
    },
    /// B+tree exact-key delete; `value` is the removed value.
    IndexDelete {
        txn: TxnId,
        space: SpaceId,
        anchor: u32,
        key: Vec<u8>,
        value: u64,
    },
    /// All dirty pages flushed; log before this point is not needed for redo.
    Checkpoint,
}

/// The heap or B+tree a data record names: its space for a heap record,
/// its space and anchor slot for an index record.
#[derive(Clone)]
pub enum Target {
    /// A heap table.
    Heap(Arc<HeapTable>),
    /// A B+tree.
    Index(Arc<BTree>),
}

impl LogRecord {
    /// The record that reverses this data record, carrying the same
    /// transaction id (`None` for `Begin`, `Commit`, `Abort` and
    /// `Checkpoint`). Applying a record and then its compensation restores
    /// the heap or tree exactly.
    pub fn compensation(&self) -> Option<LogRecord> {
        Some(match self {
            LogRecord::HeapInsert {
                txn,
                space,
                rid,
                data,
            } => LogRecord::HeapDelete {
                txn: *txn,
                space: *space,
                rid: *rid,
                before: data.clone(),
            },
            LogRecord::HeapUpdate {
                txn,
                space,
                rid,
                before,
                ..
            }
            | LogRecord::HeapDelete {
                txn,
                space,
                rid,
                before,
            } => LogRecord::HeapInsert {
                txn: *txn,
                space: *space,
                rid: *rid,
                data: before.clone(),
            },
            LogRecord::IndexInsert {
                txn,
                space,
                anchor,
                key,
                value,
                prev,
            } => match prev {
                Some(p) => LogRecord::IndexInsert {
                    txn: *txn,
                    space: *space,
                    anchor: *anchor,
                    key: key.clone(),
                    value: *p,
                    prev: None,
                },
                None => LogRecord::IndexDelete {
                    txn: *txn,
                    space: *space,
                    anchor: *anchor,
                    key: key.clone(),
                    value: *value,
                },
            },
            LogRecord::IndexDelete {
                txn,
                space,
                anchor,
                key,
                value,
            } => LogRecord::IndexInsert {
                txn: *txn,
                space: *space,
                anchor: *anchor,
                key: key.clone(),
                value: *value,
                prev: None,
            },
            LogRecord::Begin { .. }
            | LogRecord::Commit { .. }
            | LogRecord::Abort { .. }
            | LogRecord::Checkpoint => return None,
        })
    }

    /// Install this data record on its heap or tree: a heap record lands at
    /// its RID ([`HeapTable::insert_at`]; over a live record, a shrink keeps
    /// its freed bytes reserved), a heap delete reserves its slot
    /// ([`HeapTable::reserve`]), and an index record sets or removes its
    /// key. Reservations end when the transaction does, see
    /// `release_reservations`.
    /// Idempotent, so redo may repeat it; a delete of what is already gone
    /// succeeds.
    pub fn apply(&self, target: &Target) -> Result<()> {
        match (self, target) {
            (LogRecord::HeapInsert { rid, data, .. }, Target::Heap(h))
            | (
                LogRecord::HeapUpdate {
                    rid, after: data, ..
                },
                Target::Heap(h),
            ) => h.insert_at(*rid, data),
            (LogRecord::HeapDelete { rid, .. }, Target::Heap(h)) => match h.reserve(*rid) {
                Err(StorageError::RecordNotFound { .. }) => Ok(()),
                r => r.map(drop),
            },
            (LogRecord::IndexInsert { key, value, .. }, Target::Index(t)) => {
                t.insert(key, *value).map(drop)
            }
            (LogRecord::IndexDelete { key, .. }, Target::Index(t)) => t.delete(key).map(drop),
            _ => Err(StorageError::WalCorrupt(format!(
                "record of txn {:?} does not apply to its target",
                self.txn()
            ))),
        }
    }

    /// The owning transaction, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::HeapInsert { txn, .. }
            | LogRecord::HeapUpdate { txn, .. }
            | LogRecord::HeapDelete { txn, .. }
            | LogRecord::IndexInsert { txn, .. }
            | LogRecord::IndexDelete { txn, .. } => Some(*txn),
            LogRecord::Checkpoint => None,
        }
    }

    /// The record's log bytes: a type tag, then its fields as
    /// little-endian integers, each byte string behind a u32 length.
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(64);
        fn head(e: &mut Enc, tag: u8, txn: TxnId, space: SpaceId) -> &mut Enc {
            e.u8(tag).u64(txn).u32(space)
        }
        fn bytes<'e>(e: &'e mut Enc, b: &[u8]) -> &'e mut Enc {
            e.u32(b.len() as u32).raw(b)
        }
        match self {
            LogRecord::Begin { txn } => {
                e.u8(1).u64(*txn);
            }
            LogRecord::Commit { txn } => {
                e.u8(2).u64(*txn);
            }
            LogRecord::Abort { txn } => {
                e.u8(3).u64(*txn);
            }
            LogRecord::HeapInsert {
                txn,
                space,
                rid,
                data,
            } => {
                head(&mut e, 4, *txn, *space).u32(rid.page).u16(rid.slot);
                bytes(&mut e, data);
            }
            LogRecord::HeapUpdate {
                txn,
                space,
                rid,
                before,
                after,
            } => {
                head(&mut e, 5, *txn, *space).u32(rid.page).u16(rid.slot);
                bytes(&mut e, before);
                bytes(&mut e, after);
            }
            LogRecord::HeapDelete {
                txn,
                space,
                rid,
                before,
            } => {
                head(&mut e, 6, *txn, *space).u32(rid.page).u16(rid.slot);
                bytes(&mut e, before);
            }
            LogRecord::IndexInsert {
                txn,
                space,
                anchor,
                key,
                value,
                prev,
            } => {
                head(&mut e, 7, *txn, *space).u32(*anchor);
                bytes(&mut e, key).u64(*value);
                match prev {
                    Some(p) => e.u8(1).u64(*p),
                    None => e.u8(0),
                };
            }
            LogRecord::IndexDelete {
                txn,
                space,
                anchor,
                key,
                value,
            } => {
                head(&mut e, 8, *txn, *space).u32(*anchor);
                bytes(&mut e, key).u64(*value);
            }
            LogRecord::Checkpoint => {
                e.u8(CHECKPOINT_TAG);
            }
        }
        e.into_bytes()
    }

    /// Decode [`LogRecord::encode`]'s bytes; a short or unknown record is
    /// [`StorageError::WalCorrupt`].
    fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Dec::new(buf);
        let d = &mut d;
        let bytes = |d: &mut Dec| -> Result<Vec<u8>> {
            let n = d.u32()? as usize;
            Ok(d.raw(n)?.to_vec())
        };
        let rid = |d: &mut Dec| -> Result<Rid> { Ok(Rid::new(d.u32()?, d.u16()?)) };
        let rec = (|| {
            Ok(match d.u8()? {
                1 => LogRecord::Begin { txn: d.u64()? },
                2 => LogRecord::Commit { txn: d.u64()? },
                3 => LogRecord::Abort { txn: d.u64()? },
                4 => LogRecord::HeapInsert {
                    txn: d.u64()?,
                    space: d.u32()?,
                    rid: rid(d)?,
                    data: bytes(d)?,
                },
                5 => LogRecord::HeapUpdate {
                    txn: d.u64()?,
                    space: d.u32()?,
                    rid: rid(d)?,
                    before: bytes(d)?,
                    after: bytes(d)?,
                },
                6 => LogRecord::HeapDelete {
                    txn: d.u64()?,
                    space: d.u32()?,
                    rid: rid(d)?,
                    before: bytes(d)?,
                },
                7 => LogRecord::IndexInsert {
                    txn: d.u64()?,
                    space: d.u32()?,
                    anchor: d.u32()?,
                    key: bytes(d)?,
                    value: d.u64()?,
                    prev: if d.u8()? == 1 { Some(d.u64()?) } else { None },
                },
                8 => LogRecord::IndexDelete {
                    txn: d.u64()?,
                    space: d.u32()?,
                    anchor: d.u32()?,
                    key: bytes(d)?,
                    value: d.u64()?,
                },
                CHECKPOINT_TAG => LogRecord::Checkpoint,
                t => return Err(StorageError::WalCorrupt(format!("unknown record type {t}"))),
            })
        })();
        rec.map_err(|e| match e {
            StorageError::WalCorrupt(_) => e,
            e => StorageError::WalCorrupt(e.to_string()),
        })
    }
}

/// Physical storage for log bytes.
pub trait LogStore: Send + Sync {
    /// Append framed bytes to the log tail.
    fn append(&self, bytes: &[u8]) -> Result<()>;
    /// Force the log to durable storage.
    fn flush(&self) -> Result<()>;
    /// Read back the entire log image.
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Durably replace the whole log with `image` (a checkpoint's rewrite).
    /// Atomic: a crash, or an error before the new image is in place, leaves
    /// the old image.
    fn replace(&self, image: &[u8]) -> Result<()>;
}

/// File-backed log. [`LogStore::replace`] writes the new image to a
/// temporary file beside the log (the log's name plus `.tmp`), fsyncs it and
/// renames it over the log; opening ignores a temporary file that a crash
/// left behind.
pub struct FileLogStore {
    file: Mutex<File>,
    path: std::path::PathBuf,
}

impl FileLogStore {
    /// Open or create the log at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(FileLogStore {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        })
    }
}

impl LogStore for FileLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.file.lock().write_all(bytes)?;
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        let mut f = File::open(&self.path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn replace(&self, image: &[u8]) -> Result<()> {
        let mut file = self.file.lock();
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        // The new image's append handle is opened on the temporary file, so
        // it follows the rename and no open can fail once the image is in
        // place.
        let mut next = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&tmp)?;
        next.set_len(0)?;
        next.write_all(image)?;
        next.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        *file = next;
        // Make the rename durable.
        let dir = match self.path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        Ok(())
    }
}

/// In-memory log for tests and CPU-bound benchmarks.
#[derive(Default)]
pub struct MemLogStore {
    buf: Mutex<Vec<u8>>,
}

impl MemLogStore {
    /// Create an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogStore for MemLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.buf.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.buf.lock().clone())
    }

    fn replace(&self, image: &[u8]) -> Result<()> {
        *self.buf.lock() = image.to_vec();
        Ok(())
    }
}

/// Snapshot of the group-commit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    /// Backend fsyncs issued by group-commit flush batches.
    pub fsyncs: u64,
    /// `wait_durable` calls whose LSN was not already durable on arrival
    /// (commits that joined a flush — as leader or waiter — rather than
    /// returning immediately).
    pub group_commits: u64,
    /// Total records covered by all flush batches.
    pub batch_records_total: u64,
    /// Largest number of records one fsync covered.
    pub batch_records_max: u64,
}

/// Live group-commit counters (lock-free; read by the stats surface).
#[derive(Default)]
pub struct WalStats {
    /// Backend fsyncs issued by flush batches.
    pub fsyncs: AtomicU64,
    /// `wait_durable` calls whose LSN was not already durable on arrival.
    pub group_commits: AtomicU64,
    /// Total records covered by flush batches.
    pub batch_records_total: AtomicU64,
    /// Largest record count one fsync covered.
    pub batch_records_max: AtomicU64,
}

impl WalStats {
    /// Read the counters.
    pub fn snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            batch_records_total: self.batch_records_total.load(Ordering::Relaxed),
            batch_records_max: self.batch_records_max.load(Ordering::Relaxed),
        }
    }
}

/// The write-ahead log: frames records, assigns LSNs, and makes commits
/// durable with **group commit**.
///
/// `log()` appends framed bytes to an in-memory staging buffer under a short
/// critical section — no backend I/O is ever performed while holding the
/// state mutex. Committers call [`Wal::wait_durable`] with their commit LSN:
/// the first waiter to find no flush in flight is elected *leader*, takes the
/// whole staging buffer, writes and fsyncs it as one batch outside the lock,
/// advances `durable_lsn`, and wakes every waiter the batch covered. One
/// fsync thereby amortizes across all concurrently committing sessions.
pub struct Wal {
    store: Arc<dyn LogStore>,
    state: Mutex<WalState>,
    flushed: Condvar,
    /// Highest transaction id in the log image found at open.
    last_txn: TxnId,
    /// Group-commit counters.
    pub stats: WalStats,
}

struct WalState {
    /// Next LSN to assign.
    next_lsn: Lsn,
    /// Total framed bytes staged so far (accounting; only advanced once the
    /// record is safely in the staging buffer, so a failed backend append can
    /// never skew the counters).
    bytes_written: u64,
    /// Framed bytes not yet handed to the backend store.
    staging: Vec<u8>,
    /// Record count in `staging`.
    staged_records: u64,
    /// A leader currently owns the store tail (appending and/or fsyncing).
    flushing: bool,
    /// Highest LSN known to be on durable storage.
    durable_lsn: Lsn,
}

impl Wal {
    /// Wrap a log store, resuming the LSN sequence of a previous
    /// incarnation: frames carry their LSNs, so the highest one in the
    /// existing image seeds the counter, and everything already in the
    /// store counts as durable. The highest transaction id is kept too
    /// ([`Wal::last_txn`]). An unreadable store surfaces its error on first
    /// real use, not here.
    pub fn new(store: Arc<dyn LogStore>) -> Arc<Self> {
        let (mut max_lsn, mut last_txn, mut bytes) = (0, 0, 0);
        if let Ok(buf) = store.read_all() {
            for (lsn, payload) in walk_frames(&buf) {
                max_lsn = max_lsn.max(lsn);
                last_txn = last_txn.max(frame_txn(payload).unwrap_or(0));
            }
            bytes = buf.len() as u64;
        }
        Arc::new(Wal {
            store,
            last_txn,
            state: Mutex::new(WalState {
                next_lsn: max_lsn + 1,
                bytes_written: bytes,
                staging: Vec::new(),
                staged_records: 0,
                flushing: false,
                durable_lsn: max_lsn,
            }),
            flushed: Condvar::new(),
            stats: WalStats::default(),
        })
    }

    /// Highest transaction id in the log as it was opened. A transaction
    /// manager numbers its transactions above it, so no new transaction
    /// reuses the id of one whose records recovery still reads.
    pub fn last_txn(&self) -> TxnId {
        self.last_txn
    }

    /// Append a record, returning its LSN. Does not force: the record sits in
    /// the staging buffer until a group-commit flush (or [`Wal::read_records`])
    /// hands it to the backend.
    pub fn log(&self, rec: &LogRecord) -> Result<Lsn> {
        let payload = rec.encode();
        let mut st = self.state.lock();
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        st.bytes_written += payload.len() as u64 + FRAME_HDR as u64;
        push_frame(&mut st.staging, lsn, &payload);
        st.staged_records += 1;
        Ok(lsn)
    }

    /// Block until every record with LSN `<= lsn` is durable. Committers call
    /// this with their commit LSN; whichever waiter finds no flush in flight
    /// becomes the leader and flushes the entire staged batch for everyone.
    pub fn wait_durable(&self, lsn: Lsn) -> Result<()> {
        let mut st = self.state.lock();
        if st.durable_lsn >= lsn {
            return Ok(());
        }
        self.stats.group_commits.fetch_add(1, Ordering::Relaxed);
        loop {
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if st.flushing {
                self.flushed.wait(&mut st);
                continue;
            }
            // Leader election: this thread owns the store tail until the
            // batch is on disk. All LSNs below `target` are either in the
            // batch we are taking or were handed to the store by an earlier
            // leader (whose bytes our fsync also covers).
            let batch = std::mem::take(&mut st.staging);
            let nrecs = std::mem::take(&mut st.staged_records);
            let target = st.next_lsn - 1;
            st.flushing = true;
            drop(st);
            let append_res = if batch.is_empty() {
                Ok(())
            } else {
                self.store.append(&batch)
            };
            if let Err(e) = append_res {
                // The batch never reached the store: put it back at the front
                // of staging so no logged record is lost and the counters
                // stay truthful; a later flusher retries in order.
                let mut st = self.state.lock();
                st.flushing = false;
                let mut restored = batch;
                restored.extend_from_slice(&st.staging);
                st.staging = restored;
                st.staged_records += nrecs;
                self.flushed.notify_all();
                return Err(e);
            }
            let flush_res = self.store.flush();
            st = self.state.lock();
            st.flushing = false;
            match flush_res {
                Ok(()) => {
                    st.durable_lsn = st.durable_lsn.max(target);
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .batch_records_total
                        .fetch_add(nrecs, Ordering::Relaxed);
                    self.stats
                        .batch_records_max
                        .fetch_max(nrecs, Ordering::Relaxed);
                    self.flushed.notify_all();
                    // Loop: durable_lsn now covers our lsn (we staged before
                    // waiting), so the next iteration returns.
                }
                Err(e) => {
                    // Bytes are appended but not durably synced: durable_lsn
                    // stays put; a later successful fsync will cover them.
                    self.flushed.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Force everything logged so far to durable storage.
    pub fn force(&self) -> Result<()> {
        let last = self.state.lock().next_lsn - 1;
        self.wait_durable(last)
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().durable_lsn
    }

    /// Highest LSN assigned so far.
    pub fn current_lsn(&self) -> Lsn {
        self.state.lock().next_lsn - 1
    }

    /// Number of assigned LSNs not yet durable (the replication-shipping
    /// watermark gap).
    pub fn durable_lag(&self) -> u64 {
        let st = self.state.lock();
        (st.next_lsn - 1).saturating_sub(st.durable_lsn)
    }

    /// Total bytes appended so far (the §3.1 "larger log spaces" metric).
    pub fn bytes_written(&self) -> u64 {
        self.state.lock().bytes_written
    }

    /// Total log records appended so far.
    pub fn records_written(&self) -> u64 {
        self.state.lock().next_lsn - 1
    }

    /// Hand any staged bytes to the backend store (without requiring an
    /// fsync), serialized against in-flight group-commit flushes so the store
    /// tail is only ever written by one thread.
    fn drain_staging(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if st.flushing {
                self.flushed.wait(&mut st);
                continue;
            }
            if st.staging.is_empty() {
                return Ok(());
            }
            let batch = std::mem::take(&mut st.staging);
            let nrecs = std::mem::take(&mut st.staged_records);
            st.flushing = true;
            drop(st);
            let res = self.store.append(&batch);
            st = self.state.lock();
            st.flushing = false;
            if let Err(e) = res {
                let mut restored = batch;
                restored.extend_from_slice(&st.staging);
                st.staging = restored;
                st.staged_records += nrecs;
                self.flushed.notify_all();
                return Err(e);
            }
            self.flushed.notify_all();
        }
    }

    /// Decode the whole log (staged records included).
    pub fn read_records(&self) -> Result<Vec<LogRecord>> {
        self.drain_staging()?;
        let buf = self.store.read_all()?;
        let mut recs = Vec::new();
        for (_lsn, payload) in walk_frames(&buf) {
            recs.push(LogRecord::decode(payload)?);
        }
        Ok(recs)
    }

    /// Write a checkpoint record and drop the log prefix, coordinating
    /// with any in-flight group-commit flush.
    ///
    /// The caller must have durably flushed every dirty page first and pass
    /// `keep_from`: the lowest LSN whose effects are *not* guaranteed
    /// durable on pages (in practice `min(oldest active transaction's Begin
    /// LSN, highest assigned LSN at flush time + 1)`). Records below the
    /// floor are dropped; records at or above it — including everything
    /// still in the staging buffer — are carried into the new image behind
    /// the new checkpoint marker, so a commit acknowledged by a concurrent
    /// `wait_durable` is never lost and loser transactions keep their undo
    /// chain. The store swaps the images atomically ([`LogStore::replace`]):
    /// until the new image is durable the old one stays, so a crash or an
    /// error mid-checkpoint leaves every record the old log held, the undo
    /// of transactions in flight included. `durable_lsn` advances to the
    /// checkpoint LSN only once the carried image is on disk.
    pub fn checkpoint(&self, keep_from: Lsn) -> Result<()> {
        let mut st = self.state.lock();
        while st.flushing {
            self.flushed.wait(&mut st);
        }
        let staged = std::mem::take(&mut st.staging);
        let staged_recs = std::mem::take(&mut st.staged_records);
        let payload = LogRecord::Checkpoint.encode();
        let ckpt_lsn = st.next_lsn;
        st.next_lsn += 1;
        st.bytes_written += payload.len() as u64 + FRAME_HDR as u64;
        st.flushing = true;
        drop(st);
        let res = (|| {
            let old = self.store.read_all()?;
            let mut image = Vec::with_capacity(FRAME_HDR + payload.len() + staged.len());
            push_frame(&mut image, ckpt_lsn, &payload);
            // Carry every surviving record behind the new marker. Stale
            // checkpoint markers are dropped so recovery's "start after the
            // last marker" finds the one above and replays everything
            // carried. File order stays LSN order: the old image was
            // LSN-ordered (markers aside) and staged LSNs are above every
            // stored one.
            for (lsn, p) in walk_frames(&old).chain(walk_frames(&staged)) {
                if lsn >= keep_from && p.first() != Some(&CHECKPOINT_TAG) {
                    push_frame(&mut image, lsn, p);
                }
            }
            self.store.replace(&image)
        })();
        let mut st = self.state.lock();
        st.flushing = false;
        match &res {
            Ok(()) => {
                // Every LSN <= ckpt_lsn is now either durable in the
                // rewritten log or (below `keep_from`) durable as a flushed
                // page image, so the watermark may cover the dropped records
                // — and must cover the carried ones, whose committers are
                // parked in wait_durable.
                st.durable_lsn = st.durable_lsn.max(ckpt_lsn);
            }
            Err(_) => {
                // The store holds its old image, or (when only the final
                // directory fsync failed) the new one; restage the staged
                // batch so no record is lost in memory. Redo is idempotent,
                // so a record both carried and appended again is harmless.
                let mut restored = staged;
                restored.extend_from_slice(&st.staging);
                st.staging = restored;
                st.staged_records += staged_recs;
            }
        }
        drop(st);
        self.flushed.notify_all();
        res
    }
}

/// Handles recovery needs to reach the physical structures named in the log.
#[derive(Default)]
pub struct RecoveryEnv {
    /// Heap table per space id.
    pub heaps: HashMap<SpaceId, Arc<HeapTable>>,
    /// B+tree per (space id, anchor slot).
    pub indexes: HashMap<(SpaceId, u32), Arc<BTree>>,
}

impl RecoveryEnv {
    /// The heap or tree a data record names, if the environment has it
    /// (records of dropped spaces have none and are skipped).
    fn target(&self, rec: &LogRecord) -> Option<Target> {
        match rec {
            LogRecord::HeapInsert { space, .. }
            | LogRecord::HeapUpdate { space, .. }
            | LogRecord::HeapDelete { space, .. } => {
                self.heaps.get(space).cloned().map(Target::Heap)
            }
            LogRecord::IndexInsert { space, anchor, .. }
            | LogRecord::IndexDelete { space, anchor, .. } => self
                .indexes
                .get(&(*space, *anchor))
                .cloned()
                .map(Target::Index),
            _ => None,
        }
    }
}

/// Outcome counters from a recovery pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed in the redo pass.
    pub redone: usize,
    /// Compensations applied to roll losers back.
    pub undone: usize,
    /// Transactions that had committed.
    pub winners: usize,
    /// Transactions in flight at the crash.
    pub losers: usize,
}

/// Give back the heap space a finished transaction held. A transaction's
/// deletes reserve their slots, and its in-place shrinks — forward updates
/// and compensations alike — keep the bytes they freed
/// ([`LogRecord::apply`]), so no other transaction can take either before
/// the transaction's `Commit` or `Abort` is in the log, and reversing any of
/// its records (a rollback, or recovery finishing a rollback a crash cut
/// short) always fits; once it is, they are released here. A slot a
/// rollback reinstated is live again and left alone.
pub(crate) fn release_reservations<'a>(
    written: impl IntoIterator<Item = (&'a LogRecord, &'a Target)>,
) -> Result<()> {
    for (rec, target) in written {
        if let (
            LogRecord::HeapInsert { rid, .. }
            | LogRecord::HeapUpdate { rid, .. }
            | LogRecord::HeapDelete { rid, .. },
            Target::Heap(h),
        ) = (rec, target)
        {
            h.release(*rid)?;
        }
    }
    Ok(())
}

/// Roll transaction `txn` back: for each of its data records, newest first,
/// apply the record's compensation, then log it; then log `Abort`, wait
/// until it is durable, and release the heap space the compensations
/// reserved.
/// Runtime rollback and recovery's loser pass both end a transaction here.
///
/// `written` is every data record the transaction logged, in log order,
/// including compensations an interrupted rollback logged before a crash.
/// Reversing those too nets out: each compensation sets its slot or key
/// outright, so the last one applied to a slot or key — the compensation of
/// the transaction's first record on it — leaves it as it was before the
/// transaction. No other transaction can have touched it in between: keys
/// are covered by the transaction's locks and slots by their reservations,
/// both held until `Abort` is logged.
///
/// A compensation that fails to apply is not logged; the others still run,
/// and the first error is returned. Returns the compensations applied.
pub(crate) fn roll_back<'a>(
    wal: &Wal,
    txn: TxnId,
    written: impl DoubleEndedIterator<Item = (&'a LogRecord, &'a Target)>,
) -> Result<usize> {
    let mut applied = Vec::new();
    let mut first_err = None;
    for (rec, target) in written.rev() {
        let Some(comp) = rec.compensation() else {
            continue;
        };
        match comp.apply(target) {
            Ok(()) => {
                wal.log(&comp)?;
                applied.push((comp, target));
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    let lsn = wal.log(&LogRecord::Abort { txn })?;
    wal.wait_durable(lsn)?;
    release_reservations(applied.iter().map(|(r, t)| (r, *t)))?;
    first_err.map_or(Ok(applied.len()), Err)
}

/// ARIES-style recovery: repeat history (redo everything after the last
/// checkpoint in order), then roll every loser back through `roll_back`,
/// which logs its compensations and an `Abort`, so a second crash finds the
/// loser finished.
pub fn recover(wal: &Wal, env: &RecoveryEnv) -> Result<RecoveryReport> {
    let all = wal.read_records()?;
    // Start from the last checkpoint.
    let start = all
        .iter()
        .rposition(|r| matches!(r, LogRecord::Checkpoint))
        .map(|i| i + 1)
        .unwrap_or(0);
    let recs = &all[start..];

    // The one physical repair: the log names pages (via RIDs) that the
    // crashed run allocated but whose space headers may not have been
    // flushed. Raise each space's high-water mark past every logged page so
    // redo-time allocations never clobber them and heap scans reach them.
    {
        let mut max_page: HashMap<SpaceId, u32> = HashMap::new();
        for r in recs {
            let (space, page) = match r {
                LogRecord::HeapInsert { space, rid, .. }
                | LogRecord::HeapUpdate { space, rid, .. }
                | LogRecord::HeapDelete { space, rid, .. } => (*space, rid.page),
                _ => continue,
            };
            let e = max_page.entry(space).or_insert(0);
            *e = (*e).max(page);
        }
        for (space, page) in max_page {
            if let Some(h) = env.heaps.get(&space) {
                h.space().ensure_high_water(page + 1)?;
            }
        }
    }

    // Redo pass: repeat history for every transaction, aborted ones too
    // (their compensations are in the log), including the release of the
    // heap space a finished transaction reserved at its `Commit` or `Abort`.
    let mut report = RecoveryReport::default();
    let mut started: HashSet<TxnId> = HashSet::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    let mut written: HashMap<TxnId, Vec<(&LogRecord, Target)>> = HashMap::new();
    for r in recs {
        match r {
            LogRecord::Begin { txn } => {
                started.insert(*txn);
            }
            LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                if matches!(r, LogRecord::Commit { .. }) {
                    committed.insert(*txn);
                } else {
                    // A Commit followed by an Abort happens when the
                    // commit's group flush failed and the session rolled
                    // back after being told the commit did not take: the
                    // abort is authoritative (its compensations follow the
                    // Commit in the log).
                    committed.remove(txn);
                    aborted.insert(*txn);
                }
                let done = written.remove(txn).unwrap_or_default();
                release_reservations(done.iter().map(|(r, t)| (*r, t)))?;
            }
            _ => {
                if let Some(target) = env.target(r) {
                    r.apply(&target)?;
                    report.redone += 1;
                    if let Some(txn) = r.txn() {
                        written.entry(txn).or_default().push((r, target));
                    }
                }
            }
        }
    }
    report.winners = committed.len();

    // Loser pass: each loser rolls back as at runtime. Losers touch disjoint
    // documents and slots (their locks and reservations were held to the
    // crash), so their order does not matter; the latest first mirrors a
    // reverse log scan.
    let mut losers: Vec<TxnId> = started
        .into_iter()
        .filter(|t| !committed.contains(t) && !aborted.contains(t))
        .collect();
    losers.sort_unstable_by(|a, b| b.cmp(a));
    report.losers = losers.len();
    for txn in losers {
        let recs = written.remove(&txn).unwrap_or_default();
        report.undone += roll_back(wal, txn, recs.iter().map(|(r, t)| (*r, t)))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::buffer::BufferPool;
    use crate::space::TableSpace;
    use std::collections::BTreeMap;

    /// A heap holding records at slots 0 and 1 of its first page, and a
    /// tree holding `k = 7`, in one space.
    fn stores() -> (Arc<HeapTable>, Arc<BTree>) {
        let pool = BufferPool::new(64);
        let space = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
        let heap = HeapTable::create(Arc::clone(&space)).unwrap();
        heap.insert(b"zero").unwrap();
        heap.insert(b"one").unwrap();
        let tree = BTree::create(space, 2).unwrap();
        tree.insert(b"k", 7).unwrap();
        (heap, tree)
    }

    /// Everything a heap and a tree hold: visible records, reserved slots,
    /// entries.
    type State = (BTreeMap<Rid, Vec<u8>>, u64, Vec<(Vec<u8>, u64)>);

    fn state(heap: &HeapTable, tree: &BTree) -> State {
        let mut recs = BTreeMap::new();
        heap.scan(|rid, rec| {
            recs.insert(rid, rec.to_vec());
            true
        })
        .unwrap();
        let mut entries = Vec::new();
        tree.scan_all(|k, v| {
            entries.push((k.to_vec(), v));
            true
        })
        .unwrap();
        (recs, heap.stats().unwrap().reserved, entries)
    }

    /// Apply `rec`, then its compensation, then end the transaction:
    /// heap and tree are exactly as before.
    fn assert_compensation_restores(rec: LogRecord) {
        let (heap, tree) = stores();
        let target = match rec {
            LogRecord::IndexInsert { .. } | LogRecord::IndexDelete { .. } => {
                Target::Index(Arc::clone(&tree))
            }
            _ => Target::Heap(Arc::clone(&heap)),
        };
        let before = state(&heap, &tree);
        rec.apply(&target).unwrap();
        assert_ne!(state(&heap, &tree), before, "{rec:?} changes nothing");
        let comp = rec.compensation().unwrap();
        assert_eq!(comp.txn(), rec.txn());
        comp.apply(&target).unwrap();
        release_reservations([(&rec, &target), (&comp, &target)]).unwrap();
        assert_eq!(state(&heap, &tree), before, "{rec:?} then {comp:?}");
    }

    #[test]
    fn heap_insert_then_compensation_restores_the_heap() {
        assert_compensation_restores(LogRecord::HeapInsert {
            txn: 1,
            space: 1,
            rid: Rid::new(1, 2),
            data: b"two".to_vec(),
        });
    }

    #[test]
    fn heap_update_then_compensation_restores_the_heap() {
        assert_compensation_restores(LogRecord::HeapUpdate {
            txn: 1,
            space: 1,
            rid: Rid::new(1, 1),
            before: b"one".to_vec(),
            after: b"a longer body for one".to_vec(),
        });
    }

    #[test]
    fn heap_delete_then_compensation_restores_the_heap() {
        assert_compensation_restores(LogRecord::HeapDelete {
            txn: 1,
            space: 1,
            rid: Rid::new(1, 0),
            before: b"zero".to_vec(),
        });
    }

    #[test]
    fn fresh_index_insert_then_compensation_restores_the_tree() {
        assert_compensation_restores(LogRecord::IndexInsert {
            txn: 1,
            space: 1,
            anchor: 2,
            key: b"new".to_vec(),
            value: 9,
            prev: None,
        });
    }

    #[test]
    fn replacing_index_insert_then_compensation_restores_the_tree() {
        assert_compensation_restores(LogRecord::IndexInsert {
            txn: 1,
            space: 1,
            anchor: 2,
            key: b"k".to_vec(),
            value: 8,
            prev: Some(7),
        });
    }

    #[test]
    fn index_delete_then_compensation_restores_the_tree() {
        assert_compensation_restores(LogRecord::IndexDelete {
            txn: 1,
            space: 1,
            anchor: 2,
            key: b"k".to_vec(),
            value: 7,
        });
    }

    #[test]
    fn control_records_have_no_compensation() {
        for rec in [
            LogRecord::Begin { txn: 1 },
            LogRecord::Commit { txn: 1 },
            LogRecord::Abort { txn: 1 },
            LogRecord::Checkpoint,
        ] {
            assert_eq!(rec.compensation(), None);
        }
    }

    /// Recovery finishes a loser in the log — compensations, then `Abort` —
    /// so a second recovery finds no loser, and the log's highest
    /// transaction id survives a reopen.
    #[test]
    fn recovery_logs_the_losers_rollback() {
        let (heap, _) = stores();
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone());
        let insert = LogRecord::HeapInsert {
            txn: 5,
            space: 1,
            rid: Rid::new(1, 2),
            data: b"two".to_vec(),
        };
        wal.log(&LogRecord::Begin { txn: 5 }).unwrap();
        wal.log(&insert).unwrap();
        wal.force().unwrap();
        let env = RecoveryEnv {
            heaps: HashMap::from([(1, Arc::clone(&heap))]),
            ..Default::default()
        };
        let wal = Wal::new(store.clone());
        assert_eq!(wal.last_txn(), 5);
        let report = recover(&wal, &env).unwrap();
        assert_eq!((report.losers, report.undone), (1, 1));
        assert_eq!(
            wal.read_records().unwrap()[2..],
            [insert.compensation().unwrap(), LogRecord::Abort { txn: 5 }]
        );
        assert!(heap.fetch(Rid::new(1, 2)).is_err());
        assert_eq!(heap.stats().unwrap().reserved, 0);
        let report = recover(&Wal::new(store), &env).unwrap();
        assert_eq!(report.losers, 0);
    }

    #[test]
    fn record_roundtrip() {
        let recs = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::HeapInsert {
                txn: 1,
                space: 2,
                rid: Rid::new(3, 4),
                data: b"payload".to_vec(),
            },
            LogRecord::HeapUpdate {
                txn: 1,
                space: 2,
                rid: Rid::new(3, 4),
                before: b"old".to_vec(),
                after: b"new".to_vec(),
            },
            LogRecord::HeapDelete {
                txn: 1,
                space: 2,
                rid: Rid::new(9, 1),
                before: b"gone".to_vec(),
            },
            LogRecord::IndexInsert {
                txn: 1,
                space: 5,
                anchor: 2,
                key: b"key".to_vec(),
                value: 77,
                prev: Some(66),
            },
            LogRecord::IndexDelete {
                txn: 1,
                space: 5,
                anchor: 2,
                key: b"key".to_vec(),
                value: 77,
            },
            LogRecord::Commit { txn: 1 },
            LogRecord::Abort { txn: 2 },
            LogRecord::Checkpoint,
        ];
        for r in recs {
            assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
        }
    }

    /// The log bytes of one record of each variant (and both `prev` forms
    /// of an index insert), as the format has always written them.
    #[test]
    fn record_bytes_are_pinned() {
        let txn = 0x0102_0304_0506_0708;
        let space = 0x0A0B_0C0D;
        let rid = Rid::new(0x1112_1314, 0x1516);
        let (anchor, value) = (0x2122_2324, 0x3132_3334_3536_3738);
        let pins = [
            (LogRecord::Begin { txn }, "010807060504030201"),
            (LogRecord::Commit { txn }, "020807060504030201"),
            (LogRecord::Abort { txn }, "030807060504030201"),
            (
                LogRecord::HeapInsert {
                    txn,
                    space,
                    rid,
                    data: b"ab".to_vec(),
                },
                "0408070605040302010d0c0b0a141312111615020000006162",
            ),
            (
                LogRecord::HeapUpdate {
                    txn,
                    space,
                    rid,
                    before: b"ab".to_vec(),
                    after: b"xyz".to_vec(),
                },
                "0508070605040302010d0c0b0a1413121116150200000061620300000078797a",
            ),
            (
                LogRecord::HeapDelete {
                    txn,
                    space,
                    rid,
                    before: b"q".to_vec(),
                },
                "0608070605040302010d0c0b0a1413121116150100000071",
            ),
            (
                LogRecord::IndexInsert {
                    txn,
                    space,
                    anchor,
                    key: b"k".to_vec(),
                    value,
                    prev: Some(0x4142_4344_4546_4748),
                },
                "0708070605040302010d0c0b0a24232221010000006b3837363534333231014847464544434241",
            ),
            (
                LogRecord::IndexInsert {
                    txn,
                    space,
                    anchor,
                    key: Vec::new(),
                    value,
                    prev: None,
                },
                "0708070605040302010d0c0b0a2423222100000000383736353433323100",
            ),
            (
                LogRecord::IndexDelete {
                    txn,
                    space,
                    anchor,
                    key: b"k".to_vec(),
                    value,
                },
                "0808070605040302010d0c0b0a24232221010000006b3837363534333231",
            ),
            (LogRecord::Checkpoint, "09"),
        ];
        for (rec, hex) in pins {
            let bytes = rec.encode();
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{rec:?}");
            assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
            // Every proper prefix is a corrupt record, never a panic.
            for n in 0..bytes.len() {
                assert!(matches!(
                    LogRecord::decode(&bytes[..n]),
                    Err(StorageError::WalCorrupt(_))
                ));
            }
        }
    }

    #[test]
    fn wal_append_and_read() {
        let wal = Wal::new(Arc::new(MemLogStore::new()));
        let l1 = wal.log(&LogRecord::Begin { txn: 1 }).unwrap();
        let l2 = wal.log(&LogRecord::Commit { txn: 1 }).unwrap();
        assert!(l2 > l1);
        let recs = wal.read_records().unwrap();
        assert_eq!(recs.len(), 2);
        assert!(wal.bytes_written() > 0);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone());
        wal.log(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.force().unwrap();
        // Simulate a crash mid-append: framed length says 100 but only 2 bytes follow.
        store.append(&100u32.to_le_bytes()).unwrap();
        store.append(&[1, 2]).unwrap();
        let recs = wal.read_records().unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn one_fsync_covers_a_whole_batch() {
        let wal = Wal::new(Arc::new(MemLogStore::new()));
        let mut last = 0;
        for i in 0..10 {
            last = wal.log(&LogRecord::Begin { txn: i }).unwrap();
        }
        assert_eq!(wal.durable_lsn(), 0);
        assert_eq!(wal.durable_lag(), 10);
        wal.wait_durable(last).unwrap();
        let s = wal.stats.snapshot();
        assert_eq!(s.fsyncs, 1, "one batch, one fsync");
        assert_eq!(s.batch_records_max, 10);
        assert_eq!(wal.durable_lsn(), last);
        assert_eq!(wal.durable_lag(), 0);
        // Already durable: no further fsync.
        wal.wait_durable(last).unwrap();
        wal.force().unwrap();
        assert_eq!(wal.stats.snapshot().fsyncs, 1);
    }

    #[test]
    fn read_records_sees_staged_records() {
        let wal = Wal::new(Arc::new(MemLogStore::new()));
        wal.log(&LogRecord::Begin { txn: 1 }).unwrap();
        // Not forced: still in staging, but visible to readers.
        assert_eq!(wal.read_records().unwrap().len(), 1);
        // Draining does not make records durable.
        assert_eq!(wal.durable_lsn(), 0);
    }

    #[test]
    fn concurrent_commits_share_fsyncs() {
        let wal = Wal::new(Arc::new(MemLogStore::new()));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..50 {
                        wal.log(&LogRecord::Begin { txn: t * 1000 + i }).unwrap();
                        let lsn = wal.log(&LogRecord::Commit { txn: t * 1000 + i }).unwrap();
                        wal.wait_durable(lsn).unwrap();
                    }
                });
            }
        });
        let s = wal.stats.snapshot();
        assert_eq!(wal.records_written(), 800);
        assert_eq!(wal.durable_lag(), 0);
        assert!(s.fsyncs <= s.group_commits, "{s:?}");
        assert_eq!(wal.read_records().unwrap().len(), 800);
    }

    #[test]
    fn checkpoint_truncates() {
        let wal = Wal::new(Arc::new(MemLogStore::new()));
        for i in 0..10 {
            wal.log(&LogRecord::Begin { txn: i }).unwrap();
        }
        // Keep floor above every assigned LSN: everything is truncated away.
        wal.checkpoint(wal.current_lsn() + 1).unwrap();
        let recs = wal.read_records().unwrap();
        assert_eq!(recs, vec![LogRecord::Checkpoint]);
    }

    #[test]
    fn checkpoint_carries_records_from_keep_floor() {
        let wal = Wal::new(Arc::new(MemLogStore::new()));
        wal.log(&LogRecord::Begin { txn: 1 }).unwrap();
        let l = wal.log(&LogRecord::Commit { txn: 1 }).unwrap();
        wal.wait_durable(l).unwrap();
        let begin2 = wal.log(&LogRecord::Begin { txn: 2 }).unwrap();
        let commit2 = wal.log(&LogRecord::Commit { txn: 2 }).unwrap();
        // Txn 2's records are still staged; the checkpoint keeps from its
        // Begin, so both must survive the truncation and become durable
        // (a committer parked in wait_durable(commit2) gets a truthful ack).
        wal.checkpoint(begin2).unwrap();
        assert!(wal.durable_lsn() >= commit2);
        let recs = wal.read_records().unwrap();
        assert_eq!(
            recs,
            vec![
                LogRecord::Checkpoint,
                LogRecord::Begin { txn: 2 },
                LogRecord::Commit { txn: 2 },
            ]
        );
        // A second checkpoint with the same floor keeps exactly one marker.
        wal.checkpoint(begin2).unwrap();
        let recs = wal.read_records().unwrap();
        assert_eq!(
            recs.iter()
                .filter(|r| matches!(r, LogRecord::Checkpoint))
                .count(),
            1
        );
        assert!(recs.contains(&LogRecord::Commit { txn: 2 }));
    }

    #[test]
    fn lsn_sequence_resumes_across_reopen() {
        let store = Arc::new(MemLogStore::new());
        let last = {
            let wal = Wal::new(store.clone());
            wal.log(&LogRecord::Begin { txn: 1 }).unwrap();
            let l = wal.log(&LogRecord::Commit { txn: 1 }).unwrap();
            wal.wait_durable(l).unwrap();
            l
        };
        let wal = Wal::new(store);
        assert_eq!(wal.durable_lsn(), last);
        assert_eq!(wal.durable_lag(), 0);
        assert!(wal.log(&LogRecord::Begin { txn: 2 }).unwrap() > last);
    }

    #[test]
    fn abort_after_commit_classifies_as_aborted() {
        // A failed commit flush leaves a Commit record that a later batch
        // flushes, followed by the rollback's Abort: recovery must treat the
        // transaction as aborted, not redo it as a winner.
        let wal = Wal::new(Arc::new(MemLogStore::new()));
        wal.log(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.log(&LogRecord::Commit { txn: 1 }).unwrap();
        wal.log(&LogRecord::Abort { txn: 1 }).unwrap();
        wal.force().unwrap();
        let report = recover(&wal, &RecoveryEnv::default()).unwrap();
        assert_eq!(report.winners, 0);
        assert_eq!(report.losers, 0);
    }
}
