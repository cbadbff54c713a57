//! Transactions.
//!
//! Ties together the WAL (durability), the lock manager (isolation) and
//! rollback (atomicity). Every logged write goes through a write helper on
//! [`Txn`] — [`Txn::heap_insert`], [`Txn::heap_update`],
//! [`Txn::heap_delete`], [`Txn::index_insert`], [`Txn::index_delete`] — which
//! makes the change, logs the record after it, and keeps the record in the
//! transaction's own list. Commit forces the log, releases the heap space
//! the transaction's deletes and in-place shrinks reserved, and releases
//! locks; rollback hands the
//! list to `roll_back`, which applies and logs each record's compensation,
//! newest first — the same routine recovery finishes losers with
//! (DESIGN.md §15).
//!
//! `Begin` is logged lazily, just ahead of the transaction's first record. A
//! transaction that never logs — every read-only one — writes no `Begin`,
//! `Commit` or `Abort` and never waits for a group-commit fsync: it only
//! releases its locks (DESIGN.md §8.4).

use crate::btree::BTree;
use crate::error::{Result, StorageError};
use crate::heap::HeapTable;
use crate::lock::{LockManager, LockMode, LockName};
use crate::rid::Rid;
use crate::wal::{release_reservations, roll_back, LogRecord, Lsn, Target, TxnId, Wal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct TxnState {
    /// LSN of the transaction's Begin record (the undo keep-floor a
    /// checkpoint must not truncate past while the txn is in flight); `None`
    /// until the transaction logs its first record.
    begin_lsn: Option<Lsn>,
}

/// Allocates transaction ids and tracks active transactions.
pub struct TxnManager {
    wal: Arc<Wal>,
    locks: Arc<LockManager>,
    next: AtomicU64,
    active: Mutex<HashMap<TxnId, TxnState>>,
}

impl TxnManager {
    /// Create a transaction manager over a WAL and lock manager. Ids resume
    /// above the highest one in the log, so a new transaction never shares
    /// an id with a loser recovery rolls back.
    pub fn new(wal: Arc<Wal>, locks: Arc<LockManager>) -> Arc<Self> {
        Arc::new(TxnManager {
            next: AtomicU64::new(wal.last_txn() + 1),
            wal,
            locks,
            active: Mutex::new(HashMap::new()),
        })
    }

    /// The lock manager shared with this transaction domain.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Begin a new transaction. Nothing is logged yet: the `Begin` record
    /// is written just ahead of the transaction's first record.
    pub fn begin(self: &Arc<Self>) -> Result<Txn> {
        let id = self.next.fetch_add(1, Ordering::AcqRel);
        self.active.lock().insert(id, TxnState { begin_lsn: None });
        Ok(Txn {
            id,
            mgr: Arc::clone(self),
            logged: AtomicBool::new(false),
            written: Mutex::new(Vec::new()),
            finished: false,
        })
    }

    /// Number of in-flight transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Lowest Begin LSN among in-flight transactions — a checkpoint must not
    /// truncate log records at or above this point, or recovery loses the
    /// undo chain (and possibly the eventual commit) of a live transaction.
    /// Transactions that have not logged yet are skipped: their `Begin` will
    /// get an LSN above any barrier taken now.
    pub fn oldest_active_lsn(&self) -> Option<Lsn> {
        self.active
            .lock()
            .values()
            .filter_map(|s| s.begin_lsn)
            .min()
    }

    /// Remove the transaction and release its locks.
    fn finish(&self, id: TxnId) {
        self.active.lock().remove(&id);
        self.locks.unlock_all(id);
    }
}

/// A live transaction handle. Dropping an unfinished transaction rolls it back.
pub struct Txn {
    id: TxnId,
    mgr: Arc<TxnManager>,
    /// Set once the `Begin` record is logged (the lock-free fast path of
    /// [`Txn::log`]; `TxnState::begin_lsn` under `active` is authoritative).
    logged: AtomicBool,
    /// Every data record this transaction logged, in log order, with the
    /// heap or tree it names: what commit releases and rollback reverses.
    written: Mutex<Vec<(LogRecord, Target)>>,
    finished: bool,
}

impl Txn {
    /// The transaction id (used in log records and lock ownership).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Whether this transaction has logged anything (its `Begin` is in the
    /// log): false for every read-only transaction.
    pub fn has_logged(&self) -> bool {
        self.logged.load(Ordering::Acquire)
    }

    /// Append a log record on behalf of this transaction, preceded by its
    /// `Begin` record if this is the first one. A data record logged here
    /// is not rolled back; writes go through the write helpers.
    pub fn log(&self, rec: &LogRecord) -> Result<Lsn> {
        debug_assert_eq!(rec.txn(), Some(self.id), "record must carry this txn id");
        if !self.has_logged() {
            self.log_begin()?;
        }
        self.mgr.wal.log(rec)
    }

    /// Log `Begin` unless a racing first `log` already did. Serialized by the
    /// `active` mutex, so `Begin` is always the transaction's first record.
    fn log_begin(&self) -> Result<()> {
        let mut active = self.mgr.active.lock();
        let st = active
            .get_mut(&self.id)
            .ok_or(StorageError::TxnNotActive(self.id))?;
        if st.begin_lsn.is_none() {
            st.begin_lsn = Some(self.mgr.wal.log(&LogRecord::Begin { txn: self.id })?);
        }
        self.logged.store(true, Ordering::Release);
        Ok(())
    }

    /// Log a data record whose change is already made, and keep it for
    /// commit and rollback. Logging after the change is what lets a
    /// checkpoint truncate below its barrier (`Database::checkpoint`).
    fn wrote(&self, rec: LogRecord, target: Target) -> Result<()> {
        self.log(&rec)?;
        self.written.lock().push((rec, target));
        Ok(())
    }

    /// Insert a heap record, returning its RID.
    pub fn heap_insert(&self, heap: &Arc<HeapTable>, data: Vec<u8>) -> Result<Rid> {
        let rid = heap.insert(&data)?;
        let rec = LogRecord::HeapInsert {
            txn: self.id,
            space: heap.space().id(),
            rid,
            data,
        };
        self.wrote(rec, Target::Heap(Arc::clone(heap)))?;
        Ok(rid)
    }

    /// Replace the heap record at `rid`, returning its (possibly new) RID.
    /// In place it logs one `HeapUpdate`, and a shrink keeps the bytes it
    /// freed reserved until the transaction ends, so its rollback always
    /// fits; a record that no longer fits its page moves, logged as a delete
    /// of the old RID and an insert.
    pub fn heap_update(&self, heap: &Arc<HeapTable>, rid: Rid, data: Vec<u8>) -> Result<Rid> {
        let before = heap.fetch(rid)?;
        if !heap.update_in_place(rid, &data)? {
            self.heap_delete(heap, rid)?;
            return self.heap_insert(heap, data);
        }
        let rec = LogRecord::HeapUpdate {
            txn: self.id,
            space: heap.space().id(),
            rid,
            before,
            after: data,
        };
        self.wrote(rec, Target::Heap(Arc::clone(heap)))?;
        Ok(rid)
    }

    /// Delete the heap record at `rid`. Its slot stays reserved — no reader
    /// sees the record, no insert reuses the slot — until commit frees it or
    /// rollback reinstalls the record.
    pub fn heap_delete(&self, heap: &Arc<HeapTable>, rid: Rid) -> Result<()> {
        let before = heap.reserve(rid)?;
        let rec = LogRecord::HeapDelete {
            txn: self.id,
            space: heap.space().id(),
            rid,
            before,
        };
        self.wrote(rec, Target::Heap(Arc::clone(heap)))
    }

    /// Insert or replace a B+tree entry, returning the value it replaced.
    pub fn index_insert(&self, tree: &Arc<BTree>, key: Vec<u8>, value: u64) -> Result<Option<u64>> {
        let prev = tree.insert(&key, value)?;
        let rec = LogRecord::IndexInsert {
            txn: self.id,
            space: tree.space().id(),
            anchor: tree.anchor() as u32,
            key,
            value,
            prev,
        };
        self.wrote(rec, Target::Index(Arc::clone(tree)))?;
        Ok(prev)
    }

    /// Delete a B+tree entry, returning its value; an absent key logs
    /// nothing.
    pub fn index_delete(&self, tree: &Arc<BTree>, key: Vec<u8>) -> Result<Option<u64>> {
        let Some(value) = tree.delete(&key)? else {
            return Ok(None);
        };
        let rec = LogRecord::IndexDelete {
            txn: self.id,
            space: tree.space().id(),
            anchor: tree.anchor() as u32,
            key,
            value,
        };
        self.wrote(rec, Target::Index(Arc::clone(tree)))?;
        Ok(Some(value))
    }

    /// Acquire a lock for this transaction (blocking).
    pub fn lock(&self, name: &LockName, mode: LockMode) -> Result<()> {
        self.mgr.locks.lock(self.id, name, mode)
    }

    /// Acquire a list of locks in order (see [`LockManager::lock_many`]):
    /// those granted at once are granted under one hold of the lock
    /// manager's mutex.
    pub fn lock_many(
        &self,
        requests: impl IntoIterator<Item = (LockName, LockMode)>,
    ) -> Result<()> {
        self.mgr.locks.lock_many(self.id, requests)
    }

    /// Try to acquire a lock without blocking.
    pub fn try_lock(&self, name: &LockName, mode: LockMode) -> Result<bool> {
        self.mgr.locks.try_lock(self.id, name, mode)
    }

    /// Commit: wait until the commit record is durable (joining the current
    /// group-commit batch rather than forcing a private fsync), release the
    /// heap space the transaction's deletes and in-place shrinks reserved,
    /// release locks. A
    /// transaction that logged nothing has nothing to make durable: it
    /// writes no `Commit` and skips the wait.
    pub fn commit(mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        if self.has_logged() {
            let lsn = self.log(&LogRecord::Commit { txn: self.id })?;
            self.mgr.wal.wait_durable(lsn)?;
        }
        let written = std::mem::take(self.written.get_mut());
        let released = release_reservations(written.iter().map(|(r, t)| (r, t)));
        self.end();
        released
    }

    /// Roll back through `roll_back`: apply and log each record's
    /// compensation, newest first, then log the abort (unless the
    /// transaction never logged anything).
    pub fn rollback(mut self) -> Result<()> {
        self.rollback_inner()
    }

    fn rollback_inner(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        let written = std::mem::take(self.written.get_mut());
        let undone = if self.has_logged() {
            roll_back(&self.mgr.wal, self.id, written.iter().map(|(r, t)| (r, t))).map(drop)
        } else {
            Ok(())
        };
        self.end();
        undone
    }

    /// Leave the active set and release locks.
    fn end(&mut self) {
        self.mgr.finish(self.id);
        self.finished = true;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.rollback_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::buffer::BufferPool;
    use crate::space::TableSpace;
    use crate::wal::MemLogStore;

    fn mgr() -> Arc<TxnManager> {
        TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        )
    }

    /// A heap (space 1) and a B+tree at anchor 2 of the same space.
    fn stores() -> (Arc<HeapTable>, Arc<BTree>) {
        let pool = BufferPool::new(64);
        let space = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
        let heap = HeapTable::create(Arc::clone(&space)).unwrap();
        (heap, BTree::create(space, 2).unwrap())
    }

    /// Every record the log holds for `txn`, in order.
    fn records_of(m: &TxnManager, txn: TxnId) -> Vec<LogRecord> {
        let recs = m.wal().read_records().unwrap();
        recs.into_iter().filter(|r| r.txn() == Some(txn)).collect()
    }

    /// A data record owned by `txn` (its contents never matter here).
    fn insert(txn: TxnId, slot: u16) -> LogRecord {
        LogRecord::HeapInsert {
            txn,
            space: 1,
            rid: Rid::new(1, slot),
            data: vec![slot as u8],
        }
    }

    /// `(records written, fsyncs)`: what a read-only transaction must not move.
    fn wal_counters(m: &TxnManager) -> (u64, u64) {
        (m.wal().records_written(), m.wal().stats.snapshot().fsyncs)
    }

    #[test]
    fn lock_only_commit_releases_locks_and_logs_nothing() {
        let m = mgr();
        let t = m.begin().unwrap();
        let id = t.id();
        t.lock(&LockName::Table(1), LockMode::X).unwrap();
        assert_eq!(m.locks().held_count(id), 1);
        t.commit().unwrap();
        assert_eq!(m.locks().held_count(id), 0);
        assert_eq!(m.active_count(), 0);
        assert!(m.wal().read_records().unwrap().is_empty());
    }

    #[test]
    fn read_only_finish_skips_the_wal() {
        let m = mgr();
        let read = |t: &Txn| {
            t.lock(&LockName::Table(1), LockMode::S).unwrap();
            assert!(!t.has_logged());
        };
        let before = wal_counters(&m);
        let t = m.begin().unwrap();
        read(&t);
        t.commit().unwrap();
        let t = m.begin().unwrap();
        read(&t);
        t.rollback().unwrap();
        let id = {
            let t = m.begin().unwrap();
            read(&t);
            t.id()
            // dropped without commit
        };
        assert_eq!(wal_counters(&m), before);
        assert_eq!(m.locks().held_count(id), 0);
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    fn begin_precedes_first_record() {
        let m = mgr();
        // A reader that opened first and never logs leaves no trace.
        let reader = m.begin().unwrap();
        let t = m.begin().unwrap();
        let id = t.id();
        t.log(&insert(id, 1)).unwrap();
        assert!(t.has_logged() && !reader.has_logged());
        t.log(&insert(id, 2)).unwrap();
        t.commit().unwrap();
        reader.commit().unwrap();
        assert_eq!(
            m.wal().read_records().unwrap(),
            vec![
                LogRecord::Begin { txn: id },
                insert(id, 1),
                insert(id, 2),
                LogRecord::Commit { txn: id },
            ]
        );
        assert_eq!(m.wal().stats.snapshot().fsyncs, 1);
    }

    #[test]
    fn begin_precedes_compensations_on_rollback() {
        let m = mgr();
        let (heap, _) = stores();
        // A writer: Begin, its record, the compensation, Abort.
        let t = m.begin().unwrap();
        let a = t.id();
        let rid = t.heap_insert(&heap, b"a".to_vec()).unwrap();
        t.rollback().unwrap();
        // A transaction whose first write is a delete: its compensation
        // still follows Begin.
        let t = m.begin().unwrap();
        let kept = t.heap_insert(&heap, b"kept".to_vec()).unwrap();
        t.commit().unwrap();
        let t = m.begin().unwrap();
        let b = t.id();
        t.heap_delete(&heap, kept).unwrap();
        drop(t);
        let heap_rec = |txn, rid, data: &[u8], insert: bool| {
            if insert {
                LogRecord::HeapInsert {
                    txn,
                    space: 1,
                    rid,
                    data: data.to_vec(),
                }
            } else {
                LogRecord::HeapDelete {
                    txn,
                    space: 1,
                    rid,
                    before: data.to_vec(),
                }
            }
        };
        assert_eq!(
            records_of(&m, a),
            vec![
                LogRecord::Begin { txn: a },
                heap_rec(a, rid, b"a", true),
                heap_rec(a, rid, b"a", false),
                LogRecord::Abort { txn: a },
            ]
        );
        assert_eq!(
            records_of(&m, b),
            vec![
                LogRecord::Begin { txn: b },
                heap_rec(b, kept, b"kept", false),
                heap_rec(b, kept, b"kept", true),
                LogRecord::Abort { txn: b },
            ]
        );
        assert_eq!(heap.fetch(kept).unwrap(), b"kept");
    }

    #[test]
    fn racing_first_records_log_one_begin() {
        const THREADS: u16 = 4;
        const ROUNDS: usize = 200;
        let m = mgr();
        let gate = std::sync::Barrier::new(THREADS as usize);
        for _ in 0..ROUNDS {
            let t = m.begin().unwrap();
            let id = t.id();
            std::thread::scope(|s| {
                for slot in 0..THREADS {
                    let (t, gate) = (&t, &gate);
                    s.spawn(move || {
                        gate.wait();
                        t.log(&insert(id, slot)).unwrap();
                    });
                }
            });
            t.commit().unwrap();
        }
        // Per transaction: one Begin, first, then the racing records, Commit.
        let recs = m.wal().read_records().unwrap();
        assert_eq!(recs.len(), ROUNDS * (THREADS as usize + 2));
        for txn in recs.chunks(THREADS as usize + 2) {
            let id = txn[0].txn().unwrap();
            assert_eq!(txn[0], LogRecord::Begin { txn: id });
            assert!(txn[1..=THREADS as usize]
                .iter()
                .all(|r| matches!(r, LogRecord::HeapInsert { txn, .. } if *txn == id)));
        }
    }

    #[test]
    fn oldest_active_lsn_ignores_unlogged_transactions() {
        let m = mgr();
        let reader = m.begin().unwrap();
        assert_eq!(m.oldest_active_lsn(), None);
        let writer = m.begin().unwrap();
        let begin = m.wal().current_lsn() + 1;
        writer.log(&insert(writer.id(), 1)).unwrap();
        assert_eq!(m.oldest_active_lsn(), Some(begin));
        // A later first write does not move the floor below the writer's.
        let late = m.begin().unwrap();
        let late_begin = m.wal().current_lsn() + 1;
        late.log(&insert(late.id(), 2)).unwrap();
        assert_eq!(m.oldest_active_lsn(), Some(begin));
        writer.commit().unwrap();
        assert_eq!(m.oldest_active_lsn(), Some(late_begin));
        late.commit().unwrap();
        assert_eq!(m.oldest_active_lsn(), None);
        reader.commit().unwrap();
    }

    #[test]
    fn rollback_runs_undo_in_reverse() {
        let m = mgr();
        let (_, tree) = stores();
        let t = m.begin().unwrap();
        let id = t.id();
        for i in 0..3u8 {
            t.index_insert(&tree, vec![i], u64::from(i)).unwrap();
        }
        t.rollback().unwrap();
        let undone: Vec<u8> = records_of(&m, id)
            .into_iter()
            .filter_map(|r| match r {
                LogRecord::IndexDelete { key, .. } => Some(key[0]),
                _ => None,
            })
            .collect();
        assert_eq!(undone, vec![2, 1, 0]);
        assert!(tree.is_empty().unwrap());
    }

    #[test]
    fn drop_rolls_back() {
        let m = mgr();
        let (heap, tree) = stores();
        let rid = {
            let t = m.begin().unwrap();
            let rid = t.heap_insert(&heap, b"gone".to_vec()).unwrap();
            t.index_insert(&tree, b"k".to_vec(), rid.to_u64()).unwrap();
            rid
            // dropped without commit
        };
        assert!(matches!(
            heap.fetch(rid),
            Err(StorageError::RecordNotFound { .. })
        ));
        assert_eq!(tree.search(b"k").unwrap(), None);
        assert_eq!(heap.stats().unwrap().reserved, 0);
        assert_eq!(m.active_count(), 0);
        let recs = m.wal().read_records().unwrap();
        assert!(recs.iter().any(|r| matches!(r, LogRecord::Abort { .. })));
    }

    /// The exact records an insert, an update in place, a relocating
    /// update, a delete and two index writes log, then their rollback: the
    /// forward records and, newest first, their compensations.
    #[test]
    fn rollback_logs_exactly_these_records() {
        let m = mgr();
        let (heap, tree) = stores();
        let setup = m.begin().unwrap();
        let small = setup.heap_insert(&heap, b"small".to_vec()).unwrap();
        let doomed = setup.heap_insert(&heap, b"doomed".to_vec()).unwrap();
        let grows = setup.heap_insert(&heap, b"grows".to_vec()).unwrap();
        setup.index_insert(&tree, b"old".to_vec(), 7).unwrap();
        setup.commit().unwrap();
        // Fill the page so the growing update must move.
        let setup = m.begin().unwrap();
        while heap.insert(&[0u8; 400]).unwrap().page == grows.page {}
        setup.commit().unwrap();

        let t = m.begin().unwrap();
        let id = t.id();
        let fresh = t.heap_insert(&heap, b"fresh".to_vec()).unwrap();
        assert_eq!(
            t.heap_update(&heap, small, b"SMALL".to_vec()).unwrap(),
            small
        );
        let big = vec![9u8; 1000];
        let moved = t.heap_update(&heap, grows, big.clone()).unwrap();
        assert_ne!(moved, grows);
        t.heap_delete(&heap, doomed).unwrap();
        assert_eq!(t.index_insert(&tree, b"old".to_vec(), 8).unwrap(), Some(7));
        assert_eq!(t.index_insert(&tree, b"new".to_vec(), 9).unwrap(), None);
        assert_eq!(t.index_delete(&tree, b"absent".to_vec()).unwrap(), None);
        t.rollback().unwrap();

        let ins = |rid, data: &[u8]| LogRecord::HeapInsert {
            txn: id,
            space: 1,
            rid,
            data: data.to_vec(),
        };
        let del = |rid, before: &[u8]| LogRecord::HeapDelete {
            txn: id,
            space: 1,
            rid,
            before: before.to_vec(),
        };
        let idx = |key: &[u8], value, prev| LogRecord::IndexInsert {
            txn: id,
            space: 1,
            anchor: 2,
            key: key.to_vec(),
            value,
            prev,
        };
        assert_eq!(
            records_of(&m, id),
            vec![
                LogRecord::Begin { txn: id },
                ins(fresh, b"fresh"),
                LogRecord::HeapUpdate {
                    txn: id,
                    space: 1,
                    rid: small,
                    before: b"small".to_vec(),
                    after: b"SMALL".to_vec(),
                },
                del(grows, b"grows"),
                ins(moved, &big),
                del(doomed, b"doomed"),
                idx(b"old", 8, Some(7)),
                idx(b"new", 9, None),
                // Compensations, newest first.
                LogRecord::IndexDelete {
                    txn: id,
                    space: 1,
                    anchor: 2,
                    key: b"new".to_vec(),
                    value: 9,
                },
                idx(b"old", 7, None),
                ins(doomed, b"doomed"),
                del(moved, &big),
                ins(grows, b"grows"),
                ins(small, b"small"),
                del(fresh, b"fresh"),
                LogRecord::Abort { txn: id },
            ]
        );
        for (rid, data) in [
            (small, &b"small"[..]),
            (doomed, b"doomed"),
            (grows, b"grows"),
        ] {
            assert_eq!(heap.fetch(rid).unwrap(), data);
        }
        assert_eq!(tree.search(b"old").unwrap(), Some(7));
        assert_eq!(tree.search(b"new").unwrap(), None);
        assert_eq!(heap.stats().unwrap().reserved, 0);
    }

    /// A deleted record's slot is not reused before the delete commits, so
    /// rolling the delete back cannot overwrite another transaction's record.
    #[test]
    fn uncommitted_delete_keeps_its_slot() {
        let m = mgr();
        let (heap, _) = stores();
        let setup = m.begin().unwrap();
        let victim = setup.heap_insert(&heap, b"victim".to_vec()).unwrap();
        setup.commit().unwrap();

        let deleter = m.begin().unwrap();
        deleter.heap_delete(&heap, victim).unwrap();
        assert!(heap.fetch(victim).is_err(), "readers see no record");
        let other = m.begin().unwrap();
        let theirs = other.heap_insert(&heap, b"theirs".to_vec()).unwrap();
        assert_ne!(theirs, victim, "a reserved slot is not reused");
        other.commit().unwrap();
        deleter.rollback().unwrap();
        assert_eq!(heap.fetch(victim).unwrap(), b"victim");
        assert_eq!(heap.fetch(theirs).unwrap(), b"theirs");

        // Commit frees the slot for the next insert.
        let deleter = m.begin().unwrap();
        deleter.heap_delete(&heap, victim).unwrap();
        assert_eq!(heap.stats().unwrap().reserved, 1);
        deleter.commit().unwrap();
        assert_eq!(heap.stats().unwrap().reserved, 0);
        let next = m.begin().unwrap();
        assert_eq!(next.heap_insert(&heap, b"next".to_vec()).unwrap(), victim);
        next.commit().unwrap();
    }

    /// A record shrunk in place by an unfinished transaction keeps its freed
    /// bytes: another transaction's grow on the same page cannot take them,
    /// so rolling the shrink back fits. Committing the shrink gives them
    /// back.
    #[test]
    fn rolled_back_shrink_grows_back_beside_a_committed_grow() {
        let m = mgr();
        let (heap, _) = stores();
        let setup = m.begin().unwrap();
        let a = setup.heap_insert(&heap, vec![1; 2000]).unwrap();
        let b = setup.heap_insert(&heap, vec![2; 1000]).unwrap();
        setup.commit().unwrap();
        assert_eq!(a.page, b.page);

        let t = m.begin().unwrap();
        assert_eq!(t.heap_update(&heap, a, vec![3; 10]).unwrap(), a);
        assert_eq!(heap.stats().unwrap().reserved, 1);
        let u = m.begin().unwrap();
        let grown = u.heap_update(&heap, b, vec![4; 3000]).unwrap();
        assert_ne!(grown, b, "the shrink's bytes are not free: b moves");
        u.commit().unwrap();
        t.rollback().unwrap();
        assert_eq!(heap.fetch(a).unwrap(), vec![1; 2000]);
        assert_eq!(heap.fetch(grown).unwrap(), vec![4; 3000]);
        assert_eq!(heap.stats().unwrap().reserved, 0);

        // A committed shrink releases its bytes: the grow then fits in place.
        let (heap, _) = stores();
        let setup = m.begin().unwrap();
        let a = setup.heap_insert(&heap, vec![1; 2000]).unwrap();
        let b = setup.heap_insert(&heap, vec![2; 1000]).unwrap();
        setup.commit().unwrap();
        let t = m.begin().unwrap();
        t.heap_update(&heap, a, vec![5; 10]).unwrap();
        t.commit().unwrap();
        assert_eq!(heap.stats().unwrap().reserved, 0);
        let u = m.begin().unwrap();
        assert_eq!(u.heap_update(&heap, b, vec![6; 3000]).unwrap(), b);
        u.commit().unwrap();
        assert_eq!(heap.fetch(a).unwrap(), vec![5; 10]);
    }

    #[test]
    fn distinct_ids() {
        let m = mgr();
        let a = m.begin().unwrap();
        let b = m.begin().unwrap();
        assert_ne!(a.id(), b.id());
        a.commit().unwrap();
        b.commit().unwrap();
    }
}
