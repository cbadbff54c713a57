//! Transactions.
//!
//! Ties together the WAL (durability), the lock manager (isolation) and
//! runtime undo actions (atomicity). The engine performs heap/index mutations
//! directly, then registers the corresponding log record and an undo closure
//! with the transaction; commit forces the log and releases locks, rollback
//! runs the undo chain in reverse (each undo re-logs its compensation so crash
//! recovery replays aborted transactions correctly).
//!
//! `Begin` is logged lazily, just ahead of the transaction's first record. A
//! transaction that never logs — every read-only one — writes no `Begin`,
//! `Commit` or `Abort` and never waits for a group-commit fsync: it only
//! releases its locks and runs its outcome hooks (DESIGN.md §8.4).

use crate::error::{Result, StorageError};
use crate::lock::{LockManager, LockMode, LockName};
use crate::wal::{LogRecord, Lsn, TxnId, Wal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Context handed to undo actions at rollback time so they can write
/// **compensation log records** for the reversals they perform. Without
/// compensations, crash recovery's repeat-history redo would replay an
/// aborted transaction's forward operations with nothing to cancel them
/// (and steal-policy page flushes could persist partial effects) — the
/// classical reason ARIES logs CLRs.
pub struct UndoCtx<'a> {
    txn: &'a Txn,
}

impl UndoCtx<'_> {
    /// The rolling-back transaction's id.
    pub fn txn(&self) -> TxnId {
        self.txn.id
    }

    /// Append a compensation record (must carry this transaction's id).
    pub fn log(&self, rec: &LogRecord) -> Result<Lsn> {
        self.txn.log(rec)
    }
}

/// An undo action registered alongside a forward operation. It receives an
/// [`UndoCtx`] and must log a compensation record for every reversal it
/// applies.
pub type UndoAction = Box<dyn FnOnce(&UndoCtx<'_>) -> Result<()> + Send>;

/// An outcome hook registered with [`Txn::push_hook`]: runs exactly once when
/// the transaction finishes, with `true` on commit (after the commit record
/// is durable and locks are released) and `false` on rollback or drop.
pub type TxnHook = Box<dyn FnOnce(bool) + Send>;

struct TxnState {
    /// LSN of the transaction's Begin record (the undo keep-floor a
    /// checkpoint must not truncate past while the txn is in flight); `None`
    /// until the transaction logs its first record.
    begin_lsn: Option<Lsn>,
    undo: Vec<UndoAction>,
    hooks: Vec<TxnHook>,
}

/// Allocates transaction ids and tracks active transactions.
pub struct TxnManager {
    wal: Arc<Wal>,
    locks: Arc<LockManager>,
    next: AtomicU64,
    active: Mutex<HashMap<TxnId, TxnState>>,
}

impl TxnManager {
    /// Create a transaction manager over a WAL and lock manager.
    pub fn new(wal: Arc<Wal>, locks: Arc<LockManager>) -> Arc<Self> {
        Arc::new(TxnManager {
            wal,
            locks,
            next: AtomicU64::new(1),
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
        self.active.lock().insert(
            id,
            TxnState {
                begin_lsn: None,
                undo: Vec::new(),
                hooks: Vec::new(),
            },
        );
        Ok(Txn {
            id,
            mgr: Arc::clone(self),
            logged: AtomicBool::new(false),
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

    /// Remove the transaction and release its locks; the caller runs the
    /// returned outcome hooks *after* locks are released, so a hook (e.g. a
    /// cache epoch bump) observes the post-transaction lock state.
    fn finish(&self, id: TxnId) -> Vec<TxnHook> {
        let hooks = self
            .active
            .lock()
            .remove(&id)
            .map(|st| st.hooks)
            .unwrap_or_default();
        self.locks.unlock_all(id);
        hooks
    }
}

/// A live transaction handle. Dropping an unfinished transaction rolls it back.
pub struct Txn {
    id: TxnId,
    mgr: Arc<TxnManager>,
    /// Set once the `Begin` record is logged (the lock-free fast path of
    /// [`Txn::log`]; `TxnState::begin_lsn` under `active` is authoritative).
    logged: AtomicBool,
    finished: bool,
}

impl Txn {
    /// The transaction id (used in log records and lock ownership).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Append a log record on behalf of this transaction, preceded by its
    /// `Begin` record if this is the first one.
    pub fn log(&self, rec: &LogRecord) -> Result<Lsn> {
        debug_assert_eq!(rec.txn(), Some(self.id), "record must carry this txn id");
        if !self.logged.load(Ordering::Acquire) {
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

    /// Register an undo action to run if the transaction rolls back.
    pub fn push_undo(&self, action: UndoAction) {
        let mut active = self.mgr.active.lock();
        if let Some(st) = active.get_mut(&self.id) {
            st.undo.push(action);
        }
    }

    /// Register an outcome hook: runs once when the transaction finishes,
    /// with `committed = true` only after the commit record is durable and
    /// locks are released.
    pub fn push_hook(&self, hook: TxnHook) {
        let mut active = self.mgr.active.lock();
        if let Some(st) = active.get_mut(&self.id) {
            st.hooks.push(hook);
        }
    }

    /// Acquire a lock for this transaction (blocking).
    pub fn lock(&self, name: &LockName, mode: LockMode) -> Result<()> {
        self.mgr.locks.lock(self.id, name, mode)
    }

    /// Try to acquire a lock without blocking.
    pub fn try_lock(&self, name: &LockName, mode: LockMode) -> Result<bool> {
        self.mgr.locks.try_lock(self.id, name, mode)
    }

    /// Commit: wait until the commit record is durable (joining the current
    /// group-commit batch rather than forcing a private fsync), release locks.
    /// A transaction that logged nothing has nothing to make durable: it
    /// writes no `Commit` and skips the wait.
    pub fn commit(mut self) -> Result<()> {
        if !self.finished {
            if self.logged.load(Ordering::Acquire) {
                let lsn = self.log(&LogRecord::Commit { txn: self.id })?;
                self.mgr.wal.wait_durable(lsn)?;
            }
            let hooks = self.mgr.finish(self.id);
            self.finished = true;
            for h in hooks {
                h(true);
            }
        }
        Ok(())
    }

    /// Roll back: run undo actions in reverse, then log the abort (unless
    /// the transaction, compensations included, never logged anything).
    pub fn rollback(mut self) -> Result<()> {
        self.rollback_inner()
    }

    fn rollback_inner(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        let undo = {
            let mut active = self.mgr.active.lock();
            match active.get_mut(&self.id) {
                Some(st) => std::mem::take(&mut st.undo),
                None => return Err(StorageError::TxnNotActive(self.id)),
            }
        };
        let ctx = UndoCtx { txn: self };
        let mut first_err = None;
        for action in undo.into_iter().rev() {
            if let Err(e) = action(&ctx) {
                first_err.get_or_insert(e);
            }
        }
        if self.logged.load(Ordering::Acquire) {
            let lsn = self.log(&LogRecord::Abort { txn: self.id })?;
            self.mgr.wal.wait_durable(lsn)?;
        }
        let hooks = self.mgr.finish(self.id);
        self.finished = true;
        for h in hooks {
            h(false);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
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
    use crate::rid::Rid;
    use crate::wal::MemLogStore;
    use std::sync::atomic::AtomicU32;

    fn mgr() -> Arc<TxnManager> {
        TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        )
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
        let outcome = Arc::new(Mutex::new(Vec::new()));
        let watch = |t: &Txn| {
            let outcome = outcome.clone();
            t.push_hook(Box::new(move |committed| outcome.lock().push(committed)));
            t.lock(&LockName::Table(1), LockMode::S).unwrap();
        };
        let before = wal_counters(&m);
        let t = m.begin().unwrap();
        watch(&t);
        t.commit().unwrap();
        let t = m.begin().unwrap();
        watch(&t);
        t.rollback().unwrap();
        let id = {
            let t = m.begin().unwrap();
            watch(&t);
            t.id()
            // dropped without commit
        };
        assert_eq!(wal_counters(&m), before);
        assert_eq!(*outcome.lock(), vec![true, false, false]);
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
        let compensate = |t: &Txn, slot: u16| {
            let id = t.id();
            t.push_undo(Box::new(move |ctx| {
                ctx.log(&LogRecord::HeapDelete {
                    txn: id,
                    space: 1,
                    rid: Rid::new(1, slot),
                    before: vec![slot as u8],
                })
                .map(drop)
            }));
        };
        let delete = |id, slot: u16| LogRecord::HeapDelete {
            txn: id,
            space: 1,
            rid: Rid::new(1, slot),
            before: vec![slot as u8],
        };
        // A writer: Begin, its record, the compensation, Abort.
        let t = m.begin().unwrap();
        let a = t.id();
        t.log(&insert(a, 1)).unwrap();
        compensate(&t, 1);
        t.rollback().unwrap();
        // Only the undo action logs: its compensation still follows Begin.
        let t = m.begin().unwrap();
        let b = t.id();
        compensate(&t, 2);
        drop(t);
        assert_eq!(
            m.wal().read_records().unwrap(),
            vec![
                LogRecord::Begin { txn: a },
                insert(a, 1),
                delete(a, 1),
                LogRecord::Abort { txn: a },
                LogRecord::Begin { txn: b },
                delete(b, 2),
                LogRecord::Abort { txn: b },
            ]
        );
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
        let order = Arc::new(Mutex::new(Vec::new()));
        let t = m.begin().unwrap();
        for i in 0..3 {
            let order = order.clone();
            t.push_undo(Box::new(move |_ctx| {
                order.lock().push(i);
                Ok(())
            }));
        }
        t.rollback().unwrap();
        assert_eq!(*order.lock(), vec![2, 1, 0]);
    }

    #[test]
    fn drop_rolls_back() {
        let m = mgr();
        let ran = Arc::new(AtomicU32::new(0));
        {
            let t = m.begin().unwrap();
            t.log(&insert(t.id(), 1)).unwrap();
            let ran = ran.clone();
            t.push_undo(Box::new(move |_ctx| {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }));
            // dropped without commit
        }
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(m.active_count(), 0);
        let recs = m.wal().read_records().unwrap();
        assert!(recs.iter().any(|r| matches!(r, LogRecord::Abort { .. })));
    }

    #[test]
    fn hooks_run_with_outcome() {
        let m = mgr();
        let outcome = Arc::new(Mutex::new(Vec::new()));
        // Commit path: hook sees true, after locks are released.
        let t = m.begin().unwrap();
        t.lock(&LockName::Table(1), LockMode::X).unwrap();
        let id = t.id();
        {
            let outcome = outcome.clone();
            let locks = Arc::clone(m.locks());
            t.push_hook(Box::new(move |committed| {
                outcome.lock().push((committed, locks.held_count(id)));
            }));
        }
        t.commit().unwrap();
        // Rollback path: hook sees false.
        let t = m.begin().unwrap();
        {
            let outcome = outcome.clone();
            t.push_hook(Box::new(move |committed| {
                outcome.lock().push((committed, 0));
            }));
        }
        t.rollback().unwrap();
        // Drop path: hook sees false.
        {
            let t = m.begin().unwrap();
            let outcome = outcome.clone();
            t.push_hook(Box::new(move |committed| {
                outcome.lock().push((committed, 0));
            }));
        }
        assert_eq!(*outcome.lock(), vec![(true, 0), (false, 0), (false, 0)]);
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
