//! Multi-granularity lock manager.
//!
//! §5 of the paper argues that XML concurrency needs "multiple granularity
//! locking \[4\] given the hierarchical nature of XML data". This lock
//! manager has the classical intent modes (IS/IX/S/SIX/X) over a
//! two-level hierarchy: tables and their documents. The §5.2 node-ID prefix
//! locks are deliberately absent: a packed record holds nodes of many
//! subtrees, and rollback puts back a whole record's before-image, so the
//! document is the smallest unit a writer can own (DESIGN.md §5).
//!
//! Waiting requests queue per resource in arrival order. A new request that
//! conflicts with one queued ahead of it waits behind it, unless its
//! transaction already holds a grant on the resource (re-entry, upgrade), so
//! a stream of readers cannot keep a waiting writer out.
//!
//! Deadlocks are detected eagerly with a waits-for graph, in which waiting
//! behind a queued request counts as waiting for that request's
//! transaction; the requester whose wait would close a cycle is chosen as
//! victim.

use crate::error::{Result, StorageError};
use crate::idhash::IdBuildHasher;
use crate::wal::TxnId;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Contention counters, updated on the lock slow path. Exposed through
/// `Database::stats()` and the rx-server stats surface.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Requests that had to block at least once before being granted
    /// (or failing).
    pub waits: AtomicU64,
    /// Requests that failed with [`StorageError::LockTimeout`].
    pub timeouts: AtomicU64,
    /// Requests refused with [`StorageError::Deadlock`] as the victim of a
    /// waits-for cycle.
    pub deadlocks: AtomicU64,
}

impl LockStats {
    /// Read `(waits, timeouts, deadlocks)` at once.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.waits.load(Ordering::Relaxed),
            self.timeouts.load(Ordering::Relaxed),
            self.deadlocks.load(Ordering::Relaxed),
        )
    }
}

/// Classical multiple-granularity lock modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LockMode {
    /// Intent shared.
    IS,
    /// Intent exclusive.
    IX,
    /// Shared.
    S,
    /// Shared + intent exclusive.
    SIX,
    /// Exclusive.
    X,
}

impl LockMode {
    /// Gray's compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IS, X) | (X, IS) => false,
            (IS, _) | (_, IS) => true,
            (IX, IX) => true,
            (IX, _) | (_, IX) => false,
            (S, S) => true,
            (S, _) | (_, S) => false,
            (SIX, _) | (_, SIX) => false,
            (X, X) => false,
        }
    }

    /// Whether holding `self` already satisfies a request for `req`.
    pub fn covers(self, req: LockMode) -> bool {
        use LockMode::*;
        match (self, req) {
            (a, b) if a == b => true,
            (X, _) => true,
            (SIX, IS) | (SIX, IX) | (SIX, S) => true,
            (S, IS) => true,
            (IX, IS) => true,
            _ => false,
        }
    }

    /// The weakest mode covering both `self` and `other` (for upgrades).
    pub fn supremum(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self.covers(other) {
            return self;
        }
        if other.covers(self) {
            return other;
        }
        match (self, other) {
            (S, IX) | (IX, S) => SIX,
            _ => X,
        }
    }
}

/// A lockable resource: a table, or one document of a table. The document
/// is the smallest unit: a packed record holds nodes of many subtrees, so
/// no writer can own less of a document than all of it (DESIGN.md §5).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LockName {
    /// A base table (or its XML side tables, locked together).
    Table(u32),
    /// One document (a DocID lock, §5.1).
    Document {
        /// Owning table.
        table: u32,
        /// Document id.
        doc: u64,
    },
}

#[derive(Clone, Debug)]
struct Grant {
    txn: TxnId,
    mode: LockMode,
    count: u32,
}

/// The lock table's maps: hashed a few times per granted lock, by keys
/// the engine chooses.
type LockMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// Emptied grant lists kept for reuse, so locking a document that nobody
/// holds does not allocate one (up to this many).
const SPARE_GRANT_LISTS: usize = 4096;

#[derive(Default)]
struct LmInner {
    /// resource -> the grants on it.
    resources: LockMap<LockName, Vec<Grant>>,
    /// resource -> the requests waiting for it, oldest first. Only
    /// resources with waiters have an entry, so with nobody waiting the
    /// map is empty. A transaction waits for one request at a time, so it
    /// is queued at most once.
    queues: LockMap<LockName, Vec<(TxnId, LockMode)>>,
    /// txn -> the transactions it currently waits for (the waits-for graph).
    waits_for: LockMap<TxnId, Vec<TxnId>>,
    /// All resources held per txn, for bulk release.
    held: LockMap<TxnId, Vec<LockName>>,
    /// Empty grant lists left by released resources.
    spare: Vec<Vec<Grant>>,
}

impl LmInner {
    /// Would adding edges `txn -> blockers` close a cycle in the waits-for graph?
    fn creates_cycle(&self, txn: TxnId, blockers: &[TxnId]) -> bool {
        // DFS from each blocker; if we can reach `txn`, adding the edge cycles.
        let mut stack: Vec<TxnId> = blockers.to_vec();
        let mut seen: Vec<TxnId> = Vec::new();
        while let Some(t) = stack.pop() {
            if t == txn {
                return true;
            }
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            if let Some(next) = self.waits_for.get(&t) {
                stack.extend_from_slice(next);
            }
        }
        false
    }

    /// Grant `mode` on `name` to `txn` if that needs no wait: a covering
    /// lock it already holds is counted again, and a new or upgraded grant
    /// is made when no other transaction's grant conflicts and, for a
    /// transaction holding no grant on `name`, no request queued ahead of
    /// its own (all of the queue for a request not queued yet) conflicts.
    /// A granted request leaves the queue. Otherwise returns the
    /// transactions it waits for. One lookup of the resource serves the
    /// check and the grant; with nobody waiting anywhere, the queues cost
    /// one emptiness check.
    fn try_grant(
        &mut self,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
    ) -> std::result::Result<(), Vec<TxnId>> {
        let LmInner {
            resources,
            queues,
            held,
            spare,
            ..
        } = self;
        let grants = resources
            .entry(name)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let own = grants.iter().position(|g| g.txn == txn);
        if let Some(i) = own {
            if grants[i].mode.covers(mode) {
                grants[i].count += 1;
                return Ok(());
            }
        }
        let mut blockers: Vec<TxnId> = grants
            .iter()
            .filter(|g| g.txn != txn && !g.mode.compatible(mode))
            .map(|g| g.txn)
            .collect();
        if !queues.is_empty() {
            if let Entry::Occupied(mut queue) = queues.entry(name) {
                let at = queue.get().iter().position(|&(t, _)| t == txn);
                if own.is_none() {
                    let ahead = &queue.get()[..at.unwrap_or(queue.get().len())];
                    let queued = ahead.iter().filter(|(_, m)| !m.compatible(mode));
                    blockers.extend(queued.map(|&(t, _)| t));
                }
                if let (Some(at), true) = (at, blockers.is_empty()) {
                    queue.get_mut().remove(at);
                    if queue.get().is_empty() {
                        queue.remove();
                    }
                }
            }
        }
        if !blockers.is_empty() {
            return Err(blockers);
        }
        match own {
            // Upgrade: the weakest mode covering both.
            Some(i) => {
                let g = &mut grants[i];
                g.mode = g.mode.supremum(mode);
                g.count += 1;
            }
            None => {
                grants.push(Grant {
                    txn,
                    mode,
                    count: 1,
                });
                held.entry(txn).or_default().push(name);
            }
        }
        Ok(())
    }

    /// Put `txn`'s request for `name` at the back of the resource's queue.
    fn enqueue(&mut self, txn: TxnId, name: LockName, mode: LockMode) {
        self.queues.entry(name).or_default().push((txn, mode));
    }

    /// Take `txn`'s request for `name` out of the queue without granting
    /// it. A request refused only because of the queue left an empty grant
    /// list behind, which goes too.
    fn dequeue(&mut self, txn: TxnId, name: LockName) {
        if let Entry::Occupied(mut queue) = self.queues.entry(name) {
            queue.get_mut().retain(|&(t, _)| t != txn);
            if queue.get().is_empty() {
                queue.remove();
            }
        }
        if let Entry::Occupied(grants) = self.resources.entry(name) {
            if grants.get().is_empty() {
                let list = grants.remove();
                if self.spare.len() < SPARE_GRANT_LISTS {
                    self.spare.push(list);
                }
            }
        }
    }
}

/// The lock manager. One instance per database.
pub struct LockManager {
    inner: Mutex<LmInner>,
    cond: Condvar,
    timeout: Duration,
    /// Contention counters (waits / timeouts / deadlocks).
    pub stats: LockStats,
}

impl LockManager {
    /// Create a lock manager with the given wait timeout.
    pub fn new(timeout: Duration) -> Arc<Self> {
        Arc::new(LockManager {
            inner: Mutex::new(LmInner::default()),
            cond: Condvar::new(),
            timeout,
            stats: LockStats::default(),
        })
    }

    /// Create with the default 2-second timeout.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(Duration::from_secs(2))
    }

    /// Acquire `mode` on `name` for `txn`, blocking while conflicting locks
    /// are held. Fails with [`StorageError::Deadlock`] when waiting would
    /// close a waits-for cycle, or [`StorageError::LockTimeout`] on timeout.
    pub fn lock(&self, txn: TxnId, name: &LockName, mode: LockMode) -> Result<()> {
        let mut inner = self.inner.lock();
        match inner.try_grant(txn, *name, mode) {
            Ok(()) => Ok(()),
            Err(blockers) => self.wait_for_grant(inner, txn, *name, mode, blockers),
        }
    }

    /// Acquire a list of locks in order, as [`LockManager::lock`] on each
    /// would. While every grant is immediate they are all made under one
    /// hold of the manager mutex; from the first request that conflicts on,
    /// each remaining request goes through `lock` on its own, so waits,
    /// deadlock detection and timeouts are exactly those of `lock`. On an
    /// error the locks granted before it stay held until the transaction
    /// ends, as with `lock`.
    pub fn lock_many(
        &self,
        txn: TxnId,
        requests: impl IntoIterator<Item = (LockName, LockMode)>,
    ) -> Result<()> {
        let mut requests = requests.into_iter();
        let mut inner = self.inner.lock();
        loop {
            let Some((name, mode)) = requests.next() else {
                return Ok(());
            };
            if let Err(blockers) = inner.try_grant(txn, name, mode) {
                self.wait_for_grant(inner, txn, name, mode, blockers)?;
                break;
            }
        }
        for (name, mode) in requests {
            self.lock(txn, &name, mode)?;
        }
        Ok(())
    }

    /// The wait branch of [`LockManager::lock`], entered with the manager
    /// mutex held after an immediate grant was refused because of
    /// `blockers`. The request joins the back of the resource's queue for
    /// as long as it waits. The deadline is taken here, so a lock granted
    /// at once never reads the clock.
    fn wait_for_grant(
        &self,
        mut inner: MutexGuard<'_, LmInner>,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
        mut blockers: Vec<TxnId>,
    ) -> Result<()> {
        let deadline = Instant::now() + self.timeout;
        inner.enqueue(txn, name, mode);
        // A request that leaves the queue ungranted may unblock the ones
        // behind it.
        let give_up = |mut inner: MutexGuard<'_, LmInner>, err: StorageError| {
            inner.dequeue(txn, name);
            drop(inner);
            self.cond.notify_all();
            Err(err)
        };
        loop {
            if inner.creates_cycle(txn, &blockers) {
                self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                return give_up(inner, StorageError::Deadlock);
            }
            self.stats.waits.fetch_add(1, Ordering::Relaxed);
            inner.waits_for.insert(txn, blockers);
            let timed_out = self.cond.wait_until(&mut inner, deadline).timed_out();
            inner.waits_for.remove(&txn);
            if timed_out {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return give_up(inner, StorageError::LockTimeout);
            }
            blockers = match inner.try_grant(txn, name, mode) {
                Ok(()) => return Ok(()),
                Err(b) => b,
            };
        }
    }

    /// Non-blocking acquire. Returns `Ok(false)` when a conflict exists.
    pub fn try_lock(&self, txn: TxnId, name: &LockName, mode: LockMode) -> Result<bool> {
        Ok(self.inner.lock().try_grant(txn, *name, mode).is_ok())
    }

    /// Release every lock held by `txn` (commit/rollback).
    pub fn unlock_all(&self, txn: TxnId) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(names) = inner.held.remove(&txn) {
            for name in names {
                if let Entry::Occupied(mut e) = inner.resources.entry(name) {
                    e.get_mut().retain(|g| g.txn != txn);
                    if e.get().is_empty() {
                        let list = e.remove();
                        if inner.spare.len() < SPARE_GRANT_LISTS {
                            inner.spare.push(list);
                        }
                    }
                }
            }
        }
        inner.waits_for.remove(&txn);
        drop(guard);
        self.cond.notify_all();
    }

    /// Every grant `txn` holds, as `(resource, mode, count)` sorted by
    /// resource (for tests comparing lock tables).
    #[cfg(test)]
    fn grants_of(&self, txn: TxnId) -> Vec<(String, LockMode, u32)> {
        let inner = self.inner.lock();
        let mut out: Vec<_> = inner
            .resources
            .iter()
            .flat_map(|(k, gs)| {
                gs.iter()
                    .filter(|g| g.txn == txn)
                    .map(move |g| (format!("{k:?}"), g.mode, g.count))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Number of distinct resources locked by `txn` (for tests).
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.inner
            .lock()
            .held
            .get(&txn)
            .map_or(0, std::vec::Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    fn lm() -> Arc<LockManager> {
        LockManager::new(Duration::from_millis(200))
    }

    #[test]
    fn compatibility_matrix_spot_checks() {
        assert!(IS.compatible(IX));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S));
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!SIX.compatible(SIX));
        assert!(SIX.compatible(IS));
        assert!(!X.compatible(IS));
    }

    #[test]
    fn shared_locks_coexist_exclusive_blocks() {
        let lm = lm();
        let doc = LockName::Document { table: 1, doc: 5 };
        lm.lock(1, &doc, S).unwrap();
        lm.lock(2, &doc, S).unwrap();
        assert!(!lm.try_lock(3, &doc, X).unwrap());
        lm.unlock_all(1);
        assert!(!lm.try_lock(3, &doc, X).unwrap());
        lm.unlock_all(2);
        assert!(lm.try_lock(3, &doc, X).unwrap());
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = lm();
        let t = LockName::Table(1);
        lm.lock(1, &t, S).unwrap();
        lm.lock(1, &t, S).unwrap();
        // Upgrade S -> X with no other holder succeeds.
        lm.lock(1, &t, X).unwrap();
        assert!(!lm.try_lock(2, &t, IS).unwrap());
        lm.unlock_all(1);
        assert!(lm.try_lock(2, &t, IS).unwrap());
    }

    #[test]
    fn deadlock_detected() {
        let lm = LockManager::new(Duration::from_secs(5));
        let a = LockName::Document { table: 1, doc: 1 };
        let b = LockName::Document { table: 1, doc: 2 };
        lm.lock(1, &a, X).unwrap();
        lm.lock(2, &b, X).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || lm2.lock(1, &b, X));
        // Give thread 1 time to start waiting on b.
        std::thread::sleep(Duration::from_millis(100));
        // Txn 2 requesting a would close the cycle.
        let r = lm.lock(2, &a, X);
        assert!(matches!(r, Err(StorageError::Deadlock)));
        lm.unlock_all(2);
        h.join().unwrap().unwrap();
        lm.unlock_all(1);
    }

    #[test]
    fn blocking_wait_resumes() {
        let lm = LockManager::new(Duration::from_secs(5));
        let d = LockName::Document { table: 1, doc: 9 };
        lm.lock(1, &d, X).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            let started = Instant::now();
            lm2.lock(2, &d, S).unwrap();
            started.elapsed()
        });
        std::thread::sleep(Duration::from_millis(80));
        lm.unlock_all(1);
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(50));
    }

    #[test]
    fn timeout_fires() {
        let lm = LockManager::new(Duration::from_millis(50));
        let d = LockName::Document { table: 1, doc: 3 };
        lm.lock(1, &d, X).unwrap();
        assert!(matches!(lm.lock(2, &d, S), Err(StorageError::LockTimeout)));
    }

    #[test]
    fn intent_locks_on_hierarchy() {
        let lm = lm();
        // Writer: IX on table, X on one document.
        lm.lock(1, &LockName::Table(1), IX).unwrap();
        lm.lock(1, &LockName::Document { table: 1, doc: 1 }, X)
            .unwrap();
        // Reader of a different document: IS on table, S on doc 2 — fine.
        lm.lock(2, &LockName::Table(1), IS).unwrap();
        assert!(lm
            .try_lock(2, &LockName::Document { table: 1, doc: 2 }, S)
            .unwrap());
        // Table-level S scan conflicts with writer's IX.
        assert!(!lm.try_lock(3, &LockName::Table(1), S).unwrap());
        lm.unlock_all(1);
        assert!(lm.try_lock(3, &LockName::Table(1), S).unwrap());
    }

    fn docs(ids: impl IntoIterator<Item = u64>) -> Vec<(LockName, LockMode)> {
        ids.into_iter()
            .map(|doc| (LockName::Document { table: 1, doc }, S))
            .collect()
    }

    #[test]
    fn lock_many_leaves_the_same_grants_as_one_by_one() {
        // Repeats, an upgrade and an intent on the table.
        let mut reqs = vec![(LockName::Table(1), IS)];
        reqs.extend(docs([1, 2, 3, 2, 9]));
        reqs.push((LockName::Document { table: 1, doc: 3 }, X));
        let one_by_one = lm();
        for (name, mode) in &reqs {
            one_by_one.lock(7, name, *mode).unwrap();
        }
        let many = lm();
        many.lock_many(7, reqs.clone()).unwrap();
        assert_eq!(many.grants_of(7), one_by_one.grants_of(7));
        assert_eq!(many.held_count(7), one_by_one.held_count(7));
        assert_eq!(many.stats.snapshot(), (0, 0, 0));
        // Both tables refuse the same conflicting request and release alike.
        for m in [&many, &one_by_one] {
            assert!(!m
                .try_lock(8, &LockName::Document { table: 1, doc: 3 }, S)
                .unwrap());
            assert!(m
                .try_lock(8, &LockName::Document { table: 1, doc: 9 }, S)
                .unwrap());
            m.unlock_all(7);
            assert_eq!(m.held_count(7), 0);
        }
    }

    #[test]
    fn lock_many_waits_at_a_conflict_like_lock() {
        let lm = LockManager::new(Duration::from_secs(5));
        lm.lock(1, &LockName::Document { table: 1, doc: 5 }, X)
            .unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || lm2.lock_many(2, docs(1..=9)));
        std::thread::sleep(Duration::from_millis(80));
        // Granted up to the conflict, waiting on document 5.
        assert_eq!(lm.held_count(2), 4);
        assert_eq!(lm.stats.snapshot(), (1, 0, 0));
        lm.unlock_all(1);
        h.join().unwrap().unwrap();
        assert_eq!(lm.held_count(2), 9);
    }

    #[test]
    fn lock_many_reports_a_deadlock_like_lock() {
        let lm = LockManager::new(Duration::from_secs(5));
        lm.lock(1, &LockName::Document { table: 1, doc: 5 }, X)
            .unwrap();
        lm.lock(2, &LockName::Document { table: 1, doc: 2 }, X)
            .unwrap();
        let lm2 = lm.clone();
        let h =
            std::thread::spawn(move || lm2.lock(1, &LockName::Document { table: 1, doc: 2 }, X));
        std::thread::sleep(Duration::from_millis(100));
        // Txn 2 reaching document 5 would close the cycle 1 -> 2 -> 1.
        let r = lm.lock_many(2, docs([1, 3, 5, 7]));
        assert!(matches!(r, Err(StorageError::Deadlock)));
        assert_eq!(lm.stats.deadlocks.load(Ordering::Relaxed), 1);
        // The grants before the conflict stay; nothing after it was taken.
        assert_eq!(lm.held_count(2), 3);
        assert!(lm
            .try_lock(3, &LockName::Document { table: 1, doc: 7 }, X)
            .unwrap());
        lm.unlock_all(2);
        h.join().unwrap().unwrap();
        lm.unlock_all(1);
    }

    #[test]
    fn lock_many_timeout_keeps_earlier_grants_until_release() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.lock(1, &LockName::Document { table: 1, doc: 3 }, X)
            .unwrap();
        let r = lm.lock_many(2, docs(1..=4));
        assert!(matches!(r, Err(StorageError::LockTimeout)));
        assert_eq!(lm.stats.snapshot(), (1, 1, 0));
        assert_eq!(lm.held_count(2), 2);
        assert!(!lm
            .try_lock(3, &LockName::Document { table: 1, doc: 1 }, X)
            .unwrap());
        assert!(lm
            .try_lock(3, &LockName::Document { table: 1, doc: 4 }, X)
            .unwrap());
        lm.unlock_all(2);
        assert_eq!(lm.held_count(2), 0);
        assert!(lm
            .try_lock(3, &LockName::Document { table: 1, doc: 1 }, X)
            .unwrap());
    }

    /// Wait until `txn` has a request queued (it is in the waits-for graph).
    fn until_waiting(lm: &LockManager, txn: TxnId) {
        let start = Instant::now();
        while !lm.inner.lock().waits_for.contains_key(&txn) {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "txn {txn} never waited"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn new_reader_waits_behind_a_queued_writer() {
        let lm = LockManager::new(Duration::from_secs(5));
        let d = LockName::Document { table: 1, doc: 4 };
        lm.lock(1, &d, S).unwrap();
        let lm2 = lm.clone();
        let writer = std::thread::spawn(move || lm2.lock(2, &d, X));
        until_waiting(&lm, 2);
        // A new S is compatible with the granted S but not with the queued
        // X ahead of it: it is refused now and waits behind the writer.
        assert!(!lm.try_lock(3, &d, S).unwrap());
        let lm3 = lm.clone();
        let reader = std::thread::spawn(move || lm3.lock(3, &d, S));
        until_waiting(&lm, 3);
        // The holder re-entering S is still granted.
        lm.lock(1, &d, S).unwrap();
        // Once the reader releases, the queued X is granted first.
        lm.unlock_all(1);
        writer.join().unwrap().unwrap();
        assert_eq!(lm.grants_of(2), vec![(format!("{d:?}"), X, 1)]);
        assert_eq!(lm.held_count(3), 0);
        lm.unlock_all(2);
        reader.join().unwrap().unwrap();
        assert_eq!(lm.held_count(3), 1);
        lm.unlock_all(3);
        let inner = lm.inner.lock();
        assert!(inner.resources.is_empty() && inner.queues.is_empty());
    }

    #[test]
    fn a_request_leaving_the_queue_unblocks_those_behind_it() {
        let lm = LockManager::new(Duration::from_millis(300));
        let d = LockName::Document { table: 1, doc: 6 };
        lm.lock(1, &d, S).unwrap();
        let lm2 = lm.clone();
        let writer = std::thread::spawn(move || lm2.lock(2, &d, X));
        until_waiting(&lm, 2);
        std::thread::sleep(Duration::from_millis(150));
        // The writer times out while reader 1 still holds S; the reader
        // queued behind it is then granted without waiting for reader 1.
        let lm3 = lm.clone();
        let reader = std::thread::spawn(move || lm3.lock(3, &d, S));
        assert!(matches!(
            writer.join().unwrap(),
            Err(StorageError::LockTimeout)
        ));
        reader.join().unwrap().unwrap();
        assert_eq!(lm.held_count(3), 1);
        lm.unlock_all(1);
        lm.unlock_all(3);
        let inner = lm.inner.lock();
        assert!(inner.resources.is_empty() && inner.queues.is_empty());
    }

    #[test]
    fn a_cycle_through_a_queued_request_is_a_deadlock() {
        let lm = LockManager::new(Duration::from_secs(5));
        let a = LockName::Document { table: 1, doc: 1 };
        let b = LockName::Document { table: 1, doc: 2 };
        lm.lock(1, &a, S).unwrap();
        lm.lock(3, &b, X).unwrap();
        // 2 waits for 1 on a; 3 waits behind 2's queued X on a.
        let lm2 = lm.clone();
        let writer = std::thread::spawn(move || lm2.lock(2, &a, X));
        until_waiting(&lm, 2);
        let lm3 = lm.clone();
        let reader = std::thread::spawn(move || lm3.lock(3, &a, S));
        until_waiting(&lm, 3);
        // 1 waiting for 3 on b closes 1 -> 3 -> 2 -> 1.
        assert!(matches!(lm.lock(1, &b, S), Err(StorageError::Deadlock)));
        assert_eq!(lm.stats.deadlocks.load(Ordering::Relaxed), 1);
        lm.unlock_all(1);
        writer.join().unwrap().unwrap();
        lm.unlock_all(2);
        reader.join().unwrap().unwrap();
        lm.unlock_all(3);
    }
}
