//! Durability under group commit: every acknowledged commit survives crash
//! recovery (including a torn log tail mid-batch), an unacknowledged
//! in-flight transaction rolls back cleanly, and the leader-follower flush
//! protocol provably batches — one fsync covering many committers.

use parking_lot::{Condvar, Mutex};
use rx_storage::wal::{recover, FileLogStore, LogRecord, LogStore, MemLogStore, RecoveryEnv, Wal};
use rx_storage::{
    BufferPool, FileBackend, HeapTable, LockManager, StorageError, TableSpace, TxnManager,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-gc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SPACE: u32 = 1;

fn payload(owner: u64, seq: u64) -> Vec<u8> {
    format!("row-{owner}-{seq}").into_bytes()
}

/// Commit one transaction that logs a single heap insert (a log record only;
/// no heap is touched). A transaction that logs nothing never reaches the
/// group-commit path, so batching tests need every committer to write.
fn commit_one_insert(txns: &Arc<TxnManager>, slot: u16) {
    let t = txns.begin().unwrap();
    t.log(&LogRecord::HeapInsert {
        txn: t.id(),
        space: SPACE,
        rid: rx_storage::Rid::new(1, slot),
        data: payload(t.id(), 0),
    })
    .unwrap();
    t.commit().unwrap();
}

/// Acked commits (and only acked commits) survive `recover()`, even with a
/// torn frame at the log tail simulating a crash mid-batch.
#[test]
fn acked_commits_survive_crash_with_torn_tail() {
    const WRITERS: u64 = 8;
    const TXNS_PER_WRITER: u64 = 10;

    let dir = tmpdir("torn");
    let acked: Mutex<Vec<(rx_storage::Rid, Vec<u8>)>> = Mutex::new(Vec::new());
    let unacked_rid;
    {
        let pool = BufferPool::new(64);
        let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
        let space = TableSpace::create(pool.clone(), SPACE, backend).unwrap();
        let heap = HeapTable::create(space).unwrap();
        // DDL is durable (as Database::create_table does with flush_all).
        pool.flush_all().unwrap();

        let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log")).unwrap()));
        let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());

        std::thread::scope(|s| {
            for owner in 0..WRITERS {
                let txns = Arc::clone(&txns);
                let heap = Arc::clone(&heap);
                let acked = &acked;
                s.spawn(move || {
                    for seq in 0..TXNS_PER_WRITER {
                        let t = txns.begin().unwrap();
                        let data = payload(owner, seq);
                        let rid = heap.insert(&data).unwrap();
                        t.log(&LogRecord::HeapInsert {
                            txn: t.id(),
                            space: SPACE,
                            rid,
                            data: data.clone(),
                        })
                        .unwrap();
                        t.commit().unwrap();
                        // The commit was acknowledged: it must survive.
                        acked.lock().push((rid, data));
                    }
                });
            }
        });

        // One in-flight transaction that never commits: its records may sit
        // in the staging buffer or on disk, but recovery must roll it back.
        let t = txns.begin().unwrap();
        let data = b"in-flight-never-acked".to_vec();
        let rid = heap.insert(&data).unwrap();
        t.log(&LogRecord::HeapInsert {
            txn: t.id(),
            space: SPACE,
            rid,
            data,
        })
        .unwrap();
        unacked_rid = rid;
        // A later group-commit flush carries the in-flight records to disk
        // (without any Commit for them), as happens whenever an unrelated
        // session commits.
        wal.force().unwrap();
        // "Crash": leak the transaction so no Abort is logged, and drop the
        // pool without flushing dirty pages.
        std::mem::forget(t);
    }

    // Torn tail: a frame header promising more bytes than follow.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&500u32.to_le_bytes()).unwrap();
        f.write_all(&[0xde, 0xad]).unwrap();
    }

    // Recover into freshly opened structures.
    let pool = BufferPool::new(64);
    let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
    let space = TableSpace::open(pool.clone(), SPACE, backend).unwrap();
    let heap = HeapTable::open(space).unwrap();
    let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log")).unwrap()));
    let env = RecoveryEnv {
        heaps: HashMap::from([(SPACE, Arc::clone(&heap))]),
        ..Default::default()
    };
    let report = recover(&wal, &env).unwrap();
    assert_eq!(report.winners as u64, WRITERS * TXNS_PER_WRITER);
    assert!(report.losers >= 1, "the in-flight txn must be a loser");

    let acked = acked.into_inner();
    assert_eq!(acked.len() as u64, WRITERS * TXNS_PER_WRITER);
    for (rid, data) in &acked {
        let got = heap.fetch(*rid).unwrap();
        assert_eq!(&got, data, "acked commit lost at {rid:?}");
    }
    // The unacknowledged insert must be gone.
    assert!(
        matches!(
            heap.fetch(unacked_rid),
            Err(StorageError::RecordNotFound { .. })
        ),
        "unacked in-flight insert survived recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log store whose fsync blocks until the test opens a gate, making the
/// group-commit batching deterministic: the first committer is held inside
/// its fsync while seven more stage their records, then one follower-elected
/// leader flushes all seven with a single additional fsync.
#[derive(Default)]
struct GatedStore {
    inner: MemLogStore,
    open: Mutex<bool>,
    cond: Condvar,
    entered: AtomicU64,
    flushes: AtomicU64,
}

impl GatedStore {
    fn wait_entered(&self) {
        while self.entered.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    }

    fn open_gate(&self) {
        *self.open.lock() = true;
        self.cond.notify_all();
    }
}

impl LogStore for GatedStore {
    fn append(&self, bytes: &[u8]) -> rx_storage::Result<()> {
        self.inner.append(bytes)
    }
    fn flush(&self) -> rx_storage::Result<()> {
        self.flushes.fetch_add(1, Ordering::AcqRel);
        self.entered.fetch_add(1, Ordering::AcqRel);
        let mut open = self.open.lock();
        while !*open {
            self.cond.wait(&mut open);
        }
        Ok(())
    }
    fn read_all(&self) -> rx_storage::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn truncate(&self) -> rx_storage::Result<()> {
        self.inner.truncate()
    }
}

#[test]
fn one_fsync_amortizes_across_concurrent_committers() {
    const FOLLOWERS: u64 = 7;

    let store = Arc::new(GatedStore::default());
    let wal = Wal::new(Arc::clone(&store) as Arc<dyn LogStore>);
    let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());

    std::thread::scope(|s| {
        // Leader: commits first and blocks inside the gated fsync.
        let leader_txns = Arc::clone(&txns);
        let leader = s.spawn(move || commit_one_insert(&leader_txns, 0));
        store.wait_entered();

        // Followers: stage Begin+HeapInsert+Commit and pile up on the
        // durable-LSN condvar while the leader is stuck in fsync.
        let mut followers = Vec::new();
        for slot in 1..=FOLLOWERS as u16 {
            let txns = Arc::clone(&txns);
            followers.push(s.spawn(move || commit_one_insert(&txns, slot)));
        }
        // Every follower has staged its records (3 per committer) before the
        // gate opens. Bounded, so a committer that stops logging fails the
        // test instead of hanging it.
        let deadline = Instant::now() + Duration::from_secs(30);
        while wal.records_written() < 3 * (FOLLOWERS + 1) {
            if Instant::now() > deadline {
                store.open_gate();
                panic!(
                    "followers staged only {} of {} records",
                    wal.records_written(),
                    3 * (FOLLOWERS + 1)
                );
            }
            std::thread::yield_now();
        }
        store.open_gate();
        leader.join().unwrap();
        for f in followers {
            f.join().unwrap();
        }
    });

    // Two fsyncs total: the leader's own, then exactly one covering all
    // seven followers as a single batch.
    assert_eq!(store.flushes.load(Ordering::Acquire), 2);
    let s = wal.stats.snapshot();
    assert_eq!(s.fsyncs, 2);
    // The leader always waits, and at least one follower must lead the
    // second flush; a follower scheduled late may find its LSN already
    // durable and skip waiting entirely.
    assert!(
        s.group_commits >= 2 && s.group_commits <= FOLLOWERS + 1,
        "group_commits out of range: {}",
        s.group_commits
    );
    assert!(
        s.batch_records_max >= 3 * FOLLOWERS,
        "second batch must cover all followers, got max {}",
        s.batch_records_max
    );
    assert_eq!(wal.durable_lag(), 0);
}

/// Commits acknowledged before a checkpoint stay durable through it, and the
/// checkpoint coordinates with concurrent committers without losing records.
#[test]
fn checkpoint_coordinates_with_group_commit() {
    let wal = Wal::new(Arc::new(MemLogStore::new()));
    let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for slot in 0..4 {
            let txns = Arc::clone(&txns);
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    commit_one_insert(&txns, slot);
                }
            });
        }
        for _ in 0..20 {
            let barrier = wal.current_lsn() + 1;
            let keep = txns.oldest_active_lsn().map_or(barrier, |l| l.min(barrier));
            wal.checkpoint(keep).unwrap();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    // The log replays cleanly after heavy checkpoint/commit interleaving and
    // ends with a consistent watermark. Every transaction finished, so the
    // surviving suffix must contain no losers — a Begin carried past a
    // checkpoint must keep its Commit too.
    let report = recover(&wal, &RecoveryEnv::default()).unwrap();
    assert_eq!(report.losers, 0, "checkpoint orphaned a committed txn");
    let recs = wal.read_records().unwrap();
    assert!(recs
        .iter()
        .any(|r| matches!(r, LogRecord::Checkpoint | LogRecord::Commit { .. })));
    assert!(wal.durable_lsn() <= wal.records_written());
    assert!(wal.stats.snapshot().fsyncs > 0, "no commit reached the WAL");
}

/// `Begin` is logged lazily, at a transaction's first record. Here a
/// transaction inserts into the heap, a checkpoint runs before its first
/// `log` (flushing the uncommitted insert into the page image and truncating
/// the log, so its `Begin` lands behind the checkpoint marker), and only then
/// does it log. Recovery must still know the transaction: uncommitted at the
/// crash, its insert is rolled back; committed, the insert survives.
/// Read-only transactions open at the crash logged nothing and must be
/// neither winners nor losers.
#[test]
fn lazy_begin_after_checkpoint_recovers() {
    for commit in [false, true] {
        let dir = tmpdir(if commit { "lazy-commit" } else { "lazy-crash" });
        let early = b"committed-before-checkpoint".to_vec();
        let late = b"logged-after-checkpoint".to_vec();
        let (early_rid, late_rid);
        {
            let pool = BufferPool::new(64);
            let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
            let space = TableSpace::create(pool.clone(), SPACE, backend).unwrap();
            let heap = HeapTable::create(space).unwrap();
            pool.flush_all().unwrap();
            let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log")).unwrap()));
            let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());

            // Log that the checkpoint will truncate.
            let t = txns.begin().unwrap();
            early_rid = heap.insert(&early).unwrap();
            t.log(&LogRecord::HeapInsert {
                txn: t.id(),
                space: SPACE,
                rid: early_rid,
                data: early.clone(),
            })
            .unwrap();
            t.commit().unwrap();

            let readers: Vec<_> = (0..3).map(|_| txns.begin().unwrap()).collect();
            let t = txns.begin().unwrap();
            late_rid = heap.insert(&late).unwrap();
            // Checkpoint exactly as Database::checkpoint does. Nobody has
            // logged a Begin, so the floor is the barrier itself.
            let barrier = wal.current_lsn() + 1;
            let keep = txns.oldest_active_lsn().map_or(barrier, |l| l.min(barrier));
            assert_eq!(keep, barrier);
            pool.flush_all().unwrap();
            wal.checkpoint(keep).unwrap();
            t.log(&LogRecord::HeapInsert {
                txn: t.id(),
                space: SPACE,
                rid: late_rid,
                data: late.clone(),
            })
            .unwrap();
            if commit {
                t.commit().unwrap();
            } else {
                // The records reach disk with no Commit, then the crash.
                wal.force().unwrap();
                std::mem::forget(t);
            }
            // "Crash" with the readers still open and dirty pages unflushed.
            std::mem::forget(readers);
        }

        let pool = BufferPool::new(64);
        let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
        let space = TableSpace::open(pool.clone(), SPACE, backend).unwrap();
        let heap = HeapTable::open(space).unwrap();
        let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log")).unwrap()));
        let env = RecoveryEnv {
            heaps: HashMap::from([(SPACE, Arc::clone(&heap))]),
            ..Default::default()
        };
        let report = recover(&wal, &env).unwrap();
        assert_eq!(
            (report.winners, report.losers),
            (usize::from(commit), usize::from(!commit)),
            "only the late writer may appear in {report:?}"
        );
        assert_eq!(heap.fetch(early_rid).unwrap(), early);
        if commit {
            assert_eq!(heap.fetch(late_rid).unwrap(), late);
        } else {
            assert!(
                matches!(
                    heap.fetch(late_rid),
                    Err(StorageError::RecordNotFound { .. })
                ),
                "uncommitted insert flushed by the checkpoint survived recovery"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The review scenario for acked-commit loss: checkpoints race a storm of
/// committers, then the process "crashes" without flushing pages. Every
/// commit acknowledged before the crash must be readable after recovery —
/// either from a page image the checkpoint flushed or from a log record the
/// checkpoint carried across its truncation.
#[test]
fn acked_commits_survive_checkpoint_raced_with_commits() {
    const WRITERS: u64 = 4;
    const CHECKPOINTS: usize = 12;

    let dir = tmpdir("ckpt-race");
    let acked: Mutex<Vec<(rx_storage::Rid, Vec<u8>)>> = Mutex::new(Vec::new());
    {
        let pool = BufferPool::new(64);
        let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
        let space = TableSpace::create(pool.clone(), SPACE, backend).unwrap();
        let heap = HeapTable::create(space).unwrap();
        pool.flush_all().unwrap();

        let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log")).unwrap()));
        let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
        let stop = AtomicBool::new(false);

        std::thread::scope(|s| {
            for owner in 0..WRITERS {
                let txns = Arc::clone(&txns);
                let heap = Arc::clone(&heap);
                let (acked, stop) = (&acked, &stop);
                s.spawn(move || {
                    let mut seq = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let t = txns.begin().unwrap();
                        let data = payload(owner, seq);
                        let rid = heap.insert(&data).unwrap();
                        t.log(&LogRecord::HeapInsert {
                            txn: t.id(),
                            space: SPACE,
                            rid,
                            data: data.clone(),
                        })
                        .unwrap();
                        t.commit().unwrap();
                        acked.lock().push((rid, data));
                        seq += 1;
                    }
                });
            }
            // Checkpoint exactly as Database::checkpoint does: compute the
            // keep floor, flush all pages, then truncate the log to it.
            for _ in 0..CHECKPOINTS {
                let barrier = wal.current_lsn() + 1;
                let keep = txns.oldest_active_lsn().map_or(barrier, |l| l.min(barrier));
                pool.flush_all().unwrap();
                wal.checkpoint(keep).unwrap();
                std::thread::yield_now();
            }
            // Make sure the writers actually raced the checkpoints.
            while acked.lock().len() < 50 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
        // "Crash": drop the pool without flushing dirty pages.
    }

    let pool = BufferPool::new(64);
    let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
    let space = TableSpace::open(pool.clone(), SPACE, backend).unwrap();
    let heap = HeapTable::open(space).unwrap();
    let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log")).unwrap()));
    let env = RecoveryEnv {
        heaps: HashMap::from([(SPACE, Arc::clone(&heap))]),
        ..Default::default()
    };
    let report = recover(&wal, &env).unwrap();
    assert_eq!(report.losers, 0, "all transactions were acked: {report:?}");

    let acked = acked.into_inner();
    assert!(!acked.is_empty());
    for (rid, data) in &acked {
        let got = heap
            .fetch(*rid)
            .unwrap_or_else(|e| panic!("acked commit lost across checkpoint at {rid:?}: {e}"));
        assert_eq!(&got, data, "acked commit corrupted at {rid:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log store whose next append can be made to fail once, exercising the
/// leader error path where the batch is restored to staging.
#[derive(Default)]
struct FailingAppendStore {
    inner: MemLogStore,
    fail_next: AtomicBool,
}

impl LogStore for FailingAppendStore {
    fn append(&self, bytes: &[u8]) -> rx_storage::Result<()> {
        if self.fail_next.swap(false, Ordering::AcqRel) {
            return Err(StorageError::Catalog("injected append failure".into()));
        }
        self.inner.append(bytes)
    }
    fn flush(&self) -> rx_storage::Result<()> {
        Ok(())
    }
    fn read_all(&self) -> rx_storage::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn truncate(&self) -> rx_storage::Result<()> {
        self.inner.truncate()
    }
}

/// When a commit's group flush fails, the session is told the commit did not
/// take and rolls back; the orphaned Commit record still reaches the log via
/// a later batch. Recovery must honor the Abort, not redo the "commit".
#[test]
fn failed_commit_flush_recovers_as_aborted() {
    let store = Arc::new(FailingAppendStore::default());
    let wal = Wal::new(Arc::clone(&store) as Arc<dyn LogStore>);
    let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());

    let pool = BufferPool::new(64);
    let backend = Arc::new(rx_storage::MemBackend::new());
    let space = TableSpace::create(pool, SPACE, backend).unwrap();
    let heap = HeapTable::create(space).unwrap();

    let data = b"doomed".to_vec();
    let rid;
    {
        let t = txns.begin().unwrap();
        rid = heap.insert(&data).unwrap();
        t.log(&LogRecord::HeapInsert {
            txn: t.id(),
            space: SPACE,
            rid,
            data: data.clone(),
        })
        .unwrap();
        let (heap, id, data) = (Arc::clone(&heap), t.id(), data.clone());
        t.push_undo(Box::new(move |ctx| {
            heap.delete(rid)?;
            ctx.log(&LogRecord::HeapDelete {
                txn: id,
                space: SPACE,
                rid,
                before: data,
            })?;
            Ok(())
        }));
        store.fail_next.store(true, Ordering::Release);
        // The leader's append fails: the committer is told the commit did
        // not take, and the Drop-rollback undoes the insert, logging the
        // compensation and an Abort (whose flush succeeds and carries the
        // restored batch — including the orphaned Commit — with it).
        assert!(t.commit().is_err());
    }

    // Crash-recover into a fresh heap: the transaction must replay as
    // aborted, leaving no trace of the insert.
    let pool = BufferPool::new(64);
    let backend = Arc::new(rx_storage::MemBackend::new());
    let space = TableSpace::create(pool, SPACE, backend).unwrap();
    let fresh = HeapTable::create(space).unwrap();
    let env = RecoveryEnv {
        heaps: HashMap::from([(SPACE, Arc::clone(&fresh))]),
        ..Default::default()
    };
    let report = recover(&wal, &env).unwrap();
    assert_eq!(report.winners, 0, "failed commit counted as winner");
    assert!(
        matches!(fresh.fetch(rid), Err(StorageError::RecordNotFound { .. })),
        "failed commit's insert survived recovery"
    );
}
