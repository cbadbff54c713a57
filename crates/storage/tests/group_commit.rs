//! Durability under group commit: every acknowledged commit survives crash
//! recovery (including a torn log tail mid-batch), an unacknowledged
//! in-flight transaction rolls back cleanly, and the flush under the log's
//! tail lock provably batches — one fsync covering many committers — while
//! `Wal::log` never waits for it.

use parking_lot::{Condvar, Mutex};
use rx_storage::wal::{recover, FileLogStore, LogRecord, LogStore, MemLogStore, RecoveryEnv, Wal};
use rx_storage::{
    BufferPool, FileBackend, HeapTable, LockManager, StorageError, TableSpace, TxnManager,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// A log store whose fsync blocks until the test lets it through, making the
/// group-commit batching deterministic: the first committer is held inside
/// its fsync, holding the log tail, while seven more stage their records;
/// then the next committer to take the tail flushes all seven with a single
/// additional fsync.
#[derive(Default)]
struct GatedStore {
    inner: MemLogStore,
    /// Fsyncs the gate still lets through (`u64::MAX` once it is open).
    passes: Mutex<u64>,
    cond: Condvar,
    /// Fsyncs entered, held at the gate or not.
    flushes: AtomicU64,
}

impl GatedStore {
    fn wait_entered(&self, n: u64) {
        while self.flushes.load(Ordering::Acquire) < n {
            std::thread::yield_now();
        }
    }

    fn let_one_through(&self) {
        *self.passes.lock() += 1;
        self.cond.notify_all();
    }

    fn open_gate(&self) {
        *self.passes.lock() = u64::MAX;
        self.cond.notify_all();
    }
}

impl LogStore for GatedStore {
    fn append(&self, bytes: &[u8]) -> rx_storage::Result<()> {
        self.inner.append(bytes)
    }
    fn flush(&self) -> rx_storage::Result<()> {
        self.flushes.fetch_add(1, Ordering::AcqRel);
        let mut passes = self.passes.lock();
        while *passes == 0 {
            self.cond.wait(&mut passes);
        }
        if *passes != u64::MAX {
            *passes -= 1;
        }
        Ok(())
    }
    fn read_all(&self) -> rx_storage::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn replace(&self, image: &[u8]) -> rx_storage::Result<()> {
        self.inner.replace(image)
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
        store.wait_entered(1);

        // Followers: stage Begin+HeapInsert+Commit and park while the
        // leader holds the log tail, stuck in its fsync.
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
    // The leader always waits, and at least one follower must take the
    // tail for the second flush; a follower scheduled late may find its LSN
    // already durable and skip waiting entirely.
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

/// A committer whose record the last flush covered returns when that flush
/// ends, even though another committer takes the tail for the next flush at
/// once. A is held in the first fsync, whose batch holds X's commit; D
/// staged after A took its batch and waits for the tail before X does. When
/// the first fsync ends, D flushes and is held in the second one, and X must
/// not wait for it. Committers queued on the tail lock, rather than parked
/// until it is let go, would be let go in turn, D first, and X would wait.
#[test]
fn a_commit_the_last_flush_covered_does_not_wait_for_the_next() {
    const X: u64 = 1_000;

    let store = Arc::new(GatedStore::default());
    let wal = Wal::new(Arc::clone(&store) as Arc<dyn LogStore>);
    let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
    wal.log(&LogRecord::Begin { txn: X }).unwrap();
    let x_commit = wal.log(&LogRecord::Commit { txn: X }).unwrap();

    std::thread::scope(|s| {
        let a_txns = Arc::clone(&txns);
        s.spawn(move || commit_one_insert(&a_txns, 0));
        store.wait_entered(1);
        let d_txns = Arc::clone(&txns);
        s.spawn(move || commit_one_insert(&d_txns, 1));
        // X's two records, then A's three and D's three.
        while wal.records_written() < 8 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));

        let (returned, rx) = std::sync::mpsc::channel();
        let wal_x = &wal;
        s.spawn(move || {
            wal_x.wait_durable(x_commit).unwrap();
            returned.send(()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        store.let_one_through();
        store.wait_entered(2);
        // Bounded, so a commit held behind D's fsync fails the test instead
        // of hanging it.
        let waited = rx.recv_timeout(Duration::from_secs(30)).is_err();
        store.open_gate();
        assert!(!waited, "a covered commit waited for the next flush");
    });
    assert_eq!(store.flushes.load(Ordering::Acquire), 2);
    assert_eq!(wal.durable_lag(), 0);
}

/// A flush holds only the log tail. Committer A is held inside its fsync:
/// meanwhile another session's `Wal::log` returns, and a checkpoint queues
/// on the tail until the fsync ends. Recovery then finds A committed, and
/// the records the other session staged during the stall carried across the
/// checkpoint.
#[test]
fn log_and_checkpoint_beside_a_stuck_flush() {
    const B: u64 = 1_000;

    let store = Arc::new(GatedStore::default());
    let wal = Wal::new(Arc::clone(&store) as Arc<dyn LogStore>);
    let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
    let checkpointed = AtomicBool::new(false);
    let b_insert = LogRecord::HeapInsert {
        txn: B,
        space: SPACE,
        rid: rx_storage::Rid::new(1, 1),
        data: payload(B, 0),
    };

    std::thread::scope(|s| {
        let a_txns = Arc::clone(&txns);
        let a = s.spawn(move || commit_one_insert(&a_txns, 0));
        store.wait_entered(1);

        // Bounded, so a `log` that waits for the fsync fails the test
        // instead of hanging it.
        let (logged, rx) = std::sync::mpsc::channel();
        let (wal_b, rec) = (&wal, &b_insert);
        s.spawn(move || {
            wal_b.log(&LogRecord::Begin { txn: B }).unwrap();
            wal_b.log(rec).unwrap();
            logged.send(()).unwrap();
        });
        if rx.recv_timeout(Duration::from_secs(30)).is_err() {
            store.open_gate();
            panic!("Wal::log waited for a stuck fsync");
        }

        let (wal_c, done) = (&wal, &checkpointed);
        let c = s.spawn(move || {
            wal_c.checkpoint(1).unwrap();
            done.store(true, Ordering::Release);
        });
        std::thread::sleep(Duration::from_millis(100));
        let early = checkpointed.load(Ordering::Acquire);
        store.open_gate();
        assert!(!early, "the checkpoint finished beside a stuck fsync");
        a.join().unwrap();
        c.join().unwrap();
    });
    let commit = wal.log(&LogRecord::Commit { txn: B }).unwrap();
    wal.wait_durable(commit).unwrap();

    // Reopen over the same store, as after a crash.
    let wal = Wal::new(Arc::clone(&store) as Arc<dyn LogStore>);
    let recs = wal.read_records().unwrap();
    assert_eq!(recs.first(), Some(&LogRecord::Checkpoint));
    // A is the manager's first transaction.
    assert!(
        recs.contains(&LogRecord::Commit { txn: 1 }),
        "A's commit: {recs:?}"
    );
    assert!(recs.contains(&b_insert), "B's staged insert was lost");
    let report = recover(&wal, &RecoveryEnv::default()).unwrap();
    assert_eq!((report.winners, report.losers), (2, 0), "{report:?}");
}

/// Commits acknowledged before a checkpoint stay durable through it, and the
/// checkpoint coordinates with concurrent committers without losing records.
#[test]
fn checkpoint_coordinates_with_group_commit() {
    let wal = Wal::new(Arc::new(MemLogStore::new()));
    let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
    let stop = AtomicBool::new(false);
    // Each committer counts its first commit; the checkpoints start only
    // once all four have committed, so some commit always reaches the WAL.
    let started = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for slot in 0..4 {
            let txns = Arc::clone(&txns);
            let (stop, started) = (&stop, &started);
            s.spawn(move || {
                commit_one_insert(&txns, slot);
                started.fetch_add(1, Ordering::SeqCst);
                while !stop.load(Ordering::Relaxed) {
                    commit_one_insert(&txns, slot);
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while started.load(Ordering::SeqCst) < 4 {
            if Instant::now() > deadline {
                stop.store(true, Ordering::Relaxed);
                panic!("a committer never committed");
            }
            std::thread::yield_now();
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
/// flush error path where the batch is restored to staging.
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
    fn replace(&self, image: &[u8]) -> rx_storage::Result<()> {
        self.inner.replace(image)
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
    let id;
    {
        let t = txns.begin().unwrap();
        id = t.id();
        rid = t.heap_insert(&heap, data.clone()).unwrap();
        store.fail_next.store(true, Ordering::Release);
        // The flush's append fails: the committer is told the commit did
        // not take, and the Drop-rollback undoes the insert, logging the
        // compensation and an Abort (whose flush succeeds and carries the
        // restored batch — including the orphaned Commit — with it).
        assert!(t.commit().is_err());
    }
    assert!(
        matches!(heap.fetch(rid), Err(StorageError::RecordNotFound { .. })),
        "the Drop-rollback left the insert in place"
    );
    let mine: Vec<LogRecord> = wal
        .read_records()
        .unwrap()
        .into_iter()
        .filter(|r| r.txn() == Some(id))
        .collect();
    assert_eq!(
        mine,
        vec![
            LogRecord::Begin { txn: id },
            LogRecord::HeapInsert {
                txn: id,
                space: SPACE,
                rid,
                data: data.clone(),
            },
            LogRecord::Commit { txn: id },
            LogRecord::HeapDelete {
                txn: id,
                space: SPACE,
                rid,
                before: data,
            },
            LogRecord::Abort { txn: id },
        ]
    );

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

/// A log store whose `replace` fails before it touches the log, as when the
/// temporary image cannot be written.
struct FailingReplaceStore(FileLogStore);

impl LogStore for FailingReplaceStore {
    fn append(&self, bytes: &[u8]) -> rx_storage::Result<()> {
        self.0.append(bytes)
    }
    fn flush(&self) -> rx_storage::Result<()> {
        self.0.flush()
    }
    fn read_all(&self) -> rx_storage::Result<Vec<u8>> {
        self.0.read_all()
    }
    fn replace(&self, _image: &[u8]) -> rx_storage::Result<()> {
        Err(StorageError::Catalog("injected replace failure".into()))
    }
}

/// A checkpoint flushes pages that hold an in-flight transaction's insert,
/// then its log rewrite fails. The old log stays whole, so after a crash
/// recovery still finds the insert's undo and rolls the transaction back.
#[test]
fn failed_checkpoint_rewrite_keeps_the_undo_of_in_flight_work() {
    let dir = tmpdir("ckpt-fail");
    let (kept, lost);
    {
        let pool = BufferPool::new(64);
        let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
        let space = TableSpace::create(pool.clone(), SPACE, backend).unwrap();
        let heap = HeapTable::create(space).unwrap();
        pool.flush_all().unwrap();
        let store = Arc::new(FailingReplaceStore(
            FileLogStore::open(&dir.join("wal.log")).unwrap(),
        ));
        let wal = Wal::new(Arc::clone(&store) as Arc<dyn LogStore>);
        let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
        let committed = txns.begin().unwrap();
        kept = committed.heap_insert(&heap, b"committed".to_vec()).unwrap();
        committed.commit().unwrap();
        let in_flight = txns.begin().unwrap();
        lost = in_flight.heap_insert(&heap, b"in flight".to_vec()).unwrap();
        // As Database::checkpoint does: compute the keep floor, force the
        // log, flush every page (the in-flight insert's too), then rewrite
        // the log.
        let barrier = wal.current_lsn() + 1;
        let keep = txns.oldest_active_lsn().map_or(barrier, |l| l.min(barrier));
        wal.force().unwrap();
        let before = store.read_all().unwrap();
        pool.flush_all().unwrap();
        assert!(wal.checkpoint(keep).is_err());
        assert_eq!(
            store.read_all().unwrap(),
            before,
            "a failed rewrite leaves the old image"
        );
        // Crash with the transaction in flight.
        std::mem::forget(in_flight);
    }

    let pool = BufferPool::new(64);
    let backend = Arc::new(FileBackend::open(&dir.join("space-1.dat")).unwrap());
    let space = TableSpace::open(pool.clone(), SPACE, backend).unwrap();
    let heap = HeapTable::open(space).unwrap();
    assert_eq!(
        heap.fetch(lost).unwrap(),
        b"in flight",
        "the page was flushed"
    );
    let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log")).unwrap()));
    let env = RecoveryEnv {
        heaps: HashMap::from([(SPACE, Arc::clone(&heap))]),
        ..Default::default()
    };
    let report = recover(&wal, &env).unwrap();
    assert_eq!(report.losers, 1, "{report:?}");
    assert_eq!(heap.fetch(kept).unwrap(), b"committed");
    assert!(heap.fetch(lost).is_err(), "the in-flight insert is undone");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `FileLogStore::replace` swaps the whole image: appends after it extend
/// the new image, reopening reads it, and a temporary file that a crash
/// left beside the log is ignored at open and overwritten.
#[test]
fn file_log_replace_swaps_the_whole_image() {
    let dir = tmpdir("replace");
    let path = dir.join("wal.log");
    std::fs::write(dir.join("wal.log.tmp"), b"torn image").unwrap();
    let store = FileLogStore::open(&path).unwrap();
    store.append(b"old").unwrap();
    assert_eq!(store.read_all().unwrap(), b"old");
    store.replace(b"new").unwrap();
    store.append(b"+tail").unwrap();
    store.flush().unwrap();
    assert_eq!(store.read_all().unwrap(), b"new+tail");
    assert!(!dir.join("wal.log.tmp").exists());
    drop(store);
    let reopened = FileLogStore::open(&path).unwrap();
    assert_eq!(reopened.read_all().unwrap(), b"new+tail");
    std::fs::remove_dir_all(&dir).unwrap();
}
