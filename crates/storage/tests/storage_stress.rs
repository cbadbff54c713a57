//! Contended-storage stress: many threads hammer the sharded buffer pool and
//! the group-commit WAL at once, then every counter invariant is checked.
//! Thread count scales with `RX_STRESS_THREADS` (default 8) so CI can turn
//! the pressure up without editing the test.

use rx_storage::buffer::BufferStats;
use rx_storage::wal::MemLogStore;
use rx_storage::{
    BufferPool, HeapTable, LockManager, LogRecord, MemBackend, PageId, StorageBackend, TableSpace,
    TxnManager, Wal,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn stress_threads() -> u64 {
    std::env::var("RX_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8)
}

/// Tiny deterministic PRNG so the access pattern is reproducible without
/// pulling in a rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

const SPACE: u32 = 7;

/// In-memory log whose flush costs a realistic fsync latency. With free
/// flushes committers never overlap and every commit gets a private fsync;
/// this store makes the batching the test asserts on actually observable.
#[derive(Default)]
struct SlowSyncStore(MemLogStore);

impl rx_storage::wal::LogStore for SlowSyncStore {
    fn append(&self, bytes: &[u8]) -> rx_storage::Result<()> {
        self.0.append(bytes)
    }
    fn flush(&self) -> rx_storage::Result<()> {
        std::thread::sleep(std::time::Duration::from_micros(500));
        self.0.flush()
    }
    fn read_all(&self) -> rx_storage::Result<Vec<u8>> {
        self.0.read_all()
    }
    fn truncate(&self) -> rx_storage::Result<()> {
        self.0.truncate()
    }
}

/// Concurrent readers fetching a working set larger than the pool: per-shard
/// hit/miss counters must sum to the global ones, every fetch must be either
/// a hit or a miss, and residency can never exceed capacity.
#[test]
fn sharded_fetches_keep_counters_consistent() {
    const CAPACITY: usize = 64;
    const PAGES: u32 = 256;
    const FETCHES_PER_THREAD: u64 = 2_000;

    let pool = BufferPool::new(CAPACITY);
    let backend = Arc::new(MemBackend::new());
    backend.ensure_pages(PAGES).unwrap();
    pool.register_space(SPACE, backend);
    assert!(pool.shard_count() > 1, "capacity {CAPACITY} must shard");

    let threads = stress_threads();
    let fetches = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = pool.clone();
            let fetches = &fetches;
            s.spawn(move || {
                let mut rng = Lcg(0x5eed ^ t);
                for _ in 0..FETCHES_PER_THREAD {
                    let page = (rng.next() % PAGES as u64) as u32;
                    let g = pool.fetch(PageId::new(SPACE, page)).unwrap();
                    drop(g);
                    fetches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let BufferStats {
        hits,
        misses,
        evictions,
        ..
    } = pool.stats();
    let total = fetches.load(Ordering::Relaxed);
    assert_eq!(total, threads * FETCHES_PER_THREAD);
    assert_eq!(hits + misses, total, "every fetch is a hit or a miss");
    assert!(misses > 0, "working set exceeds capacity: misses expected");
    assert!(
        evictions > 0,
        "working set exceeds capacity: evictions expected"
    );

    let shards = pool.shard_stats();
    assert_eq!(shards.len(), pool.shard_count());
    assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), hits);
    assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), misses);
    let resident: u64 = shards.iter().map(|s| s.resident).sum();
    assert!(
        resident <= pool.capacity() as u64,
        "resident {resident} exceeds capacity {}",
        pool.capacity()
    );
    // The randomized working set must actually spread over the shards.
    assert!(
        shards.iter().filter(|s| s.hits + s.misses > 0).count() > 1,
        "all traffic landed on one shard"
    );
}

/// Concurrent transactional writers: after the storm, all committed rows are
/// readable, the WAL batched fsyncs (fsyncs <= group commits, and strictly
/// fewer fsyncs than commits under real contention), and nothing remains
/// non-durable.
#[test]
fn concurrent_commits_batch_and_stay_consistent() {
    const TXNS_PER_THREAD: u64 = 50;

    let pool = BufferPool::new(128);
    let backend = Arc::new(MemBackend::new());
    let space = TableSpace::create(pool.clone(), SPACE, backend).unwrap();
    let heap = HeapTable::create(space).unwrap();
    let wal = Wal::new(Arc::new(SlowSyncStore::default()));
    let txns = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());

    let threads = stress_threads();
    let committed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for owner in 0..threads {
            let txns = Arc::clone(&txns);
            let heap = Arc::clone(&heap);
            let committed = &committed;
            s.spawn(move || {
                for seq in 0..TXNS_PER_THREAD {
                    let t = txns.begin().unwrap();
                    let data = format!("stress-{owner}-{seq}").into_bytes();
                    let rid = heap.insert(&data).unwrap();
                    t.log(&LogRecord::HeapInsert {
                        txn: t.id(),
                        space: SPACE,
                        rid,
                        data: data.clone(),
                    })
                    .unwrap();
                    t.commit().unwrap();
                    committed.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(heap.fetch(rid).unwrap(), data);
                }
            });
        }
    });

    let total = committed.load(Ordering::Relaxed);
    assert_eq!(total, threads * TXNS_PER_THREAD);
    assert_eq!(txns.active_count(), 0, "all transactions finished");

    // Begin + HeapInsert + Commit per transaction.
    assert_eq!(wal.records_written(), total * 3);
    assert_eq!(wal.durable_lag(), 0, "every acked commit is durable");
    assert_eq!(wal.durable_lsn(), total * 3);

    let s = wal.stats.snapshot();
    assert!(s.fsyncs > 0);
    assert!(
        s.fsyncs <= s.group_commits,
        "fsyncs {} must never exceed waiting commits {}",
        s.fsyncs,
        s.group_commits
    );
    if threads >= 8 {
        // Under real contention batching must actually kick in: strictly
        // fewer fsyncs than commits, i.e. batch size > 1 on average.
        assert!(
            s.fsyncs < total,
            "no batching happened: {} fsyncs for {} commits",
            s.fsyncs,
            total
        );
        assert!(
            s.batch_records_max > 1,
            "never batched more than one record"
        );
    }

    // The pool's shard counters stayed coherent under the same storm.
    let BufferStats { hits, misses, .. } = pool.stats();
    let shards = pool.shard_stats();
    assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), hits);
    assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), misses);
    assert!(shards.iter().map(|s| s.resident).sum::<u64>() <= pool.capacity() as u64);
}
