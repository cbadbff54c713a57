//! Buffer manager.
//!
//! A fixed-capacity pool of page frames shared by all table spaces, with
//! pin/unpin reference counting, dirty tracking, LRU-ish (clock) eviction and
//! write-back. XML services and relational services share this component
//! unchanged — the paper lists the buffer manager among the infrastructure
//! pieces that "need no enhancement" (§2).
//!
//! The pool is **lock-striped**: frames are distributed over N independent
//! shards keyed by a hash of the [`PageId`], each with its own hash table,
//! clock hand and capacity slice. Concurrent fetches of pages in different
//! shards never contend on a common mutex, which is what lets the rx-server
//! worker pool scale page access across threads (the paper's scalability
//! claim rests on inheriting exactly this property from the relational
//! buffer manager).

use crate::backend::StorageBackend;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageType};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of a table space within the database.
pub type SpaceId = u32;

/// Global page identifier: (table space, page number).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PageId {
    /// Table space the page belongs to.
    pub space: SpaceId,
    /// Page number within the space.
    pub page: u32,
}

impl PageId {
    /// Construct a page id.
    pub fn new(space: SpaceId, page: u32) -> Self {
        PageId { space, page }
    }
}

struct Frame {
    pid: PageId,
    page: RwLock<Page>,
    pin: AtomicUsize,
    dirty: AtomicBool,
    referenced: AtomicBool,
}

/// Pool-wide counter totals, for experiments (buffer behaviour is part of
/// the paper's I/O-unit argument in §3.1). Hits, misses and contention are
/// counted once, per shard, and summed here; per-shard breakdowns come from
/// [`BufferPool::shard_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests satisfied from the pool.
    pub hits: u64,
    /// Page requests that had to read from the backend.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to a backend.
    pub writebacks: u64,
    /// Shard-mutex acquisitions that found the mutex already held.
    pub contention: u64,
}

/// Live per-shard counters.
#[derive(Default)]
struct ShardStats {
    hits: AtomicU64,
    misses: AtomicU64,
    contention: AtomicU64,
}

/// Point-in-time view of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Page requests satisfied from this shard.
    pub hits: u64,
    /// Page requests this shard had to read from the backend.
    pub misses: u64,
    /// Lock acquisitions on this shard that found the mutex held.
    pub contention: u64,
    /// Frames currently resident in this shard.
    pub resident: u64,
}

struct ShardInner {
    table: HashMap<PageId, Arc<Frame>>,
    clock: Vec<Arc<Frame>>,
    hand: usize,
}

struct Shard {
    /// This shard's slice of the pool capacity.
    capacity: usize,
    inner: Mutex<ShardInner>,
    stats: ShardStats,
}

/// The buffer pool: fixed number of frames striped over shards, per-shard
/// clock eviction, per-space backends.
pub struct BufferPool {
    shards: Vec<Shard>,
    backends: RwLock<HashMap<SpaceId, Arc<dyn StorageBackend>>>,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

/// Smallest legal pool: the clock sweep needs headroom to find an
/// unpinned victim while a handful of pages are pinned.
pub const MIN_BUFFER_PAGES: usize = 8;

/// Upper bound on the shard count. 16 shards covers the worker-pool sizes
/// the server runs with while keeping per-shard capacity large enough for
/// the clock policy to behave like a cache rather than a FIFO.
pub const MAX_BUFFER_SHARDS: usize = 16;

/// Shard count for a given capacity: the largest power of two that is at
/// most [`MAX_BUFFER_SHARDS`] and keeps every shard at least
/// [`MIN_BUFFER_PAGES`] frames.
fn shard_count_for(capacity: usize) -> usize {
    let max_by_cap = (capacity / MIN_BUFFER_PAGES).clamp(1, MAX_BUFFER_SHARDS);
    let mut n = 1;
    while n * 2 <= max_by_cap {
        n *= 2;
    }
    n
}

impl BufferPool {
    /// Create a pool with room for `capacity` pages, auto-sharded.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_shards(capacity, shard_count_for(capacity))
    }

    /// Create a pool with an explicit shard count (must be a power of two
    /// with at least [`MIN_BUFFER_PAGES`] frames per shard).
    pub fn with_shards(capacity: usize, shards: usize) -> Arc<Self> {
        assert!(
            capacity >= MIN_BUFFER_PAGES,
            "buffer pool needs at least {MIN_BUFFER_PAGES} frames"
        );
        assert!(
            shards >= 1 && shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        assert!(
            capacity / shards >= MIN_BUFFER_PAGES,
            "each shard needs at least {MIN_BUFFER_PAGES} frames"
        );
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| Shard {
                capacity: base + usize::from(i < extra),
                inner: Mutex::new(ShardInner {
                    table: HashMap::with_capacity(base + 1),
                    clock: Vec::with_capacity(base + 1),
                    hand: 0,
                }),
                stats: ShardStats::default(),
            })
            .collect();
        Arc::new(BufferPool {
            shards,
            backends: RwLock::new(HashMap::new()),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        })
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total frame capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity).sum()
    }

    fn shard_of(&self, pid: PageId) -> &Shard {
        // Fibonacci hash of (space, page); shard count is a power of two.
        let key = (u64::from(pid.space) << 32) | u64::from(pid.page);
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Lock a shard, counting the acquisition as contended if the mutex was
    /// already held.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardInner> {
        match shard.inner.try_lock() {
            Some(g) => g,
            None => {
                shard.stats.contention.fetch_add(1, Ordering::Relaxed);
                shard.inner.lock()
            }
        }
    }

    /// Register the backend that stores pages for `space`.
    pub fn register_space(&self, space: SpaceId, backend: Arc<dyn StorageBackend>) {
        self.backends.write().insert(space, backend);
    }

    /// Drop all cached pages of `space` (used when a space is destroyed).
    pub fn forget_space(&self, space: SpaceId) {
        for shard in &self.shards {
            let mut inner = self.lock_shard(shard);
            inner.table.retain(|pid, _| pid.space != space);
            inner.clock.retain(|f| f.pid.space != space);
            inner.hand = match inner.clock.len() {
                0 => 0,
                n => inner.hand % n,
            };
        }
        self.backends.write().remove(&space);
    }

    fn backend(&self, space: SpaceId) -> Result<Arc<dyn StorageBackend>> {
        self.backends
            .read()
            .get(&space)
            .cloned()
            .ok_or_else(|| StorageError::Catalog(format!("table space {space} is not registered")))
    }

    /// Fetch a page, pinning it. The returned guard unpins on drop.
    pub fn fetch(self: &Arc<Self>, pid: PageId) -> Result<PageGuard> {
        let shard = self.shard_of(pid);
        // Fast path: already resident.
        {
            let inner = self.lock_shard(shard);
            if let Some(f) = inner.table.get(&pid) {
                f.pin.fetch_add(1, Ordering::AcqRel);
                f.referenced.store(true, Ordering::Relaxed);
                shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PageGuard {
                    frame: Arc::clone(f),
                });
            }
        }
        shard.stats.misses.fetch_add(1, Ordering::Relaxed);
        // Read outside the shard lock.
        let backend = self.backend(pid.space)?;
        let page = Page::read_with(|buf| backend.read_page(pid.page, buf))?;

        let mut inner = self.lock_shard(shard);
        // Re-check: another thread may have loaded it while we read.
        if let Some(f) = inner.table.get(&pid) {
            f.pin.fetch_add(1, Ordering::AcqRel);
            return Ok(PageGuard {
                frame: Arc::clone(f),
            });
        }
        let frame = Arc::new(Frame {
            pid,
            page: RwLock::new(page),
            pin: AtomicUsize::new(1),
            dirty: AtomicBool::new(false),
            referenced: AtomicBool::new(true),
        });
        if inner.clock.len() >= shard.capacity {
            self.evict_one(&mut inner)?;
        }
        inner.table.insert(pid, Arc::clone(&frame));
        inner.clock.push(Arc::clone(&frame));
        Ok(PageGuard { frame })
    }

    /// Fetch a page and reformat it as a fresh page of `ptype` without reading
    /// the backend image (the caller knows it is newly allocated).
    pub fn fetch_new(self: &Arc<Self>, pid: PageId, ptype: PageType) -> Result<PageGuard> {
        let g = self.fetch(pid)?;
        {
            let mut p = g.write();
            p.format(ptype);
        }
        Ok(g)
    }

    fn evict_one(&self, inner: &mut ShardInner) -> Result<()> {
        // Clock sweep: skip pinned frames; clear reference bits; evict the
        // first unpinned, unreferenced frame.
        let n = inner.clock.len();
        for _ in 0..2 * n + 1 {
            let i = inner.hand % n;
            inner.hand = (inner.hand + 1) % n;
            let f = &inner.clock[i];
            if f.pin.load(Ordering::Acquire) > 0 {
                continue;
            }
            if f.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            // Write back while the frame is still owned by the shard, so a
            // failed write leaves the page resident and dirty instead of
            // dropping it on the floor.
            if f.dirty.swap(false, Ordering::AcqRel) {
                if let Err(e) = self.write_back(f) {
                    f.dirty.store(true, Ordering::Release);
                    return Err(e);
                }
            }
            let f = inner.clock.swap_remove(i);
            // swap_remove moved the former tail frame into slot `i`; keep the
            // hand there so the sweep examines it next instead of restarting
            // at the front of the vector.
            inner.hand = match inner.clock.len() {
                0 => 0,
                len => i % len,
            };
            inner.table.remove(&f.pid);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        Err(StorageError::BufferPoolExhausted)
    }

    fn write_back(&self, f: &Frame) -> Result<()> {
        let backend = self.backend(f.pid.space)?;
        let page = f.page.read();
        backend.write_page(f.pid.page, page.bytes().as_slice())?;
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write back the dirty frames of `frames`, restoring the dirty bit on
    /// failure so an I/O error never silently discards an update.
    fn flush_frames(&self, frames: &[Arc<Frame>]) -> Result<()> {
        for f in frames {
            if f.dirty.swap(false, Ordering::AcqRel) {
                if let Err(e) = self.write_back(f) {
                    f.dirty.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Write every dirty page back to its backend (without dropping them).
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let frames: Vec<Arc<Frame>> = {
                let inner = self.lock_shard(shard);
                inner.clock.to_vec()
            };
            self.flush_frames(&frames)?;
        }
        for b in self.backends.read().values() {
            b.sync()?;
        }
        Ok(())
    }

    /// Write back the dirty pages of one space only (targeted durability,
    /// e.g. catalog flushes).
    pub fn flush_space(&self, space: SpaceId) -> Result<()> {
        let backend = self.backend(space)?;
        for shard in &self.shards {
            let frames: Vec<Arc<Frame>> = {
                let inner = self.lock_shard(shard);
                inner
                    .clock
                    .iter()
                    .filter(|f| f.pid.space == space)
                    .cloned()
                    .collect()
            };
            self.flush_frames(&frames)?;
        }
        backend.sync()?;
        Ok(())
    }

    /// Number of resident pages (for tests). Takes the shard locks uncounted
    /// so stats polling never inflates the contention counters it reports.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().clock.len()).sum()
    }

    /// Pool-wide counter totals: the per-shard counters summed, plus
    /// evictions and write-backs. Reads no shard lock.
    pub fn stats(&self) -> BufferStats {
        let sum = |c: fn(&ShardStats) -> &AtomicU64| -> u64 {
            self.shards
                .iter()
                .map(|s| c(&s.stats).load(Ordering::Relaxed))
                .sum()
        };
        BufferStats {
            hits: sum(|s| &s.hits),
            misses: sum(|s| &s.misses),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            contention: sum(|s| &s.contention),
        }
    }

    /// Per-shard counter snapshot (hits, misses, contention, resident).
    /// Locks are uncounted here for the same reason as [`Self::resident`].
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.shards
            .iter()
            .map(|s| ShardStatsSnapshot {
                hits: s.stats.hits.load(Ordering::Relaxed),
                misses: s.stats.misses.load(Ordering::Relaxed),
                contention: s.stats.contention.load(Ordering::Relaxed),
                resident: s.inner.lock().clock.len() as u64,
            })
            .collect()
    }
}

/// A pinned page. Dropping the guard unpins the frame; reads and writes go
/// through an internal reader-writer latch. Writing marks the frame dirty.
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl PageGuard {
    /// The page's identity.
    pub fn pid(&self) -> PageId {
        self.frame.pid
    }

    /// Acquire the page latch for reading.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.frame.page.read()
    }

    /// Acquire the page latch for writing and mark the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        self.frame.dirty.store(true, Ordering::Release);
        self.frame.page.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::page::PAGE_SIZE;

    fn pool_with_space(cap: usize) -> Arc<BufferPool> {
        let pool = BufferPool::new(cap);
        pool.register_space(1, Arc::new(MemBackend::new()));
        pool
    }

    #[test]
    fn shard_counts_scale_with_capacity() {
        assert_eq!(shard_count_for(8), 1);
        assert_eq!(shard_count_for(15), 1);
        assert_eq!(shard_count_for(16), 2);
        assert_eq!(shard_count_for(64), 8);
        assert_eq!(shard_count_for(4096), 16);
        assert_eq!(BufferPool::new(8).shard_count(), 1);
        assert_eq!(BufferPool::new(4096).shard_count(), 16);
        assert_eq!(BufferPool::new(4096).capacity(), 4096);
        // Uneven split still sums to the requested capacity.
        assert_eq!(BufferPool::with_shards(100, 4).capacity(), 100);
    }

    #[test]
    fn fetch_hit_and_miss() {
        let pool = pool_with_space(8);
        let pid = PageId::new(1, 0);
        {
            let g = pool.fetch(pid).unwrap();
            g.write().set_lsn(99);
        }
        let g = pool.fetch(pid).unwrap();
        assert_eq!(g.read().lsn(), 99);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn a_miss_on_a_bad_page_image_fails_as_corrupt() {
        let backend = Arc::new(MemBackend::new());
        let pool = BufferPool::new(8);
        pool.register_space(1, backend.clone());
        // Every byte of the stored image, the page-type byte included, is
        // 0xEE, which names no page type.
        backend.write_page(3, &vec![0xEE; PAGE_SIZE]).unwrap();
        assert!(matches!(
            pool.fetch(PageId::new(1, 3)),
            Err(StorageError::Corrupt(_))
        ));
        assert_eq!(pool.resident(), 0);
        // A good image next to it still reads, in place, byte for byte.
        let good = Page::new(PageType::Data);
        backend.write_page(4, good.bytes()).unwrap();
        let g = pool.fetch(PageId::new(1, 4)).unwrap();
        assert_eq!(g.read().bytes(), good.bytes());
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let backend = Arc::new(MemBackend::new());
        let pool = BufferPool::new(8);
        pool.register_space(1, backend.clone());
        // Dirty 20 pages through an 8-frame pool.
        for i in 0..20u32 {
            let g = pool.fetch(PageId::new(1, i)).unwrap();
            g.write().set_lsn(u64::from(i) + 1);
        }
        pool.flush_all().unwrap();
        // All 20 pages must be durable with their LSNs.
        for i in 0..20u32 {
            let mut buf = vec![0u8; PAGE_SIZE];
            backend.read_page(i, &mut buf).unwrap();
            let p = Page::from_bytes(&buf).unwrap();
            assert_eq!(p.lsn(), u64::from(i) + 1, "page {i}");
        }
        assert!(pool.resident() <= 8);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let pool = pool_with_space(8);
        let guards: Vec<_> = (0..8u32)
            .map(|i| pool.fetch(PageId::new(1, i)).unwrap())
            .collect();
        // Pool full of pinned pages: next fetch must fail.
        assert!(matches!(
            pool.fetch(PageId::new(1, 100)),
            Err(StorageError::BufferPoolExhausted)
        ));
        drop(guards);
        assert!(pool.fetch(PageId::new(1, 100)).is_ok());
    }

    #[test]
    fn concurrent_fetches() {
        let pool = pool_with_space(64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..200u32 {
                        let g = pool.fetch(PageId::new(1, i % 32)).unwrap();
                        if (i + t) % 3 == 0 {
                            g.write().set_next_page(i);
                        } else {
                            let _ = g.read().next_page();
                        }
                    }
                });
            }
        });
    }

    /// The pool-wide totals, summed from the shard counters, read what
    /// one pool-wide counter per event would: one hit or miss per fetch
    /// call and one contention per contended shard lock.
    #[test]
    fn summed_totals_count_each_fetch_and_contended_lock_once() {
        let pool = pool_with_space(128);
        for i in 0..40u32 {
            pool.fetch(PageId::new(1, i)).unwrap();
        }
        for _ in 0..2 {
            for i in 0..40u32 {
                pool.fetch(PageId::new(1, i)).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.contention), (80, 40, 0));
        // Hold page 0's shard lock while another thread fetches page 0.
        let pid = PageId::new(1, 0);
        std::thread::scope(|scope| {
            let held = pool.shard_of(pid).inner.lock();
            let fetcher = scope.spawn(|| drop(pool.fetch(pid).unwrap()));
            while pool.shard_of(pid).stats.contention.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            drop(held);
            fetcher.join().unwrap();
        });
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.contention), (81, 40, 1));
        let shards = pool.shard_stats();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), s.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), s.misses);
        assert_eq!(shards.iter().map(|s| s.contention).sum::<u64>(), 1);
    }

    #[test]
    fn pages_spread_across_shards() {
        let pool = pool_with_space(128);
        assert_eq!(pool.shard_count(), 16);
        for i in 0..64u32 {
            pool.fetch(PageId::new(1, i)).unwrap();
        }
        let per_shard = pool.shard_stats();
        let used = per_shard.iter().filter(|s| s.misses > 0).count();
        assert!(used > 4, "64 pages landed on only {used} shards");
        let total_misses: u64 = per_shard.iter().map(|s| s.misses).sum();
        assert_eq!(total_misses, pool.stats().misses);
        let resident: u64 = per_shard.iter().map(|s| s.resident).sum();
        assert_eq!(resident as usize, pool.resident());
    }

    #[test]
    fn forget_space_clears_only_that_space() {
        let pool = pool_with_space(64);
        pool.register_space(2, Arc::new(MemBackend::new()));
        for i in 0..16u32 {
            pool.fetch(PageId::new(1, i)).unwrap();
            pool.fetch(PageId::new(2, i)).unwrap();
        }
        pool.forget_space(1);
        assert_eq!(pool.resident(), 16);
        assert!(pool.fetch(PageId::new(1, 0)).is_err()); // backend unregistered
        assert!(pool.fetch(PageId::new(2, 0)).is_ok());
    }

    /// A backend whose writes can be made to fail, for dirty-bit tests.
    struct FlakyBackend {
        inner: MemBackend,
        fail_writes: AtomicBool,
    }

    impl FlakyBackend {
        fn new() -> Self {
            FlakyBackend {
                inner: MemBackend::new(),
                fail_writes: AtomicBool::new(false),
            }
        }
    }

    impl StorageBackend for FlakyBackend {
        fn read_page(&self, page_no: u32, buf: &mut [u8]) -> Result<()> {
            self.inner.read_page(page_no, buf)
        }
        fn write_page(&self, page_no: u32, buf: &[u8]) -> Result<()> {
            if self.fail_writes.load(Ordering::Relaxed) {
                return Err(StorageError::Catalog("injected write failure".into()));
            }
            self.inner.write_page(page_no, buf)
        }
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }
        fn ensure_pages(&self, n: u32) -> Result<()> {
            self.inner.ensure_pages(n)
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_failure_keeps_pages_dirty() {
        let backend = Arc::new(FlakyBackend::new());
        let pool = BufferPool::new(8);
        pool.register_space(1, backend.clone());
        let pid = PageId::new(1, 0);
        {
            let g = pool.fetch(pid).unwrap();
            g.write().set_lsn(42);
        }
        backend.fail_writes.store(true, Ordering::Relaxed);
        assert!(pool.flush_all().is_err());
        // The dirty bit must survive the failed write: once the backend
        // recovers, a retry flushes the update.
        backend.fail_writes.store(false, Ordering::Relaxed);
        pool.flush_all().unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        backend.read_page(0, &mut buf).unwrap();
        assert_eq!(Page::from_bytes(&buf).unwrap().lsn(), 42);
    }

    #[test]
    fn clock_hand_survives_eviction() {
        // Single shard so the sweep order is observable. Fill the shard,
        // evict repeatedly, and check the pool keeps functioning with the
        // hand advancing (a regression here turns the clock into a
        // front-of-vector scan, which the hit-rate assertion below catches
        // indirectly: the resident set must keep rotating).
        let pool = pool_with_space(8);
        for i in 0..32u32 {
            let g = pool.fetch(PageId::new(1, i)).unwrap();
            g.write().set_lsn(u64::from(i) + 1);
        }
        assert!(pool.resident() <= 8);
        assert!(pool.stats().evictions >= 24);
        // All pages still readable with correct contents after heavy churn.
        for i in 0..32u32 {
            let g = pool.fetch(PageId::new(1, i)).unwrap();
            assert_eq!(g.read().lsn(), u64::from(i) + 1, "page {i}");
        }
    }
}
