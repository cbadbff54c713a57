//! Parallel query execution: a shared worker pool that fans document
//! evaluation across threads, and an LRU cache of compiled query plans.
//!
//! The paper's scalability argument is that packed XML records "look like
//! rows" to the relational substrate, so relational-style parallel scan
//! machinery applies to XPath evaluation unchanged: candidate documents are
//! independent, the buffer pool is sharded, and indexes are behind `Arc`s,
//! so a query can partition its candidate DocID list and run one
//! QuickXScan + Traverser per partition concurrently.
//!
//! The executor never blocks one batch's tasks on another batch: partitions
//! are claimed from a shared cursor by the pool's threads *and* by the
//! calling thread, so a query always makes progress even when the pool is
//! saturated by other queries (the caller just degrades toward serial).

use crate::access::AccessPlan;
use crate::lru::Lru;
use parking_lot::{Condvar, Mutex};
use rx_xpath::QueryTree;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;
type Task<T> = Box<dyn FnOnce() -> T + Send>;

/// State shared between the pool's threads and the executor handle.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A batch of claimable tasks: workers (and the caller) take the next
/// unclaimed index until the cursor passes the end, storing each result in
/// its partition slot so merge order is deterministic.
struct Batch<T> {
    tasks: Vec<Mutex<Option<Task<T>>>>,
    next: AtomicUsize,
    results: Mutex<Vec<Option<T>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

fn drain_batch<T: Send>(b: &Batch<T>) {
    loop {
        let i = b.next.fetch_add(1, Ordering::Relaxed);
        if i >= b.tasks.len() {
            return;
        }
        let task = b.tasks[i].lock().take().expect("task claimed twice");
        let r = task();
        b.results.lock()[i] = Some(r);
        let mut rem = b.remaining.lock();
        *rem -= 1;
        if *rem == 0 {
            b.done.notify_all();
        }
    }
}

/// A shared worker pool for intra-query parallelism. Sized by
/// `DbConfig::query_workers`: the configured parallelism counts the calling
/// thread, so the pool itself holds `workers - 1` threads (none at all for
/// `workers = 1`, which runs every batch inline). Threads are spawned lazily
/// on the first parallel batch and joined when the executor drops.
pub struct QueryExecutor {
    workers: usize,
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    parallel_queries: AtomicU64,
}

impl QueryExecutor {
    /// Create an executor with `workers` total lanes (caller included).
    pub fn new(workers: usize) -> QueryExecutor {
        QueryExecutor {
            workers: workers.max(1),
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            handles: Mutex::new(Vec::new()),
            parallel_queries: AtomicU64::new(0),
        }
    }

    /// Configured parallelism (total lanes, caller included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queries whose evaluation fanned out across more than one lane.
    pub fn parallel_queries(&self) -> u64 {
        self.parallel_queries.load(Ordering::Relaxed)
    }

    fn ensure_started(&self) {
        let mut handles = self.handles.lock();
        if !handles.is_empty() {
            return;
        }
        for i in 0..self.workers - 1 {
            let shared = Arc::clone(&self.shared);
            let h = std::thread::Builder::new()
                .name(format!("rx-query-{i}"))
                .spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock();
                        loop {
                            if shared.shutdown.load(Ordering::Acquire) {
                                return;
                            }
                            if let Some(j) = q.pop_front() {
                                break j;
                            }
                            shared.available.wait(&mut q);
                        }
                    };
                    job();
                })
                .expect("spawn query worker");
            handles.push(h);
        }
    }

    /// Run `tasks` with up to `workers` of them in flight at once, returning
    /// their results in task order. The calling thread participates in the
    /// drain, so a batch completes even when every pool thread is busy with
    /// other batches; with one lane (or one task) everything runs inline.
    pub fn run_batch<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send>>,
    ) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers <= 1 || n == 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        self.ensure_started();
        self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(Batch {
            tasks: tasks
                .into_iter()
                .map(|t| Mutex::new(Some(t)))
                .collect::<Vec<_>>(),
            next: AtomicUsize::new(0),
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        // Enough helpers to fill the other lanes; extras would only find an
        // exhausted cursor, so don't queue them.
        let helpers = (self.workers - 1).min(n - 1);
        {
            let mut q = self.shared.queue.lock();
            for _ in 0..helpers {
                let b = Arc::clone(&batch);
                q.push_back(Box::new(move || drain_batch(&b)));
            }
        }
        self.shared.available.notify_all();
        drain_batch(&batch);
        let mut rem = batch.remaining.lock();
        while *rem > 0 {
            batch.done.wait(&mut rem);
        }
        drop(rem);
        let mut results = batch.results.lock();
        results
            .iter_mut()
            .map(|r| r.take().expect("task result missing"))
            .collect()
    }
}

impl Drop for QueryExecutor {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock before it waits, so it either sees the flag or is already
        // waiting when the notification comes.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Cache key: one entry per distinct query against one column. The path is
/// keyed by its canonical text (`Path::to_string`), so differently written
/// but identical queries share an entry; `prefer_nodeid` is part of the key
/// because it changes the chosen plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Owning table id.
    pub table: u32,
    /// XML column name.
    pub column: String,
    /// Canonical path text.
    pub path: String,
    /// NodeID-granularity preference used at planning time.
    pub prefer_nodeid: bool,
}

/// A cached compiled query: the QuickXScan query tree plus the selected
/// access plan, both behind `Arc`s so workers share them without copying.
pub struct CachedPlan {
    /// Compiled query tree (immutable, shared across worker threads).
    pub tree: Arc<QueryTree>,
    /// Selected access plan (holds `Arc`s to the indexes it scans).
    pub plan: Arc<AccessPlan>,
    /// The equality conjuncts whose synopsis check skips candidates before
    /// evaluation (DESIGN.md §19.2); empty when none is decidable or every
    /// one is answered by an index term.
    pub synopsis: Vec<crate::synopsis::SynopsisTerm>,
}

/// An LRU cache of compiled plans, shared by every query against the
/// database. Invalidated per table on index DDL and table drop — a cached
/// plan holds `Arc`s to the index set it was planned against, so it must not
/// outlive a change to that set.
pub struct PlanCache {
    capacity: usize,
    /// Plans in recency order; keys are shared `Arc`s, so neither a hit
    /// nor an eviction copies a key.
    inner: Mutex<Lru<Arc<PlanKey>, Arc<CachedPlan>>>,
    /// Serializes builds of keys that hash to the same stripe (see
    /// [`PlanCache::get_or_build`]); `inner` is never held across a build.
    build_latches: [Mutex<()>; BUILD_STRIPES],
    hits: AtomicU64,
    misses: AtomicU64,
}

const BUILD_STRIPES: usize = 16;

/// Plans a database's [`PlanCache`] holds (compiled `QueryTree` +
/// `AccessPlan` per distinct query).
pub const PLAN_CACHE_CAPACITY: usize = 128;

impl PlanCache {
    /// Create a cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(Lru::new()),
            build_latches: std::array::from_fn(|_| Mutex::new(())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a plan, refreshing its LRU position.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        let found = self.lookup(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The cached plan for `key`, or the one `build` returns, published for
    /// later callers. Callers that miss on the same key at the same time
    /// queue on its build latch and look again once they hold it, so a key
    /// is built, and counted as a miss, once while it stays cached rather
    /// than once per racing caller.
    pub fn get_or_build<E>(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<Arc<CachedPlan>, E>,
    ) -> Result<Arc<CachedPlan>, E> {
        if let Some(plan) = self.lookup(&key) {
            return Ok(plan);
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let _building = self.build_latches[h.finish() as usize % BUILD_STRIPES].lock();
        if let Some(plan) = self.lookup(&key) {
            return Ok(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = build()?;
        self.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Look up a plan, refreshing its LRU position and counting a hit.
    fn lookup(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        let plan = Arc::clone(self.inner.lock().get(key)?);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Insert a plan, evicting the least-recently-used entry when full.
    pub fn insert(&self, key: PlanKey, plan: Arc<CachedPlan>) {
        let mut inner = self.inner.lock();
        inner.insert(Arc::new(key), plan);
        while inner.len() > self.capacity {
            inner.pop_lru();
        }
    }

    /// Drop every cached plan against `table` (index DDL, table drop).
    pub fn invalidate_table(&self, table: u32) {
        self.inner.lock().retain(|k, _| k.table != table);
    }

    /// Lookups that found a cached plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed (the caller compiled and planned afresh).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(table: u32, path: &str) -> PlanKey {
        PlanKey {
            table,
            column: "doc".into(),
            path: path.into(),
            prefer_nodeid: false,
        }
    }

    fn dummy_plan() -> Arc<CachedPlan> {
        let path = rx_xpath::XPathParser::new().parse("/a/b").unwrap();
        Arc::new(CachedPlan {
            tree: Arc::new(QueryTree::compile(&path).unwrap()),
            plan: Arc::new(AccessPlan::FullScan),
            synopsis: Vec::new(),
        })
    }

    #[test]
    fn batch_results_keep_task_order() {
        let exec = QueryExecutor::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                    // Stagger so completion order differs from task order.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * 3
                });
                f
            })
            .collect();
        let out = exec.run_batch(tasks);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(exec.parallel_queries(), 1);
    }

    #[test]
    fn single_lane_runs_inline_without_threads() {
        let exec = QueryExecutor::new(1);
        let tid = std::thread::current().id();
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send>> = (0..8)
            .map(|_| {
                let f: Box<dyn FnOnce() -> bool + Send> =
                    Box::new(move || std::thread::current().id() == tid);
                f
            })
            .collect();
        assert!(exec.run_batch(tasks).into_iter().all(|on_caller| on_caller));
        assert_eq!(exec.parallel_queries(), 0);
        assert!(exec.handles.lock().is_empty());
    }

    #[test]
    fn concurrent_batches_share_the_pool() {
        let exec = Arc::new(QueryExecutor::new(4));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let exec = Arc::clone(&exec);
                s.spawn(move || {
                    let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..16u64)
                        .map(|i| {
                            let f: Box<dyn FnOnce() -> u64 + Send> = Box::new(move || i);
                            f
                        })
                        .collect();
                    let out = exec.run_batch(tasks);
                    assert_eq!(out.iter().sum::<u64>(), 120);
                });
            }
        });
        assert_eq!(exec.parallel_queries(), 8);
    }

    #[test]
    fn dropping_an_executor_after_its_first_batch_joins_the_workers() {
        // The caller often drains a small batch before a fresh worker first
        // looks at the queue, so the drop's shutdown signal races the
        // worker's first wait. A lost signal hangs the drop in `join`; the
        // loop runs on its own thread so that a hang fails the test.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..50_000 {
                let exec = QueryExecutor::new(2);
                let tasks: Vec<Box<dyn FnOnce() -> u8 + Send>> =
                    vec![Box::new(|| 1), Box::new(|| 2)];
                assert_eq!(exec.run_batch(tasks), vec![1, 2]);
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("dropping an executor hung joining its worker");
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let cache = PlanCache::new(2);
        cache.insert(key(1, "/a"), dummy_plan());
        cache.insert(key(1, "/b"), dummy_plan());
        assert!(cache.get(&key(1, "/a")).is_some()); // refresh /a
        cache.insert(key(1, "/c"), dummy_plan()); // evicts /b
        assert!(cache.get(&key(1, "/b")).is_none());
        assert!(cache.get(&key(1, "/a")).is_some());
        assert!(cache.get(&key(1, "/c")).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn eviction_follows_lru_order_over_hundreds_of_plans() {
        let cache = PlanCache::new(PLAN_CACHE_CAPACITY);
        let plan = dummy_plan();
        // Paths from least to most recently used.
        let mut model: Vec<String> = Vec::new();
        let mut x = 7u64;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let path = format!("/p{}", (x >> 33) % 400);
            let had = model.contains(&path);
            if (x >> 20).is_multiple_of(2) {
                cache.insert(key(1, &path), Arc::clone(&plan));
                model.retain(|p| *p != path);
                model.push(path);
                if model.len() > PLAN_CACHE_CAPACITY {
                    model.remove(0);
                }
            } else {
                assert_eq!(cache.get(&key(1, &path)).is_some(), had, "{path}");
                if had {
                    model.retain(|p| *p != path);
                    model.push(path);
                }
            }
            let inner = cache.inner.lock();
            assert_eq!(inner.len(), model.len());
            assert!(model.iter().all(|p| inner.peek(&key(1, p)).is_some()));
        }
    }

    #[test]
    fn racing_misses_build_a_key_once() {
        let cache = PlanCache::new(8);
        let builds = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    let plan = cache.get_or_build(key(1, "/a"), || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Hold the build open while the other callers miss.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok::<_, ()>(dummy_plan())
                    });
                    assert!(plan.is_ok());
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!((cache.misses(), cache.hits()), (1, 3));
    }

    #[test]
    fn invalidation_is_per_table() {
        let cache = PlanCache::new(8);
        cache.insert(key(1, "/a"), dummy_plan());
        cache.insert(key(2, "/a"), dummy_plan());
        cache.invalidate_table(1);
        assert!(cache.get(&key(1, "/a")).is_none());
        assert!(cache.get(&key(2, "/a")).is_some());
    }
}
