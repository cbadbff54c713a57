//! The hot-document record cache: read-through caching above the buffer
//! pool, guarded by the §5.1 document locks.
//!
//! The paper's analytic evaluation (§3.4) prices query cost in *records
//! fetched* and *NodeID-index probes*; both are paid again on every query
//! even when back-to-back queries evaluate the same documents. This cache
//! keeps a document's packed records — [`LoadedRecord`]s, shareable
//! `Arc<[u8]>` row images with their parsed headers — and the sorted
//! interval-upper table, so a cached traversal does **zero** heap fetches
//! and **zero** NodeID probes: `locate` becomes an in-memory binary search
//! over the uppers.
//!
//! ## The §5.1 locks guard the cache
//!
//! The cache keeps no version state of its own. Two rules keep every entry
//! equal to the document's committed state (DESIGN.md §11.2):
//!
//! * **publish**: only a traversal whose transaction holds the document's S
//!   lock and has logged nothing inserts a snapshot. No transaction holds X
//!   on a document while another holds S on it, so such a traversal reads
//!   exactly the committed bytes.
//! * **evict**: every XML-table mutator drops the document's entry before it
//!   changes a byte. Every writer, sub-document updates included, holds X
//!   on the document from then until it ends, so no snapshot can be
//!   published again before its outcome is final.
//!
//! Every other traversal — unlocked reads, a writer reading its own dirty
//! document, index key derivation — reads the cache but never publishes.
//!
//! The cache is memory-bounded (`DbConfig::doc_cache_bytes`) with a sharded
//! exact LRU ([`crate::lru::Lru`]: eviction pops the least recently used
//! entry without scanning the shard), mirroring the buffer pool's sharding
//! so concurrent query lanes do not serialize on one mutex.

use crate::error::Result;
use crate::lru::Lru;
use crate::traverse::TraverseStats;
use crate::xmltable::{DocId, LoadedRecord, XmlTable};
use parking_lot::Mutex;
use rx_storage::idhash::{IdBuildHasher, IdHasher};
use rx_storage::Rid;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock stripes. Keyed by `(space, doc)` hash with the cheap multiplicative
/// [`IdHasher`]; matches the spirit of the buffer pool's sharding without
/// making the budget check global.
const SHARDS: usize = 8;

/// An immutable snapshot of one document's stored form: its records plus the
/// NodeID-index interval table, both loaded once. `locate` replaces a B+tree
/// ceiling probe + heap fetch with a binary search + `Arc` clone.
pub struct CachedDoc {
    records: Vec<LoadedRecord>,
    /// `(interval upper endpoint bytes, index into records)`, ascending —
    /// exactly the document's NodeID-index entries at build time.
    uppers: Vec<(Box<[u8]>, u32)>,
    bytes: usize,
}

impl CachedDoc {
    /// Build a snapshot of `doc` from the XML table: one scan of the
    /// document's NodeID-index entries plus one read per distinct record.
    /// Returns `None` for a document with no records. The caller accounts
    /// the scan and the fetches in `stats` exactly as a cold traversal
    /// would.
    pub fn build(xml: &XmlTable, doc: DocId, stats: &mut TraverseStats) -> Result<Option<Self>> {
        let mut pairs: Vec<(Box<[u8]>, Rid)> = Vec::new();
        stats.index_probes += 1;
        xml.scan((doc, &[]), (doc, None), |_, upper, rid| {
            pairs.push((upper.into(), rid));
            true
        })?;
        if pairs.is_empty() {
            return Ok(None);
        }
        let mut by_rid: HashMap<Rid, u32> = HashMap::new();
        let mut records = Vec::new();
        let mut uppers = Vec::with_capacity(pairs.len());
        let mut bytes = 0usize;
        for (upper, rid) in pairs {
            let idx = match by_rid.get(&rid) {
                Some(i) => *i,
                None => {
                    stats.records_fetched += 1;
                    let rec = xml.read(rid)?;
                    bytes += rec.cost() + 32;
                    let i = records.len() as u32;
                    records.push(rec);
                    by_rid.insert(rid, i);
                    i
                }
            };
            bytes += upper.len() + 16;
            uppers.push((upper, idx));
        }
        Ok(Some(CachedDoc {
            records,
            uppers,
            bytes,
        }))
    }

    /// The in-memory equivalent of the NodeID index's ceiling probe: the
    /// record owning the first interval upper at-or-above `node_bytes`.
    pub fn locate(&self, node_bytes: &[u8]) -> Option<&LoadedRecord> {
        let i = self
            .uppers
            .partition_point(|(u, _)| u.as_ref() < node_bytes);
        self.uppers
            .get(i)
            .map(|(_, idx)| &self.records[*idx as usize])
    }

    /// Resident bytes of this snapshot.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[derive(Default)]
struct Shard {
    /// Snapshots in recency order.
    entries: Lru<(u32, DocId), Arc<CachedDoc>, IdBuildHasher>,
    bytes: usize,
}

/// The sharded, memory-bounded document record cache. One instance per
/// [`crate::db::Database`], shared by every XML column (keyed by table-space
/// id, which is unique per column and never reused).
pub struct DocCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count); 0 disables.
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl DocCache {
    /// Create a cache with a total byte budget. 0 disables caching entirely
    /// (every call short-circuits).
    pub fn new(budget_bytes: usize) -> Arc<DocCache> {
        let shard_budget = if budget_bytes == 0 {
            0
        } else {
            (budget_bytes / SHARDS).max(1)
        };
        Arc::new(DocCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// True when a non-zero budget was configured.
    pub fn enabled(&self) -> bool {
        self.shard_budget > 0
    }

    fn shard(&self, space: u32, doc: DocId) -> &Mutex<Shard> {
        let mut h = IdHasher::default();
        (space, doc).hash(&mut h);
        // Take high bits: the multiplicative mix pushes entropy upward.
        &self.shards[(h.finish() >> 56) as usize % SHARDS]
    }

    /// Look up a document snapshot.
    pub fn get(&self, space: u32, doc: DocId) -> Option<Arc<CachedDoc>> {
        if !self.enabled() {
            return None;
        }
        let found = self
            .shard(space, doc)
            .lock()
            .entries
            .get(&(space, doc))
            .map(|d| Arc::clone(d));
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Install a snapshot of `doc`, built by a traversal whose transaction
    /// holds the document's S lock and has logged nothing (the publish rule,
    /// DESIGN.md §11.2). Least recently used entries of the shard are
    /// evicted until it is back under budget; the new entry is the most
    /// recent, so it goes only if it alone exceeds the shard budget.
    pub fn insert(&self, space: u32, doc: DocId, snapshot: Arc<CachedDoc>) {
        if !self.enabled() {
            return;
        }
        let mut s = self.shard(space, doc).lock();
        let added = snapshot.bytes();
        if let Some(old) = s.entries.insert((space, doc), snapshot) {
            s.bytes -= old.bytes();
        }
        s.bytes += added;
        while s.bytes > self.shard_budget {
            let Some((_, e)) = s.entries.pop_lru() else {
                break;
            };
            s.bytes -= e.bytes();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop the entry of `doc`, if any. Every XML-table mutator calls this
    /// before it changes a byte of the document.
    pub fn evict(&self, space: u32, doc: DocId) {
        if !self.enabled() {
            return;
        }
        let mut s = self.shard(space, doc).lock();
        if let Some(e) = s.entries.remove(&(space, doc)) {
            s.bytes -= e.bytes();
        }
    }

    /// Drop every entry of one table space (`drop_table`).
    pub fn invalidate_space(&self, space: u32) {
        if !self.enabled() {
            return;
        }
        for shard in &self.shards {
            let mut s = shard.lock();
            let Shard { entries, bytes } = &mut *s;
            entries.retain(|(sp, _), e| {
                if *sp == space {
                    *bytes -= e.bytes();
                }
                *sp != space
            });
        }
    }

    /// Snapshot lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Snapshot lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes as u64).sum()
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(budget: usize) -> Arc<DocCache> {
        DocCache::new(budget)
    }

    fn snapshot(bytes: usize) -> Arc<CachedDoc> {
        Arc::new(CachedDoc {
            records: Vec::new(),
            uppers: Vec::new(),
            bytes,
        })
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = cache(0);
        assert!(!c.enabled());
        c.insert(1, 1, snapshot(10));
        assert!(c.get(1, 1).is_none());
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_then_get_hits() {
        let c = cache(1 << 20);
        assert!(c.get(1, 7).is_none());
        c.insert(1, 7, snapshot(100));
        assert!(c.get(1, 7).is_some());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.resident_bytes(), 100);
    }

    #[test]
    fn evict_drops_the_entry() {
        let c = cache(1 << 20);
        c.insert(1, 7, snapshot(100));
        c.insert(1, 8, snapshot(30));
        c.evict(1, 7);
        c.evict(1, 9); // absent: nothing happens
        assert!(c.get(1, 7).is_none(), "evicted");
        assert!(c.get(1, 8).is_some());
        assert_eq!(c.resident_bytes(), 30);
        assert_eq!(c.evictions(), 0, "only the budget counts evictions");
    }

    #[test]
    fn budget_evicts_lru() {
        let c = cache(SHARDS * 100); // 100 bytes per shard
        c.insert(1, 1, snapshot(80));
        // Same key re-inserted larger: the old entry is replaced, then the
        // 120-byte snapshot alone exceeds the shard budget and goes too.
        c.insert(1, 1, snapshot(120));
        assert!(c.get(1, 1).is_none(), "oversized snapshot not retained");
        assert!(c.evictions() >= 1);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn eviction_follows_lru_order_over_hundreds_of_documents() {
        // Ten 100-byte snapshots fit each shard; a model keeps each shard's
        // documents from least to most recently used.
        let c = cache(SHARDS * 1000);
        let shard_of = |doc: DocId| {
            let s = c.shard(1, doc);
            c.shards.iter().position(|m| std::ptr::eq(m, s)).unwrap()
        };
        let mut model: Vec<Vec<DocId>> = vec![Vec::new(); SHARDS];
        let mut evicted = 0;
        let mut x = 99u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let doc = (x >> 33) % 300;
            let m = &mut model[shard_of(doc)];
            let had = m.contains(&doc);
            if (x >> 20).is_multiple_of(3) {
                c.insert(1, doc, snapshot(100));
                m.retain(|&d| d != doc);
                m.push(doc);
                if m.len() > 10 {
                    m.remove(0);
                    evicted += 1;
                }
            } else {
                assert_eq!(c.get(1, doc).is_some(), had, "doc {doc}");
                if had {
                    m.retain(|&d| d != doc);
                    m.push(doc);
                }
            }
            for (i, m) in model.iter().enumerate() {
                let s = c.shards[i].lock();
                assert_eq!(s.entries.len(), m.len());
                assert!(m.iter().all(|d| s.entries.peek(&(1, *d)).is_some()));
            }
        }
        assert!(evicted > 100);
        assert_eq!(c.evictions(), evicted);
        assert_eq!(c.len(), model.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn invalidate_space_clears_entries() {
        let c = cache(1 << 20);
        c.insert(3, 1, snapshot(10));
        c.insert(4, 1, snapshot(10));
        c.invalidate_space(3);
        assert!(c.get(3, 1).is_none());
        assert!(c.get(4, 1).is_some());
        assert_eq!(c.resident_bytes(), 10);
    }
}
