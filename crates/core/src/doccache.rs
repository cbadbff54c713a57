//! The hot-document record cache: versioned read-through caching above the
//! buffer pool.
//!
//! The paper's analytic evaluation (§3.4) prices query cost in *records
//! fetched* and *NodeID-index probes*; both are paid again on every query
//! even when back-to-back queries evaluate the same documents. This cache
//! keeps a document's packed records — shareable `Arc<[u8]>` row images
//! plus their parsed [`RecordHeader`]s and the sorted interval-upper table —
//! so a cached traversal does **zero** heap fetches and **zero** NodeID
//! probes: `locate` becomes an in-memory binary search over the uppers.
//!
//! ## Invalidation protocol
//!
//! Every committed mutation of a document bumps that document's *epoch*;
//! cache entries remember the epoch they were built against and are
//! validated at lookup. The full protocol (see DESIGN.md §11):
//!
//! * **touch** (first mutation of `(txn, space, doc)`): evict the entry and
//!   bump the epoch *immediately*, under the shard lock. The writer itself
//!   must not be served the pre-image (its own index re-derivation needs to
//!   see its uncommitted writes), and any reader snapshot captured before
//!   the touch must fail to publish afterwards.
//! * **commit** (txn outcome hook, after the commit record is durable and
//!   locks are released): bump the epoch again and retire the writer
//!   registration. Rollback only retires the registration — epochs are left
//!   as the touch set them, and since the touch already evicted the entry,
//!   no stale pre-image can survive either outcome.
//! * **publish** (read-through): a reader captures a token *before* building
//!   a snapshot and the insert succeeds only if the shard generation and the
//!   document's `(epoch, writers)` state are unchanged — so a snapshot that
//!   might interleave with a writer is silently discarded, and uncommitted
//!   data never enters the cache.
//!
//! Under the §5.1 locking protocol readers hold S locks on every candidate
//! document while evaluating, so a successful publish there always caches
//! exactly the committed state. The unlocked read path gets the same
//! guarantee from the token check alone: any writer active during the build
//! window fails the publish.
//!
//! The cache is memory-bounded (`DbConfig::doc_cache_bytes`) with a sharded
//! exact LRU ([`crate::lru::Lru`]: eviction pops the least recently used
//! entry without scanning the shard), mirroring the buffer pool's sharding
//! so concurrent query lanes do not serialize on one mutex.

use crate::error::Result;
use crate::lru::Lru;
use crate::pack::{read_header, RecordHeader};
use crate::traverse::TraverseStats;
use crate::xmltable::{DocId, XmlTable};
use parking_lot::Mutex;
use rx_storage::codec::Dec;
use rx_storage::idhash::{IdBuildHasher, IdHasher};
use rx_storage::{Rid, Txn, TxnId};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock stripes. Keyed by `(space, doc)` hash; matches the spirit of the
/// buffer pool's sharding without making the budget check global.
const SHARDS: usize = 8;

/// Shard maps hash `(space, doc)` with the cheap multiplicative
/// [`IdHasher`]: a warm lookup hashes three times (shard pick + two map
/// probes), and SipHash is a measurable fraction of the whole hit path for
/// keys this small.
type KeyMap<V> = HashMap<(u32, DocId), V, IdBuildHasher>;

/// One heap row loaded into shareable form: the row image (a single copy out
/// of the latched page), the byte range of its XMLData payload, and the
/// parsed record header. Cloning is three pointer copies — cached and cold
/// traversals share this representation.
#[derive(Clone)]
pub struct LoadedRecord {
    row: Arc<[u8]>,
    data: Range<usize>,
    header: Arc<RecordHeader>,
}

impl LoadedRecord {
    /// Decode a fetched XML-table row image.
    pub fn decode(row: Arc<[u8]>) -> Result<LoadedRecord> {
        let data = row_data_range(&row)?;
        let header = Arc::new(read_header(&row[data.clone()])?);
        Ok(LoadedRecord { row, data, header })
    }

    /// The DocID stored in the row.
    pub fn doc(&self) -> DocId {
        // `decode` has read the row's fixed-width DocID column.
        DocId::from_le_bytes(self.row[..8].try_into().expect("8-byte DocID"))
    }

    /// The parsed record header.
    pub fn header(&self) -> &RecordHeader {
        &self.header
    }

    /// The packed node region (XMLData past the header).
    pub fn region(&self) -> &[u8] {
        &self.row[self.data.start + self.header.body_offset..self.data.end]
    }

    /// Resident size of the shared row image.
    fn cost(&self) -> usize {
        self.row.len() + std::mem::size_of::<RecordHeader>() + 64
    }
}

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
    /// Build a snapshot of `doc` from the XML table: one prefix scan of the
    /// NodeID index plus one `fetch_arc` per distinct record. Returns `None`
    /// for a document with no records. The caller accounts the scan and the
    /// fetches in `stats` exactly as a cold traversal would.
    pub fn build(xml: &XmlTable, doc: DocId, stats: &mut TraverseStats) -> Result<Option<Self>> {
        let mut pairs: Vec<(Box<[u8]>, Rid)> = Vec::new();
        stats.index_probes += 1;
        xml.nodeid_index().scan_prefix(&doc.to_be_bytes(), |k, v| {
            pairs.push((k[8..].to_vec().into_boxed_slice(), Rid::from_u64(v)));
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
                    let rec = LoadedRecord::decode(xml.heap().fetch_arc(rid)?)?;
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

    /// Number of distinct records held.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }
}

/// Per-document version state, present only while writers are registered.
/// Absent state reads as `(epoch 0, writers 0)`; the shard generation guards
/// tokens across state removal (see [`DocCache::publish`]).
#[derive(Default)]
struct DocState {
    epoch: u64,
    writers: u32,
}

struct Entry {
    doc: Arc<CachedDoc>,
    epoch: u64,
}

#[derive(Default)]
struct Shard {
    /// Snapshots in recency order.
    entries: Lru<(u32, DocId), Entry, IdBuildHasher>,
    states: KeyMap<DocState>,
    bytes: usize,
    /// Bumped whenever version state is discarded (writer retirement, space
    /// invalidation): outstanding publish tokens from before the bump are
    /// rejected, closing the captured-before-state-GC race.
    gen: u64,
}

/// A capture token: publish succeeds only if the shard generation and the
/// document's `(epoch, writers = 0)` state still match.
pub struct PublishToken {
    space: u32,
    doc: DocId,
    gen: u64,
    epoch: u64,
}

/// The sharded, memory-bounded document record cache. One instance per
/// [`crate::db::Database`], shared by every XML column (keyed by table-space
/// id, which is unique per column and never reused).
pub struct DocCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count); 0 disables.
    shard_budget: usize,
    /// In-flight `(txn, space, doc)` touch registrations, deduplicating the
    /// epoch bump so one transaction's many record edits count once.
    pending: Mutex<HashSet<(TxnId, u32, DocId)>>,
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
            pending: Mutex::new(HashSet::new()),
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

    /// Look up a document snapshot, validating it against the current epoch.
    pub fn get(&self, space: u32, doc: DocId) -> Option<Arc<CachedDoc>> {
        if !self.enabled() {
            return None;
        }
        let key = (space, doc);
        let mut s = self.shard(space, doc).lock();
        // `states` holds entries only while writers are registered; skip the
        // probe entirely in the read-mostly common case.
        let (epoch, writers) = if s.states.is_empty() {
            (0, 0)
        } else {
            s.states
                .get(&key)
                .map_or((0, 0), |st| (st.epoch, st.writers))
        };
        match s.entries.get(&key) {
            Some(e) if e.epoch == epoch && writers == 0 => {
                let doc = Arc::clone(&e.doc);
                drop(s);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(doc);
            }
            Some(_) => {
                // Stale (a touch raced in): drop it.
                let e = s.entries.remove(&key).expect("entry just seen");
                s.bytes -= e.doc.bytes();
            }
            None => {}
        }
        drop(s);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Capture a publish token *before* building a snapshot. `None` when a
    /// writer is registered on the document (an uncommitted mutation may be
    /// visible to the build) or the cache is disabled.
    pub fn begin_publish(&self, space: u32, doc: DocId) -> Option<PublishToken> {
        if !self.enabled() {
            return None;
        }
        let s = self.shard(space, doc).lock();
        let (epoch, writers) = s
            .states
            .get(&(space, doc))
            .map_or((0, 0), |st| (st.epoch, st.writers));
        if writers > 0 {
            return None;
        }
        Some(PublishToken {
            space,
            doc,
            gen: s.gen,
            epoch,
        })
    }

    /// Install a snapshot built under `token`. Fails (returning `false` and
    /// discarding the snapshot) if any writer touched the document — or any
    /// state was discarded in the shard — since the capture.
    pub fn publish(&self, token: PublishToken, snapshot: Arc<CachedDoc>) -> bool {
        let key = (token.space, token.doc);
        let mut s = self.shard(token.space, token.doc).lock();
        if s.gen != token.gen {
            return false;
        }
        let (epoch, writers) = s
            .states
            .get(&key)
            .map_or((0, 0), |st| (st.epoch, st.writers));
        if epoch != token.epoch || writers > 0 {
            return false;
        }
        let added = snapshot.bytes();
        if let Some(old) = s.entries.insert(
            key,
            Entry {
                doc: snapshot,
                epoch,
            },
        ) {
            s.bytes -= old.doc.bytes();
        }
        s.bytes += added;
        // Enforce the budget: evict least-recently-used entries until under;
        // the just-inserted entry is the most recent, so it is evicted only
        // if it alone exceeds the shard budget.
        while s.bytes > self.shard_budget {
            let Some((_, e)) = s.entries.pop_lru() else {
                break;
            };
            s.bytes -= e.doc.bytes();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Register a mutation of `doc` by `txn`: evict the entry, bump the
    /// epoch, count a writer, and arm a transaction outcome hook that bumps
    /// the epoch again on commit (rollback leaves it as touched). Idempotent
    /// per `(txn, space, doc)`.
    pub fn touch(self: &Arc<Self>, txn: &Txn, space: u32, doc: DocId) {
        if !self.enabled() {
            return;
        }
        if !self.pending.lock().insert((txn.id(), space, doc)) {
            return; // this transaction already touched this document
        }
        {
            let mut s = self.shard(space, doc).lock();
            if let Some(e) = s.entries.remove(&(space, doc)) {
                s.bytes -= e.doc.bytes();
            }
            let st = s.states.entry((space, doc)).or_default();
            st.epoch += 1;
            st.writers += 1;
        }
        let cache = Arc::clone(self);
        let id = txn.id();
        txn.push_hook(Box::new(move |committed| {
            cache.finish_touch(id, space, doc, committed);
        }));
    }

    fn finish_touch(&self, txn: TxnId, space: u32, doc: DocId, committed: bool) {
        self.pending.lock().remove(&(txn, space, doc));
        let mut s = self.shard(space, doc).lock();
        if let Some(st) = s.states.get_mut(&(space, doc)) {
            if committed {
                st.epoch += 1;
            }
            st.writers = st.writers.saturating_sub(1);
            if st.writers == 0 {
                // Retire the state; the generation bump invalidates any
                // token captured while it existed.
                s.states.remove(&(space, doc));
                s.gen += 1;
            }
        }
    }

    /// Drop every entry and state of one table space (`drop_table`).
    pub fn invalidate_space(&self, space: u32) {
        if !self.enabled() {
            return;
        }
        for shard in &self.shards {
            let mut s = shard.lock();
            let Shard { entries, bytes, .. } = &mut *s;
            entries.retain(|(sp, _), e| {
                if *sp == space {
                    *bytes -= e.doc.bytes();
                }
                *sp != space
            });
            let had_states = s.states.keys().any(|(sp, _)| *sp == space);
            s.states.retain(|(sp, _), _| *sp != space);
            if had_states {
                s.gen += 1;
            }
        }
        self.pending.lock().retain(|(_, sp, _)| *sp != space);
    }

    /// Snapshot lookups that found a valid entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Snapshot lookups that found nothing (or a stale entry).
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

/// Decode just the XMLData byte range of an encoded XML-table row (the
/// zero-copy complement of [`crate::xmltable::decode_row`]).
pub(crate) fn row_data_range(rec: &[u8]) -> Result<Range<usize>> {
    let mut d = Dec::new(rec);
    d.u64()?; // doc
    d.bytes()?; // min_node
    let len = d.varint()? as usize;
    let start = d.pos();
    if start + len > rec.len() {
        return Err(crate::error::EngineError::Record(
            "row data range past end of record".into(),
        ));
    }
    Ok(start..start + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{LockManager, TxnManager};

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

    fn txns() -> Arc<TxnManager> {
        TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        )
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = cache(0);
        assert!(!c.enabled());
        assert!(c.begin_publish(1, 1).is_none());
        assert!(c.get(1, 1).is_none());
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn publish_then_get_hits() {
        let c = cache(1 << 20);
        assert!(c.get(1, 7).is_none());
        let t = c.begin_publish(1, 7).unwrap();
        assert!(c.publish(t, snapshot(100)));
        assert!(c.get(1, 7).is_some());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.resident_bytes(), 100);
    }

    #[test]
    fn touch_evicts_and_blocks_publish() {
        let c = cache(1 << 20);
        let mgr = txns();
        let t = c.begin_publish(1, 7).unwrap();
        assert!(c.publish(t, snapshot(100)));
        // A token captured before the touch must fail after it.
        let stale = c.begin_publish(1, 7).unwrap();
        let txn = mgr.begin().unwrap();
        c.touch(&txn, 1, 7);
        assert!(c.get(1, 7).is_none(), "touch evicts immediately");
        assert!(!c.publish(stale, snapshot(50)), "stale token rejected");
        // While the writer is open, no capture is possible.
        assert!(c.begin_publish(1, 7).is_none());
        txn.commit().unwrap();
        // After commit the document is publishable again.
        let t2 = c.begin_publish(1, 7).unwrap();
        assert!(c.publish(t2, snapshot(60)));
        assert!(c.get(1, 7).is_some());
    }

    #[test]
    fn token_across_whole_writer_lifetime_is_rejected() {
        // Capture, then a writer starts AND finishes, then publish: the
        // generation bump at writer retirement must reject the token even
        // though the epoch state was garbage-collected back to "absent".
        let c = cache(1 << 20);
        let mgr = txns();
        let stale = c.begin_publish(1, 7).unwrap();
        let txn = mgr.begin().unwrap();
        c.touch(&txn, 1, 7);
        txn.commit().unwrap();
        assert!(!c.publish(stale, snapshot(50)));
    }

    #[test]
    fn rollback_retires_writer_without_commit_bump() {
        let c = cache(1 << 20);
        let mgr = txns();
        let txn = mgr.begin().unwrap();
        c.touch(&txn, 1, 7);
        assert!(c.begin_publish(1, 7).is_none());
        txn.rollback().unwrap();
        // Writer retired: publishing works again.
        let t = c.begin_publish(1, 7).unwrap();
        assert!(c.publish(t, snapshot(10)));
        assert!(c.get(1, 7).is_some());
    }

    #[test]
    fn budget_evicts_lru() {
        let c = cache(SHARDS * 100); // 100 bytes per shard
                                     // Fill one (space, doc) slot after another; all may land in
                                     // different shards, so drive a single key's shard over budget.
        let t = c.begin_publish(1, 1).unwrap();
        assert!(c.publish(t, snapshot(80)));
        // Same key republished larger: old entry replaced, then the 120-byte
        // snapshot alone exceeds the shard budget and is evicted too.
        let t = c.begin_publish(1, 1).unwrap();
        assert!(c.publish(t, snapshot(120)));
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
            if (x >> 20) % 3 == 0 {
                let t = c.begin_publish(1, doc).unwrap();
                assert!(c.publish(t, snapshot(100)));
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
        let t = c.begin_publish(3, 1).unwrap();
        assert!(c.publish(t, snapshot(10)));
        let t = c.begin_publish(4, 1).unwrap();
        assert!(c.publish(t, snapshot(10)));
        c.invalidate_space(3);
        assert!(c.get(3, 1).is_none());
        assert!(c.get(4, 1).is_some());
    }

    #[test]
    fn touch_is_idempotent_per_txn() {
        let c = cache(1 << 20);
        let mgr = txns();
        let txn = mgr.begin().unwrap();
        c.touch(&txn, 1, 7);
        c.touch(&txn, 1, 7);
        c.touch(&txn, 1, 7);
        txn.commit().unwrap();
        // A single writer registration was retired: capture works.
        assert!(c.begin_publish(1, 7).is_some());
        assert!(c.pending.lock().is_empty());
    }
}
