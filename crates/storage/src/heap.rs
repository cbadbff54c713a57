//! Heap tables.
//!
//! A heap table stores variable-length records in a chain of slotted data
//! pages within one table space, addressed by RID. This is the structure the
//! paper's internal XML tables use for packed XML records (§3.1): each
//! `(DocID, minNodeID, XMLData)` row is simply a heap record here.

use crate::error::{Result, StorageError};
use crate::page::{PageType, MAX_RECORD_SIZE};
use crate::rid::Rid;
use crate::space::TableSpace;
use parking_lot::Mutex;
use std::sync::Arc;

/// Anchor slot holding the first data page of the heap chain.
const ANCHOR_FIRST: usize = 0;
/// Anchor slot holding the last data page (append target).
const ANCHOR_LAST: usize = 1;

/// A heap table over a table space. Thread-safe; inserts serialize on an
/// append latch, reads go straight to the buffer pool.
pub struct HeapTable {
    space: Arc<TableSpace>,
    append: Mutex<()>,
}

impl HeapTable {
    /// Create a heap in `space` (formats the first data page).
    pub fn create(space: Arc<TableSpace>) -> Result<Arc<Self>> {
        let first = space.allocate(PageType::Data)?;
        let first_no = first.pid().page;
        drop(first);
        space.set_anchor(ANCHOR_FIRST, first_no)?;
        space.set_anchor(ANCHOR_LAST, first_no)?;
        Ok(Arc::new(HeapTable {
            space,
            append: Mutex::new(()),
        }))
    }

    /// Open the heap already present in `space`.
    pub fn open(space: Arc<TableSpace>) -> Result<Arc<Self>> {
        if space.anchor(ANCHOR_FIRST)? == 0 {
            return Err(StorageError::Catalog(format!(
                "space {} contains no heap",
                space.id()
            )));
        }
        Ok(Arc::new(HeapTable {
            space,
            append: Mutex::new(()),
        }))
    }

    /// The table space this heap lives in.
    pub fn space(&self) -> &Arc<TableSpace> {
        &self.space
    }

    /// Insert a record, returning its RID.
    pub fn insert(&self, data: &[u8]) -> Result<Rid> {
        if data.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge {
                size: data.len(),
                max: MAX_RECORD_SIZE,
            });
        }
        let _g = self.append.lock();
        let last_no = self.space.anchor(ANCHOR_LAST)?;
        let last = self.space.fetch(last_no)?;
        {
            let mut p = last.write();
            if p.can_fit(data.len()) {
                let slot = p.insert(data)?;
                return Ok(Rid::new(last_no, slot));
            }
        }
        // Allocate a fresh page and link it at the end of the chain.
        let fresh = self.space.allocate(PageType::Data)?;
        let fresh_no = fresh.pid().page;
        let slot = fresh.write().insert(data)?;
        last.write().set_next_page(fresh_no);
        self.space.set_anchor(ANCHOR_LAST, fresh_no)?;
        Ok(Rid::new(fresh_no, slot))
    }

    /// Install a record at a specific RID (idempotent; used by WAL redo and
    /// compensations). Over a live record it is an in-place update whose
    /// shrink keeps its freed bytes reserved until [`HeapTable::release`].
    pub fn insert_at(&self, rid: Rid, data: &[u8]) -> Result<()> {
        let _g = self.append.lock();
        // Make sure the page exists in the chain; redo may hit pages that the
        // crashed run allocated. Allocation is monotone, so extending the
        // high-water mark and linking is safe.
        let g = self.space.fetch(rid.page)?;
        {
            let mut p = g.write();
            if p.page_type() != PageType::Data {
                p.format(PageType::Data);
            }
            p.insert_at(rid.slot, data)?;
        }
        Ok(())
    }

    /// Fetch a record by RID.
    pub fn fetch(&self, rid: Rid) -> Result<Vec<u8>> {
        let g = self.space.fetch(rid.page)?;
        let p = g.read();
        p.get(rid.slot)
            .map(<[u8]>::to_vec)
            .ok_or(StorageError::RecordNotFound {
                space: self.space.id(),
                page: rid.page,
                slot: rid.slot,
            })
    }

    /// Visit the records at `rids` in order without copying them, latching
    /// each page once per run of consecutive RIDs on it. A slot that holds
    /// no record is visited as `None`.
    pub fn fetch_each(
        &self,
        rids: &[Rid],
        mut visit: impl FnMut(usize, Option<&[u8]>),
    ) -> Result<()> {
        let mut i = 0;
        while let Some(first) = rids.get(i) {
            let g = self.space.fetch(first.page)?;
            let p = g.read();
            while let Some(rid) = rids.get(i).filter(|r| r.page == first.page) {
                visit(i, p.get(rid.slot));
                i += 1;
            }
        }
        Ok(())
    }

    /// Fetch a record into a shareable allocation: one copy out of the
    /// latched page, after which the bytes can be handed to any number of
    /// readers (e.g. a document cache) without further copying.
    pub fn fetch_arc(&self, rid: Rid) -> Result<Arc<[u8]>> {
        let g = self.space.fetch(rid.page)?;
        let p = g.read();
        p.get(rid.slot)
            .map(Arc::<[u8]>::from)
            .ok_or(StorageError::RecordNotFound {
                space: self.space.id(),
                page: rid.page,
                slot: rid.slot,
            })
    }

    /// Update a record outside any transaction. Returns the (possibly new)
    /// RID: the record moves to a different page when the grown body no
    /// longer fits in place.
    pub fn update(&self, rid: Rid, data: &[u8]) -> Result<Rid> {
        if self.rewrite(rid, data, false)? {
            return Ok(rid);
        }
        self.delete(rid)?;
        self.insert(data)
    }

    /// Replace a record without moving it, on behalf of an unfinished
    /// transaction: a shrink keeps its freed bytes reserved
    /// ([`crate::page::Page::update_keeping`]) until [`HeapTable::release`]
    /// when the transaction ends. Returns `false`, leaving the record as it
    /// was, when the new body does not fit in its page.
    pub fn update_in_place(&self, rid: Rid, data: &[u8]) -> Result<bool> {
        self.rewrite(rid, data, true)
    }

    fn rewrite(&self, rid: Rid, data: &[u8], keep: bool) -> Result<bool> {
        if data.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge {
                size: data.len(),
                max: MAX_RECORD_SIZE,
            });
        }
        let g = self.space.fetch(rid.page)?;
        let mut p = g.write();
        let r = if keep {
            p.update_keeping(rid.slot, data)
        } else {
            p.update(rid.slot, data)
        };
        r.map_err(|_| self.not_found(rid))
    }

    /// Delete a record.
    pub fn delete(&self, rid: Rid) -> Result<()> {
        let g = self.space.fetch(rid.page)?;
        let mut p = g.write();
        p.delete(rid.slot).map_err(|_| self.not_found(rid))
    }

    /// Delete a record on behalf of an unfinished transaction, returning its
    /// bytes: the slot is reserved ([`crate::page::Page::reserve`]) until
    /// [`HeapTable::release`] at commit or [`HeapTable::insert_at`] at
    /// rollback.
    pub fn reserve(&self, rid: Rid) -> Result<Vec<u8>> {
        let g = self.space.fetch(rid.page)?;
        let mut p = g.write();
        let before = p.get(rid.slot).ok_or_else(|| self.not_found(rid))?.to_vec();
        p.reserve(rid.slot).map_err(|_| self.not_found(rid))?;
        Ok(before)
    }

    /// End a finished transaction's hold on `rid`: free a slot reserved by
    /// [`HeapTable::reserve`] (the delete committed), or give back the bytes
    /// an in-place shrink kept ([`HeapTable::update_in_place`]).
    pub fn release(&self, rid: Rid) -> Result<()> {
        let g = self.space.fetch(rid.page)?;
        g.write().release(rid.slot);
        Ok(())
    }

    /// `RecordNotFound` naming this heap's `rid` (the page layer knows
    /// only the slot).
    fn not_found(&self, rid: Rid) -> StorageError {
        StorageError::RecordNotFound {
            space: self.space.id(),
            page: rid.page,
            slot: rid.slot,
        }
    }

    /// Full scan in page-chain order. The visitor returns `true` to continue.
    pub fn scan(&self, mut visit: impl FnMut(Rid, &[u8]) -> bool) -> Result<()> {
        let mut page_no = self.space.anchor(ANCHOR_FIRST)?;
        while page_no != 0 {
            let g = self.space.fetch(page_no)?;
            let p = g.read();
            for (slot, rec) in p.iter_records() {
                if !visit(Rid::new(page_no, slot), rec) {
                    return Ok(());
                }
            }
            page_no = p.next_page();
        }
        Ok(())
    }

    /// Relink the page chain after crash recovery: walk every allocated page
    /// of the space and chain the Data pages in page-number order, resetting
    /// the first/last anchors. Idempotent. Needed because chain-link updates
    /// are not logged physically; logical redo re-installs records at their
    /// RIDs but cannot know the chain.
    pub fn rebuild_chain(&self) -> Result<()> {
        let _g = self.append.lock();
        let hw = self.space.high_water()?;
        let mut first = 0u32;
        let mut prev = 0u32;
        for p in 1..hw {
            let g = self.space.fetch(p)?;
            let is_data = g.read().page_type() == PageType::Data;
            if !is_data {
                continue;
            }
            if first == 0 {
                first = p;
            } else {
                let pg = self.space.fetch(prev)?;
                pg.write().set_next_page(p);
            }
            g.write().set_next_page(0);
            prev = p;
        }
        if first != 0 {
            self.space.set_anchor(ANCHOR_FIRST, first)?;
            self.space.set_anchor(ANCHOR_LAST, prev)?;
        }
        Ok(())
    }

    /// Count pages and live records (used by the storage experiments).
    pub fn stats(&self) -> Result<HeapStats> {
        let mut s = HeapStats::default();
        let mut page_no = self.space.anchor(ANCHOR_FIRST)?;
        while page_no != 0 {
            let g = self.space.fetch(page_no)?;
            let p = g.read();
            s.pages += 1;
            s.reserved += p.reserved_count() as u64;
            for (_, rec) in p.iter_records() {
                s.records += 1;
                s.record_bytes += rec.len() as u64;
            }
            page_no = p.next_page();
        }
        Ok(s)
    }
}

/// Size statistics for a heap table.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Data pages in the chain.
    pub pages: u64,
    /// Live records.
    pub records: u64,
    /// Sum of live record body sizes.
    pub record_bytes: u64,
    /// Slots holding bytes for unfinished transactions: deleted records and
    /// records shrunk in place.
    pub reserved: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::buffer::BufferPool;

    fn heap() -> Arc<HeapTable> {
        let pool = BufferPool::new(256);
        let ts = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
        HeapTable::create(ts).unwrap()
    }

    #[test]
    fn insert_fetch_delete() {
        let h = heap();
        let r = h.insert(b"record one").unwrap();
        assert_eq!(h.fetch(r).unwrap(), b"record one");
        h.delete(r).unwrap();
        assert!(matches!(
            h.fetch(r),
            Err(StorageError::RecordNotFound { .. })
        ));
    }

    #[test]
    fn fetch_arc_shares_one_copy() {
        let h = heap();
        let r = h.insert(b"shared record").unwrap();
        let a = h.fetch_arc(r).unwrap();
        let b = Arc::clone(&a);
        assert_eq!(&*a, b"shared record");
        assert_eq!(Arc::strong_count(&b), 2);
        h.delete(r).unwrap();
        // The shared copy outlives the heap record.
        assert_eq!(&*b, b"shared record");
        assert!(matches!(
            h.fetch_arc(r),
            Err(StorageError::RecordNotFound { .. })
        ));
    }

    #[test]
    fn inserts_span_pages() {
        let h = heap();
        let body = vec![1u8; 1000];
        let rids: Vec<Rid> = (0..50).map(|_| h.insert(&body).unwrap()).collect();
        let pages: std::collections::HashSet<u32> = rids.iter().map(|r| r.page).collect();
        assert!(pages.len() > 1, "records should spill onto multiple pages");
        for r in &rids {
            assert_eq!(h.fetch(*r).unwrap().len(), 1000);
        }
        let s = h.stats().unwrap();
        assert_eq!(s.records, 50);
        assert_eq!(s.pages as usize, pages.len().max(s.pages as usize));
    }

    #[test]
    fn update_in_place_and_relocated() {
        let h = heap();
        // Nearly fill the first page so a grown update must relocate.
        let filler = vec![0u8; 1200];
        let a = h.insert(&filler).unwrap();
        let b = h.insert(&filler).unwrap();
        let c = h.insert(&filler).unwrap();
        let small = h.insert(b"x").unwrap();
        // In-place shrink/equal.
        let same = h.update(a, &vec![9u8; 1000]).unwrap();
        assert_eq!(same, a);
        // Grow beyond page space: relocates.
        let grown = vec![7u8; 2000];
        let moved = h.update(small, &grown).unwrap();
        assert_ne!(moved.page, small.page);
        assert_eq!(h.fetch(moved).unwrap(), grown);
        let _ = (b, c);
    }

    #[test]
    fn scan_sees_all_records_in_order() {
        let h = heap();
        let bodies: Vec<Vec<u8>> = (0..120u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for b in &bodies {
            h.insert(b).unwrap();
        }
        let mut seen = Vec::new();
        h.scan(|_, rec| {
            seen.push(u32::from_le_bytes(rec.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen.len(), 120);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn scan_early_stop() {
        let h = heap();
        for i in 0..10u8 {
            h.insert(&[i]).unwrap();
        }
        let mut n = 0;
        h.scan(|_, _| {
            n += 1;
            n < 3
        })
        .unwrap();
        assert_eq!(n, 3);
    }
}
