//! Table spaces.
//!
//! A table space is a page-addressed container backed by a file (or memory).
//! Page 0 is the space header: a magic number, the allocation high-water mark
//! and a handful of general-purpose "anchor" slots that higher layers use to
//! remember their entry points (heap append page, B+tree meta page, …).
//! Pages are allocated at the high-water mark and never freed: heaps keep
//! their pages and B+tree deletion is lazy. The paper stores each XML column
//! in its own internal table space (§3.1), reusing relational space
//! management unchanged.

use crate::backend::StorageBackend;
use crate::buffer::{BufferPool, PageGuard, PageId, SpaceId};
use crate::error::{Result, StorageError};
use crate::page::{PageType, PAGE_HEADER_SIZE};
use parking_lot::Mutex;
use std::sync::Arc;

const MAGIC: u32 = 0x5258_5350; // "RXSP"
const HDR_MAGIC: usize = PAGE_HEADER_SIZE;
const HDR_HIGH_WATER: usize = PAGE_HEADER_SIZE + 4;
// The header word at `PAGE_HEADER_SIZE + 8` is unused; the anchors stay
// after it so that spaces written by older builds open unchanged.
const HDR_ANCHORS: usize = PAGE_HEADER_SIZE + 12;
/// Number of general-purpose anchor slots in the space header.
pub const ANCHOR_SLOTS: usize = 16;

/// A page-addressed storage container with allocation and anchor slots.
pub struct TableSpace {
    pool: Arc<BufferPool>,
    space: SpaceId,
    alloc: Mutex<()>,
}

impl TableSpace {
    /// Create a fresh table space on `backend`, formatting its header page.
    pub fn create(
        pool: Arc<BufferPool>,
        space: SpaceId,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Arc<Self>> {
        pool.register_space(space, backend);
        let ts = Arc::new(TableSpace {
            pool,
            space,
            alloc: Mutex::new(()),
        });
        let hdr = ts
            .pool
            .fetch_new(PageId::new(space, 0), PageType::SpaceHeader)?;
        {
            let mut p = hdr.write();
            let b = p.bytes_mut();
            b[HDR_MAGIC..HDR_MAGIC + 4].copy_from_slice(&MAGIC.to_le_bytes());
            b[HDR_HIGH_WATER..HDR_HIGH_WATER + 4].copy_from_slice(&1u32.to_le_bytes());
        }
        Ok(ts)
    }

    /// Open an existing table space, validating its header.
    pub fn open(
        pool: Arc<BufferPool>,
        space: SpaceId,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Arc<Self>> {
        pool.register_space(space, backend);
        let ts = Arc::new(TableSpace {
            pool,
            space,
            alloc: Mutex::new(()),
        });
        let hdr = ts.pool.fetch(PageId::new(space, 0))?;
        let p = hdr.read();
        let b = p.bytes();
        let magic = u32::from_le_bytes(b[HDR_MAGIC..HDR_MAGIC + 4].try_into().unwrap());
        if magic != MAGIC {
            return Err(StorageError::Corrupt(format!(
                "space {space} header magic {magic:#x} != {MAGIC:#x}"
            )));
        }
        Ok(ts)
    }

    /// The space id.
    pub fn id(&self) -> SpaceId {
        self.space
    }

    /// The buffer pool this space is cached through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    fn header(&self) -> Result<PageGuard> {
        self.pool.fetch(PageId::new(self.space, 0))
    }

    fn read_hdr_u32(&self, off: usize) -> Result<u32> {
        let hdr = self.header()?;
        let p = hdr.read();
        Ok(u32::from_le_bytes(
            p.bytes()[off..off + 4].try_into().unwrap(),
        ))
    }

    fn write_hdr_u32(&self, off: usize, v: u32) -> Result<()> {
        let hdr = self.header()?;
        let mut p = hdr.write();
        p.bytes_mut()[off..off + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Number of pages ever allocated, the header included.
    pub fn high_water(&self) -> Result<u32> {
        self.read_hdr_u32(HDR_HIGH_WATER)
    }

    /// Raise the allocation high-water mark to at least `n` (crash recovery:
    /// pages referenced by the log must never be handed out again).
    pub fn ensure_high_water(&self, n: u32) -> Result<()> {
        let _g = self.alloc.lock();
        let hw = self.read_hdr_u32(HDR_HIGH_WATER)?;
        if n > hw {
            self.write_hdr_u32(HDR_HIGH_WATER, n)?;
        }
        Ok(())
    }

    /// Read general-purpose anchor slot `i`.
    pub fn anchor(&self, i: usize) -> Result<u32> {
        assert!(i < ANCHOR_SLOTS);
        self.read_hdr_u32(HDR_ANCHORS + 4 * i)
    }

    /// Write general-purpose anchor slot `i`.
    pub fn set_anchor(&self, i: usize, v: u32) -> Result<()> {
        assert!(i < ANCHOR_SLOTS);
        self.write_hdr_u32(HDR_ANCHORS + 4 * i, v)
    }

    /// Allocate a page at the high-water mark, formatted as `ptype`.
    pub fn allocate(&self, ptype: PageType) -> Result<PageGuard> {
        let _g = self.alloc.lock();
        let page_no = self.read_hdr_u32(HDR_HIGH_WATER)?;
        self.write_hdr_u32(HDR_HIGH_WATER, page_no + 1)?;
        self.pool.fetch_new(PageId::new(self.space, page_no), ptype)
    }

    /// Fetch an existing page of this space.
    pub fn fetch(&self, page_no: u32) -> Result<PageGuard> {
        self.pool.fetch(PageId::new(self.space, page_no))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn space() -> Arc<TableSpace> {
        let pool = BufferPool::new(64);
        TableSpace::create(pool, 7, Arc::new(MemBackend::new())).unwrap()
    }

    #[test]
    fn allocate_sequential_pages() {
        let ts = space();
        let a = ts.allocate(PageType::Data).unwrap();
        let b = ts.allocate(PageType::Data).unwrap();
        assert_eq!(a.pid().page, 1);
        assert_eq!(b.pid().page, 2);
        assert_eq!(ts.high_water().unwrap(), 3);
    }

    #[test]
    fn anchors_persist() {
        let pool = BufferPool::new(64);
        let backend = Arc::new(MemBackend::new());
        {
            let ts = TableSpace::create(pool.clone(), 3, backend.clone()).unwrap();
            ts.set_anchor(0, 42).unwrap();
            ts.set_anchor(15, 7).unwrap();
            pool.flush_all().unwrap();
        }
        pool.forget_space(3);
        let ts = TableSpace::open(pool, 3, backend).unwrap();
        assert_eq!(ts.anchor(0).unwrap(), 42);
        assert_eq!(ts.anchor(15).unwrap(), 7);
        assert_eq!(ts.anchor(1).unwrap(), 0);
    }

    #[test]
    fn open_rejects_garbage() {
        let pool = BufferPool::new(64);
        let backend = Arc::new(MemBackend::new());
        // Write a non-space page image at page 0.
        let mut junk = [0u8; crate::page::PAGE_SIZE];
        junk[8] = PageType::Data as u8;
        backend.write_page(0, &junk).unwrap();
        assert!(TableSpace::open(pool, 9, backend).is_err());
    }
}
