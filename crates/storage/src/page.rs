//! Slotted pages.
//!
//! The unit of I/O and buffering is a fixed-size page, exactly as in the
//! relational infrastructure the paper builds on. Records live in slotted
//! pages: a slot directory grows up from the header while record bodies grow
//! down from the end of the page. To the page layer, packed XML records are
//! indistinguishable from relational rows — this is the paper's central
//! infrastructure-reuse claim (§2: "to the lower level components of the
//! infrastructure, our packed XML data looks like rows in relational tables").

use crate::error::{Result, StorageError};

/// Fixed page size in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Byte offset layout of the page header.
const OFF_LSN: usize = 0; // u64: LSN of the last update (WAL)
const OFF_TYPE: usize = 8; // u8: PageType
#[allow(dead_code)]
const OFF_FLAGS: usize = 9; // u8: reserved
const OFF_SLOT_COUNT: usize = 10; // u16
const OFF_FREE_START: usize = 12; // u16: end of slot directory
const OFF_FREE_END: usize = 14; // u16: start of record heap
const OFF_NEXT_PAGE: usize = 16; // u32: chain link (B+tree leaf chains)
/// Size of the fixed page header.
pub const PAGE_HEADER_SIZE: usize = 20;
/// Bytes per slot directory entry: offset u16 + length u16.
const SLOT_SIZE: usize = 4;
/// Slot offset value marking a dead (deleted) slot.
const DEAD_SLOT: u16 = 0xFFFF;
/// Slot length bit marking a *reserved* slot: a record deleted by a
/// transaction that has not finished. Readers see no record, but the slot
/// and its bytes stay put, so a rollback can always reinstall the record.
const RESERVED: u16 = 0x8000;
/// Slot length bits marking a record shrunk in place by a transaction that
/// has not finished: the slot's *extent* keeps the record's former size, so
/// the bytes the shrink freed stay put and a rollback can always grow the
/// record back. With `SHRUNK` the extent is longer than the record by the
/// `u16` stored right after the record; with `SHRUNK_BY_ONE`, by one byte.
const SHRUNK: u16 = 0x4000;
const SHRUNK_BY_ONE: u16 = 0x2000;
/// The record-length bits of a slot's length field.
const LEN_MASK: u16 = 0x1FFF;

/// Maximum record payload that fits in an otherwise-empty page.
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - PAGE_HEADER_SIZE - SLOT_SIZE;

/// What a page is used for. Stored in the header so corruption and misuse
/// are detectable when a page is fetched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageType {
    /// A page never written: past the end of its file, or allocated by a
    /// run that crashed before writing it back. Reads as all zeros.
    Free = 0,
    /// Table space header page (page 0 of every space).
    SpaceHeader = 1,
    /// Heap data page holding records.
    Data = 2,
    /// B+tree interior page.
    BTreeInternal = 3,
    /// B+tree leaf page.
    BTreeLeaf = 4,
    /// B+tree meta page (holds the root pointer).
    BTreeMeta = 5,
}

impl PageType {
    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => PageType::Free,
            1 => PageType::SpaceHeader,
            2 => PageType::Data,
            3 => PageType::BTreeInternal,
            4 => PageType::BTreeLeaf,
            5 => PageType::BTreeMeta,
            other => return Err(StorageError::Corrupt(format!("bad page type byte {other}"))),
        })
    }
}

/// A slotted page: a fixed-size byte buffer with header, slot directory, and
/// record heap. All accessors operate directly on the byte image so a page can
/// be written to storage without any serialization step.
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// Allocate a zeroed page and format it with the given type.
    pub fn new(ptype: PageType) -> Self {
        let mut p = Page {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        p.format(ptype);
        p
    }

    /// Wrap raw bytes read from storage. Validates the header.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image has {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        Self::read_with(|buf| {
            buf.copy_from_slice(bytes);
            Ok(())
        })
    }

    /// A page filled in place by `read` (a backend read of the stored
    /// image), then checked for a known page type: one allocation and no
    /// copy beyond the read itself.
    pub fn read_with(read: impl FnOnce(&mut [u8]) -> Result<()>) -> Result<Self> {
        let mut p = Page {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        read(&mut p.buf[..])?;
        PageType::from_u8(p.buf[OFF_TYPE])?;
        Ok(p)
    }

    /// Reformat this page in place (erases all slots).
    pub fn format(&mut self, ptype: PageType) {
        self.buf.fill(0);
        self.buf[OFF_TYPE] = ptype as u8;
        self.set_u16(OFF_SLOT_COUNT, 0);
        self.set_u16(OFF_FREE_START, PAGE_HEADER_SIZE as u16);
        self.set_u16(OFF_FREE_END, PAGE_SIZE as u16);
        self.set_u32(OFF_NEXT_PAGE, 0);
    }

    /// Raw page image.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Mutable raw page image (used by B+tree node codecs).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.buf
    }

    /// Page type recorded in the header.
    pub fn page_type(&self) -> PageType {
        PageType::from_u8(self.buf[OFF_TYPE]).expect("validated at construction")
    }

    /// LSN of the last WAL record that touched this page.
    pub fn lsn(&self) -> u64 {
        self.get_u64(OFF_LSN)
    }

    /// Record the LSN of an update.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.set_u64(OFF_LSN, lsn);
    }

    /// Next-page chain link (0 = none).
    pub fn next_page(&self) -> u32 {
        self.get_u32(OFF_NEXT_PAGE)
    }

    /// Set the next-page chain link.
    pub fn set_next_page(&mut self, p: u32) {
        self.set_u32(OFF_NEXT_PAGE, p);
    }

    /// Number of slots in the directory (including dead slots).
    pub fn slot_count(&self) -> u16 {
        self.get_u16(OFF_SLOT_COUNT)
    }

    /// Contiguous free space between the slot directory and the record heap.
    pub fn free_space(&self) -> usize {
        let fs = self.get_u16(OFF_FREE_START) as usize;
        let fe = self.get_u16(OFF_FREE_END) as usize;
        fe.saturating_sub(fs)
    }

    /// Space available for a new record of `len` bytes, accounting for a
    /// possible new slot entry. Dead slots are reused without growing the
    /// directory, so this is conservative.
    pub fn can_fit(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    fn slot_at(&self, slot: u16) -> (u16, u16) {
        let base = PAGE_HEADER_SIZE + SLOT_SIZE * slot as usize;
        (self.get_u16(base), self.get_u16(base + 2))
    }

    fn set_slot(&mut self, slot: u16, off: u16, len: u16) {
        let base = PAGE_HEADER_SIZE + SLOT_SIZE * slot as usize;
        self.set_u16(base, off);
        self.set_u16(base + 2, len);
    }

    /// A non-dead slot's `(offset, record length, extent length)`: the
    /// extent is the record plus the bytes a shrink keeps reserved.
    fn extent(&self, slot: u16) -> (usize, usize, usize) {
        let (off, raw) = self.slot_at(slot);
        let (off, len) = (off as usize, (raw & LEN_MASK) as usize);
        let cap = if raw & SHRUNK != 0 {
            len + self.get_u16(off + len) as usize
        } else if raw & SHRUNK_BY_ONE != 0 {
            len + 1
        } else {
            len
        };
        (off, len, cap)
    }

    /// Point a live slot at a `len`-byte record at `off` whose extent is
    /// `cap` bytes, marking the gap as [`SHRUNK`] or [`SHRUNK_BY_ONE`].
    fn set_extent(&mut self, slot: u16, off: usize, len: usize, cap: usize) {
        let flag = match cap - len {
            0 => 0,
            1 => SHRUNK_BY_ONE,
            gap => {
                self.set_u16(off + len, gap as u16);
                SHRUNK
            }
        };
        self.set_slot(slot, off as u16, len as u16 | flag);
    }

    /// Insert a record, returning its slot number. Compacts the page if
    /// fragmentation is hiding enough space.
    pub fn insert(&mut self, data: &[u8]) -> Result<u16> {
        if data.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge {
                size: data.len(),
                max: MAX_RECORD_SIZE,
            });
        }
        // Reuse a dead slot if available (does not grow the directory).
        let count = self.slot_count();
        let mut reuse: Option<u16> = None;
        for s in 0..count {
            let (off, _) = self.slot_at(s);
            if off == DEAD_SLOT {
                reuse = Some(s);
                break;
            }
        }
        let need = data.len() + if reuse.is_some() { 0 } else { SLOT_SIZE };
        if self.free_space() < need {
            self.compact();
            if self.free_space() < need {
                return Err(StorageError::RecordTooLarge {
                    size: data.len(),
                    max: self.free_space().saturating_sub(SLOT_SIZE),
                });
            }
        }
        let fe = self.get_u16(OFF_FREE_END) as usize;
        let new_fe = fe - data.len();
        self.buf[new_fe..fe].copy_from_slice(data);
        self.set_u16(OFF_FREE_END, new_fe as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = count;
                self.set_u16(OFF_SLOT_COUNT, count + 1);
                let fs = self.get_u16(OFF_FREE_START);
                self.set_u16(OFF_FREE_START, fs + SLOT_SIZE as u16);
                s
            }
        };
        self.set_slot(slot, new_fe as u16, data.len() as u16);
        Ok(slot)
    }

    /// Insert a record at a *specific* slot number, growing the directory as
    /// needed. Used by idempotent WAL redo ("install record at RID") and by
    /// compensations. An occupied slot is overwritten in place as by
    /// [`Page::update_keeping`] (redo idempotency, a rolled-back update); a
    /// reserved one is reinstated with `data` (a rolled-back delete).
    pub fn insert_at(&mut self, slot: u16, data: &[u8]) -> Result<()> {
        let count = self.slot_count();
        if slot < count {
            let (off, raw) = self.slot_at(slot);
            if off != DEAD_SLOT {
                self.set_slot(slot, off, raw & !RESERVED);
                if self.update_keeping(slot, data)? {
                    return Ok(());
                }
                return Err(StorageError::RecordTooLarge {
                    size: data.len(),
                    max: self.free_space(),
                });
            }
        } else {
            // Grow the directory with dead slots up to `slot`.
            let grow = (slot - count + 1) as usize * SLOT_SIZE;
            if self.free_space() < grow + data.len() {
                self.compact();
                if self.free_space() < grow + data.len() {
                    return Err(StorageError::RecordTooLarge {
                        size: data.len(),
                        max: self.free_space(),
                    });
                }
            }
            for s in count..=slot {
                self.set_slot(s, DEAD_SLOT, 0);
            }
            self.set_u16(OFF_SLOT_COUNT, slot + 1);
            let fs = self.get_u16(OFF_FREE_START);
            self.set_u16(OFF_FREE_START, fs + grow as u16);
        }
        if self.free_space() < data.len() {
            self.compact();
            if self.free_space() < data.len() {
                return Err(StorageError::RecordTooLarge {
                    size: data.len(),
                    max: self.free_space(),
                });
            }
        }
        let fe = self.get_u16(OFF_FREE_END) as usize;
        let new_fe = fe - data.len();
        self.buf[new_fe..fe].copy_from_slice(data);
        self.set_u16(OFF_FREE_END, new_fe as u16);
        self.set_slot(slot, new_fe as u16, data.len() as u16);
        Ok(())
    }

    /// Read a record by slot (`None` for a dead or reserved slot).
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, raw) = self.slot_at(slot);
        if off == DEAD_SLOT || raw & RESERVED != 0 {
            return None;
        }
        let len = (raw & LEN_MASK) as usize;
        Some(&self.buf[off as usize..off as usize + len])
    }

    /// Delete a live or reserved record. The slot becomes dead and may be
    /// reused.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.slot_count() || self.slot_at(slot).0 == DEAD_SLOT {
            return Err(StorageError::RecordNotFound {
                space: 0,
                page: 0,
                slot,
            });
        }
        self.set_slot(slot, DEAD_SLOT, 0);
        Ok(())
    }

    /// Reserve a live record's slot for a transaction that deleted it:
    /// readers no longer see the record, but neither [`Page::insert`] nor
    /// [`Page::compact`] reclaims its slot or extent until [`Page::release`]
    /// (commit) or [`Page::insert_at`] (rollback).
    pub fn reserve(&mut self, slot: u16) -> Result<()> {
        if self.get(slot).is_none() {
            return Err(StorageError::RecordNotFound {
                space: 0,
                page: 0,
                slot,
            });
        }
        let (off, len) = self.slot_at(slot);
        self.set_slot(slot, off, len | RESERVED);
        Ok(())
    }

    /// End a finished transaction's hold on a slot: a reserved slot is
    /// freed (the delete committed), and the bytes an in-place shrink kept
    /// in a live record's extent are given back. Any other slot is left
    /// alone.
    pub fn release(&mut self, slot: u16) {
        if slot >= self.slot_count() {
            return;
        }
        let (off, raw) = self.slot_at(slot);
        if off == DEAD_SLOT {
            return;
        }
        if raw & RESERVED != 0 {
            self.set_slot(slot, DEAD_SLOT, 0);
        } else if raw & (SHRUNK | SHRUNK_BY_ONE) != 0 {
            self.set_slot(slot, off, raw & LEN_MASK);
        }
    }

    /// Number of slots holding bytes for an unfinished transaction: deleted
    /// records and records shrunk in place.
    pub fn reserved_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| {
                let (off, raw) = self.slot_at(s);
                off != DEAD_SLOT && raw & (RESERVED | SHRUNK | SHRUNK_BY_ONE) != 0
            })
            .count()
    }

    /// Update a record in place. Returns `false` (leaving the old record
    /// intact) if the new data does not fit even after compaction; the caller
    /// then relocates the record to another page. A shrink frees the bytes
    /// it no longer needs, unless an earlier [`Page::update_keeping`] still
    /// holds them.
    pub fn update(&mut self, slot: u16, data: &[u8]) -> Result<bool> {
        self.rewrite(slot, data, false)
    }

    /// [`Page::update`] on behalf of a transaction: a shrink keeps the bytes
    /// it freed in the record's extent, where no insert, grow or compaction
    /// can take them, until [`Page::release`] at the transaction's end — so
    /// rolling the shrink back always fits.
    pub fn update_keeping(&mut self, slot: u16, data: &[u8]) -> Result<bool> {
        self.rewrite(slot, data, true)
    }

    fn rewrite(&mut self, slot: u16, data: &[u8], keep: bool) -> Result<bool> {
        if self.get(slot).is_none() {
            return Err(StorageError::RecordNotFound {
                space: 0,
                page: 0,
                slot,
            });
        }
        let (off, len, cap) = self.extent(slot);
        if data.len() <= cap {
            // Within the extent: overwrite at the same offset. A held
            // extent stays whole.
            let cap = if keep || cap > len { cap } else { data.len() };
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_extent(slot, off, data.len(), cap);
            return Ok(true);
        }
        // Grow past the extent: tombstone then re-place.
        self.set_slot(slot, DEAD_SLOT, 0);
        let mut kept = None;
        if self.free_space() < data.len() {
            // Compaction reuses the tombstoned extent: keep a copy to put
            // back if the new body still does not fit (the old one does).
            let old = self.buf[off..off + cap].to_vec();
            self.compact();
            if self.free_space() < data.len() {
                kept = Some(old);
            }
        }
        let body = kept.as_deref().unwrap_or(data);
        let fe = self.get_u16(OFF_FREE_END) as usize;
        let new_fe = fe - body.len();
        self.buf[new_fe..fe].copy_from_slice(body);
        self.set_u16(OFF_FREE_END, new_fe as u16);
        match kept {
            Some(_) => self.set_extent(slot, new_fe, len, cap),
            None => self.set_slot(slot, new_fe as u16, data.len() as u16),
        }
        Ok(kept.is_none())
    }

    /// Iterate live (slot, record bytes) pairs in slot order.
    pub fn iter_records(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Slide the extents of all live and reserved records to the end of the
    /// page, squeezing out holes left by deletes and updates.
    pub fn compact(&mut self) {
        let count = self.slot_count();
        // Copy extents out, then re-place from the end; the length field
        // (flags and gap marker included) moves unchanged.
        let mut bodies: Vec<(u16, u16, Vec<u8>)> = Vec::with_capacity(count as usize);
        for s in 0..count {
            let (off, raw) = self.slot_at(s);
            if off != DEAD_SLOT {
                let (off, _, cap) = self.extent(s);
                bodies.push((s, raw, self.buf[off..off + cap].to_vec()));
            }
        }
        let mut fe = PAGE_SIZE;
        for (s, raw, body) in &bodies {
            fe -= body.len();
            self.buf[fe..fe + body.len()].copy_from_slice(body);
            self.set_slot(*s, fe as u16, *raw);
        }
        self.set_u16(OFF_FREE_END, fe as u16);
    }

    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap())
    }

    fn set_u32(&mut self, off: usize, v: u32) {
        self.buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.buf[off..off + 8].try_into().unwrap())
    }

    fn set_u64(&mut self, off: usize, v: u64) {
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            buf: Box::new(*self.buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new(PageType::Data);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn delete_reuses_slot() {
        let mut p = Page::new(PageType::Data);
        let s0 = p.insert(b"aaa").unwrap();
        let _s1 = p.insert(b"bbb").unwrap();
        p.delete(s0).unwrap();
        assert!(p.get(s0).is_none());
        let s2 = p.insert(b"ccc").unwrap();
        assert_eq!(s2, s0, "dead slot should be reused");
        assert_eq!(p.get(s2), Some(&b"ccc"[..]));
    }

    #[test]
    fn update_shrink_and_grow() {
        let mut p = Page::new(PageType::Data);
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"abc").unwrap());
        assert_eq!(p.get(s), Some(&b"abc"[..]));
        assert!(p.update(s, b"a-much-longer-record-body").unwrap());
        assert_eq!(p.get(s), Some(&b"a-much-longer-record-body"[..]));
    }

    #[test]
    fn fill_page_then_compact() {
        let mut p = Page::new(PageType::Data);
        let rec = vec![0xABu8; 100];
        let mut slots = Vec::new();
        while p.can_fit(rec.len()) {
            slots.push(p.insert(&rec).unwrap());
        }
        assert!(p.insert(&rec).is_err());
        // Delete every other record, then a big record should fit after compaction.
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(*s).unwrap();
            }
        }
        let big = vec![0xCDu8; 900];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.get(s), Some(&big[..]));
    }

    #[test]
    fn failed_grow_keeps_the_record() {
        let mut p = Page::new(PageType::Data);
        let s = p.insert(b"keep me").unwrap();
        let hole = p.insert(&[1u8; 1500]).unwrap();
        p.insert(&[2u8; 2000]).unwrap();
        p.delete(hole).unwrap();
        // Compaction runs, and the grown body still does not fit.
        assert!(!p.update(s, &[3u8; 2500]).unwrap());
        assert_eq!(p.get(s), Some(&b"keep me"[..]));
    }

    #[test]
    fn reserved_slot_keeps_slot_and_bytes() {
        let mut p = Page::new(PageType::Data);
        let s0 = p.insert(b"deleted").unwrap();
        let s1 = p.insert(b"live").unwrap();
        p.reserve(s0).unwrap();
        assert_eq!(p.get(s0), None, "readers see no record");
        assert!(p.reserve(s0).is_err());
        assert!(p.update(s0, b"x").is_err());
        assert_eq!(p.iter_records().count(), 1);
        assert_eq!(p.reserved_count(), 1);
        // Inserts take a new slot, and compaction keeps the reserved bytes.
        let s2 = p.insert(b"other").unwrap();
        assert_ne!(s2, s0);
        p.compact();
        // Rollback reinstates the record in place.
        p.insert_at(s0, b"deleted").unwrap();
        assert_eq!(p.get(s0), Some(&b"deleted"[..]));
        assert_eq!(p.get(s1), Some(&b"live"[..]));
        assert_eq!(p.reserved_count(), 0);
        // Release frees only a reserved slot.
        p.release(s1);
        assert_eq!(p.get(s1), Some(&b"live"[..]));
        p.reserve(s1).unwrap();
        p.release(s1);
        assert_eq!(p.reserved_count(), 0);
        assert_eq!(p.insert(b"reuse").unwrap(), s1);
    }

    #[test]
    fn kept_shrink_holds_its_extent_until_release() {
        for gap in [1usize, 2, 900] {
            let mut p = Page::new(PageType::Data);
            let a = p.insert(&[1u8; 1000]).unwrap();
            let b = p.insert(b"live").unwrap();
            let small = vec![3u8; 1000 - gap];
            assert!(p.update_keeping(a, &small).unwrap());
            assert_eq!(p.get(a), Some(&small[..]));
            assert_eq!(p.reserved_count(), 1);
            // Neither compaction nor an insert takes the kept bytes.
            let free = p.free_space();
            p.compact();
            assert_eq!(p.free_space(), free, "gap {gap}");
            assert!(p.insert(&vec![4u8; free + 1]).is_err());
            assert_eq!(p.get(a), Some(&small[..]));
            // A plain rewrite within the extent keeps the hold too; the
            // grow back fills it exactly and ends it.
            assert!(p.update(a, b"x").unwrap());
            assert_eq!(p.reserved_count(), 1);
            assert!(p.update_keeping(a, &[1u8; 1000]).unwrap());
            assert_eq!(p.reserved_count(), 0);
            // Release gives the bytes back; a reserved delete keeps them.
            assert!(p.update_keeping(a, &small).unwrap());
            p.reserve(a).unwrap();
            p.compact();
            assert_eq!(p.free_space(), free);
            p.insert_at(a, &small).unwrap();
            assert_eq!(p.get(a), Some(&small[..]));
            p.release(a);
            assert_eq!(p.reserved_count(), 0);
            p.compact();
            assert_eq!(p.free_space(), free + gap, "gap {gap}");
            assert_eq!(p.get(a), Some(&small[..]));
            assert_eq!(p.get(b), Some(&b"live"[..]));
        }
    }

    #[test]
    fn insert_at_is_idempotent() {
        let mut p = Page::new(PageType::Data);
        p.insert_at(3, b"redo-me").unwrap();
        p.insert_at(3, b"redo-me").unwrap();
        assert_eq!(p.get(3), Some(&b"redo-me"[..]));
        assert!(p.get(0).is_none());
        assert_eq!(p.slot_count(), 4);
    }

    #[test]
    fn round_trip_bytes() {
        let mut p = Page::new(PageType::BTreeLeaf);
        p.insert(b"key-value").unwrap();
        p.set_lsn(42);
        p.set_next_page(7);
        let p2 = Page::from_bytes(p.bytes().as_slice()).unwrap();
        assert_eq!(p2.page_type(), PageType::BTreeLeaf);
        assert_eq!(p2.lsn(), 42);
        assert_eq!(p2.next_page(), 7);
        assert_eq!(p2.get(0), Some(&b"key-value"[..]));
    }

    #[test]
    fn rejects_oversized_record() {
        let mut p = Page::new(PageType::Data);
        let big = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn iter_records_skips_dead() {
        let mut p = Page::new(PageType::Data);
        let s0 = p.insert(b"a").unwrap();
        let _ = p.insert(b"b").unwrap();
        let _ = p.insert(b"c").unwrap();
        p.delete(s0).unwrap();
        let live: Vec<_> = p.iter_records().map(|(s, _)| s).collect();
        assert_eq!(live, vec![1, 2]);
    }
}
