//! Disk-backed B+tree.
//!
//! The "same mature B+tree infrastructure for relational indexes" that the
//! paper extends for XPath indexes (§3.3). Keys are variable-length byte
//! strings compared lexicographically; values are `u64` (typically a packed
//! [`crate::rid::Rid`]). The engine builds every index in the paper on this
//! structure:
//!
//! * the **NodeID index** with keys `(DocID, upper-endpoint NodeID)` — probed
//!   with a *ceiling* search ([`BTree::search_ceil`]) per §3.4;
//! * **XPath value indexes** with keys `(keyval, DocID, NodeID)`;
//! * the base-table **DocID index**;
//! * versioned NodeID indexes `(DocID, !ver#, NodeID)` for multiversioning.
//!
//! Each tree node is one slotted-page record (slot 0) holding a sorted entry
//! list; leaves are chained through the page `next_page` link for range scans.
//! Deletion is lazy (no rebalancing), which matches common industrial practice
//! and keeps scans correct.

use crate::error::{Result, StorageError};
use crate::page::{PageType, MAX_RECORD_SIZE};
use crate::space::TableSpace;
use parking_lot::RwLock;
use std::sync::Arc;

/// Maximum key length accepted (guarantees several entries per node).
pub const MAX_KEY_SIZE: usize = 1024;

/// A B+tree index over a table space. One anchor slot of the space stores the
/// root page number so the root may move across splits.
///
/// ```
/// use std::sync::Arc;
/// use rx_storage::{BTree, BufferPool, MemBackend, TableSpace};
///
/// let pool = BufferPool::new(64);
/// let space = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
/// let tree = BTree::create(space, 2).unwrap();
/// tree.insert(b"widget", 7).unwrap();
/// assert_eq!(tree.search(b"widget").unwrap(), Some(7));
/// let (key, value) = tree.search_ceil(b"w").unwrap().unwrap();
/// assert_eq!((key.as_slice(), value), (&b"widget"[..], 7));
/// ```
pub struct BTree {
    space: Arc<TableSpace>,
    anchor: usize,
    latch: RwLock<()>,
}

// ---------------------------------------------------------------------------
// Node byte layout (stored as record 0 of its page)
//
// Leaf:      [count u16] ( [klen u16][key][val u64] )*count      sorted by key
// Internal:  [count u16][child0 u32] ( [klen u16][key][child u32] )*count
//            child0 holds keys < key[0]; child[i] holds keys >= key[i].
// ---------------------------------------------------------------------------

struct LeafEntry<'a> {
    key: &'a [u8],
    val: u64,
}

fn leaf_iter(buf: &[u8]) -> impl Iterator<Item = LeafEntry<'_>> {
    let count = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let mut off = 2;
    (0..count).map(move |_| {
        let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        let key = &buf[off + 2..off + 2 + klen];
        let val = u64::from_le_bytes(buf[off + 2 + klen..off + 10 + klen].try_into().unwrap());
        off += 10 + klen;
        LeafEntry { key, val }
    })
}

fn leaf_count(buf: &[u8]) -> usize {
    u16::from_le_bytes([buf[0], buf[1]]) as usize
}

/// Locate the insertion point for `key` in a leaf buffer. Returns
/// `(byte_offset, index, exact_match)`.
fn leaf_find(buf: &[u8], key: &[u8]) -> (usize, usize, bool) {
    let count = leaf_count(buf);
    let mut off = 2;
    for i in 0..count {
        let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        let k = &buf[off + 2..off + 2 + klen];
        match k.cmp(key) {
            std::cmp::Ordering::Less => off += 10 + klen,
            std::cmp::Ordering::Equal => return (off, i, true),
            std::cmp::Ordering::Greater => return (off, i, false),
        }
    }
    (off, count, false)
}

fn leaf_entry_at(buf: &[u8], mut off: usize) -> (&[u8], u64, usize) {
    let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
    let key = &buf[off + 2..off + 2 + klen];
    let val = u64::from_le_bytes(buf[off + 2 + klen..off + 10 + klen].try_into().unwrap());
    off += 10 + klen;
    (key, val, off)
}

fn internal_count(buf: &[u8]) -> usize {
    u16::from_le_bytes([buf[0], buf[1]]) as usize
}

/// Find the child page that may contain `key`: the child of the rightmost
/// separator `<= key`, or `child0` when `key` precedes every separator.
/// Returns `(child_page, slot_index_of_that_child)` where slot 0 = child0.
fn internal_route(buf: &[u8], key: &[u8]) -> (u32, usize) {
    let count = internal_count(buf);
    let mut child = u32::from_le_bytes(buf[2..6].try_into().unwrap());
    let mut idx = 0usize;
    let mut off = 6;
    for i in 0..count {
        let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        let k = &buf[off + 2..off + 2 + klen];
        if k <= key {
            child = u32::from_le_bytes(buf[off + 2 + klen..off + 6 + klen].try_into().unwrap());
            idx = i + 1;
        } else {
            break;
        }
        off += 6 + klen;
    }
    (child, idx)
}

/// Leftmost child of an internal node.
fn internal_first_child(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[2..6].try_into().unwrap())
}

/// Insert `(key, child)` as a separator into an internal buffer.
fn internal_insert(buf: &mut Vec<u8>, key: &[u8], child: u32) {
    let count = internal_count(buf);
    let mut off = 6;
    let mut idx = count;
    for i in 0..count {
        let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        let k = &buf[off + 2..off + 2 + klen];
        if k > key {
            idx = i;
            break;
        }
        off += 6 + klen;
    }
    let _ = idx;
    let mut entry = Vec::with_capacity(6 + key.len());
    entry.extend_from_slice(&(key.len() as u16).to_le_bytes());
    entry.extend_from_slice(key);
    entry.extend_from_slice(&child.to_le_bytes());
    buf.splice(off..off, entry);
    let c = (count + 1) as u16;
    buf[0..2].copy_from_slice(&c.to_le_bytes());
}

struct SplitResult {
    sep: Vec<u8>,
    right_page: u32,
}

impl BTree {
    /// Create a new empty tree, recording its root page in `anchor`.
    pub fn create(space: Arc<TableSpace>, anchor: usize) -> Result<Arc<Self>> {
        let root = space.allocate(PageType::BTreeLeaf)?;
        let root_no = root.pid().page;
        root.write().insert(&0u16.to_le_bytes())?; // empty leaf: count=0
        drop(root);
        space.set_anchor(anchor, root_no)?;
        Ok(Arc::new(BTree {
            space,
            anchor,
            latch: RwLock::new(()),
        }))
    }

    /// Open a tree previously created in `space` at `anchor`.
    pub fn open(space: Arc<TableSpace>, anchor: usize) -> Result<Arc<Self>> {
        if space.anchor(anchor)? == 0 {
            return Err(StorageError::Index(format!(
                "no B+tree at anchor {anchor} of space {}",
                space.id()
            )));
        }
        Ok(Arc::new(BTree {
            space,
            anchor,
            latch: RwLock::new(()),
        }))
    }

    /// The table space this tree lives in.
    pub fn space(&self) -> &Arc<TableSpace> {
        &self.space
    }

    /// The space anchor slot holding this tree's root page.
    pub fn anchor(&self) -> usize {
        self.anchor
    }

    fn root(&self) -> Result<u32> {
        self.space.anchor(self.anchor)
    }

    fn read_node(&self, page_no: u32) -> Result<(PageType, Vec<u8>)> {
        let g = self.space.fetch(page_no)?;
        let p = g.read();
        let t = p.page_type();
        let rec = p.get(0).ok_or_else(|| {
            StorageError::Index(format!("B+tree page {page_no} has no node record"))
        })?;
        Ok((t, rec.to_vec()))
    }

    fn write_node(&self, page_no: u32, buf: &[u8]) -> Result<()> {
        let g = self.space.fetch(page_no)?;
        let mut p = g.write();
        if !p.update(0, buf)? {
            // One record per page: compaction must always make room.
            p.compact();
            if !p.update(0, buf)? {
                return Err(StorageError::Index(format!(
                    "B+tree node of {} bytes cannot be stored",
                    buf.len()
                )));
            }
        }
        Ok(())
    }

    /// Exact-match lookup.
    pub fn search(&self, key: &[u8]) -> Result<Option<u64>> {
        let _g = self.latch.read();
        let (leaf_no, _) = self.descend(key)?;
        let (_, buf) = self.read_node(leaf_no)?;
        let (off, _, exact) = leaf_find(&buf, key);
        if exact {
            let (_, val, _) = leaf_entry_at(&buf, off);
            Ok(Some(val))
        } else {
            Ok(None)
        }
    }

    /// Ceiling search: the smallest entry with key `>= key`, if any. This is
    /// the probe the NodeID index uses (§3.4): node IDs are mapped to the
    /// record whose interval *upper endpoint* is the first at-or-above the
    /// probe.
    pub fn search_ceil(&self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>> {
        let _g = self.latch.read();
        let (mut leaf_no, _) = self.descend(key)?;
        loop {
            let g = self.space.fetch(leaf_no)?;
            let p = g.read();
            let buf = p
                .get(0)
                .ok_or_else(|| StorageError::Index("leaf missing node record".into()))?;
            let (off, idx, _exact) = leaf_find(buf, key);
            if idx < leaf_count(buf) {
                let (k, v, _) = leaf_entry_at(buf, off);
                return Ok(Some((k.to_vec(), v)));
            }
            let next = p.next_page();
            if next == 0 {
                return Ok(None);
            }
            leaf_no = next;
        }
    }

    /// Descend from the root to the leaf that covers `key`, returning the
    /// leaf page number and the path of internal pages visited.
    fn descend(&self, key: &[u8]) -> Result<(u32, Vec<u32>)> {
        let mut path = Vec::new();
        let mut page_no = self.root()?;
        loop {
            let (t, buf) = self.read_node(page_no)?;
            match t {
                PageType::BTreeLeaf => return Ok((page_no, path)),
                PageType::BTreeInternal => {
                    path.push(page_no);
                    let (child, _) = internal_route(&buf, key);
                    page_no = child;
                }
                other => {
                    return Err(StorageError::Index(format!(
                        "unexpected page type {other:?} in B+tree descent"
                    )))
                }
            }
        }
    }

    /// Insert or replace. Returns the previous value when the key existed.
    pub fn insert(&self, key: &[u8], val: u64) -> Result<Option<u64>> {
        if key.len() > MAX_KEY_SIZE {
            return Err(StorageError::Index(format!(
                "key of {} bytes exceeds MAX_KEY_SIZE {MAX_KEY_SIZE}",
                key.len()
            )));
        }
        let _g = self.latch.write();
        let (leaf_no, path) = self.descend(key)?;
        let (_, mut buf) = self.read_node(leaf_no)?;
        let (off, _, exact) = leaf_find(&buf, key);
        let prev = if exact {
            let (_, old, _) = leaf_entry_at(&buf, off);
            // Replace value in place.
            let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
            buf[off + 2 + klen..off + 10 + klen].copy_from_slice(&val.to_le_bytes());
            Some(old)
        } else {
            let mut entry = Vec::with_capacity(10 + key.len());
            entry.extend_from_slice(&(key.len() as u16).to_le_bytes());
            entry.extend_from_slice(key);
            entry.extend_from_slice(&val.to_le_bytes());
            buf.splice(off..off, entry);
            let c = (leaf_count(&buf) + 1) as u16;
            buf[0..2].copy_from_slice(&c.to_le_bytes());
            None
        };
        if buf.len() <= MAX_RECORD_SIZE {
            self.write_node(leaf_no, &buf)?;
            return Ok(prev);
        }
        // Leaf overflow: split and propagate separators up the path.
        let mut split = self.split_leaf(leaf_no, buf)?;
        for &parent_no in path.iter().rev() {
            let (_, mut pbuf) = self.read_node(parent_no)?;
            internal_insert(&mut pbuf, &split.sep, split.right_page);
            if pbuf.len() <= MAX_RECORD_SIZE {
                self.write_node(parent_no, &pbuf)?;
                return Ok(prev);
            }
            split = self.split_internal(parent_no, pbuf)?;
        }
        // The root itself split: grow the tree by one level.
        let old_root = self.root()?;
        let new_root = self.space.allocate(PageType::BTreeInternal)?;
        let new_root_no = new_root.pid().page;
        let mut rbuf = Vec::with_capacity(12 + split.sep.len());
        rbuf.extend_from_slice(&1u16.to_le_bytes());
        rbuf.extend_from_slice(&old_root.to_le_bytes());
        rbuf.extend_from_slice(&(split.sep.len() as u16).to_le_bytes());
        rbuf.extend_from_slice(&split.sep);
        rbuf.extend_from_slice(&split.right_page.to_le_bytes());
        new_root.write().insert(&rbuf)?;
        drop(new_root);
        self.space.set_anchor(self.anchor, new_root_no)?;
        Ok(prev)
    }

    fn split_leaf(&self, leaf_no: u32, buf: Vec<u8>) -> Result<SplitResult> {
        let count = leaf_count(&buf);
        debug_assert!(count >= 2);
        let mid = count / 2;
        // Find the byte offset of entry `mid` and its key (the separator).
        let mut off = 2;
        for _ in 0..mid {
            let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
            off += 10 + klen;
        }
        let sep = {
            let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
            buf[off + 2..off + 2 + klen].to_vec()
        };
        let mut left = Vec::with_capacity(off);
        left.extend_from_slice(&(mid as u16).to_le_bytes());
        left.extend_from_slice(&buf[2..off]);
        let mut right = Vec::with_capacity(buf.len() - off + 2);
        right.extend_from_slice(&((count - mid) as u16).to_le_bytes());
        right.extend_from_slice(&buf[off..]);

        let right_page = self.space.allocate(PageType::BTreeLeaf)?;
        let right_no = right_page.pid().page;
        // Chain: left -> right -> old next.
        let left_guard = self.space.fetch(leaf_no)?;
        let old_next = left_guard.read().next_page();
        right_page.write().set_next_page(old_next);
        right_page.write().insert(&right)?;
        drop(right_page);
        left_guard.write().set_next_page(right_no);
        drop(left_guard);
        self.write_node(leaf_no, &left)?;
        Ok(SplitResult {
            sep,
            right_page: right_no,
        })
    }

    fn split_internal(&self, page_no: u32, buf: Vec<u8>) -> Result<SplitResult> {
        let count = internal_count(&buf);
        debug_assert!(count >= 3);
        let mid = count / 2;
        // Walk to entry `mid`; its key becomes the separator pushed up, its
        // child becomes the right node's child0.
        let mut off = 6;
        for _ in 0..mid {
            let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
            off += 6 + klen;
        }
        let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        let sep = buf[off + 2..off + 2 + klen].to_vec();
        let right_child0 =
            u32::from_le_bytes(buf[off + 2 + klen..off + 6 + klen].try_into().unwrap());
        let rest = off + 6 + klen;

        let mut left = Vec::with_capacity(off);
        left.extend_from_slice(&(mid as u16).to_le_bytes());
        left.extend_from_slice(&buf[2..off]);
        let mut right = Vec::with_capacity(buf.len() - rest + 6);
        right.extend_from_slice(&((count - mid - 1) as u16).to_le_bytes());
        right.extend_from_slice(&right_child0.to_le_bytes());
        right.extend_from_slice(&buf[rest..]);

        let right_page = self.space.allocate(PageType::BTreeInternal)?;
        let right_no = right_page.pid().page;
        right_page.write().insert(&right)?;
        drop(right_page);
        self.write_node(page_no, &left)?;
        Ok(SplitResult {
            sep,
            right_page: right_no,
        })
    }

    /// Delete an exact key. Returns the removed value, `None` when absent.
    /// Deletion is lazy: nodes are never merged.
    pub fn delete(&self, key: &[u8]) -> Result<Option<u64>> {
        let _g = self.latch.write();
        let (leaf_no, _) = self.descend(key)?;
        let (_, mut buf) = self.read_node(leaf_no)?;
        let (off, _, exact) = leaf_find(&buf, key);
        if !exact {
            return Ok(None);
        }
        let (_, val, end) = leaf_entry_at(&buf, off);
        buf.drain(off..end);
        let c = (leaf_count(&buf) - 1) as u16;
        buf[0..2].copy_from_slice(&c.to_le_bytes());
        self.write_node(leaf_no, &buf)?;
        Ok(Some(val))
    }

    /// Range scan from `start` (inclusive): collect entries while `take`
    /// returns `true`; stop at the first entry it rejects.
    pub fn scan_from(&self, start: &[u8], mut take: impl FnMut(&[u8], u64) -> bool) -> Result<()> {
        let _g = self.latch.read();
        let (mut leaf_no, _) = self.descend(start)?;
        let mut skip_key = Some(start.to_vec());
        loop {
            let g = self.space.fetch(leaf_no)?;
            let p = g.read();
            let buf = p
                .get(0)
                .ok_or_else(|| StorageError::Index("leaf missing node record".into()))?;
            for e in leaf_iter(buf) {
                if let Some(sk) = &skip_key {
                    if e.key < sk.as_slice() {
                        continue;
                    }
                    skip_key = None;
                }
                if !take(e.key, e.val) {
                    return Ok(());
                }
            }
            let next = p.next_page();
            if next == 0 {
                return Ok(());
            }
            leaf_no = next;
        }
    }

    /// Scan every entry whose key starts with `prefix`.
    pub fn scan_prefix(
        &self,
        prefix: &[u8],
        mut take: impl FnMut(&[u8], u64) -> bool,
    ) -> Result<()> {
        self.scan_from(prefix, |k, v| {
            if !k.starts_with(prefix) && k > prefix {
                return false;
            }
            if k.starts_with(prefix) {
                take(k, v)
            } else {
                true
            }
        })
    }

    /// Scan the whole tree in key order.
    pub fn scan_all(&self, take: impl FnMut(&[u8], u64) -> bool) -> Result<()> {
        self.scan_from(&[], take)
    }

    /// Count entries (full scan; for tests and the storage experiments).
    pub fn len(&self) -> Result<u64> {
        let mut n = 0;
        self.scan_all(|_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// True when the tree has no entries.
    pub fn is_empty(&self) -> Result<bool> {
        let mut any = false;
        self.scan_all(|_, _| {
            any = true;
            false
        })?;
        Ok(!any)
    }

    /// Number of pages the tree occupies (internal + leaf), for size reports.
    pub fn page_count(&self) -> Result<u64> {
        let _g = self.latch.read();
        let mut pages = 0u64;
        let mut stack = vec![self.root()?];
        while let Some(pno) = stack.pop() {
            pages += 1;
            let (t, buf) = self.read_node(pno)?;
            if t == PageType::BTreeInternal {
                stack.push(internal_first_child(&buf));
                let count = internal_count(&buf);
                let mut off = 6;
                for _ in 0..count {
                    let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
                    let child =
                        u32::from_le_bytes(buf[off + 2 + klen..off + 6 + klen].try_into().unwrap());
                    stack.push(child);
                    off += 6 + klen;
                }
            }
        }
        Ok(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::buffer::BufferPool;

    fn tree() -> Arc<BTree> {
        let pool = BufferPool::new(1024);
        let ts = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
        BTree::create(ts, 2).unwrap()
    }

    #[test]
    fn insert_search_small() {
        let t = tree();
        assert_eq!(t.search(b"a").unwrap(), None);
        t.insert(b"b", 2).unwrap();
        t.insert(b"a", 1).unwrap();
        t.insert(b"c", 3).unwrap();
        assert_eq!(t.search(b"a").unwrap(), Some(1));
        assert_eq!(t.search(b"b").unwrap(), Some(2));
        assert_eq!(t.search(b"c").unwrap(), Some(3));
        assert_eq!(t.search(b"d").unwrap(), None);
    }

    #[test]
    fn upsert_replaces() {
        let t = tree();
        assert_eq!(t.insert(b"k", 1).unwrap(), None);
        assert_eq!(t.insert(b"k", 2).unwrap(), Some(1));
        assert_eq!(t.search(b"k").unwrap(), Some(2));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn many_keys_with_splits() {
        let t = tree();
        let n = 20_000u64;
        // Insert in a scrambled order to exercise splits everywhere.
        for i in 0..n {
            let k = (i * 2654435761 % n).to_be_bytes();
            t.insert(&k, i).unwrap();
        }
        for i in 0..n {
            let key = (i * 2654435761 % n).to_be_bytes();
            assert_eq!(t.search(&key).unwrap(), Some(i), "key {i}");
        }
        assert_eq!(t.len().unwrap(), n);
        // Keys come back in order.
        let mut prev: Option<Vec<u8>> = None;
        t.scan_all(|k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() < k);
            }
            prev = Some(k.to_vec());
            true
        })
        .unwrap();
        assert!(t.page_count().unwrap() > 10);
    }

    #[test]
    fn ceiling_search() {
        let t = tree();
        for i in (0..100u32).map(|i| i * 10) {
            t.insert(&i.to_be_bytes(), u64::from(i)).unwrap();
        }
        // Exact hit.
        let (k, v) = t.search_ceil(&50u32.to_be_bytes()).unwrap().unwrap();
        assert_eq!((k.as_slice(), v), (&50u32.to_be_bytes()[..], 50));
        // Between entries: rounds up.
        let (k, v) = t.search_ceil(&51u32.to_be_bytes()).unwrap().unwrap();
        assert_eq!((k.as_slice(), v), (&60u32.to_be_bytes()[..], 60));
        // Past the end.
        assert!(t.search_ceil(&2000u32.to_be_bytes()).unwrap().is_none());
    }

    #[test]
    fn delete_and_rescan() {
        let t = tree();
        for i in 0..1000u64 {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        for i in (0..1000u64).filter(|i| i % 3 == 0) {
            assert_eq!(t.delete(&i.to_be_bytes()).unwrap(), Some(i));
        }
        assert_eq!(t.delete(&3u64.to_be_bytes()).unwrap(), None);
        for i in 0..1000u64 {
            let expect = if i % 3 == 0 { None } else { Some(i) };
            assert_eq!(t.search(&i.to_be_bytes()).unwrap(), expect);
        }
        assert_eq!(t.len().unwrap(), 1000 - 334);
    }

    #[test]
    fn range_scan_window() {
        let t = tree();
        for i in 0..500u64 {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        let mut got = Vec::new();
        t.scan_from(&100u64.to_be_bytes(), |k, v| {
            let key = u64::from_be_bytes(k.try_into().unwrap());
            if key >= 110 {
                return false;
            }
            got.push(v);
            true
        })
        .unwrap();
        assert_eq!(got, (100..110).collect::<Vec<u64>>());
    }

    #[test]
    fn prefix_scan() {
        let t = tree();
        t.insert(b"doc1/a", 1).unwrap();
        t.insert(b"doc1/b", 2).unwrap();
        t.insert(b"doc10/a", 3).unwrap();
        t.insert(b"doc2/a", 4).unwrap();
        let mut got = Vec::new();
        t.scan_prefix(b"doc1/", |_, v| {
            got.push(v);
            true
        })
        .unwrap();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn variable_length_keys() {
        let t = tree();
        let keys: Vec<Vec<u8>> = (0..2000usize)
            .map(|i| {
                let mut k = vec![b'k'; i % 60 + 1];
                k.extend_from_slice(&(i as u32).to_be_bytes());
                k
            })
            .collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.search(k).unwrap(), Some(i as u64));
        }
    }

    #[test]
    fn rejects_oversized_key() {
        let t = tree();
        let k = vec![0u8; MAX_KEY_SIZE + 1];
        assert!(t.insert(&k, 0).is_err());
    }

    #[test]
    fn persists_through_reopen() {
        let pool = BufferPool::new(1024);
        let backend = Arc::new(MemBackend::new());
        {
            let ts = TableSpace::create(pool.clone(), 5, backend.clone()).unwrap();
            let t = BTree::create(ts, 2).unwrap();
            for i in 0..5000u64 {
                t.insert(&i.to_be_bytes(), i * 7).unwrap();
            }
            pool.flush_all().unwrap();
        }
        pool.forget_space(5);
        let ts = TableSpace::open(pool, 5, backend).unwrap();
        let t = BTree::open(ts, 2).unwrap();
        for i in (0..5000u64).step_by(97) {
            assert_eq!(t.search(&i.to_be_bytes()).unwrap(), Some(i * 7));
        }
        assert_eq!(t.len().unwrap(), 5000);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::buffer::BufferPool;
    use std::sync::Arc;

    fn tree() -> Arc<BTree> {
        let pool = BufferPool::new(1024);
        let ts = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
        BTree::create(ts, 2).unwrap()
    }

    #[test]
    fn empty_tree_operations() {
        let t = tree();
        assert_eq!(t.search(b"x").unwrap(), None);
        assert_eq!(t.search_ceil(b"").unwrap(), None);
        assert_eq!(t.delete(b"x").unwrap(), None);
        assert!(t.is_empty().unwrap());
        assert_eq!(t.len().unwrap(), 0);
        let mut n = 0;
        t.scan_all(|_, _| {
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 0);
        assert_eq!(t.page_count().unwrap(), 1);
    }

    #[test]
    fn max_size_keys() {
        let t = tree();
        // Keys at the size limit still allow multiple entries per node.
        for i in 0..10u8 {
            let mut k = vec![i; MAX_KEY_SIZE];
            k[0] = i;
            t.insert(&k, u64::from(i)).unwrap();
        }
        for i in 0..10u8 {
            let mut k = vec![i; MAX_KEY_SIZE];
            k[0] = i;
            assert_eq!(t.search(&k).unwrap(), Some(u64::from(i)));
        }
        assert_eq!(t.len().unwrap(), 10);
    }

    #[test]
    fn empty_key_is_valid() {
        let t = tree();
        t.insert(b"", 42).unwrap();
        t.insert(b"a", 1).unwrap();
        assert_eq!(t.search(b"").unwrap(), Some(42));
        // The empty key sorts first.
        let (k, v) = t.search_ceil(b"").unwrap().unwrap();
        assert_eq!((k.as_slice(), v), (&b""[..], 42));
    }

    #[test]
    fn descending_insert_order() {
        let t = tree();
        for i in (0..5000u64).rev() {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        assert_eq!(t.len().unwrap(), 5000);
        let mut prev = None;
        t.scan_all(|k, _| {
            let key = u64::from_be_bytes(k.try_into().unwrap());
            if let Some(p) = prev {
                assert!(key > p);
            }
            prev = Some(key);
            true
        })
        .unwrap();
    }

    #[test]
    fn interleaved_insert_delete_churn() {
        let t = tree();
        // Repeatedly fill and drain overlapping ranges.
        for round in 0..5u64 {
            for i in 0..2000u64 {
                t.insert(&(i * 3 + round).to_be_bytes(), i).unwrap();
            }
            for i in 0..1000u64 {
                t.delete(&(i * 3 + round).to_be_bytes()).unwrap();
            }
        }
        // The survivors are exactly the keys never deleted.
        let len = t.len().unwrap();
        assert!(len > 0);
        let mut count = 0;
        t.scan_all(|_, _| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, len);
    }

    #[test]
    fn scan_from_beyond_everything() {
        let t = tree();
        for i in 0..100u64 {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        let mut hits = 0;
        t.scan_from(&u64::MAX.to_be_bytes(), |_, _| {
            hits += 1;
            true
        })
        .unwrap();
        assert_eq!(hits, 0);
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let t = tree();
        for i in 0..2000u64 {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        std::thread::scope(|s| {
            let t2 = Arc::clone(&t);
            s.spawn(move || {
                for i in 2000..4000u64 {
                    t2.insert(&i.to_be_bytes(), i).unwrap();
                }
            });
            for _ in 0..3 {
                let t3 = Arc::clone(&t);
                s.spawn(move || {
                    for i in (0..2000u64).step_by(37) {
                        assert_eq!(t3.search(&i.to_be_bytes()).unwrap(), Some(i));
                    }
                });
            }
        });
        assert_eq!(t.len().unwrap(), 4000);
    }
}
