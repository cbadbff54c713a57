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
//! Each tree node owns its page after the page header. A sorted array of
//! `u16` entry offsets grows up from the node header while the entries grow
//! down from the end of the page, in key order:
//!
//! ```text
//! leaf:      [count u16]             [start u16 × count] … free … [entry count-1] … [entry 0]
//! internal:  [count u16][child0 u32] [start u16 × count] … free … [entry count-1] … [entry 0]
//! leaf entry:      key ‖ value u64
//! internal entry:  key ‖ child u32   (child0 holds keys < key 0; the child
//!                                     of entry i holds keys >= key i)
//! ```
//!
//! Entry `i` spans `start[i]..start[i-1]`, where `start[-1]` is the page end,
//! so an entry's length comes from its offsets. A search is a binary search
//! over the page bytes under the page's read latch, and an insert or delete
//! shifts bytes inside the page under its write latch; nothing is copied out.
//! An append (a new last entry) moves no other entry. Offsets are checked on
//! every read access and the whole node before an edit, so a corrupt page
//! fails as [`StorageError::Corrupt`].
//!
//! A full node splits in the middle of its bytes, except that a node whose
//! new entry lands after every entry it holds keeps them all and starts its
//! new right sibling with the new entry: a load in key order (DocIDs ascend)
//! fills every node instead of leaving each one half full. Leaves are chained
//! through the page `next_page` link for range scans. Deletion is lazy (no
//! rebalancing), which matches common industrial practice and keeps scans
//! correct.

use crate::buffer::PageGuard;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageType, PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::space::TableSpace;
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::sync::atomic::{self, AtomicU32};
use std::sync::Arc;

/// Maximum key length accepted (guarantees several entries per node).
pub const MAX_KEY_SIZE: usize = 1024;

/// Levels a descent passes before the tree is taken for corrupt (a cycle of
/// child links). Each level multiplies the pages below it by at least two,
/// so no tree a `u32` page number can address comes near it.
const MAX_HEIGHT: usize = 40;

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
    /// The root page (also in the anchor slot); changes only under the
    /// write latch.
    root: AtomicU32,
    latch: RwLock<()>,
}

// ---------------------------------------------------------------------------
// Node byte layout (see the module doc)
// ---------------------------------------------------------------------------

/// Offset of the entry count.
const COUNT: usize = PAGE_HEADER_SIZE;
/// Offset of an internal node's leftmost child.
const CHILD0: usize = PAGE_HEADER_SIZE + 2;

fn u16_at(b: &[u8; PAGE_SIZE], off: usize) -> usize {
    u16::from_le_bytes([b[off], b[off + 1]]) as usize
}

fn put_u16(b: &mut [u8; PAGE_SIZE], off: usize, v: usize) {
    b[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("B+tree node: {what}"))
}

/// A node read in place from its latched page.
struct Node<'a> {
    b: &'a [u8; PAGE_SIZE],
    leaf: bool,
    count: usize,
}

impl<'a> Node<'a> {
    /// The node on a B+tree page whose offset array fits in the page.
    fn of(page: &'a Page) -> Result<Node<'a>> {
        let leaf = match page.page_type() {
            PageType::BTreeLeaf => true,
            PageType::BTreeInternal => false,
            other => return Err(corrupt(&format!("page of type {other:?} in the tree"))),
        };
        let b = page.bytes();
        let node = Node {
            b,
            leaf,
            count: u16_at(b, COUNT),
        };
        if node.slots_end() > PAGE_SIZE {
            return Err(corrupt("offset array overruns the page"));
        }
        Ok(node)
    }

    /// [`Node::of`] for a page that must be a leaf.
    fn leaf_of(page: &'a Page) -> Result<Node<'a>> {
        let node = Node::of(page)?;
        if !node.leaf {
            return Err(corrupt("internal node in the leaf chain"));
        }
        Ok(node)
    }

    /// Offset of the offset array.
    fn slots(&self) -> usize {
        if self.leaf {
            COUNT + 2
        } else {
            CHILD0 + 4
        }
    }

    /// End of the offset array: the start of the free gap.
    fn slots_end(&self) -> usize {
        self.slots() + 2 * self.count
    }

    /// Bytes after an entry's key: its value or child.
    fn tail(&self) -> usize {
        if self.leaf {
            8
        } else {
            4
        }
    }

    fn start(&self, i: usize) -> usize {
        u16_at(self.b, self.slots() + 2 * i)
    }

    fn end(&self, i: usize) -> usize {
        match i {
            0 => PAGE_SIZE,
            _ => self.start(i - 1),
        }
    }

    /// Start of the lowest entry: the end of the free gap.
    fn low(&self) -> usize {
        match self.count {
            0 => PAGE_SIZE,
            n => self.start(n - 1),
        }
    }

    /// Entry `i`'s bytes, checked against the page so that a corrupt offset
    /// is an error rather than an out-of-bounds access.
    fn entry(&self, i: usize) -> Result<&'a [u8]> {
        let (s, e) = (self.start(i), self.end(i));
        if s < self.slots_end() || s + self.tail() > e || e > PAGE_SIZE {
            return Err(corrupt(&format!("entry {i} spans {s}..{e}")));
        }
        Ok(&self.b[s..e])
    }

    fn key(&self, i: usize) -> Result<&'a [u8]> {
        let e = self.entry(i)?;
        Ok(&e[..e.len() - self.tail()])
    }

    /// A leaf entry's key and value.
    fn pair(&self, i: usize) -> Result<(&'a [u8], u64)> {
        let e = self.entry(i)?;
        let (key, val) = e.split_at(e.len() - 8);
        Ok((key, u64::from_le_bytes(val.try_into().unwrap())))
    }

    /// An internal node's child in `slot`: 0 is `child0`, `i + 1` the child
    /// of entry `i`.
    fn child(&self, slot: usize) -> Result<u32> {
        let tail = match slot {
            0 => &self.b[CHILD0..CHILD0 + 4],
            _ => {
                let e = self.entry(slot - 1)?;
                &e[e.len() - 4..]
            }
        };
        Ok(u32::from_le_bytes(tail.try_into().unwrap()))
    }

    /// Binary search: the index of the first key `>= key` (`count` when
    /// there is none) and whether it equals `key`.
    fn find(&self, key: &[u8]) -> Result<(usize, bool)> {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid)?.cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok((mid, true)),
                Ordering::Greater => hi = mid,
            }
        }
        Ok((lo, false))
    }

    /// The child that may hold `key`: that of the last separator `<= key`,
    /// or `child0` when `key` precedes every separator.
    fn route(&self, key: &[u8]) -> Result<u32> {
        let (i, exact) = self.find(key)?;
        self.child(i + usize::from(exact))
    }

    /// Check every offset, so that an edit may move bytes unchecked: the
    /// entries lie in index order between the offset array and the page
    /// end, each holding its tail and a key of at most [`MAX_KEY_SIZE`].
    fn validate(&self) -> Result<()> {
        let mut end = PAGE_SIZE;
        let slots = &self.b[self.slots()..self.slots_end()];
        for (i, s) in slots.chunks_exact(2).enumerate() {
            let s = usize::from(u16::from_le_bytes([s[0], s[1]]));
            // One compare: the key length wraps when the entry is shorter
            // than its tail.
            if end.wrapping_sub(s).wrapping_sub(self.tail()) > MAX_KEY_SIZE {
                return Err(corrupt(&format!("entry {i} spans {s}..{end}")));
            }
            end = s;
        }
        if end < self.slots_end() {
            return Err(corrupt("entries overlap the offset array"));
        }
        Ok(())
    }

    /// Where a full node splits so that the entry of `len` bytes going in
    /// at `i` fits: the number of entries, counting the new one, that stay
    /// on the left, chosen to halve the bytes (1..=count).
    fn split_point(&self, i: usize, len: usize) -> usize {
        let size = |j: usize| {
            2 + match j.cmp(&i) {
                Ordering::Less => self.end(j) - self.start(j),
                Ordering::Equal => len,
                Ordering::Greater => self.end(j - 1) - self.start(j - 1),
            }
        };
        let total: usize = (0..=self.count).map(size).sum();
        let mut left = 0;
        for j in 0..=self.count {
            left += size(j);
            if 2 * left >= total {
                return (j + 1).min(self.count);
            }
        }
        self.count
    }
}

/// A validated node open for editing under its page's write latch.
struct NodeMut<'a> {
    page: &'a mut Page,
    leaf: bool,
    count: usize,
}

impl<'a> NodeMut<'a> {
    fn of(page: &'a mut Page) -> Result<NodeMut<'a>> {
        let node = Node::of(page)?;
        node.validate()?;
        let (leaf, count) = (node.leaf, node.count);
        Ok(NodeMut { page, leaf, count })
    }

    fn view(&self) -> Node<'_> {
        Node {
            b: self.page.bytes(),
            leaf: self.leaf,
            count: self.count,
        }
    }

    fn set_count(&mut self, n: usize) {
        self.count = n;
        put_u16(self.page.bytes_mut(), COUNT, n);
    }

    fn set_child0(&mut self, child: u32) {
        self.page.bytes_mut()[CHILD0..CHILD0 + 4].copy_from_slice(&child.to_le_bytes());
    }

    /// Overwrite leaf entry `i`'s value, returning the old one.
    fn replace_value(&mut self, i: usize, val: u64) -> u64 {
        let e = self.view().end(i);
        let b = self.page.bytes_mut();
        let old = u64::from_le_bytes(b[e - 8..e].try_into().unwrap());
        b[e - 8..e].copy_from_slice(&val.to_le_bytes());
        old
    }

    /// Put `key ‖ tail` in as entry `i`, moving the entries after it down
    /// by its length. `false`, changing nothing, when the node has no room.
    fn insert(&mut self, i: usize, key: &[u8], tail: &[u8]) -> bool {
        let v = self.view();
        let len = key.len() + tail.len();
        if v.low() < v.slots_end() + 2 + len {
            return false;
        }
        let (low, end, slots, count) = (v.low(), v.end(i), v.slots(), v.count);
        let b = self.page.bytes_mut();
        b.copy_within(low..end, low - len);
        for j in (i..count).rev() {
            let s = u16_at(b, slots + 2 * j);
            put_u16(b, slots + 2 * (j + 1), s - len);
        }
        let s = end - len;
        b[s..s + key.len()].copy_from_slice(key);
        b[s + key.len()..end].copy_from_slice(tail);
        put_u16(b, slots + 2 * i, s);
        self.set_count(count + 1);
        true
    }

    /// Take entry `i` out, moving the entries after it up into its bytes.
    fn remove(&mut self, i: usize) {
        let v = self.view();
        let (low, s, e, slots, count) = (v.low(), v.start(i), v.end(i), v.slots(), v.count);
        let len = e - s;
        let b = self.page.bytes_mut();
        b.copy_within(low..s, low + len);
        for j in i + 1..count {
            let s = u16_at(b, slots + 2 * j);
            put_u16(b, slots + 2 * (j - 1), s + len);
        }
        self.set_count(count - 1);
    }

    /// Move entries `from..` to the end of the empty node `right`. The
    /// entries that stay do not move.
    fn move_tail(&mut self, from: usize, right: &mut NodeMut<'_>) {
        let v = self.view();
        let (low, high, slots) = (v.low(), v.end(from), v.slots());
        let shift = PAGE_SIZE - high;
        let src = self.page.bytes();
        let dst = right.page.bytes_mut();
        dst[low + shift..].copy_from_slice(&src[low..high]);
        for j in from..self.count {
            put_u16(
                dst,
                slots + 2 * (j - from),
                u16_at(src, slots + 2 * j) + shift,
            );
        }
        right.set_count(self.count - from);
        self.set_count(from);
    }

    /// [`NodeMut::insert`] into a node a split made room in.
    fn insert_after_split(&mut self, i: usize, key: &[u8], tail: &[u8]) -> Result<()> {
        if self.insert(i, key, tail) {
            Ok(())
        } else {
            Err(corrupt("no room for an entry after a split"))
        }
    }
}

/// The internal pages a descent passed, root first.
struct Path {
    pages: [u32; MAX_HEIGHT],
    len: usize,
}

impl Path {
    fn new() -> Path {
        Path {
            pages: [0; MAX_HEIGHT],
            len: 0,
        }
    }

    fn pop(&mut self) -> Option<u32> {
        self.len = self.len.checked_sub(1)?;
        Some(self.pages[self.len])
    }
}

impl BTree {
    /// Create a new empty tree, recording its root page in `anchor`.
    pub fn create(space: Arc<TableSpace>, anchor: usize) -> Result<Arc<Self>> {
        // A freshly formatted page is an empty leaf: count 0.
        let root = space.allocate(PageType::BTreeLeaf)?.pid().page;
        space.set_anchor(anchor, root)?;
        Ok(BTree::with_root(space, anchor, root))
    }

    /// Open a tree previously created in `space` at `anchor`.
    pub fn open(space: Arc<TableSpace>, anchor: usize) -> Result<Arc<Self>> {
        let root = space.anchor(anchor)?;
        if root == 0 {
            return Err(StorageError::Index(format!(
                "no B+tree at anchor {anchor} of space {}",
                space.id()
            )));
        }
        Ok(BTree::with_root(space, anchor, root))
    }

    fn with_root(space: Arc<TableSpace>, anchor: usize, root: u32) -> Arc<Self> {
        Arc::new(BTree {
            space,
            anchor,
            root: AtomicU32::new(root),
            latch: RwLock::new(()),
        })
    }

    /// The table space this tree lives in.
    pub fn space(&self) -> &Arc<TableSpace> {
        &self.space
    }

    /// The space anchor slot holding this tree's root page.
    pub fn anchor(&self) -> usize {
        self.anchor
    }

    /// Descend from the root to the leaf that covers `key`, recording the
    /// internal pages passed in `path`. Each level is read in place under
    /// its page's read latch.
    fn descend(&self, key: &[u8], mut path: Option<&mut Path>) -> Result<PageGuard> {
        let mut page_no = self.root.load(atomic::Ordering::Acquire);
        for depth in 0..MAX_HEIGHT {
            let g = self.space.fetch(page_no)?;
            let child = {
                let p = g.read();
                let node = Node::of(&p)?;
                if node.leaf {
                    None
                } else {
                    Some(node.route(key)?)
                }
            };
            match child {
                None => return Ok(g),
                Some(child) => {
                    if let Some(path) = path.as_deref_mut() {
                        path.pages[depth] = page_no;
                        path.len = depth + 1;
                    }
                    page_no = child;
                }
            }
        }
        Err(corrupt(&format!("descent passed {MAX_HEIGHT} levels")))
    }

    /// The leaf a `next_page` link names, `None` at the end of the chain.
    /// `hops` counts the links followed: a chain longer than the space has
    /// pages loops (a corrupt link).
    fn next_leaf(&self, next: u32, hops: &mut u32) -> Result<Option<PageGuard>> {
        if next == 0 {
            return Ok(None);
        }
        *hops += 1;
        if *hops > self.space.high_water()? {
            return Err(corrupt("the leaf chain loops"));
        }
        Ok(Some(self.space.fetch(next)?))
    }

    /// Exact-match lookup.
    pub fn search(&self, key: &[u8]) -> Result<Option<u64>> {
        let _g = self.latch.read();
        let leaf = self.descend(key, None)?;
        let p = leaf.read();
        let node = Node::leaf_of(&p)?;
        match node.find(key)? {
            (i, true) => Ok(Some(node.pair(i)?.1)),
            _ => Ok(None),
        }
    }

    /// Ceiling search: the smallest entry with key `>= key`, if any. This is
    /// the probe the NodeID index uses (§3.4): node IDs are mapped to the
    /// record whose interval *upper endpoint* is the first at-or-above the
    /// probe.
    pub fn search_ceil(&self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>> {
        let _g = self.latch.read();
        let mut leaf = self.descend(key, None)?;
        let mut hops = 0;
        loop {
            let next = {
                let p = leaf.read();
                let node = Node::leaf_of(&p)?;
                let (i, _) = node.find(key)?;
                if i < node.count {
                    let (k, v) = node.pair(i)?;
                    return Ok(Some((k.to_vec(), v)));
                }
                p.next_page()
            };
            match self.next_leaf(next, &mut hops)? {
                Some(g) => leaf = g,
                None => return Ok(None),
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
        let mut path = Path::new();
        let leaf = self.descend(key, Some(&mut path))?;
        let (mut sep, mut right) = {
            let mut p = leaf.write();
            let mut node = NodeMut::of(&mut p)?;
            let (i, exact) = node.view().find(key)?;
            if exact {
                return Ok(Some(node.replace_value(i, val)));
            }
            let tail = val.to_le_bytes();
            if node.insert(i, key, &tail) {
                return Ok(None);
            }
            self.split(&mut node, i, key, &tail)?
        };
        drop(leaf);
        // Post each split's separator into the parent, splitting upwards.
        while let Some(parent) = path.pop() {
            let g = self.space.fetch(parent)?;
            let mut p = g.write();
            let mut node = NodeMut::of(&mut p)?;
            let (i, exact) = node.view().find(&sep)?;
            if node.leaf || exact {
                return Err(corrupt(&format!("page {parent} cannot take a separator")));
            }
            let tail = right.to_le_bytes();
            if node.insert(i, &sep, &tail) {
                return Ok(None);
            }
            (sep, right) = self.split(&mut node, i, &sep, &tail)?;
        }
        // The root itself split: grow the tree by one level.
        let g = self.space.allocate(PageType::BTreeInternal)?;
        let new_root = g.pid().page;
        {
            let mut p = g.write();
            let mut node = NodeMut::of(&mut p)?;
            node.set_child0(self.root.load(atomic::Ordering::Acquire));
            node.insert_after_split(0, &sep, &right.to_le_bytes())?;
        }
        drop(g);
        self.space.set_anchor(self.anchor, new_root)?;
        self.root.store(new_root, atomic::Ordering::Release);
        Ok(None)
    }

    /// Split the full node `left` so that `key ‖ tail` goes in as its entry
    /// `i`. Returns the separator and the new right sibling for the parent.
    ///
    /// When the entry lands after every entry the node holds, the node keeps
    /// them all and the right sibling starts with the new entry; otherwise
    /// the split halves the bytes.
    fn split(
        &self,
        left: &mut NodeMut<'_>,
        i: usize,
        key: &[u8],
        tail: &[u8],
    ) -> Result<(Vec<u8>, u32)> {
        let count = left.count;
        let m = if i == count {
            count
        } else {
            left.view().split_point(i, key.len() + tail.len())
        };
        let ptype = if left.leaf {
            PageType::BTreeLeaf
        } else {
            PageType::BTreeInternal
        };
        let g = self.space.allocate(ptype)?;
        let right_no = g.pid().page;
        let mut rp = g.write();
        let mut right = NodeMut::of(&mut rp)?;
        if left.leaf {
            // Entries `..m` of the sequence with the new entry stay left.
            if i < m {
                left.move_tail(m - 1, &mut right);
                left.insert_after_split(i, key, tail)?;
            } else {
                left.move_tail(m, &mut right);
                right.insert_after_split(i - m, key, tail)?;
            }
            right.page.set_next_page(left.page.next_page());
            left.page.set_next_page(right_no);
            return Ok((right.view().key(0)?.to_vec(), right_no));
        }
        // Internal: entry `m` of the sequence with the new entry moves up to
        // the parent, and its child becomes the right node's child0.
        if i == m {
            left.move_tail(m, &mut right);
            right.set_child0(u32::from_le_bytes(tail.try_into().unwrap()));
            return Ok((key.to_vec(), right_no));
        }
        let up = if i < m { m - 1 } else { m };
        let sep = left.view().key(up)?.to_vec();
        right.set_child0(left.view().child(up + 1)?);
        left.move_tail(up + 1, &mut right);
        left.set_count(up);
        if i < m {
            left.insert_after_split(i, key, tail)?;
        } else {
            right.insert_after_split(i - m - 1, key, tail)?;
        }
        Ok((sep, right_no))
    }

    /// Delete an exact key. Returns the removed value, `None` when absent.
    /// Deletion is lazy: nodes are never merged.
    pub fn delete(&self, key: &[u8]) -> Result<Option<u64>> {
        let _g = self.latch.write();
        let leaf = self.descend(key, None)?;
        // Look first, so that a miss leaves the page clean.
        let (i, val) = {
            let p = leaf.read();
            let node = Node::leaf_of(&p)?;
            match node.find(key)? {
                (i, true) => (i, node.pair(i)?.1),
                _ => return Ok(None),
            }
        };
        let mut p = leaf.write();
        NodeMut::of(&mut p)?.remove(i);
        Ok(Some(val))
    }

    /// Range scan from `start` (inclusive): collect entries while `take`
    /// returns `true`; stop at the first entry it rejects.
    pub fn scan_from(&self, start: &[u8], mut take: impl FnMut(&[u8], u64) -> bool) -> Result<()> {
        let _g = self.latch.read();
        let mut leaf = self.descend(start, None)?;
        let (mut first, mut hops) = (true, 0);
        loop {
            let next = {
                let p = leaf.read();
                let node = Node::leaf_of(&p)?;
                let from = if first { node.find(start)?.0 } else { 0 };
                first = false;
                for i in from..node.count {
                    let (k, v) = node.pair(i)?;
                    if !take(k, v) {
                        return Ok(());
                    }
                }
                p.next_page()
            };
            match self.next_leaf(next, &mut hops)? {
                Some(g) => leaf = g,
                None => return Ok(()),
            }
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

    /// Levels from the root to the leaves (1 while the root is a leaf), for
    /// size reports.
    pub fn height(&self) -> Result<usize> {
        let _g = self.latch.read();
        let mut page_no = self.root.load(atomic::Ordering::Acquire);
        for height in 1..=MAX_HEIGHT {
            let g = self.space.fetch(page_no)?;
            let p = g.read();
            let node = Node::of(&p)?;
            if node.leaf {
                return Ok(height);
            }
            page_no = node.child(0)?;
        }
        Err(corrupt(&format!("descent passed {MAX_HEIGHT} levels")))
    }

    /// Number of pages the tree occupies (internal + leaf), for size reports.
    pub fn page_count(&self) -> Result<u64> {
        let _g = self.latch.read();
        let limit = u64::from(self.space.high_water()?);
        let mut pages = 0u64;
        let mut stack = vec![self.root.load(atomic::Ordering::Acquire)];
        while let Some(page_no) = stack.pop() {
            pages += 1;
            if pages > limit {
                return Err(corrupt("child links loop"));
            }
            let g = self.space.fetch(page_no)?;
            let p = g.read();
            let node = Node::of(&p)?;
            if !node.leaf {
                for slot in 0..=node.count {
                    stack.push(node.child(slot)?);
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
    use proptest::prelude::*;

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

    /// Entries of `key_len`-byte keys that fit in one leaf.
    fn leaf_capacity(key_len: usize) -> usize {
        (PAGE_SIZE - COUNT - 2) / (2 + key_len + 8)
    }

    #[test]
    fn ascending_load_fills_every_node() {
        let t = tree();
        let n = 20_000u64;
        for i in 0..n {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        // Append splits leave every leaf but the last full, plus one root.
        let leaves = (n as usize).div_ceil(leaf_capacity(8)) as u64;
        assert_eq!(t.page_count().unwrap(), leaves + 1);
        for i in (0..n).step_by(7) {
            assert_eq!(t.search(&i.to_be_bytes()).unwrap(), Some(i));
        }
        // A descending load still splits in the middle.
        let d = tree();
        for i in (0..n).rev() {
            d.insert(&i.to_be_bytes(), i).unwrap();
        }
        let pages = d.page_count().unwrap();
        assert!(pages > leaves * 3 / 2, "{pages} pages");
        assert_eq!(d.len().unwrap(), n);
    }

    #[test]
    fn full_nodes_of_max_size_keys_split_to_fit() {
        // Big and small keys mixed in every order: each split leaves both
        // halves able to take the entry going in.
        let t = tree();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..600u32 {
            let len = if i % 3 == 0 {
                MAX_KEY_SIZE
            } else {
                1 + i as usize % 7
            };
            let mut k = vec![(i.wrapping_mul(37) % 251) as u8; len];
            k.extend_from_slice(&i.to_be_bytes());
            k.truncate(MAX_KEY_SIZE);
            t.insert(&k, u64::from(i)).unwrap();
            model.insert(k, u64::from(i));
        }
        let mut got = Vec::new();
        t.scan_all(|k, v| {
            got.push((k.to_vec(), v));
            true
        })
        .unwrap();
        assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    }

    /// Copies of every page of a space, to undo what an operation on a
    /// corrupt page did.
    fn snapshot(space: &TableSpace) -> Vec<[u8; PAGE_SIZE]> {
        (0..space.high_water().unwrap())
            .map(|p| *space.fetch(p).unwrap().read().bytes())
            .collect()
    }

    fn restore(space: &TableSpace, pages: &[[u8; PAGE_SIZE]]) {
        for (p, bytes) in pages.iter().enumerate() {
            *space.fetch(p as u32).unwrap().write().bytes_mut() = *bytes;
        }
    }

    proptest! {
        // Each case runs five operations per changed byte of two pages:
        // four byte values per position in debug builds, all 255 in release.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 2 } else { 4 }))]

        #[test]
        fn corrupt_nodes_fail_cleanly(
            keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 250..400),
            pick in any::<usize>(),
        ) {
            let pool = BufferPool::new(256);
            let space = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
            let t = BTree::create(Arc::clone(&space), 2).unwrap();
            for (i, k) in keys.iter().enumerate() {
                t.insert(k, i as u64).unwrap();
            }
            let probe = keys[pick % keys.len()].clone();
            let mut big = probe.clone();
            big.resize(MAX_KEY_SIZE, 0x5a);
            let root = t.root.load(atomic::Ordering::Acquire);
            let leaf = t.descend(&probe, None).unwrap().pid().page;
            prop_assert!(root != leaf, "the tree must have an internal root");
            let pages = snapshot(&space);
            let deltas: Vec<u8> = if cfg!(debug_assertions) {
                vec![1, 0x7f, 0x80, 0xff]
            } else {
                (1..=255).collect()
            };
            let clean = |what: &str, r: Result<()>| match r {
                Ok(()) | Err(StorageError::Corrupt(_)) => Ok(()),
                Err(e) => Err(TestCaseError::fail(format!("{what}: {e:?}"))),
            };
            for page in [root, leaf] {
                for at in 0..PAGE_SIZE {
                    for &delta in &deltas {
                        let mut image = pages[page as usize];
                        image[at] = image[at].wrapping_add(delta);
                        // An image with an unknown page type is refused
                        // when it is read, so the pool never holds one.
                        if Page::from_bytes(&image).is_err() {
                            continue;
                        }
                        *space.fetch(page).unwrap().write().bytes_mut() = image;
                        let t = BTree::open(Arc::clone(&space), 2).unwrap();
                        clean("search", t.search(&probe).map(drop))?;
                        clean("search_ceil", t.search_ceil(&probe).map(drop))?;
                        let mut n = 0;
                        clean("scan_from", t.scan_from(&probe, |_, _| {
                            n += 1;
                            n < 600
                        }))?;
                        clean("insert", t.insert(&big, 1).map(drop))?;
                        clean("delete", t.delete(&probe).map(drop))?;
                        restore(&space, &pages);
                    }
                }
            }
            // The restored tree answers as before.
            let t = BTree::open(space, 2).unwrap();
            prop_assert!(t.search(&probe).unwrap().is_some());
            prop_assert_eq!(t.len().unwrap(), keys.iter().collect::<std::collections::BTreeSet<_>>().len() as u64);
        }
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
