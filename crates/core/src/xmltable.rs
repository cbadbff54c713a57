//! The internal XML table and its NodeID index (§3.1, Fig. 2).
//!
//! "An internal table space is created for each XML column in a base table.
//! The internal XML table is a table that has three columns (DocID,
//! minNodeID, XMLData) … A NodeID index is created on each XML table to map a
//! logical node ID to its physical record ID (RID). For each contiguous
//! interval of node IDs for nodes within a record in document order, only one
//! entry is in the node ID index, which is the upper end point of the node ID
//! interval."
//!
//! Rows of the internal table are ordinary heap records `(DocID, minNodeID,
//! XMLData)`; the NodeID index is an ordinary B+tree with keys
//! `(DocID big-endian, NodeID bytes)` — both live entirely on the relational
//! infrastructure, which is the paper's point.
//!
//! [`XmlTable`] owns both formats, the way a relational access method owns
//! its index: every other module locates, scans, reads and deletes records
//! through it, speaks of entries as `(DocID, interval upper, RID)`, and reads
//! rows as [`LoadedRecord`]s (DESIGN.md §17).

use crate::doccache::DocCache;
use crate::error::{EngineError, Result};
use crate::pack::{read_header, PackedRecord, RecordHeader};
use rx_storage::codec::{Dec, Enc};
use rx_storage::{BTree, HeapTable, Rid, TableSpace, Txn};
use rx_xml::nodeid::NodeId;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Document identifier (the implicit DocID column of §3.1).
pub type DocId = u64;

/// Anchor slot within the XML table's space where the NodeID index root
/// lives (slots 0/1 belong to the heap).
pub const NODEID_INDEX_ANCHOR: usize = 2;

/// Encode a NodeID-index key: `(DocID BE, NodeID bytes)`. Big-endian DocID
/// keeps keys of one document contiguous and ordered. `node` may be any
/// probe, not only a well-formed node ID.
fn nodeid_key(doc: DocId, node: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(8 + node.len());
    k.extend_from_slice(&doc.to_be_bytes());
    k.extend_from_slice(node);
    k
}

/// Split a NodeID-index key into its DocID and interval upper.
fn decode_nodeid_key(key: &[u8]) -> Option<(DocId, &[u8])> {
    let (doc, upper) = key.split_first_chunk::<8>()?;
    Some((DocId::from_be_bytes(*doc), upper))
}

/// The smallest node ID strictly after the whole subtree rooted at `id`
/// (used to continue range-proxy resolution past a consumed subtree, and for
/// next-sibling skipping across records, §3.4).
pub fn subtree_successor(id: &[u8]) -> Vec<u8> {
    let mut b = id.to_vec();
    if let Some(last) = b.last_mut() {
        *last += 1; // node IDs end on an even byte <= 0xFE
    } else {
        // Successor of the document root: past everything in this document.
        b.push(0xFF);
    }
    b
}

fn encode_row(doc: DocId, min_node: &NodeId, data: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(16 + data.len());
    e.u64(doc);
    e.bytes(min_node.as_bytes());
    e.bytes(data);
    e.into_bytes()
}

/// The byte range of an encoded row's XMLData column.
fn row_data_range(rec: &[u8]) -> Result<Range<usize>> {
    let mut d = Dec::new(rec);
    d.u64()?; // doc
    d.bytes()?; // min_node
    let len = d.varint()? as usize;
    let start = d.pos();
    if start + len > rec.len() {
        return Err(EngineError::Record(
            "row data range past end of record".into(),
        ));
    }
    Ok(start..start + len)
}

/// One row of the internal table, read into shareable form: its RID, the
/// row image (a single copy out of the latched page), the byte range of its
/// XMLData payload, and the parsed record header. Cloning is three pointer
/// copies. Cached and cold traversals and sub-document updates all read
/// records as this one type.
#[derive(Clone)]
pub struct LoadedRecord {
    rid: Rid,
    row: Arc<[u8]>,
    data: Range<usize>,
    header: Arc<RecordHeader>,
}

impl LoadedRecord {
    fn decode(rid: Rid, row: Arc<[u8]>) -> Result<LoadedRecord> {
        let data = row_data_range(&row)?;
        let header = Arc::new(read_header(&row[data.clone()])?);
        Ok(LoadedRecord {
            rid,
            row,
            data,
            header,
        })
    }

    /// Where the row lives.
    pub fn rid(&self) -> Rid {
        self.rid
    }

    /// The DocID column.
    pub fn doc(&self) -> DocId {
        // `decode` has read the row's fixed-width DocID column.
        DocId::from_le_bytes(self.row[..8].try_into().expect("8-byte DocID"))
    }

    /// The minNodeID column: the smallest node ID stored in the record.
    pub(crate) fn min_node(&self) -> &[u8] {
        Dec::new(&self.row[8..])
            .bytes()
            .expect("`decode` has read the minNodeID column")
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
    pub(crate) fn cost(&self) -> usize {
        self.row.len() + std::mem::size_of::<RecordHeader>() + 64
    }
}

/// A NodeID-index entry found by [`XmlTable::locate`].
pub struct Located {
    key: Vec<u8>,
    /// The record the entry names.
    pub rid: Rid,
}

impl Located {
    /// The upper end of the entry's node-ID interval.
    pub fn upper(&self) -> &[u8] {
        decode_nodeid_key(&self.key).map_or(&[], |(_, upper)| upper)
    }
}

/// Root records of a candidate list, located by
/// [`XmlTable::locate_roots`]: per candidate, the interval upper and RID of
/// its first NodeID-index entry. Reusable across lists.
#[derive(Default)]
pub struct LocatedRoots {
    /// The located entries' interval uppers, concatenated.
    uppers: Vec<u8>,
    /// Per candidate, in order: its upper (a range of `uppers`) and RID.
    roots: Vec<Option<(Range<usize>, Rid)>>,
}

impl LocatedRoots {
    /// The root entry located for the `i`th candidate: `(upper, rid)`.
    pub fn get(&self, i: usize) -> Option<(&[u8], Rid)> {
        let (upper, rid) = self.roots.get(i)?.as_ref()?;
        Some((&self.uppers[upper.clone()], *rid))
    }

    /// Number of candidates the last scan answered for.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when the last scan answered for no candidate.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// The internal XML table: heap of packed records + NodeID index, sharing
/// one table space.
pub struct XmlTable {
    heap: Arc<HeapTable>,
    nodeid_index: Arc<BTree>,
    space_id: u32,
    /// Record-edit latch: §5.2 notes that "a group of nodes form a record",
    /// so two transactions holding X locks on *disjoint subtrees* may still
    /// need to rewrite the *same* packed record. This short latch makes each
    /// read-modify-write of a record atomic ("record level consistency");
    /// it is held only for the duration of one edit, unlike the subtree
    /// locks, which are held to commit.
    edit_latch: parking_lot::Mutex<()>,
    /// The database's document record cache, when this table belongs to a
    /// [`crate::db::Database`] with `doc_cache_bytes > 0`. Every mutator
    /// evicts the document's snapshot before any uncommitted byte lands in
    /// the heap; the writer's X or IX lock keeps it out until the writer
    /// ends (DESIGN.md §11.2).
    doc_cache: OnceLock<Arc<DocCache>>,
}

impl XmlTable {
    /// Create the heap and NodeID index in `space`.
    pub fn create(space: Arc<TableSpace>) -> Result<XmlTable> {
        let space_id = space.id();
        let heap = HeapTable::create(space.clone())?;
        let nodeid_index = BTree::create(space, NODEID_INDEX_ANCHOR)?;
        Ok(XmlTable {
            heap,
            nodeid_index,
            space_id,
            edit_latch: parking_lot::Mutex::new(()),
            doc_cache: OnceLock::new(),
        })
    }

    /// Open an existing XML table.
    pub fn open(space: Arc<TableSpace>) -> Result<XmlTable> {
        let space_id = space.id();
        let heap = HeapTable::open(space.clone())?;
        let nodeid_index = BTree::open(space, NODEID_INDEX_ANCHOR)?;
        Ok(XmlTable {
            heap,
            nodeid_index,
            space_id,
            edit_latch: parking_lot::Mutex::new(()),
            doc_cache: OnceLock::new(),
        })
    }

    /// The table space id (for WAL records and recovery wiring).
    pub fn space_id(&self) -> u32 {
        self.space_id
    }

    /// The record heap.
    pub fn heap(&self) -> &Arc<HeapTable> {
        &self.heap
    }

    /// The NodeID index.
    pub fn nodeid_index(&self) -> &Arc<BTree> {
        &self.nodeid_index
    }

    /// Acquire the record-edit latch for one read-modify-write cycle.
    pub fn edit_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.edit_latch.lock()
    }

    /// Attach the database's document record cache. First attachment wins;
    /// tables constructed outside a [`crate::db::Database`] never have one
    /// and always take the cold read path.
    pub fn set_doc_cache(&self, cache: Arc<DocCache>) {
        let _ = self.doc_cache.set(cache);
    }

    /// The attached document record cache, if any.
    pub fn doc_cache(&self) -> Option<&Arc<DocCache>> {
        self.doc_cache.get()
    }

    /// Evict `doc`'s cached snapshot *before* a mutation's bytes reach the
    /// heap. No snapshot can be published again while the mutating
    /// transaction holds its X or IX lock on the document, since publishing
    /// needs an S lock.
    fn touch_cache(&self, doc: DocId) {
        if let Some(cache) = self.doc_cache.get() {
            cache.evict(self.space_id, doc);
        }
    }

    /// Store one packed record of document `doc`, maintaining the NodeID
    /// index. Returns the record's RID.
    pub fn insert_record(&self, txn: &Txn, doc: DocId, rec: &PackedRecord) -> Result<Rid> {
        self.touch_cache(doc);
        let row = encode_row(doc, &rec.min_id, &rec.bytes);
        let rid = txn.heap_insert(&self.heap, row)?;
        for upper in &rec.interval_uppers {
            let key = nodeid_key(doc, upper.as_bytes());
            txn.index_insert(&self.nodeid_index, key, rid.to_u64())?;
        }
        Ok(rid)
    }

    /// Read the record at `rid`.
    pub fn read(&self, rid: Rid) -> Result<LoadedRecord> {
        LoadedRecord::decode(rid, self.heap.fetch_arc(rid)?)
    }

    /// The §3.4 ceiling probe: the first NodeID-index entry of `doc` whose
    /// interval upper is at or above `probe`, which names the record holding
    /// node `probe` when that node exists. `probe` need not be a well-formed
    /// node ID (a subtree successor, say); the empty probe `(docid, 00)`
    /// finds the root record.
    pub fn locate(&self, doc: DocId, probe: &[u8]) -> Result<Option<Located>> {
        match self.nodeid_index.search_ceil(&nodeid_key(doc, probe))? {
            Some((key, rid)) if key.starts_with(&doc.to_be_bytes()) => Ok(Some(Located {
                key,
                rid: Rid::from_u64(rid),
            })),
            _ => Ok(None),
        }
    }

    /// The one bounded interval scan of the NodeID index: visit, in key
    /// order, the entries `(doc, upper, rid)` from `from` (inclusive) up to
    /// `to` (exclusive) until `visit` returns `false`. `to = (doc, None)`
    /// runs through the end of document `doc`. The scan holds the tree
    /// latch, so `visit` only collects.
    pub fn scan(
        &self,
        from: (DocId, &[u8]),
        to: (DocId, Option<&[u8]>),
        mut visit: impl FnMut(DocId, &[u8], Rid) -> bool,
    ) -> Result<()> {
        let start = nodeid_key(from.0, from.1);
        Ok(self.nodeid_index.scan_from(&start, |key, rid| {
            let Some((doc, upper)) = decode_nodeid_key(key) else {
                return true;
            };
            let past = match to {
                (end, Some(hi)) => (doc, upper) >= (end, hi),
                (end, None) => doc > end,
            };
            !past && visit(doc, upper, Rid::from_u64(rid))
        })?)
    }

    /// Locate the root record of every document of `docs` (ascending
    /// DocIDs) with one scan of the NodeID index over the window
    /// `[docs[0], docs[last]]`, the way a relational scan walks its
    /// clustered index once. The first entry with a document's DocID is the
    /// ceiling of `(docid, 00)`: the entry the §3.4 root probe
    /// `locate(docid, &[])` returns. Documents without an entry (and any not
    /// in ascending order) get `None`. The scan only collects; nothing is
    /// fetched under the tree latch.
    pub fn locate_roots(&self, docs: &[DocId], out: &mut LocatedRoots) -> Result<()> {
        out.uppers.clear();
        out.roots.clear();
        let (Some(&first), Some(&last)) = (docs.first(), docs.iter().max()) else {
            return Ok(());
        };
        let mut next = 0;
        self.scan((first, &[]), (last, None), |doc, upper, rid| {
            while next < docs.len() && docs[next] < doc {
                out.roots.push(None);
                next += 1;
            }
            if next < docs.len() && docs[next] == doc {
                let range = out.uppers.len()..out.uppers.len() + upper.len();
                out.uppers.extend_from_slice(upper);
                while next < docs.len() && docs[next] == doc {
                    out.roots.push(Some((range.clone(), rid)));
                    next += 1;
                }
            }
            next < docs.len()
        })?;
        out.roots.resize(docs.len(), None);
        Ok(())
    }

    /// Delete the NodeID-index entries of `doc` whose upper lies in `[lo,
    /// hi)` (`None`: through the document's end), and each record they
    /// name, once. The caller vouches that no entry outside the span names
    /// those records. Returns the number of records deleted.
    pub(crate) fn delete_span(
        &self,
        txn: &Txn,
        doc: DocId,
        lo: &[u8],
        hi: Option<&[u8]>,
    ) -> Result<u64> {
        self.touch_cache(doc);
        // Collect first: the scan holds the tree latch.
        let mut doomed: Vec<(Vec<u8>, Rid)> = Vec::new();
        self.scan((doc, lo), (doc, hi), |_, upper, rid| {
            doomed.push((nodeid_key(doc, upper), rid));
            true
        })?;
        let mut deleted = HashSet::with_capacity(doomed.len());
        for (key, rid) in doomed {
            txn.index_delete(&self.nodeid_index, key)?;
            if deleted.insert(rid) {
                txn.heap_delete(&self.heap, rid)?;
            }
        }
        Ok(deleted.len() as u64)
    }

    /// Delete every record and NodeID-index entry of document `doc`.
    pub fn delete_document(&self, txn: &Txn, doc: DocId) -> Result<()> {
        self.delete_span(txn, doc, &[], None).map(drop)
    }

    /// Delete the record at `rid`, whose NodeID-index entries are `uppers`.
    pub(crate) fn delete_record(
        &self,
        txn: &Txn,
        doc: DocId,
        rid: Rid,
        uppers: &[NodeId],
    ) -> Result<()> {
        self.delete_uppers(txn, doc, uppers)?;
        txn.heap_delete(&self.heap, rid)?;
        Ok(())
    }

    /// Remove a set of NodeID-index entries (stale interval uppers of a
    /// record about to be rewritten). Logged and undoable.
    pub fn delete_uppers(&self, txn: &Txn, doc: DocId, uppers: &[NodeId]) -> Result<()> {
        self.touch_cache(doc);
        for upper in uppers {
            txn.index_delete(&self.nodeid_index, nodeid_key(doc, upper.as_bytes()))?;
        }
        Ok(())
    }

    /// Replace the packed record at `rid` (sub-document update path). A
    /// record that no longer fits its page moves; its current NodeID-index
    /// entries are written with its new RID. Entries that no longer name it
    /// are the caller's to delete.
    pub fn update_record(
        &self,
        txn: &Txn,
        doc: DocId,
        rid: Rid,
        rec: &PackedRecord,
    ) -> Result<Rid> {
        self.touch_cache(doc);
        let row = encode_row(doc, &rec.min_id, &rec.bytes);
        let new_rid = txn.heap_update(&self.heap, rid, row)?;
        for upper in &rec.interval_uppers {
            let key = nodeid_key(doc, upper.as_bytes());
            txn.index_insert(&self.nodeid_index, key, new_rid.to_u64())?;
        }
        Ok(new_rid)
    }

    /// Storage statistics: (heap pages, heap records, heap record bytes,
    /// NodeID-index entries, NodeID-index pages).
    pub fn stats(&self) -> Result<(u64, u64, u64, u64, u64)> {
        let h = self.heap.stats()?;
        let entries = self.nodeid_index.len()?;
        let ipages = self.nodeid_index.page_count()?;
        Ok((h.pages, h.records, h.record_bytes, entries, ipages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{NoObserver, Packer};
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{BufferPool, LockManager, MemBackend, TxnManager};
    use rx_xml::name::NameDict;
    use rx_xml::parser::Parser;

    fn setup() -> (XmlTable, Arc<TxnManager>) {
        let pool = BufferPool::new(512);
        let space = TableSpace::create(pool, 10, Arc::new(MemBackend::new())).unwrap();
        let xt = XmlTable::create(space).unwrap();
        let txns = TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        );
        (xt, txns)
    }

    fn pack(input: &str, dict: &NameDict) -> Vec<PackedRecord> {
        let mut records = Vec::new();
        let mut obs = NoObserver;
        let mut p = Packer::with_target(600, &mut records, &mut obs);
        Parser::new(dict).parse(input, &mut p).unwrap();
        p.finish().unwrap();
        records
    }

    #[test]
    fn insert_and_locate() {
        let (xt, txns) = setup();
        let dict = NameDict::new();
        let filler = "y".repeat(300);
        let doc = format!("<a><b>{filler}</b><c>{filler}</c><d>tail</d></a>");
        let records = pack(&doc, &dict);
        assert!(records.len() >= 2);
        let txn = txns.begin().unwrap();
        for r in &records {
            xt.insert_record(&txn, 7, r).unwrap();
        }
        txn.commit().unwrap();

        // The root element (02) must be locatable.
        let root = NodeId::from_bytes(&[0x02]).unwrap();
        let found = xt.locate(7, root.as_bytes()).unwrap().unwrap();
        assert_eq!(
            found.upper(),
            records.last().unwrap().interval_uppers[0].as_bytes()
        );
        let rec = xt.read(found.rid).unwrap();
        assert_eq!((rec.doc(), rec.rid()), (7, found.rid));
        // An unknown document yields nothing.
        assert!(xt.locate(99, root.as_bytes()).unwrap().is_none());
        // A scan of the document's entries names every record.
        let mut rids = HashSet::new();
        xt.scan((7, &[]), (7, None), |_, _, rid| {
            rids.insert(rid);
            true
        })
        .unwrap();
        assert_eq!(rids.len(), records.len());
    }

    #[test]
    fn rollback_undoes_insert() {
        let (xt, txns) = setup();
        let dict = NameDict::new();
        let records = pack("<a><b>hello</b></a>", &dict);
        let txn = txns.begin().unwrap();
        for r in &records {
            xt.insert_record(&txn, 1, r).unwrap();
        }
        txn.rollback().unwrap();
        let root = NodeId::from_bytes(&[0x02]).unwrap();
        assert!(xt.locate(1, root.as_bytes()).unwrap().is_none());
        assert_eq!(xt.nodeid_index.len().unwrap(), 0);
        assert_eq!(xt.heap.stats().unwrap().records, 0);
    }

    #[test]
    fn delete_document_cleans_everything() {
        let (xt, txns) = setup();
        let dict = NameDict::new();
        let filler = "z".repeat(250);
        let doc = format!("<a><b>{filler}</b><c>{filler}</c></a>");
        for docid in 1..=3u64 {
            let txn = txns.begin().unwrap();
            for r in &pack(&doc, &dict) {
                xt.insert_record(&txn, docid, r).unwrap();
            }
            txn.commit().unwrap();
        }
        let before_entries = xt.nodeid_index.len().unwrap();
        let txn = txns.begin().unwrap();
        xt.delete_document(&txn, 2).unwrap();
        txn.commit().unwrap();
        let root = NodeId::from_bytes(&[0x02]).unwrap();
        assert!(xt.locate(2, root.as_bytes()).unwrap().is_none());
        assert!(xt.locate(1, root.as_bytes()).unwrap().is_some());
        assert!(xt.locate(3, root.as_bytes()).unwrap().is_some());
        assert_eq!(xt.nodeid_index.len().unwrap(), before_entries / 3 * 2);
    }

    #[test]
    fn multiple_documents_do_not_interfere() {
        let (xt, txns) = setup();
        let dict = NameDict::new();
        let txn = txns.begin().unwrap();
        for docid in [5u64, 6, 7] {
            let doc = format!("<d><v>{docid}</v></d>");
            for r in &pack(&doc, &dict) {
                xt.insert_record(&txn, docid, r).unwrap();
            }
        }
        txn.commit().unwrap();
        for docid in [5u64, 6, 7] {
            let root = NodeId::from_bytes(&[0x02]).unwrap();
            let rid = xt.locate(docid, root.as_bytes()).unwrap().unwrap().rid;
            assert_eq!(xt.read(rid).unwrap().doc(), docid);
        }
    }

    #[test]
    fn subtree_successor_skips_descendants() {
        let id = NodeId::from_bytes(&[0x02, 0x04]).unwrap();
        let succ = subtree_successor(id.as_bytes());
        assert_eq!(succ, vec![0x02, 0x05]);
        // Every descendant of 0204 starts with [02, 04] < [02, 05].
        let deep = NodeId::from_bytes(&[0x02, 0x04, 0xFF, 0xFE]).unwrap();
        assert!(deep.as_bytes() < succ.as_slice());
        // The next sibling 0206 is >= the successor.
        assert!([0x02u8, 0x06].as_slice() >= succ.as_slice());
    }
}
