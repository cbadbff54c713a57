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

use crate::doccache::DocCache;
use crate::error::Result;
use crate::pack::PackedRecord;
use rx_storage::codec::{Dec, Enc};
use rx_storage::{BTree, HeapTable, Rid, TableSpace, Txn};
use rx_xml::nodeid::NodeId;
use std::sync::{Arc, OnceLock};

/// Document identifier (the implicit DocID column of §3.1).
pub type DocId = u64;

/// Anchor slot within the XML table's space where the NodeID index root
/// lives (slots 0/1 belong to the heap).
pub const NODEID_INDEX_ANCHOR: usize = 2;

/// Encode a NodeID-index key: `(DocID BE, NodeID bytes)`. Big-endian DocID
/// keeps keys of one document contiguous and ordered.
pub fn nodeid_key(doc: DocId, node: &NodeId) -> Vec<u8> {
    let mut k = Vec::with_capacity(8 + node.as_bytes().len());
    k.extend_from_slice(&doc.to_be_bytes());
    k.extend_from_slice(node.as_bytes());
    k
}

/// Decode a NodeID-index key.
pub fn decode_nodeid_key(key: &[u8]) -> Option<(DocId, NodeId)> {
    if key.len() < 8 {
        return None;
    }
    let doc = DocId::from_be_bytes(key[..8].try_into().ok()?);
    Some((doc, NodeId::from_bytes_unchecked(key[8..].to_vec())))
}

/// The smallest node ID strictly after the whole subtree rooted at `id`
/// (used to continue range-proxy resolution past a consumed subtree, and for
/// next-sibling skipping across records, §3.4).
pub fn subtree_successor(id: &NodeId) -> Vec<u8> {
    let mut b = id.as_bytes().to_vec();
    if let Some(last) = b.last_mut() {
        *last += 1; // node IDs end on an even byte <= 0xFE
    } else {
        // Successor of the document root: past everything in this document.
        b.push(0xFF);
    }
    b
}

/// A stored row of the internal XML table.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlRow {
    /// Owning document.
    pub doc: DocId,
    /// Clustering minor key.
    pub min_node: NodeId,
    /// The packed record image.
    pub data: Vec<u8>,
}

fn encode_row(doc: DocId, min_node: &NodeId, data: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(16 + data.len());
    e.u64(doc);
    e.bytes(min_node.as_bytes());
    e.bytes(data);
    e.into_bytes()
}

/// Decode an XML-table row.
pub fn decode_row(rec: &[u8]) -> Result<XmlRow> {
    let mut d = Dec::new(rec);
    let doc = d.u64()?;
    let min_node = NodeId::from_bytes_unchecked(d.bytes()?.to_vec());
    let data = d.bytes()?.to_vec();
    Ok(XmlRow {
        doc,
        min_node,
        data,
    })
}

/// Root records of a candidate list, located by
/// [`XmlTable::locate_roots`]: per candidate, the interval upper and RID of
/// its first NodeID-index entry. Reusable across lists.
#[derive(Default)]
pub struct LocatedRoots {
    /// The located entries' interval uppers, concatenated.
    uppers: Vec<u8>,
    /// Per candidate, in order: its upper (a range of `uppers`) and RID.
    roots: Vec<Option<(std::ops::Range<usize>, Rid)>>,
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
            txn.index_insert(&self.nodeid_index, nodeid_key(doc, upper), rid.to_u64())?;
        }
        Ok(rid)
    }

    /// Fetch and decode the record at `rid`.
    pub fn fetch(&self, rid: Rid) -> Result<XmlRow> {
        let rec = self.heap.fetch(rid)?;
        decode_row(&rec)
    }

    /// Find the RID of the record containing `node` of `doc`: a ceiling probe
    /// for the first interval upper endpoint at-or-above the node ID (§3.4).
    pub fn locate(&self, doc: DocId, node: &NodeId) -> Result<Option<Rid>> {
        let probe = nodeid_key(doc, node);
        match self.nodeid_index.search_ceil(&probe)? {
            Some((key, rid)) if key.starts_with(&doc.to_be_bytes()) => Ok(Some(Rid::from_u64(rid))),
            _ => Ok(None),
        }
    }

    /// Like [`XmlTable::locate`] but probing with raw key bytes at-or-above a
    /// subtree successor (which may not itself be a well-formed node ID).
    pub fn locate_raw(&self, doc: DocId, node_bytes: &[u8]) -> Result<Option<(NodeId, Rid)>> {
        let mut probe = Vec::with_capacity(8 + node_bytes.len());
        probe.extend_from_slice(&doc.to_be_bytes());
        probe.extend_from_slice(node_bytes);
        match self.nodeid_index.search_ceil(&probe)? {
            Some((key, rid)) if key.starts_with(&doc.to_be_bytes()) => {
                let (_, upper) = decode_nodeid_key(&key).expect("well-formed index key");
                Ok(Some((upper, Rid::from_u64(rid))))
            }
            _ => Ok(None),
        }
    }

    /// Locate the root record of every document of `docs` (ascending
    /// DocIDs) with one range scan of the NodeID index over the window
    /// `[docs[0], docs[last]]`, the way a relational scan walks its
    /// clustered index once. Keys are `(DocID BE, upper)`, so the first entry
    /// with a document's DocID prefix is the ceiling of `(docid, 00)`: the
    /// entry the §3.4 root probe of [`XmlTable::locate_raw`] returns.
    /// Documents without an entry (and any not in ascending order) get
    /// `None`. The scan only collects; nothing is fetched under the tree
    /// latch.
    pub fn locate_roots(&self, docs: &[DocId], out: &mut LocatedRoots) -> Result<()> {
        out.uppers.clear();
        out.roots.clear();
        let Some(&first) = docs.first() else {
            return Ok(());
        };
        let mut next = 0;
        self.nodeid_index
            .scan_from(&first.to_be_bytes(), |key, rid| {
                let Some(doc) = key
                    .get(..8)
                    .map(|d| DocId::from_be_bytes(d.try_into().expect("8-byte DocID prefix")))
                else {
                    return true;
                };
                while next < docs.len() && docs[next] < doc {
                    out.roots.push(None);
                    next += 1;
                }
                if next < docs.len() && docs[next] == doc {
                    let upper = out.uppers.len()..out.uppers.len() + key.len() - 8;
                    out.uppers.extend_from_slice(&key[8..]);
                    while next < docs.len() && docs[next] == doc {
                        out.roots.push(Some((upper.clone(), Rid::from_u64(rid))));
                        next += 1;
                    }
                }
                next < docs.len()
            })?;
        out.roots.resize(docs.len(), None);
        Ok(())
    }

    /// All distinct RIDs of a document's records, in (doc, minNodeId) order.
    pub fn document_rids(&self, doc: DocId) -> Result<Vec<Rid>> {
        let mut rids = Vec::new();
        self.nodeid_index.scan_prefix(&doc.to_be_bytes(), |_, v| {
            let rid = Rid::from_u64(v);
            if !rids.contains(&rid) {
                rids.push(rid);
            }
            true
        })?;
        Ok(rids)
    }

    /// Delete every record and NodeID-index entry of document `doc`.
    pub fn delete_document(&self, txn: &Txn, doc: DocId) -> Result<()> {
        self.touch_cache(doc);
        // Collect entries first (scan holds the tree latch).
        let mut entries: Vec<(Vec<u8>, Rid)> = Vec::new();
        self.nodeid_index.scan_prefix(&doc.to_be_bytes(), |k, v| {
            entries.push((k.to_vec(), Rid::from_u64(v)));
            true
        })?;
        let mut deleted_rids: Vec<Rid> = Vec::new();
        for (key, rid) in entries {
            txn.index_delete(&self.nodeid_index, key)?;
            if !deleted_rids.contains(&rid) {
                txn.heap_delete(&self.heap, rid)?;
                deleted_rids.push(rid);
            }
        }
        Ok(())
    }

    /// Remove a set of NodeID-index entries (stale interval uppers of a
    /// record about to be rewritten). Logged and undoable.
    pub fn delete_uppers(&self, txn: &Txn, doc: DocId, uppers: &[NodeId]) -> Result<()> {
        self.touch_cache(doc);
        for upper in uppers {
            txn.index_delete(&self.nodeid_index, nodeid_key(doc, upper))?;
        }
        Ok(())
    }

    /// Replace the packed record at `rid` (sub-document update path). A
    /// record that no longer fits its page moves; the NodeID index entries
    /// are rewritten to its new RID.
    pub fn update_record(
        &self,
        txn: &Txn,
        doc: DocId,
        rid: Rid,
        rec: &PackedRecord,
        old_uppers: &[NodeId],
    ) -> Result<Rid> {
        self.touch_cache(doc);
        let row = encode_row(doc, &rec.min_id, &rec.bytes);
        let new_rid = txn.heap_update(&self.heap, rid, row)?;
        // Refresh index entries: remove stale uppers, install current ones.
        self.delete_uppers(txn, doc, old_uppers)?;
        for upper in &rec.interval_uppers {
            txn.index_insert(&self.nodeid_index, nodeid_key(doc, upper), new_rid.to_u64())?;
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
        let rid = xt.locate(7, &root).unwrap().unwrap();
        let row = xt.fetch(rid).unwrap();
        assert_eq!(row.doc, 7);
        // An unknown document yields nothing.
        assert!(xt.locate(99, &root).unwrap().is_none());
        // Document rid listing covers all records.
        assert_eq!(xt.document_rids(7).unwrap().len(), records.len());
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
        assert!(xt.locate(1, &root).unwrap().is_none());
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
        assert!(xt.locate(2, &root).unwrap().is_none());
        assert!(xt.locate(1, &root).unwrap().is_some());
        assert!(xt.locate(3, &root).unwrap().is_some());
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
            let rid = xt.locate(docid, &root).unwrap().unwrap();
            assert_eq!(xt.fetch(rid).unwrap().doc, docid);
        }
    }

    #[test]
    fn subtree_successor_skips_descendants() {
        let id = NodeId::from_bytes(&[0x02, 0x04]).unwrap();
        let succ = subtree_successor(&id);
        assert_eq!(succ, vec![0x02, 0x05]);
        // Every descendant of 0204 starts with [02, 04] < [02, 05].
        let deep = NodeId::from_bytes(&[0x02, 0x04, 0xFF, 0xFE]).unwrap();
        assert!(deep.as_bytes() < succ.as_slice());
        // The next sibling 0206 is >= the successor.
        assert!([0x02u8, 0x06].as_slice() >= succ.as_slice());
    }
}
