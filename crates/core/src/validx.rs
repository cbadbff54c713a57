//! XPath value indexes (§3.3), and full-text indexes as value indexes whose
//! keys are terms.
//!
//! "Users can create XPath value indexes on frequently searched elements or
//! attributes by specifying a simple XPath expression without predicates,
//! such as /catalog//productname, and a data type for the key values … A
//! value index entry contains (keyval, DocID, NodeID, RID), which can map a
//! key value to a logical ID (DocID, NodeID) or physical ID (RID) in the XML
//! table, or both. A simplified version of our streaming XPath algorithm
//! (QuickXScan) is used to evaluate the XPath on each record [here: on the
//! insertion event stream] … there may be zero, one or more index entries per
//! record."
//!
//! Entries live in the same B+tree infrastructure as relational indexes.
//! Keys are `escape(keyval) ++ DocID(BE) ++ NodeID`; the RID is the tree
//! value — so one index serves DocID-list, NodeID-list and RID access.
//!
//! The only per-kind decision is how a node's string value becomes key
//! values ([`IndexKeys`]): a typed index casts it to the declared type, and a
//! value that fails to cast produces no entry (§3.3's zero-entries case — the
//! paper's indexes are not "complete copies of the base data"); a terms index
//! (the §6 full-text extension, [`crate::fulltext`]) yields one key per
//! distinct term. Layout, key generation, logging, undo and recovery are
//! shared.

use crate::error::{EngineError, Result};
use crate::fulltext::tokenize;
use crate::pack::NodeObserver;
use crate::synopsis::SynopsisBuilder;
use crate::traverse::{IdEventSink, Traverser};
use crate::xmltable::{DocId, XmlTable};
use rx_storage::{BTree, Rid, TableSpace, Txn};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::NameDict;
use rx_xml::nodeid::NodeId;
use rx_xml::value::{encode_key, KeyType};
use rx_xpath::quickxscan::{QuickXScan, ResultItem};
use rx_xpath::{Path, QueryTree, XPathParser};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Anchor slot in the index's table space where the B+tree root lives.
pub const VALUE_INDEX_ANCHOR: usize = 0;

/// Escape-encode a variable-length key value so that appending the
/// fixed-width suffix preserves keyval-major ordering: `0x00` bytes become
/// `0x00 0xFF` and the value terminates with `0x00 0x00`.
pub fn escape_keyval(v: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() + 2);
    for &b in v {
        if b == 0x00 {
            out.push(0x00);
            out.push(0xFF);
        } else {
            out.push(b);
        }
    }
    out.push(0x00);
    out.push(0x00);
    out
}

/// The upper bound (exclusive) of all escaped keys beginning with keyval `v`:
/// `escape(v)` with the terminator bumped past any continuation.
pub fn escape_keyval_upper(v: &[u8]) -> Vec<u8> {
    let mut out = escape_keyval(v);
    let n = out.len();
    out[n - 1] = 0x01; // 0x00 0x01 sorts above the terminator 0x00 0x00 and
                       // below any escaped continuation byte 0x00 0xFF.
    out
}

/// A fully decoded value-index entry.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// The (unescaped, encoded) key value bytes.
    pub keyval: Vec<u8>,
    /// Owning document.
    pub doc: DocId,
    /// Logical node ID of the indexed node.
    pub node: NodeId,
    /// Physical record containing the node.
    pub rid: Rid,
}

fn encode_entry_key(keyval: &[u8], doc: DocId, node: &NodeId) -> Vec<u8> {
    let mut k = escape_keyval(keyval);
    k.extend_from_slice(&doc.to_be_bytes());
    k.extend_from_slice(node.as_bytes());
    k
}

fn decode_entry_key(key: &[u8]) -> Result<(Vec<u8>, DocId, NodeId)> {
    // Un-escape up to the 0x00 0x00 terminator.
    let mut keyval = Vec::new();
    let mut i = 0usize;
    loop {
        let b = *key
            .get(i)
            .ok_or_else(|| EngineError::Record("truncated value-index key".into()))?;
        if b == 0x00 {
            let n = *key
                .get(i + 1)
                .ok_or_else(|| EngineError::Record("truncated escape in index key".into()))?;
            i += 2;
            match n {
                0x00 => break,
                0xFF => keyval.push(0x00),
                other => {
                    return Err(EngineError::Record(format!(
                        "bad escape byte {other:#04x} in index key"
                    )))
                }
            }
        } else {
            keyval.push(b);
            i += 1;
        }
    }
    let doc_bytes = key
        .get(i..i + 8)
        .ok_or_else(|| EngineError::Record("index key missing DocID".into()))?;
    let doc = DocId::from_be_bytes(doc_bytes.try_into().unwrap());
    let node = NodeId::from_bytes_unchecked(key[i + 8..].to_vec());
    Ok((keyval, doc, node))
}

/// How an indexed node's string value becomes key values — the one thing
/// in which a full-text index differs from a typed value index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKeys {
    /// An XPath value index (§3.3): at most one key, the value cast to the
    /// declared type ([`encode_key`]).
    Typed(KeyType),
    /// A full-text index (§6): one key per distinct term of the value
    /// ([`tokenize`]). Terms are not values, so comparisons never use it.
    Terms,
}

impl IndexKeys {
    /// The encoded key values of a node whose string value is `value`.
    pub fn keyvals(self, value: &str) -> Vec<Vec<u8>> {
        match self {
            IndexKeys::Typed(t) => encode_key(t, value).into_iter().collect(),
            IndexKeys::Terms => tokenize(value)
                .into_iter()
                .map(String::into_bytes)
                .collect(),
        }
    }
}

/// Definition of an index (persisted in the catalog).
#[derive(Debug, Clone, PartialEq)]
pub struct ValueIndexDef {
    /// Index name.
    pub name: String,
    /// Source text of the index path (a simple path, §3.3).
    pub path_text: String,
    /// How node values become keys: a declared key type, or terms.
    pub keys: IndexKeys,
    /// Table space holding the B+tree.
    pub space_id: u32,
}

/// A live index: an XPath value index or a full-text index.
pub struct ValueIndex {
    /// Persistent definition.
    pub def: ValueIndexDef,
    /// Parsed index path.
    pub path: Path,
    /// Compiled query tree for key generation.
    pub tree: QueryTree,
    btree: Arc<BTree>,
    /// Set once some document has had more than one entry in this index
    /// (see [`ValueIndex::is_multi_valued`]). Monotone while the index is
    /// open: deletes and rollbacks never clear it.
    multi_valued: AtomicBool,
}

impl ValueIndex {
    /// Parse + validate an index path ("a simple XPath expression without
    /// predicates").
    pub fn parse_path(text: &str) -> Result<Path> {
        let path = XPathParser::new().parse(text)?;
        if !path.is_simple() {
            return Err(EngineError::Invalid(format!(
                "index path {text:?} must be a simple path without predicates"
            )));
        }
        Ok(path)
    }

    fn new(btree: Arc<BTree>, def: ValueIndexDef) -> Result<ValueIndex> {
        let path = Self::parse_path(&def.path_text)?;
        let tree = QueryTree::compile(&path)?;
        // A terms index is never range-intersected: call it multi-valued
        // from the start rather than deriving the flag.
        let multi_valued = AtomicBool::new(def.keys == IndexKeys::Terms);
        Ok(ValueIndex {
            def,
            path,
            tree,
            btree,
            multi_valued,
        })
    }

    /// Create the index structure in `space`.
    pub fn create(space: Arc<TableSpace>, def: ValueIndexDef) -> Result<ValueIndex> {
        Self::new(BTree::create(space, VALUE_INDEX_ANCHOR)?, def)
    }

    /// Open an existing index.
    pub fn open(space: Arc<TableSpace>, def: ValueIndexDef) -> Result<ValueIndex> {
        let vi = Self::new(BTree::open(space, VALUE_INDEX_ANCHOR)?, def)?;
        vi.recompute_multi_valued()?;
        Ok(vi)
    }

    /// True once some document may hold more than one entry in this index
    /// (always, for a terms index).
    /// While it is false, every document has at most one entry, so ANDed
    /// key ranges over this index select exactly the documents whose single
    /// entry lies in the intersection of the ranges (DESIGN.md §9.5).
    /// `Acquire` pairs with the `Release` store in [`Self::insert_entries`]:
    /// a reader that observes any entry of a multi-valued document through
    /// the B+tree latch also observes the flag.
    pub fn is_multi_valued(&self) -> bool {
        self.multi_valued.load(Ordering::Acquire)
    }

    /// Re-derive the multi-valued flag of a typed index from the stored
    /// entries: one scan that stops at the first DocID seen twice. Runs at
    /// open and again after crash recovery (which can redo or undo entries),
    /// when no transaction is active, so clearing the flag here is sound.
    pub(crate) fn recompute_multi_valued(&self) -> Result<()> {
        if self.def.keys == IndexKeys::Terms {
            return Ok(());
        }
        let mut seen = HashSet::new();
        let mut multi = false;
        let mut err = None;
        self.btree.scan_all(|k, _| match decode_entry_key(k) {
            Ok((_, doc, _)) => {
                multi = !seen.insert(doc);
                !multi
            }
            Err(e) => {
                err = Some(e);
                false
            }
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        self.multi_valued.store(multi, Ordering::Release);
        Ok(())
    }

    /// Insert the entries for `items` (QuickXScan results with node IDs) of
    /// document `doc`: one per key value [`IndexKeys::keyvals`] yields for
    /// the item. The RID of each node's record is resolved through the XML
    /// table's NodeID index.
    ///
    /// `items` must be *all* of the document's items for this index (every
    /// caller derives them from the whole document): when they yield more
    /// than one key, the multi-valued flag is raised before any entry
    /// becomes visible in the B+tree.
    pub fn insert_entries(
        &self,
        txn: &Txn,
        doc: DocId,
        xml: &XmlTable,
        items: &[ResultItem],
    ) -> Result<u64> {
        let keyed: Vec<(&NodeId, Vec<Vec<u8>>)> = items
            .iter()
            .filter_map(|item| {
                let node = item.node.as_ref()?;
                let keyvals = self.def.keys.keyvals(&item.value);
                // No key (a value that does not cast): zero entries (§3.3).
                (!keyvals.is_empty()).then_some((node, keyvals))
            })
            .collect();
        let total: usize = keyed.iter().map(|(_, k)| k.len()).sum();
        if total > 1 {
            self.multi_valued.store(true, Ordering::Release);
        }
        for (node, keyvals) in keyed {
            let Some(found) = xml.locate(doc, node.as_bytes())? else {
                return Err(EngineError::Record(format!(
                    "indexed node {node} of doc {doc} has no record"
                )));
            };
            for keyval in keyvals {
                txn.index_insert(
                    &self.btree,
                    encode_entry_key(&keyval, doc, node),
                    found.rid.to_u64(),
                )?;
            }
        }
        Ok(total as u64)
    }

    /// Delete the entries for `items` of document `doc`.
    pub fn delete_entries(&self, txn: &Txn, doc: DocId, items: &[ResultItem]) -> Result<u64> {
        let mut removed = 0u64;
        for item in items {
            let Some(node) = &item.node else { continue };
            for keyval in self.def.keys.keyvals(&item.value) {
                let key = encode_entry_key(&keyval, doc, node);
                if txn.index_delete(&self.btree, key)?.is_some() {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Exact-value lookup: all entries with the given encoded key value.
    pub fn lookup_eq(&self, keyval: &[u8]) -> Result<Vec<IndexEntry>> {
        let lo = escape_keyval(keyval);
        let hi = escape_keyval_upper(keyval);
        self.range_raw(&lo, &hi)
    }

    /// Range scan over *encoded key values*: `lo..hi` with inclusivity flags
    /// (`None` = unbounded).
    pub fn range(
        &self,
        lo: Option<(&[u8], bool)>,
        hi: Option<(&[u8], bool)>,
    ) -> Result<Vec<IndexEntry>> {
        let lo_key = match lo {
            Some((v, true)) => escape_keyval(v),
            Some((v, false)) => escape_keyval_upper(v),
            None => Vec::new(),
        };
        let hi_key = match hi {
            Some((v, true)) => escape_keyval_upper(v),
            Some((v, false)) => escape_keyval(v),
            None => vec![0xFF; 9], // above any escaped key
        };
        self.range_raw(&lo_key, &hi_key)
    }

    fn range_raw(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<IndexEntry>> {
        let mut out = Vec::new();
        let mut err = None;
        self.btree.scan_from(lo, |k, v| {
            if k >= hi {
                return false;
            }
            match decode_entry_key(k) {
                Ok((keyval, doc, node)) => out.push(IndexEntry {
                    keyval,
                    doc,
                    node,
                    rid: Rid::from_u64(v),
                }),
                Err(e) => {
                    err = Some(e);
                    return false;
                }
            }
            true
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        Ok(out)
    }

    /// Number of entries (full scan).
    pub fn len(&self) -> Result<u64> {
        Ok(self.btree.len()?)
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.btree.is_empty()?)
    }

    /// Pages occupied by the index (for the index-size/data-size reports).
    pub fn page_count(&self) -> Result<u64> {
        Ok(self.btree.page_count()?)
    }

    /// The underlying B+tree (recovery wiring and tests).
    pub fn btree_arc(&self) -> Arc<BTree> {
        Arc::clone(&self.btree)
    }
}

/// Key generation for every index of a column in one pass: one QuickXScan
/// per index over a single event stream, with node IDs supplied by the
/// source. Plugged into the [`crate::pack::Packer`] at insert time — "index
/// keys for the node ID index and XPath value indexes are generated per
/// record" (§3.2) without any separate pass — and into one stored-document
/// traversal ([`IndexKeyGen::derive`]) for delete, update and backfill.
/// With [`IndexKeyGen::with_synopsis`] the same pass also builds the
/// document's synopsis (DESIGN.md §19).
pub struct IndexKeyGen<'q, 'd> {
    scans: Vec<QuickXScan<'q, 'd>>,
    synopsis: Option<SynopsisBuilder>,
}

impl<'q, 'd> IndexKeyGen<'q, 'd> {
    /// Build one scan per query tree, borrowing each index's compiled tree.
    pub fn new(trees: impl IntoIterator<Item = &'q QueryTree>, dict: &'d NameDict) -> Self {
        IndexKeyGen {
            scans: trees
                .into_iter()
                .map(|t| QuickXScan::new(t, dict))
                .collect(),
            synopsis: None,
        }
    }

    /// Also build each document's synopsis entries in the pass, with
    /// `builder` (a stored traversal then reads every element's content).
    pub fn with_synopsis(mut self, builder: SynopsisBuilder) -> Self {
        self.synopsis = Some(builder);
        self
    }

    /// Hand the synopsis entries of the document just finished (distinct,
    /// sorted) to `take`; they are empty without
    /// [`IndexKeyGen::with_synopsis`].
    pub fn finish_synopsis<R>(&mut self, take: impl FnOnce(&[u64]) -> R) -> R {
        match &mut self.synopsis {
            Some(builder) => builder.finish(take),
            None => take(&[]),
        }
    }

    /// The synopsis builder, for the next document's pass.
    pub fn into_synopsis(self) -> Option<SynopsisBuilder> {
        self.synopsis
    }

    /// Finish the current document, returning one result list per index
    /// (node IDs + values), and get ready for the next document.
    pub fn finish(&mut self) -> Result<Vec<Vec<ResultItem>>> {
        self.scans
            .iter_mut()
            .map(|s| {
                let mut items = Vec::new();
                s.finish_into(&mut items)?;
                Ok(items)
            })
            .collect()
    }

    /// Replay stored document `doc` once and return its items per index.
    pub fn derive(&mut self, xml: &XmlTable, doc: DocId) -> Result<Vec<Vec<ResultItem>>> {
        Traverser::new(xml, doc).run(self)?;
        self.finish()
    }
}

impl NodeObserver for IndexKeyGen<'_, '_> {
    fn node(&mut self, id: &[u8], ev: &Event<'_>) -> Result<()> {
        if let Some(synopsis) = &mut self.synopsis {
            synopsis.event(ev);
        }
        for scan in &mut self.scans {
            scan.set_current_node(id);
            scan.event(*ev)?;
        }
        Ok(())
    }
}

/// Stored traversal skips an element's content only when no index wants it.
impl IdEventSink for IndexKeyGen<'_, '_> {
    fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> Result<()> {
        self.node(id, &ev)
    }

    fn wants_content(&self) -> bool {
        self.synopsis.is_some() || self.scans.iter().any(QuickXScan::wants_content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::Packer;
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{BufferPool, LockManager, MemBackend, TxnManager};
    use rx_xml::parser::Parser;

    fn setup(path: &str, key_type: KeyType) -> (XmlTable, ValueIndex, Arc<TxnManager>, NameDict) {
        let pool = BufferPool::new(1024);
        let xspace = TableSpace::create(pool.clone(), 10, Arc::new(MemBackend::new())).unwrap();
        let ispace = TableSpace::create(pool, 11, Arc::new(MemBackend::new())).unwrap();
        let xt = XmlTable::create(xspace).unwrap();
        let vi = ValueIndex::create(
            ispace,
            ValueIndexDef {
                name: "idx".into(),
                path_text: path.into(),
                keys: IndexKeys::Typed(key_type),
                space_id: 11,
            },
        )
        .unwrap();
        let txns = TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        );
        (xt, vi, txns, NameDict::new())
    }

    fn insert_doc(
        xt: &XmlTable,
        vi: &ValueIndex,
        txns: &Arc<TxnManager>,
        dict: &NameDict,
        doc: DocId,
        input: &str,
    ) {
        let mut keygen = IndexKeyGen::new([&vi.tree], dict);
        let mut records = Vec::new();
        let mut packer = Packer::with_target(800, &mut records, &mut keygen);
        Parser::new(dict).parse(input, &mut packer).unwrap();
        packer.finish().unwrap();
        let txn = txns.begin().unwrap();
        for r in &records {
            xt.insert_record(&txn, doc, r).unwrap();
        }
        let items = keygen.finish().unwrap();
        vi.insert_entries(&txn, doc, xt, &items[0]).unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn keygen_produces_entries_with_rids() {
        let (xt, vi, txns, dict) = setup("/Catalog//RegPrice", KeyType::Double);
        insert_doc(
            &xt,
            &vi,
            &txns,
            &dict,
            1,
            r#"<Catalog>
                <Product><RegPrice>150</RegPrice></Product>
                <Product><RegPrice>50</RegPrice></Product>
                <Product><RegPrice>250.5</RegPrice></Product>
            </Catalog>"#,
        );
        assert_eq!(vi.len().unwrap(), 3);
        // Exact lookup.
        let key = encode_key(KeyType::Double, "150").unwrap();
        let hits = vi.lookup_eq(&key).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 1);
        // The RID leads to a real record containing the node.
        assert_eq!(xt.read(hits[0].rid).unwrap().doc(), 1);
        // Fetching the node by its logical ID works too (§3.4's access from
        // a value index).
        let sn = crate::traverse::fetch_node(&xt, 1, &hits[0].node)
            .unwrap()
            .unwrap();
        match sn {
            crate::traverse::StoredNode::Element { name } => {
                assert!(dict.matches_local(name, "RegPrice"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn range_scan_numeric_order() {
        let (xt, vi, txns, dict) = setup("//price", KeyType::Double);
        insert_doc(
            &xt,
            &vi,
            &txns,
            &dict,
            1,
            "<r><price>5</price><price>100</price><price>25</price><price>7.5</price></r>",
        );
        // price > 7 and price < 100: expect 7.5 and 25.
        let lo = encode_key(KeyType::Double, "7").unwrap();
        let hi = encode_key(KeyType::Double, "100").unwrap();
        let hits = vi.range(Some((&lo, false)), Some((&hi, false))).unwrap();
        assert_eq!(hits.len(), 2);
        // Entries come back in key order: 7.5 then 25.
        let v75 = encode_key(KeyType::Double, "7.5").unwrap();
        assert_eq!(hits[0].keyval, v75);
    }

    #[test]
    fn non_castable_values_skipped() {
        let (xt, vi, txns, dict) = setup("//price", KeyType::Double);
        insert_doc(
            &xt,
            &vi,
            &txns,
            &dict,
            1,
            "<r><price>19.99</price><price>call us</price></r>",
        );
        assert_eq!(vi.len().unwrap(), 1, "only the numeric price is indexed");
    }

    #[test]
    fn string_keys_with_nul_bytes_order_correctly() {
        // The escape encoding must keep keyval-major ordering even around
        // embedded zero bytes and prefixes.
        let keys: Vec<&[u8]> = vec![b"", b"\x00", b"\x00a", b"a", b"a\x00", b"ab", b"b"];
        let escaped: Vec<Vec<u8>> = keys.iter().map(|k| escape_keyval(k)).collect();
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                assert_eq!(
                    escaped[i].cmp(&escaped[j]),
                    keys[i].cmp(keys[j]),
                    "{:?} vs {:?}",
                    keys[i],
                    keys[j]
                );
            }
        }
        // Suffixed entries stay within their key's [escape, upper) window.
        for k in &keys {
            let mut entry = escape_keyval(k);
            entry.extend_from_slice(&1u64.to_be_bytes());
            assert!(entry.as_slice() >= escape_keyval(k).as_slice());
            assert!(entry < escape_keyval_upper(k));
        }
    }

    #[test]
    fn attribute_index() {
        let (xt, vi, txns, dict) = setup("/r/p/@id", KeyType::String);
        insert_doc(
            &xt,
            &vi,
            &txns,
            &dict,
            4,
            r#"<r><p id="alpha"/><p id="beta"/></r>"#,
        );
        assert_eq!(vi.len().unwrap(), 2);
        let hits = vi.lookup_eq(b"beta").unwrap();
        assert_eq!(hits.len(), 1);
        match crate::traverse::fetch_node(&xt, 4, &hits[0].node)
            .unwrap()
            .unwrap()
        {
            crate::traverse::StoredNode::Attribute { value, .. } => {
                assert_eq!(value, "beta");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_documents_and_delete() {
        let (xt, vi, txns, dict) = setup("//v", KeyType::String);
        for doc in 1..=3u64 {
            insert_doc(&xt, &vi, &txns, &dict, doc, "<r><v>shared</v></r>");
        }
        assert_eq!(vi.len().unwrap(), 3);
        let hits = vi.lookup_eq(b"shared").unwrap();
        assert_eq!(hits.len(), 3);
        // Doc-ordered by (keyval, doc, node).
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Delete doc 2's entries by re-deriving items.
        let txn = txns.begin().unwrap();
        let items: Vec<ResultItem> = hits
            .iter()
            .filter(|h| h.doc == 2)
            .map(|h| ResultItem {
                value: "shared".to_string(),
                node: Some(h.node.clone()),
                order: 0,
            })
            .collect();
        vi.delete_entries(&txn, 2, &items).unwrap();
        txn.commit().unwrap();
        assert_eq!(vi.lookup_eq(b"shared").unwrap().len(), 2);
    }

    #[test]
    fn rejects_predicate_paths() {
        assert!(ValueIndex::parse_path("/a[b=1]/c").is_err());
        assert!(ValueIndex::parse_path("/catalog//productname").is_ok());
    }

    #[test]
    fn index_much_smaller_than_data() {
        // §3.3: "index size should be kept much smaller than data size".
        let (xt, vi, txns, dict) = setup("//name", KeyType::String);
        let body: String = (0..100)
            .map(|i| format!("<p><name>n{i}</name><desc>{}</desc></p>", "d".repeat(200)))
            .collect();
        insert_doc(&xt, &vi, &txns, &dict, 1, &format!("<r>{body}</r>"));
        let (_, _, data_bytes, _, _) = xt.stats().unwrap();
        let index_pages = vi.page_count().unwrap();
        assert!(
            index_pages * 4096 < data_bytes,
            "index {index_pages} pages vs data {data_bytes} bytes"
        );
    }
}
