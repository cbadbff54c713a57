//! Full-text search — the paper's named future-work item (§6: "new
//! capabilities, such as more complete XQuery and full-text search"),
//! implemented the way the rest of the engine would have grown: as another
//! index family on the same B+tree infrastructure.
//!
//! A full-text index is declared like an XPath value index (§3.3) — a simple
//! path naming the nodes to index — but instead of one typed key per node it
//! tokenizes each node's string value and stores one posting per distinct
//! term: key = `escape(term) ++ DocID ++ NodeID`, value = RID. Term lookups,
//! AND over several terms (DocID- or NodeID-level, mirroring the §4.3
//! ANDing machinery), and phrase-free `contains` semantics come out of plain
//! B+tree range scans.
//!
//! Note the §6 caveat the paper itself raises: full-text over the XQuery
//! data model alone cannot give byte-for-byte content retrieval; this index
//! serves data-centric search, exactly like the rest of the engine.

use crate::error::{EngineError, Result};
use crate::pack::NodeObserver;
use crate::validx::{escape_keyval, escape_keyval_upper};
use crate::xmltable::{DocId, XmlTable};
use rx_storage::wal::LogRecord;
use rx_storage::{BTree, Rid, TableSpace, Txn};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::NameDict;
use rx_xml::nodeid::NodeId;
use rx_xpath::quickxscan::{QuickXScan, ResultItem};
use rx_xpath::{Path, QueryTree, XPathParser};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Anchor slot of the posting B+tree within the index's table space.
pub const FULLTEXT_ANCHOR: usize = 0;

/// Tokenize a string value into normalized terms: lowercase alphanumeric
/// runs, deduplicated (presence semantics, not term frequency).
pub fn tokenize(value: &str) -> BTreeSet<String> {
    let mut terms = BTreeSet::new();
    let mut cur = String::new();
    for ch in value.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            terms.insert(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        terms.insert(cur);
    }
    terms
}

/// One posting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Owning document.
    pub doc: DocId,
    /// The indexed node whose value contains the term.
    pub node: NodeId,
    /// Record containing the node.
    pub rid: Rid,
}

/// Definition persisted in the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct FullTextIndexDef {
    /// Index name.
    pub name: String,
    /// Simple path naming the nodes whose string values are indexed.
    pub path_text: String,
    /// Table space of the posting tree.
    pub space_id: u32,
}

/// A live full-text index.
pub struct FullTextIndex {
    /// Persistent definition.
    pub def: FullTextIndexDef,
    /// Parsed index path.
    pub path: Path,
    /// Compiled query tree for posting generation at insert time.
    pub tree: QueryTree,
    btree: Arc<BTree>,
}

fn posting_key(term: &str, doc: DocId, node: &NodeId) -> Vec<u8> {
    let mut k = escape_keyval(term.as_bytes());
    k.extend_from_slice(&doc.to_be_bytes());
    k.extend_from_slice(node.as_bytes());
    k
}

fn decode_posting_key(key: &[u8]) -> Result<(DocId, NodeId)> {
    // Skip the escaped term: find the 0x00 0x00 terminator.
    let mut i = 0usize;
    loop {
        let b = *key
            .get(i)
            .ok_or_else(|| EngineError::Record("truncated posting key".into()))?;
        if b == 0x00 {
            let n = *key
                .get(i + 1)
                .ok_or_else(|| EngineError::Record("truncated posting escape".into()))?;
            i += 2;
            if n == 0x00 {
                break;
            }
        } else {
            i += 1;
        }
    }
    let doc_bytes = key
        .get(i..i + 8)
        .ok_or_else(|| EngineError::Record("posting key missing DocID".into()))?;
    let doc = DocId::from_be_bytes(doc_bytes.try_into().unwrap());
    Ok((doc, NodeId::from_bytes_unchecked(key[i + 8..].to_vec())))
}

impl FullTextIndex {
    /// Create the posting tree in `space`.
    pub fn create(space: Arc<TableSpace>, def: FullTextIndexDef) -> Result<FullTextIndex> {
        let path = XPathParser::new().parse(&def.path_text)?;
        if !path.is_simple() {
            return Err(EngineError::Invalid(format!(
                "full-text index path {:?} must be a simple path",
                def.path_text
            )));
        }
        let tree = QueryTree::compile(&path)?;
        let btree = BTree::create(space, FULLTEXT_ANCHOR)?;
        Ok(FullTextIndex {
            def,
            path,
            tree,
            btree,
        })
    }

    /// Open an existing index.
    pub fn open(space: Arc<TableSpace>, def: FullTextIndexDef) -> Result<FullTextIndex> {
        let path = XPathParser::new().parse(&def.path_text)?;
        let tree = QueryTree::compile(&path)?;
        let btree = BTree::open(space, FULLTEXT_ANCHOR)?;
        Ok(FullTextIndex {
            def,
            path,
            tree,
            btree,
        })
    }

    /// Index the postings of QuickXScan results for document `doc`.
    pub fn insert_entries(
        &self,
        txn: &Txn,
        doc: DocId,
        xml: &XmlTable,
        items: &[ResultItem],
    ) -> Result<u64> {
        let mut inserted = 0u64;
        for item in items {
            let Some(node) = &item.node else { continue };
            let Some(rid) = xml.locate(doc, node)? else {
                return Err(EngineError::Record(format!(
                    "indexed node {node} of doc {doc} has no record"
                )));
            };
            for term in tokenize(&item.value) {
                let key = posting_key(&term, doc, node);
                let prev = self.btree.insert(&key, rid.to_u64())?;
                txn.log(&LogRecord::IndexInsert {
                    txn: txn.id(),
                    space: self.def.space_id,
                    anchor: FULLTEXT_ANCHOR as u32,
                    key: key.clone(),
                    value: rid.to_u64(),
                    prev,
                })?;
                let btree = Arc::clone(&self.btree);
                let space = self.def.space_id;
                let rid_val = rid.to_u64();
                txn.push_undo(Box::new(move |ctx| {
                    match prev {
                        Some(p) => {
                            ctx.log(&LogRecord::IndexInsert {
                                txn: ctx.txn(),
                                space,
                                anchor: FULLTEXT_ANCHOR as u32,
                                key: key.clone(),
                                value: p,
                                prev: None,
                            })?;
                            btree.insert(&key, p)?;
                        }
                        None => {
                            ctx.log(&LogRecord::IndexDelete {
                                txn: ctx.txn(),
                                space,
                                anchor: FULLTEXT_ANCHOR as u32,
                                key: key.clone(),
                                value: rid_val,
                            })?;
                            btree.delete(&key)?;
                        }
                    }
                    Ok(())
                }));
                inserted += 1;
            }
        }
        Ok(inserted)
    }

    /// Remove the postings of `items` for document `doc`.
    pub fn delete_entries(&self, txn: &Txn, doc: DocId, items: &[ResultItem]) -> Result<u64> {
        let mut removed = 0u64;
        for item in items {
            let Some(node) = &item.node else { continue };
            for term in tokenize(&item.value) {
                let key = posting_key(&term, doc, node);
                if let Some(v) = self.btree.delete(&key)? {
                    txn.log(&LogRecord::IndexDelete {
                        txn: txn.id(),
                        space: self.def.space_id,
                        anchor: FULLTEXT_ANCHOR as u32,
                        key: key.clone(),
                        value: v,
                    })?;
                    let btree = Arc::clone(&self.btree);
                    let space = self.def.space_id;
                    txn.push_undo(Box::new(move |ctx| {
                        ctx.log(&LogRecord::IndexInsert {
                            txn: ctx.txn(),
                            space,
                            anchor: FULLTEXT_ANCHOR as u32,
                            key: key.clone(),
                            value: v,
                            prev: None,
                        })?;
                        btree.insert(&key, v)?;
                        Ok(())
                    }));
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// All postings of one term.
    pub fn search_term(&self, term: &str) -> Result<Vec<Posting>> {
        let normalized: Vec<String> = tokenize(term).into_iter().collect();
        let Some(t) = normalized.first() else {
            return Ok(Vec::new());
        };
        let lo = escape_keyval(t.as_bytes());
        let hi = escape_keyval_upper(t.as_bytes());
        let mut out = Vec::new();
        let mut err = None;
        self.btree.scan_from(&lo, |k, v| {
            if k >= hi.as_slice() {
                return false;
            }
            match decode_posting_key(k) {
                Ok((doc, node)) => out.push(Posting {
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

    /// Documents containing *all* the given terms (DocID-level ANDing, the
    /// §4.3 combiner applied to postings).
    pub fn search_all_terms(&self, query: &str) -> Result<Vec<DocId>> {
        let terms: Vec<String> = tokenize(query).into_iter().collect();
        if terms.is_empty() {
            return Ok(Vec::new());
        }
        let mut acc: Option<BTreeSet<DocId>> = None;
        for t in &terms {
            let docs: BTreeSet<DocId> = self.search_term(t)?.into_iter().map(|p| p.doc).collect();
            acc = Some(match acc {
                None => docs,
                Some(prev) => prev.intersection(&docs).copied().collect(),
            });
            if acc.as_ref().is_some_and(BTreeSet::is_empty) {
                break;
            }
        }
        Ok(acc.unwrap_or_default().into_iter().collect())
    }

    /// Nodes containing all the given terms in the *same* indexed node
    /// (NodeID-level ANDing).
    pub fn search_all_terms_same_node(&self, query: &str) -> Result<Vec<(DocId, NodeId)>> {
        let terms: Vec<String> = tokenize(query).into_iter().collect();
        if terms.is_empty() {
            return Ok(Vec::new());
        }
        let mut acc: Option<BTreeSet<(DocId, Vec<u8>)>> = None;
        for t in &terms {
            let nodes: BTreeSet<(DocId, Vec<u8>)> = self
                .search_term(t)?
                .into_iter()
                .map(|p| (p.doc, p.node.as_bytes().to_vec()))
                .collect();
            acc = Some(match acc {
                None => nodes,
                Some(prev) => prev.intersection(&nodes).cloned().collect(),
            });
            if acc.as_ref().is_some_and(BTreeSet::is_empty) {
                break;
            }
        }
        Ok(acc
            .unwrap_or_default()
            .into_iter()
            .map(|(d, n)| (d, NodeId::from_bytes_unchecked(n)))
            .collect())
    }

    /// Number of postings.
    pub fn len(&self) -> Result<u64> {
        Ok(self.btree.len()?)
    }

    /// True when no postings exist.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.btree.is_empty()?)
    }

    /// The underlying B+tree (recovery wiring).
    pub fn btree_arc(&self) -> Arc<BTree> {
        Arc::clone(&self.btree)
    }
}

/// Posting-generation observer for the packer (same role as
/// [`crate::validx::IndexKeyGen`]).
pub struct FullTextKeyGen<'q, 'd> {
    scans: Vec<QuickXScan<'q, 'd>>,
}

impl<'q, 'd> FullTextKeyGen<'q, 'd> {
    /// Build scans for the given index query trees.
    pub fn new(trees: &'q [QueryTree], dict: &'d NameDict) -> Self {
        FullTextKeyGen {
            scans: trees.iter().map(|t| QuickXScan::new(t, dict)).collect(),
        }
    }

    /// Finish, returning per-index result items.
    pub fn finish(self) -> Result<Vec<Vec<ResultItem>>> {
        self.scans
            .into_iter()
            .map(|s| s.finish().map_err(EngineError::from))
            .collect()
    }
}

impl NodeObserver for FullTextKeyGen<'_, '_> {
    fn node(&mut self, id: &[u8], ev: &Event<'_>) -> Result<()> {
        for scan in &mut self.scans {
            scan.set_current_node(id);
            scan.event(*ev)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::Packer;
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{BufferPool, LockManager, MemBackend, TxnManager};
    use rx_xml::Parser;

    #[test]
    fn tokenizer() {
        let terms = tokenize("The Quick-Brown FOX, fox; jumps 42 times!");
        let expect: Vec<&str> = vec!["42", "brown", "fox", "jumps", "quick", "the", "times"];
        assert_eq!(terms.into_iter().collect::<Vec<_>>(), expect);
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ,;  ").is_empty());
    }

    fn setup() -> (XmlTable, FullTextIndex, Arc<TxnManager>, NameDict) {
        let pool = BufferPool::new(2048);
        let xspace = TableSpace::create(pool.clone(), 10, Arc::new(MemBackend::new())).unwrap();
        let ispace = TableSpace::create(pool, 11, Arc::new(MemBackend::new())).unwrap();
        let xt = XmlTable::create(xspace).unwrap();
        let fti = FullTextIndex::create(
            ispace,
            FullTextIndexDef {
                name: "fti".into(),
                path_text: "//Description".into(),
                space_id: 11,
            },
        )
        .unwrap();
        let txns = TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        );
        (xt, fti, txns, NameDict::new())
    }

    fn insert(
        xt: &XmlTable,
        fti: &FullTextIndex,
        txns: &Arc<TxnManager>,
        dict: &NameDict,
        doc: DocId,
        text: &str,
    ) {
        let trees = vec![fti.tree.clone()];
        let mut keygen = FullTextKeyGen::new(&trees, dict);
        let mut records = Vec::new();
        let mut packer = Packer::with_target(800, &mut records, &mut keygen);
        Parser::new(dict).parse(text, &mut packer).unwrap();
        packer.finish().unwrap();
        let txn = txns.begin().unwrap();
        for r in &records {
            xt.insert_record(&txn, doc, r).unwrap();
        }
        let items = keygen.finish().unwrap();
        fti.insert_entries(&txn, doc, xt, &items[0]).unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn term_search_and_anding() {
        let (xt, fti, txns, dict) = setup();
        insert(
            &xt,
            &fti,
            &txns,
            &dict,
            1,
            "<p><Description>durable portable widget</Description></p>",
        );
        insert(
            &xt,
            &fti,
            &txns,
            &dict,
            2,
            "<p><Description>durable enterprise gadget</Description></p>",
        );
        insert(
            &xt,
            &fti,
            &txns,
            &dict,
            3,
            "<p><Description>Portable Gadget</Description></p>",
        );

        // Single terms (case-insensitive).
        let docs: Vec<DocId> = fti
            .search_term("DURABLE")
            .unwrap()
            .iter()
            .map(|p| p.doc)
            .collect();
        assert_eq!(docs, vec![1, 2]);
        let docs: Vec<DocId> = fti
            .search_term("portable")
            .unwrap()
            .iter()
            .map(|p| p.doc)
            .collect();
        assert_eq!(docs, vec![1, 3]);
        assert!(fti.search_term("missing").unwrap().is_empty());

        // AND across terms.
        assert_eq!(fti.search_all_terms("durable portable").unwrap(), vec![1]);
        assert_eq!(fti.search_all_terms("portable gadget").unwrap(), vec![3]);
        assert!(fti.search_all_terms("durable missing").unwrap().is_empty());
    }

    #[test]
    fn same_node_anding_is_stricter() {
        let (xt, fti, txns, dict) = setup();
        // Two Description nodes in one doc, terms split across them.
        insert(
            &xt,
            &fti,
            &txns,
            &dict,
            1,
            "<p><Description>alpha beta</Description><Description>gamma</Description></p>",
        );
        // Doc-level AND finds it; node-level does not.
        assert_eq!(fti.search_all_terms("alpha gamma").unwrap(), vec![1]);
        assert!(fti
            .search_all_terms_same_node("alpha gamma")
            .unwrap()
            .is_empty());
        assert_eq!(
            fti.search_all_terms_same_node("alpha beta").unwrap().len(),
            1
        );
    }

    #[test]
    fn postings_point_into_records() {
        let (xt, fti, txns, dict) = setup();
        insert(
            &xt,
            &fti,
            &txns,
            &dict,
            9,
            "<p><Description>needle in haystack</Description></p>",
        );
        let p = &fti.search_term("needle").unwrap()[0];
        // The posting's node resolves through the NodeID index and the RID
        // leads to a record of the right document.
        let row = xt.fetch(p.rid).unwrap();
        assert_eq!(row.doc, 9);
        let sv = crate::traverse::string_value(&xt, 9, &p.node).unwrap();
        assert!(sv.contains("needle"));
    }

    #[test]
    fn rollback_removes_postings() {
        let (xt, fti, txns, dict) = setup();
        let trees = vec![fti.tree.clone()];
        let mut keygen = FullTextKeyGen::new(&trees, &dict);
        let mut records = Vec::new();
        let mut packer = Packer::with_target(800, &mut records, &mut keygen);
        Parser::new(&dict)
            .parse("<p><Description>ghost words</Description></p>", &mut packer)
            .unwrap();
        packer.finish().unwrap();
        let txn = txns.begin().unwrap();
        for r in &records {
            xt.insert_record(&txn, 1, r).unwrap();
        }
        let items = keygen.finish().unwrap();
        fti.insert_entries(&txn, 1, &xt, &items[0]).unwrap();
        txn.rollback().unwrap();
        assert!(fti.is_empty().unwrap());
    }

    #[test]
    fn rejects_predicate_paths() {
        let pool = BufferPool::new(64);
        let space = TableSpace::create(pool, 5, Arc::new(MemBackend::new())).unwrap();
        assert!(FullTextIndex::create(
            space,
            FullTextIndexDef {
                name: "x".into(),
                path_text: "//a[b]".into(),
                space_id: 5,
            }
        )
        .is_err());
    }
}
