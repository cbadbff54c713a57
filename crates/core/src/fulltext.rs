//! Full-text search — the paper's named future-work item (§6: "new
//! capabilities, such as more complete XQuery and full-text search"),
//! implemented the way the rest of the engine would have grown: a full-text
//! index *is* an XPath value index (§3.3) whose keys are terms.
//!
//! It is declared like a value index — a simple path naming the nodes to
//! index — but with [`crate::validx::IndexKeys::Terms`] instead of a key type: each node's
//! string value is tokenized and the index stores one entry per distinct
//! term, `escape(term) ++ DocID ++ NodeID → RID`, in the shared
//! [`ValueIndex`] B+tree layout with the shared key generation, logging and
//! recovery. A term lookup is one [`ValueIndex::lookup_eq`]; AND over several
//! terms is the §4.3 DocID-level combiner applied to those lookups.
//!
//! Note the §6 caveat the paper itself raises: full-text over the XQuery
//! data model alone cannot give byte-for-byte content retrieval; this index
//! serves data-centric search, exactly like the rest of the engine.

use crate::error::Result;
use crate::validx::{IndexEntry, ValueIndex};
use crate::xmltable::DocId;
use std::collections::BTreeSet;

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

/// Term search over a terms-keyed index.
impl ValueIndex {
    /// All entries of one term (the first term of `term` once tokenized, so
    /// the lookup is case-insensitive like the index).
    pub fn search_term(&self, term: &str) -> Result<Vec<IndexEntry>> {
        match tokenize(term).first() {
            Some(t) => self.lookup_eq(t.as_bytes()),
            None => Ok(Vec::new()),
        }
    }

    /// Documents containing *all* the terms of `query` (DocID-level ANDing,
    /// the §4.3 combiner applied to one lookup per term).
    pub fn search_all_terms(&self, query: &str) -> Result<Vec<DocId>> {
        let mut acc: Option<BTreeSet<DocId>> = None;
        for t in tokenize(query) {
            let docs: BTreeSet<DocId> = self
                .lookup_eq(t.as_bytes())?
                .into_iter()
                .map(|e| e.doc)
                .collect();
            let docs = match acc {
                None => docs,
                Some(prev) => prev.intersection(&docs).copied().collect(),
            };
            if docs.is_empty() {
                return Ok(Vec::new());
            }
            acc = Some(docs);
        }
        Ok(acc.unwrap_or_default().into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::Packer;
    use crate::validx::{IndexKeyGen, IndexKeys, ValueIndexDef};
    use crate::xmltable::XmlTable;
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{BufferPool, LockManager, MemBackend, TableSpace, TxnManager};
    use rx_xml::name::NameDict;
    use rx_xml::Parser;
    use std::sync::Arc;

    #[test]
    fn tokenizer() {
        let terms = tokenize("The Quick-Brown FOX, fox; jumps 42 times!");
        let expect: Vec<&str> = vec!["42", "brown", "fox", "jumps", "quick", "the", "times"];
        assert_eq!(terms.into_iter().collect::<Vec<_>>(), expect);
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ,;  ").is_empty());
    }

    fn terms_def(path: &str, space_id: u32) -> ValueIndexDef {
        ValueIndexDef {
            name: "fti".into(),
            path_text: path.into(),
            keys: IndexKeys::Terms,
            space_id,
        }
    }

    fn setup() -> (XmlTable, ValueIndex, Arc<TxnManager>, NameDict) {
        let pool = BufferPool::new(2048);
        let xspace = TableSpace::create(pool.clone(), 10, Arc::new(MemBackend::new())).unwrap();
        let ispace = TableSpace::create(pool, 11, Arc::new(MemBackend::new())).unwrap();
        let xt = XmlTable::create(xspace).unwrap();
        let fti = ValueIndex::create(ispace, terms_def("//Description", 11)).unwrap();
        let txns = TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        );
        (xt, fti, txns, NameDict::new())
    }

    /// Store `text` as document `doc` and index it in `txn`.
    fn store(
        xt: &XmlTable,
        fti: &ValueIndex,
        txn: &rx_storage::Txn,
        dict: &NameDict,
        doc: DocId,
        text: &str,
    ) {
        let mut keygen = IndexKeyGen::new([&fti.tree], dict);
        let mut records = Vec::new();
        let mut packer = Packer::with_target(800, &mut records, &mut keygen);
        Parser::new(dict).parse(text, &mut packer).unwrap();
        packer.finish().unwrap();
        for r in &records {
            xt.insert_record(txn, doc, r).unwrap();
        }
        let items = keygen.finish().unwrap();
        fti.insert_entries(txn, doc, xt, &items[0]).unwrap();
    }

    fn insert(
        xt: &XmlTable,
        fti: &ValueIndex,
        txns: &Arc<TxnManager>,
        dict: &NameDict,
        doc: DocId,
        text: &str,
    ) {
        let txn = txns.begin().unwrap();
        store(xt, fti, &txn, dict, doc, text);
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
        // The entry's node resolves through the NodeID index and the RID
        // leads to a record of the right document.
        assert_eq!(xt.read(p.rid).unwrap().doc(), 9);
        let sv = crate::traverse::string_value(&xt, 9, &p.node).unwrap();
        assert!(sv.contains("needle"));
    }

    #[test]
    fn rollback_removes_postings() {
        let (xt, fti, txns, dict) = setup();
        let txn = txns.begin().unwrap();
        store(
            &xt,
            &fti,
            &txn,
            &dict,
            1,
            "<p><Description>ghost words</Description></p>",
        );
        assert_eq!(fti.len().unwrap(), 2);
        txn.rollback().unwrap();
        assert!(fti.is_empty().unwrap());
    }

    #[test]
    fn rejects_predicate_paths() {
        let pool = BufferPool::new(64);
        let space = TableSpace::create(pool, 5, Arc::new(MemBackend::new())).unwrap();
        assert!(ValueIndex::create(space, terms_def("//a[b]", 5)).is_err());
    }
}
