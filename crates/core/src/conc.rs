//! Concurrency control protocols (§5).
//!
//! §5.1 document-level: "if we allow direct access to the XML data from value
//! indexes or from an uncommitted reader that does not lock the base table
//! rows, a DocID locking scheme is required" — readers take IS(table) +
//! S(document), writers IX(table) + X(document), so no reader ever sees a
//! partially inserted document.
//!
//! §5.2 sub-document: "a multiple granularity locking is needed given the
//! hierarchical nature of XML data. Since we use prefix-encoded node IDs,
//! locking using node IDs can support the protocol efficiently because
//! ancestor-descendant relationship can be checked by testing if one is a
//! prefix of the other." Writers of a subtree take IX(table) + IX(document) +
//! X(node); readers IS + IS + S(node); the storage lock manager resolves node
//! conflicts by Dewey prefix ancestry, so disjoint subtrees of one document
//! update concurrently.

use crate::error::Result;
use crate::xmltable::DocId;
use rx_storage::{LockMode, LockName, Txn};
use rx_xml::nodeid::NodeId;

/// Take the §5.1 reader locks: IS on the table, S on the document.
pub fn lock_document_shared(txn: &Txn, table: u32, doc: DocId) -> Result<()> {
    lock_documents_shared(txn, table, &[doc])
}

/// Take the §5.1 reader locks for a list of documents: IS on the table
/// once, then S on each document in the order given (DocID order for a
/// query's candidates). Every read of a document in a transaction takes its
/// locks here (DESIGN.md §14). The whole list goes to the lock manager as
/// one request, which grants it in one pass while no lock conflicts
/// (DESIGN.md §9.2).
pub fn lock_documents_shared(txn: &Txn, table: u32, docs: &[DocId]) -> Result<()> {
    txn.lock_many(
        std::iter::once((LockName::Table(table), LockMode::IS)).chain(
            docs.iter()
                .map(|&doc| (LockName::Document { table, doc }, LockMode::S)),
        ),
    )?;
    Ok(())
}

/// Non-blocking variant of [`lock_document_shared`] for callers that must
/// never wait (the server's inline point fetch): returns whether IS on the
/// table and S on the document were both granted at once. A partial grant
/// (IS alone) is a compatible intent and stays until transaction end.
pub fn try_lock_document_shared(txn: &Txn, table: u32, doc: DocId) -> Result<bool> {
    Ok(txn.try_lock(&LockName::Table(table), LockMode::IS)?
        && txn.try_lock(&LockName::Document { table, doc }, LockMode::S)?)
}

/// Take the §5.1 writer locks: IX on the table, X on the document.
pub fn lock_document_exclusive(txn: &Txn, table: u32, doc: DocId) -> Result<()> {
    txn.lock(&LockName::Table(table), LockMode::IX)?;
    txn.lock(&LockName::Document { table, doc }, LockMode::X)?;
    Ok(())
}

/// Take the §5.2 subtree reader locks: IS table, IS document, S subtree.
pub fn lock_subtree_shared(txn: &Txn, table: u32, doc: DocId, node: &NodeId) -> Result<()> {
    txn.lock(&LockName::Table(table), LockMode::IS)?;
    txn.lock(&LockName::Document { table, doc }, LockMode::IS)?;
    txn.lock(
        &LockName::Node {
            table,
            doc,
            node: node.as_bytes().to_vec(),
        },
        LockMode::S,
    )?;
    Ok(())
}

/// Take the §5.2 subtree writer locks: IX table, IX document, X subtree.
pub fn lock_subtree_exclusive(txn: &Txn, table: u32, doc: DocId, node: &NodeId) -> Result<()> {
    txn.lock(&LockName::Table(table), LockMode::IX)?;
    txn.lock(&LockName::Document { table, doc }, LockMode::IX)?;
    txn.lock(
        &LockName::Node {
            table,
            doc,
            node: node.as_bytes().to_vec(),
        },
        LockMode::X,
    )?;
    Ok(())
}

/// Non-blocking variant of [`lock_subtree_exclusive`]; returns whether all
/// three levels were granted (partial grants are left in place — they are
/// compatible intents — and released at transaction end).
pub fn try_lock_subtree_exclusive(
    txn: &Txn,
    table: u32,
    doc: DocId,
    node: &NodeId,
) -> Result<bool> {
    if !txn.try_lock(&LockName::Table(table), LockMode::IX)? {
        return Ok(false);
    }
    if !txn.try_lock(&LockName::Document { table, doc }, LockMode::IX)? {
        return Ok(false);
    }
    Ok(txn.try_lock(
        &LockName::Node {
            table,
            doc,
            node: node.as_bytes().to_vec(),
        },
        LockMode::X,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{LockManager, TxnManager};
    use std::sync::Arc;
    use std::time::Duration;

    fn mgr() -> Arc<TxnManager> {
        TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::new(Duration::from_millis(100)),
        )
    }

    fn nid(bytes: &[u8]) -> NodeId {
        NodeId::from_bytes(bytes).unwrap()
    }

    #[test]
    fn readers_share_documents() {
        let m = mgr();
        let r1 = m.begin().unwrap();
        let r2 = m.begin().unwrap();
        lock_document_shared(&r1, 1, 7).unwrap();
        lock_document_shared(&r2, 1, 7).unwrap();
        r1.commit().unwrap();
        r2.commit().unwrap();
    }

    #[test]
    fn writer_blocks_reader_of_same_document_only() {
        let m = mgr();
        let w = m.begin().unwrap();
        lock_document_exclusive(&w, 1, 7).unwrap();
        let r = m.begin().unwrap();
        // Same document: blocked (times out).
        assert!(lock_document_shared(&r, 1, 7).is_err());
        // Different document of the same table: fine.
        lock_document_shared(&r, 1, 8).unwrap();
        w.commit().unwrap();
        // Now the same document is readable.
        let r2 = m.begin().unwrap();
        lock_document_shared(&r2, 1, 7).unwrap();
        r.commit().unwrap();
        r2.commit().unwrap();
    }

    #[test]
    fn try_shared_never_waits_on_a_writer() {
        let m = mgr();
        let w = m.begin().unwrap();
        lock_document_exclusive(&w, 1, 7).unwrap();
        let r = m.begin().unwrap();
        let started = std::time::Instant::now();
        assert!(!try_lock_document_shared(&r, 1, 7).unwrap());
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "a refused try-lock must not wait for the lock timeout"
        );
        assert!(try_lock_document_shared(&r, 1, 8).unwrap());
        w.commit().unwrap();
        assert!(try_lock_document_shared(&r, 1, 7).unwrap());
        r.commit().unwrap();
    }

    #[test]
    fn partial_insert_invisible_to_docid_readers() {
        // The §5.1 "reading a partially inserted document" scenario: the
        // inserting txn holds X(doc) until commit, so a reader arriving from
        // a value index (locking the DocID) waits.
        let m = mgr();
        let ins = m.begin().unwrap();
        lock_document_exclusive(&ins, 1, 42).unwrap();
        let reader = m.begin().unwrap();
        assert!(
            !reader
                .try_lock(&LockName::Document { table: 1, doc: 42 }, LockMode::S)
                .unwrap(),
            "reader must not see the in-flight document"
        );
        ins.commit().unwrap();
        assert!(reader
            .try_lock(&LockName::Document { table: 1, doc: 42 }, LockMode::S)
            .unwrap());
        reader.commit().unwrap();
    }

    #[test]
    fn disjoint_subtrees_update_concurrently() {
        let m = mgr();
        let w1 = m.begin().unwrap();
        let w2 = m.begin().unwrap();
        // Two products of the same catalog document.
        lock_subtree_exclusive(&w1, 1, 5, &nid(&[0x02, 0x02])).unwrap();
        lock_subtree_exclusive(&w2, 1, 5, &nid(&[0x02, 0x04])).unwrap();
        w1.commit().unwrap();
        w2.commit().unwrap();
    }

    #[test]
    fn ancestor_descendant_subtrees_conflict() {
        let m = mgr();
        let w1 = m.begin().unwrap();
        lock_subtree_exclusive(&w1, 1, 5, &nid(&[0x02, 0x02])).unwrap();
        let w2 = m.begin().unwrap();
        // Descendant of the locked subtree.
        assert!(!try_lock_subtree_exclusive(&w2, 1, 5, &nid(&[0x02, 0x02, 0x04])).unwrap());
        // Ancestor (the root element).
        assert!(!try_lock_subtree_exclusive(&w2, 1, 5, &nid(&[0x02])).unwrap());
        // Same IDs in another document are unrelated.
        assert!(try_lock_subtree_exclusive(&w2, 1, 6, &nid(&[0x02, 0x02])).unwrap());
        w1.commit().unwrap();
        w2.commit().unwrap();
    }

    #[test]
    fn subtree_writer_compatible_with_other_doc_reader() {
        let m = mgr();
        let w = m.begin().unwrap();
        lock_subtree_exclusive(&w, 1, 5, &nid(&[0x02, 0x02])).unwrap();
        let r = m.begin().unwrap();
        // Reading a *different* subtree of the same document is allowed
        // (IS document lock is compatible with IX).
        lock_subtree_shared(&r, 1, 5, &nid(&[0x02, 0x04])).unwrap();
        // Reading the locked subtree is not.
        let r2 = m.begin().unwrap();
        r2.lock(&LockName::Table(1), LockMode::IS).unwrap();
        r2.lock(&LockName::Document { table: 1, doc: 5 }, LockMode::IS)
            .unwrap();
        assert!(!r2
            .try_lock(
                &LockName::Node {
                    table: 1,
                    doc: 5,
                    node: vec![0x02, 0x02]
                },
                LockMode::S
            )
            .unwrap());
        // A whole-document S lock is also blocked by the IX intent.
        let r3 = m.begin().unwrap();
        r3.lock(&LockName::Table(1), LockMode::IS).unwrap();
        assert!(!r3
            .try_lock(&LockName::Document { table: 1, doc: 5 }, LockMode::S)
            .unwrap());
        w.commit().unwrap();
        r.commit().unwrap();
        r2.commit().unwrap();
        r3.commit().unwrap();
    }
}
