//! Concurrency control protocols (§5).
//!
//! §5.1 document-level: "if we allow direct access to the XML data from value
//! indexes or from an uncommitted reader that does not lock the base table
//! rows, a DocID locking scheme is required" — readers take IS(table) +
//! S(document), writers IX(table) + X(document), so no reader ever sees a
//! partially inserted document.
//!
//! The document is also the only write unit: insert, delete and every
//! sub-document update take the same IX(table) + X(document). §5.2's node-ID
//! prefix locks would let writers of disjoint subtrees share a document, but
//! a packed record holds nodes of many subtrees and rollback puts back a
//! whole record's before-image, so one writer's rollback would undo another
//! writer's committed edit of the same record (DESIGN.md §5).

use crate::error::Result;
use crate::xmltable::DocId;
use rx_storage::{LockMode, LockName, Txn};

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

/// Take the §5.1 writer locks: IX on the table, X on the document. Every
/// write of a document takes them here: insert, delete and sub-document
/// update.
pub fn lock_document_exclusive(txn: &Txn, table: u32, doc: DocId) -> Result<()> {
    txn.lock(&LockName::Table(table), LockMode::IX)?;
    txn.lock(&LockName::Document { table, doc }, LockMode::X)?;
    Ok(())
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
}
