//! Baseline: LOB storage of XML documents.
//!
//! §3.1: "the limited operations for LOBs impose significant restrictions on
//! XML subdocument update if XML data were stored as LOB." Here a document is
//! an opaque byte string chunked across heap records; the only operations are
//! read-all and replace-all, so *any* sub-document update re-parses,
//! re-serializes and rewrites the entire document — the cost E3 measures
//! against the native packed format.

use rx_engine::error::{EngineError, Result};
use rx_engine::xmltable::DocId;
use rx_storage::{BTree, HeapTable, Rid, TableSpace};
use std::sync::Arc;

/// Anchor of the LOB directory index.
pub const LOB_DIR_ANCHOR: usize = 2;

/// Chunk payload size (fits a heap record with headroom).
pub const LOB_CHUNK: usize = 3800;

fn chunk_key(doc: DocId, seq: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(12);
    k.extend_from_slice(&doc.to_be_bytes());
    k.extend_from_slice(&seq.to_be_bytes());
    k
}

/// A LOB store for XML documents.
pub struct LobStore {
    heap: Arc<HeapTable>,
    dir: Arc<BTree>,
}

impl LobStore {
    /// Create in `space`.
    pub fn create(space: Arc<TableSpace>) -> Result<LobStore> {
        let heap = HeapTable::create(space.clone())?;
        let dir = BTree::create(space, LOB_DIR_ANCHOR)?;
        Ok(LobStore { heap, dir })
    }

    /// Store a document's text, chunked. Returns bytes written.
    pub fn insert(&self, doc: DocId, text: &str) -> Result<u64> {
        let bytes = text.as_bytes();
        let mut written = 0u64;
        for (seq, chunk) in bytes.chunks(LOB_CHUNK).enumerate() {
            let rid = self.heap.insert(chunk)?;
            self.dir.insert(&chunk_key(doc, seq as u32), rid.to_u64())?;
            written += chunk.len() as u64;
        }
        if bytes.is_empty() {
            let rid = self.heap.insert(&[])?;
            self.dir.insert(&chunk_key(doc, 0), rid.to_u64())?;
        }
        Ok(written)
    }

    /// Read the whole document back.
    pub fn read(&self, doc: DocId) -> Result<String> {
        let mut out: Vec<u8> = Vec::new();
        let mut found = false;
        self.dir.scan_prefix(&doc.to_be_bytes(), |_, v| {
            found = true;
            if let Ok(chunk) = self.heap.fetch(Rid::from_u64(v)) {
                out.extend_from_slice(&chunk);
            }
            true
        })?;
        if !found {
            return Err(EngineError::NotFound {
                kind: "document",
                name: format!("docid {doc}"),
            });
        }
        String::from_utf8(out).map_err(|_| EngineError::Record("LOB is not UTF-8".into()))
    }

    /// Delete all chunks of a document.
    pub fn delete(&self, doc: DocId) -> Result<()> {
        let mut keys: Vec<(Vec<u8>, Rid)> = Vec::new();
        self.dir.scan_prefix(&doc.to_be_bytes(), |k, v| {
            keys.push((k.to_vec(), Rid::from_u64(v)));
            true
        })?;
        for (k, rid) in keys {
            self.dir.delete(&k)?;
            self.heap.delete(rid)?;
        }
        Ok(())
    }

    /// Replace the whole document (the only way LOBs update). Returns bytes
    /// written — always the full document size.
    pub fn replace(&self, doc: DocId, text: &str) -> Result<u64> {
        self.delete(doc)?;
        self.insert(doc, text)
    }

    /// "Sub-document update" under LOB storage: read all, edit the text,
    /// rewrite all. `edit` maps the old document text to the new one.
    /// Returns (bytes read, bytes written).
    pub fn update_via_rewrite(
        &self,
        doc: DocId,
        edit: impl FnOnce(String) -> Result<String>,
    ) -> Result<(u64, u64)> {
        let old = self.read(doc)?;
        let read = old.len() as u64;
        let new = edit(old)?;
        let written = self.replace(doc, &new)?;
        Ok((read, written))
    }

    /// Storage statistics: (heap pages, chunks, chunk bytes).
    pub fn stats(&self) -> Result<(u64, u64, u64)> {
        let h = self.heap.stats()?;
        Ok((h.pages, h.records, h.record_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_storage::{BufferPool, MemBackend};

    fn store() -> LobStore {
        let pool = BufferPool::new(2048);
        let space = TableSpace::create(pool, 40, Arc::new(MemBackend::new())).unwrap();
        LobStore::create(space).unwrap()
    }

    #[test]
    fn roundtrip_small_and_large() {
        let s = store();
        s.insert(1, "<a>small</a>").unwrap();
        let big = format!("<r>{}</r>", "x".repeat(20_000));
        s.insert(2, &big).unwrap();
        assert_eq!(s.read(1).unwrap(), "<a>small</a>");
        assert_eq!(s.read(2).unwrap(), big);
        let (_, chunks, _) = s.stats().unwrap();
        assert!(chunks > 5, "large doc must span chunks, got {chunks}");
    }

    #[test]
    fn update_rewrites_everything() {
        let s = store();
        let doc = format!("<r><v>old</v>{}</r>", "pad".repeat(3000));
        let size = doc.len() as u64;
        s.insert(1, &doc).unwrap();
        let (read, written) = s
            .update_via_rewrite(1, |text| Ok(text.replace("<v>old</v>", "<v>new</v>")))
            .unwrap();
        assert_eq!(read, size, "whole document read");
        assert_eq!(written, size, "whole document rewritten");
        assert!(s.read(1).unwrap().contains("<v>new</v>"));
    }

    #[test]
    fn delete_and_missing() {
        let s = store();
        s.insert(5, "<x/>").unwrap();
        s.delete(5).unwrap();
        assert!(s.read(5).is_err());
        assert!(s.read(99).is_err());
    }
}
