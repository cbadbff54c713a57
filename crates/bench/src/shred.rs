//! Baseline: one-node-per-row relational shredding.
//!
//! §3.1 analyzes "the relational representation of one row per node (or
//! edge) \[28\]" (Tian, DeWitt, Chen, Zhang): a tree of k nodes costs
//! `k·(n+b+v)` bytes of storage with `k` index entries, and traversal pays
//! one index-driven fetch ("relational join") per node — time `(k-1)·t` —
//! whereas the packed scheme pays `k·t/p`. This module implements that
//! storage model faithfully on the *same* heap/B+tree infrastructure so the
//! E1/E2/E3 comparisons isolate the representation, not the substrate.
//!
//! Each node is one heap row `(DocID, NodeID, kind, name, value)` with one
//! `(DocID, NodeID) → RID` index entry. Node IDs are the same Dewey IDs the
//! native engine assigns, so results are directly comparable.

use rx_engine::error::{EngineError, Result};
use rx_engine::xmltable::{nodeid_key, DocId};
use rx_storage::codec::{Dec, Enc};
use rx_storage::{BTree, HeapTable, Rid, TableSpace};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::QNameId;
use rx_xml::nodeid::{NodeId, RelId};
use rx_xml::value::TypeAnn;
use std::sync::Arc;

/// Anchor of the per-node index within the shredded table's space.
pub const SHRED_INDEX_ANCHOR: usize = 2;

/// Node kinds stored in shredded rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShredKind {
    /// Element.
    Element = 1,
    /// Attribute.
    Attribute = 2,
    /// Text.
    Text = 3,
    /// Comment.
    Comment = 4,
    /// Processing instruction.
    Pi = 5,
}

/// One decoded shredded node row.
#[derive(Debug, Clone, PartialEq)]
pub struct ShredNode {
    /// Owning document.
    pub doc: DocId,
    /// Absolute Dewey node ID.
    pub node: NodeId,
    /// Kind.
    pub kind: ShredKind,
    /// Name (elements, attributes, PI targets); 0 otherwise.
    pub name: QNameId,
    /// Value (texts, attributes, comments, PI data); empty for elements.
    pub value: String,
}

fn encode_node(n: &ShredNode) -> Vec<u8> {
    let mut e = Enc::with_capacity(24 + n.value.len());
    e.u64(n.doc);
    e.bytes(n.node.as_bytes());
    e.u8(n.kind as u8);
    e.varint(u64::from(n.name));
    e.str(&n.value);
    e.into_bytes()
}

fn decode_node(rec: &[u8]) -> Result<ShredNode> {
    let mut d = Dec::new(rec);
    let doc = d.u64()?;
    let node = NodeId::from_bytes_unchecked(d.bytes()?.to_vec());
    let kind = match d.u8()? {
        1 => ShredKind::Element,
        2 => ShredKind::Attribute,
        3 => ShredKind::Text,
        4 => ShredKind::Comment,
        5 => ShredKind::Pi,
        other => return Err(EngineError::Record(format!("bad shred kind byte {other}"))),
    };
    let name = d.varint()? as QNameId;
    let value = d.str()?.to_string();
    Ok(ShredNode {
        doc,
        node,
        kind,
        name,
        value,
    })
}

/// The shredded store: node-row heap + per-node index.
pub struct ShreddedStore {
    heap: Arc<HeapTable>,
    index: Arc<BTree>,
}

impl ShreddedStore {
    /// Create in `space`.
    pub fn create(space: Arc<TableSpace>) -> Result<ShreddedStore> {
        let heap = HeapTable::create(space.clone())?;
        let index = BTree::create(space, SHRED_INDEX_ANCHOR)?;
        Ok(ShreddedStore { heap, index })
    }

    /// Insert one document from an event stream, assigning Dewey IDs exactly
    /// like the native packer.
    pub fn insert_document(
        &self,
        doc: DocId,
        drive: impl FnOnce(&mut dyn EventSink) -> Result<()>,
    ) -> Result<u64> {
        struct Sink<'a> {
            store: &'a ShreddedStore,
            doc: DocId,
            stack: Vec<(NodeId, Option<RelId>)>,
            count: u64,
            err: Option<EngineError>,
        }
        impl Sink<'_> {
            fn alloc(&mut self) -> NodeId {
                let (abs, next) = self.stack.last_mut().expect("root frame");
                let rel = match next {
                    None => RelId::first(),
                    Some(prev) => prev.next_sibling(),
                };
                *next = Some(rel.clone());
                abs.child(&rel)
            }
            fn put(&mut self, kind: ShredKind, name: QNameId, value: &str, id: NodeId) {
                let row = encode_node(&ShredNode {
                    doc: self.doc,
                    node: id.clone(),
                    kind,
                    name,
                    value: value.to_string(),
                });
                let r = (|| -> Result<()> {
                    let rid = self.store.heap.insert(&row)?;
                    self.store
                        .index
                        .insert(&nodeid_key(self.doc, &id), rid.to_u64())?;
                    Ok(())
                })();
                if let Err(e) = r {
                    self.err.get_or_insert(e);
                }
                self.count += 1;
            }
        }
        impl EventSink for Sink<'_> {
            fn event(&mut self, ev: Event<'_>) -> rx_xml::Result<()> {
                match ev {
                    Event::StartDocument | Event::EndDocument | Event::NamespaceDecl { .. } => {}
                    Event::StartElement { name } => {
                        let id = self.alloc();
                        self.put(ShredKind::Element, name, "", id.clone());
                        self.stack.push((id, None));
                    }
                    Event::EndElement => {
                        self.stack.pop();
                    }
                    Event::Attribute { name, value, .. } => {
                        let id = self.alloc();
                        self.put(ShredKind::Attribute, name, value, id);
                    }
                    Event::Text { value, .. } => {
                        let id = self.alloc();
                        self.put(ShredKind::Text, 0, value, id);
                    }
                    Event::Comment { value } => {
                        let id = self.alloc();
                        self.put(ShredKind::Comment, 0, value, id);
                    }
                    Event::Pi { target, data } => {
                        let id = self.alloc();
                        self.put(ShredKind::Pi, target, data, id);
                    }
                }
                Ok(())
            }
        }
        let mut sink = Sink {
            store: self,
            doc,
            stack: vec![(NodeId::root(), None)],
            count: 0,
            err: None,
        };
        drive(&mut sink)?;
        if let Some(e) = sink.err {
            return Err(e);
        }
        Ok(sink.count)
    }

    /// Traverse a document in order, emitting events. Every node costs one
    /// index step plus one heap fetch — the per-node "join" of the paper's
    /// analysis. Returns the number of heap fetches performed.
    pub fn traverse(&self, doc: DocId, sink: &mut dyn EventSink) -> Result<u64> {
        // Collect the document's index entries in node-ID order.
        let mut entries: Vec<(NodeId, Rid)> = Vec::new();
        self.index.scan_prefix(&doc.to_be_bytes(), |k, v| {
            let node = NodeId::from_bytes_unchecked(k[8..].to_vec());
            entries.push((node, Rid::from_u64(v)));
            true
        })?;
        sink.event(Event::StartDocument)?;
        let mut open: Vec<NodeId> = Vec::new();
        let mut fetches = 0u64;
        for (node, rid) in entries {
            // Close elements that do not contain this node.
            while let Some(top) = open.last() {
                if top.is_ancestor(&node) {
                    break;
                }
                sink.event(Event::EndElement)?;
                open.pop();
            }
            let rec = self.heap.fetch(rid)?; // the per-node fetch
            fetches += 1;
            let n = decode_node(&rec)?;
            match n.kind {
                ShredKind::Element => {
                    sink.event(Event::StartElement { name: n.name })?;
                    open.push(node);
                }
                ShredKind::Attribute => sink.event(Event::Attribute {
                    name: n.name,
                    value: &n.value,
                    ann: TypeAnn::Untyped,
                })?,
                ShredKind::Text => sink.event(Event::Text {
                    value: &n.value,
                    ann: TypeAnn::Untyped,
                })?,
                ShredKind::Comment => sink.event(Event::Comment { value: &n.value })?,
                ShredKind::Pi => sink.event(Event::Pi {
                    target: n.name,
                    data: &n.value,
                })?,
            }
        }
        while open.pop().is_some() {
            sink.event(Event::EndElement)?;
        }
        sink.event(Event::EndDocument)?;
        Ok(fetches)
    }

    /// Update one node's value in place — touches exactly one small row
    /// (`n` bytes), the shredded scheme's strength in the §3.1 analysis.
    /// Returns the bytes written.
    pub fn update_value(&self, doc: DocId, node: &NodeId, value: &str) -> Result<u64> {
        let key = nodeid_key(doc, node);
        let Some(rid) = self.index.search(&key)? else {
            return Err(EngineError::NotFound {
                kind: "node",
                name: format!("docid {doc} node {node}"),
            });
        };
        let rid = Rid::from_u64(rid);
        let rec = self.heap.fetch(rid)?;
        let mut n = decode_node(&rec)?;
        n.value = value.to_string();
        let row = encode_node(&n);
        let new_rid = self.heap.update(rid, &row)?;
        if new_rid != rid {
            self.index.insert(&key, new_rid.to_u64())?;
        }
        Ok(row.len() as u64)
    }

    /// Storage statistics: (heap pages, rows, row bytes, index entries,
    /// index pages).
    pub fn stats(&self) -> Result<(u64, u64, u64, u64, u64)> {
        let h = self.heap.stats()?;
        Ok((
            h.pages,
            h.records,
            h.record_bytes,
            self.index.len()?,
            self.index.page_count()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_storage::{BufferPool, MemBackend};
    use rx_xml::name::NameDict;
    use rx_xml::{Parser, Serializer};

    fn store() -> (ShreddedStore, NameDict) {
        let pool = BufferPool::new(2048);
        let space = TableSpace::create(pool, 30, Arc::new(MemBackend::new())).unwrap();
        (ShreddedStore::create(space).unwrap(), NameDict::new())
    }

    fn insert(s: &ShreddedStore, dict: &NameDict, doc: DocId, text: &str) -> u64 {
        s.insert_document(doc, |sink| {
            Parser::new(dict).parse(text, sink).map_err(Into::into)
        })
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let (s, dict) = store();
        let doc = r#"<a x="1"><b>hi</b><c/><!--n--><?p q?></a>"#;
        let n = insert(&s, &dict, 1, doc);
        assert_eq!(n, 7); // a, @x, b, text, c, comment, pi
        let mut ser = Serializer::new(&dict);
        let fetches = s.traverse(1, &mut ser).unwrap();
        assert_eq!(ser.finish(), doc);
        assert_eq!(fetches, 7, "one fetch per node");
    }

    #[test]
    fn one_index_entry_per_node() {
        let (s, dict) = store();
        let doc = format!(
            "<r>{}</r>",
            (0..50).map(|i| format!("<p>{i}</p>")).collect::<String>()
        );
        let n = insert(&s, &dict, 1, &doc);
        let (_, rows, _, entries, _) = s.stats().unwrap();
        assert_eq!(rows, n);
        assert_eq!(entries, n, "shredding stores k index entries for k nodes");
    }

    #[test]
    fn single_node_update_touches_one_row() {
        let (s, dict) = store();
        insert(&s, &dict, 1, "<a><b>old-value</b></a>");
        // b's text node: 02 02 02.
        let t = NodeId::from_bytes(&[0x02, 0x02, 0x02]).unwrap();
        let bytes = s.update_value(1, &t, "new-value").unwrap();
        assert!(bytes < 50, "touches only the one row, got {bytes}");
        let mut ser = Serializer::new(&dict);
        s.traverse(1, &mut ser).unwrap();
        assert_eq!(ser.finish(), "<a><b>new-value</b></a>");
    }

    #[test]
    fn multiple_documents() {
        let (s, dict) = store();
        for d in 1..=3u64 {
            insert(&s, &dict, d, &format!("<v>{d}</v>"));
        }
        for d in 1..=3u64 {
            let mut ser = Serializer::new(&dict);
            s.traverse(d, &mut ser).unwrap();
            assert_eq!(ser.finish(), format!("<v>{d}</v>"));
        }
    }
}
