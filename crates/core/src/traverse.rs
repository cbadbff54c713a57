//! Traversal of stored XML data (§3.4).
//!
//! "To traverse in document order a persistently stored XML document with a
//! given docid value, first the NodeID index is searched with (docid, 00) as
//! the key. The root record can be identified. The XMLData is then traversed.
//! If a proxy node is encountered, its node ID nodeid is used to search the
//! NodeID index … Stacking has to be used during traversal. At a higher
//! level, the records form a block-based tree, and traversal of this tree is
//! also in a depth-first order."
//!
//! The traversal pushes virtual SAX events annotated with absolute node IDs,
//! so the same visitor drives serialization (ignore the IDs), QuickXScan
//! re-evaluation (`QuickXScan` is itself an [`IdEventSink`]), and value-index
//! maintenance.
//!
//! IDs are **borrowed**: the traverser keeps one Dewey-ID byte buffer, pushes
//! each node's relative ID onto it, hands the sink `&[u8]` for the duration
//! of the call, and truncates it again — no allocation per node. A sink that
//! keeps an ID copies it.
//!
//! Sinks may also **decline an element's content** through
//! [`IdEventSink::wants_content`], asked right after the element's start.
//! The traverser then jumps over the content with the packed subtree length
//! (§3.1) — nothing inside is decoded, and proxy records inside it are never
//! fetched — and sends the element's end next.

use crate::doccache::CachedDoc;
use crate::error::{EngineError, Result};
use crate::pack::{find, read_nodes, NodeView};
use crate::xmltable::{DocId, LoadedRecord, XmlTable};
use rx_storage::Rid;
use rx_xml::event::{Event, EventSink};
use rx_xml::nodeid::NodeId;
use rx_xml::value::TypeAnn;
use rx_xpath::QuickXScan;
use std::sync::Arc;

/// A visitor receiving `(node id, event)` pairs from stored-document
/// traversal. Start/End document and namespace events carry the context/root
/// IDs of their record.
pub trait IdEventSink {
    /// Handle one identified event. `id` is the node's absolute Dewey ID,
    /// borrowed from the traverser for the duration of the call.
    fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> Result<()>;

    /// Asked right after an element's start (and namespace declarations):
    /// `false` declines the element's content, which the traverser then
    /// skips, sending the element's end next. The default wants everything.
    fn wants_content(&self) -> bool {
        true
    }
}

/// Adapter: drop the node IDs and forward plain events (e.g. into the
/// serializer).
pub struct DropIds<'a, S: EventSink + ?Sized>(pub &'a mut S);

impl<S: EventSink + ?Sized> IdEventSink for DropIds<'_, S> {
    fn id_event(&mut self, _id: &[u8], ev: Event<'_>) -> Result<()> {
        self.0.event(ev).map_err(EngineError::from)
    }
}

/// QuickXScan over stored data: each event's ID becomes the scanner's
/// current node, and the scanner's skip rule decides which element contents
/// are worth replaying.
impl IdEventSink for QuickXScan<'_, '_> {
    fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> Result<()> {
        self.set_current_node(id);
        self.event(ev)?;
        Ok(())
    }

    fn wants_content(&self) -> bool {
        QuickXScan::wants_content(self)
    }
}

/// Counters for traversal experiments (E2).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraverseStats {
    /// Records fetched from the heap.
    pub records_fetched: u64,
    /// NodeID-index probes performed (root lookup + proxy resolutions).
    pub index_probes: u64,
    /// Nodes visited.
    pub nodes: u64,
    /// Element contents the sink declined and the traversal jumped over.
    pub subtrees_skipped: u64,
}

/// Depth-first, document-order traversal of one stored document.
///
/// When the XML table carries a document cache and the document has a
/// snapshot, every locate resolves with an in-memory binary search and every
/// record is an `Arc` clone — zero index probes, zero heap fetches. A
/// *publishing* traverser, whose caller vouches that its transaction holds
/// the document's S lock and has logged nothing (as a
/// [`crate::access::DocScanner`] built with `publish` does), also builds
/// and publishes a snapshot when a full [`Traverser::run`] finds none; every
/// other traverser only reads the cache.
pub struct Traverser<'x> {
    xml: &'x XmlTable,
    doc: DocId,
    cached: Option<Arc<CachedDoc>>,
    /// Whether a full run over an uncached document publishes a snapshot:
    /// set only when the caller's transaction holds the document's S lock
    /// and has logged nothing (DESIGN.md §11.2).
    publish: bool,
    /// Ceiling-probe memo for the cold path: `(memo_probe, memo_upper,
    /// memo_rec)` of the last successful locate. For sorted probe sequences
    /// (an exact NodeID list's anchors, nested subtree descents) any probe `p`
    /// with `last_probe <= p <= upper` must resolve to the same record —
    /// there is no index entry in `[last_probe, upper)` or the previous
    /// ceiling probe would have returned it — so consecutive anchors sharing
    /// a record cost one probe + one fetch instead of one each. The two key
    /// buffers are reused across [`Traverser::rebind`].
    memo_probe: Vec<u8>,
    memo_upper: Vec<u8>,
    memo_rec: Option<LoadedRecord>,
    /// The document's root record as located by the caller's range scan of
    /// the NodeID index ([`Traverser::seed_root`]); its interval upper waits
    /// in `memo_upper`. Consumed by the first `(docid, 00)` locate.
    root_hint: Option<Rid>,
    /// Absolute ID of the node being replayed; while a region is replayed it
    /// holds the region's context (parent) ID.
    id: Vec<u8>,
    /// Counters.
    pub stats: TraverseStats,
}

impl<'x> Traverser<'x> {
    /// Bind to a document of an XML table, adopting a cached snapshot when
    /// the table's document cache holds one. It never publishes.
    pub fn new(xml: &'x XmlTable, doc: DocId) -> Self {
        let mut t = Self::unbound(xml, false);
        t.rebind(doc);
        t
    }

    /// A traverser of `xml` bound to no document yet (it looks nothing up
    /// in the document cache); [`Traverser::rebind`] binds it. With
    /// `publish`, the caller vouches that its transaction holds the S lock
    /// of every document it binds and has logged nothing.
    pub(crate) fn unbound(xml: &'x XmlTable, publish: bool) -> Self {
        Traverser {
            xml,
            doc: 0,
            cached: None,
            publish,
            memo_probe: Vec::new(),
            memo_upper: Vec::new(),
            memo_rec: None,
            root_hint: None,
            id: Vec::new(),
            stats: TraverseStats::default(),
        }
    }

    /// Bind to another document of the same table, as [`Traverser::new`]
    /// would, but keeping the key and ID buffers. Counters restart at zero.
    pub fn rebind(&mut self, doc: DocId) {
        let xml = self.xml;
        self.doc = doc;
        self.cached = xml
            .doc_cache()
            .filter(|c| c.enabled())
            .and_then(|c| c.get(xml.space_id(), doc));
        self.memo_rec = None;
        self.root_hint = None;
        self.id.clear();
        self.stats = TraverseStats::default();
    }

    /// Hand the traverser the document's root record, located by the caller
    /// as the first NodeID-index entry with this DocID prefix: the entry
    /// whose interval `upper` is the ceiling of `(docid, 00)`, at `rid`. The
    /// §3.4 root locate then fetches `rid` instead of probing the index and
    /// memoizes it exactly as the probe would have. The hint is used only if
    /// the row at `rid` belongs to this document; otherwise (or when the
    /// fetch fails) the locate probes as usual.
    pub fn seed_root(&mut self, upper: &[u8], rid: Rid) {
        self.memo_rec = None;
        self.memo_upper.clear();
        self.memo_upper.extend_from_slice(upper);
        self.root_hint = Some(rid);
    }

    /// The XML table this traverser reads.
    pub fn xml(&self) -> &'x XmlTable {
        self.xml
    }

    /// Resolve the record owning the first interval upper at-or-above
    /// `probe` (which, for subtree successors, may not be a well-formed node
    /// ID): warm from the snapshot, cold through the memoized NodeID ceiling
    /// probe.
    fn locate_ceil(&mut self, probe: &[u8]) -> Result<Option<LoadedRecord>> {
        if let Some(c) = &self.cached {
            return Ok(c.locate(probe).cloned());
        }
        if let Some(rec) = &self.memo_rec {
            if probe >= self.memo_probe.as_slice() && probe <= self.memo_upper.as_slice() {
                return Ok(Some(rec.clone()));
            }
        }
        if probe.is_empty() {
            if let Some(rid) = self.root_hint.take() {
                // The row must still be this document's: a stale hint (an
                // unlocked read racing a delete) falls back to the probe.
                let seeded = self.xml.read(rid).ok().filter(|rec| rec.doc() == self.doc);
                if let Some(rec) = seeded {
                    self.stats.records_fetched += 1;
                    self.memo_probe.clear();
                    self.memo_rec = Some(rec.clone());
                    return Ok(Some(rec));
                }
            }
        }
        self.stats.index_probes += 1;
        let Some(found) = self.xml.locate(self.doc, probe)? else {
            return Ok(None);
        };
        self.stats.records_fetched += 1;
        let rec = self.xml.read(found.rid)?;
        self.memo_probe.clear();
        self.memo_probe.extend_from_slice(probe);
        self.memo_upper.clear();
        self.memo_upper.extend_from_slice(found.upper());
        self.memo_rec = Some(rec.clone());
        Ok(Some(rec))
    }

    /// Find `node`'s entry in the record that holds it and hand it to `f`;
    /// `None` when no record holds the node.
    fn at_node<T>(
        &mut self,
        node: &NodeId,
        f: impl FnOnce(&mut Self, &NodeView<'_>) -> Result<T>,
    ) -> Result<Option<T>> {
        let Some(rec) = self.locate_ceil(node.as_bytes())? else {
            return Ok(None);
        };
        let ctx = rec.header().context.as_bytes();
        match find(rec.region(), ctx, node.as_bytes())? {
            Some(place) => f(self, &place.entry).map(Some),
            None => Ok(None),
        }
    }

    /// Read-through populate of a publishing traverser: build the
    /// document's snapshot and install it in the cache.
    fn try_populate(&mut self) -> Result<()> {
        if !self.publish || self.cached.is_some() {
            return Ok(());
        }
        let Some(cache) = self.xml.doc_cache().filter(|c| c.enabled()) else {
            return Ok(());
        };
        if let Some(built) = CachedDoc::build(self.xml, self.doc, &mut self.stats)? {
            let built = Arc::new(built);
            cache.insert(self.xml.space_id(), self.doc, Arc::clone(&built));
            self.cached = Some(built);
        }
        Ok(())
    }

    /// Traverse the whole document, emitting events (with IDs) into `sink`.
    pub fn run(&mut self, sink: &mut dyn IdEventSink) -> Result<()> {
        sink.id_event(&[], Event::StartDocument)?;
        // Warm the cache read-through so the next traversal of this
        // document is free (the snapshot holds every record, also those
        // inside content the sink will decline).
        self.try_populate()?;
        // §3.4: search the NodeID index with (docid, 00).
        let Some(rec) = self.locate_ceil(&[])? else {
            return Err(EngineError::NotFound {
                kind: "document",
                name: format!("docid {}", self.doc),
            });
        };
        self.id.clear();
        self.id.extend_from_slice(rec.header().context.as_bytes());
        self.replay_region(rec.region(), sink)?;
        sink.id_event(&[], Event::EndDocument)
    }

    /// Traverse only the subtree rooted at `node` (used to serialize query
    /// results fetched through value indexes).
    pub fn run_subtree(&mut self, node: &NodeId, sink: &mut dyn IdEventSink) -> Result<()> {
        let replayed = self.at_node(node, |t, entry| {
            let parent = &node.as_bytes()[..node.as_bytes().len() - entry.rel().len()];
            t.id.clear();
            t.id.extend_from_slice(parent);
            t.replay_entry(entry, sink)
        })?;
        replayed.ok_or_else(|| EngineError::NotFound {
            kind: "node",
            name: format!("docid {} node {}", self.doc, node),
        })
    }

    /// The string value of the subtree rooted at `node` (see the module-level
    /// [`string_value`]); as a method it shares the traverser's snapshot and
    /// probe memo across calls, so evaluating many anchors of one document
    /// re-fetches nothing when consecutive anchors live in the same record.
    pub fn string_value(&mut self, node: &NodeId) -> Result<String> {
        struct Collect<'n> {
            out: String,
            root: &'n [u8],
        }
        impl IdEventSink for Collect<'_> {
            fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> Result<()> {
                match ev {
                    Event::Text { value, .. } => self.out.push_str(value),
                    // Only the target attribute itself contributes its
                    // value; attributes of descendant elements do not.
                    Event::Attribute { value, .. } if id == self.root => {
                        self.out.push_str(value);
                    }
                    _ => {}
                }
                Ok(())
            }
        }
        let mut c = Collect {
            out: String::new(),
            root: node.as_bytes(),
        };
        self.run_subtree(node, &mut c)?;
        Ok(c.out)
    }

    /// Look up a single node's kind/value (see the module-level
    /// [`fetch_node`]), sharing the snapshot and probe memo.
    pub fn fetch_node(&mut self, node: &NodeId) -> Result<Option<StoredNode>> {
        self.at_node(node, |_, entry| {
            Ok(match *entry {
                NodeView::Element { name, .. } => StoredNode::Element { name },
                NodeView::Attribute {
                    name, ann, value, ..
                } => StoredNode::Attribute {
                    name,
                    value: value.to_string(),
                    ann,
                },
                NodeView::Text { ann, value, .. } => StoredNode::Text {
                    value: value.to_string(),
                    ann,
                },
                NodeView::Comment { value, .. } => StoredNode::Comment {
                    value: value.to_string(),
                },
                NodeView::Pi { target, value, .. } => StoredNode::Pi {
                    target,
                    value: value.to_string(),
                },
                NodeView::Proxy { .. } => unreachable!("the finder returns no proxy"),
            })
        })
    }

    /// Replay all sibling entries of a region whose parent is the node in
    /// the ID buffer.
    fn replay_region(&mut self, region: &[u8], sink: &mut dyn IdEventSink) -> Result<()> {
        for entry in read_nodes(region) {
            self.replay_entry(&entry?, sink)?;
        }
        Ok(())
    }

    /// Replay one entry whose parent is the node in the ID buffer: push its
    /// relative ID, emit, truncate.
    fn replay_entry(&mut self, entry: &NodeView<'_>, sink: &mut dyn IdEventSink) -> Result<()> {
        if let NodeView::Proxy { first, count, .. } = entry {
            return self.replay_proxy(first, *count, sink);
        }
        let ctx_len = self.id.len();
        self.id.extend_from_slice(entry.rel());
        self.stats.nodes += 1;
        match entry {
            NodeView::Element {
                name,
                nsdecls,
                content,
                ..
            } => {
                sink.id_event(&self.id, Event::StartElement { name: *name })?;
                for (prefix, uri) in nsdecls.iter() {
                    sink.id_event(&self.id, Event::NamespaceDecl { prefix, uri })?;
                }
                if sink.wants_content() {
                    self.replay_region(content, sink)?;
                } else {
                    self.stats.subtrees_skipped += 1;
                }
                sink.id_event(&self.id, Event::EndElement)?;
            }
            NodeView::Attribute {
                name, ann, value, ..
            } => sink.id_event(
                &self.id,
                Event::Attribute {
                    name: *name,
                    value,
                    ann: *ann,
                },
            )?,
            NodeView::Text { ann, value, .. } => {
                sink.id_event(&self.id, Event::Text { value, ann: *ann })?
            }
            NodeView::Comment { value, .. } => sink.id_event(&self.id, Event::Comment { value })?,
            NodeView::Pi { target, value, .. } => sink.id_event(
                &self.id,
                Event::Pi {
                    target: *target,
                    data: value,
                },
            )?,
            NodeView::Proxy { .. } => unreachable!("handled above"),
        }
        self.id.truncate(ctx_len);
        Ok(())
    }

    /// Resolve a range proxy through the NodeID index, record by record
    /// (§3.4's block-tree descent), replaying the `count` sibling subtrees
    /// it covers.
    fn replay_proxy(&mut self, first: &[u8], count: u64, sink: &mut dyn IdEventSink) -> Result<()> {
        let ctx_len = self.id.len();
        let mut remaining = count;
        let mut probe = Vec::with_capacity(ctx_len + first.len());
        probe.extend_from_slice(&self.id);
        probe.extend_from_slice(first);
        while remaining > 0 {
            let Some(rec) = self.locate_ceil(&probe)? else {
                return Err(EngineError::Record(format!(
                    "dangling proxy: no record covers doc {} id {:02x?}",
                    self.doc, probe
                )));
            };
            if rec.header().context.as_bytes() != self.id.as_slice() {
                return Err(EngineError::Record(format!(
                    "proxy resolution landed on record with context {} (expected {})",
                    rec.header().context,
                    NodeId::from_bytes_unchecked(self.id.clone())
                )));
            }
            let mut progressed = false;
            for entry in read_nodes(rec.region()) {
                let entry = entry?;
                if remaining == 0 {
                    break;
                }
                remaining = match entry {
                    NodeView::Proxy { count, .. } => remaining.saturating_sub(count),
                    _ => remaining - 1,
                };
                // The next probe is the successor of the subtree just
                // covered.
                probe.truncate(ctx_len);
                probe.extend_from_slice(entry.last());
                *probe.last_mut().expect("relative IDs are non-empty") += 1;
                progressed = true;
                self.replay_entry(&entry, sink)?;
            }
            if !progressed {
                return Err(EngineError::Record(
                    "proxy resolution made no progress".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The string value of the subtree rooted at `node`: concatenated descendant
/// *text* (attributes of descendant elements are excluded, per the XDM);
/// for an attribute node itself, the attribute value.
pub fn string_value(xml: &XmlTable, doc: DocId, node: &NodeId) -> Result<String> {
    Traverser::new(xml, doc).string_value(node)
}

/// Fetch one node's kind/value without replaying its whole subtree (the
/// "all the information required by the data model is available" accessor).
#[derive(Debug, Clone, PartialEq)]
pub enum StoredNode {
    /// An element (name id).
    Element {
        /// Name.
        name: rx_xml::QNameId,
    },
    /// An attribute.
    Attribute {
        /// Name.
        name: rx_xml::QNameId,
        /// Value.
        value: String,
        /// Annotation.
        ann: TypeAnn,
    },
    /// A text node.
    Text {
        /// Content.
        value: String,
        /// Annotation.
        ann: TypeAnn,
    },
    /// A comment node.
    Comment {
        /// Content.
        value: String,
    },
    /// A processing instruction.
    Pi {
        /// Target name.
        target: rx_xml::QNameId,
        /// Data.
        value: String,
    },
}

/// Look up a single node by `(docid, nodeid)` — the access path used when an
/// XPath value index hands back a logical node reference (§3.4).
pub fn fetch_node(xml: &XmlTable, doc: DocId, node: &NodeId) -> Result<Option<StoredNode>> {
    Traverser::new(xml, doc).fetch_node(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{fig5_emp_ctor, Constructed, Template};
    use crate::pack::{NoObserver, Packer};
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{BufferPool, LockManager, MemBackend, TableSpace, TxnManager};
    use rx_xml::name::NameDict;
    use rx_xml::parser::Parser;
    use rx_xml::serialize::Serializer;
    use rx_xpath::quickxscan::QuickXScan;
    use rx_xpath::{QueryTree, XPathParser};
    use std::sync::Arc;

    fn store(input: &str, target: usize) -> (XmlTable, NameDict) {
        let pool = BufferPool::new(512);
        let space = TableSpace::create(pool, 10, Arc::new(MemBackend::new())).unwrap();
        let xt = XmlTable::create(space).unwrap();
        let dict = NameDict::new();
        let txns = TxnManager::new(
            Wal::new(Arc::new(MemLogStore::new())),
            LockManager::with_defaults(),
        );
        let mut records = Vec::new();
        let mut obs = NoObserver;
        let mut p = Packer::with_target(target, &mut records, &mut obs);
        Parser::new(&dict).parse(input, &mut p).unwrap();
        p.finish().unwrap();
        let txn = txns.begin().unwrap();
        for r in &records {
            xt.insert_record(&txn, 1, r).unwrap();
        }
        txn.commit().unwrap();
        (xt, dict)
    }

    fn roundtrip(input: &str, target: usize) -> String {
        let (xt, dict) = store(input, target);
        let mut ser = Serializer::new(&dict);
        let mut sink = DropIds(&mut ser);
        Traverser::new(&xt, 1).run(&mut sink).unwrap();
        ser.finish()
    }

    #[test]
    fn single_record_roundtrip() {
        let doc = r#"<a x="1"><b>hi</b><c/><!--n--><?p q?></a>"#;
        assert_eq!(roundtrip(doc, 3500), doc);
    }

    #[test]
    fn multi_record_roundtrip() {
        let filler = "t".repeat(200);
        let doc = format!(
            "<cat>{}</cat>",
            (0..25)
                .map(|i| format!("<p id=\"{i}\"><n>item{i}</n><v>{filler}</v></p>"))
                .collect::<String>()
        );
        for target in [300, 600, 1500, 3500] {
            assert_eq!(roundtrip(&doc, target), doc, "target {target}");
        }
    }

    #[test]
    fn deep_document_roundtrip() {
        let mut doc = String::new();
        for i in 0..40 {
            doc.push_str(&format!("<l{i}>"));
        }
        doc.push_str("core");
        for i in (0..40).rev() {
            doc.push_str(&format!("</l{i}>"));
        }
        for target in [200, 3500] {
            assert_eq!(roundtrip(&doc, target), doc, "target {target}");
        }
    }

    #[test]
    fn namespaces_survive_storage() {
        let doc = r#"<c:r xmlns:c="urn:c"><c:x>1</c:x></c:r>"#;
        assert_eq!(roundtrip(doc, 3500), doc);
        assert_eq!(roundtrip(doc, 120), doc);
    }

    #[test]
    fn traversal_stats_reflect_spilling() {
        let filler = "q".repeat(300);
        let doc = format!(
            "<r>{}</r>",
            (0..12)
                .map(|i| format!("<p><v>{filler}</v><w>{i}</w></p>"))
                .collect::<String>()
        );
        let (xt, dict) = store(&doc, 500);
        let mut ser = Serializer::new(&dict);
        let mut sink = DropIds(&mut ser);
        let mut t = Traverser::new(&xt, 1);
        t.run(&mut sink).unwrap();
        assert!(t.stats.records_fetched > 3);
        assert!(t.stats.index_probes >= 2);
        assert_eq!(t.stats.nodes, 1 + 12 * 5); // r + 12 * (p, v, text, w, text)
    }

    #[test]
    fn string_value_and_fetch_node() {
        let filler = "s".repeat(280);
        let doc = format!("<a><b><c>one</c><d>two</d></b><e>{filler}</e><f>three</f></a>");
        let (xt, dict) = store(&doc, 400);
        // b = /a/b is node 02 02.
        let b = NodeId::from_bytes(&[0x02, 0x02]).unwrap();
        assert_eq!(string_value(&xt, 1, &b).unwrap(), "onetwo");
        match fetch_node(&xt, 1, &b).unwrap().unwrap() {
            StoredNode::Element { name } => assert!(dict.matches_local(name, "b")),
            other => panic!("unexpected {other:?}"),
        }
        // f's text: f is the 3rd child of a (02 06), text (02 06 02).
        let ftext = NodeId::from_bytes(&[0x02, 0x06, 0x02]).unwrap();
        match fetch_node(&xt, 1, &ftext).unwrap().unwrap() {
            StoredNode::Text { value, .. } => assert_eq!(value, "three"),
            other => panic!("unexpected {other:?}"),
        }
        // Missing node.
        let nowhere = NodeId::from_bytes(&[0x7F, 0x02]).unwrap();
        assert!(fetch_node(&xt, 1, &nowhere).unwrap().is_none());
    }

    #[test]
    fn missing_node_inside_a_proxy_range_is_not_found() {
        // p's children sit behind range proxies in the root record. The
        // ceiling probe for a missing child of the last child a proxy covers
        // lands back on the root record, where that proxy covers the ID.
        let cs: String = (1..=20)
            .map(|i| format!("<c>value-number-{i:03}-padding</c>"))
            .collect();
        let (xt, _) = store(&format!("<r><p>{cs}</p><tail>t</tail></r>"), 160);
        for i in 1..=20u8 {
            let missing = NodeId::from_bytes(&[0x02, 0x02, 2 * i, 0x04]).unwrap();
            assert!(fetch_node(&xt, 1, &missing).unwrap().is_none(), "c{i}");
            assert!(matches!(
                string_value(&xt, 1, &missing),
                Err(EngineError::NotFound { .. })
            ));
        }
    }

    #[test]
    fn subtree_replay() {
        let doc = "<a><b><c>x</c></b><d>y</d></a>";
        let (xt, dict) = store(doc, 3500);
        let b = NodeId::from_bytes(&[0x02, 0x02]).unwrap();
        let mut ser = Serializer::new(&dict);
        let mut sink = DropIds(&mut ser);
        Traverser::new(&xt, 1).run_subtree(&b, &mut sink).unwrap();
        assert_eq!(ser.finish(), "<b><c>x</c></b>");
    }

    /// §4.4, Fig. 8: XML in each of its runtime forms replays straight into
    /// the one serializer and the one scanner, with no tree built in
    /// between: a parser's token stream, a stored document, a constructed
    /// row, and the stored subtree of a query hit.
    #[test]
    fn every_source_feeds_one_serializer_and_one_scanner() {
        let text = r#"<Emp id="1234" name="John Doe"><HIRE>2000-10-24</HIRE><department>Accting</department></Emp>"#;
        let (xt, dict) = store(text, 3500);
        let tokens = Parser::new(&dict).parse_to_tokens(text).unwrap();
        let tpl = Template::compile(&fig5_emp_ctor(), &dict).unwrap();
        let args = ["1234", "John", "Doe", "2000-10-24", "Accting"];
        let row = Constructed::new(tpl, args.map(String::from).to_vec()).unwrap();
        let compile = |q: &str| QueryTree::compile(&XPathParser::new().parse(q).unwrap()).unwrap();
        let tree = compile("/Emp/department");

        let mut ser = Serializer::new(&dict);
        tokens.replay(&mut ser).unwrap();
        assert_eq!(ser.finish(), text, "token stream");
        let mut ser = Serializer::new(&dict);
        Traverser::new(&xt, 1).run(&mut DropIds(&mut ser)).unwrap();
        assert_eq!(ser.finish(), text, "stored document");
        let mut ser = Serializer::new(&dict);
        row.replay(&mut ser).unwrap();
        assert_eq!(ser.finish(), text, "constructed row");

        let mut scan = QuickXScan::new(&tree, &dict);
        tokens.replay(&mut scan).unwrap();
        let from_tokens = scan.finish().unwrap();
        let mut scan = QuickXScan::new(&tree, &dict);
        scan.event(Event::StartDocument).unwrap();
        row.replay(&mut scan).unwrap();
        scan.event(Event::EndDocument).unwrap();
        let from_row = scan.finish().unwrap();
        let mut scan = QuickXScan::new(&tree, &dict);
        Traverser::new(&xt, 1).run(&mut scan).unwrap();
        let hits = scan.finish().unwrap();
        for items in [&from_tokens, &from_row, &hits] {
            let values: Vec<&str> = items.iter().map(|i| i.value.as_str()).collect();
            assert_eq!(values, ["Accting"]);
        }
        // Only stored data hands out node IDs.
        assert!(from_tokens[0].node.is_none() && from_row[0].node.is_none());
        let hit = hits[0]
            .node
            .as_ref()
            .expect("a stored hit carries its node ID");

        let mut ser = Serializer::new(&dict);
        Traverser::new(&xt, 1)
            .run_subtree(hit, &mut DropIds(&mut ser))
            .unwrap();
        assert_eq!(ser.finish(), "<department>Accting</department>");
        let tree = compile("/department");
        let mut scan = QuickXScan::new(&tree, &dict);
        scan.id_event(&[], Event::StartDocument).unwrap();
        Traverser::new(&xt, 1).run_subtree(hit, &mut scan).unwrap();
        scan.id_event(&[], Event::EndDocument).unwrap();
        let items = scan.finish().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].value, "Accting");
        assert_eq!(items[0].node.as_ref(), Some(hit));
    }
}
