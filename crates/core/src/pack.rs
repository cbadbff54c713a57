//! Tree packing: the native XML storage format (§3.1, Fig. 3).
//!
//! "Within each packed record, structure nesting is used to represent the
//! parent-child relationship between nodes … Each non-leaf node contains the
//! number of children, followed by the child nodes, recursively. Subtree
//! length is also contained in non-leaf nodes to support efficient tree
//! traversal by using the first-child and next-sibling operations. Assuming
//! the tree is too big for one record, we pack a subtree or a sequence of
//! subtrees into a separate record, in a bottom-up fashion. A packed subtree
//! is represented using a proxy node in its containing record. No explicit
//! physical link is used between records … Instead, logical node IDs are used
//! to link between records through a NodeID index."
//!
//! Highlights mirrored from the paper:
//!
//! * **bottom-up streaming construction** (§3.2): records are generated
//!   directly from the token stream, no intermediate tree;
//! * **size-based grouping**: a subtree or consecutive sibling subtrees are
//!   spilled to their own record when the enclosing element exceeds the
//!   target record size (the simple alternative to Natix's split matrix the
//!   paper argues for); adjacent proxies merge into *range proxies* so huge
//!   fan-out never bloats the parent;
//! * **self-contained records**: every record header carries the context
//!   node's absolute ID, the name-ID path from the root, and the in-scope
//!   namespaces — so a record fetched straight from an XPath value index can
//!   be interpreted without touching its ancestors;
//! * **interval index entries**: per record, one NodeID-index entry per
//!   contiguous run of node IDs, keyed by the run's *upper endpoint* (§3.4) —
//!   reproducing Fig. 3's `(02,rid1) (020206,rid2) (020602,rid1)` exactly.
//! * **one writer**: a sub-document edit resumes the packer at a stored
//!   record's context ([`Packer::resume`]) and replays the record's nodes
//!   with their own IDs, so edited records are encoded, grouped and indexed
//!   by the same code as inserted ones (DESIGN.md §16).

use crate::error::{EngineError, Result};
use rx_storage::codec::{Dec, Enc};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::{QNameId, StrId};
use rx_xml::nodeid::{NodeId, RelId};
use rx_xml::value::TypeAnn;

/// Node kind tags in the packed format (the XQuery data model's kinds;
/// namespace bindings are stored in element heads, document nodes are
/// implicit).
pub mod kind {
    /// Element node.
    pub const ELEMENT: u8 = 1;
    /// Attribute node.
    pub const ATTRIBUTE: u8 = 2;
    /// Text node.
    pub const TEXT: u8 = 3;
    /// Comment node.
    pub const COMMENT: u8 = 4;
    /// Processing-instruction node.
    pub const PI: u8 = 5;
    /// Range proxy: a consecutive run of sibling subtrees packed into
    /// other records, located through the NodeID index.
    pub const PROXY: u8 = 6;
}

/// Default target record size (bytes) for size-based grouping. Must leave
/// room within [`rx_storage::MAX_RECORD_SIZE`].
pub const DEFAULT_TARGET_RECORD: usize = 3500;

/// A finished packed record plus the metadata its indexes need.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRecord {
    /// Encoded record image (header + node data) — the XMLData column value.
    pub bytes: Vec<u8>,
    /// Smallest node ID stored in the record (the minNodeId column).
    pub min_id: NodeId,
    /// Upper endpoints of the contiguous node-ID runs inside this record —
    /// one NodeID-index entry each (§3.4).
    pub interval_uppers: Vec<NodeId>,
}

/// Where finished records go during packing.
pub trait RecordSink {
    /// Receive one finished record.
    fn record(&mut self, rec: PackedRecord) -> Result<()>;
}

impl RecordSink for Vec<PackedRecord> {
    fn record(&mut self, rec: PackedRecord) -> Result<()> {
        self.push(rec);
        Ok(())
    }
}

impl<F: FnMut(PackedRecord) -> Result<()>> RecordSink for F {
    fn record(&mut self, rec: PackedRecord) -> Result<()> {
        self(rec)
    }
}

/// Observer of node-ID assignment during packing. The engine hooks XPath
/// value-index key generation here (§3.3: "index keys … are generated per
/// record, which fits existing infrastructure very well") by driving a
/// QuickXScan with `set_current_node`.
pub trait NodeObserver {
    /// Called once per node, before the corresponding event logic runs.
    fn node(&mut self, id: &[u8], ev: &Event<'_>) -> Result<()>;
}

/// No-op observer.
pub struct NoObserver;

impl NodeObserver for NoObserver {
    fn node(&mut self, _id: &[u8], _ev: &Event<'_>) -> Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

fn enc_rel(e: &mut Enc, rel: &RelId) {
    e.bytes(rel.as_bytes());
}

/// An encoded child entry of an open element: either an inline subtree or a
/// range proxy for subtrees spilled to other records.
struct Segment {
    bytes: Vec<u8>,
    /// Relative IDs of the first/last sibling subtree covered.
    first_rel: RelId,
    last_rel: RelId,
    /// Number of sibling subtrees covered.
    sibling_count: u64,
    /// Upper endpoints of the node-ID runs physically present in `bytes`
    /// (absolute IDs).
    uppers: Vec<NodeId>,
    is_proxy: bool,
    /// True when the segment's ID coverage ends with packed-out IDs (its
    /// last entry, recursively, is a proxy) — the next sibling's IDs are then
    /// NOT contiguous with this segment's last run.
    ends_with_gap: bool,
}

impl Segment {
    fn proxy(first_rel: RelId, last_rel: RelId, sibling_count: u64) -> Segment {
        let mut e = Enc::with_capacity(first_rel.as_bytes().len() + last_rel.as_bytes().len() + 8);
        e.u8(kind::PROXY);
        enc_rel(&mut e, &first_rel);
        enc_rel(&mut e, &last_rel);
        e.varint(sibling_count);
        Segment {
            bytes: e.into_bytes(),
            first_rel,
            last_rel,
            sibling_count,
            uppers: Vec::new(),
            is_proxy: true,
            ends_with_gap: true,
        }
    }
}

/// Merge a segment's runs onto the tail of `uppers`, coalescing when the
/// previous coverage is physically adjacent (no packed-out IDs in between —
/// i.e. the previous segment neither was a proxy nor ended with one): the
/// segment's first run then extends the previous one.
fn append_runs(uppers: &mut Vec<NodeId>, seg_uppers: Vec<NodeId>, prev_gap: bool) {
    let mut iter = seg_uppers.into_iter();
    if let Some(first) = iter.next() {
        match uppers.last_mut() {
            Some(last) if !prev_gap => *last = first,
            _ => uppers.push(first),
        }
        uppers.extend(iter);
    }
}

struct OpenElem {
    name: QNameId,
    rel: RelId,
    abs: NodeId,
    nsdecls: Vec<(StrId, StrId)>,
    next_child: Option<RelId>,
    segments: Vec<Segment>,
    inline_bytes: usize,
}

impl OpenElem {
    fn new(name: QNameId, rel: RelId, abs: NodeId) -> OpenElem {
        OpenElem {
            name,
            rel,
            abs,
            nsdecls: Vec::new(),
            next_child: None,
            segments: Vec::new(),
            inline_bytes: 0,
        }
    }

    /// The next child's relative ID: `fixed` when the caller supplies one,
    /// else the sibling after the previous child.
    fn alloc_child(&mut self, fixed: Option<RelId>) -> RelId {
        let rel = fixed.unwrap_or_else(|| match &self.next_child {
            None => RelId::first(),
            Some(prev) => prev.next_sibling(),
        });
        self.next_child = Some(rel.clone());
        rel
    }
}

/// Append a proxy, merging it into a directly preceding one (range proxies).
fn push_proxy(kept: &mut Vec<Segment>, seg: Segment) {
    match kept.last_mut() {
        Some(prev) if prev.is_proxy => {
            *prev = Segment::proxy(
                prev.first_rel.clone(),
                seg.last_rel,
                prev.sibling_count + seg.sibling_count,
            );
        }
        _ => kept.push(seg),
    }
}

/// Statistics gathered while packing one document.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// Nodes assigned IDs (elements + attributes + texts + comments + PIs).
    pub nodes: u64,
    /// Records emitted.
    pub records: u64,
    /// Total record bytes emitted.
    pub bytes: u64,
    /// NodeID-index entries produced.
    pub index_entries: u64,
}

/// The streaming bottom-up tree packer. Feed it virtual SAX events; finished
/// records flow out through the [`RecordSink`].
pub struct Packer<'s, 'o> {
    target: usize,
    sink: &'s mut dyn RecordSink,
    observer: &'o mut dyn NodeObserver,
    /// Pseudo element for the context node: the document node, or the
    /// context of a resumed record.
    doc: OpenElem,
    /// Name path and in-scope namespaces of the context node.
    ctx_path: Vec<QNameId>,
    ctx_ns: Vec<(StrId, StrId)>,
    stack: Vec<OpenElem>,
    /// Relative ID for the next node, set by [`Packer::set_rel`].
    fixed_rel: Option<RelId>,
    /// Statistics.
    pub stats: PackStats,
    done: bool,
}

impl<'s, 'o> Packer<'s, 'o> {
    /// Create a packer with the default target record size.
    pub fn new(sink: &'s mut dyn RecordSink, observer: &'o mut dyn NodeObserver) -> Self {
        Self::with_target(DEFAULT_TARGET_RECORD, sink, observer)
    }

    /// Create a packer with an explicit target record size (the knob of the
    /// E1/E2 packing-factor sweeps).
    pub fn with_target(
        target: usize,
        sink: &'s mut dyn RecordSink,
        observer: &'o mut dyn NodeObserver,
    ) -> Self {
        Packer {
            target: target.min(rx_storage::MAX_RECORD_SIZE - 64),
            sink,
            observer,
            doc: OpenElem::new(0, RelId::first(), NodeId::root()),
            ctx_path: Vec::new(),
            ctx_ns: Vec::new(),
            stack: Vec::new(),
            fixed_rel: None,
            stats: PackStats::default(),
            done: false,
        }
    }

    /// Resume packing inside a stored record (a sub-document edit). The
    /// packer stands at the record's context, whose ID, name path and
    /// in-scope namespaces come from `header`, and its target is the edit
    /// limit, `MAX_RECORD_SIZE - 64`. The caller replays the record's nodes
    /// with their own IDs ([`Packer::set_rel`], [`Packer::proxy`]);
    /// [`Packer::finish`] emits any spilled records first and the re-packed
    /// context record last.
    pub fn resume(
        header: &RecordHeader,
        sink: &'s mut dyn RecordSink,
        observer: &'o mut dyn NodeObserver,
    ) -> Self {
        let mut p = Self::with_target(usize::MAX, sink, observer);
        p.doc.abs = header.context.clone();
        p.ctx_path = header.path.clone();
        p.ctx_ns = header.namespaces.clone();
        p.done = true;
        p
    }

    /// Give the next node added under the open element the relative ID
    /// `rel` instead of allocating one; later siblings without one follow it.
    pub fn set_rel(&mut self, rel: RelId) {
        self.fixed_rel = Some(rel);
    }

    /// Add an existing range proxy under the open element, unchanged:
    /// `count` sibling subtrees from `first` to `last`, stored in other
    /// records.
    pub fn proxy(&mut self, first: RelId, last: RelId, count: u64) {
        let seg = Segment::proxy(first, last.clone(), count);
        let parent = self.top();
        parent.next_child = Some(last);
        parent.inline_bytes += seg.bytes.len();
        parent.segments.push(seg);
    }

    fn top(&mut self) -> &mut OpenElem {
        self.stack.last_mut().unwrap_or(&mut self.doc)
    }

    fn top_abs(&self) -> &NodeId {
        self.stack.last().map_or(&self.doc.abs, |e| &e.abs)
    }

    /// Allocate (or take from [`Packer::set_rel`]) the next child ID under
    /// the open element: `(relative, absolute)`.
    fn next_child(&mut self) -> (RelId, NodeId) {
        let fixed = self.fixed_rel.take();
        let rel = self.top().alloc_child(fixed);
        let abs = self.top_abs().child(&rel);
        (rel, abs)
    }

    /// Path of element name IDs from the root down to the open element at
    /// stack depth `upto` (exclusive).
    fn path_names(&self, upto: usize) -> Vec<QNameId> {
        let open = self.stack[..upto].iter().map(|e| e.name);
        self.ctx_path.iter().copied().chain(open).collect()
    }

    /// All in-scope namespace declarations for the element at stack depth
    /// `upto` (outermost first; later re-declarations win at decode time).
    fn inscope_ns(&self, upto: usize) -> Vec<(StrId, StrId)> {
        let mut out = self.ctx_ns.clone();
        for e in &self.stack[..upto] {
            out.extend_from_slice(&e.nsdecls);
        }
        out
    }

    /// Show the leaf node of `ev` to the observer and add its segment to
    /// the current parent.
    fn push_leaf(&mut self, ev: &Event<'_>, encode: impl FnOnce(&mut Enc, &RelId)) -> Result<()> {
        let (rel, abs) = self.next_child();
        self.observer.node(abs.as_bytes(), ev)?;
        let mut e = Enc::with_capacity(32);
        encode(&mut e, &rel);
        let bytes = e.into_bytes();
        let parent = self.top();
        parent.inline_bytes += bytes.len();
        parent.segments.push(Segment {
            bytes,
            first_rel: rel.clone(),
            last_rel: rel,
            sibling_count: 1,
            uppers: vec![abs],
            is_proxy: false,
            ends_with_gap: false,
        });
        self.stats.nodes += 1;
        Ok(())
    }

    /// Spill child segments of `elem` into records (context = `elem`) and
    /// replace them with merged range proxies. A proxy already among the
    /// children stays in `elem`, merged with its neighbours, so a spilled
    /// record never holds a proxy at its top level.
    fn spill_children(&mut self, elem: &mut OpenElem, stack_depth: usize) -> Result<()> {
        // Header for all spilled records: context = elem.
        let mut path = self.path_names(stack_depth);
        path.push(elem.name);
        let mut ns = self.inscope_ns(stack_depth);
        ns.extend_from_slice(&elem.nsdecls);
        let header = encode_header(&elem.abs, &path, &ns);

        let mut kept: Vec<Segment> = Vec::new();
        let mut group: Vec<Segment> = Vec::new();
        let mut group_bytes = 0usize;
        for seg in std::mem::take(&mut elem.segments) {
            if seg.is_proxy {
                self.spill_group(&header, &elem.abs, &mut group, &mut kept)?;
                group_bytes = 0;
                push_proxy(&mut kept, seg);
                continue;
            }
            if seg.bytes.len() + header.len() + 16 > self.target {
                // A single subtree larger than the target: it must go to its
                // own record (its own children were already spilled when it
                // closed, so this only happens for wide heads / long values).
                self.spill_group(&header, &elem.abs, &mut group, &mut kept)?;
                group_bytes = 0;
                if seg.bytes.len() + header.len() + 16 > rx_storage::MAX_RECORD_SIZE {
                    return Err(EngineError::Record(format!(
                        "a single node of {} bytes exceeds the maximum record size",
                        seg.bytes.len()
                    )));
                }
                self.spill_group(&header, &elem.abs, &mut vec![seg], &mut kept)?;
                continue;
            }
            if group_bytes + seg.bytes.len() + header.len() + 16 > self.target {
                self.spill_group(&header, &elem.abs, &mut group, &mut kept)?;
                group_bytes = 0;
            }
            group_bytes += seg.bytes.len();
            group.push(seg);
        }
        // Keep the final partial group inline when it still fits next to the
        // element head and the accumulated proxies — this is what yields the
        // exact Fig. 3 layout (trailing siblings Node6/Node7/Node8 stay in
        // the parent record while Node2's subtree moves out).
        let proxies_bytes: usize = kept.iter().map(|s| s.bytes.len()).sum();
        if !group.is_empty() && proxies_bytes + group_bytes + 64 > self.target {
            self.spill_group(&header, &elem.abs, &mut group, &mut kept)?;
        }
        kept.extend(group);
        elem.inline_bytes = kept.iter().map(|s| s.bytes.len()).sum();
        elem.segments = kept;
        Ok(())
    }

    /// Emit `group`, consecutive sibling subtrees of `ctx`, as one record and
    /// stand a range proxy in for it at the end of `kept`.
    fn spill_group(
        &mut self,
        header: &[u8],
        ctx: &NodeId,
        group: &mut Vec<Segment>,
        kept: &mut Vec<Segment>,
    ) -> Result<()> {
        let (Some(first), Some(last)) = (group.first(), group.last()) else {
            return Ok(());
        };
        let count = group.iter().map(|s| s.sibling_count).sum();
        let proxy = Segment::proxy(first.first_rel.clone(), last.last_rel.clone(), count);
        self.emit(header, ctx, std::mem::take(group))?;
        push_proxy(kept, proxy);
        Ok(())
    }

    /// Emit one record: `header`, the entry count and `segs`, with one
    /// NodeID-index entry per contiguous run of node IDs.
    fn emit(&mut self, header: &[u8], ctx: &NodeId, segs: Vec<Segment>) -> Result<()> {
        let content: usize = segs.iter().map(|s| s.bytes.len()).sum();
        let mut body = Enc::with_capacity(header.len() + content + 8);
        body.raw(header);
        body.varint(segs.len() as u64);
        // The smallest node is the head of the first entry that is no proxy.
        let min_id = segs
            .iter()
            .find(|s| !s.is_proxy)
            .map_or_else(|| ctx.clone(), |s| ctx.child(&s.first_rel));
        let mut uppers: Vec<NodeId> = Vec::new();
        let mut prev_gap = true; // the first entry starts a new run
        for seg in segs {
            body.raw(&seg.bytes);
            let was_gap = std::mem::replace(&mut prev_gap, seg.is_proxy || seg.ends_with_gap);
            append_runs(&mut uppers, seg.uppers, was_gap);
        }
        let bytes = body.into_bytes();
        if bytes.len() > rx_storage::MAX_RECORD_SIZE {
            return Err(EngineError::Record(format!(
                "record of {} bytes exceeds the maximum record size",
                bytes.len()
            )));
        }
        self.stats.records += 1;
        self.stats.bytes += bytes.len() as u64;
        self.stats.index_entries += uppers.len() as u64;
        self.sink.record(PackedRecord {
            bytes,
            min_id,
            interval_uppers: uppers,
        })
    }

    /// Encode a closed element into a single segment for its parent.
    fn seal_element(elem: OpenElem) -> Segment {
        let mut e = Enc::with_capacity(elem.inline_bytes + 32);
        e.u8(kind::ELEMENT);
        enc_rel(&mut e, &elem.rel);
        e.varint(u64::from(elem.name));
        e.varint(elem.nsdecls.len() as u64);
        for (p, u) in &elem.nsdecls {
            e.varint(u64::from(*p));
            e.varint(u64::from(*u));
        }
        e.varint(elem.segments.len() as u64);
        let content_len: usize = elem.segments.iter().map(|s| s.bytes.len()).sum();
        e.varint(content_len as u64);
        let mut uppers = vec![elem.abs];
        let mut prev_gap = false; // element head is adjacent to its first child
        for seg in elem.segments {
            e.raw(&seg.bytes);
            let was_gap = std::mem::replace(&mut prev_gap, seg.is_proxy || seg.ends_with_gap);
            append_runs(&mut uppers, seg.uppers, was_gap);
        }
        Segment {
            bytes: e.into_bytes(),
            first_rel: elem.rel.clone(),
            last_rel: elem.rel,
            sibling_count: 1,
            uppers,
            is_proxy: false,
            ends_with_gap: prev_gap,
        }
    }

    /// Finish after `EndDocument` (or a replayed record); returns packing
    /// statistics. The context record is emitted last.
    pub fn finish(mut self) -> Result<PackStats> {
        if !self.done {
            return Err(EngineError::Record(
                "packer finished before EndDocument".into(),
            ));
        }
        let doc = std::mem::replace(
            &mut self.doc,
            OpenElem::new(0, RelId::first(), NodeId::root()),
        );
        let header = encode_header(&doc.abs, &self.ctx_path, &self.ctx_ns);
        // The document node's record stays one record. A resumed spilled
        // record that outgrew the target splits into sibling records of its
        // context, grouped as spilled children are; the covering proxy still
        // counts the same subtrees.
        let split = !doc.abs.is_root();
        let mut group: Vec<Segment> = Vec::new();
        let mut group_bytes = 0usize;
        for seg in doc.segments {
            if split
                && !group.is_empty()
                && group_bytes + seg.bytes.len() + header.len() + 16 > self.target
            {
                self.emit(&header, &doc.abs, std::mem::take(&mut group))?;
                group_bytes = 0;
            }
            group_bytes += seg.bytes.len();
            group.push(seg);
        }
        self.emit(&header, &doc.abs, group)?;
        Ok(self.stats)
    }
}

impl EventSink for Packer<'_, '_> {
    fn event(&mut self, ev: Event<'_>) -> rx_xml::Result<()> {
        self.handle(ev)
            .map_err(|e| rx_xml::XmlError::stream(e.to_string()))
    }
}

impl Packer<'_, '_> {
    /// Pack one event (the [`EventSink`] entry point, with engine errors).
    pub fn handle(&mut self, ev: Event<'_>) -> Result<()> {
        match ev {
            Event::StartDocument => Ok(()),
            Event::EndDocument => {
                self.done = true;
                Ok(())
            }
            Event::StartElement { name } => {
                let (rel, abs) = self.next_child();
                self.observer.node(abs.as_bytes(), &ev)?;
                self.stats.nodes += 1;
                self.stack.push(OpenElem::new(name, rel, abs));
                Ok(())
            }
            Event::NamespaceDecl { prefix, uri } => {
                if let Some(top) = self.stack.last_mut() {
                    top.nsdecls.push((prefix, uri));
                }
                Ok(())
            }
            Event::Attribute { name, value, ann } => self.push_leaf(&ev, |e, rel| {
                e.u8(kind::ATTRIBUTE);
                enc_rel(e, rel);
                e.varint(u64::from(name));
                e.u8(ann as u8);
                e.bytes(value.as_bytes());
            }),
            Event::Text { value, ann } => self.push_leaf(&ev, |e, rel| {
                e.u8(kind::TEXT);
                enc_rel(e, rel);
                e.u8(ann as u8);
                e.bytes(value.as_bytes());
            }),
            Event::Comment { value } => self.push_leaf(&ev, |e, rel| {
                e.u8(kind::COMMENT);
                enc_rel(e, rel);
                e.bytes(value.as_bytes());
            }),
            Event::Pi { target, data } => self.push_leaf(&ev, |e, rel| {
                e.u8(kind::PI);
                enc_rel(e, rel);
                e.varint(u64::from(target));
                e.bytes(data.as_bytes());
            }),
            Event::EndElement => {
                let mut elem = self.stack.pop().ok_or_else(|| {
                    EngineError::Record("unbalanced end element during packing".into())
                })?;
                self.observer.node(elem.abs.as_bytes(), &ev)?;
                // Size-based grouping: spill the children when the sealed
                // element would overflow the target.
                let head_estimate = 24 + elem.nsdecls.len() * 8;
                if elem.inline_bytes + head_estimate > self.target {
                    let depth = self.stack.len();
                    self.spill_children(&mut elem, depth)?;
                }
                let seg = Self::seal_element(elem);
                let parent = self.top();
                parent.inline_bytes += seg.bytes.len();
                parent.segments.push(seg);
                Ok(())
            }
        }
    }
}

fn encode_header(ctx_abs: &NodeId, path: &[QNameId], ns: &[(StrId, StrId)]) -> Vec<u8> {
    let mut e = Enc::with_capacity(16 + path.len() * 2 + ns.len() * 4);
    e.bytes(ctx_abs.as_bytes());
    e.varint(path.len() as u64);
    for q in path {
        e.varint(u64::from(*q));
    }
    e.varint(ns.len() as u64);
    for (p, u) in ns {
        e.varint(u64::from(*p));
        e.varint(u64::from(*u));
    }
    e.into_bytes()
}

// ---------------------------------------------------------------------------
// Record reader
// ---------------------------------------------------------------------------

/// The decoded record header: the "context path information" of §3.1.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordHeader {
    /// Absolute node ID of the context node (the parent of the record's
    /// subtrees; empty = document node).
    pub context: NodeId,
    /// Element name IDs from the root down to the context node.
    pub path: Vec<QNameId>,
    /// In-scope namespace declarations at the context node.
    pub namespaces: Vec<(StrId, StrId)>,
    /// Number of top-level subtrees in the record.
    pub subtree_count: u64,
    /// Byte offset where node data begins.
    pub body_offset: usize,
}

/// Parse a record's header.
pub fn read_header(bytes: &[u8]) -> Result<RecordHeader> {
    let mut d = Dec::new(bytes);
    let ctx = d
        .bytes()
        .map_err(|e| EngineError::Record(e.to_string()))?
        .to_vec();
    let context = NodeId::from_bytes_unchecked(ctx);
    let plen = d.varint().map_err(dec_err)? as usize;
    let mut path = Vec::with_capacity(plen);
    for _ in 0..plen {
        path.push(d.varint().map_err(dec_err)? as QNameId);
    }
    let nslen = d.varint().map_err(dec_err)? as usize;
    let mut namespaces = Vec::with_capacity(nslen);
    for _ in 0..nslen {
        let p = d.varint().map_err(dec_err)? as StrId;
        let u = d.varint().map_err(dec_err)? as StrId;
        namespaces.push((p, u));
    }
    let subtree_count = d.varint().map_err(dec_err)?;
    Ok(RecordHeader {
        context,
        path,
        namespaces,
        subtree_count,
        body_offset: d.pos(),
    })
}

fn dec_err(e: rx_storage::StorageError) -> EngineError {
    EngineError::Record(e.to_string())
}

/// A decoded view of one node within a record.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeView<'a> {
    /// An element head; its children occupy `content` (recursively decoded
    /// with [`read_nodes`]).
    Element {
        /// Relative ID.
        rel: &'a [u8],
        /// Name.
        name: QNameId,
        /// Namespace declarations on this element.
        nsdecls: Vec<(StrId, StrId)>,
        /// Number of child entries (inline nodes + proxies).
        entries: u64,
        /// Raw encoded children.
        content: &'a [u8],
    },
    /// An attribute node.
    Attribute {
        /// Relative ID.
        rel: &'a [u8],
        /// Name.
        name: QNameId,
        /// Type annotation.
        ann: TypeAnn,
        /// Value.
        value: &'a str,
    },
    /// A text node.
    Text {
        /// Relative ID.
        rel: &'a [u8],
        /// Type annotation.
        ann: TypeAnn,
        /// Character content.
        value: &'a str,
    },
    /// A comment node.
    Comment {
        /// Relative ID.
        rel: &'a [u8],
        /// Content.
        value: &'a str,
    },
    /// A processing instruction.
    Pi {
        /// Relative ID.
        rel: &'a [u8],
        /// Target name.
        target: QNameId,
        /// Data.
        value: &'a str,
    },
    /// A range proxy for sibling subtrees stored in other records.
    Proxy {
        /// First covered sibling's relative ID.
        first: &'a [u8],
        /// Last covered sibling's relative ID.
        last: &'a [u8],
        /// Number of covered sibling subtrees.
        count: u64,
    },
}

impl<'a> NodeView<'a> {
    /// The relative ID of the node (for proxies: of the first covered
    /// sibling), borrowed from the record.
    pub fn rel(&self) -> &'a [u8] {
        match self {
            NodeView::Element { rel, .. }
            | NodeView::Attribute { rel, .. }
            | NodeView::Text { rel, .. }
            | NodeView::Comment { rel, .. }
            | NodeView::Pi { rel, .. } => rel,
            NodeView::Proxy { first, .. } => first,
        }
    }

    /// The relative ID of the last sibling the entry covers: a range
    /// proxy's `last`, else the node's own.
    pub(crate) fn last(&self) -> &'a [u8] {
        match self {
            NodeView::Proxy { last, .. } => last,
            other => other.rel(),
        }
    }
}

/// Decode one node starting at `pos`; returns the view and the offset just
/// past the node (for elements: past the whole subtree — the "subtree
/// length" skip of §3.1).
pub fn read_node<'a>(bytes: &'a [u8], pos: usize) -> Result<(NodeView<'a>, usize)> {
    let mut d = Dec::new(&bytes[pos..]);
    let k = d.u8().map_err(dec_err)?;
    let rel_of = |d: &mut Dec<'a>| -> Result<&'a [u8]> {
        let b = d.bytes().map_err(dec_err)?;
        RelId::validate(b).map_err(|e| EngineError::Record(e.to_string()))?;
        Ok(b)
    };
    let view = match k {
        kind::ELEMENT => {
            let rel = rel_of(&mut d)?;
            let name = d.varint().map_err(dec_err)? as QNameId;
            let nslen = d.varint().map_err(dec_err)? as usize;
            let mut nsdecls = Vec::with_capacity(nslen);
            for _ in 0..nslen {
                let p = d.varint().map_err(dec_err)? as StrId;
                let u = d.varint().map_err(dec_err)? as StrId;
                nsdecls.push((p, u));
            }
            let entries = d.varint().map_err(dec_err)?;
            let content_len = d.varint().map_err(dec_err)? as usize;
            let content_start = pos + d.pos();
            let content = bytes
                .get(content_start..content_start + content_len)
                .ok_or_else(|| EngineError::Record("element content truncated".into()))?;
            return Ok((
                NodeView::Element {
                    rel,
                    name,
                    nsdecls,
                    entries,
                    content,
                },
                content_start + content_len,
            ));
        }
        kind::ATTRIBUTE => {
            let rel = rel_of(&mut d)?;
            let name = d.varint().map_err(dec_err)? as QNameId;
            let ann = TypeAnn::from_u8(d.u8().map_err(dec_err)?)
                .map_err(|e| EngineError::Record(e.to_string()))?;
            let value = str_of(d.bytes().map_err(dec_err)?)?;
            NodeView::Attribute {
                rel,
                name,
                ann,
                value,
            }
        }
        kind::TEXT => {
            let rel = rel_of(&mut d)?;
            let ann = TypeAnn::from_u8(d.u8().map_err(dec_err)?)
                .map_err(|e| EngineError::Record(e.to_string()))?;
            let value = str_of(d.bytes().map_err(dec_err)?)?;
            NodeView::Text { rel, ann, value }
        }
        kind::COMMENT => {
            let rel = rel_of(&mut d)?;
            let value = str_of(d.bytes().map_err(dec_err)?)?;
            NodeView::Comment { rel, value }
        }
        kind::PI => {
            let rel = rel_of(&mut d)?;
            let target = d.varint().map_err(dec_err)? as QNameId;
            let value = str_of(d.bytes().map_err(dec_err)?)?;
            NodeView::Pi { rel, target, value }
        }
        kind::PROXY => {
            let first = rel_of(&mut d)?;
            let last = rel_of(&mut d)?;
            let count = d.varint().map_err(dec_err)?;
            NodeView::Proxy { first, last, count }
        }
        other => {
            return Err(EngineError::Record(format!(
                "unknown node kind byte {other}"
            )))
        }
    };
    Ok((view, pos + d.pos()))
}

fn str_of(b: &[u8]) -> Result<&str> {
    std::str::from_utf8(b).map_err(|_| EngineError::Record("invalid UTF-8 in record".into()))
}

/// Iterate the sibling entries of a node region (a record body or an
/// element's content slice relocated to offset 0).
pub fn read_nodes(region: &[u8]) -> NodeIter<'_> {
    NodeIter { region, pos: 0 }
}

/// Iterator over sibling node entries.
pub struct NodeIter<'a> {
    region: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = Result<NodeView<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.region.len() {
            return None;
        }
        match read_node(self.region, self.pos) {
            Ok((view, next)) => {
                self.pos = next;
                Some(Ok(view))
            }
            Err(e) => {
                self.pos = self.region.len();
                Some(Err(e))
            }
        }
    }
}

/// Where a node sits in the record that holds it, found by [`find`].
#[derive(Debug)]
pub(crate) struct Place<'a> {
    /// The node's own entry.
    pub entry: NodeView<'a>,
    /// The last sibling ID the entry before it covers, in the region that
    /// holds it.
    pub before: Option<&'a [u8]>,
    /// The first sibling ID the entry after it covers, in that region.
    pub after: Option<&'a [u8]>,
}

/// The one in-record finder: find node `node` among `region`, the entries
/// under node `ctx` of a record. It descends only through the element heads
/// of `node`'s ancestors, comparing relative-ID bytes (relative IDs are
/// prefix-free), and skips every other subtree by its packed length (§3.1).
/// Range proxies are stepped over: the NodeID index's ceiling probe for
/// `node` lands on the record that holds it inline, so a proxy covering it
/// means that no record holds it.
pub(crate) fn find<'a>(region: &'a [u8], ctx: &[u8], node: &[u8]) -> Result<Option<Place<'a>>> {
    let Some(rest) = node.strip_prefix(ctx) else {
        return Ok(None);
    };
    let mut before = None;
    let mut entries = read_nodes(region);
    while let Some(entry) = entries.next() {
        let entry = entry?;
        if !matches!(entry, NodeView::Proxy { .. }) {
            let rel = entry.rel();
            if rest == rel {
                let after = entries.next().transpose()?.map(|next| next.rel());
                return Ok(Some(Place {
                    entry,
                    before,
                    after,
                }));
            }
            if rest.starts_with(rel) {
                return match entry {
                    NodeView::Element { content, .. } => {
                        find(content, &node[..ctx.len() + rel.len()], node)
                    }
                    _ => Ok(None),
                };
            }
        }
        before = Some(entry.last());
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_xml::name::NameDict;
    use rx_xml::parser::Parser;

    fn pack_doc(input: &str, target: usize) -> (Vec<PackedRecord>, PackStats, NameDict) {
        let dict = NameDict::new();
        let mut records: Vec<PackedRecord> = Vec::new();
        let mut obs = NoObserver;
        let mut packer = Packer::with_target(target, &mut records, &mut obs);
        Parser::new(&dict).parse(input, &mut packer).unwrap();
        let stats = packer.finish().unwrap();
        (records, stats, dict)
    }

    #[test]
    fn small_document_single_record() {
        let (records, stats, _) = pack_doc(r#"<a x="1"><b>hi</b><c/></a>"#, 3500);
        assert_eq!(records.len(), 1);
        assert_eq!(stats.records, 1);
        // Nodes: a, @x, b, "hi", c = 5.
        assert_eq!(stats.nodes, 5);
        let rec = &records[0];
        // One contiguous run → one index entry.
        assert_eq!(rec.interval_uppers.len(), 1);
        // min id is the root element (02).
        assert_eq!(rec.min_id.as_bytes(), &[0x02]);
        let hdr = read_header(&rec.bytes).unwrap();
        assert!(hdr.context.is_root());
        assert_eq!(hdr.subtree_count, 1);
    }

    #[test]
    fn record_structure_roundtrip() {
        let (records, _, dict) = pack_doc(r#"<a x="1"><b>hi</b></a>"#, 3500);
        let rec = &records[0];
        let hdr = read_header(&rec.bytes).unwrap();
        let body = &rec.bytes[hdr.body_offset..];
        let mut it = read_nodes(body);
        let root = it.next().unwrap().unwrap();
        match root {
            NodeView::Element {
                name,
                entries,
                content,
                ..
            } => {
                assert!(dict.matches_local(name, "a"));
                assert_eq!(entries, 2); // @x and b
                let mut kids = read_nodes(content);
                match kids.next().unwrap().unwrap() {
                    NodeView::Attribute { name, value, .. } => {
                        assert!(dict.matches_local(name, "x"));
                        assert_eq!(value, "1");
                    }
                    other => panic!("expected attribute, got {other:?}"),
                }
                match kids.next().unwrap().unwrap() {
                    NodeView::Element { name, content, .. } => {
                        assert!(dict.matches_local(name, "b"));
                        let mut sub = read_nodes(content);
                        match sub.next().unwrap().unwrap() {
                            NodeView::Text { value, .. } => assert_eq!(value, "hi"),
                            other => panic!("expected text, got {other:?}"),
                        }
                    }
                    other => panic!("expected element, got {other:?}"),
                }
                assert!(kids.next().is_none());
            }
            other => panic!("expected element, got {other:?}"),
        }
        assert!(it.next().is_none());
    }

    #[test]
    fn fig3_shape_two_records_three_entries() {
        // Reproduce Figure 3 exactly: root Node1 with children Node2 (a
        // subtree that spills whole), Node6, Node7>Node8 packs into TWO
        // records with THREE NodeID-index entries
        // (02, rid1) (020206, rid2) (020602, rid1).
        let filler = "v".repeat(342);
        let doc = format!(
            "<n1><n2><n3>{filler}</n3><n4>{filler}</n4><n5>{filler}</n5></n2><n6/><n7><n8/></n7></n1>"
        );
        let (records, _, _) = pack_doc(&doc, 1100);
        assert_eq!(records.len(), 2, "expected the Fig. 3 two-record layout");
        let rid2 = &records[0];
        let rid1 = &records[1]; // root record emitted last
                                // rid1 holds two ID runs: up to Node1 (02), and Node6..Node8
                                // (0204..020602) — exactly Fig. 3's (02,rid1) and (020602,rid1).
        assert_eq!(
            rid1.interval_uppers
                .iter()
                .map(|u| u.as_bytes().to_vec())
                .collect::<Vec<_>>(),
            vec![vec![0x02], vec![0x02, 0x06, 0x02]],
        );
        // rid2 holds Node2's whole subtree: one run ending at Node5
        // (02 02 06) — Fig. 3's (020206, rid2). (Node2's children here are
        // elements each containing a text node, so the run's upper endpoint
        // is Node5's text child: 02 02 06 02.)
        assert_eq!(rid2.interval_uppers.len(), 1);
        assert!(rid2.interval_uppers[0]
            .as_bytes()
            .starts_with(&[0x02, 0x02, 0x06]));
        // rid2's context is Node1, carried in its header path.
        let hdr = read_header(&rid2.bytes).unwrap();
        assert_eq!(hdr.context.as_bytes(), &[0x02]);
        assert_eq!(hdr.path.len(), 1);
        // rid2's entries sort strictly between rid1's two runs.
        assert!(rid2.interval_uppers[0] > rid1.interval_uppers[0]);
        assert!(rid2.interval_uppers[0] < rid1.interval_uppers[1]);
    }

    #[test]
    fn proxy_replaces_spilled_children() {
        let filler = "w".repeat(800);
        let doc = format!(
            "<cat>{}</cat>",
            (0..20)
                .map(|i| format!("<p><n>item{i}</n><v>{filler}</v></p>"))
                .collect::<String>()
        );
        let (records, stats, _) = pack_doc(&doc, 2000);
        assert!(records.len() > 5);
        assert_eq!(stats.records as usize, records.len());
        // Root record: cat element with proxies only.
        let root = records.last().unwrap();
        let hdr = read_header(&root.bytes).unwrap();
        let body = &root.bytes[hdr.body_offset..];
        let mut it = read_nodes(body);
        let NodeView::Element { content, .. } = it.next().unwrap().unwrap() else {
            panic!("root record must start with the cat element");
        };
        let mut proxies = 0u64;
        let mut covered = 0u64;
        for n in read_nodes(content) {
            match n.unwrap() {
                NodeView::Proxy { count, .. } => {
                    proxies += 1;
                    covered += count;
                }
                _ => covered += 1, // trailing subtrees may stay inline
            }
        }
        assert!(proxies >= 1);
        assert_eq!(
            covered, 20,
            "proxies + inline subtrees must cover all 20 products"
        );
    }

    #[test]
    fn huge_fanout_merges_proxies() {
        // 2000 small children: the parent would overflow with per-child
        // proxies; range-proxy merging must keep the root record small.
        let doc = format!(
            "<r>{}</r>",
            (0..2000).map(|i| format!("<i>{i}</i>")).collect::<String>()
        );
        let (records, _, _) = pack_doc(&doc, 3000);
        let root = records.last().unwrap();
        assert!(
            root.bytes.len() <= 3100,
            "root record is {} bytes",
            root.bytes.len()
        );
        // Coverage must be complete.
        let hdr = read_header(&root.bytes).unwrap();
        let body = &root.bytes[hdr.body_offset..];
        let NodeView::Element {
            content, entries, ..
        } = read_nodes(body).next().unwrap().unwrap()
        else {
            panic!()
        };
        let mut covered = 0u64;
        for n in read_nodes(content) {
            match n.unwrap() {
                NodeView::Proxy { count, .. } => covered += count,
                _ => covered += 1,
            }
        }
        assert_eq!(covered, 2000);
        assert!(entries < 100, "proxies should merge, got {entries} entries");
    }

    #[test]
    fn interval_uppers_probe_correctly() {
        // For every record and every node id in it, a ceiling probe over all
        // interval uppers must land on that record.
        let filler = "x".repeat(500);
        let doc = format!(
            "<r>{}</r>",
            (0..30)
                .map(|i| format!("<p><a>{i}</a><b>{filler}</b></p>"))
                .collect::<String>()
        );
        let (records, _, _) = pack_doc(&doc, 1500);
        // Build the (upper, record index) index.
        let mut index: Vec<(NodeId, usize)> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            for u in &r.interval_uppers {
                index.push((u.clone(), i));
            }
        }
        index.sort_by(|a, b| a.0.cmp(&b.0));
        // Collect every node id per record by decoding.
        for (i, r) in records.iter().enumerate() {
            let hdr = read_header(&r.bytes).unwrap();
            let mut ids = Vec::new();
            collect_ids(&r.bytes[hdr.body_offset..], &hdr.context, &mut ids);
            for id in ids {
                let hit = index
                    .iter()
                    .find(|(u, _)| u >= &id)
                    .map(|(_, idx)| *idx)
                    .unwrap();
                assert_eq!(hit, i, "node {id} should probe to record {i}");
            }
        }
    }

    fn collect_ids(region: &[u8], ctx: &NodeId, out: &mut Vec<NodeId>) {
        for n in read_nodes(region) {
            match n.unwrap() {
                NodeView::Element { rel, content, .. } => {
                    let abs = ctx.child(&RelId::from_bytes(rel).unwrap());
                    out.push(abs.clone());
                    collect_ids(content, &abs, out);
                }
                NodeView::Proxy { .. } => {}
                other => out.push(ctx.child(&RelId::from_bytes(other.rel()).unwrap())),
            }
        }
    }

    #[test]
    fn min_id_and_clustering_key() {
        let (records, _, _) = pack_doc("<a><b/><c/></a>", 3500);
        assert_eq!(records[0].min_id.as_bytes(), &[0x02]);
    }

    #[test]
    fn packing_factor_scales_with_target() {
        let doc = format!(
            "<r>{}</r>",
            (0..200)
                .map(|i| format!("<p><a>{i}</a><b>text body {i}</b></p>"))
                .collect::<String>()
        );
        let (small, _, _) = pack_doc(&doc, 256);
        let (large, _, _) = pack_doc(&doc, 3500);
        assert!(
            small.len() > 2 * large.len(),
            "smaller target must yield more records ({} vs {})",
            small.len(),
            large.len()
        );
    }

    #[test]
    fn header_carries_context_path_and_ns() {
        let doc = r#"<a xmlns:p="urn:p"><big>BIGCONTENT</big></a>"#;
        // Force a spill of <big> by a tiny target.
        let doc = doc.replace("BIGCONTENT", &"z".repeat(600));
        let (records, _, dict) = pack_doc(&doc, 300);
        assert!(records.len() >= 2);
        let spilled = &records[0];
        let hdr = read_header(&spilled.bytes).unwrap();
        // The spilled record's context path starts at <a> and carries <a>'s
        // namespace declarations — the record is self-contained (§3.1).
        assert!(!hdr.path.is_empty());
        assert!(dict.matches_local(hdr.path[0], "a"));
        assert_eq!(hdr.namespaces.len(), 1);
        assert_eq!(dict.str(hdr.namespaces[0].1).as_ref(), "urn:p");
    }
}
