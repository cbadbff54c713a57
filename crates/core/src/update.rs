//! Sub-document update (§3.1, §5.1–5.2).
//!
//! LOB storage "imposes significant restrictions on XML subdocument update"
//! — the native format removes them: a single node is updated by rewriting
//! only the packed record that holds it (touching ≈ p·n bytes instead of the
//! whole document), and sibling insertion never renumbers anything because
//! Dewey relative IDs always have room in the middle ([`RelId::between`]).
//!
//! Operations: replace a text/attribute value, delete a subtree, insert a
//! parsed fragment (first/last/before/after a position). Records that
//! overflow after growth spill children into fresh records exactly like the
//! packer; records orphaned by subtree deletion are reclaimed through the
//! NodeID index.

use crate::error::{EngineError, Result};
use crate::pack::{kind, read_header, read_nodes, NodeView, PackedRecord};
use crate::xmltable::{nodeid_key, subtree_successor, DocId, XmlTable};
use rx_storage::codec::Enc;
use rx_storage::{Rid, Txn};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::{NameDict, QNameId, StrId};
use rx_xml::nodeid::{NodeId, RelId};
use rx_xml::value::TypeAnn;

/// Where to insert a new child fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertPos {
    /// As the first child of the target element.
    First,
    /// As the last child of the target element.
    Last,
    /// Immediately before the sibling with this node ID.
    Before(NodeId),
    /// Immediately after the sibling with this node ID.
    After(NodeId),
}

/// An editable in-memory node (decoded from one packed record).
#[derive(Debug, Clone, PartialEq)]
pub enum ENode {
    /// Element.
    Elem {
        /// Relative ID.
        rel: RelId,
        /// Name.
        name: QNameId,
        /// Namespace declarations.
        ns: Vec<(StrId, StrId)>,
        /// Children (attributes first, then content).
        children: Vec<ENode>,
    },
    /// Attribute.
    Attr {
        /// Relative ID.
        rel: RelId,
        /// Name.
        name: QNameId,
        /// Annotation.
        ann: TypeAnn,
        /// Value.
        value: String,
    },
    /// Text.
    Text {
        /// Relative ID.
        rel: RelId,
        /// Annotation.
        ann: TypeAnn,
        /// Value.
        value: String,
    },
    /// Comment.
    Comment {
        /// Relative ID.
        rel: RelId,
        /// Value.
        value: String,
    },
    /// Processing instruction.
    Pi {
        /// Relative ID.
        rel: RelId,
        /// Target.
        target: QNameId,
        /// Data.
        value: String,
    },
    /// Range proxy (subtrees in other records).
    Proxy {
        /// First covered sibling.
        first: RelId,
        /// Last covered sibling.
        last: RelId,
        /// Covered subtree count.
        count: u64,
    },
}

impl ENode {
    /// The node's relative ID (proxies: the first covered sibling's).
    pub fn rel(&self) -> &RelId {
        match self {
            ENode::Elem { rel, .. }
            | ENode::Attr { rel, .. }
            | ENode::Text { rel, .. }
            | ENode::Comment { rel, .. }
            | ENode::Pi { rel, .. } => rel,
            ENode::Proxy { first, .. } => first,
        }
    }

    /// The last relative ID covered (proxies span a range).
    pub fn last_rel(&self) -> &RelId {
        match self {
            ENode::Proxy { last, .. } => last,
            other => other.rel(),
        }
    }
}

/// Decode a record body region into editable nodes.
pub fn decode_region(region: &[u8]) -> Result<Vec<ENode>> {
    let mut out = Vec::new();
    for view in read_nodes(region) {
        out.push(decode_entry(&view?)?);
    }
    Ok(out)
}

fn decode_entry(view: &NodeView<'_>) -> Result<ENode> {
    Ok(match view {
        NodeView::Element {
            rel,
            name,
            nsdecls,
            content,
            ..
        } => ENode::Elem {
            rel: RelId::from_bytes(rel)?,
            name: *name,
            ns: nsdecls.clone(),
            children: decode_region(content)?,
        },
        NodeView::Attribute {
            rel,
            name,
            ann,
            value,
        } => ENode::Attr {
            rel: RelId::from_bytes(rel)?,
            name: *name,
            ann: *ann,
            value: (*value).to_string(),
        },
        NodeView::Text { rel, ann, value } => ENode::Text {
            rel: RelId::from_bytes(rel)?,
            ann: *ann,
            value: (*value).to_string(),
        },
        NodeView::Comment { rel, value } => ENode::Comment {
            rel: RelId::from_bytes(rel)?,
            value: (*value).to_string(),
        },
        NodeView::Pi { rel, target, value } => ENode::Pi {
            rel: RelId::from_bytes(rel)?,
            target: *target,
            value: (*value).to_string(),
        },
        NodeView::Proxy { first, last, count } => ENode::Proxy {
            first: RelId::from_bytes(first)?,
            last: RelId::from_bytes(last)?,
            count: *count,
        },
    })
}

/// Encode one node (matching the packer's format byte-for-byte).
pub fn encode_entry(node: &ENode, out: &mut Enc) {
    match node {
        ENode::Elem {
            rel,
            name,
            ns,
            children,
        } => {
            out.u8(kind::ELEMENT);
            out.bytes(rel.as_bytes());
            out.varint(u64::from(*name));
            out.varint(ns.len() as u64);
            for (p, u) in ns {
                out.varint(u64::from(*p));
                out.varint(u64::from(*u));
            }
            out.varint(children.len() as u64);
            let mut inner = Enc::new();
            for c in children {
                encode_entry(c, &mut inner);
            }
            let body = inner.into_bytes();
            out.varint(body.len() as u64);
            out.raw(&body);
        }
        ENode::Attr {
            rel,
            name,
            ann,
            value,
        } => {
            out.u8(kind::ATTRIBUTE);
            out.bytes(rel.as_bytes());
            out.varint(u64::from(*name));
            out.u8(*ann as u8);
            out.bytes(value.as_bytes());
        }
        ENode::Text { rel, ann, value } => {
            out.u8(kind::TEXT);
            out.bytes(rel.as_bytes());
            out.u8(*ann as u8);
            out.bytes(value.as_bytes());
        }
        ENode::Comment { rel, value } => {
            out.u8(kind::COMMENT);
            out.bytes(rel.as_bytes());
            out.bytes(value.as_bytes());
        }
        ENode::Pi { rel, target, value } => {
            out.u8(kind::PI);
            out.bytes(rel.as_bytes());
            out.varint(u64::from(*target));
            out.bytes(value.as_bytes());
        }
        ENode::Proxy { first, last, count } => {
            out.u8(kind::PROXY);
            out.bytes(first.as_bytes());
            out.bytes(last.as_bytes());
            out.varint(*count);
        }
    }
}

/// Compute the interval upper endpoints and minimum ID of a node sequence
/// under context `ctx` (mirrors the packer's run tracking).
fn compute_runs(entries: &[ENode], ctx: &NodeId) -> (Option<NodeId>, Vec<NodeId>) {
    fn walk(
        entries: &[ENode],
        ctx: &NodeId,
        min: &mut Option<NodeId>,
        runs: &mut Vec<(NodeId, NodeId)>,
        open: &mut bool,
    ) {
        for e in entries {
            match e {
                ENode::Proxy { .. } => {
                    *open = false;
                }
                ENode::Elem { rel, children, .. } => {
                    let abs = ctx.child(rel);
                    note(&abs, min, runs, open);
                    walk(children, &abs, min, runs, open);
                }
                other => {
                    let abs = ctx.child(other.rel());
                    note(&abs, min, runs, open);
                }
            }
        }
    }
    fn note(
        abs: &NodeId,
        min: &mut Option<NodeId>,
        runs: &mut Vec<(NodeId, NodeId)>,
        open: &mut bool,
    ) {
        if min.is_none() {
            *min = Some(abs.clone());
        }
        if *open {
            runs.last_mut().expect("open run exists").1 = abs.clone();
        } else {
            runs.push((abs.clone(), abs.clone()));
            *open = true;
        }
    }
    let mut min = None;
    let mut runs = Vec::new();
    let mut open = false;
    walk(entries, ctx, &mut min, &mut runs, &mut open);
    (min, runs.into_iter().map(|(_, last)| last).collect())
}

/// Re-encode a record (header preserved) from edited entries.
fn encode_record(header: &[u8], entries: &[ENode], ctx: &NodeId) -> Result<PackedRecord> {
    let mut e = Enc::with_capacity(header.len() + 256);
    e.raw(header);
    e.varint(entries.len() as u64);
    for n in entries {
        encode_entry(n, &mut e);
    }
    let (min, uppers) = compute_runs(entries, ctx);
    Ok(PackedRecord {
        bytes: e.into_bytes(),
        min_id: min.ok_or_else(|| EngineError::Record("record would become empty".into()))?,
        interval_uppers: uppers,
    })
}

/// The record-local edit context: decoded entries + original header bytes.
struct EditCtx {
    rid: Rid,
    header_bytes: Vec<u8>,
    ctx: NodeId,
    entries: Vec<ENode>,
    old_uppers: Vec<NodeId>,
}

fn load_edit(xml: &XmlTable, doc: DocId, target: &NodeId) -> Result<EditCtx> {
    let rid = xml
        .locate(doc, target)?
        .ok_or_else(|| EngineError::NotFound {
            kind: "node",
            name: format!("docid {doc} node {target}"),
        })?;
    let row = xml.fetch(rid)?;
    let hdr = read_header(&row.data)?;
    let entries = decode_region(&row.data[hdr.body_offset..])?;
    // Header bytes = everything before the subtree count varint. Re-encode
    // them verbatim (context/path/ns unchanged by node edits).
    let header_bytes = {
        // The header is everything up to body_offset minus the trailing
        // subtree-count varint, so rebuild it from the decoded header.
        let mut e = Enc::new();
        e.bytes(hdr.context.as_bytes());
        e.varint(hdr.path.len() as u64);
        for q in &hdr.path {
            e.varint(u64::from(*q));
        }
        e.varint(hdr.namespaces.len() as u64);
        for (p, u) in &hdr.namespaces {
            e.varint(u64::from(*p));
            e.varint(u64::from(*u));
        }
        e.into_bytes()
    };
    let (_, old_uppers) = compute_runs(&entries, &hdr.context);
    Ok(EditCtx {
        rid,
        header_bytes,
        ctx: hdr.context,
        entries,
        old_uppers,
    })
}

/// Walk to the entry holding `target`, applying `f` to (parent children vec,
/// index of the entry, absolute id of the entry). Returns `f`'s output.
fn with_target<T>(
    entries: &mut Vec<ENode>,
    ctx: &NodeId,
    target: &NodeId,
    f: &mut impl FnMut(&mut Vec<ENode>, usize, &NodeId) -> Result<T>,
) -> Result<Option<T>> {
    for i in 0..entries.len() {
        let abs = ctx.child(entries[i].rel());
        if matches!(entries[i], ENode::Proxy { .. }) {
            continue;
        }
        if &abs == target {
            return f(entries, i, &abs).map(Some);
        }
        if abs.is_ancestor(target) {
            if let ENode::Elem { children, .. } = &mut entries[i] {
                return with_target(children, &abs, target, f);
            }
            return Ok(None);
        }
    }
    Ok(None)
}

/// Counters for the E3 update experiment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Bytes of record images written (the paper's "touching storage of pn").
    pub bytes_written: u64,
    /// Records rewritten or created.
    pub records_touched: u64,
}

/// Replace the value of a text or attribute node.
pub fn replace_value(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    target: &NodeId,
    new_value: &str,
) -> Result<UpdateStats> {
    let _latch = xml.edit_guard();
    let mut edit = load_edit(xml, doc, target)?;
    let found = with_target(
        &mut edit.entries,
        &edit.ctx,
        target,
        &mut |list, i, _| match &mut list[i] {
            ENode::Text { value, .. } | ENode::Attr { value, .. } => {
                *value = new_value.to_string();
                Ok(())
            }
            other => Err(EngineError::Invalid(format!(
                "replace_value target must be a text or attribute node, found {other:?}"
            ))),
        },
    )?;
    if found.is_none() {
        return Err(EngineError::NotFound {
            kind: "node",
            name: format!("docid {doc} node {target}"),
        });
    }
    commit_edit(txn, xml, doc, edit)
}

/// Delete the subtree rooted at `target` (records fully inside the subtree
/// are reclaimed through the NodeID index).
pub fn delete_node(txn: &Txn, xml: &XmlTable, doc: DocId, target: &NodeId) -> Result<UpdateStats> {
    let _latch = xml.edit_guard();
    let mut edit = load_edit(xml, doc, target)?;
    let found = with_target(&mut edit.entries, &edit.ctx, target, &mut |list, i, _| {
        list.remove(i);
        Ok(())
    })?;
    if found.is_none() {
        return Err(EngineError::NotFound {
            kind: "node",
            name: format!("docid {doc} node {target}"),
        });
    }
    if edit.entries.is_empty() {
        return Err(EngineError::Invalid(
            "deleting the document root is not supported; delete the row instead".into(),
        ));
    }
    let mut stats = commit_edit(txn, xml, doc, edit)?;
    // Reclaim records that lived entirely inside the deleted subtree.
    let succ = subtree_successor(target);
    let lo = nodeid_key(doc, target);
    let mut hi = Vec::with_capacity(8 + succ.len());
    hi.extend_from_slice(&doc.to_be_bytes());
    hi.extend_from_slice(&succ);
    let mut doomed: Vec<(Vec<u8>, Rid)> = Vec::new();
    xml.nodeid_index().scan_from(&lo, |k, v| {
        if k >= hi.as_slice() {
            return false;
        }
        doomed.push((k.to_vec(), Rid::from_u64(v)));
        true
    })?;
    let mut deleted_rids: Vec<Rid> = Vec::new();
    for (key, rid) in doomed {
        txn.index_delete(xml.nodeid_index(), key)?;
        if !deleted_rids.contains(&rid) {
            txn.heap_delete(xml.heap(), rid)?;
            deleted_rids.push(rid);
            stats.records_touched += 1;
        }
    }
    Ok(stats)
}

/// Insert a parsed XML fragment relative to `target`. For `First`/`Last` the
/// target is the parent element; for `Before`/`After` the position carries
/// the sibling and `target` is the parent element.
pub fn insert_fragment(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    dict: &NameDict,
    parent: &NodeId,
    pos: InsertPos,
    fragment_xml: &str,
) -> Result<UpdateStats> {
    let _latch = xml.edit_guard();
    let mut edit = load_edit(xml, doc, parent)?;
    let dict = dict.clone_ref();
    let frag_events = FragmentBuilder::parse(fragment_xml, dict)?;
    let mut result: Result<()> = Ok(());
    let found = with_target(&mut edit.entries, &edit.ctx, parent, &mut |list, i, abs| {
        let ENode::Elem { children, .. } = &mut list[i] else {
            result = Err(EngineError::Invalid(
                "insertion parent must be an element".into(),
            ));
            return Ok(());
        };
        // Choose the new child's relative ID using the §3.1 midpoint rules.
        let idx_and_rel: Result<(usize, RelId)> = (|| {
            // Content children (skip attributes: fragments insert after them).
            let first_content = children
                .iter()
                .position(|c| !matches!(c, ENode::Attr { .. }))
                .unwrap_or(children.len());
            Ok(match &pos {
                InsertPos::First => {
                    let rel = match children.get(first_content) {
                        Some(c) => c.rel().before(),
                        None => match children.last() {
                            Some(last_attr) => last_attr.rel().next_sibling(),
                            None => RelId::first(),
                        },
                    };
                    (first_content, rel)
                }
                InsertPos::Last => {
                    let rel = match children.last() {
                        Some(c) => c.last_rel().next_sibling(),
                        None => RelId::first(),
                    };
                    (children.len(), rel)
                }
                InsertPos::Before(sib) => {
                    let sib_rel = sibling_rel(abs, sib)?;
                    let idx = children
                        .iter()
                        .position(|c| c.rel() >= &sib_rel)
                        .unwrap_or(children.len());
                    let rel = if idx == 0 || idx == first_content {
                        sib_rel.before()
                    } else {
                        RelId::between(children[idx - 1].last_rel(), &sib_rel)
                            .map_err(EngineError::from)?
                    };
                    (idx, rel)
                }
                InsertPos::After(sib) => {
                    let sib_rel = sibling_rel(abs, sib)?;
                    let idx = children
                        .iter()
                        .position(|c| c.rel() > &sib_rel)
                        .unwrap_or(children.len());
                    let rel = match children.get(idx) {
                        Some(next) => {
                            RelId::between(&sib_rel, next.rel()).map_err(EngineError::from)?
                        }
                        None => sib_rel.next_sibling(),
                    };
                    (idx, rel)
                }
            })
        })();
        match idx_and_rel {
            Ok((idx, rel)) => {
                let node = frag_events.instantiate(rel);
                children.insert(idx, node);
            }
            Err(e) => result = Err(e),
        }
        Ok(())
    })?;
    result?;
    if found.is_none() {
        return Err(EngineError::NotFound {
            kind: "node",
            name: format!("docid {doc} node {parent}"),
        });
    }
    commit_edit(txn, xml, doc, edit)
}

fn sibling_rel(parent_abs: &NodeId, sib: &NodeId) -> Result<RelId> {
    if !parent_abs.is_ancestor(sib) {
        return Err(EngineError::Invalid(format!(
            "{sib} is not a child of {parent_abs}"
        )));
    }
    let tail = &sib.as_bytes()[parent_abs.as_bytes().len()..];
    RelId::from_bytes(tail).map_err(EngineError::from)
}

/// Re-encode the edited record; spill children when it no longer fits.
fn commit_edit(txn: &Txn, xml: &XmlTable, doc: DocId, edit: EditCtx) -> Result<UpdateStats> {
    let mut stats = UpdateStats::default();
    let limit = rx_storage::MAX_RECORD_SIZE - 64;
    let mut rec = encode_record(&edit.header_bytes, &edit.entries, &edit.ctx)?;
    let spills = rec.bytes.len() > limit;
    if spills {
        // Remove the stale interval entries FIRST: a spilled record's new
        // entry may reuse exactly the same (doc, upper) key.
        xml.delete_uppers(txn, doc, &edit.old_uppers)?;
    }
    let mut entries = edit.entries;
    while rec.bytes.len() > limit {
        // Spill the largest element's children block into fresh records.
        spill_largest(txn, xml, doc, &mut entries, &edit.ctx, limit, &mut stats)?;
        rec = encode_record(&edit.header_bytes, &entries, &edit.ctx)?;
    }
    stats.bytes_written += rec.bytes.len() as u64;
    stats.records_touched += 1;
    xml.update_record(txn, doc, edit.rid, &rec, &[])?;
    if !spills {
        // Without a spill the record's surviving interval entries were
        // overwritten in place above, and only the stale ones go, after.
        // Deleting a live key and re-inserting it would leave a window in
        // which an unlocked reader's NodeID probe finds no record at all.
        let stale: Vec<NodeId> = edit
            .old_uppers
            .into_iter()
            .filter(|u| !rec.interval_uppers.contains(u))
            .collect();
        xml.delete_uppers(txn, doc, &stale)?;
    }
    Ok(stats)
}

/// Find the element with the largest encoded children and move those
/// children into fresh records (context = that element), replacing them with
/// a range proxy. Children are grouped into records of at most `limit` bytes;
/// an oversized element child is spilled recursively first.
fn spill_largest(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    entries: &mut [ENode],
    ctx: &NodeId,
    limit: usize,
    stats: &mut UpdateStats,
) -> Result<()> {
    // Locate the largest element by encoded size (top level only; recursion
    // happens across loop iterations in commit_edit and within
    // spill_children_of for oversized children).
    let mut best: Option<(usize, usize)> = None; // (index, size)
    for (i, e) in entries.iter().enumerate() {
        if let ENode::Elem { .. } = e {
            let mut enc = Enc::new();
            encode_entry(e, &mut enc);
            let size = enc.len();
            if best.is_none_or(|(_, s)| size > s) {
                best = Some((i, size));
            }
        }
    }
    let Some((i, _)) = best else {
        return Err(EngineError::Record(
            "record overflows but holds no spillable element".into(),
        ));
    };
    let abs = ctx.child(entries[i].rel());
    let ENode::Elem { children, .. } = &mut entries[i] else {
        unreachable!()
    };
    spill_children_of(txn, xml, doc, &abs, children, limit, stats)
}

/// Move the non-attribute children of the element at `abs` into new records
/// (grouped to `limit` bytes each) and replace them with one range proxy.
fn spill_children_of(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    abs: &NodeId,
    children: &mut Vec<ENode>,
    limit: usize,
    stats: &mut UpdateStats,
) -> Result<()> {
    let keep: Vec<ENode> = children
        .iter()
        .filter(|c| matches!(c, ENode::Attr { .. }))
        .cloned()
        .collect();
    let mut spill: Vec<ENode> = children
        .iter()
        .filter(|c| !matches!(c, ENode::Attr { .. }))
        .cloned()
        .collect();
    if spill.is_empty() {
        return Err(EngineError::Record(format!(
            "record overflows with an unsplittable node of doc {doc}"
        )));
    }
    // Shrink oversized element children recursively before grouping.
    for child in spill.iter_mut() {
        let mut enc = Enc::new();
        encode_entry(child, &mut enc);
        if enc.len() > limit {
            let child_abs = abs.child(child.rel());
            match child {
                ENode::Elem { children: gk, .. } => {
                    spill_children_of(txn, xml, doc, &child_abs, gk, limit, stats)?;
                }
                other => {
                    return Err(EngineError::Record(format!(
                        "single node of {} bytes exceeds the record limit: {other:?}",
                        enc.len()
                    )))
                }
            }
        }
    }
    let first = spill.first().unwrap().rel().clone();
    let last = spill.last().unwrap().last_rel().clone();
    let count: u64 = spill
        .iter()
        .map(|e| match e {
            ENode::Proxy { count, .. } => *count,
            _ => 1,
        })
        .sum();
    // Header for the spilled records: context = this element (path/ns lists
    // left empty; they are advisory context for index-driven evaluation).
    let spilled_header = {
        let mut e = Enc::new();
        e.bytes(abs.as_bytes());
        e.varint(0).varint(0);
        e.into_bytes()
    };
    // Group consecutive children into records of <= limit bytes.
    let mut group: Vec<ENode> = Vec::new();
    let mut group_bytes = 0usize;
    let emit = |group: &mut Vec<ENode>, stats: &mut UpdateStats| -> Result<()> {
        if group.is_empty() {
            return Ok(());
        }
        let rec = encode_record(&spilled_header, group, abs)?;
        stats.bytes_written += rec.bytes.len() as u64;
        stats.records_touched += 1;
        xml.insert_record(txn, doc, &rec)?;
        group.clear();
        Ok(())
    };
    for child in spill {
        let mut enc = Enc::new();
        encode_entry(&child, &mut enc);
        let size = enc.len();
        if group_bytes + size + spilled_header.len() + 16 > limit {
            emit(&mut group, stats)?;
            group_bytes = 0;
        }
        group_bytes += size;
        group.push(child);
    }
    emit(&mut group, stats)?;
    let mut new_children = keep;
    new_children.push(ENode::Proxy { first, last, count });
    *children = new_children;
    Ok(())
}

// ---------------------------------------------------------------------------
// Fragment parsing
// ---------------------------------------------------------------------------

/// A parsed single-root fragment, instantiable with a chosen root relative ID.
struct FragmentBuilder {
    root: ENode,
}

impl FragmentBuilder {
    fn parse(text: &str, dict: &NameDict) -> Result<FragmentBuilder> {
        struct B {
            stack: Vec<ENode>,
            root: Option<ENode>,
        }
        impl B {
            fn alloc_rel(&mut self) -> RelId {
                match self.stack.last() {
                    Some(ENode::Elem { children, .. }) => match children.last() {
                        Some(c) => c.last_rel().next_sibling(),
                        None => RelId::first(),
                    },
                    _ => RelId::first(),
                }
            }
            fn push_node(&mut self, n: ENode) {
                match self.stack.last_mut() {
                    Some(ENode::Elem { children, .. }) => children.push(n),
                    _ => self.root = Some(n),
                }
            }
        }
        impl EventSink for B {
            fn event(&mut self, ev: Event<'_>) -> rx_xml::Result<()> {
                match ev {
                    Event::StartDocument | Event::EndDocument => {}
                    Event::StartElement { name } => {
                        let rel = self.alloc_rel();
                        self.stack.push(ENode::Elem {
                            rel,
                            name,
                            ns: Vec::new(),
                            children: Vec::new(),
                        });
                    }
                    Event::NamespaceDecl { prefix, uri } => {
                        if let Some(ENode::Elem { ns, .. }) = self.stack.last_mut() {
                            ns.push((prefix, uri));
                        }
                    }
                    Event::Attribute { name, value, ann } => {
                        let rel = match self.stack.last() {
                            Some(ENode::Elem { children, .. }) => match children.last() {
                                Some(c) => c.last_rel().next_sibling(),
                                None => RelId::first(),
                            },
                            _ => RelId::first(),
                        };
                        if let Some(ENode::Elem { children, .. }) = self.stack.last_mut() {
                            children.push(ENode::Attr {
                                rel,
                                name,
                                ann,
                                value: value.to_string(),
                            });
                        }
                    }
                    Event::Text { value, ann } => {
                        let rel = self.alloc_rel();
                        self.push_node(ENode::Text {
                            rel,
                            ann,
                            value: value.to_string(),
                        });
                    }
                    Event::Comment { value } => {
                        let rel = self.alloc_rel();
                        self.push_node(ENode::Comment {
                            rel,
                            value: value.to_string(),
                        });
                    }
                    Event::Pi { target, data } => {
                        let rel = self.alloc_rel();
                        self.push_node(ENode::Pi {
                            rel,
                            target,
                            value: data.to_string(),
                        });
                    }
                    Event::EndElement => {
                        let done = self.stack.pop().expect("balanced");
                        self.push_node(done);
                    }
                }
                Ok(())
            }
        }
        let mut b = B {
            stack: Vec::new(),
            root: None,
        };
        rx_xml::Parser::new(dict).parse(text, &mut b)?;
        let root = b
            .root
            .ok_or_else(|| EngineError::Invalid("fragment must contain one root element".into()))?;
        Ok(FragmentBuilder { root })
    }

    /// Clone the fragment with its root's relative ID replaced.
    fn instantiate(&self, rel: RelId) -> ENode {
        let mut node = self.root.clone();
        match &mut node {
            ENode::Elem { rel: r, .. }
            | ENode::Attr { rel: r, .. }
            | ENode::Text { rel: r, .. }
            | ENode::Comment { rel: r, .. }
            | ENode::Pi { rel: r, .. } => *r = rel,
            ENode::Proxy { .. } => unreachable!("fragments have no proxies"),
        }
        node
    }
}

/// Internal helper so [`insert_fragment`] can hold the dict beyond the parse.
trait CloneRef {
    fn clone_ref(&self) -> &Self;
}

impl CloneRef for NameDict {
    fn clone_ref(&self) -> &Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{NoObserver, Packer};
    use crate::traverse::{DropIds, Traverser};
    use rx_storage::wal::{MemLogStore, Wal};
    use rx_storage::{BufferPool, LockManager, MemBackend, TableSpace, TxnManager};
    use rx_xml::Serializer;
    use std::sync::Arc;

    fn store(input: &str, target: usize) -> (XmlTable, NameDict, Arc<TxnManager>) {
        let pool = BufferPool::new(1024);
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
        rx_xml::Parser::new(&dict).parse(input, &mut p).unwrap();
        p.finish().unwrap();
        let txn = txns.begin().unwrap();
        for r in &records {
            xt.insert_record(&txn, 1, r).unwrap();
        }
        txn.commit().unwrap();
        (xt, dict, txns)
    }

    fn serialize(xt: &XmlTable, dict: &NameDict) -> String {
        let mut ser = Serializer::new(dict);
        let mut sink = DropIds(&mut ser);
        Traverser::new(xt, 1).run(&mut sink).unwrap();
        ser.finish()
    }

    fn nid(bytes: &[u8]) -> NodeId {
        NodeId::from_bytes(bytes).unwrap()
    }

    #[test]
    fn roundtrip_decode_encode_identical() {
        let (xt, _, _) = store("<a x=\"1\"><b>hi</b><c/><!--n--></a>", 3500);
        let rid = xt.locate(1, &nid(&[0x02])).unwrap().unwrap();
        let row = xt.fetch(rid).unwrap();
        let hdr = read_header(&row.data).unwrap();
        let entries = decode_region(&row.data[hdr.body_offset..]).unwrap();
        let mut e = Enc::new();
        for n in &entries {
            encode_entry(n, &mut e);
        }
        assert_eq!(e.into_bytes(), row.data[hdr.body_offset..].to_vec());
    }

    #[test]
    fn replace_text_value() {
        let (xt, dict, txns) = store("<a><b>old</b></a>", 3500);
        let txn = txns.begin().unwrap();
        // b's text node: a=02, b=0202, text=020202.
        let stats = replace_value(&txn, &xt, 1, &nid(&[0x02, 0x02, 0x02]), "new").unwrap();
        txn.commit().unwrap();
        assert_eq!(serialize(&xt, &dict), "<a><b>new</b></a>");
        assert_eq!(stats.records_touched, 1);
        assert!(stats.bytes_written > 0);
    }

    #[test]
    fn replace_attribute_value() {
        let (xt, dict, txns) = store(r#"<a x="1"><b/></a>"#, 3500);
        let txn = txns.begin().unwrap();
        replace_value(&txn, &xt, 1, &nid(&[0x02, 0x02]), "42").unwrap();
        txn.commit().unwrap();
        assert_eq!(serialize(&xt, &dict), r#"<a x="42"><b/></a>"#);
    }

    #[test]
    fn delete_subtree() {
        let (xt, dict, txns) = store("<a><b><x>1</x></b><c>2</c></a>", 3500);
        let txn = txns.begin().unwrap();
        delete_node(&txn, &xt, 1, &nid(&[0x02, 0x02])).unwrap();
        txn.commit().unwrap();
        assert_eq!(serialize(&xt, &dict), "<a><c>2</c></a>");
    }

    #[test]
    fn delete_spilled_subtree_reclaims_records() {
        let filler = "d".repeat(400);
        let doc = format!("<a><big><p>{filler}</p><q>{filler}</q></big><keep>k</keep></a>");
        let (xt, dict, txns) = store(&doc, 500);
        let before = xt.heap().stats().unwrap().records;
        assert!(before > 1, "expected spilled records");
        let txn = txns.begin().unwrap();
        delete_node(&txn, &xt, 1, &nid(&[0x02, 0x02])).unwrap();
        txn.commit().unwrap();
        assert_eq!(serialize(&xt, &dict), "<a><keep>k</keep></a>");
        let after = xt.heap().stats().unwrap().records;
        assert!(
            after < before,
            "spilled records reclaimed: {before} -> {after}"
        );
    }

    #[test]
    fn insert_first_last_before_after() {
        let (xt, dict, txns) = store("<a><m>1</m><m>2</m></a>", 3500);
        let a = nid(&[0x02]);
        let m1 = nid(&[0x02, 0x02]);
        let m2 = nid(&[0x02, 0x04]);
        let txn = txns.begin().unwrap();
        insert_fragment(&txn, &xt, 1, &dict, &a, InsertPos::First, "<f/>").unwrap();
        insert_fragment(&txn, &xt, 1, &dict, &a, InsertPos::Last, "<l/>").unwrap();
        insert_fragment(
            &txn,
            &xt,
            1,
            &dict,
            &a,
            InsertPos::Before(m2.clone()),
            "<b2/>",
        )
        .unwrap();
        insert_fragment(
            &txn,
            &xt,
            1,
            &dict,
            &a,
            InsertPos::After(m1.clone()),
            "<a1/>",
        )
        .unwrap();
        txn.commit().unwrap();
        assert_eq!(
            serialize(&xt, &dict),
            "<a><f/><m>1</m><a1/><b2/><m>2</m><l/></a>"
        );
    }

    #[test]
    fn repeated_middle_insertion_stays_stable() {
        // The §3.1 stability claim: midpoint insertion never renumbers.
        let (xt, dict, txns) = store("<a><x>L</x><x>R</x></a>", 3500);
        let a = nid(&[0x02]);
        let left = nid(&[0x02, 0x02]);
        for i in 0..20 {
            let txn = txns.begin().unwrap();
            insert_fragment(
                &txn,
                &xt,
                1,
                &dict,
                &a,
                InsertPos::After(left.clone()),
                &format!("<m>{i}</m>"),
            )
            .unwrap();
            txn.commit().unwrap();
        }
        let out = serialize(&xt, &dict);
        // L first, R last, 19..0 in the middle (each insert lands right
        // after L, pushing earlier inserts right).
        assert!(out.starts_with("<a><x>L</x><m>19</m>"));
        assert!(out.ends_with("<m>0</m><x>R</x></a>"));
        // The original nodes kept their IDs.
        assert!(xt.locate(1, &left).unwrap().is_some());
        assert_eq!(crate::traverse::string_value(&xt, 1, &left).unwrap(), "L");
    }

    #[test]
    fn growth_spills_record() {
        let (xt, dict, txns) = store("<a><b>tiny</b></a>", 3500);
        // Insert a huge child: the single record must split.
        let big = format!("<huge>{}</huge>", "h".repeat(3000));
        let txn = txns.begin().unwrap();
        let stats =
            insert_fragment(&txn, &xt, 1, &dict, &nid(&[0x02]), InsertPos::Last, &big).unwrap();
        // And another to force > MAX_RECORD_SIZE.
        let stats2 =
            insert_fragment(&txn, &xt, 1, &dict, &nid(&[0x02]), InsertPos::Last, &big).unwrap();
        txn.commit().unwrap();
        assert!(stats.records_touched + stats2.records_touched >= 2);
        let out = serialize(&xt, &dict);
        assert!(out.contains("tiny"));
        assert_eq!(out.matches("<huge>").count(), 2);
    }

    #[test]
    fn update_rollback_restores() {
        let (xt, dict, txns) = store("<a><b>orig</b></a>", 3500);
        let txn = txns.begin().unwrap();
        replace_value(&txn, &xt, 1, &nid(&[0x02, 0x02, 0x02]), "changed").unwrap();
        txn.rollback().unwrap();
        assert_eq!(serialize(&xt, &dict), "<a><b>orig</b></a>");
    }

    #[test]
    fn errors_on_missing_or_wrong_targets() {
        let (xt, dict, txns) = store("<a><b>x</b></a>", 3500);
        let txn = txns.begin().unwrap();
        assert!(replace_value(&txn, &xt, 1, &nid(&[0x7E]), "v").is_err());
        // Replace on an element is invalid.
        assert!(replace_value(&txn, &xt, 1, &nid(&[0x02, 0x02]), "v").is_err());
        // Insert under a text node is invalid.
        assert!(insert_fragment(
            &txn,
            &xt,
            1,
            &dict,
            &nid(&[0x02, 0x02, 0x02]),
            InsertPos::Last,
            "<x/>"
        )
        .is_err());
        txn.rollback().unwrap();
    }
}
