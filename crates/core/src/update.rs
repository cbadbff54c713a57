//! Sub-document update (§3.1).
//!
//! LOB storage "imposes significant restrictions on XML subdocument update"
//! — the native format removes them: a single node is updated by rewriting
//! only the packed record that holds it (touching ≈ p·n bytes instead of the
//! whole document), and sibling insertion never renumbers anything because
//! Dewey relative IDs always have room in the middle ([`RelId::between`]).
//!
//! Operations: replace a text/attribute value, delete a subtree, insert a
//! parsed fragment (first/last/before/after a position). An edit replays the
//! record that holds its target into a [`Packer`] resumed at the record's
//! context, with the change applied, so the packer is the only writer of
//! packed records: a record that outgrows the edit limit spills exactly as
//! at insert time. An edit that adds or removes a top-level subtree of a
//! spilled record also rewrites the range proxy that covers it in the
//! parent's record, which keeps every proxy's range and count exact. Records
//! orphaned by subtree deletion are reclaimed through the NodeID index.
//!
//! An edit takes no latch: its caller holds the document's X lock
//! ([`crate::db::Database::update_document_txn`]), so no other transaction
//! reads or writes the records it rewrites.

use crate::error::{EngineError, Result};
use crate::pack::{
    find, read_nodes, NoObserver, NodeView, PackedRecord, Packer, Place, RecordHeader,
};
use crate::traverse::{IdEventSink, Traverser};
use crate::xmltable::{subtree_successor, DocId, LoadedRecord, XmlTable};
use rx_storage::Txn;
use rx_xml::event::{Event, EventSink};
use rx_xml::name::NameDict;
use rx_xml::nodeid::{NodeId, RelId};
use rx_xml::token::{TokenStream, TokenWriter};

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

/// Counters for the E3 update experiment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Bytes of record images written (the paper's "touching storage of pn").
    pub bytes_written: u64,
    /// Records rewritten or created.
    pub records_touched: u64,
}

impl std::ops::AddAssign for UpdateStats {
    fn add_assign(&mut self, other: UpdateStats) {
        self.bytes_written += other.bytes_written;
        self.records_touched += other.records_touched;
    }
}

/// How a range proxy's `(first, last, count)` is rewritten; `None` drops it.
type ProxyRewrite<'a> = &'a dyn Fn(RelId, RelId, u64) -> Option<(RelId, RelId, u64)>;

/// One change, applied while a record is replayed into the packer.
enum Change<'a> {
    /// Give this text or attribute node a new value.
    Value(&'a NodeId, &'a str),
    /// Leave out the subtree rooted at this node.
    Delete(&'a NodeId),
    /// Splice `fragment` in as a child of `parent` with relative ID `rel`,
    /// before the child entry whose relative ID is `before` (last when
    /// `None`).
    Insert {
        parent: &'a NodeId,
        before: Option<RelId>,
        rel: RelId,
        fragment: &'a TokenStream,
    },
    /// Rewrite the range proxy of `parent` that covers its child `covering`.
    Proxy {
        parent: &'a NodeId,
        covering: &'a RelId,
        rewrite: ProxyRewrite<'a>,
    },
}

impl Change<'_> {
    /// The error for a change that found nothing to apply to.
    fn missing(&self, doc: DocId) -> EngineError {
        match self {
            Change::Value(node, _) | Change::Delete(node) | Change::Insert { parent: node, .. } => {
                not_found(doc, node)
            }
            Change::Proxy {
                parent, covering, ..
            } => EngineError::Record(format!(
                "no range proxy under {parent} covers {covering:?} in doc {doc}"
            )),
        }
    }

    /// Does an insertion go under the node `ctx`, before the entry `at`?
    fn splices_at(&self, ctx: &[u8], at: Option<&RelId>) -> bool {
        matches!(self, Change::Insert { parent, before, .. } if parent.as_bytes() == ctx && before.as_ref() == at)
    }
}

fn not_found(doc: DocId, node: &NodeId) -> EngineError {
    EngineError::NotFound {
        kind: "node",
        name: format!("docid {doc} node {node}"),
    }
}

/// The record that holds `node`: §3.4's ceiling probe, then one read.
fn holding(xml: &XmlTable, doc: DocId, node: &NodeId) -> Result<LoadedRecord> {
    let found = xml.locate(doc, node.as_bytes())?;
    xml.read(found.ok_or_else(|| not_found(doc, node))?.rid)
}

/// The NodeID-index entries that name `rec`: its interval uppers, found
/// between its smallest node and the end of its last top-level subtree.
fn uppers(xml: &XmlTable, doc: DocId, rec: &LoadedRecord) -> Result<Vec<NodeId>> {
    let Some(tail) = read_nodes(rec.region()).last().transpose()? else {
        return Ok(Vec::new());
    };
    let end = subtree_successor(&[rec.header().context.as_bytes(), tail.last()].concat());
    let mut uppers = Vec::new();
    xml.scan((doc, rec.min_node()), (doc, Some(&end)), |_, upper, rid| {
        if rid == rec.rid() {
            uppers.push(NodeId::from_bytes_unchecked(upper.to_vec()));
        }
        true
    })?;
    Ok(uppers)
}

/// Replay a record's `body` into a packer resumed at its context, with
/// `change` applied. Returns the records the packer emits, the context
/// record last, and whether the change applied.
fn repack(
    header: &RecordHeader,
    body: &[u8],
    change: &Change<'_>,
) -> Result<(Vec<PackedRecord>, bool)> {
    let mut records = Vec::new();
    let mut obs = NoObserver;
    let mut packer = Packer::resume(header, &mut records, &mut obs);
    let mut replay = Replay {
        packer: &mut packer,
        change,
        applied: false,
        id: header.context.as_bytes().to_vec(),
    };
    replay.region(body)?;
    let applied = replay.applied;
    packer.finish()?;
    Ok((records, applied))
}

/// Replays a record's nodes, with their own IDs, into a resumed packer.
struct Replay<'c, 'p, 's, 'o> {
    packer: &'p mut Packer<'s, 'o>,
    change: &'c Change<'c>,
    applied: bool,
    /// Absolute ID of the parent of the entries being replayed.
    id: Vec<u8>,
}

impl Replay<'_, '_, '_, '_> {
    /// Replay the sibling entries of `region`, children of the node in `id`.
    fn region(&mut self, region: &[u8]) -> Result<()> {
        for entry in read_nodes(region) {
            let entry = entry?;
            let rel = RelId::from_bytes(entry.rel())?;
            self.splice(Some(&rel))?;
            self.entry(&entry, rel)?;
        }
        self.splice(None)
    }

    /// Splice the fragment in here, if the change inserts here.
    fn splice(&mut self, at: Option<&RelId>) -> Result<()> {
        if let change @ Change::Insert { rel, fragment, .. } = self.change {
            if change.splices_at(&self.id, at) {
                self.packer.set_rel(rel.clone());
                fragment.replay(self.packer)?;
                self.applied = true;
            }
        }
        Ok(())
    }

    fn entry(&mut self, entry: &NodeView<'_>, rel: RelId) -> Result<()> {
        if let NodeView::Proxy { last, count, .. } = *entry {
            let last = RelId::from_bytes(last)?;
            if let Change::Proxy {
                parent,
                covering,
                rewrite,
            } = self.change
            {
                if parent.as_bytes() == self.id && rel <= **covering && **covering <= last {
                    self.applied = true;
                    if let Some((first, last, count)) = rewrite(rel, last, count) {
                        self.packer.proxy(first, last, count);
                    }
                    return Ok(());
                }
            }
            self.packer.proxy(rel, last, count);
            return Ok(());
        }
        let ctx_len = self.id.len();
        self.id.extend_from_slice(rel.as_bytes());
        let mut value = None;
        match self.change {
            Change::Delete(target) if target.as_bytes() == self.id => {
                self.applied = true;
                self.id.truncate(ctx_len);
                return Ok(());
            }
            Change::Value(target, v) if target.as_bytes() == self.id => {
                if !matches!(entry, NodeView::Text { .. } | NodeView::Attribute { .. }) {
                    return Err(EngineError::Invalid(format!(
                        "replace_value target must be a text or attribute node, found {entry:?}"
                    )));
                }
                self.applied = true;
                value = Some(*v);
            }
            _ => {}
        }
        self.packer.set_rel(rel);
        let ev = match *entry {
            NodeView::Element {
                name,
                ref nsdecls,
                content,
                ..
            } => {
                self.packer.handle(Event::StartElement { name })?;
                for (prefix, uri) in nsdecls.iter() {
                    self.packer.handle(Event::NamespaceDecl { prefix, uri })?;
                }
                self.region(content)?;
                Event::EndElement
            }
            NodeView::Attribute {
                name,
                ann,
                value: v,
                ..
            } => Event::Attribute {
                name,
                value: value.unwrap_or(v),
                ann,
            },
            NodeView::Text { ann, value: v, .. } => Event::Text {
                value: value.unwrap_or(v),
                ann,
            },
            NodeView::Comment { value, .. } => Event::Comment { value },
            NodeView::Pi { target, value, .. } => Event::Pi {
                target,
                data: value,
            },
            NodeView::Proxy { .. } => unreachable!("handled above"),
        };
        self.id.truncate(ctx_len);
        self.packer.handle(ev)
    }
}

/// Apply `change` to `rec` and write the result: spilled records are
/// inserted, the context record overwrites `rec` in place, and a spilled
/// record the change emptied is deleted with its NodeID-index entries.
fn edit(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    rec: &LoadedRecord,
    change: &Change<'_>,
) -> Result<UpdateStats> {
    let (mut records, applied) = repack(rec.header(), rec.region(), change)?;
    if !applied {
        return Err(change.missing(doc));
    }
    let ctx_rec = records.pop().expect("the packer emits the context record");
    let old_uppers = uppers(xml, doc, rec)?;
    let mut stats = UpdateStats::default();
    if ctx_rec.interval_uppers.is_empty() {
        if rec.header().context.is_root() {
            return Err(EngineError::Invalid(
                "deleting the document root is not supported; delete the row instead".into(),
            ));
        }
        xml.delete_record(txn, doc, rec.rid(), &old_uppers)?;
        stats.records_touched = 1;
        return Ok(stats);
    }
    let spills = !records.is_empty();
    if spills {
        // Remove the stale interval entries FIRST: a spilled record's new
        // entry may reuse exactly the same (doc, upper) key.
        xml.delete_uppers(txn, doc, &old_uppers)?;
    }
    for spilled in &records {
        xml.insert_record(txn, doc, spilled)?;
    }
    for written in records.iter().chain([&ctx_rec]) {
        stats.bytes_written += written.bytes.len() as u64;
        stats.records_touched += 1;
    }
    xml.update_record(txn, doc, rec.rid(), &ctx_rec)?;
    if !spills {
        // Without a spill the record's surviving interval entries were
        // overwritten in place above, and only the stale ones go, after.
        // Deleting a live key and re-inserting it would leave a window in
        // which an unlocked reader's NodeID probe finds no record at all.
        let stale: Vec<NodeId> = old_uppers
            .into_iter()
            .filter(|u| !ctx_rec.interval_uppers.contains(u))
            .collect();
        xml.delete_uppers(txn, doc, &stale)?;
    }
    Ok(stats)
}

/// Rewrite the range proxy under `parent` that covers its child `covering`,
/// in the record that holds `parent` (a proxy lives beside its element's
/// head).
fn adjust_proxy(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    parent: &NodeId,
    covering: &RelId,
    rewrite: ProxyRewrite<'_>,
) -> Result<UpdateStats> {
    let rec = holding(xml, doc, parent)?;
    let change = Change::Proxy {
        parent,
        covering,
        rewrite,
    };
    edit(txn, xml, doc, &rec, &change)
}

/// Find `node` in `rec`, the record that holds it.
fn place<'r>(rec: &'r LoadedRecord, doc: DocId, node: &NodeId) -> Result<Place<'r>> {
    let ctx = rec.header().context.as_bytes();
    find(rec.region(), ctx, node.as_bytes())?.ok_or_else(|| not_found(doc, node))
}

/// Whether `node` sits at the top level of `rec`, a spilled record: its
/// siblings then continue in other records, behind a proxy in the parent's.
fn spilled_top(rec: &LoadedRecord, node: &NodeId) -> bool {
    let ctx = &rec.header().context;
    !ctx.is_root() && node.parent().as_ref() == Some(ctx)
}

/// The last sibling ID before `node`, at `place` in `rec`, and the first
/// after it. At the edges of a spilled record's top level they come from
/// the NodeID index and the record that holds the next node in document
/// order.
fn neighbours(
    xml: &XmlTable,
    doc: DocId,
    node: &NodeId,
    rec: &LoadedRecord,
    place: &Place<'_>,
) -> Result<(Option<RelId>, Option<RelId>)> {
    let spilled = spilled_top(rec, node);
    let before = match place.before {
        Some(rel) => Some(RelId::from_bytes(rel)?),
        None if spilled => preceding_sibling(xml, doc, node)?,
        None => None,
    };
    let after = match place.after {
        Some(rel) => Some(RelId::from_bytes(rel)?),
        None if spilled => following_sibling(xml, doc, node)?,
        None => None,
    };
    Ok((before, after))
}

/// The sibling before `node`, the first entry of its record: the greatest
/// NodeID-index key below `node` under its parent, truncated to child depth.
/// Runs end where records do, so that key is the last node of the preceding
/// sibling's subtree.
fn preceding_sibling(xml: &XmlTable, doc: DocId, node: &NodeId) -> Result<Option<RelId>> {
    let parent = node.parent().unwrap_or_default();
    let mut last: Option<Vec<u8>> = None;
    xml.scan(
        (doc, parent.as_bytes()),
        (doc, Some(node.as_bytes())),
        |_, upper, _| {
            last = Some(upper.to_vec());
            true
        },
    )?;
    let Some(upper) = last else {
        return Ok(None);
    };
    let tail = &upper[parent.as_bytes().len()..];
    Ok(match tail.iter().position(|b| b % 2 == 0) {
        Some(end) => Some(RelId::from_bytes(&tail[..=end])?),
        None => None,
    })
}

/// The sibling after `node`, the last entry of its record: the first node
/// stored after `node`'s subtree, when that node is a sibling.
fn following_sibling(xml: &XmlTable, doc: DocId, node: &NodeId) -> Result<Option<RelId>> {
    let succ = subtree_successor(node.as_bytes());
    let Some(found) = xml.locate(doc, &succ)? else {
        return Ok(None);
    };
    let rec = xml.read(found.rid)?;
    let next = first_at_or_after(rec.region(), &rec.header().context, &succ)?;
    Ok(next
        .filter(|n| n.parent() == node.parent())
        .and_then(|n| n.last_level()))
}

/// The first node stored in `region` (children of `ctx`) at or after
/// `probe` in document order.
fn first_at_or_after(region: &[u8], ctx: &NodeId, probe: &[u8]) -> Result<Option<NodeId>> {
    for entry in read_nodes(region) {
        let entry = entry?;
        if matches!(entry, NodeView::Proxy { .. }) {
            continue;
        }
        let abs = ctx.child(&RelId::from_bytes(entry.rel())?);
        if abs.as_bytes() >= probe {
            return Ok(Some(abs));
        }
        if let NodeView::Element { content, .. } = entry {
            if let Some(found) = first_at_or_after(content, &abs, probe)? {
                return Ok(Some(found));
            }
        }
    }
    Ok(None)
}

/// Replace the value of a text or attribute node.
pub fn replace_value(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    target: &NodeId,
    new_value: &str,
) -> Result<UpdateStats> {
    let rec = holding(xml, doc, target)?;
    edit(txn, xml, doc, &rec, &Change::Value(target, new_value))
}

/// Delete the subtree rooted at `target` (records fully inside the subtree
/// are reclaimed through the NodeID index).
pub fn delete_node(txn: &Txn, xml: &XmlTable, doc: DocId, target: &NodeId) -> Result<UpdateStats> {
    let rec = holding(xml, doc, target)?;
    let place = place(&rec, doc, target)?;
    let neighbours = spilled_top(&rec, target)
        .then(|| neighbours(xml, doc, target, &rec, &place))
        .transpose()?;
    let mut stats = edit(txn, xml, doc, &rec, &Change::Delete(target))?;
    if let Some((before, after)) = neighbours {
        // The covering proxy counts one subtree less; an end that named
        // the deleted node moves to its neighbour.
        let rel = &RelId::from_bytes(place.entry.rel())?;
        let rewrite = |first: RelId, last: RelId, count: u64| {
            (count > 1).then(|| {
                let first = match (&first == rel, &after) {
                    (true, Some(next)) => next.clone(),
                    _ => first,
                };
                let last = match (&last == rel, &before) {
                    (true, Some(prev)) => prev.clone(),
                    _ => last,
                };
                (first, last, count - 1)
            })
        };
        stats += adjust_proxy(txn, xml, doc, &rec.header().context, rel, &rewrite)?;
    }
    // Reclaim records that lived entirely inside the deleted subtree.
    let succ = subtree_successor(target.as_bytes());
    stats.records_touched += xml.delete_span(txn, doc, target.as_bytes(), Some(&succ))?;
    Ok(stats)
}

/// Insert a parsed XML fragment as a child of the element `parent`: first
/// (after its attributes), last, or beside the child a `Before`/`After`
/// position names.
pub fn insert_fragment(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    dict: &NameDict,
    parent: &NodeId,
    pos: InsertPos,
    fragment_xml: &str,
) -> Result<UpdateStats> {
    if parent.is_root() {
        return Err(EngineError::Invalid(
            "insertion parent must be an element".into(),
        ));
    }
    let fragment = parse_fragment(fragment_xml, dict)?;
    let (sibling, before) = match pos {
        InsertPos::First => match first_content_child(xml, doc, parent)? {
            Some(child) => (child, true),
            None => return append_child(txn, xml, doc, parent, &fragment),
        },
        InsertPos::Last => return append_child(txn, xml, doc, parent, &fragment),
        InsertPos::Before(sibling) => (sibling, true),
        InsertPos::After(sibling) => (sibling, false),
    };
    if sibling.parent().as_ref() != Some(parent) {
        return Err(EngineError::Invalid(format!(
            "{sibling} is not a child of {parent}"
        )));
    }
    // The new child goes into the record that holds its sibling, with an ID
    // between the sibling and its neighbour on that side (§3.1 midpoints).
    let rec = holding(xml, doc, &sibling)?;
    let place = place(&rec, doc, &sibling)?;
    let (prev, next) = neighbours(xml, doc, &sibling, &rec, &place)?;
    let sib = RelId::from_bytes(place.entry.rel())?;
    let (lo, hi, at) = if before {
        (prev, Some(sib.clone()), Some(sib.clone()))
    } else {
        let at = place.after.map(RelId::from_bytes).transpose()?;
        (Some(sib.clone()), next, at)
    };
    let rel = match (lo, hi) {
        (Some(a), Some(b)) => RelId::between(&a, &b)?,
        (Some(a), None) => a.next_sibling(),
        (None, Some(b)) => b.before(),
        (None, None) => RelId::first(),
    };
    let change = Change::Insert {
        parent,
        before: at,
        rel: rel.clone(),
        fragment: &fragment,
    };
    let mut stats = edit(txn, xml, doc, &rec, &change)?;
    if spilled_top(&rec, &sibling) {
        // The covering proxy counts one subtree more, and its range takes
        // in the new child.
        let rewrite = |first: RelId, last: RelId, count: u64| {
            Some((first.min(rel.clone()), last.max(rel.clone()), count + 1))
        };
        stats += adjust_proxy(txn, xml, doc, parent, &sib, &rewrite)?;
    }
    Ok(stats)
}

/// Insert `fragment` as the last child of `parent`, after its last entry in
/// the record that holds it.
fn append_child(
    txn: &Txn,
    xml: &XmlTable,
    doc: DocId,
    parent: &NodeId,
    fragment: &TokenStream,
) -> Result<UpdateStats> {
    let rec = holding(xml, doc, parent)?;
    let NodeView::Element { content, .. } = place(&rec, doc, parent)?.entry else {
        return Err(EngineError::Invalid(
            "insertion parent must be an element".into(),
        ));
    };
    let rel = match read_nodes(content).last().transpose()? {
        Some(tail) => RelId::from_bytes(tail.last())?.next_sibling(),
        None => RelId::first(),
    };
    let change = Change::Insert {
        parent,
        before: None,
        rel,
        fragment,
    };
    edit(txn, xml, doc, &rec, &change)
}

/// The first child of `parent` that is not an attribute, from a traversal
/// of `parent` that stops there.
fn first_content_child(xml: &XmlTable, doc: DocId, parent: &NodeId) -> Result<Option<NodeId>> {
    struct FirstChild {
        depth: usize,
        found: Option<NodeId>,
    }
    impl IdEventSink for FirstChild {
        fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> Result<()> {
            match ev {
                Event::Attribute { .. } | Event::NamespaceDecl { .. } => {}
                Event::EndElement => self.depth -= 1,
                _ if self.depth == 1 => {
                    self.found = Some(NodeId::from_bytes_unchecked(id.to_vec()));
                    // Stop the traversal: nothing after this child matters.
                    return Err(EngineError::Invalid("first child found".into()));
                }
                Event::StartElement { .. } => self.depth += 1,
                _ => {}
            }
            Ok(())
        }

        fn wants_content(&self) -> bool {
            self.depth == 1
        }
    }
    let mut sink = FirstChild {
        depth: 0,
        found: None,
    };
    let run = Traverser::new(xml, doc).run_subtree(parent, &mut sink);
    match sink.found {
        Some(child) => Ok(Some(child)),
        None => run.map(|()| None),
    }
}

/// Parse a fragment into a token stream: exactly one top-level node, an
/// element.
fn parse_fragment(text: &str, dict: &NameDict) -> Result<TokenStream> {
    struct Roots {
        tokens: TokenWriter,
        depth: usize,
        roots: usize,
    }
    impl EventSink for Roots {
        fn event(&mut self, ev: Event<'_>) -> rx_xml::Result<()> {
            match ev {
                Event::StartElement { .. } => {
                    self.roots += usize::from(self.depth == 0);
                    self.depth += 1;
                }
                Event::EndElement => self.depth -= 1,
                Event::Text { .. } | Event::Comment { .. } | Event::Pi { .. } => {
                    self.roots += usize::from(self.depth == 0);
                }
                _ => {}
            }
            self.tokens.event(ev)
        }
    }
    let mut roots = Roots {
        tokens: TokenWriter::new(),
        depth: 0,
        roots: 0,
    };
    rx_xml::Parser::new(dict).parse(text, &mut roots)?;
    if roots.roots != 1 {
        return Err(EngineError::Invalid(
            "fragment must contain one root element".into(),
        ));
    }
    Ok(roots.tokens.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::read_header;
    use crate::traverse::DropIds;
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
    fn repack_of_an_unedited_record_reproduces_it() {
        // Every record the packer wrote at insert time, replayed unchanged
        // into a resumed packer, comes back byte for byte with the same
        // minimum ID and interval uppers.
        let filler = "r".repeat(300);
        let items: String = (0..12)
            .map(|i| format!("<p:i n=\"{i}\"><v>{filler}</v><w/></p:i>"))
            .collect();
        let doc = format!(r#"<a x="1" xmlns:p="urn:p"><b>hi</b>{items}<c/><!--n--><?pi d?></a>"#);
        for target in [160, 600, 3500] {
            let dict = NameDict::new();
            let mut records = Vec::new();
            let mut obs = NoObserver;
            let mut p = Packer::with_target(target, &mut records, &mut obs);
            rx_xml::Parser::new(&dict).parse(&doc, &mut p).unwrap();
            p.finish().unwrap();
            assert!(target == 3500 || records.len() > 2);
            for packed in &records {
                let header = read_header(&packed.bytes).unwrap();
                let body = &packed.bytes[header.body_offset..];
                // A change whose target no record holds.
                let (out, applied) = repack(&header, body, &Change::Delete(&nid(&[0x7E]))).unwrap();
                assert!(!applied);
                assert_eq!(out, vec![packed.clone()], "target {target}");
            }
        }
    }

    /// `<r><p>` + 20 `<c>` + `</p><tail>t</tail></r>` at target 160:
    /// p's children sit behind a range proxy.
    fn proxied() -> (XmlTable, NameDict, Arc<TxnManager>, Vec<String>) {
        let cs: Vec<String> = (1..=20)
            .map(|i| format!("<c>value-number-{i:03}-padding</c>"))
            .collect();
        let (xt, dict, txns) = store(&proxied_doc(&cs), 160);
        assert!(xt.heap().stats().unwrap().records > 3);
        (xt, dict, txns, cs)
    }

    fn proxied_doc(cs: &[String]) -> String {
        format!("<r><p>{}</p><tail>t</tail></r>", cs.concat())
    }

    /// The `i`th `c` child of `p` in [`proxied`], counting from 1.
    fn c(i: u8) -> NodeId {
        nid(&[0x02, 0x02, 2 * i])
    }

    /// Every record names one path entry per level of its context, every
    /// NodeID-index entry names the record that holds its node, and every
    /// element is reachable through the NodeID index.
    fn assert_consistent(xt: &XmlTable) {
        let mut entries = Vec::new();
        xt.scan((1, &[]), (1, None), |_, upper, rid| {
            entries.push((NodeId::from_bytes(upper).unwrap(), rid));
            true
        })
        .unwrap();
        for (upper, rid) in entries {
            let rec = xt.read(rid).unwrap();
            let hdr = rec.header();
            assert_eq!(hdr.path.len(), hdr.context.depth(), "record {rid:?}");
            assert!(
                find(rec.region(), hdr.context.as_bytes(), upper.as_bytes())
                    .unwrap()
                    .is_some(),
                "stale entry {upper}"
            );
        }
        let mut ids = Vec::new();
        struct Ids<'v>(&'v mut Vec<Vec<u8>>);
        impl IdEventSink for Ids<'_> {
            fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> Result<()> {
                if let Event::StartElement { .. } = ev {
                    self.0.push(id.to_vec());
                }
                Ok(())
            }
        }
        Traverser::new(xt, 1).run(&mut Ids(&mut ids)).unwrap();
        let distinct: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len(), "element IDs must be distinct");
        for id in ids {
            let id = NodeId::from_bytes(&id).unwrap();
            crate::traverse::string_value(xt, 1, &id).unwrap();
        }
    }

    #[test]
    fn delete_behind_a_range_proxy() {
        let (xt, dict, txns, mut cs) = proxied();
        let txn = txns.begin().unwrap();
        delete_node(&txn, &xt, 1, &c(3)).unwrap();
        txn.commit().unwrap();
        cs.remove(2);
        assert_eq!(serialize(&xt, &dict), proxied_doc(&cs));
        assert_consistent(&xt);
        // Deleting every child drops the proxy and the emptied records.
        let before = xt.heap().stats().unwrap().records;
        let txn = txns.begin().unwrap();
        for i in (1..=20).filter(|&i| i != 3) {
            delete_node(&txn, &xt, 1, &c(i)).unwrap();
        }
        txn.commit().unwrap();
        assert_eq!(serialize(&xt, &dict), "<r><p/><tail>t</tail></r>");
        assert_eq!(xt.heap().stats().unwrap().records, 1, "from {before}");
        assert_consistent(&xt);
    }

    #[test]
    fn insert_beside_a_sibling_behind_a_range_proxy() {
        let (xt, dict, txns, mut cs) = proxied();
        let p = nid(&[0x02, 0x02]);
        let txn = txns.begin().unwrap();
        insert_fragment(
            &txn,
            &xt,
            1,
            &dict,
            &p,
            InsertPos::Before(c(6)),
            "<new>b</new>",
        )
        .unwrap();
        insert_fragment(
            &txn,
            &xt,
            1,
            &dict,
            &p,
            InsertPos::After(c(6)),
            "<new>a</new>",
        )
        .unwrap();
        insert_fragment(&txn, &xt, 1, &dict, &p, InsertPos::First, "<new>f</new>").unwrap();
        insert_fragment(
            &txn,
            &xt,
            1,
            &dict,
            &p,
            InsertPos::After(c(20)),
            "<new>z</new>",
        )
        .unwrap();
        txn.commit().unwrap();
        cs.insert(6, "<new>a</new>".into());
        cs.insert(5, "<new>b</new>".into());
        cs.insert(0, "<new>f</new>".into());
        cs.push("<new>z</new>".into());
        assert_eq!(serialize(&xt, &dict), proxied_doc(&cs));
        assert_consistent(&xt);
        // Insert before every original child, each the first entry of its
        // record or not: IDs come from the record or the NodeID index.
        let txn = txns.begin().unwrap();
        for i in 1..=20 {
            insert_fragment(&txn, &xt, 1, &dict, &p, InsertPos::Before(c(i)), "<m/>").unwrap();
        }
        txn.commit().unwrap();
        let out = serialize(&xt, &dict);
        assert_eq!(out.matches("<m/><c>").count(), 20, "{out}");
        assert_consistent(&xt);
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
        assert!(xt.locate(1, left.as_bytes()).unwrap().is_some());
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
