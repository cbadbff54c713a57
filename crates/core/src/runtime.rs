//! The virtual-SAX runtime: XML handles, sequences, pipelining (§4.4, Fig. 8).
//!
//! "XML data can be in one of the many forms during the query processing:
//! token stream, persistent store format, constructed format, or in-memory
//! sequence … To avoid data copying and format conversion cost, we do not
//! construct a single unified in-memory tree representation for a task. …
//! To perform one of the tasks, a proper iterator is attached to the data as
//! the input interface according to the data format. … XML handles are widely
//! used to link between relational data and XML data. Fetch of persistent XML
//! data is deferred until when it's necessary."
//!
//! [`XmlHandle`] is that reference construct: it names XML data in any of the
//! four representations without materializing it; [`XmlHandle::replay`]
//! attaches the right iterator and pushes virtual SAX events into whichever
//! shared routine performs the task — serialization, tree construction
//! (packing), or XPath evaluation.

use crate::construct::Constructed;
use crate::db::XmlColumn;
use crate::error::Result;
use crate::traverse::{DropIds, Traverser};
use crate::xmltable::DocId;
use rx_xml::event::{Event, EventSink};
use rx_xml::name::NameDict;
use rx_xml::nodeid::NodeId;
use rx_xml::token::TokenStream;
use rx_xml::value::TypeAnn;
use rx_xpath::quickxscan::QuickXScan;
use rx_xpath::QueryTree;
use std::sync::Arc;

/// A deferred reference to XML data in any runtime representation.
#[derive(Clone)]
pub enum XmlHandle {
    /// Persistent data: `(column, document, optional subtree)`. Nothing is
    /// fetched until the handle is replayed — the §4.4 deferred access.
    Stored {
        /// The XML column.
        column: Arc<XmlColumn>,
        /// Document id.
        doc: DocId,
        /// Subtree root (`None` = whole document).
        node: Option<NodeId>,
    },
    /// A buffered token stream (parser or validator output).
    Tokens(Arc<TokenStream>),
    /// Constructed data: template + data record.
    Constructed(Arc<Constructed>),
    /// An in-memory sequence (XPath/XQuery result).
    Sequence(Arc<Sequence>),
}

impl XmlHandle {
    /// Attach the representation-appropriate iterator and push events into
    /// `sink` (Fig. 8's shared, pipelined routines).
    pub fn replay(&self, sink: &mut dyn EventSink) -> Result<()> {
        match self {
            XmlHandle::Stored { column, doc, node } => {
                let mut t = Traverser::new(column.xml_table(), *doc);
                let mut adapter = DropIds(sink);
                match node {
                    None => t.run(&mut adapter),
                    Some(n) => t.run_subtree(n, &mut adapter),
                }
            }
            XmlHandle::Tokens(stream) => {
                stream.replay(sink)?;
                Ok(())
            }
            XmlHandle::Constructed(c) => c.replay(sink),
            XmlHandle::Sequence(seq) => seq.replay(sink),
        }
    }

    /// Task 1 — serialization: "generate a serialized XML string for output
    /// to applications".
    pub fn serialize(&self, dict: &NameDict) -> Result<String> {
        let mut ser = rx_xml::Serializer::new(dict);
        self.replay(&mut ser)?;
        Ok(ser.finish())
    }

    /// Task 3 — XPath evaluation: "generate an in-memory sequence as result".
    /// Streams straight from this handle's iterator into QuickXScan; for
    /// stored data, results carry node IDs (becoming deferred handles
    /// themselves).
    pub fn query(&self, tree: &QueryTree, dict: &NameDict) -> Result<Sequence> {
        match self {
            // Subtree handles replay the whole document too: absolute paths
            // need the document context (deferred handles usually reference
            // whole docs).
            XmlHandle::Stored { column, doc, .. } => {
                let mut scan = QuickXScan::new(tree, dict);
                Traverser::new(column.xml_table(), *doc).run(&mut scan)?;
                let items = scan.finish()?;
                Ok(Sequence {
                    items: items
                        .into_iter()
                        .map(|i| SeqItem {
                            value: i.value,
                            node: i.node.map(|n| (Arc::clone(column), *doc, n)),
                        })
                        .collect(),
                })
            }
            other => {
                let mut scan = QuickXScan::new(tree, dict);
                scan.event(Event::StartDocument)?;
                other.replay(&mut scan)?;
                scan.event(Event::EndDocument)?;
                let items = scan.finish()?;
                Ok(Sequence {
                    items: items
                        .into_iter()
                        .map(|i| SeqItem {
                            value: i.value,
                            node: None,
                        })
                        .collect(),
                })
            }
        }
    }
}

/// One item of an in-memory sequence: an atomic/string value, optionally
/// backed by a stored node (making the item itself a deferred handle).
#[derive(Clone)]
pub struct SeqItem {
    /// The item's string value.
    pub value: String,
    /// Backing stored node, when the item came from persistent data.
    pub node: Option<(Arc<XmlColumn>, DocId, NodeId)>,
}

/// An in-memory sequence — the result form of XPath evaluation (§4.4).
#[derive(Clone, Default)]
pub struct Sequence {
    /// Items in document order.
    pub items: Vec<SeqItem>,
}

impl Sequence {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Replay the sequence as events: stored nodes replay their subtrees
    /// (deferred fetch happens *here*, not before), plain values become text.
    pub fn replay(&self, sink: &mut dyn EventSink) -> Result<()> {
        for item in &self.items {
            match &item.node {
                Some((column, doc, node)) => {
                    let mut t = Traverser::new(column.xml_table(), *doc);
                    let mut adapter = DropIds(sink);
                    t.run_subtree(node, &mut adapter)?;
                }
                None => sink.event(Event::Text {
                    value: &item.value,
                    ann: TypeAnn::Untyped,
                })?,
            }
        }
        Ok(())
    }

    /// Serialize all items.
    pub fn serialize(&self, dict: &NameDict) -> Result<String> {
        let mut ser = rx_xml::Serializer::new(dict);
        self.replay(&mut ser)?;
        Ok(ser.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{fig5_emp_ctor, Constructed, Template};
    use crate::db::{ColValue, ColumnKind, Database};
    use rx_xpath::XPathParser;

    #[test]
    fn stored_handle_defers_and_serializes() {
        let db = Database::create_in_memory().unwrap();
        let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
        let text = "<cat><p>one</p><p>two</p></cat>";
        let doc = db
            .insert_row(&t, &[ColValue::Xml(text.to_string())])
            .unwrap();
        let h = XmlHandle::Stored {
            column: Arc::clone(t.xml_column("doc").unwrap()),
            doc,
            node: None,
        };
        assert_eq!(h.serialize(db.dict()).unwrap(), text);
    }

    #[test]
    fn stored_handle_queries_into_sequence_of_handles() {
        let db = Database::create_in_memory().unwrap();
        let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
        let doc = db
            .insert_row(
                &t,
                &[ColValue::Xml(
                    "<cat><p><n>a</n></p><p><n>b</n></p></cat>".to_string(),
                )],
            )
            .unwrap();
        let h = XmlHandle::Stored {
            column: Arc::clone(t.xml_column("doc").unwrap()),
            doc,
            node: None,
        };
        let path = XPathParser::new().parse("/cat/p").unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let seq = h.query(&tree, db.dict()).unwrap();
        assert_eq!(seq.len(), 2);
        // The sequence items are stored-node handles: serializing them
        // re-fetches the subtrees (deferred access).
        assert_eq!(
            seq.serialize(db.dict()).unwrap(),
            "<p><n>a</n></p><p><n>b</n></p>"
        );
    }

    #[test]
    fn token_and_constructed_handles_share_the_runtime() {
        let db = Database::create_in_memory().unwrap();
        let dict = db.dict();
        // Token stream handle.
        let stream = rx_xml::Parser::new(dict)
            .parse_to_tokens("<r><v>42</v></r>")
            .unwrap();
        let h = XmlHandle::Tokens(Arc::new(stream));
        assert_eq!(h.serialize(dict).unwrap(), "<r><v>42</v></r>");
        let path = XPathParser::new().parse("/r/v").unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let seq = h.query(&tree, dict).unwrap();
        assert_eq!(seq.items[0].value, "42");
        // Constructed handle.
        let tpl = Template::compile(&fig5_emp_ctor(), dict).unwrap();
        let c = Constructed::new(
            tpl,
            vec![
                "7".into(),
                "Ada".into(),
                "L".into(),
                "1843-01-01".into(),
                "Math".into(),
            ],
        )
        .unwrap();
        let h = XmlHandle::Constructed(Arc::new(c));
        let path = XPathParser::new().parse("/Emp/@name").unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let seq = h.query(&tree, dict).unwrap();
        assert_eq!(seq.items[0].value, "Ada L");
    }
}
