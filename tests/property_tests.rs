//! Property-based tests on the system's core invariants:
//!
//! * Dewey node IDs: order/ancestry/levels under arbitrary midpoint insertion;
//! * decimal sort keys: byte order ≡ numeric order for arbitrary decimals;
//! * B+tree ≡ `BTreeMap` under arbitrary operation sequences;
//! * parse → pack → store → traverse → serialize is the identity on
//!   arbitrary generated documents at arbitrary packing targets, and every
//!   node a full traversal emits reads back the same through `fetch_node`,
//!   `string_value` and `run_subtree`, with the document cache off and warm;
//! * QuickXScan ≡ DOM evaluation on arbitrary documents and queries;
//! * the engine's full-scan path over stored documents (one reused scanner
//!   per lane, virtual-SAX subtree skipping) ≡ DOM evaluation, with node IDs
//!   equal to a fresh scanner that replays every subtree.

use proptest::prelude::*;
use rx_bench::baseline::DomXPath;
use std::collections::BTreeMap;
use std::sync::Arc;
use system_rx::engine::access::{all_docids, execute_tree, AccessPlan};
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::traverse::{fetch_node, IdEventSink, StoredNode, Traverser};
use system_rx::engine::QueryExecutor;
use system_rx::engine::XmlTable;
use system_rx::storage::{BTree, BufferPool, MemBackend, TableSpace};
use system_rx::xml::event::Event;
use system_rx::xml::nodeid::{NodeId, RelId};
use system_rx::xml::value::Decimal;
use system_rx::xml::NameDict;
use system_rx::xpath::{quickxscan::scan_str, QueryTree, QuickXScan, XPathParser};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A traversal's output: every `(node id, the node it starts, event)`.
#[derive(Default)]
struct Recorded(Vec<(Vec<u8>, Option<StoredNode>, String)>);

impl IdEventSink for Recorded {
    fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> system_rx::engine::Result<()> {
        let node = match ev {
            Event::StartElement { name } => Some(StoredNode::Element { name }),
            Event::Attribute { name, value, ann } => Some(StoredNode::Attribute {
                name,
                value: value.to_string(),
                ann,
            }),
            Event::Text { value, ann } => Some(StoredNode::Text {
                value: value.to_string(),
                ann,
            }),
            Event::Comment { value } => Some(StoredNode::Comment {
                value: value.to_string(),
            }),
            Event::Pi { target, data } => Some(StoredNode::Pi {
                target,
                value: data.to_string(),
            }),
            _ => None,
        };
        self.0.push((id.to_vec(), node, format!("{ev:?}")));
        Ok(())
    }
}

/// For every node a full traversal of `doc` emits, `fetch_node`,
/// `string_value` and `run_subtree` (through a fresh traverser and through
/// one shared across the nodes, in document order) read what the traversal
/// did.
fn check_node_reads(xml: &XmlTable, doc: u64) -> Result<(), TestCaseError> {
    let mut full = Recorded::default();
    Traverser::new(xml, doc).run(&mut full).unwrap();
    let events = &full.0;
    let mut shared = Traverser::new(xml, doc);
    for (start, (id, node, _)) in events.iter().enumerate() {
        let Some(node) = node else { continue };
        // The node's events: an element's run to its own end.
        let len = match node {
            StoredNode::Element { .. } => events[start..]
                .iter()
                .position(|(i, _, ev)| i == id && ev == "EndElement")
                .unwrap(),
            _ => 0,
        };
        let span = &events[start..=start + len];
        let mut value = String::new();
        for (i, n, _) in span {
            match n {
                Some(StoredNode::Text { value: v, .. }) => value.push_str(v),
                Some(StoredNode::Attribute { value: v, .. }) if i == id => value.push_str(v),
                _ => {}
            }
        }
        let nid = NodeId::from_bytes(id).unwrap();
        prop_assert_eq!(&fetch_node(xml, doc, &nid).unwrap(), &Some(node.clone()));
        prop_assert_eq!(&shared.fetch_node(&nid).unwrap(), &Some(node.clone()));
        prop_assert_eq!(&shared.string_value(&nid).unwrap(), &value);
        let mut sub = Recorded::default();
        shared.run_subtree(&nid, &mut sub).unwrap();
        prop_assert_eq!(sub.0.as_slice(), span);
    }
    Ok(())
}

/// An arbitrary small XML document: recursive elements over a tiny name
/// vocabulary, with attributes and text.
fn arb_xml() -> impl Strategy<Value = String> {
    fn node(depth: u32) -> BoxedStrategy<String> {
        let name = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
        // Short fixed values make the value predicates of `arb_query` hit.
        let text = prop_oneof![
            3 => "[a-z0-9 ]{0,12}",
            1 => prop_oneof![Just("x".to_string()), Just("5".to_string())],
        ];
        if depth == 0 {
            (name, text)
                .prop_map(|(n, t)| {
                    if t.is_empty() {
                        format!("<{n}/>")
                    } else {
                        format!("<{n}>{t}</{n}>")
                    }
                })
                .boxed()
        } else {
            (
                name,
                proptest::option::of((
                    prop_oneof![Just("k".to_string()), "[a-z]{1,4}"],
                    prop_oneof!["[0-9]{1,2}", "[a-z0-9]{0,6}"],
                )),
                prop::collection::vec(node(depth - 1), 0..4),
                text,
            )
                .prop_map(|(n, attr, kids, t)| {
                    let attrs = match attr {
                        Some((an, av)) => format!(" {an}=\"{av}\""),
                        None => String::new(),
                    };
                    let body: String = kids.concat();
                    if body.is_empty() && t.is_empty() {
                        format!("<{n}{attrs}/>")
                    } else {
                        format!("<{n}{attrs}>{t}{body}</{n}>")
                    }
                })
                .boxed()
        }
    }
    node(3).prop_map(|inner| format!("<root>{inner}</root>"))
}

/// An arbitrary simple query over the same vocabulary.
fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("/root".to_string()),
        Just("/root/a".to_string()),
        Just("//a".to_string()),
        Just("//b".to_string()),
        Just("//a//b".to_string()),
        Just("//a/b".to_string()),
        Just("/root//c".to_string()),
        Just("//a[b]".to_string()),
        Just("//a[not(b)]".to_string()),
        Just("//b[count(a) >= 1]".to_string()),
        Just("//a/@*".to_string()),
        Just("//d/text()".to_string()),
        Just("//*[c]".to_string()),
        Just("//a[b = \"x\"]".to_string()),
        Just(from_root("/a[@k > 3]/b")),
        Just(from_root("/a[b]/c")),
        Just("//@*".to_string()),
        Just("//a//text()".to_string()),
    ]
}

/// A child path from the generated document element `<root>` down: no
/// descendant step from the document, so the scan's skip rule stays live.
fn from_root(rest: &str) -> String {
    format!("/root{rest}")
}

/// Forwards to a scanner but keeps `IdEventSink`'s default `wants_content`,
/// so the traversal replays every subtree: the reference for the skipping
/// full-scan path.
struct NoSkip<'a, 'q, 'd>(&'a mut QuickXScan<'q, 'd>);

impl IdEventSink for NoSkip<'_, '_, '_> {
    fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> system_rx::engine::Result<()> {
        self.0.id_event(id, ev)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relid_between_is_ordered_and_wellformed(
        seq in prop::collection::vec(0usize..=2, 1..40)
    ) {
        // Repeatedly insert between random adjacent pairs; the invariants:
        // strict order is maintained and every ID stays well-formed.
        let mut ids = vec![RelId::first(), RelId::first().next_sibling()];
        for &choice in &seq {
            let i = choice % (ids.len() - 1);
            let mid = RelId::between(&ids[i], &ids[i + 1]).unwrap();
            prop_assert!(ids[i] < mid && mid < ids[i + 1]);
            prop_assert!(RelId::from_bytes(mid.as_bytes()).is_ok());
            ids.insert(i + 1, mid);
        }
        for w in ids.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn decimal_sort_key_matches_compare(
        a in "-?[0-9]{1,12}(\\.[0-9]{1,6})?",
        b in "-?[0-9]{1,12}(\\.[0-9]{1,6})?"
    ) {
        let (da, db) = (Decimal::parse(&a).unwrap(), Decimal::parse(&b).unwrap());
        prop_assert_eq!(da.sort_key().cmp(&db.sort_key()), da.compare(&db));
    }

    #[test]
    fn btree_behaves_like_btreemap(
        ops in prop::collection::vec(
            (0u8..3, prop::collection::vec(any::<u8>(), 1..12), any::<u64>()),
            1..200
        )
    ) {
        let pool = BufferPool::new(256);
        let space = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).unwrap();
        let tree = BTree::create(space, 2).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (op, key, val) in &ops {
            match op % 3 {
                0 => {
                    let prev = tree.insert(key, *val).unwrap();
                    prop_assert_eq!(prev, model.insert(key.clone(), *val));
                }
                1 => {
                    let got = tree.delete(key).unwrap();
                    prop_assert_eq!(got, model.remove(key));
                }
                _ => {
                    prop_assert_eq!(tree.search(key).unwrap(), model.get(key).copied());
                }
            }
        }
        // Full scans agree in order and content.
        let mut scanned = Vec::new();
        tree.scan_all(|k, v| { scanned.push((k.to_vec(), v)); true }).unwrap();
        let expect: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }

    #[test]
    fn store_roundtrip_identity(doc in arb_xml(), target in 128usize..2048) {
        // Small targets spill subtrees into proxied records, so node
        // locates cross records and range proxies.
        for doc_cache_bytes in [0, 1 << 20] {
            let db = Database::create_in_memory_with(DbConfig {
                target_record_size: target,
                buffer_pages: 512,
                doc_cache_bytes,
                ..Default::default()
            }).unwrap();
            let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
            let id = db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap();
            // Canonicalize through the parser+serializer (whitespace
            // handling), then compare with the stored round trip.
            let dict = NameDict::new();
            let canon = system_rx::xml::serialize::serialize_stream(
                &system_rx::xml::Parser::new(&dict).parse_to_tokens(&doc).unwrap(),
                &dict,
            ).unwrap();
            prop_assert_eq!(db.serialize_document(&t, "doc", id).unwrap(), canon);
            let col = t.xml_column("doc").unwrap();
            if doc_cache_bytes > 0 {
                // A locked full scan publishes the document's snapshot.
                let path = XPathParser::new().parse("/*").unwrap();
                let txn = db.begin().unwrap();
                db.query_locked(&txn, &t, col, &path, false).unwrap();
                txn.commit().unwrap();
                prop_assert_eq!(db.doc_cache().len(), 1);
            }
            check_node_reads(col.xml_table(), id)?;
        }
    }

    #[test]
    fn quickxscan_agrees_with_dom(doc in arb_xml(), query in arb_query()) {
        let dict = NameDict::new();
        let path = XPathParser::new().parse(&query).unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let (items, _) = scan_str(&tree, &dict, &doc).unwrap();
        let scan_values: Vec<String> = items.into_iter().map(|i| i.value).collect();
        let dom = system_rx::xml::dom::DomTree::parse(&doc, &dict).unwrap();
        let dom_values = DomXPath::new(&tree, &dict).eval(&dom);
        prop_assert_eq!(scan_values, dom_values, "query {} over {}", query, doc);
    }

    #[test]
    fn stored_scan_agrees_with_dom(
        docs in prop::collection::vec(arb_xml(), 1..6),
        query in arb_query(),
        target in 128usize..600,
    ) {
        // Small pack targets spill subtrees into proxied records, so the
        // skip rule also decides whether proxy records are fetched at all.
        let db = Database::create_in_memory_with(DbConfig {
            target_record_size: target,
            buffer_pages: 512,
            ..Default::default()
        }).unwrap();
        let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
        for doc in &docs {
            db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap();
        }
        let col = t.xml_column("doc").unwrap();
        let dict = db.dict();
        let tree = Arc::new(QueryTree::compile(&XPathParser::new().parse(&query).unwrap()).unwrap());
        let ids = all_docids(&t).unwrap();
        prop_assert_eq!(ids.len(), docs.len());
        let lanes = QueryExecutor::new(2);
        for exec in [None, Some(&lanes)] {
            let txn = db.begin().unwrap();
            let (hits, stats) =
                execute_tree(&AccessPlan::FullScan, &t, col, dict, &tree, exec, &txn).unwrap();
            txn.commit().unwrap();
            prop_assert_eq!(stats.docs_evaluated, docs.len() as u64);
            for (doc_text, &id) in docs.iter().zip(&ids) {
                let mine: Vec<_> = hits.iter().filter(|h| h.doc == id).collect();
                // Values: the DOM baseline over the original text.
                let dom_dict = NameDict::new();
                let dom = system_rx::xml::dom::DomTree::parse(doc_text, &dom_dict).unwrap();
                let dom_values = DomXPath::new(&tree, &dom_dict).eval(&dom);
                let values: Vec<&str> = mine.iter().map(|h| h.value.as_str()).collect();
                prop_assert_eq!(values, dom_values, "query {} over {}", query, doc_text);
                // Node IDs: a fresh scanner that sees every subtree.
                let mut scan = QuickXScan::new(&tree, dict);
                Traverser::new(col.xml_table(), id).run(&mut NoSkip(&mut scan)).unwrap();
                let reference = scan.finish().unwrap();
                prop_assert_eq!(mine.len(), reference.len());
                for (h, r) in mine.iter().zip(&reference) {
                    prop_assert!(r.node.is_some(), "stored hits carry node IDs");
                    prop_assert_eq!(&h.node, &r.node, "query {} over {}", query, doc_text);
                    prop_assert_eq!(&h.value, &r.value);
                }
            }
        }
    }

    #[test]
    fn parser_serializer_fixpoint(doc in arb_xml()) {
        let dict = NameDict::new();
        let once = system_rx::xml::serialize::serialize_stream(
            &system_rx::xml::Parser::new(&dict).parse_to_tokens(&doc).unwrap(), &dict).unwrap();
        let twice = system_rx::xml::serialize::serialize_stream(
            &system_rx::xml::Parser::new(&dict).parse_to_tokens(&once).unwrap(), &dict).unwrap();
        prop_assert_eq!(once, twice);
    }
}
