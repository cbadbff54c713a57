//! Property-based tests on the system's core invariants:
//!
//! * Dewey node IDs: order/ancestry/levels under arbitrary midpoint insertion;
//! * decimal sort keys: byte order ≡ numeric order for arbitrary decimals;
//! * B+tree ≡ `BTreeMap` under arbitrary operation sequences, also on trees
//!   of three levels built from ascending, descending and random runs of
//!   keys up to `MAX_KEY_SIZE`, across a flush and reopen;
//! * parse → pack → store → traverse → serialize is the identity on
//!   arbitrary generated documents at arbitrary packing targets, and every
//!   node a full traversal emits reads back the same through `fetch_node`,
//!   `string_value` and `run_subtree`, with the document cache off and warm;
//! * QuickXScan ≡ DOM evaluation on arbitrary documents and queries;
//! * one QuickXScan reused across documents, some abandoned half way,
//!   answers every document exactly as a fresh scanner does;
//! * the engine's full-scan path over stored documents (one reused scanner
//!   per lane, virtual-SAX subtree skipping) ≡ DOM evaluation, with node IDs
//!   equal to a fresh scanner that replays every subtree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rx_bench::baseline::DomXPath;
use std::collections::BTreeMap;
use std::sync::Arc;
use system_rx::engine::access::{all_docids, execute_tree, AccessPlan};
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::traverse::{fetch_node, IdEventSink, StoredNode, Traverser};
use system_rx::engine::QueryExecutor;
use system_rx::engine::XmlTable;
use system_rx::storage::btree::MAX_KEY_SIZE;
use system_rx::storage::{BTree, BufferPool, MemBackend, TableSpace};
use system_rx::xml::event::{Event, EventSink};
use system_rx::xml::nodeid::{NodeId, RelId};
use system_rx::xml::value::Decimal;
use system_rx::xml::{NameDict, XmlError};
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

/// Feeds a scanner a document's events, each with a synthetic node ID (its
/// event number), and logs the scanner's skip answer after every element
/// start. After `limit` events it refuses the rest, abandoning the document.
struct Feed<'s, 'q, 'd> {
    scan: &'s mut QuickXScan<'q, 'd>,
    events: u16,
    limit: usize,
    answers: Vec<bool>,
}

impl<'s, 'q, 'd> Feed<'s, 'q, 'd> {
    fn new(scan: &'s mut QuickXScan<'q, 'd>, limit: usize) -> Self {
        Feed {
            scan,
            events: 0,
            limit,
            answers: Vec::new(),
        }
    }
}

impl EventSink for Feed<'_, '_, '_> {
    fn event(&mut self, ev: Event<'_>) -> system_rx::xml::Result<()> {
        if usize::from(self.events) == self.limit {
            return Err(XmlError::stream("abandoned"));
        }
        self.events += 1;
        self.scan.set_current_node(&self.events.to_be_bytes());
        self.scan.event(ev)?;
        if matches!(ev, Event::StartElement { .. }) {
            self.answers.push(self.scan.wants_content());
        }
        Ok(())
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
    fn reused_scanner_equals_fresh_scanners(
        docs in prop::collection::vec((arb_xml(), proptest::option::of(0usize..48)), 1..8),
        queries in prop::collection::vec(arb_query(), 1..4),
    ) {
        // One scanner per query, reused across every document in turn. A
        // document with an abandon point is fed only that many events and
        // then reset; every other document must answer, skip decisions
        // included, exactly as a fresh scanner answers it. Stale instance
        // state (held, transit, operand or text buffers, match numbers)
        // left by an earlier document would show in the hits.
        let dict = NameDict::new();
        let parser = system_rx::xml::Parser::new(&dict);
        let streams: Vec<_> = docs.iter().map(|(d, _)| parser.parse_to_tokens(d).unwrap()).collect();
        let trees: Vec<QueryTree> = queries
            .iter()
            .map(|q| QueryTree::compile(&XPathParser::new().parse(q).unwrap()).unwrap())
            .collect();
        let mut reused: Vec<_> = trees.iter().map(|t| QuickXScan::new(t, &dict)).collect();
        for ((doc, abandon), stream) in docs.iter().zip(&streams) {
            for ((tree, scan), query) in trees.iter().zip(&mut reused).zip(&queries) {
                if let Some(at) = *abandon {
                    // A prefix shorter than the document ends in the feed's
                    // refusal; a longer one leaves the document unfinished.
                    let _ = stream.replay(&mut Feed::new(scan, at));
                    scan.reset();
                    continue;
                }
                let mut feed = Feed::new(scan, usize::MAX);
                stream.replay(&mut feed).unwrap();
                let answers = feed.answers;
                let mut hits = Vec::new();
                scan.finish_into(&mut hits).unwrap();
                let mut fresh = QuickXScan::new(tree, &dict);
                let mut feed = Feed::new(&mut fresh, usize::MAX);
                stream.replay(&mut feed).unwrap();
                let fresh_answers = feed.answers;
                prop_assert_eq!(hits, fresh.finish().unwrap(), "query {} over {}", query, doc);
                prop_assert_eq!(answers, fresh_answers, "query {} over {}", query, doc);
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

proptest! {
    // Thousands of operations per case: few cases in debug builds, more in
    // release.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 4 } else { 32 }))]

    #[test]
    fn btree_with_splits_behaves_like_btreemap(
        runs in prop::collection::vec(
            (0u8..3, 50usize..400, prop_oneof![Just(16usize), Just(200), Just(MAX_KEY_SIZE - 5)], any::<u64>()),
            6..12
        )
    ) {
        // Runs of ascending keys (right-edge appends: append splits),
        // descending keys (inserts at the left edge) and random keys mixed
        // with deletes and lookups, of every size up to MAX_KEY_SIZE. The
        // tree is flushed and reopened halfway through, and range windows
        // are checked against `BTreeMap::range` after every run.
        let pool = BufferPool::new(512);
        let backend = Arc::new(MemBackend::new());
        let space = TableSpace::create(pool.clone(), 1, backend.clone()).unwrap();
        let mut tree = BTree::create(space, 2).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let (mut up, mut down) = (0u32, u32::MAX);
        // Key: [class][n u32 BE][pad]; ascending runs use class 2 with a
        // rising n, descending runs class 0 with a falling n.
        let key = |class: u8, n: u32, pad: usize| {
            let mut k = vec![class];
            k.extend_from_slice(&n.to_be_bytes());
            k.resize(5 + pad, (n % 251) as u8);
            k
        };
        for (r, &(kind, len, max_pad, seed)) in runs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..len {
                let pad = rng.gen_range(0..=max_pad);
                let op = rng.gen_range(0..10u8);
                let k = match kind {
                    0 => { up += 1; key(2, up, pad) }
                    1 => { down -= 1; key(0, down, pad) }
                    _ if op >= 6 && !model.is_empty() => {
                        // Delete or look up a key the tree holds.
                        let i = rng.gen_range(0..model.len());
                        let k = model.keys().nth(i).unwrap().clone();
                        if op >= 8 {
                            prop_assert_eq!(tree.delete(&k).unwrap(), model.remove(&k));
                        } else {
                            prop_assert_eq!(tree.search(&k).unwrap(), model.get(&k).copied());
                        }
                        continue;
                    }
                    _ => key(1, rng.next_u64() as u32, pad),
                };
                let v = rng.next_u64();
                prop_assert_eq!(tree.insert(&k, v).unwrap(), model.insert(k, v));
            }
            if r == runs.len() / 2 {
                pool.flush_all().unwrap();
                pool.forget_space(1);
                let space = TableSpace::open(pool.clone(), 1, backend.clone()).unwrap();
                tree = BTree::open(space, 2).unwrap();
            }
            // Ceiling probes and scan windows from keys held, keys between
            // them and keys past the ends.
            for _ in 0..20 {
                let mut probe = key(rng.gen_range(0..4), rng.next_u64() as u32, rng.gen_range(0..8));
                if rng.gen_bool(0.5) && !model.is_empty() {
                    let i = rng.gen_range(0..model.len());
                    probe = model.keys().nth(i).unwrap().clone();
                    if rng.gen_bool(0.5) {
                        probe.push(0);
                    }
                }
                let expect = model.range(probe.clone()..).next().map(|(k, v)| (k.clone(), *v));
                prop_assert_eq!(tree.search_ceil(&probe).unwrap(), expect);
                let want = rng.gen_range(1..300);
                let mut window = Vec::new();
                tree.scan_from(&probe, |k, v| {
                    window.push((k.to_vec(), v));
                    window.len() < want
                }).unwrap();
                let expect: Vec<(Vec<u8>, u64)> = model
                    .range(probe.clone()..)
                    .take(want)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                prop_assert_eq!(window, expect);
            }
        }
        // Append keys of the largest size until the tree has three levels.
        while tree.height().unwrap() < 3 {
            up += 1;
            let k = key(2, up, MAX_KEY_SIZE - 5);
            prop_assert_eq!(tree.insert(&k, u64::from(up)).unwrap(), model.insert(k, u64::from(up)));
        }
        let mut scanned = Vec::new();
        tree.scan_all(|k, v| { scanned.push((k.to_vec(), v)); true }).unwrap();
        let expect: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }
}
