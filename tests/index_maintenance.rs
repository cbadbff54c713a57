//! Index maintenance as a property: after any sequence of inserts, deletes,
//! sub-document updates and rolled-back writes, every index of a column
//! (one typed value index, one full-text index) holds exactly the entries
//! that indexes created over the surviving documents would hold — the
//! reference is a fresh database loaded with those documents whose indexes
//! are created *after* loading, so it also checks the backfill of index
//! creation.

use proptest::prelude::*;
use rx_bench::run_plan;
use std::collections::HashMap;
use std::sync::Arc;
use system_rx::engine::db::{ColValue, ColumnKind, Database};
use system_rx::engine::traverse::{IdEventSink, Traverser};
use system_rx::engine::update::{self, InsertPos};
use system_rx::engine::{access, AccessPlan, BaseTable, DocId, Result, XmlTable};
use system_rx::storage::Txn;
use system_rx::xml::event::Event;
use system_rx::xml::value::KeyType;
use system_rx::xml::NodeId;
use system_rx::xpath::XPathParser;

const PRICE_PATH: &str = "//price";
const DESC_PATH: &str = "//desc";

#[derive(Debug, Clone)]
enum Op {
    Insert(String),
    Delete(usize),
    /// Replace the value of the j-th text node of the i-th live document.
    ReplaceText(usize, usize, String),
    /// Delete the j-th non-root element of the i-th live document.
    DeleteNode(usize, usize),
    /// Insert a fragment as the first or last child of the j-th element.
    InsertFragment(usize, usize, bool, String),
    RolledBackInsert(String),
    RolledBackDelete(usize),
}

fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        "[0-9]{1,2}(\\.[0-9])?",
        "[a-d]{1,3}( [a-d]{1,3}){0,2}",
        "n/a",
    ]
}

fn arb_doc() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(arb_value(), 0..3),
        prop::collection::vec(arb_value(), 0..3),
    )
        .prop_map(|(prices, descs)| {
            let prices: String = prices
                .iter()
                .map(|p| format!("<price>{p}</price>"))
                .collect();
            let descs: String = descs.iter().map(|d| format!("<desc>{d}</desc>")).collect();
            format!("<item>{prices}<box>{descs}</box></item>")
        })
}

fn arb_fragment() -> impl Strategy<Value = String> {
    (any::<bool>(), arb_value()).prop_map(|(price, v)| {
        let name = if price { "price" } else { "desc" };
        format!("<{name}>{v}</{name}>")
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_doc().prop_map(Op::Insert),
        any::<usize>().prop_map(Op::Delete),
        (any::<usize>(), any::<usize>(), arb_value())
            .prop_map(|(i, j, v)| Op::ReplaceText(i, j, v)),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::DeleteNode(i, j)),
        (
            any::<usize>(),
            any::<usize>(),
            any::<bool>(),
            arb_fragment()
        )
            .prop_map(|(i, j, last, f)| Op::InsertFragment(i, j, last, f)),
        arb_doc().prop_map(Op::RolledBackInsert),
        any::<usize>().prop_map(Op::RolledBackDelete),
    ]
}

fn new_table(db: &Database) -> Arc<BaseTable> {
    db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap()
}

fn create_indexes(db: &Database) {
    db.create_value_index("t", "price", "doc", PRICE_PATH, KeyType::Double)
        .unwrap();
    db.create_fulltext_index("t", "desc", "doc", DESC_PATH)
        .unwrap();
}

/// Nodes of document `doc` a full scan finds for `query`, in document order.
fn nodes(db: &Database, t: &Arc<BaseTable>, doc: DocId, query: &str) -> Vec<NodeId> {
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new().parse(query).unwrap();
    let (hits, _) = run_plan(db, &AccessPlan::FullScan, t, col, &path);
    hits.into_iter()
        .filter(|h| h.doc == doc)
        .filter_map(|h| h.node)
        .collect()
}

fn pick<T: Clone>(items: &[T], i: usize) -> Option<T> {
    (!items.is_empty()).then(|| items[i % items.len()].clone())
}

/// Run `mutate` on the `j`-th node that `query` finds in the `i`-th live
/// document, through the index-maintaining update path. No-op without one.
fn edit(
    db: &Database,
    t: &Arc<BaseTable>,
    (i, query, j): (usize, &str, usize),
    mutate: impl FnOnce(&Txn, &XmlTable, DocId, &NodeId) -> Result<update::UpdateStats>,
) {
    let Some(doc) = pick(&access::all_docids(t).unwrap(), i) else {
        return;
    };
    let Some(node) = pick(&nodes(db, t, doc, query), j) else {
        return;
    };
    let txn = db.begin().unwrap();
    db.update_document_txn(&txn, t, "doc", doc, &node, |txn, xml| {
        mutate(txn, xml, doc, &node)
    })
    .unwrap();
    txn.commit().unwrap();
}

fn apply(db: &Database, t: &Arc<BaseTable>, op: &Op) {
    let live = access::all_docids(t).unwrap();
    match op {
        Op::Insert(text) => {
            db.insert_row(t, &[ColValue::Xml(text.clone())]).unwrap();
        }
        Op::Delete(i) => {
            if let Some(doc) = pick(&live, *i) {
                assert!(db.delete_row(t, doc).unwrap());
            }
        }
        Op::ReplaceText(i, j, value) => edit(db, t, (*i, "//text()", *j), |txn, xml, doc, node| {
            update::replace_value(txn, xml, doc, node, value)
        }),
        Op::DeleteNode(i, j) => edit(db, t, (*i, "/item//*", *j), |txn, xml, doc, node| {
            update::delete_node(txn, xml, doc, node)
        }),
        Op::InsertFragment(i, j, last, frag) => {
            let pos = if *last {
                InsertPos::Last
            } else {
                InsertPos::First
            };
            edit(db, t, (*i, "//*", *j), |txn, xml, doc, node| {
                update::insert_fragment(txn, xml, doc, db.dict(), node, pos, frag)
            })
        }
        Op::RolledBackInsert(text) => {
            let txn = db.begin().unwrap();
            db.insert_row_txn(&txn, t, &[ColValue::Xml(text.clone())])
                .unwrap();
            txn.rollback().unwrap();
        }
        Op::RolledBackDelete(i) => {
            if let Some(doc) = pick(&live, *i) {
                let txn = db.begin().unwrap();
                assert!(db.delete_row_txn(&txn, t, doc).unwrap());
                txn.rollback().unwrap();
            }
        }
    }
}

/// Element node IDs of one stored document, in document order.
struct Elements(Vec<Vec<u8>>);

impl IdEventSink for Elements {
    fn id_event(&mut self, id: &[u8], ev: Event<'_>) -> Result<()> {
        if matches!(ev, Event::StartElement { .. }) {
            self.0.push(id.to_vec());
        }
        Ok(())
    }
}

/// Every entry of every index of the column, as `(index, keyval, document
/// rank, element rank)`. Reloading a document renumbers both its DocID and
/// (after updates) its node IDs, so entries are compared by position: the
/// document's rank among the surviving ones and the node's rank among the
/// document's elements. Each entry's RID must be where the node lives.
fn entries(db: &Database) -> Vec<(String, Vec<u8>, usize, usize)> {
    let t = db.table("t").unwrap();
    let col = t.xml_column("doc").unwrap();
    let xml = col.xml_table();
    let docs = access::all_docids(&t).unwrap();
    let mut ranks: HashMap<DocId, (usize, HashMap<Vec<u8>, usize>)> = HashMap::new();
    for (rank, &doc) in docs.iter().enumerate() {
        let mut elements = Elements(Vec::new());
        Traverser::new(xml, doc).run(&mut elements).unwrap();
        let by_id = elements.0.into_iter().enumerate().map(|(i, id)| (id, i));
        ranks.insert(doc, (rank, by_id.collect()));
    }
    let mut out = Vec::new();
    for vi in col.indexes() {
        for e in vi.range(None, None).unwrap() {
            let (doc_rank, nodes) = &ranks[&e.doc];
            let found = xml.locate(e.doc, e.node.as_bytes()).unwrap();
            assert_eq!(found.map(|f| f.rid), Some(e.rid));
            let node_rank = nodes[e.node.as_bytes()];
            out.push((vi.def.name.clone(), e.keyval, *doc_rank, node_rank));
        }
    }
    out.sort();
    out
}

/// A fresh database holding `db`'s surviving documents, indexed afterwards.
fn reloaded(db: &Database) -> Arc<Database> {
    let t = db.table("t").unwrap();
    let fresh = Database::create_in_memory().unwrap();
    let ft = new_table(&fresh);
    for doc in access::all_docids(&t).unwrap() {
        let text = db.serialize_document(&t, "doc", doc).unwrap();
        fresh.insert_row(&ft, &[ColValue::Xml(text)]).unwrap();
    }
    create_indexes(&fresh);
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn indexes_equal_a_fresh_build_over_the_survivors(
        ops in prop::collection::vec(arb_op(), 1..24)
    ) {
        let db = Database::create_in_memory().unwrap();
        let t = new_table(&db);
        create_indexes(&db);
        for op in &ops {
            apply(&db, &t, op);
        }
        let got = entries(&db);
        let want = entries(&reloaded(&db));
        prop_assert_eq!(got, want, "after {:?}", ops);
    }
}
