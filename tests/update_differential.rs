//! Differential testing of sub-document updates: the same random edit
//! sequence applied to two databases with very different packing targets
//! (hence different record/proxy layouts) must produce byte-identical
//! documents, and after every edit the NodeID index must stay consistent
//! (every node locatable, no stale entries) and every record's header must
//! name one path entry per level of its context.

use proptest::prelude::*;
use rx_bench::run_plan;
use std::sync::Arc;
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::update::{self, InsertPos};
use system_rx::engine::{AccessPlan, BaseTable};
use system_rx::xml::NodeId;
use system_rx::xpath::XPathParser;

#[derive(Debug, Clone)]
enum Edit {
    /// Replace the i-th text node's value.
    ReplaceText(usize, String),
    /// Delete the i-th non-root element.
    DeleteElement(usize),
    /// Insert a fragment under the i-th element: first, last, or before or
    /// after one of its element children (`pos % 4`).
    Insert(usize, u8, String),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), "[a-z]{1,20}").prop_map(|(i, s)| Edit::ReplaceText(i, s)),
        any::<usize>().prop_map(Edit::DeleteElement),
        // Fragments up to ~1.5 KB, so edits push records past the edit
        // limit and spill.
        (any::<usize>(), 0u8..4, "[a-z]{1,6}", 0usize..1500).prop_map(|(i, p, n, len)| {
            let body: String = n.chars().cycle().take(len.max(1)).collect();
            Edit::Insert(i, p, format!("<{n}>{body}</{n}>"))
        }),
    ]
}

struct Db {
    db: Arc<Database>,
    table: Arc<BaseTable>,
}

impl Db {
    fn new(target: usize, doc: &str) -> Db {
        let db = Database::create_in_memory_with(DbConfig {
            target_record_size: target,
            ..Default::default()
        })
        .unwrap();
        let table = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
        db.insert_row(&table, &[ColValue::Xml(doc.to_string())])
            .unwrap();
        Db { db, table }
    }

    fn nodes(&self, query: &str) -> Vec<NodeId> {
        let col = self.table.xml_column("doc").unwrap();
        let path = XPathParser::new().parse(query).unwrap();
        let (hits, _) = run_plan(&self.db, &AccessPlan::FullScan, &self.table, col, &path);
        hits.into_iter().filter_map(|h| h.node).collect()
    }

    fn serialize(&self) -> String {
        self.db.serialize_document(&self.table, "doc", 1).unwrap()
    }

    /// Apply one edit; returns false when the edit was a no-op (no valid
    /// target). Node selection is deterministic given the same document, so
    /// both databases pick the same logical node.
    fn apply(&self, edit: &Edit) -> bool {
        let col = self.table.xml_column("doc").unwrap();
        let xml = col.xml_table();
        match edit {
            Edit::ReplaceText(i, value) => {
                let texts = self.nodes("//text()");
                if texts.is_empty() {
                    return false;
                }
                let node = &texts[i % texts.len()];
                let txn = self.db.begin().unwrap();
                update::replace_value(&txn, xml, 1, node, value).unwrap();
                txn.commit().unwrap();
                true
            }
            Edit::DeleteElement(i) => {
                // Deletable: any element except the document root element.
                let elems: Vec<NodeId> = self
                    .nodes("//*")
                    .into_iter()
                    .filter(|n| n.depth() > 1)
                    .collect();
                if elems.is_empty() {
                    return false;
                }
                let node = &elems[i % elems.len()];
                let txn = self.db.begin().unwrap();
                update::delete_node(&txn, xml, 1, node).unwrap();
                txn.commit().unwrap();
                true
            }
            Edit::Insert(i, pos, frag) => {
                let elems = self.nodes("//*");
                if elems.is_empty() {
                    return false;
                }
                let node = &elems[i % elems.len()];
                let kids: Vec<&NodeId> = elems
                    .iter()
                    .filter(|e| e.parent().as_ref() == Some(node))
                    .collect();
                let kid = || kids[(i / elems.len()) % kids.len()].clone();
                let pos = match pos % 4 {
                    0 => InsertPos::First,
                    2 if !kids.is_empty() => InsertPos::Before(kid()),
                    3 if !kids.is_empty() => InsertPos::After(kid()),
                    _ => InsertPos::Last,
                };
                let txn = self.db.begin().unwrap();
                update::insert_fragment(&txn, xml, 1, self.db.dict(), node, pos, frag).unwrap();
                txn.commit().unwrap();
                true
            }
        }
    }

    /// Every node reported by a full scan must be locatable through the
    /// NodeID index, and its string value must be readable; every
    /// NodeID-index entry must lead to its own node.
    fn check_index_consistency(&self) {
        let col = self.table.xml_column("doc").unwrap();
        let xml = col.xml_table();
        for node in self.nodes("//*") {
            assert!(
                xml.locate(1, node.as_bytes()).unwrap().is_some(),
                "element {node} not locatable"
            );
            let _ = system_rx::engine::traverse::string_value(xml, 1, &node).unwrap();
        }
        let mut uppers = Vec::new();
        xml.scan((1, &[]), (1, None), |_, upper, _| {
            uppers.push(NodeId::from_bytes(upper).unwrap());
            true
        })
        .unwrap();
        for upper in uppers {
            let node = system_rx::engine::traverse::fetch_node(xml, 1, &upper).unwrap();
            assert!(node.is_some(), "stale NodeID-index entry {upper}");
        }
    }

    /// Every record of the document is self-contained (§3.1): its header
    /// names one path entry per level of its context.
    fn check_headers(&self) {
        let xml = self.table.xml_column("doc").unwrap().xml_table();
        let mut rids = std::collections::BTreeSet::new();
        xml.scan((1, &[]), (1, None), |_, _, rid| {
            rids.insert(rid);
            true
        })
        .unwrap();
        for rid in rids {
            let rec = xml.read(rid).unwrap();
            let hdr = rec.header();
            assert_eq!(
                hdr.path.len(),
                hdr.context.depth(),
                "record with context {}",
                hdr.context
            );
        }
    }
}

const SEED_DOC: &str = "<root><a><x>one</x><y>two</y></a><b>three</b>\
                        <c><d><e>four</e></d></c></root>";

/// At target 160, p's twenty children sit behind a range proxy.
fn proxied_doc() -> String {
    let cs: String = (1..=20)
        .map(|i| format!("<c>value-number-{i:03}-padding</c>"))
        .collect();
    format!("<r><p>{cs}</p><tail>t</tail></r>")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_edits_agree_across_packing_targets(
        proxied in any::<bool>(),
        edits in prop::collection::vec(arb_edit(), 1..15)
    ) {
        let doc = if proxied { proxied_doc() } else { SEED_DOC.to_string() };
        let small = Db::new(160, &doc);
        let large = Db::new(3500, &doc);
        prop_assert_eq!(small.serialize(), large.serialize());
        for edit in &edits {
            let a = small.apply(edit);
            let b = large.apply(edit);
            prop_assert_eq!(a, b, "edit applicability must agree: {:?}", edit);
            prop_assert_eq!(
                small.serialize(),
                large.serialize(),
                "divergence after {:?}",
                edit
            );
            for db in [&small, &large] {
                db.check_index_consistency();
                db.check_headers();
            }
        }
    }
}

#[test]
fn targeted_edit_sequence() {
    // A deterministic mixed sequence exercising spill + delete + midpoints.
    let small = Db::new(160, SEED_DOC);
    let large = Db::new(3500, SEED_DOC);
    let edits = [
        Edit::Insert(0, 1, format!("<big>{}</big>", "z".repeat(500))),
        Edit::ReplaceText(2, "changed".into()),
        Edit::Insert(3, 0, "<tiny>t</tiny>".into()),
        Edit::DeleteElement(1),
        Edit::Insert(5, 1, format!("<big2>{}</big2>", "w".repeat(800))),
        Edit::DeleteElement(4),
        Edit::ReplaceText(0, "final".into()),
    ];
    for e in &edits {
        assert_eq!(small.apply(e), large.apply(e));
        assert_eq!(small.serialize(), large.serialize(), "after {e:?}");
    }
    for db in [&small, &large] {
        db.check_index_consistency();
        db.check_headers();
    }
}
