//! Per-document synopses never change an answer (DESIGN.md §19):
//!
//! * over random documents — names that are a leaf in one place and have
//!   element children in another, text split by a comment or a PI,
//!   attributes, namespaces, empty elements and schema-validated (typed)
//!   documents — and random decidable and undecidable predicates, every
//!   answer through `query_locked` equals a `DocScanner` run over every
//!   DocID, in hits, node IDs and values; this holds again after
//!   sub-document edits (committed and rolled back), deletes, and a crash
//!   with an edit in flight followed by a reopen;
//! * a `ProductName` update is found by its new value and not by its old
//!   one, also after a rollback;
//! * pruned documents count in `docs_pruned`, not in `docs_evaluated`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use system_rx::engine::access::{all_docids, AccessStats, DocScanner, QueryHit};
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig, Storage};
use system_rx::engine::update::{self, InsertPos};
use system_rx::engine::{BaseTable, DocId};
use system_rx::xml::NodeId;
use system_rx::xpath::{QueryTree, XPathParser};

const NAMES: [&str; 3] = ["a", "b", "c"];
const VALUES: [&str; 6] = ["x", "y", "xy", "", "10", "10.0"];

const SCHEMA: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r">
    <xs:complexType><xs:sequence>
      <xs:element name="a" maxOccurs="unbounded">
        <xs:complexType><xs:sequence>
          <xs:element name="b" type="xs:string"/>
          <xs:element name="c" type="xs:decimal"/>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// Text content, sometimes split by a comment or a processing instruction.
fn text(rng: &mut StdRng) -> String {
    let (l, r) = (pick(rng, &VALUES), pick(rng, &VALUES));
    match rng.gen_range(0..4) {
        0 => format!("{l}<!--c-->{r}"),
        1 => format!("{l}<?pi d?>{r}"),
        _ => l.to_string(),
    }
}

/// A random element: a name from [`NAMES`], sometimes namespace-prefixed,
/// with optional `id`/`k` attributes and text, element and empty children.
fn element(rng: &mut StdRng, depth: u32, out: &mut String) {
    let local = pick(rng, &NAMES);
    let name = if rng.gen_range(0..5) == 0 {
        format!("p:{local}")
    } else {
        local.to_string()
    };
    out.push('<');
    out.push_str(&name);
    for attr in ["id", "k"] {
        if rng.gen_range(0..3) == 0 {
            out.push_str(&format!(" {attr}=\"{}\"", pick(rng, &VALUES)));
        }
    }
    let children = if depth == 0 { 0 } else { rng.gen_range(0..4) };
    if children == 0 && rng.gen_range(0..3) == 0 {
        out.push_str("/>");
        return;
    }
    out.push('>');
    if children == 0 {
        out.push_str(&text(rng));
    }
    for _ in 0..children {
        if rng.gen_range(0..4) == 0 {
            out.push_str(&text(rng));
        } else {
            element(rng, depth - 1, out);
        }
    }
    out.push_str(&format!("</{name}>"));
}

/// A document that either validates against [`SCHEMA`] (typed `c`
/// decimals) or is a random tree under `r`.
fn document(rng: &mut StdRng) -> ColValue {
    if rng.gen_range(0..4) == 0 {
        let mut out = String::from("<r>");
        for _ in 0..rng.gen_range(1..4) {
            let c = pick(rng, &["10", "10.0", " 10 ", "7"]);
            out.push_str(&format!("<a><b>{}</b><c>{c}</c></a>", pick(rng, &VALUES)));
        }
        out.push_str("</r>");
        return ColValue::XmlValidated {
            text: out,
            schema: "s".into(),
        };
    }
    let mut out = String::from("<r xmlns:p=\"urn:p\">");
    for _ in 0..rng.gen_range(1..4) {
        element(rng, 3, &mut out);
    }
    out.push_str("</r>");
    ColValue::Xml(out)
}

/// A random query: mostly with a decidable equality, some with predicates
/// the synopsis cannot decide.
fn query(rng: &mut StdRng) -> String {
    let (e, f, g) = (pick(rng, &NAMES), pick(rng, &NAMES), pick(rng, &NAMES));
    let (v, w) = (pick(rng, &VALUES), pick(rng, &VALUES));
    let templates = [
        format!("//{e}[{f} = \"{v}\"]"),
        format!("//{e}[{f} = \"{v}\"]/{g}"),
        format!("//{e}[@id = \"{v}\"]"),
        format!("/r[.//{f} = \"{v}\"]"),
        format!("//{e}[{f}/{g} = \"{v}\"]"),
        format!("//{e}[{f} = \"{v}\" and @k = \"{w}\"]"),
        format!("//{e}[{f}[{g} = \"{v}\"]]/@id"),
        format!("//{e}[\"{v}\" = {f}]//text()"),
        format!("/r/{e}[{f} = \"{v}\"][{g} = \"{w}\"]"),
        format!("//{e}[{f} = 10]"),
        format!("//{e}[{f} != \"{v}\"]"),
        format!("//{e}[{f} = \"{v}\" or {g} = \"{w}\"]"),
        format!("//{e}[not({f} = \"{v}\")]"),
        format!("//{e}[text() = \"{v}\"]"),
        format!("//{e}[* = \"{v}\"]"),
        format!("//{e}[. = \"{v}\"]"),
    ];
    templates[rng.gen_range(0..templates.len())].clone()
}

/// The reference answer: a fresh `DocScanner` over every DocID.
fn full_scan(db: &Database, t: &Arc<BaseTable>, path: &str) -> Vec<QueryHit> {
    let col = t.xml_column("doc").unwrap();
    let tree = QueryTree::compile(&XPathParser::new().parse(path).unwrap()).unwrap();
    let mut scanner = DocScanner::new(col, &tree, db.dict(), false);
    let (mut stats, mut hits) = (AccessStats::default(), Vec::new());
    for d in all_docids(t).unwrap() {
        scanner.evaluate(d, &mut stats, &mut hits).unwrap();
    }
    hits
}

fn query_locked(db: &Database, t: &Arc<BaseTable>, path: &str) -> (Vec<QueryHit>, AccessStats) {
    let txn = db.begin().unwrap();
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new().parse(path).unwrap();
    let out = db.query_locked(&txn, t, col, &path, false).unwrap();
    txn.commit().unwrap();
    out
}

/// Every query's pruned answer equals the full scan's.
fn check(db: &Database, t: &Arc<BaseTable>, queries: &[String], when: &str) -> TestCaseResult {
    for q in queries {
        let (hits, stats) = query_locked(db, t, q);
        prop_assert_eq!(&hits, &full_scan(db, t, q), "{} ({})", q, when);
        prop_assert!(stats.docs_evaluated + stats.docs_pruned <= stats.candidates);
    }
    Ok(())
}

/// Nodes of `doc` that `path` selects.
fn nodes(db: &Database, t: &Arc<BaseTable>, doc: DocId, path: &str) -> Vec<NodeId> {
    query_locked(db, t, path)
        .0
        .into_iter()
        .filter(|h| h.doc == doc)
        .filter_map(|h| h.node)
        .collect()
}

/// One random sub-document edit of a random live document, in its own
/// transaction: replace a text or attribute value, append an element to
/// an element (a leaf may become a non-leaf), or delete a non-root
/// element (a non-leaf may become a leaf). Returns the open transaction.
fn edit(db: &Database, t: &Arc<BaseTable>, rng: &mut StdRng) -> Option<system_rx::storage::Txn> {
    let docs = all_docids(t).unwrap();
    let doc = *docs.get(rng.gen_range(0..docs.len().max(1)))?;
    let txn = db.begin().unwrap();
    let dict = db.dict();
    let value = pick(rng, &VALUES).to_string();
    let kind = rng.gen_range(0..3);
    let targets = match kind {
        0 => [nodes(db, t, doc, "//text()"), nodes(db, t, doc, "//@*")].concat(),
        1 => nodes(db, t, doc, "/r//*"),
        _ => nodes(db, t, doc, "/r/*/*"),
    };
    if targets.is_empty() {
        return Some(txn);
    }
    let target = targets[rng.gen_range(0..targets.len())].clone();
    let fragment = format!("<{0}>{value}</{0}>", pick(rng, &NAMES));
    db.update_document_txn(&txn, t, "doc", doc, |txn, xml| match kind {
        0 => update::replace_value(txn, xml, doc, &target, &value),
        1 => update::insert_fragment(txn, xml, doc, dict, &target, InsertPos::Last, &fragment),
        _ => update::delete_node(txn, xml, doc, &target),
    })
    .unwrap();
    Some(txn)
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pruned_answers_equal_full_scans(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = std::env::temp_dir().join(format!(
            "rx-synopsis-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DbConfig {
            query_workers: 2,
            ..DbConfig::default()
        };
        let queries: Vec<String> = (0..24).map(|_| query(&mut rng)).collect();
        {
            let db = Database::create_with(Storage::Dir(dir.clone()), config.clone()).unwrap();
            db.register_schema("s", SCHEMA).unwrap();
            let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
            for _ in 0..rng.gen_range(8..40) {
                db.insert_row(&t, &[document(&mut rng)]).unwrap();
            }
            check(&db, &t, &queries, "after insert")?;

            // Edits: about a third roll back; some rows are deleted.
            for _ in 0..12 {
                if let Some(txn) = edit(&db, &t, &mut rng) {
                    if rng.gen_range(0..3) == 0 {
                        txn.rollback().unwrap();
                    } else {
                        txn.commit().unwrap();
                    }
                }
                if rng.gen_range(0..4) == 0 {
                    let docs = all_docids(&t).unwrap();
                    if !docs.is_empty() {
                        db.delete_row(&t, docs[rng.gen_range(0..docs.len())]).unwrap();
                    }
                }
            }
            check(&db, &t, &queries, "after edits")?;

            // Crash with one committed and one in-flight edit: drop the
            // database without a checkpoint and leak the open transaction.
            if let Some(txn) = edit(&db, &t, &mut rng) {
                txn.commit().unwrap();
            }
            if let Some(txn) = edit(&db, &t, &mut rng) {
                db.txns().wal().force().unwrap();
                std::mem::forget(txn);
            }
        }
        let db = Database::open_with(&dir, config).unwrap();
        let t = db.table("t").unwrap();
        check(&db, &t, &queries, "after crash and reopen")?;
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A small product table; `ProductName` carries no index, so its equality
/// is a full scan that synopses prune.
fn products(n: usize) -> (Arc<Database>, Arc<BaseTable>) {
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
    let spec = system_rx::gen::CatalogSpec {
        products: n,
        ..Default::default()
    };
    for i in 0..n {
        db.insert_row(&t, &[ColValue::Xml(system_rx::gen::product_doc(&spec, i))])
            .unwrap();
    }
    (db, t)
}

fn name_query(name: &str) -> String {
    format!("/Catalog/Categories/Product[ProductName = \"{name}\"]/RegPrice")
}

#[test]
fn updated_product_name_is_found_by_its_new_value_only() {
    let (db, t) = products(40);
    let doc = all_docids(&t).unwrap()[7];
    let target = nodes(&db, &t, doc, "//ProductName/text()")[0].clone();
    let rename = |to: &str, commit: bool| {
        let txn = db.begin().unwrap();
        db.update_document_txn(&txn, &t, "doc", doc, |txn, xml| {
            update::replace_value(txn, xml, doc, &target, to)
        })
        .unwrap();
        if commit {
            txn.commit().unwrap();
        } else {
            txn.rollback().unwrap();
        }
    };
    let found = |name: &str| -> Vec<DocId> {
        let (hits, _) = query_locked(&db, &t, &name_query(name));
        assert_eq!(hits, full_scan(&db, &t, &name_query(name)), "{name}");
        hits.iter().map(|h| h.doc).collect()
    };
    assert_eq!(found("Product-000007"), [doc]);
    rename("Renamed", true);
    assert_eq!(found("Renamed"), [doc]);
    assert!(found("Product-000007").is_empty());
    // A rolled-back rename puts the old synopsis back with the old value.
    rename("Rolled-back", false);
    assert!(found("Rolled-back").is_empty());
    assert_eq!(found("Renamed"), [doc]);
}

#[test]
fn pruned_documents_are_not_evaluated() {
    let (db, t) = products(200);
    let (hits, stats) = query_locked(&db, &t, &name_query("Product-000123"));
    assert_eq!(hits.len(), 1);
    assert_eq!(stats.candidates, 200);
    assert_eq!(stats.docs_evaluated + stats.docs_pruned, 200);
    assert!(stats.docs_pruned >= 150, "{stats:?}");
    // An undecidable predicate prunes nothing.
    let (_, stats) = query_locked(
        &db,
        &t,
        "/Catalog/Categories/Product[RegPrice = 10]/ProductName",
    );
    assert_eq!((stats.docs_evaluated, stats.docs_pruned), (200, 0));
    // A value that no document holds evaluates only false positives.
    let (hits, stats) = query_locked(&db, &t, &name_query("absent"));
    assert!(hits.is_empty());
    assert_eq!(stats.docs_evaluated + stats.docs_pruned, 200);
    assert!(stats.docs_evaluated <= 40, "{stats:?}");
}
