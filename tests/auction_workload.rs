//! An XMark-flavoured workload over the engine: a deeper, more varied
//! document shape than the catalog, with a query set checked index-vs-scan
//! and against the DOM reference.

use rx_bench::run_plan;
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::{access, AccessPlan};
use system_rx::gen::auction_doc;
use system_rx::xml::value::KeyType;
use system_rx::xpath::XPathParser;

#[test]
fn auction_queries_agree_and_use_indexes() {
    let db = Database::create_in_memory_with(DbConfig {
        target_record_size: 1024,
        ..Default::default()
    })
    .unwrap();
    let t = db
        .create_table("site", &[("doc", ColumnKind::Xml)])
        .unwrap();
    db.create_value_index(
        "site",
        "income",
        "doc",
        "//profile/@income",
        KeyType::Double,
    )
    .unwrap();
    db.create_value_index(
        "site",
        "initial",
        "doc",
        "/site/open_auctions/open_auction/initial",
        KeyType::Double,
    )
    .unwrap();
    let doc = auction_doc(50, 40, 80, 7);
    let id = db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap();
    assert_eq!(db.serialize_document(&t, "doc", id).unwrap(), doc);

    let col = t.xml_column("doc").unwrap();
    let queries = [
        // XMark Q1-ish: initial price filter.
        "/site/open_auctions/open_auction[initial > 50]",
        // Profiles above an income threshold (attribute index, filtering).
        "//person[profile/@income > 60000]/name",
        // Items by region attribute.
        "//item[@region = 'europe']/name",
        // Auctions with long bid histories.
        "//open_auction[count(bidder) >= 3]",
        // Deep mixed content.
        "//item/description/parlist/listitem/text",
        // Correlated: auctions whose current equals a bidder's current.
        "//open_auction[bidder/current = current]",
    ];
    for q in queries {
        let path = XPathParser::new().parse(q).unwrap();
        for nodeid in [false, true] {
            let plan = access::plan(&path, col, nodeid);
            let (mut hits, _) = run_plan(&db, &plan, &t, col, &path);
            let (mut scan, _) = run_plan(&db, &AccessPlan::FullScan, &t, col, &path);
            let key = |h: &access::QueryHit| (h.doc, h.node.clone().map(|n| n.as_bytes().to_vec()));
            hits.sort_by_key(key);
            scan.sort_by_key(key);
            assert_eq!(hits, scan, "query {q} nodeid={nodeid}");
            assert!(!scan.is_empty(), "query {q} should match something");
        }
    }
    // The income query actually plans as index access.
    let path = XPathParser::new()
        .parse("//person[profile/@income > 60000]")
        .unwrap();
    let plan = access::plan(&path, col, false);
    assert!(plan.explain().contains("list access"), "{}", plan.explain());
}
