//! End-to-end integration tests: the full SQL/XML surface over the native
//! engine, storage fidelity across packing configurations, and index/scan
//! agreement on generated workloads.

use rx_bench::run_plan;
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::{access, Output, Session};
use system_rx::gen::{catalog_xml, product_doc, sized_tree, CatalogSpec};
use system_rx::xml::value::KeyType;
use system_rx::xpath::XPathParser;

#[test]
fn sql_session_full_workflow() {
    let s = Session::new(Database::create_in_memory().unwrap());
    s.execute("CREATE TABLE inv (region VARCHAR, doc XML)")
        .unwrap();
    s.execute(
        "CREATE INDEX p ON inv (doc) USING XPATH '/Catalog/Categories/Product/RegPrice' AS DOUBLE",
    )
    .unwrap();
    let spec = CatalogSpec {
        products: 50,
        ..Default::default()
    };
    for i in 0..spec.products {
        let stmt = format!(
            "INSERT INTO inv VALUES ('r{}', XML('{}'))",
            i % 3,
            product_doc(&spec, i).replace('\'', "''")
        );
        s.execute(&stmt).unwrap();
    }
    // Count above a threshold agrees with the generator's closed form.
    let expected = spec.expected_above(250.0);
    match s
        .execute("SELECT XMLQUERY('/Catalog/Categories/Product[RegPrice > 250]') FROM inv")
        .unwrap()
    {
        Output::Sequence(hits) => assert_eq!(hits.len(), expected),
        other => panic!("unexpected {other:?}"),
    }
    // XMLEXISTS row filtering.
    match s
        .execute("SELECT * FROM inv WHERE XMLEXISTS('/Catalog/Categories/Product[RegPrice > 250]')")
        .unwrap()
    {
        Output::Rows(rows) => assert_eq!(rows.len(), expected),
        other => panic!("unexpected {other:?}"),
    }
    // Delete one qualifying row and re-count.
    match s
        .execute("SELECT * FROM inv WHERE XMLEXISTS('/Catalog/Categories/Product[RegPrice > 250]')")
        .unwrap()
    {
        Output::Rows(rows) => {
            let victim = rows[0].doc;
            s.execute(&format!("DELETE FROM inv WHERE DOCID = {victim}"))
                .unwrap();
        }
        other => panic!("unexpected {other:?}"),
    }
    match s
        .execute("SELECT XMLQUERY('/Catalog/Categories/Product[RegPrice > 250]') FROM inv")
        .unwrap()
    {
        Output::Sequence(hits) => assert_eq!(hits.len(), expected - 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn storage_roundtrip_across_packing_targets() {
    // The same document must round-trip byte-identically whatever the target
    // record size (i.e. however many records it spills into).
    let doc = catalog_xml(&CatalogSpec {
        products: 40,
        description_len: 120,
        ..Default::default()
    });
    for target in [256usize, 512, 1024, 3500] {
        let db = Database::create_in_memory_with(DbConfig {
            target_record_size: target,
            ..Default::default()
        })
        .unwrap();
        let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
        let id = db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap();
        assert_eq!(
            db.serialize_document(&t, "doc", id).unwrap(),
            doc,
            "target {target}"
        );
        // More spilling -> more records, never fewer than 1.
        let (_, records, _, entries, _) = t.xml_column("doc").unwrap().xml_table().stats().unwrap();
        assert!(records >= 1);
        assert!(entries >= records, "every record has >= 1 interval entry");
    }
}

#[test]
fn index_and_scan_agree_on_generated_catalog() {
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("c", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index(
        "c",
        "price",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        KeyType::Double,
    )
    .unwrap();
    db.create_value_index("c", "disc", "doc", "//Discount", KeyType::Double)
        .unwrap();
    db.create_value_index("c", "added", "doc", "//Added", KeyType::Date)
        .unwrap();
    let spec = CatalogSpec {
        products: 200,
        ..Default::default()
    };
    for i in 0..spec.products {
        db.insert_row(&t, &[ColValue::Xml(product_doc(&spec, i))])
            .unwrap();
    }
    let col = t.xml_column("doc").unwrap();
    let queries = [
        "/Catalog/Categories/Product[RegPrice > 100]",
        "/Catalog/Categories/Product[RegPrice <= 50]/ProductName",
        "/Catalog/Categories/Product[Discount >= 0.25]",
        "/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]",
        "/Catalog/Categories/Product[RegPrice < 30 or RegPrice > 470]",
        "/Catalog/Categories/Product[Added >= '2015-01-01']",
    ];
    for q in queries {
        let path = XPathParser::new().parse(q).unwrap();
        for nodeid in [false, true] {
            let plan = access::plan(&path, col, nodeid);
            let (mut hits, _) = run_plan(&db, &plan, &t, col, &path);
            let (mut scan, _) = run_plan(&db, &access::AccessPlan::FullScan, &t, col, &path);
            let key = |h: &access::QueryHit| (h.doc, h.node.clone().map(|n| n.as_bytes().to_vec()));
            hits.sort_by_key(key);
            scan.sort_by_key(key);
            assert_eq!(hits, scan, "query {q}, nodeid={nodeid}");
        }
    }
}

#[test]
fn large_single_document_queries() {
    // One big catalog in one row: NodeID-granularity access shines here.
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("c", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index(
        "c",
        "price",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        KeyType::Double,
    )
    .unwrap();
    let spec = CatalogSpec {
        products: 500,
        categories: 5,
        ..Default::default()
    };
    let doc = db
        .insert_row(&t, &[ColValue::Xml(catalog_xml(&spec))])
        .unwrap();
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new()
        .parse("/Catalog/Categories/Product[RegPrice > 490]")
        .unwrap();
    let plan = access::plan(&path, col, true);
    let explain = plan.explain();
    assert!(
        explain.contains("NodeID list access (exact, no re-evaluation)"),
        "{explain}"
    );
    let (hits, stats) = run_plan(&db, &plan, &t, col, &path);
    assert_eq!(hits.len(), spec.expected_above(490.0));
    assert!(hits.iter().all(|h| h.doc == doc));
    // The exact list answers under its S lock without evaluating the
    // document, and returns exactly what the DocID plan's evaluation does.
    assert_eq!(stats.docs_evaluated, 0);
    let docid_plan = access::plan(&path, col, false);
    let (docid_hits, docid_stats) = run_plan(&db, &docid_plan, &t, col, &path);
    assert_eq!(docid_stats.docs_evaluated, 1);
    assert_eq!(hits, docid_hits);
    // Node-granularity: far fewer records touched than a whole-doc scan.
    let (scan_hits, scan_stats) = run_plan(&db, &access::AccessPlan::FullScan, &t, col, &path);
    assert_eq!(hits, scan_hits);
    assert!(
        stats.records_fetched < scan_stats.records_fetched,
        "index {} vs scan {}",
        stats.records_fetched,
        scan_stats.records_fetched
    );
}

#[test]
fn deep_documents_survive_storage() {
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
    let doc = sized_tree(5000, 2, 8, 3);
    let id = db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap();
    assert_eq!(db.serialize_document(&t, "doc", id).unwrap(), doc);
}

#[test]
fn multiple_xml_columns_per_table() {
    let db = Database::create_in_memory().unwrap();
    let t = db
        .create_table(
            "dual",
            &[("spec", ColumnKind::Xml), ("manual", ColumnKind::Xml)],
        )
        .unwrap();
    let id = db
        .insert_row(
            &t,
            &[
                ColValue::Xml("<spec><v>1</v></spec>".into()),
                ColValue::Xml("<manual><page>intro</page></manual>".into()),
            ],
        )
        .unwrap();
    assert_eq!(
        db.serialize_document(&t, "spec", id).unwrap(),
        "<spec><v>1</v></spec>"
    );
    assert_eq!(
        db.serialize_document(&t, "manual", id).unwrap(),
        "<manual><page>intro</page></manual>"
    );
}

#[test]
fn small_buffer_pool_forces_eviction_through_the_stack() {
    // A 64-page (256 KB) pool with ~1.5 MB of data: every layer must behave
    // under constant eviction and write-back.
    let dir = std::env::temp_dir().join(format!("rx-smallpool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = system_rx::engine::Database::create_with(
        system_rx::engine::Storage::Dir(dir.clone()),
        DbConfig {
            buffer_pages: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let t = db.create_table("big", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index(
        "big",
        "price",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        KeyType::Double,
    )
    .unwrap();
    let spec = CatalogSpec {
        products: 3000,
        categories: 30,
        description_len: 200,
        ..Default::default()
    };
    let doc = catalog_xml(&spec);
    assert!(doc.len() > 1_000_000);
    let id = db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap();
    // The pool is far smaller than the document.
    assert!(db.pool().resident() <= 64);
    let s = db.pool().stats();
    let (evictions, writebacks) = (s.evictions, s.writebacks);
    assert!(evictions > 100, "evictions: {evictions}");
    assert!(writebacks > 50, "writebacks: {writebacks}");
    // Query through the index, then verify a full round trip.
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new()
        .parse("/Catalog/Categories/Product[RegPrice > 495]")
        .unwrap();
    let plan = access::plan(&path, col, true);
    let (hits, _) = run_plan(&db, &plan, &t, col, &path);
    assert_eq!(hits.len(), spec.expected_above(495.0));
    assert_eq!(db.serialize_document(&t, "doc", id).unwrap(), doc);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn indexes_created_on_a_loaded_table_cover_existing_documents() {
    let dir = std::env::temp_dir().join(format!("rx-backfill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::create_dir(&dir).unwrap();
    let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
    for i in 0..5 {
        let doc = format!("<a><p>{i}</p><w>word{i} common</w></a>");
        db.insert_row(&t, &[ColValue::Xml(doc)]).unwrap();
    }
    let path = XPathParser::new().parse("/a[p = 3]").unwrap();
    let query = |db: &Database| {
        let t = db.table("t").unwrap();
        let col = t.xml_column("doc").unwrap();
        let txn = db.begin().unwrap();
        let (hits, _) = db.query_locked(&txn, &t, col, &path, false).unwrap();
        txn.commit().unwrap();
        // The plan the query ran: the plan cache's entry for its key.
        let cached = access::prepare(Some(db.plan_cache()), &t, col, &path, false).unwrap();
        (hits.len(), cached.plan.explain())
    };
    assert_eq!(query(&db).0, 1, "full scan");

    let vi = db
        .create_value_index("t", "pidx", "doc", "/a/p", KeyType::Double)
        .unwrap();
    assert_eq!(vi.len().unwrap(), 5, "every stored document backfilled");
    let (hits, explain) = query(&db);
    assert!(explain.contains("list access"), "got plan: {explain}");
    assert_eq!(hits, 1);

    let ft = db.create_fulltext_index("t", "wft", "doc", "/a/w").unwrap();
    assert_eq!(ft.search_all_terms("word3").unwrap(), vec![4]);
    assert_eq!(ft.search_all_terms("common").unwrap().len(), 5);
    // A terms index never answers a comparison, so the plan is unchanged.
    assert_eq!(query(&db), (hits, explain));

    // Later writes maintain both, and the backfill survives recovery.
    db.insert_row(&t, &[ColValue::Xml("<a><p>3</p><w>late</w></a>".into())])
        .unwrap();
    drop((t, vi, ft, db));
    let db = Database::open_dir(&dir).unwrap();
    let (hits, explain) = query(&db);
    assert!(explain.contains("list access"), "got plan: {explain}");
    assert_eq!(hits, 2);
    let t = db.table("t").unwrap();
    let col = t.xml_column("doc").unwrap();
    assert_eq!(col.indexes().len(), 2);
    let ft = &col.fulltext_indexes()[0];
    assert_eq!(ft.search_all_terms("word3").unwrap(), vec![4]);
    assert_eq!(ft.search_all_terms("late").unwrap(), vec![6]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sub_document_update_maintains_value_indexes() {
    use system_rx::engine::update::{self, InsertPos};
    use system_rx::xml::NodeId;

    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index("p", "price", "doc", "//RegPrice", KeyType::Double)
        .unwrap();
    db.create_fulltext_index("p", "ft", "doc", "//Description")
        .unwrap();
    db.insert_row(
        &t,
        &[ColValue::Xml(
            "<Product><RegPrice>100</RegPrice>\
             <Description>old words here</Description></Product>"
                .into(),
        )],
    )
    .unwrap();
    let col = t.xml_column("doc").unwrap();
    let q = |text: &str| {
        let path = XPathParser::new().parse(text).unwrap();
        let plan = access::plan(&path, col, false);
        let (hits, _) = run_plan(&db, &plan, &t, col, &path);
        hits.len()
    };
    assert_eq!(q("/Product[RegPrice > 150]"), 0);
    assert_eq!(q("/Product[RegPrice > 50]"), 1);

    // Update the price through the maintained path.
    let price_text = NodeId::from_bytes(&[0x02, 0x02, 0x02]).unwrap();
    let txn = db.begin().unwrap();
    db.update_document_txn(&txn, &t, "doc", 1, |txn, xml| {
        update::replace_value(txn, xml, 1, &price_text, "200")
    })
    .unwrap();
    txn.commit().unwrap();

    // The value index reflects the new price (these queries PLAN as index
    // access, so stale entries would give wrong answers).
    assert_eq!(q("/Product[RegPrice > 150]"), 1);
    assert_eq!(q("/Product[RegPrice = 100]"), 0);
    // Full-text postings too.
    let ftis = col.fulltext_indexes();
    assert!(ftis[0].search_all_terms("old words").unwrap().len() == 1);
    let desc = NodeId::from_bytes(&[0x02, 0x04]).unwrap();
    let txn = db.begin().unwrap();
    db.update_document_txn(&txn, &t, "doc", 1, |txn, xml| {
        let stats = update::delete_node(txn, xml, 1, &desc)?;
        update::insert_fragment(
            txn,
            xml,
            1,
            db.dict(),
            &NodeId::from_bytes(&[0x02]).unwrap(),
            InsertPos::Last,
            "<Description>fresh terms</Description>",
        )?;
        Ok(stats)
    })
    .unwrap();
    txn.commit().unwrap();
    assert!(ftis[0].search_all_terms("old words").unwrap().is_empty());
    assert_eq!(ftis[0].search_all_terms("fresh terms").unwrap(), vec![1]);
}
