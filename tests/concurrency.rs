//! Concurrency integration tests over the full engine (§5): parallel
//! loaders, reader/writer isolation at document granularity, disjoint
//! subtree writers, and snapshot readers over MVCC under write pressure.

use rx_bench::run_plan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use system_rx::engine::db::{ColValue, ColumnKind, Database};
use system_rx::engine::mvcc::{pack_for_mvcc, MvccXmlStore};
use system_rx::engine::{access, conc, update, Output, Session};
use system_rx::gen::{order_doc, product_doc, CatalogSpec};
use system_rx::storage::{BufferPool, MemBackend, TableSpace};
use system_rx::xml::{NameDict, NodeId};
use system_rx::xpath::XPathParser;

#[test]
fn parallel_loaders_do_not_corrupt() {
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index(
        "p",
        "price",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        system_rx::xml::value::KeyType::Double,
    )
    .unwrap();
    let spec = CatalogSpec {
        products: 120,
        ..Default::default()
    };
    let loaded = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..4usize {
            let db = &db;
            let t = &t;
            let spec = &spec;
            let loaded = &loaded;
            s.spawn(move || {
                for i in (w..spec.products).step_by(4) {
                    db.insert_row(t, &[ColValue::Xml(product_doc(spec, i))])
                        .unwrap();
                    loaded.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(loaded.load(Ordering::Relaxed), 120);
    // Every document round-trips; index agrees with scan.
    let col = t.xml_column("doc").unwrap();
    assert_eq!(access::all_docids(&t).unwrap().len(), 120);
    let path = XPathParser::new()
        .parse("/Catalog/Categories/Product[RegPrice > 250]")
        .unwrap();
    let plan = access::plan(&path, col, false);
    let (hits, _) = run_plan(&db, &plan, &t, col, &path);
    assert_eq!(hits.len(), spec.expected_above(250.0));
}

#[test]
fn document_lock_serializes_reader_and_writer() {
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("o", &[("doc", ColumnKind::Xml)]).unwrap();
    let doc = db
        .insert_row(&t, &[ColValue::Xml(order_doc(1, 4))])
        .unwrap();
    let table_id = t.def.id;

    let w = db.begin().unwrap();
    conc::lock_document_exclusive(&w, table_id, doc).unwrap();
    // A reader cannot get S while the writer holds X (times out quickly).
    let r = db.begin().unwrap();
    assert!(conc::lock_document_shared(&r, table_id, doc).is_err());
    w.commit().unwrap();
    let r2 = db.begin().unwrap();
    conc::lock_document_shared(&r2, table_id, doc).unwrap();
    r2.commit().unwrap();
    r.commit().unwrap();
}

#[test]
fn disjoint_subtree_writers_produce_all_updates() {
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("o", &[("doc", ColumnKind::Xml)]).unwrap();
    let items = 16usize;
    let doc = db
        .insert_row(&t, &[ColValue::Xml(order_doc(1, items))])
        .unwrap();
    let table_id = t.def.id;
    let col = t.xml_column("doc").unwrap();

    // Item i's node id: Order(02) / child (06 + 2i) — @id:02, Customer:04.
    let item_node =
        |i: usize| -> NodeId { NodeId::from_bytes(&[0x02, 0x06 + 2 * i as u8]).unwrap() };
    std::thread::scope(|s| {
        for w in 0..4usize {
            let db = &db;
            let item_node = &item_node;
            s.spawn(move || {
                for i in (w..16).step_by(4) {
                    let item = item_node(i);
                    let txn = db.begin().unwrap();
                    conc::lock_subtree_exclusive(&txn, table_id, doc, &item).unwrap();
                    let qty_text =
                        NodeId::from_bytes(&[item.as_bytes(), &[0x04, 0x02]].concat()).unwrap();
                    update::replace_value(&txn, col.xml_table(), doc, &qty_text, "99").unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    let xml = db.serialize_document(&t, "doc", doc).unwrap();
    assert_eq!(
        xml.matches("<Qty>99</Qty>").count(),
        items,
        "every item updated exactly once: {xml}"
    );
}

#[test]
fn mvcc_snapshot_isolation_under_writes() {
    let pool = BufferPool::new(4096);
    let space = TableSpace::create(pool, 77, Arc::new(MemBackend::new())).unwrap();
    let store = Arc::new(MvccXmlStore::create(space).unwrap());
    let dict = NameDict::new();
    store
        .commit_version(
            1,
            &pack_for_mvcc("<o><v>0</v></o>", &dict, 3500).unwrap(),
            &[],
        )
        .unwrap();
    let anomalies = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        {
            let store = Arc::clone(&store);
            let dict = &dict;
            s.spawn(move || {
                for v in 1..=100 {
                    let recs = pack_for_mvcc(&format!("<o><v>{v}</v></o>"), dict, 3500).unwrap();
                    store.commit_version(1, &recs, &[]).unwrap();
                }
            });
        }
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let anomalies = Arc::clone(&anomalies);
            s.spawn(move || {
                let root = NodeId::from_bytes(&[0x02]).unwrap();
                for _ in 0..500 {
                    let snap = store.snapshot();
                    // Two reads under one snapshot must agree (repeatable).
                    let a = store.visible_version(1, snap).unwrap();
                    let rid1 = store.locate(1, &root, snap).unwrap();
                    let b = store.visible_version(1, snap).unwrap();
                    let rid2 = store.locate(1, &root, snap).unwrap();
                    if a != b || rid1 != rid2 {
                        anomalies.fetch_add(1, Ordering::Relaxed);
                    }
                    store.close_snapshot(snap);
                }
            });
        }
    });
    assert_eq!(anomalies.load(Ordering::Relaxed), 0);
}

#[test]
fn deadlock_victim_lets_other_proceed() {
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("o", &[("doc", ColumnKind::Xml)]).unwrap();
    let d1 = db.insert_row(&t, &[ColValue::Xml("<a/>".into())]).unwrap();
    let d2 = db.insert_row(&t, &[ColValue::Xml("<b/>".into())]).unwrap();
    let table_id = t.def.id;

    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    conc::lock_document_exclusive(&t1, table_id, d1).unwrap();
    conc::lock_document_exclusive(&t2, table_id, d2).unwrap();
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        // t1 wants d2 — will wait on t2.
        conc::lock_document_exclusive(&t1, table_id, d2).map(|()| t1)
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    // t2 wants d1 — closes the cycle; one of the two must fail fast.
    let r2 = conc::lock_document_exclusive(&t2, table_id, d1);
    if r2.is_err() {
        // t2 is the victim: release it so t1 proceeds.
        t2.rollback().unwrap();
        let t1 = h.join().unwrap().expect("t1 proceeds after victim aborts");
        t1.commit().unwrap();
    } else {
        // t1 must have been the victim.
        assert!(h.join().unwrap().is_err());
        t2.commit().unwrap();
    }
    let _ = db2;
}

#[test]
fn locked_reader_never_sees_partial_insert_via_index() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use system_rx::xml::value::KeyType;

    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index("p", "v", "doc", "/r/v", KeyType::Double)
        .unwrap();
    // One committed document.
    db.insert_row(
        &t,
        &[ColValue::Xml("<r><v>1</v><tag>done</tag></r>".into())],
    )
    .unwrap();
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new().parse("/r[v >= 1]/tag").unwrap();

    let writer_holding = Arc::new(AtomicBool::new(false));
    let release_writer = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Writer: inserts a document and stalls before commit — its index
        // entries exist but the document is half-visible.
        {
            let db = &db;
            let t = &t;
            let writer_holding = Arc::clone(&writer_holding);
            let release_writer = Arc::clone(&release_writer);
            s.spawn(move || {
                let txn = db.begin().unwrap();
                db.insert_row_txn(
                    &txn,
                    t,
                    &[ColValue::Xml("<r><v>2</v><tag>pending</tag></r>".into())],
                )
                .unwrap();
                writer_holding.store(true, Ordering::SeqCst);
                while !release_writer.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                txn.commit().unwrap();
            });
        }
        while !writer_holding.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Unlocked read (MVCC-free, lock-free): would touch the in-flight
        // document's index entries — the hazard §5.1 warns about. The LOCKED
        // reader instead blocks on the doc lock; with the short default
        // timeout it errors rather than returning a partial document.
        let txn = db.begin().unwrap();
        let locked = db.query_locked(&txn, &t, col, &path, false);
        assert!(
            locked.is_err(),
            "locked reader must not read the uncommitted document"
        );
        txn.rollback().unwrap();
        release_writer.store(true, Ordering::SeqCst);
    });
    // After commit, the locked reader sees both documents.
    let txn = db.begin().unwrap();
    let (hits, _) = db.query_locked(&txn, &t, col, &path, false).unwrap();
    txn.commit().unwrap();
    let mut values: Vec<String> = hits.into_iter().map(|h| h.value).collect();
    values.sort();
    assert_eq!(values, vec!["done", "pending"]);
}

#[test]
fn locked_scan_without_indexes() {
    // query_locked falls back to a full scan and still S-locks every
    // document it reads.
    let db = Database::create_in_memory().unwrap();
    let t = db.create_table("u", &[("doc", ColumnKind::Xml)]).unwrap();
    for i in 0..5 {
        db.insert_row(&t, &[ColValue::Xml(format!("<r><v>{i}</v></r>"))])
            .unwrap();
    }
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new().parse("/r/v").unwrap();
    let txn = db.begin().unwrap();
    let (hits, stats) = db.query_locked(&txn, &t, col, &path, false).unwrap();
    assert_eq!(hits.len(), 5);
    assert_eq!(stats.candidates, 5);
    // All five document locks are held until commit.
    assert!(db.txns().locks().held_count(txn.id()) >= 6); // table IS + 5 docs
    txn.commit().unwrap();
}

/// SQL/XML and XQuery read under the §5.1 locks: with an insert left
/// uncommitted, each statement waits for the writer and, once it rolls
/// back, returns only the committed row — through an index
/// (`XMLEXISTS`), a full scan (`XMLQUERY`, `XQUERY`) and a row scan
/// (`SELECT *`).
#[test]
fn sql_and_xquery_never_return_an_uncommitted_insert() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::time::Duration;
    use system_rx::xml::value::KeyType;

    let db = Database::create_in_memory().unwrap();
    let session = Session::new(Arc::clone(&db));
    session
        .execute("CREATE TABLE t (tag VARCHAR, doc XML)")
        .unwrap();
    db.create_value_index("t", "v", "doc", "/r/v", KeyType::Double)
        .unwrap();
    session
        .execute("INSERT INTO t VALUES ('committed', XML('<r><v>1</v></r>'))")
        .unwrap();
    let t = db.table("t").unwrap();
    let statements = [
        "SELECT * FROM t WHERE XMLEXISTS('/r[v = 2]')",
        "SELECT * FROM t",
        "SELECT XMLQUERY('/r/v') FROM t",
        "XQUERY 'for $i in /r return <x>{ $i/v }</x>' ON t (doc)",
    ];
    for sql in statements {
        let writer = db.begin().unwrap();
        db.insert_row_txn(
            &writer,
            &t,
            &[
                ColValue::Str("uncommitted".into()),
                ColValue::Xml("<r><v>2</v></r>".into()),
            ],
        )
        .unwrap();
        let rolling_back = AtomicBool::new(false);
        let started = Barrier::new(2);
        let (out, waited) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                started.wait();
                let out = session.execute(sql).unwrap();
                (out, rolling_back.load(Ordering::SeqCst))
            });
            // The reader is running the statement while the writer waits
            // 100 ms, then rolls back.
            started.wait();
            std::thread::sleep(Duration::from_millis(100));
            rolling_back.store(true, Ordering::SeqCst);
            writer.rollback().unwrap();
            reader.join().unwrap()
        });
        assert!(waited, "{sql}: returned before the writer rolled back");
        match out {
            Output::Rows(rows) => {
                let tags: Vec<&str> = rows.iter().map(|r| r.values[0].as_str()).collect();
                let expected: &[&str] = if sql.contains("XMLEXISTS") {
                    &[]
                } else {
                    &["committed"]
                };
                assert_eq!(tags, expected, "{sql}");
            }
            Output::Sequence(hits) => {
                let values: Vec<&str> = hits.iter().map(|h| h.value.as_str()).collect();
                assert_eq!(values, ["1"], "{sql}");
            }
            Output::Xml(items) => assert_eq!(items, ["<x>1</x>"], "{sql}"),
            other => panic!("{sql}: unexpected {other:?}"),
        }
    }
}
