//! Concurrency integration tests over the full engine (§5): parallel
//! loaders, reader/writer isolation at document granularity, writers of
//! one document serialized on its X lock, and snapshot readers over MVCC
//! under write pressure.

use rx_bench::run_plan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use system_rx::engine::db::{ColValue, ColumnKind, Database};
use system_rx::engine::mvcc::{pack_for_mvcc, MvccXmlStore};
use system_rx::engine::validx::IndexKeyGen;
use system_rx::engine::{access, conc, update, BaseTable, DocId, Output, Session};
use system_rx::gen::{order_doc, product_doc, CatalogSpec};
use system_rx::storage::{BufferPool, MemBackend, TableSpace, Txn};
use system_rx::xml::value::KeyType;
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

/// The text node of item `i`'s `<Qty>` in an `order_doc`: Order(02) /
/// Item(06 + 2i) — @id is 02 and Customer 04 — / Qty(04) / text(02).
fn qty_text(i: usize) -> NodeId {
    NodeId::from_bytes(&[0x02, 0x06 + 2 * i as u8, 0x04, 0x02]).unwrap()
}

/// A table `o` holding one `order_doc(1, items)`, with a Double value index
/// on `/Order/Item/Qty`. Returns the table and the document.
fn order_with_qty_index(db: &Database, items: usize) -> (Arc<BaseTable>, DocId) {
    let t = db.create_table("o", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index("o", "qty", "doc", "/Order/Item/Qty", KeyType::Double)
        .unwrap();
    let doc = db
        .insert_row(&t, &[ColValue::Xml(order_doc(1, items))])
        .unwrap();
    (t, doc)
}

/// Set item `i`'s quantity through the index-maintaining update path.
fn set_qty(db: &Database, txn: &Txn, t: &Arc<BaseTable>, doc: DocId, i: usize, qty: &str) {
    db.update_document_txn(txn, t, "doc", doc, |txn, xml| {
        update::replace_value(txn, xml, doc, &qty_text(i), qty)
    })
    .unwrap();
}

/// Every `(keyval, node)` entry of the column's one value index.
fn qty_entries(t: &Arc<BaseTable>) -> Vec<(Vec<u8>, NodeId)> {
    let col = t.xml_column("doc").unwrap();
    let mut out: Vec<_> = col.indexes()[0]
        .range(None, None)
        .unwrap()
        .into_iter()
        .map(|e| (e.keyval, e.node))
        .collect();
    out.sort();
    out
}

/// A packed record holds nodes of many items, and rollback puts back a
/// whole record's before-image, so two writers of different items of one
/// document must not overlap: T2's update of item 1 waits for T1, which
/// updated item 0, and T1's rollback then cannot take T2's committed value
/// with it. The main thread waits at most 500 ms to see T2 blocked, so
/// writers that do not serialize fail the assertions instead of hanging.
#[test]
fn rollback_of_one_item_keeps_another_writers_commit() {
    let db = Database::create_in_memory().unwrap();
    let (t, doc) = order_with_qty_index(&db, 4);
    let t1 = db.begin().unwrap();
    set_qty(&db, &t1, &t, doc, 0, "11");
    let waits = db.stats().lock_waits;
    std::thread::scope(|s| {
        let t2 = s.spawn(|| {
            let txn = db.begin().unwrap();
            set_qty(&db, &txn, &t, doc, 1, "22");
            txn.commit().unwrap();
        });
        let deadline = Instant::now() + Duration::from_millis(500);
        while db.stats().lock_waits == waits && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        t1.rollback().unwrap();
        t2.join().unwrap();
    });
    let xml = db.serialize_document(&t, "doc", doc).unwrap();
    assert!(xml.contains("<Qty>22</Qty>"), "T2's commit was lost: {xml}");
    assert!(!xml.contains("<Qty>11</Qty>"), "T1's rollback kept: {xml}");
    let entries = qty_entries(&t);
    let col = t.xml_column("doc").unwrap();
    let k22 = col.indexes()[0].def.keys.keyvals("22").remove(0);
    assert_eq!(entries.len(), 4, "one entry per Qty: {entries:?}");
    assert_eq!(entries.iter().filter(|(k, _)| *k == k22).count(), 1);
}

/// Four writers update 16 items of one document, each item in its own
/// transaction, and roll back every other update. The writers serialize on
/// the document's X lock; afterwards exactly the committed items read 99,
/// and the value index equals a fresh derivation over the final document.
#[test]
fn same_document_writers_with_rollbacks_keep_exactly_the_commits() {
    let db = Database::create_in_memory().unwrap();
    let items = 16usize;
    let (t, doc) = order_with_qty_index(&db, items);
    // Writer w updates items w, w + 4, w + 8, w + 12 and commits every
    // other one, starting with the first.
    let committed = |i: usize| (i / 4).is_multiple_of(2);
    std::thread::scope(|s| {
        for w in 0..4usize {
            let (db, t) = (&db, &t);
            s.spawn(move || {
                for i in (w..items).step_by(4) {
                    let txn = db.begin().unwrap();
                    set_qty(db, &txn, t, doc, i, "99");
                    if committed(i) {
                        txn.commit().unwrap();
                    } else {
                        txn.rollback().unwrap();
                    }
                }
            });
        }
    });
    let xml = db.serialize_document(&t, "doc", doc).unwrap();
    for i in 0..items {
        // order_doc's own quantities are 1..=9, never 99.
        let qty = if committed(i) { 99 } else { (i % 9) + 1 };
        let item = format!("<Sku>sku-{i}</Sku><Qty>{qty}</Qty>");
        assert!(xml.contains(&item), "item {i} should read {qty}: {xml}");
    }
    let col = t.xml_column("doc").unwrap();
    let vi = &col.indexes()[0];
    let derived = IndexKeyGen::new([&vi.tree], db.dict())
        .derive(col.xml_table(), doc)
        .unwrap();
    let mut want: Vec<(Vec<u8>, NodeId)> = derived[0]
        .iter()
        .flat_map(|item| {
            let node = item.node.clone().unwrap();
            vi.def
                .keys
                .keyvals(&item.value)
                .into_iter()
                .map(move |k| (k, node.clone()))
        })
        .collect();
    want.sort();
    assert_eq!(qty_entries(&t), want);
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
