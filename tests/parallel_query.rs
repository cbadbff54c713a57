//! Parallel query execution (the query-side twin of the PR-2 storage
//! concurrency work): serial/parallel equivalence as a property over
//! generated documents and query shapes, §5.1 lock semantics under fan-out,
//! and a many-client stress run sized by `RX_STRESS_THREADS`.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use system_rx::engine::access::{self, AccessStats, QueryHit};
use system_rx::engine::db::{BaseTable, ColValue, ColumnKind, Database, DbConfig};
use system_rx::gen::{product_doc, CatalogSpec};
use system_rx::xml::value::KeyType;
use system_rx::xpath::{Path, XPathParser};

fn db_with_workers(workers: usize) -> Arc<Database> {
    Database::create_in_memory_with(DbConfig {
        query_workers: workers,
        ..DbConfig::default()
    })
    .unwrap()
}

/// Run `path` over the `doc` column through `query_locked` in a transaction
/// of its own.
fn locked_query(
    db: &Database,
    t: &Arc<BaseTable>,
    path: &Path,
    prefer_nodeid: bool,
) -> (Vec<QueryHit>, AccessStats) {
    let txn = db.begin().unwrap();
    let out = db
        .query_locked(&txn, t, t.xml_column("doc").unwrap(), path, prefer_nodeid)
        .unwrap();
    txn.commit().unwrap();
    out
}

/// An arbitrary small XML document over a tiny vocabulary.
fn arb_xml() -> impl Strategy<Value = String> {
    fn node(depth: u32) -> BoxedStrategy<String> {
        let name = prop_oneof![Just("a"), Just("b"), Just("c")];
        if depth == 0 {
            (name, "[a-z0-9]{0,8}")
                .prop_map(|(n, t)| format!("<{n}>{t}</{n}>"))
                .boxed()
        } else {
            (
                name,
                prop::collection::vec(node(depth - 1), 0..3),
                "[a-z]{0,6}",
            )
                .prop_map(|(n, kids, t)| format!("<{n}>{t}{}</{n}>", kids.concat()))
                .boxed()
        }
    }
    node(2).prop_map(|inner| format!("<root>{inner}</root>"))
}

fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("/root".to_string()),
        Just("/root/a".to_string()),
        Just("//a".to_string()),
        Just("//a/b".to_string()),
        Just("//a[b]".to_string()),
        Just("/root//c".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `query_workers = 1` and `query_workers = N` return identical ordered
    /// hits and identical merged stats on arbitrary documents and queries.
    /// Batches fan out only from `2 * MIN_DOCS_PER_LANE` candidates, so the
    /// corpora run up to 95 documents.
    #[test]
    fn parallel_equals_serial_on_arbitrary_docs(
        docs in prop::collection::vec(arb_xml(), 1..96),
        query in arb_query(),
    ) {
        let serial = db_with_workers(1);
        let par = db_with_workers(4);
        for db in [&serial, &par] {
            let t = db.create_table("d", &[("doc", ColumnKind::Xml)]).unwrap();
            for doc in &docs {
                db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap();
            }
        }
        let path = XPathParser::new().parse(&query).unwrap();
        let ts = serial.table("d").unwrap();
        let tp = par.table("d").unwrap();
        for prefer_nodeid in [false, true] {
            let (hs, ss) = locked_query(&serial, &ts, &path, prefer_nodeid);
            let (hp, sp) = locked_query(&par, &tp, &path, prefer_nodeid);
            prop_assert_eq!(&hp, &hs, "query {} nodeid={}", query, prefer_nodeid);
            prop_assert_eq!(sp, ss, "query {} nodeid={}", query, prefer_nodeid);
        }
    }

    /// Same property through value-index plans (DocID and NodeID lists,
    /// verify filtering) rather than full scans.
    #[test]
    fn parallel_equals_serial_through_indexes(
        prices in prop::collection::vec(0u32..400, 2..120),
        threshold in 0u32..400,
    ) {
        let serial = db_with_workers(1);
        let par = db_with_workers(3);
        for db in [&serial, &par] {
            let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
            db.create_value_index("p", "v_idx", "doc", "/r/v", KeyType::Double)
                .unwrap();
            for (i, p) in prices.iter().enumerate() {
                db.insert_row(
                    &t,
                    &[ColValue::Xml(format!("<r><v>{p}</v><tag>t{i}</tag></r>"))],
                )
                .unwrap();
            }
        }
        let path = XPathParser::new()
            .parse(&format!("/r[v > {threshold}]/tag"))
            .unwrap();
        let ts = serial.table("p").unwrap();
        let tp = par.table("p").unwrap();
        for prefer_nodeid in [false, true] {
            let (hs, ss) = locked_query(&serial, &ts, &path, prefer_nodeid);
            let (hp, sp) = locked_query(&par, &tp, &path, prefer_nodeid);
            let explain = access::plan(&path, ts.xml_column("doc").unwrap(), prefer_nodeid).explain();
            prop_assert!(explain.contains("list access"), "expected index plan: {}", explain);
            prop_assert_eq!(&hp, &hs, "threshold {} nodeid={}", threshold, prefer_nodeid);
            prop_assert_eq!(sp, ss, "threshold {} nodeid={}", threshold, prefer_nodeid);
            let expected = prices.iter().filter(|&&p| p > threshold).count();
            prop_assert_eq!(hs.len(), expected);
        }
    }
}

/// A worker-side lock timeout aborts the whole parallel query, exactly as the
/// serial path does: the reader never returns a partial hit list.
#[test]
fn lock_timeout_aborts_parallel_query() {
    let db = Database::create_in_memory_with(DbConfig {
        query_workers: 4,
        lock_timeout: Duration::from_millis(150),
        ..DbConfig::default()
    })
    .unwrap();
    let t = db.create_table("o", &[("doc", ColumnKind::Xml)]).unwrap();
    for i in 0..6 {
        db.insert_row(&t, &[ColValue::Xml(format!("<r><v>{i}</v></r>"))])
            .unwrap();
    }
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new().parse("/r/v").unwrap();

    let writer_holding = Arc::new(AtomicBool::new(false));
    let release_writer = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let db = &db;
            let t = &t;
            let writer_holding = Arc::clone(&writer_holding);
            let release_writer = Arc::clone(&release_writer);
            s.spawn(move || {
                let txn = db.begin().unwrap();
                db.insert_row_txn(&txn, t, &[ColValue::Xml("<r><v>99</v></r>".into())])
                    .unwrap();
                writer_holding.store(true, Ordering::SeqCst);
                while !release_writer.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                txn.rollback().unwrap();
            });
        }
        while !writer_holding.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        // The uncommitted document is a candidate; its S lock times out and
        // the whole query errors before any fan-out result is returned.
        let txn = db.begin().unwrap();
        assert!(db.query_locked(&txn, &t, col, &path, false).is_err());
        txn.rollback().unwrap();
        release_writer.store(true, Ordering::SeqCst);
    });
}

/// A candidate that vanishes between gather and lock grant (here: the
/// inserting transaction rolls back while the locked reader waits) is
/// skipped with `NotFound` under parallel evaluation, exactly as serially.
#[test]
fn rolled_back_candidate_is_skipped_under_parallel_evaluation() {
    let db = Database::create_in_memory_with(DbConfig {
        query_workers: 4,
        lock_timeout: Duration::from_secs(5),
        ..DbConfig::default()
    })
    .unwrap();
    let t = db.create_table("o", &[("doc", ColumnKind::Xml)]).unwrap();
    for i in 0..6 {
        db.insert_row(&t, &[ColValue::Xml(format!("<r><v>{i}</v></r>"))])
            .unwrap();
    }
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new().parse("/r/v").unwrap();

    let writer_holding = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let db = &db;
            let t = &t;
            let writer_holding = Arc::clone(&writer_holding);
            s.spawn(move || {
                let txn = db.begin().unwrap();
                db.insert_row_txn(&txn, t, &[ColValue::Xml("<r><v>99</v></r>".into())])
                    .unwrap();
                writer_holding.store(true, Ordering::SeqCst);
                // Let the reader gather the candidate and block on its lock,
                // then undo the insert.
                std::thread::sleep(Duration::from_millis(200));
                txn.rollback().unwrap();
            });
        }
        while !writer_holding.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let txn = db.begin().unwrap();
        let (hits, _) = db.query_locked(&txn, &t, col, &path, false).unwrap();
        txn.commit().unwrap();
        // Only the six committed documents; the rolled-back one was gathered
        // (or not — timing) but never surfaced.
        assert_eq!(hits.len(), 6);
        assert!(hits.iter().all(|h| h.value != "99"));
    });
}

/// Many clients hammer the same database concurrently through the shared
/// worker pool and plan cache. Sized by `RX_STRESS_THREADS` (CI runs 16).
#[test]
fn concurrent_clients_share_pool_and_plan_cache() {
    let threads: usize = std::env::var("RX_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let db = db_with_workers(4);
    let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index(
        "p",
        "price",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        KeyType::Double,
    )
    .unwrap();
    let spec = CatalogSpec {
        products: 96,
        ..Default::default()
    };
    for i in 0..spec.products {
        db.insert_row(&t, &[ColValue::Xml(product_doc(&spec, i))])
            .unwrap();
    }
    let scan = XPathParser::new()
        .parse("/Catalog/Categories/Product/ProductName")
        .unwrap();
    let indexed = XPathParser::new()
        .parse("/Catalog/Categories/Product[RegPrice > 250]")
        .unwrap();
    let expected_indexed = spec.expected_above(250.0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let db = &db;
            let t = &t;
            let scan = &scan;
            let indexed = &indexed;
            s.spawn(move || {
                for round in 0..10 {
                    let (hits, _) = locked_query(db, t, scan, false);
                    assert_eq!(hits.len(), spec.products);
                    let (hits, _) = locked_query(db, t, indexed, round % 2 == 0);
                    assert_eq!(hits.len(), expected_indexed);
                }
            });
        }
    });
    let stats = db.stats();
    assert!(stats.parallel_queries > 0, "fan-out never happened");
    // Each (path, prefer_nodeid) pair compiles at most once; everything else
    // is served from the cache.
    assert!(stats.plan_cache_misses <= 3, "stats: {stats:?}");
    assert!(stats.plan_cache_hits >= (threads as u64) * 20 - 3);
}
