//! The hot-document record cache, end to end: byte-identical results with
//! the cache on vs off across interleaved updates, deletes, and rollbacks;
//! rollback leaving no stale entry; only locked, read-only queries
//! publishing; and a reader/writer stress run sized by `RX_STRESS_THREADS`.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::{access, traverse, update, AccessStats, BaseTable, DocId, QueryHit};
use system_rx::storage::Txn;
use system_rx::xml::value::KeyType;
use system_rx::xml::{NodeId, RelId};
use system_rx::xpath::{Path, QueryTree, XPathParser};

fn db_cached(doc_cache_bytes: usize) -> Arc<Database> {
    Database::create_in_memory_with(DbConfig {
        doc_cache_bytes,
        ..DbConfig::default()
    })
    .unwrap()
}

/// Run `path` over the `doc` column through `query_locked` in a transaction
/// of its own.
fn query(db: &Database, t: &Arc<BaseTable>, path: &Path, prefer_nodeid: bool) -> Vec<QueryHit> {
    let txn = db.begin().unwrap();
    let (hits, _) = db
        .query_locked(&txn, t, t.xml_column("doc").unwrap(), path, prefer_nodeid)
        .unwrap();
    txn.commit().unwrap();
    hits
}

/// The NodeId of `N` in the fixed `<r><v>N</v><tag>tI</tag></r>` shape.
fn v_text() -> NodeId {
    let first = RelId::first();
    NodeId::root().child(&first).child(&first).child(&first)
}

fn load_docs(db: &Arc<Database>, n: usize) -> Arc<BaseTable> {
    let t = db.create_table("d", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_value_index("d", "v_idx", "doc", "/r/v", KeyType::Double)
        .unwrap();
    for i in 0..n {
        db.insert_row(
            &t,
            &[ColValue::Xml(format!(
                "<r><v>{}</v><tag>t{i}</tag></r>",
                (i * 37) % 400
            ))],
        )
        .unwrap();
    }
    t
}

fn replace_v(db: &Arc<Database>, t: &Arc<BaseTable>, doc: DocId, value: &str, commit: bool) {
    let txn = db.begin().unwrap();
    db.update_document_txn(&txn, t, "doc", doc, |txn, xml| {
        update::replace_value(txn, xml, doc, &v_text(), value)
    })
    .unwrap();
    if commit {
        txn.commit().unwrap();
    } else {
        txn.rollback().unwrap();
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Run both query shapes and compare hit lists across the databases.
    Query,
    /// Committed `/r/v` text replacement on the selected document.
    Replace(usize, u32),
    /// The same replacement, rolled back — semantically a no-op.
    RollbackReplace(usize, u32),
    /// Delete the selected document's row.
    DeleteRow(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Query),
        3 => (any::<usize>(), 0u32..400).prop_map(|(d, v)| Op::Replace(d, v)),
        2 => (any::<usize>(), 0u32..400).prop_map(|(d, v)| Op::RollbackReplace(d, v)),
        1 => any::<usize>().prop_map(Op::DeleteRow),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A database with the cache on returns byte-identical query results and
    /// serialized documents to one with the cache off, across arbitrary
    /// interleavings of reads, committed updates, rollbacks, and deletes —
    /// and never exceeds its byte budget.
    #[test]
    fn cache_on_equals_cache_off(ops in prop::collection::vec(arb_op(), 1..20)) {
        const NDOCS: usize = 8;
        const BUDGET: usize = 1 << 20;
        let db_off = db_cached(0);
        let db_on = db_cached(BUDGET);
        let t_off = load_docs(&db_off, NDOCS);
        let t_on = load_docs(&db_on, NDOCS);
        let mut alive = [true; NDOCS];

        let scan = XPathParser::new().parse("/r/v").unwrap();
        let indexed = XPathParser::new().parse("/r[v > 200]/tag").unwrap();
        let compare_queries = |label: &str| {
            for (name, path) in [("scan", &scan), ("indexed", &indexed)] {
                for prefer_nodeid in [false, true] {
                    let h_off = query(&db_off, &t_off, path, prefer_nodeid);
                    let h_on = query(&db_on, &t_on, path, prefer_nodeid);
                    assert_eq!(h_on, h_off, "{label}: {name} nodeid={prefer_nodeid}");
                }
            }
        };

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Query => compare_queries(&format!("op {i}")),
                Op::Replace(d, v) => {
                    let doc = (d % NDOCS) as DocId + 1;
                    if alive[(doc - 1) as usize] {
                        replace_v(&db_off, &t_off, doc, &v.to_string(), true);
                        replace_v(&db_on, &t_on, doc, &v.to_string(), true);
                    }
                }
                Op::RollbackReplace(d, v) => {
                    let doc = (d % NDOCS) as DocId + 1;
                    if alive[(doc - 1) as usize] {
                        replace_v(&db_off, &t_off, doc, &v.to_string(), false);
                        replace_v(&db_on, &t_on, doc, &v.to_string(), false);
                    }
                }
                Op::DeleteRow(d) => {
                    let doc = (d % NDOCS) as DocId + 1;
                    let a = db_off.delete_row(&t_off, doc).unwrap();
                    let b = db_on.delete_row(&t_on, doc).unwrap();
                    assert_eq!(a, b);
                    alive[(doc - 1) as usize] = false;
                }
            }
            prop_assert!(
                db_on.stats().doc_cache_bytes <= BUDGET as u64,
                "budget exceeded after op {i}"
            );
        }
        compare_queries("final");
        for doc in 1..=NDOCS as DocId {
            if alive[(doc - 1) as usize] {
                let a = db_off.serialize_document(&t_off, "doc", doc).unwrap();
                let b = db_on.serialize_document(&t_on, "doc", doc).unwrap();
                prop_assert_eq!(a, b, "serialized doc {} differs", doc);
            }
        }
    }
}

/// A rolled-back update leaves no stale cache entry: the writer's first
/// write evicts the pre-image, its own read of the dirty document publishes
/// nothing (it has logged), its lock keeps every other reader from
/// publishing, and the first read after rollback re-populates from committed
/// bytes.
#[test]
fn rollback_leaves_no_stale_entry() {
    let db = db_cached(1 << 20);
    let t = db.create_table("d", &[("doc", ColumnKind::Xml)]).unwrap();
    db.insert_row(&t, &[ColValue::Xml("<r><v>alpha</v></r>".into())])
        .unwrap();
    let path = XPathParser::new().parse("/r/v").unwrap();
    let query_in = |txn: &Txn, label: &str| -> String {
        let (hits, _) = db
            .query_locked(txn, &t, t.xml_column("doc").unwrap(), &path, false)
            .unwrap();
        assert_eq!(hits.len(), 1, "{label}");
        hits[0].value.clone()
    };
    let query = |label: &str| -> String {
        let txn = db.begin().unwrap();
        let value = query_in(&txn, label);
        txn.commit().unwrap();
        value
    };

    // Populate through the read path, then take a warm hit.
    assert_eq!(query("populate"), "alpha");
    assert_eq!(query("warm"), "alpha");
    assert!(db.stats().doc_cache_hits >= 1);

    // An uncommitted update: the writer reads its own dirty value through
    // the same read path, which must keep it OUT of the cache.
    let txn = db.begin().unwrap();
    db.update_document_txn(&txn, &t, "doc", 1, |txn, xml| {
        update::replace_value(txn, xml, 1, &v_text(), "zzz")
    })
    .unwrap();
    assert_eq!(query_in(&txn, "mid-txn read of its own write"), "zzz");
    txn.rollback().unwrap();

    // After rollback every read sees the committed value again — had the
    // dirty snapshot been published, this warm hit would still say "zzz".
    assert_eq!(query("after rollback"), "alpha");
    assert_eq!(query("warm after rollback"), "alpha");
    assert_eq!(
        db.serialize_document(&t, "doc", 1).unwrap(),
        "<r><v>alpha</v></r>"
    );
}

/// Traversals outside a locked, read-only transaction read the cache but
/// never publish: a lane scanner whose caller holds no locks,
/// serialization, and string values leave it empty, and only
/// `query_locked` in a read-only transaction fills it — one entry per
/// document, which those traversals then hit.
#[test]
fn unlocked_traversals_publish_nothing() {
    const NDOCS: usize = 6;
    let db = db_cached(1 << 20);
    let t = load_docs(&db, NDOCS);
    let col = t.xml_column("doc").unwrap();
    let cache = db.doc_cache();
    let scan = XPathParser::new().parse("/r/tag").unwrap();
    let indexed = XPathParser::new().parse("/r[v > 100]/tag").unwrap();
    let docs: Vec<DocId> = (1..=NDOCS as DocId).collect();
    let unlocked_reads = || {
        for path in [&scan, &indexed] {
            let tree = QueryTree::compile(path).unwrap();
            let mut lane = access::DocScanner::new(col, &tree, db.dict(), false);
            let mut hits = Vec::new();
            lane.evaluate_run(&docs, &mut AccessStats::default(), &mut hits)
                .unwrap();
        }
        for doc in 1..=NDOCS as DocId {
            db.serialize_document(&t, "doc", doc).unwrap();
            traverse::string_value(col.xml_table(), doc, &v_text()).unwrap();
        }
    };
    unlocked_reads();
    assert_eq!(cache.len(), 0, "an unlocked traversal published a snapshot");
    assert_eq!(cache.hits(), 0);

    // A writer's read of its own dirty document publishes nothing either.
    let txn = db.begin().unwrap();
    db.update_document_txn(&txn, &t, "doc", 1, |txn, xml| {
        update::replace_value(txn, xml, 1, &v_text(), "7")
    })
    .unwrap();
    let (hits, _) = db.query_locked(&txn, &t, col, &scan, false).unwrap();
    assert_eq!(hits.len(), NDOCS);
    assert_eq!(cache.len(), 0, "a writer's query published a snapshot");
    txn.rollback().unwrap();

    // A locked, read-only query publishes every document it evaluates.
    assert_eq!(query(&db, &t, &scan, false).len(), NDOCS);
    assert_eq!(cache.len(), NDOCS);
    let hits_before = cache.hits();
    unlocked_reads();
    assert_eq!(cache.len(), NDOCS);
    assert!(cache.hits() > hits_before, "unlocked reads hit the cache");
}

/// Readers hammer warm traversals while writers update and roll back the
/// same documents, and other writers insert and delete rows, committing or
/// rolling back, so every eviction path runs beside locked readers.
/// Afterwards every document reads back exactly its last committed value,
/// the surviving inserted rows are exactly the committed ones, and the cache
/// is still within budget. Sized by `RX_STRESS_THREADS` (CI runs 16).
#[test]
fn readers_and_writers_stress() {
    let threads: usize = std::env::var("RX_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    const NDOCS: usize = 32;
    const ROUNDS: usize = 20;
    const BUDGET: usize = 256 << 10;
    let db = db_cached(BUDGET);
    let t = db.create_table("d", &[("doc", ColumnKind::Xml)]).unwrap();
    let mut committed: Vec<String> = Vec::new();
    for i in 0..NDOCS {
        let v = format!("{i}");
        db.insert_row(&t, &[ColValue::Xml(format!("<r><v>{v}</v></r>"))])
            .unwrap();
        committed.push(v);
    }
    // One mutex per document serializes writers on that document so "last
    // committed value" is well-defined; readers take the §5.1 read locks.
    let doc_locks: Vec<Mutex<()>> = (0..NDOCS).map(|_| Mutex::new(())).collect();
    let last_committed: Mutex<HashMap<DocId, String>> = Mutex::new(HashMap::new());
    let path = XPathParser::new().parse("/r/v").unwrap();

    // Rows inserted by the row writers that are committed and not deleted.
    let extra_rows: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let extra = XPathParser::new().parse("/x/v").unwrap();

    std::thread::scope(|s| {
        for w in 0..threads {
            let db = &db;
            let t = &t;
            let extra_rows = &extra_rows;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let value = format!("{}", w * 10_000 + round);
                    let txn = db.begin().unwrap();
                    let doc = db
                        .insert_row_txn(&txn, t, &[ColValue::Xml(format!("<x><v>{value}</v></x>"))])
                        .unwrap();
                    if (w + round) % 4 == 0 {
                        txn.rollback().unwrap();
                        continue;
                    }
                    txn.commit().unwrap();
                    let txn = db.begin().unwrap();
                    assert!(db.delete_row_txn(&txn, t, doc).unwrap());
                    if round % 3 == 0 {
                        txn.rollback().unwrap();
                        extra_rows.lock().unwrap().push(value);
                    } else {
                        txn.commit().unwrap();
                    }
                }
            });
        }
        for w in 0..threads {
            let db = &db;
            let t = &t;
            let doc_locks = &doc_locks;
            let last_committed = &last_committed;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let slot = (w * 7 + round * 3) % NDOCS;
                    let doc = slot as DocId + 1;
                    let value = format!("{}", w * 10_000 + round);
                    let commit = (w + round) % 3 != 0;
                    let _g = doc_locks[slot].lock().unwrap();
                    replace_v(db, t, doc, &value, commit);
                    if commit {
                        last_committed.lock().unwrap().insert(doc, value);
                    }
                }
            });
        }
        for _ in 0..threads {
            let db = &db;
            let t = &t;
            let path = &path;
            s.spawn(move || {
                for _ in 0..ROUNDS * 2 {
                    let hits = query(db, t, path, false);
                    assert_eq!(hits.len(), NDOCS);
                    for h in &hits {
                        assert!(
                            h.value.parse::<u64>().is_ok(),
                            "torn value {:?} for doc {}",
                            h.value,
                            h.doc
                        );
                    }
                }
            });
        }
    });

    let last = last_committed.into_inner().unwrap();
    for doc in 1..=NDOCS as DocId {
        let expected = last
            .get(&doc)
            .cloned()
            .unwrap_or_else(|| format!("{}", doc - 1));
        // Warm read and fresh serialization must both report the last commit.
        let got = system_rx::engine::traverse::string_value(
            t.xml_column("doc").unwrap().xml_table(),
            doc,
            &v_text(),
        )
        .unwrap();
        assert_eq!(got, expected, "doc {doc} lost its last committed value");
    }
    // The surviving inserted rows, read warm and then cold.
    let mut want = extra_rows.into_inner().unwrap();
    want.sort();
    for pass in ["warm", "cold"] {
        let mut got: Vec<String> = query(&db, &t, &extra, false)
            .into_iter()
            .map(|h| h.value)
            .collect();
        got.sort();
        assert_eq!(got, want, "{pass} read of the inserted rows");
        db.doc_cache()
            .invalidate_space(t.xml_column("doc").unwrap().xml_table().space_id());
    }
    let stats = db.stats();
    assert!(stats.doc_cache_bytes <= BUDGET as u64, "stats: {stats:?}");
}
