//! Stored-document scans whose lanes locate every root record with one
//! range scan of the NodeID index (DESIGN.md §12.4):
//!
//! * range-located evaluation returns exactly the hits, node IDs and access
//!   counters of per-document probing, over multi-record documents, DocID
//!   gaps left by deletes, one and two lanes, and candidate lists that name
//!   deleted documents; a root hint naming another document's record falls
//!   back to the probe;
//! * full scans under `query_locked` beside insert/delete transactions never
//!   fail, never return an uncommitted document and skip deleted candidates
//!   (sized by `RX_STRESS_THREADS`).

use proptest::prelude::*;
use std::sync::Arc;
use system_rx::engine::access::{
    all_docids, evaluate_docs, roots_by_range_scan, AccessStats, DocScanner, QueryHit,
};
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::xmltable::LocatedRoots;
use system_rx::engine::{DocId, QueryExecutor};
use system_rx::xpath::{QueryTree, XPathParser};

/// A product-list document whose item texts and fillers vary in length, so
/// small packing targets spill items into proxied records.
fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(("[a-z]{0,12}", 0usize..220, 0u32..9), 1..6).prop_map(|items| {
        let body: String = items
            .iter()
            .map(|(name, pad, id)| {
                format!(
                    "<p id=\"{id}\"><n>{name}</n><v>{}</v></p>",
                    "f".repeat(*pad)
                )
            })
            .collect();
        format!("<r>{body}</r>")
    })
}

fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("/r".to_string()),
        Just("/r/p/n".to_string()),
        Just("//v".to_string()),
        Just("/r/p[@id > 4]/n".to_string()),
        Just("/r/p[n = \"a\"]/v".to_string()),
        Just("//p[v]/@id".to_string()),
    ]
}

/// The counters range location must leave unchanged.
fn counters(s: &AccessStats) -> (u64, u64, u64) {
    (s.docs_evaluated, s.records_fetched, s.subtrees_skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_located_roots_equal_probed_roots(
        docs in prop::collection::vec(arb_doc(), 2..24),
        keep in prop::collection::vec(0u8..4, 24),
        query in arb_query(),
        target in 128usize..600,
    ) {
        let db = Database::create_in_memory_with(DbConfig {
            target_record_size: target,
            buffer_pages: 512,
            ..Default::default()
        }).unwrap();
        let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
        let mut inserted = Vec::new();
        for doc in &docs {
            inserted.push(db.insert_row(&t, &[ColValue::Xml(doc.clone())]).unwrap());
        }
        // Delete about a quarter, leaving DocID gaps.
        for (&d, k) in inserted.iter().zip(&keep) {
            if *k == 0 {
                assert!(db.delete_row(&t, d).unwrap());
            }
        }
        let survivors = all_docids(&t).unwrap();
        let col = t.xml_column("doc").unwrap();
        let dict = db.dict();
        let tree = Arc::new(QueryTree::compile(&XPathParser::new().parse(&query).unwrap()).unwrap());

        // The reference: one §3.4 root probe per document.
        let mut want_stats = AccessStats::default();
        let mut want: Vec<QueryHit> = Vec::new();
        let mut probed = DocScanner::new(col, &tree, dict, false);
        for &d in &survivors {
            probed.evaluate(d, &mut want_stats, &mut want).unwrap();
        }

        // One lane, roots located by the range scan.
        prop_assert_eq!(roots_by_range_scan(&survivors), survivors.len() >= 2);
        let mut lane = DocScanner::new(col, &tree, dict, false);
        let (mut stats, mut hits) = (AccessStats::default(), Vec::new());
        lane.evaluate_run(&survivors, &mut stats, &mut hits).unwrap();
        prop_assert_eq!(&hits, &want, "query {}", query);
        prop_assert_eq!(counters(&stats), counters(&want_stats));

        // Every root hint names the next document's root record: the
        // row-DocID check rejects each one and the probe answers instead.
        if survivors.len() >= 2 {
            let mut roots = LocatedRoots::default();
            col.xml_table().locate_roots(&survivors, &mut roots).unwrap();
            prop_assert_eq!(roots.len(), survivors.len());
            let (mut stats, mut hits) = (AccessStats::default(), Vec::new());
            for (i, &d) in survivors.iter().enumerate() {
                let wrong = roots.get((i + 1) % survivors.len());
                lane.evaluate_at(d, wrong, &mut stats, &mut hits).unwrap();
            }
            prop_assert_eq!(&hits, &want);
            prop_assert_eq!(counters(&stats), counters(&want_stats));
        }

        // Through the executor: one and two lanes, over the survivors and
        // over every DocID ever inserted (the deleted candidates are
        // skipped).
        let exec = QueryExecutor::new(2);
        for lanes in [1, 2] {
            for docs in [&survivors, &inserted] {
                let txn = db.begin().unwrap();
                let mut stats = AccessStats::default();
                let hits = evaluate_docs(
                    Some(&exec), lanes, &txn, &t, col, dict, &tree, docs.clone(), &mut stats,
                ).unwrap();
                txn.commit().unwrap();
                prop_assert_eq!(&hits, &want, "{} lanes, {} candidates", lanes, docs.len());
                prop_assert_eq!(counters(&stats), counters(&want_stats));
            }
        }
    }
}

/// Full scans through `query_locked` run beside writers. Each writer
/// transaction deletes the writer's oldest document and inserts a new one;
/// two in three insert a `live` document and commit, every third inserts a
/// `doomed` one and rolls back, reinstating the deleted document. Writers
/// lock in ascending DocID order (the deleted document is older than the
/// inserted one), as scans do, so no transaction is ever a deadlock victim.
/// The lock manager grants S beside S while an X request waits, so a writer
/// may time out behind a stream of scans; it then rolls back and goes on.
/// Scans never error, never return a `doomed` document, return each
/// document at most once, and after the run a scan returns exactly the
/// surviving documents, each with the text it was inserted with — a rolled
/// back delete never overwrites a record another writer put in its slot.
#[test]
fn full_scans_beside_inserts_and_deletes() {
    let threads: usize = std::env::var("RX_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let writers = (threads / 2).max(1);
    let readers = (threads - threads / 2).max(1);
    const PER_WRITER: usize = 24;
    const TXNS: usize = 30;
    const SCANS: usize = 20;
    let db = Database::create_in_memory_with(DbConfig {
        // Multi-record documents: the located root is one record of several.
        target_record_size: 200,
        ..Default::default()
    })
    .unwrap();
    let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
    let doc = |state: &str, n: usize| {
        format!(
            "<r><state>{state}</state><n>{n}</n><pad>{}</pad></r>",
            "x".repeat(150 + n % 200)
        )
    };
    let mut owned: Vec<Vec<(DocId, String)>> = Vec::new();
    for w in 0..writers {
        owned.push(
            (0..PER_WRITER)
                .map(|i| {
                    let text = doc("live", w * 1000 + i);
                    let d = db.insert_row(&t, &[ColValue::Xml(text.clone())]).unwrap();
                    (d, text)
                })
                .collect(),
        );
    }
    let total = writers * PER_WRITER;
    let path = XPathParser::new().parse("/r/state").unwrap();
    let col = t.xml_column("doc").unwrap();

    let survivors: Vec<Vec<(DocId, String)>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (w, mut mine) in owned.into_iter().enumerate() {
            let (db, t) = (&db, &t);
            handles.push(s.spawn(move || {
                for i in 0..TXNS {
                    let commit = i % 3 != 2;
                    let state = if commit { "live" } else { "doomed" };
                    let text = doc(state, w * 1000 + 100 + i);
                    let txn = db.begin().unwrap();
                    let written = db.delete_row_txn(&txn, t, mine[0].0).and_then(|found| {
                        assert!(found, "a writer's own document is live");
                        db.insert_row_txn(&txn, t, &[ColValue::Xml(text.clone())])
                    });
                    match written {
                        Ok(fresh) if commit => {
                            txn.commit().unwrap();
                            mine.remove(0);
                            mine.push((fresh, text));
                        }
                        Ok(_) => {
                            std::thread::yield_now();
                            txn.rollback().unwrap();
                        }
                        Err(e) => {
                            assert!(e.to_string().contains("timeout"), "writer failed: {e}");
                            txn.rollback().unwrap();
                        }
                    }
                }
                mine
            }));
        }
        for _ in 0..readers {
            let (db, t, path) = (&db, &t, &path);
            s.spawn(move || {
                for _ in 0..SCANS {
                    let txn = db.begin().unwrap();
                    let (hits, stats) = db
                        .query_locked(&txn, t, col, path, false)
                        .expect("a locked scan never fails");
                    txn.commit().unwrap();
                    assert!(hits.len() <= total, "{} hits of {total}", hits.len());
                    assert_eq!(stats.docs_evaluated as usize, hits.len());
                    assert!(
                        hits.windows(2).all(|h| h[0].doc < h[1].doc),
                        "one hit per document, in DocID order"
                    );
                    for h in &hits {
                        assert_eq!(h.value, "live", "doc {} is uncommitted", h.doc);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut expected: Vec<(DocId, String)> = survivors.into_iter().flatten().collect();
    expected.sort_unstable();
    let txn = db.begin().unwrap();
    let (hits, _) = db.query_locked(&txn, &t, col, &path, false).unwrap();
    txn.commit().unwrap();
    assert_eq!(
        hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
        expected.iter().map(|(d, _)| *d).collect::<Vec<_>>()
    );
    for (d, text) in &expected {
        assert_eq!(&db.serialize_document(&t, "doc", *d).unwrap(), text);
    }
    assert_eq!(db.stats().lock_deadlocks, 0);
}
