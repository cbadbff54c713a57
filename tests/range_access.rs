//! Two-bound value predicates on one index (`[RegPrice > a and RegPrice < b]`)
//! are answered by one scan of the intersected key range while the index is
//! single-valued (DESIGN.md §9.5). This file checks that the shortcut never
//! changes an answer: a property test against the full scan, exact
//! index-entry counts, the multi-valued fallback (insert, rollback, reopen)
//! and a reader/writer stress run sized by `RX_STRESS_THREADS`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use system_rx::engine::access::{self, AccessPlan, AccessStats, QueryHit};
use system_rx::engine::db::{BaseTable, ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::validx::ValueIndex;
use system_rx::engine::xmltable::DocId;
use system_rx::xml::value::KeyType;
use system_rx::xpath::{Path, XPathParser};

const WINDOW: &str = "/Catalog/Categories/Product[RegPrice > 100 and RegPrice < 200]";

fn product(prices: &[u32]) -> String {
    product_named("p", prices)
}

fn product_named(name: &str, prices: &[u32]) -> String {
    let body: String = prices
        .iter()
        .map(|p| format!("<RegPrice>{p}</RegPrice>"))
        .collect();
    format!("<Catalog><Categories><Product><ProductName>{name}</ProductName>{body}</Product></Categories></Catalog>")
}

fn create_schema(db: &Database) -> Arc<BaseTable> {
    let t = db
        .create_table("products", &[("doc", ColumnKind::Xml)])
        .unwrap();
    db.create_value_index(
        "products",
        "price_idx",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        KeyType::Double,
    )
    .unwrap();
    t
}

fn insert(db: &Database, t: &Arc<BaseTable>, prices: &[u32]) -> DocId {
    db.insert_row(t, &[ColValue::Xml(product(prices))]).unwrap()
}

/// A database with 20 single-valued products priced 10, 30, …, 390.
fn single_valued() -> (Arc<Database>, Arc<BaseTable>) {
    let db = Database::create_in_memory().unwrap();
    let t = create_schema(&db);
    for i in 0..20 {
        insert(&db, &t, &[10 + 20 * i]);
    }
    (db, t)
}

fn price_index(t: &BaseTable) -> Arc<ValueIndex> {
    t.xml_column("doc").unwrap().indexes()[0].clone()
}

fn q(s: &str) -> Path {
    XPathParser::new().parse(s).unwrap()
}

fn sorted_docs(hits: &[QueryHit]) -> Vec<DocId> {
    hits.iter()
        .map(|h| h.doc)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// `query` and `query_locked` for one granularity: (hits, stats) of each.
fn both_paths(
    db: &Database,
    t: &Arc<BaseTable>,
    path: &Path,
    prefer_nodeid: bool,
) -> [(Vec<QueryHit>, AccessStats); 2] {
    let col = t.xml_column("doc").unwrap();
    let (hits, stats, _) = db.query(t, col, path, prefer_nodeid).unwrap();
    let txn = db.begin().unwrap();
    let locked = db.query_locked(&txn, t, col, path, prefer_nodeid).unwrap();
    txn.commit().unwrap();
    [(hits, stats), locked]
}

fn full_scan(db: &Database, t: &Arc<BaseTable>, path: &Path) -> Vec<QueryHit> {
    let col = t.xml_column("doc").unwrap();
    access::execute(&AccessPlan::FullScan, t, col, db.dict(), path)
        .unwrap()
        .0
}

/// One bound of a window: a comparison of `RegPrice` with a literal,
/// written either way round.
fn arb_bound(ops: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..ops.len(), 0u32..12, any::<bool>()).prop_map(move |(op, v, flip)| {
        let v = v * 25;
        let op = ops[op];
        if flip {
            let flipped = match op {
                ">" => "<",
                ">=" => "<=",
                "<" => ">",
                "<=" => ">=",
                other => other,
            };
            format!("{v} {flipped} RegPrice")
        } else {
            format!("RegPrice {op} {v}")
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every two-bound window — inclusive/exclusive mixes, equal and
    /// inverted bounds, `and` and `[p][q]` forms — returns through the index
    /// exactly what the full scan returns, at both granularities and through
    /// both `query` and `query_locked`, whether or not the index is
    /// single-valued.
    #[test]
    fn two_bound_windows_equal_full_scan(
        docs in prop::collection::vec(prop::collection::vec(0u32..12, 0..4), 1..12),
        single in any::<bool>(),
        lo in arb_bound(&[">", ">=", "="]),
        hi in arb_bound(&["<", "<=", "="]),
        brackets in any::<bool>(),
    ) {
        let db = Database::create_in_memory().unwrap();
        let t = create_schema(&db);
        for prices in &docs {
            let mut prices: Vec<u32> = prices.iter().map(|p| p * 25).collect();
            if single {
                prices.truncate(1);
            }
            insert(&db, &t, &prices);
        }
        let multi = price_index(&t).is_multi_valued();
        if single {
            prop_assert!(!multi);
        }
        let pred = if brackets {
            format!("[{lo}][{hi}]")
        } else {
            format!("[{lo} and {hi}]")
        };
        let path = q(&format!("/Catalog/Categories/Product{pred}"));
        let expected = sorted_docs(&full_scan(&db, &t, &path));
        for prefer_nodeid in [false, true] {
            for (hits, stats) in both_paths(&db, &t, &path, prefer_nodeid) {
                prop_assert_eq!(sorted_docs(&hits), expected.clone(), "{} nodeid={}", pred, prefer_nodeid);
                if !multi {
                    // One scan of the intersection: one entry per candidate.
                    prop_assert_eq!(stats.index_entries, stats.candidates, "{}", pred);
                }
            }
        }
    }
}

/// On a single-valued index a two-bound query reads exactly one index entry
/// per hit, in either predicate form.
#[test]
fn two_bound_scan_reads_exactly_the_hits() {
    let (db, t) = single_valued();
    assert!(!price_index(&t).is_multi_valued());
    for qs in [
        WINDOW,
        "/Catalog/Categories/Product[RegPrice > 100][RegPrice < 200]",
        "/Catalog/Categories/Product[200 > RegPrice and 100 < RegPrice]",
    ] {
        for prefer_nodeid in [false, true] {
            for (hits, stats) in both_paths(&db, &t, &q(qs), prefer_nodeid) {
                // Prices 110, 130, 150, 170, 190.
                assert_eq!(hits.len(), 5, "{qs}");
                assert_eq!(stats.index_entries, 5, "{qs} nodeid={prefer_nodeid}");
            }
        }
    }
}

/// An empty intersection answers without scanning the index at all.
#[test]
fn inverted_window_scans_nothing() {
    let (db, t) = single_valued();
    for qs in [
        "/Catalog/Categories/Product[RegPrice > 200 and RegPrice < 100]",
        "/Catalog/Categories/Product[RegPrice > 150 and RegPrice <= 150]",
    ] {
        for prefer_nodeid in [false, true] {
            for (hits, stats) in both_paths(&db, &t, &q(qs), prefer_nodeid) {
                assert!(hits.is_empty(), "{qs}");
                assert_eq!(stats.index_entries, 0, "{qs}");
            }
        }
    }
}

/// One document with two prices makes the index multi-valued: the query
/// falls back to two half-open scans and finds the document by existential
/// comparison (5 > 100 is false but 500 > 100 is true; 5 < 200 is true).
/// Rolling back such an insert leaves the flag set.
#[test]
fn multi_valued_document_falls_back_to_two_scans() {
    let (db, t) = single_valued();
    let idx = price_index(&t);
    let path = q(WINDOW);

    let txn = db.begin().unwrap();
    db.insert_row_txn(&txn, &t, &[ColValue::Xml(product(&[5, 500]))])
        .unwrap();
    assert!(
        idx.is_multi_valued(),
        "raised before the entries are visible"
    );
    txn.rollback().unwrap();
    assert!(idx.is_multi_valued(), "a rollback never clears the flag");
    for prefer_nodeid in [false, true] {
        for (hits, stats) in both_paths(&db, &t, &path, prefer_nodeid) {
            assert_eq!(hits.len(), 5);
            // (100, +inf) holds 15 entries, (-inf, 200) holds 10.
            assert_eq!(stats.index_entries, 25);
        }
    }

    let doc = insert(&db, &t, &[5, 500]);
    let expected = sorted_docs(&full_scan(&db, &t, &path));
    assert_eq!(expected.len(), 6);
    assert!(expected.contains(&doc));
    for prefer_nodeid in [false, true] {
        for (hits, stats) in both_paths(&db, &t, &path, prefer_nodeid) {
            assert_eq!(sorted_docs(&hits), expected);
            assert_eq!(stats.index_entries, 27);
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-range-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reopening a directory-backed database recomputes the flag from the
/// stored entries — through crash recovery and after a clean checkpoint:
/// set when a multi-valued document committed, clear when it rolled back.
#[test]
fn reopen_recomputes_the_flag() {
    for checkpoint in [false, true] {
        for commit in [false, true] {
            let dir = tmpdir(&format!("{checkpoint}-{commit}"));
            {
                let db = Database::create_dir(&dir).unwrap();
                let t = create_schema(&db);
                for i in 0..20 {
                    insert(&db, &t, &[10 + 20 * i]);
                }
                let txn = db.begin().unwrap();
                db.insert_row_txn(&txn, &t, &[ColValue::Xml(product(&[5, 500]))])
                    .unwrap();
                if commit {
                    txn.commit().unwrap();
                } else {
                    txn.rollback().unwrap();
                }
                assert!(price_index(&t).is_multi_valued());
                if checkpoint {
                    db.checkpoint().unwrap();
                }
                // Without a checkpoint, dropping is a crash: reopen recovers.
            }
            let db = Database::open_dir(&dir).unwrap();
            let t = db.table("products").unwrap();
            assert_eq!(
                price_index(&t).is_multi_valued(),
                commit,
                "checkpoint={checkpoint} commit={commit}"
            );
            let path = q(WINDOW);
            for prefer_nodeid in [false, true] {
                for (hits, stats) in both_paths(&db, &t, &path, prefer_nodeid) {
                    assert_eq!(hits.len(), 5 + usize::from(commit));
                    if !commit {
                        assert_eq!(stats.index_entries, 5);
                    }
                }
            }
            drop(db);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Prices of writer `w`'s `i`-th document: mostly single-valued, in and
/// out of the window, with every fourth one multi-valued (5 and 500, which
/// qualifies existentially), so the flag flips while readers run.
fn writer_prices(w: usize, i: usize) -> &'static [u32] {
    match (w + i) % 4 {
        0 => &[150],
        1 => &[250],
        2 => &[120],
        _ => &[5, 500],
    }
}

fn qualifies(prices: &[u32]) -> bool {
    prices.iter().any(|&p| p > 100) && prices.iter().any(|&p| p < 200)
}

/// Writers insert single- and multi-valued documents (flipping the flag
/// mid-run) while readers run two-bound `query_locked` queries. Every
/// qualifying document committed before a query starts is in its answer,
/// and the answer is consistent with one index state: when it holds a
/// writer's `i`-th document it holds every earlier qualifying one of that
/// writer. Sized by `RX_STRESS_THREADS` (CI runs 16).
#[test]
fn writers_flipping_the_flag_never_hide_committed_documents() {
    let threads: usize = std::env::var("RX_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    const ROUNDS: usize = 6;
    const DOCS_PER_WRITER: usize = 16;
    let path = q(WINDOW);
    for _ in 0..ROUNDS {
        let db = Database::create_in_memory_with(DbConfig {
            query_workers: 2,
            ..DbConfig::default()
        })
        .unwrap();
        let t = create_schema(&db);
        // Single-valued to start with, so readers begin on the one-scan path.
        for i in 0..20 {
            insert(&db, &t, &[10 + 20 * i]);
        }
        let committed: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
        let writers_done = AtomicBool::new(false);
        let start = Barrier::new(2 * threads);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..threads)
                .map(|w| {
                    let (db, t, committed, start) = (&db, &t, &committed, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..DOCS_PER_WRITER {
                            let name = format!("w{w}-{i}:");
                            let xml = product_named(&name, writer_prices(w, i));
                            db.insert_row(t, &[ColValue::Xml(xml)]).unwrap();
                            committed[w].store(i + 1, Ordering::Release);
                        }
                    })
                })
                .collect();
            for r in 0..threads {
                let (db, t, path, start) = (&db, &t, &path, &start);
                let (committed, writers_done) = (&committed, &writers_done);
                s.spawn(move || {
                    let col = t.xml_column("doc").unwrap();
                    start.wait();
                    let mut last = false;
                    while !last {
                        last = writers_done.load(Ordering::Acquire);
                        let before: Vec<usize> = committed
                            .iter()
                            .map(|c| c.load(Ordering::Acquire))
                            .collect();
                        let txn = db.begin().unwrap();
                        let (hits, _) = db.query_locked(&txn, t, col, path, r % 2 == 1).unwrap();
                        txn.commit().unwrap();
                        // (writer, i) of every hit written by a writer.
                        let mut seen: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); threads];
                        for h in &hits {
                            let Some((w, i)) = h.value.strip_prefix('w').and_then(|v| {
                                let (w, rest) = v.split_once('-')?;
                                let (i, _) = rest.split_once(':')?;
                                Some((w.parse::<usize>().ok()?, i.parse::<usize>().ok()?))
                            }) else {
                                continue;
                            };
                            assert!(qualifies(writer_prices(w, i)), "false hit w{w}-{i}");
                            seen[w].insert(i);
                        }
                        for w in 0..threads {
                            let upto = seen[w].last().map_or(before[w], |&m| before[w].max(m + 1));
                            for i in (0..upto).filter(|&i| qualifies(writer_prices(w, i))) {
                                assert!(
                                    seen[w].contains(&i),
                                    "w{w}-{i} missed (committed before the query: {}, \
                                     later doc of the writer seen: {:?})",
                                    i < before[w],
                                    seen[w].last()
                                );
                            }
                        }
                    }
                });
            }
            for w in writers {
                w.join().unwrap();
            }
            writers_done.store(true, Ordering::Release);
        });
        assert!(price_index(&t).is_multi_valued());
        let (hits, _, _) = db
            .query(&t, t.xml_column("doc").unwrap(), &path, false)
            .unwrap();
        let expected = 5
            + (0..threads)
                .flat_map(|w| (0..DOCS_PER_WRITER).map(move |i| writer_prices(w, i)))
                .filter(|p| qualifies(p))
                .count();
        assert_eq!(hits.len(), expected);
    }
}
