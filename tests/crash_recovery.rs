//! Crash-recovery integration tests: committed work survives a crash without
//! a checkpoint; uncommitted work disappears; indexes stay consistent with
//! the data after recovery.

use rx_bench::run_plan;
use std::path::PathBuf;
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::{access, update};
use system_rx::gen::{product_doc, CatalogSpec};
use system_rx::xml::value::KeyType;
use system_rx::xml::NodeId;
use system_rx::xpath::XPathParser;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn committed_inserts_survive_without_checkpoint() {
    let dir = tmpdir("commit");
    let spec = CatalogSpec {
        products: 30,
        ..Default::default()
    };
    {
        let db = Database::create_dir(&dir).unwrap();
        let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
        db.create_value_index(
            "p",
            "price",
            "doc",
            "/Catalog/Categories/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        for i in 0..spec.products {
            db.insert_row(&t, &[ColValue::Xml(product_doc(&spec, i))])
                .unwrap();
        }
        // Simulated crash: drop without flushing dirty pages.
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("p").unwrap();
    let col = t.xml_column("doc").unwrap();
    // All documents readable.
    for doc in 1..=spec.products as u64 {
        let xml = db.serialize_document(&t, "doc", doc).unwrap();
        assert!(xml.starts_with("<Catalog>"), "doc {doc}");
    }
    // Value index consistent: index results == scan results.
    let path = XPathParser::new()
        .parse("/Catalog/Categories/Product[RegPrice > 250]")
        .unwrap();
    let plan = access::plan(&path, col, false);
    assert!(plan.explain().contains("DocID"), "{}", plan.explain());
    let (hits, _) = run_plan(&db, &plan, &t, col, &path);
    assert_eq!(hits.len(), spec.expected_above(250.0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uncommitted_transaction_rolls_back_at_recovery() {
    let dir = tmpdir("loser");
    {
        let db = Database::create_dir(&dir).unwrap();
        let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
        db.insert_row(&t, &[ColValue::Xml("<a><v>keep</v></a>".into())])
            .unwrap();
        // An in-flight transaction that never commits: its WAL records exist
        // (Begin + ops, no Commit).
        let txn = db.begin().unwrap();
        db.insert_row_txn(&txn, &t, &[ColValue::Xml("<a><v>drop</v></a>".into())])
            .unwrap();
        // Force the WAL so the loser's records are on disk, then "crash" by
        // leaking the txn (no commit, no rollback).
        db.txns().wal().force().unwrap();
        std::mem::forget(txn);
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("p").unwrap();
    assert!(db
        .serialize_document(&t, "doc", 1)
        .unwrap()
        .contains("keep"));
    // Doc 2 must be gone (loser undone).
    assert!(db.serialize_document(&t, "doc", 2).is_err());
    assert!(db.fetch_row(&t, 2).unwrap().is_none());
    // And a fresh insert must not collide with the rolled-back DocID space.
    let d = db
        .insert_row(&t, &[ColValue::Xml("<a><v>after</v></a>".into())])
        .unwrap();
    assert!(d > 1);
    assert!(db
        .serialize_document(&t, "doc", d)
        .unwrap()
        .contains("after"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Session 1 checkpoints, commits one row of `p`, and crashes with an
/// in-flight transaction that inserted a second row. Returns that row's
/// DocID and base-row RID.
fn crash_with_a_loser(dir: &PathBuf) -> (u64, system_rx::storage::Rid) {
    let db = Database::create_dir(dir).unwrap();
    let p = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
    db.create_table("q", &[("doc", ColumnKind::Xml)]).unwrap();
    db.checkpoint().unwrap();
    db.insert_row(&p, &[ColValue::Xml("<a><v>keep</v></a>".into())])
        .unwrap();
    let txn = db.begin().unwrap();
    let doc = db
        .insert_row_txn(&txn, &p, &[ColValue::Xml("<a><v>loser</v></a>".into())])
        .unwrap();
    let rid = p.row_rid(doc).unwrap().unwrap();
    db.txns().wal().force().unwrap();
    std::mem::forget(txn);
    (doc, rid)
}

/// The rows of `p`, serialized, in DocID order.
fn rows_of_p(db: &Database) -> Vec<String> {
    let p = db.table("p").unwrap();
    let mut docs = Vec::new();
    p.docid_index()
        .scan_all(|k, _| {
            docs.push(u64::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
    docs.iter()
        .map(|&d| db.serialize_document(&p, "doc", d).unwrap())
        .collect()
}

/// A loser that recovery rolled back stays rolled back after a second
/// crash: recovery logs its compensations and an `Abort`, and transactions
/// of the next session get ids above it, so none of them can commit it.
#[test]
fn rolled_back_loser_stays_gone_after_a_second_crash() {
    let dir = tmpdir("loser2");
    let (loser, _) = crash_with_a_loser(&dir);
    {
        let db = Database::open_dir(&dir).unwrap();
        assert_eq!(rows_of_p(&db), vec!["<a><v>keep</v></a>"]);
        let q = db.table("q").unwrap();
        for i in 0..4 {
            db.insert_row(&q, &[ColValue::Xml(format!("<b>{i}</b>"))])
                .unwrap();
        }
        // Crash again, without a checkpoint.
    }
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(rows_of_p(&db), vec!["<a><v>keep</v></a>"]);
    assert!(db
        .fetch_row(&db.table("p").unwrap(), loser)
        .unwrap()
        .is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A committed insert that reuses the slot of a loser's rolled-back row
/// survives a second crash: the second recovery must not undo the loser
/// again over it.
#[test]
fn insert_into_a_rolled_back_losers_slot_survives_a_second_crash() {
    let dir = tmpdir("reuse");
    let (_, loser_rid) = crash_with_a_loser(&dir);
    {
        let db = Database::open_dir(&dir).unwrap();
        let p = db.table("p").unwrap();
        let doc = db
            .insert_row(&p, &[ColValue::Xml("<a><v>reused</v></a>".into())])
            .unwrap();
        assert_eq!(
            p.row_rid(doc).unwrap(),
            Some(loser_rid),
            "the committed row takes the loser's freed slot"
        );
        // Crash again, without a checkpoint.
    }
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(
        rows_of_p(&db),
        vec!["<a><v>keep</v></a>", "<a><v>reused</v></a>"]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn updates_survive_crash() {
    let dir = tmpdir("update");
    {
        let db = Database::create_dir(&dir).unwrap();
        let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
        db.insert_row(&t, &[ColValue::Xml("<a><v>one</v><w>two</w></a>".into())])
            .unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint committed update + delete of a node.
        let col = t.xml_column("doc").unwrap();
        let txn = db.begin().unwrap();
        update::replace_value(
            &txn,
            col.xml_table(),
            1,
            &NodeId::from_bytes(&[0x02, 0x02, 0x02]).unwrap(),
            "ONE",
        )
        .unwrap();
        update::delete_node(
            &txn,
            col.xml_table(),
            1,
            &NodeId::from_bytes(&[0x02, 0x04]).unwrap(),
        )
        .unwrap();
        txn.commit().unwrap();
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("p").unwrap();
    assert_eq!(
        db.serialize_document(&t, "doc", 1).unwrap(),
        "<a><v>ONE</v></a>"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn names_a_fragment_adds_survive_crash() {
    let dir = tmpdir("fragment-names");
    {
        let db = Database::create_dir(&dir).unwrap();
        let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
        db.insert_row(&t, &[ColValue::Xml("<r><a>x</a></r>".into())])
            .unwrap();
        db.checkpoint().unwrap();
        // The fragment interns an element and an attribute name the
        // dictionary has not seen; commit, then crash without a checkpoint.
        let root = NodeId::from_bytes(&[0x02]).unwrap();
        let txn = db.begin().unwrap();
        db.update_document_txn(&txn, &t, "doc", 1, |txn, xml| {
            update::insert_fragment(
                txn,
                xml,
                1,
                db.dict(),
                &root,
                update::InsertPos::Last,
                r#"<brandnew attrname="v">y</brandnew>"#,
            )
        })
        .unwrap();
        txn.commit().unwrap();
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("p").unwrap();
    assert_eq!(
        db.serialize_document(&t, "doc", 1).unwrap(),
        r#"<r><a>x</a><brandnew attrname="v">y</brandnew></r>"#
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The DocID counter is persisted only at checkpoints, so a crash leaves the
/// catalog one DocID behind per insert since the last one. Each reopen
/// raises the counter to the largest recovered DocID, and the next insert
/// takes the DocID after that.
#[test]
fn lagging_docid_counter_is_raised_at_reopen() {
    let dir = tmpdir("doccnt");
    let n = 300u64;
    {
        let db = Database::create_dir(&dir).unwrap();
        let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
        for i in 0..n {
            db.insert_row(&t, &[ColValue::Xml(format!("<r><v>{i}</v></r>"))])
                .unwrap();
        }
        // Simulated crash: drop without flushing dirty pages.
    }
    for crash in 0..2u64 {
        let db = Database::open_dir(&dir).unwrap();
        let t = db.table("p").unwrap();
        let doc = db
            .insert_row(&t, &[ColValue::Xml("<r><v>new</v></r>".into())])
            .unwrap();
        assert_eq!(doc, n + 1 + crash, "after crash {crash}");
        assert_eq!(access::all_docids(&t).unwrap().len() as u64, doc);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_crash_recover_cycles_are_stable() {
    let dir = tmpdir("cycles");
    let mut expected: Vec<u64> = Vec::new();
    {
        let db = Database::create_dir(&dir).unwrap();
        db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
        db.checkpoint().unwrap();
    }
    for round in 0..4 {
        let db = Database::open_dir(&dir).unwrap();
        let t = db.table("p").unwrap();
        // Everything from earlier rounds is still there.
        for &doc in &expected {
            assert!(
                db.serialize_document(&t, "doc", doc).is_ok(),
                "round {round}, doc {doc}"
            );
        }
        let d = db
            .insert_row(
                &t,
                &[ColValue::Xml(format!("<r><round>{round}</round></r>"))],
            )
            .unwrap();
        expected.push(d);
        // Crash again (no checkpoint).
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("p").unwrap();
    assert_eq!(expected.len(), 4);
    for (round, doc) in expected.iter().enumerate() {
        let xml = db.serialize_document(&t, "doc", *doc).unwrap();
        assert!(xml.contains(&format!("<round>{round}</round>")));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_then_crash_is_equivalent_to_clean_shutdown() {
    let dir = tmpdir("ckpt");
    let spec = CatalogSpec {
        products: 10,
        ..Default::default()
    };
    {
        let db = Database::create_with(
            system_rx::engine::Storage::Dir(dir.clone()),
            DbConfig::default(),
        )
        .unwrap();
        let t = db.create_table("p", &[("doc", ColumnKind::Xml)]).unwrap();
        for i in 0..spec.products {
            db.insert_row(&t, &[ColValue::Xml(product_doc(&spec, i))])
                .unwrap();
        }
        db.checkpoint().unwrap();
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("p").unwrap();
    for doc in 1..=spec.products as u64 {
        assert!(db.serialize_document(&t, "doc", doc).is_ok());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fulltext_postings_survive_recovery() {
    let dir = tmpdir("ft");
    {
        let db = Database::create_dir(&dir).unwrap();
        let t = db.create_table("d", &[("doc", ColumnKind::Xml)]).unwrap();
        db.create_fulltext_index("d", "ft", "doc", "//Description")
            .unwrap();
        db.insert_row(
            &t,
            &[ColValue::Xml(
                "<p><Description>resilient indexed words</Description></p>".into(),
            )],
        )
        .unwrap();
        // Crash without checkpoint.
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("d").unwrap();
    let col = t.xml_column("doc").unwrap();
    let ftis = col.fulltext_indexes();
    assert_eq!(ftis.len(), 1, "index definition reloaded from the catalog");
    let docs = ftis[0].search_all_terms("resilient words").unwrap();
    assert_eq!(docs, vec![1], "postings replayed from the WAL");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A name dictionary far larger than one page: each name is its own catalog
/// entry, so inserts and checkpoints keep working, and a reopened database
/// serializes documents whose names come from both ends of the dictionary.
#[test]
fn dictionary_larger_than_a_page_survives_checkpoint_and_reopen() {
    const DOCS: usize = 300;
    const NAMES_PER_DOC: usize = 10;
    let dir = tmpdir("bigdict");
    let doc = |i: usize| {
        let body: String = (0..NAMES_PER_DOC)
            .map(|k| {
                let n = i * NAMES_PER_DOC + k;
                format!("<element_name_{n}>x</element_name_{n}>")
            })
            .collect();
        format!("<root>{body}</root>")
    };
    {
        let db = Database::create_dir(&dir).unwrap();
        let t = db.create_table("d", &[("doc", ColumnKind::Xml)]).unwrap();
        for i in 0..DOCS {
            db.insert_row(&t, &[ColValue::Xml(doc(i))]).unwrap();
        }
        assert!(db.dict().string_count() > DOCS * NAMES_PER_DOC);
        db.checkpoint().unwrap();
        // Names interned after the checkpoint, then a crash.
        db.insert_row(&t, &[ColValue::Xml(doc(DOCS))]).unwrap();
    }
    {
        let db = Database::open_dir(&dir).unwrap();
        let t = db.table("d").unwrap();
        for i in [0, 1, DOCS - 1, DOCS] {
            let got = db.serialize_document(&t, "doc", i as u64 + 1).unwrap();
            assert_eq!(got, doc(i), "doc {}", i + 1);
        }
        // The reopened database persists only what it interns anew.
        db.insert_row(&t, &[ColValue::Xml(doc(DOCS + 1))]).unwrap();
        db.checkpoint().unwrap();
    }
    let db = Database::open_dir(&dir).unwrap();
    let t = db.table("d").unwrap();
    for i in [0, DOCS, DOCS + 1] {
        assert_eq!(
            db.serialize_document(&t, "doc", i as u64 + 1).unwrap(),
            doc(i)
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
