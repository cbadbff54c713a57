//! Concurrency (§5): document-level DocID locking — every writer of a
//! document, sub-document updates included, holds its X lock to the end, so
//! writers of one document take turns — and lock-free snapshot readers over
//! the multiversioned store.
//!
//! Run with: `cargo run --release --example concurrent_orders`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use system_rx::engine::conc;
use system_rx::engine::db::{ColValue, ColumnKind, Database};
use system_rx::engine::mvcc::{pack_for_mvcc, MvccXmlStore};
use system_rx::engine::update;
use system_rx::gen::order_doc;
use system_rx::storage::{BufferPool, MemBackend, TableSpace};
use system_rx::xml::{NameDict, NodeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: four writers of one order document ----------------------
    let db = Database::create_in_memory()?;
    let table = db.create_table("orders", &[("doc", ColumnKind::Xml)])?;
    let doc = db.insert_row(&table, &[ColValue::Xml(order_doc(1, 8))])?;
    let table_id = table.def.id;

    // Item i's <Status> text: Order(02) / Item(06 + 2i), after @id (02) and
    // <Customer> (04) / Status(06), after Sku (02) and Qty (04) / text(02).
    let status_text =
        |i: usize| NodeId::from_bytes(&[0x02, 0x06 + 2 * i as u8, 0x06, 0x02]).unwrap();

    let updated = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..4usize {
            let (db, table, updated, status_text) = (&db, &table, &updated, &status_text);
            s.spawn(move || {
                // Each writer updates two items of the SAME document, one
                // transaction per item. update_document_txn takes IX on the
                // table and X on the document, so the writers take turns.
                for i in [w * 2, w * 2 + 1] {
                    let txn = db.begin().unwrap();
                    db.update_document_txn(&txn, table, "doc", doc, |txn, xml| {
                        update::replace_value(
                            txn,
                            xml,
                            doc,
                            &status_text(i),
                            &format!("shipped-by-{w}"),
                        )
                    })
                    .unwrap();
                    txn.commit().unwrap();
                    updated.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let out = db.serialize_document(&table, "doc", doc)?;
    assert_eq!(out.matches("shipped-by-").count(), 8);
    println!(
        "4 writers updated {} items of one document, serialized on its X lock ({} lock waits)",
        updated.load(Ordering::Relaxed),
        db.stats().lock_waits
    );

    // A reader of the document conflicts while a writer is active:
    let w = db.begin()?;
    db.update_document_txn(&w, &table, "doc", doc, |txn, xml| {
        update::replace_value(txn, xml, doc, &status_text(0), "held")
    })?;
    let r = db.begin()?;
    let blocked = !conc::try_lock_document_shared(&r, table_id, doc)?;
    assert!(blocked);
    println!("document S lock blocked by an item writer's X lock: {blocked}");
    w.rollback()?;
    assert!(conc::try_lock_document_shared(&r, table_id, doc)?);
    r.commit()?;

    // ---- Part 2: MVCC — readers never block under a write storm ----------
    let pool = BufferPool::new(4096);
    let space = TableSpace::create(pool, 99, Arc::new(MemBackend::new()))?;
    let store = Arc::new(MvccXmlStore::create(space)?);
    let dict = NameDict::new();
    store.commit_version(1, &pack_for_mvcc(&order_doc(1, 4), &dict, 3500)?, &[])?;

    let reads = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        // Writer: a new version every iteration.
        {
            let store = Arc::clone(&store);
            let dict = &dict;
            s.spawn(move || {
                for v in 0..200 {
                    let recs = pack_for_mvcc(&order_doc(1, 4 + v % 3), dict, 3500).unwrap();
                    store.commit_version(1, &recs, &[]).unwrap();
                }
            });
        }
        // Readers: consistent snapshots, zero locks.
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let reads = Arc::clone(&reads);
            s.spawn(move || {
                let root = NodeId::from_bytes(&[0x02]).unwrap();
                for _ in 0..2000 {
                    let snap = store.snapshot();
                    let rid = store.locate(1, &root, snap).unwrap();
                    assert!(rid.is_some());
                    store.close_snapshot(snap);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    println!(
        "MVCC: {} snapshot reads completed against 200 concurrent version commits in {:.2?}",
        reads.load(Ordering::Relaxed),
        t0.elapsed()
    );
    let (dropped, freed) = store.gc()?;
    println!("GC reclaimed {dropped} old versions ({freed} records)");
    Ok(())
}
