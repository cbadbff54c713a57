//! A product-catalog workload exercising the paper's Table 2 access methods
//! end-to-end: thousands of small documents, value indexes on price and
//! discount, index-backed queries (exact list / filtering / ANDing / ORing),
//! sub-document updates, and durable storage with crash recovery.
//!
//! Run with: `cargo run --release --example catalog_store`

use std::sync::Arc;
use std::time::Instant;
use system_rx::engine::access;
use system_rx::engine::db::{ColValue, ColumnKind, Database};
use system_rx::engine::update::{self, InsertPos};
use system_rx::gen::{product_doc, CatalogSpec};
use system_rx::xml::value::KeyType;
use system_rx::xml::NodeId;
use system_rx::xpath::XPathParser;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("system-rx-catalog-example");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::create_dir(&dir)?;

    let table = db.create_table(
        "products",
        &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
    )?;
    db.create_value_index(
        "products",
        "price_idx",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        KeyType::Double,
    )?;
    db.create_value_index("products", "disc_idx", "doc", "//Discount", KeyType::Double)?;

    // Load 2000 single-product documents.
    let spec = CatalogSpec {
        products: 2000,
        ..Default::default()
    };
    let t0 = Instant::now();
    for i in 0..spec.products {
        db.insert_row(
            &table,
            &[
                ColValue::Str(format!("SKU-{i:05}")),
                ColValue::Xml(product_doc(&spec, i)),
            ],
        )?;
    }
    println!(
        "loaded {} documents in {:.2?} ({:.0} docs/s)",
        spec.products,
        t0.elapsed(),
        spec.products as f64 / t0.elapsed().as_secs_f64()
    );

    let col = table.xml_column("doc")?;
    let dict = db.dict();
    let queries = [
        // Table 2 case 1: exact index match.
        "/Catalog/Categories/Product[RegPrice > 400]",
        // Table 2 case 2: //Discount contains the access path -> filtering.
        "/Catalog/Categories/Product[Discount > 0.30]",
        // Table 2 case 3: ANDing two indexes.
        "/Catalog/Categories/Product[RegPrice > 250 and Discount > 0.20]",
        // ORing.
        "/Catalog/Categories/Product[RegPrice < 20 or Discount > 0.30]",
        // Unindexed predicate: full scan.
        "/Catalog/Categories/Product[ProductName = 'Product-000007']",
    ];
    for q in queries {
        let path = XPathParser::new().parse(q)?;
        let plan = access::plan(&path, col, false);
        let t = Instant::now();
        // Every read takes the §5.1 locks; a read-only transaction logs
        // nothing and skips the commit fsync.
        let txn = db.begin()?;
        let (hits, stats) = db.query_locked(&txn, &table, col, &path, false)?;
        txn.commit()?;
        println!(
            "\nquery: {q}\n  plan: {}\n  hits={} candidates={} docs-evaluated={} elapsed={:.2?}",
            plan.explain().lines().next().unwrap_or(""),
            hits.len(),
            stats.candidates,
            stats.docs_evaluated,
            t.elapsed()
        );
    }

    // Sub-document update: raise one product's price in place (§3.1 — only
    // the containing record is touched, and Dewey IDs keep every other node
    // stable). update_document_txn takes the document's X lock, as insert
    // and delete do, and keeps the value indexes in step with the new price.
    let txn = db.begin()?;
    // /Catalog(02)/Categories(02)/Product(02)/RegPrice/text
    // (the @id attribute takes rel 02, so ProductName=04, RegPrice=06)
    let product = NodeId::from_bytes(&[0x02, 0x02, 0x02])?;
    let price_text = NodeId::from_bytes(&[0x02, 0x02, 0x02, 0x06, 0x02])?;
    let stats = db.update_document_txn(&txn, &table, "doc", 1, |txn, xml| {
        let stats = update::replace_value(txn, xml, 1, &price_text, "999.99")?;
        // And append a tag element to the same product.
        update::insert_fragment(
            txn,
            xml,
            1,
            dict,
            &product,
            InsertPos::Last,
            "<Tag>limited-edition</Tag>",
        )?;
        Ok(stats)
    })?;
    txn.commit()?;
    // The price index sees the new price immediately.
    let path = XPathParser::new().parse("/Catalog/Categories/Product[RegPrice > 900]")?;
    let txn = db.begin()?;
    let (hits, _) = db.query_locked(&txn, &table, col, &path, false)?;
    txn.commit()?;
    let explain = access::plan(&path, col, false).explain();
    println!(
        "\nindexed query after update ({}): {} hit(s)",
        explain.lines().next().unwrap_or(""),
        hits.len()
    );
    assert_eq!(hits.len(), 1);
    println!(
        "\nsub-document update touched {} record(s), {} bytes",
        stats.records_touched, stats.bytes_written
    );
    println!("doc 1 now: {}", db.serialize_document(&table, "doc", 1)?);

    // Durability: checkpoint, reopen, verify.
    db.checkpoint()?;
    drop(db);
    let db = Database::open_dir(&dir)?;
    let table = db.table("products")?;
    let doc1 = db.serialize_document(&table, "doc", 1)?;
    assert!(doc1.contains("999.99") && doc1.contains("limited-edition"));
    println!("\nreopened from disk; updated document survived recovery");

    // Storage report.
    let (pages, records, bytes, entries, ipages) = table.xml_column("doc")?.xml_table().stats()?;
    println!(
        "XML table: {pages} pages, {records} packed records, {bytes} data bytes; \
         NodeID index: {entries} entries over {ipages} pages"
    );
    let _ = Arc::strong_count(&table);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
