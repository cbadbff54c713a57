//! # rx-bench — shared harness for the System R/X experiments
//!
//! Helpers used by the `report` binary, which regenerates every
//! table/figure-level claim of the paper and prints paper-shape vs measured
//! (see `EXPERIMENTS.md`), and the baselines the paper argues against,
//! which only the experiments and the differential tests use:
//!
//! * [`shred`] — one-node-per-row relational shredding (§3.1, E1–E3);
//! * [`lob`] — LOB storage, where every update rewrites the document (E3);
//! * [`sax`] — the per-event-callback SAX interface (§3.2, E4);
//! * [`baseline`] — DOM-based and naive per-instance streaming XPath
//!   evaluators (§4.2, Fig. 7, E5), `DomXPath` also being the reference the
//!   XPath tests compare stored evaluation with;
//! * [`construct`] — nested constructor evaluation and the external
//!   XMLAGG ORDER BY sort (§4.1, E7).

#![warn(missing_docs)]

pub mod baseline;
pub mod construct;
pub mod lob;
pub mod sax;
pub mod shred;

use rx_engine::access::{self, AccessPlan, AccessStats, QueryHit};
use rx_engine::db::{ColValue, ColumnKind, Database, DbConfig, XmlColumn};
use rx_engine::{BaseTable, DocId};
use rx_gen::CatalogSpec;
use rx_storage::{BufferPool, MemBackend, TableSpace};
use rx_xml::NameDict;
use rx_xpath::{Path, QueryTree};
use shred::ShreddedStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An in-memory database with the given target record size.
pub fn mem_db(target_record_size: usize) -> Arc<Database> {
    Database::create_in_memory_with(DbConfig {
        target_record_size,
        buffer_pages: 16_384,
        ..Default::default()
    })
    .expect("in-memory database")
}

/// An in-memory database with the given target record size and a document
/// record-cache budget (0 = cache off, the default everywhere else).
pub fn mem_db_cached(target_record_size: usize, doc_cache_bytes: usize) -> Arc<Database> {
    Database::create_in_memory_with(DbConfig {
        target_record_size,
        buffer_pages: 16_384,
        doc_cache_bytes,
        ..Default::default()
    })
    .expect("in-memory database")
}

/// Create `products` single-product documents in a `products` table with
/// price and discount value indexes. Returns the table and the spec.
pub fn load_product_docs(db: &Arc<Database>, products: usize) -> (Arc<BaseTable>, CatalogSpec) {
    let t = db
        .create_table("products", &[("doc", ColumnKind::Xml)])
        .expect("table");
    db.create_value_index(
        "products",
        "price_idx",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        rx_xml::value::KeyType::Double,
    )
    .expect("index");
    db.create_value_index(
        "products",
        "disc_idx",
        "doc",
        "//Discount",
        rx_xml::value::KeyType::Double,
    )
    .expect("index");
    let spec = CatalogSpec {
        products,
        ..Default::default()
    };
    for i in 0..products {
        db.insert_row(&t, &[ColValue::Xml(rx_gen::product_doc(&spec, i))])
            .expect("insert");
    }
    (t, spec)
}

/// Create one big catalog document (all products in one row) with a price
/// index. Returns (table, spec, docid).
pub fn load_single_catalog(
    db: &Arc<Database>,
    products: usize,
) -> (Arc<BaseTable>, CatalogSpec, DocId) {
    let t = db
        .create_table("catalog", &[("doc", ColumnKind::Xml)])
        .expect("table");
    db.create_value_index(
        "catalog",
        "price_idx",
        "doc",
        "/Catalog/Categories/Product/RegPrice",
        rx_xml::value::KeyType::Double,
    )
    .expect("index");
    let spec = CatalogSpec {
        products,
        categories: (products / 100).max(1),
        ..Default::default()
    };
    let doc = db
        .insert_row(&t, &[ColValue::Xml(rx_gen::catalog_xml(&spec))])
        .expect("insert");
    (t, spec, doc)
}

/// A fresh shredded store over its own in-memory space.
pub fn shredded_store() -> (ShreddedStore, NameDict) {
    let pool = BufferPool::new(16_384);
    let space = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).expect("space");
    (
        ShreddedStore::create(space).expect("store"),
        NameDict::new(),
    )
}

/// A fresh LOB store.
pub fn lob_store() -> lob::LobStore {
    let pool = BufferPool::new(16_384);
    let space = TableSpace::create(pool, 1, Arc::new(MemBackend::new())).expect("space");
    lob::LobStore::create(space).expect("store")
}

/// Run `plan` for `path` over `column` of `table` serially, in a read-only
/// transaction of its own: the §5.1 S locks, no log record, no commit fsync.
pub fn run_plan(
    db: &Database,
    plan: &AccessPlan,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    path: &Path,
) -> (Vec<QueryHit>, AccessStats) {
    let tree = Arc::new(QueryTree::compile(path).expect("compile"));
    let txn = db.begin().expect("begin");
    let out =
        access::execute_tree(plan, table, column, db.dict(), &tree, None, &txn).expect("execute");
    txn.commit().expect("commit");
    out
}

/// Median wall time of `runs` executions of `f` (plus one discarded warm-up).
pub fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples = Vec::with_capacity(runs);
    for i in 0..=runs {
        let t = Instant::now();
        f();
        let d = t.elapsed();
        if i > 0 || runs == 1 {
            samples.push(d);
        }
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// Pretty-print a duration in stable units for report tables.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

/// Print a markdown-style report table: header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:width$} |", c, width = widths[i]));
        }
        line
    };
    let head: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    println!("{}", fmt_row(&head));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
    }
    println!("{sep}");
    for r in rows {
        println!("{}", fmt_row(r));
    }
}
