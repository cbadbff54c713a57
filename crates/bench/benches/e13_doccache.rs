//! E13: the hot-document record cache — repeated document-order traversal
//! of a hot working set, cache off vs cache warm, plus the point-lookup
//! path (`string_value`) that resolves single anchors.

use criterion::{criterion_group, criterion_main, Criterion};
use rx_bench::{load_product_docs, mem_db, mem_db_cached};
use rx_engine::traverse::{IdEventSink, Traverser};
use rx_engine::{DocId, XmlColumn};

const DOCS: usize = 2000;

struct CountSink(u64);
impl IdEventSink for CountSink {
    fn id_event(&mut self, _id: &[u8], _ev: rx_xml::event::Event<'_>) -> rx_engine::Result<()> {
        self.0 += 1;
        Ok(())
    }
}

fn traverse_all(col: &XmlColumn) -> u64 {
    let mut events = 0u64;
    for doc in 1..=DOCS as DocId {
        let mut sink = CountSink(0);
        let mut tr = Traverser::new(col.xml_table(), doc);
        tr.run(&mut sink).unwrap();
        events += sink.0;
    }
    events
}

fn bench_doccache(c: &mut Criterion) {
    let db_off = mem_db(512);
    let db_on = mem_db_cached(512, 8 << 20);
    let (t_off, _) = load_product_docs(&db_off, DOCS);
    let (t_on, _) = load_product_docs(&db_on, DOCS);
    let col_off = t_off.xml_column("doc").unwrap();
    let col_on = t_on.xml_column("doc").unwrap();
    // Populate once so the "warm" benchmark measures hits, not read-through.
    std::hint::black_box(traverse_all(col_on));

    let mut g = c.benchmark_group("e13_traverse_hot_set");
    g.sample_size(20);
    g.bench_function("cache_off", |b| {
        b.iter(|| std::hint::black_box(traverse_all(col_off)))
    });
    g.bench_function("cache_warm", |b| {
        b.iter(|| std::hint::black_box(traverse_all(col_on)))
    });
    g.finish();

    // Point lookups: resolve the root anchor of each document and read its
    // string value — one ceiling probe + fetch cold, one binary search warm.
    let point_all = |col: &XmlColumn| {
        let mut total = 0usize;
        for doc in 1..=DOCS as DocId {
            let root = rx_xml::NodeId::root().child(&rx_xml::RelId::first());
            total += rx_engine::traverse::string_value(col.xml_table(), doc, &root)
                .unwrap()
                .len();
        }
        total
    };
    let mut g = c.benchmark_group("e13_point_lookup");
    g.sample_size(20);
    g.bench_function("cache_off", |b| {
        b.iter(|| std::hint::black_box(point_all(col_off)))
    });
    g.bench_function("cache_warm", |b| {
        b.iter(|| std::hint::black_box(point_all(col_on)))
    });
    g.finish();
}

criterion_group!(benches, bench_doccache);
criterion_main!(benches);
