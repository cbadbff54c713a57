//! E11: parallel query execution — full-scan latency at 1 vs N worker
//! lanes over the E6 catalog workload, and plan preparation cold vs warm
//! through the plan cache.

use criterion::{criterion_group, criterion_main, Criterion};
use rx_bench::{load_product_docs, mem_db};
use rx_engine::access::{self, AccessPlan};
use rx_engine::executor::{PlanCache, QueryExecutor};
use rx_xpath::{QueryTree, XPathParser};
use std::sync::Arc;

fn bench_parallel_query(c: &mut Criterion) {
    let db = mem_db(3500);
    let (t, _) = load_product_docs(&db, 1500);
    let col = Arc::clone(t.xml_column("doc").unwrap());
    let dict = Arc::clone(db.dict());

    let path = XPathParser::new()
        .parse("/Catalog/Categories/Product[Description]/ProductName")
        .unwrap();
    let tree = Arc::new(QueryTree::compile(&path).unwrap());

    let mut g = c.benchmark_group("e11_full_scan_workers");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let exec = QueryExecutor::new(workers);
        g.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                let (hits, _) = access::execute_tree(
                    &AccessPlan::FullScan,
                    &t,
                    &col,
                    &dict,
                    &tree,
                    Some(&exec),
                    None,
                )
                .unwrap();
                std::hint::black_box(hits.len());
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("e11_plan_cache");
    g.bench_function("prepare_cold", |b| {
        b.iter(|| {
            std::hint::black_box(access::prepare(None, &t, &col, &path, false).unwrap());
        })
    });
    let cache = PlanCache::new(rx_engine::executor::PLAN_CACHE_CAPACITY);
    access::prepare(Some(&cache), &t, &col, &path, false).unwrap();
    g.bench_function("prepare_warm", |b| {
        b.iter(|| {
            std::hint::black_box(access::prepare(Some(&cache), &t, &col, &path, false).unwrap());
        })
    });
    g.finish();
}

criterion_group!(benches, bench_parallel_query);
criterion_main!(benches);
