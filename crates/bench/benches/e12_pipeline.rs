//! E12: protocol v2 pipelining — queries and latency-bound requests over
//! loopback TCP: one session on its own connection (one request in flight)
//! vs 8 sessions multiplexed on one connection.

use criterion::{criterion_group, criterion_main, Criterion};
use rx_bench::{load_product_docs, mem_db};
use rx_server::{connect_tcp, connect_tcp_multiplexed, ConnectOptions, Server, ServerConfig};
use std::time::Duration;

fn bench_pipelining(c: &mut Criterion) {
    let db = mem_db(3500);
    let (_t, _spec) = load_product_docs(&db, 200);
    let server = Server::start(
        db,
        ServerConfig {
            workers: 8,
            queue_depth: 256,
            idle_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    );
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");
    let q = "/Catalog/Categories/Product[Description]/ProductName";
    const BATCH: usize = 32;
    const SESSIONS: usize = 8;

    let mut g = c.benchmark_group("e12_query_batch");
    g.sample_size(10);
    let mut single = connect_tcp(addr).expect("single-session connection");
    g.bench_function("one_session", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                std::hint::black_box(single.query("products", "doc", q).unwrap().len());
            }
        })
    });
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).expect("mux");
    g.bench_function("multiplexed_8_sessions", |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|_| {
                    let mut s = conn.session();
                    std::thread::spawn(move || {
                        for _ in 0..BATCH / SESSIONS {
                            std::hint::black_box(s.query("products", "doc", q).unwrap().len());
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("e12_latency_bound");
    g.sample_size(10);
    g.bench_function("one_session_8x2ms", |b| {
        b.iter(|| {
            for _ in 0..8 {
                single.sleep_ms(2).unwrap();
            }
        })
    });
    g.bench_function("multiplexed_8x2ms", |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let mut s = conn.session();
                    std::thread::spawn(move || s.sleep_ms(2).unwrap())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    g.finish();

    server.shutdown();
}

criterion_group!(benches, bench_pipelining);
criterion_main!(benches);
