//! Serve a database over loopback TCP and talk to it three ways: a
//! session in an explicit transaction, a plain reader session, and one
//! multiplexed connection pipelining several sessions over one socket.
//!
//! Run with: `cargo run --example server_quickstart`

use std::time::Duration;

use system_rx::engine::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::server::{
    connect_tcp, connect_tcp_multiplexed, ConnectOptions, ReqClass, Server, ServerConfig,
};

fn main() {
    // An in-memory database with one table: a string key plus an XML column.
    // A document-cache budget keeps hot documents' packed records resident
    // above the buffer pool, so repeated reads skip the NodeID index.
    let db = Database::create_in_memory_with(DbConfig {
        doc_cache_bytes: 4 << 20,
        ..DbConfig::default()
    })
    .expect("create database");
    db.create_table(
        "orders",
        &[("customer", ColumnKind::Str), ("doc", ColumnKind::Xml)],
    )
    .expect("create table");

    // Start the service layer and bind an ephemeral loopback port.
    let server = Server::start(
        db,
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            idle_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    let addr = server.listen(("127.0.0.1", 0)).expect("bind listener");
    println!("rx-server listening on {addr}");

    // Session one, on a connection of its own, inserts inside an explicit
    // transaction.
    let mut writer = connect_tcp(addr).expect("connect writer");
    writer.begin().unwrap();
    for (customer, total) in [("ada", 120), ("grace", 75), ("edsger", 310)] {
        let doc = writer
            .insert_row(
                "orders",
                vec![
                    ColValue::Str(customer.to_string()),
                    ColValue::Xml(format!("<order><total>{total}</total></order>")),
                ],
            )
            .unwrap();
        println!("writer: inserted order for {customer} as doc {doc}");
    }
    writer.commit().unwrap();

    // Session two queries concurrently over its own connection. The second
    // run of the same path is served from the plan cache, and the documents
    // it touches are replayed from the warm document cache — no heap
    // fetches, no index probes.
    let mut reader = connect_tcp(addr).expect("connect reader");
    let hits = reader.query("orders", "doc", "/order/total").unwrap();
    println!("reader: {} orders, totals:", hits.len());
    for hit in &hits {
        println!("  doc {} -> {}", hit.doc, hit.value);
    }
    let again = reader.query("orders", "doc", "/order/total").unwrap();
    assert_eq!(again.len(), hits.len());
    // A point fetch needs no wait here, so the connection's reader thread
    // answers it itself instead of handing it to a worker.
    let row = reader.fetch_row("orders", hits[0].doc).unwrap().unwrap();
    println!("reader: fetched doc {} -> {}", hits[0].doc, row.values[0]);

    // The pipelined API: ONE connection, many concurrent sessions. Each
    // session has independent transaction state; requests from different
    // sessions overlap on the wire and may complete out of order.
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).expect("connect mux");
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let mut session = conn.session();
            std::thread::spawn(move || {
                session.begin().unwrap();
                let doc = session
                    .insert_row(
                        "orders",
                        vec![
                            ColValue::Str(format!("mux-{i}")),
                            ColValue::Xml(format!("<order><total>{}</total></order>", 10 * i)),
                        ],
                    )
                    .unwrap();
                session.commit().unwrap();
                doc
            })
        })
        .collect();
    for w in workers {
        let doc = w.join().unwrap();
        println!("mux: committed doc {doc}");
    }

    // The admin stats surface: server counters plus engine counters.
    let stats = reader.stats().unwrap();
    println!("\n-- server stats --");
    println!(
        "requests total/rejected/errored: {}/{}/{}, answered inline: {}",
        stats.requests_total,
        stats.requests_rejected,
        stats.requests_errored,
        stats.requests_inline
    );
    println!(
        "sessions opened/active/expired:  {}/{}/{}",
        stats.sessions_opened, stats.sessions_active, stats.sessions_expired
    );
    println!(
        "connections: {}, streams opened {}, out-of-order completions {}",
        stats.connections, stats.streams_opened, stats.ooo_completions
    );
    assert!(stats.requests_inline >= 1, "the fetch ran inline");
    for class in ReqClass::all() {
        let l = &stats.latency[class as usize];
        println!(
            "latency[{:5}]: {} requests, mean {} us",
            class.label(),
            l.count,
            l.mean_us()
        );
    }
    println!(
        "buffer hits/misses: {}/{}",
        stats.db.buffer_hits, stats.db.buffer_misses
    );
    println!(
        "wal records/bytes:  {}/{}",
        stats.db.wal_records, stats.db.wal_bytes
    );
    println!(
        "buffer shards/contention: {}/{}",
        stats.db.buffer_shards, stats.db.buffer_contention
    );
    println!(
        "group commit: {} fsyncs for {} waiting commits (max batch {} records, durable lsn {}, lag {})",
        stats.db.wal_fsyncs,
        stats.db.wal_group_commits,
        stats.db.wal_batch_max,
        stats.db.wal_durable_lsn,
        stats.db.wal_durable_lag
    );
    println!(
        "lock waits/timeouts/deadlocks: {}/{}/{}",
        stats.db.lock_waits, stats.db.lock_timeouts, stats.db.lock_deadlocks
    );
    println!(
        "query executor: {} workers, {} parallel queries",
        stats.db.query_workers, stats.db.parallel_queries
    );
    println!(
        "plan cache: {} hits / {} misses, {} entries",
        stats.db.plan_cache_hits, stats.db.plan_cache_misses, stats.db.plan_cache_entries
    );
    println!(
        "doc cache:  {} hits / {} misses, {} evictions, {} bytes resident",
        stats.db.doc_cache_hits,
        stats.db.doc_cache_misses,
        stats.db.doc_cache_evictions,
        stats.db.doc_cache_bytes
    );

    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
