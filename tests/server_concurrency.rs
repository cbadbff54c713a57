//! End-to-end exercise of the rx-server service layer over loopback TCP:
//! many client threads doing mixed inserts/queries/deletes with no lost
//! updates, admission control answering `Busy` under overload, and graceful
//! shutdown rolling back abandoned sessions.

use std::collections::HashSet;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use system_rx::engine::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::server::{
    connect_tcp, connect_tcp_multiplexed, ClientError, ConnectOptions, Connection, Frame,
    FrameCodec, Hello, HelloAck, ReqClass, Request, Response, Server, ServerConfig, Session,
    StatsSnapshot,
};

fn start_server(workers: usize, queue_depth: usize) -> (Arc<Server>, std::net::SocketAddr) {
    start_server_with(ServerConfig {
        workers,
        queue_depth,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
}

fn start_server_with(config: ServerConfig) -> (Arc<Server>, std::net::SocketAddr) {
    let db = Database::create_in_memory().unwrap();
    db.create_table(
        "items",
        &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
    )
    .unwrap();
    let server = Server::start(db, config);
    let addr = server.listen(("127.0.0.1", 0)).unwrap();
    (server, addr)
}

fn item_xml(owner: usize, seq: usize) -> String {
    format!("<item><owner>{owner}</owner><seq>{seq}</seq></item>")
}

#[test]
fn eight_clients_mixed_workload_no_lost_updates() {
    const CLIENTS: usize = 8;
    const ROWS_PER_CLIENT: usize = 12;

    let (server, addr) = start_server(4, 64);
    let mut handles = Vec::new();
    for owner in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut c = connect_tcp(addr).unwrap();
            c.ping().unwrap();
            let mut kept = Vec::new();
            for seq in 0..ROWS_PER_CLIENT {
                let doc = c
                    .insert_row(
                        "items",
                        vec![
                            ColValue::Str(format!("sku-{owner}-{seq}")),
                            ColValue::Xml(item_xml(owner, seq)),
                        ],
                    )
                    .unwrap();
                // Delete every third row again; the rest must survive.
                if seq % 3 == 2 {
                    assert!(c.delete_row("items", doc).unwrap());
                } else {
                    kept.push((doc, seq));
                }
                // Interleave reads with the writes.
                let hits = c.query("items", "doc", "/item/owner").unwrap();
                assert!(hits.len() >= kept.len());
            }
            // Everything this client kept must be visible with its own data.
            for &(doc, seq) in &kept {
                let row = c.fetch_row("items", doc).unwrap().expect("kept row lost");
                assert_eq!(row.values[0], format!("sku-{owner}-{seq}"));
            }
            kept.into_iter().map(|(doc, _)| doc).collect::<Vec<u64>>()
        }));
    }

    let mut all_docs = Vec::new();
    for h in handles {
        all_docs.extend(h.join().unwrap());
    }
    // DocIDs are globally unique: no two clients were handed the same row.
    let unique: HashSet<u64> = all_docs.iter().copied().collect();
    assert_eq!(
        unique.len(),
        all_docs.len(),
        "duplicate DocIDs across clients"
    );

    // Final ground truth straight from the engine: kept = inserted - deleted.
    let expected_kept = CLIENTS * (ROWS_PER_CLIENT - ROWS_PER_CLIENT / 3);
    assert_eq!(all_docs.len(), expected_kept);
    let mut verify = connect_tcp(addr).unwrap();
    let hits = verify.query("items", "doc", "/item/seq").unwrap();
    assert_eq!(hits.len(), expected_kept, "lost or resurrected updates");

    // The stats surface saw real traffic.
    let stats = verify.stats().unwrap();
    assert!(stats.requests_total as usize >= CLIENTS * ROWS_PER_CLIENT * 2);
    assert_eq!(stats.requests_rejected, 0, "no overload expected here");
    assert!(stats.sessions_opened as usize >= CLIENTS);
    assert!(stats.latency[ReqClass::Write as usize].count > 0);
    assert!(stats.latency[ReqClass::Read as usize].count > 0);
    assert!(
        stats.db.buffer_hits + stats.db.buffer_misses > 0,
        "buffer pool counters must move"
    );
    assert!(stats.db.wal_records > 0);
    // Group-commit and shard counters flow through the wire snapshot.
    assert!(stats.db.buffer_shards >= 1);
    assert!(
        stats.db.wal_fsyncs > 0,
        "committing work must fsync the WAL"
    );
    assert!(
        stats.db.wal_fsyncs <= stats.db.wal_group_commits,
        "group commit can never fsync more often than commits wait: {} > {}",
        stats.db.wal_fsyncs,
        stats.db.wal_group_commits
    );
    assert!(stats.db.wal_durable_lsn > 0);
    server.shutdown();
}

#[test]
fn overload_gets_server_busy_not_a_hang() {
    // One worker, queue depth one: with two slow requests in the system a
    // third must be turned away immediately.
    let (server, addr) = start_server(1, 1);
    let wait_for = |pred: &dyn Fn(&StatsSnapshot) -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pred(&server.stats()) {
            assert!(
                std::time::Instant::now() < deadline,
                "server never reached expected state"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let mut slow: Vec<std::thread::JoinHandle<Result<(), ClientError>>> = Vec::new();
    let mut c1 = connect_tcp(addr).unwrap();
    slow.push(std::thread::spawn(move || c1.sleep_ms(500)));
    wait_for(&|s| s.requests_in_flight == 1);
    let mut c2 = connect_tcp(addr).unwrap();
    slow.push(std::thread::spawn(move || c2.sleep_ms(500)));
    wait_for(&|s| s.requests_queued == 1);

    let mut probe = connect_tcp(addr).unwrap();
    let started = std::time::Instant::now();
    let err = probe.sleep_ms(1).unwrap_err();
    assert!(err.is_busy(), "expected Busy, got: {err}");
    assert!(
        started.elapsed() < Duration::from_millis(350),
        "Busy must be immediate, not queued"
    );
    for h in slow {
        h.join().unwrap().unwrap();
    }
    // After the burst drains the server accepts work again.
    probe.ping().unwrap();
    assert!(server.stats().requests_rejected >= 1);
    server.shutdown();
}

#[test]
fn shutdown_rolls_back_abandoned_sessions() {
    let (server, addr) = start_server(2, 16);
    let mut c: Session = connect_tcp(addr).unwrap();
    c.begin().unwrap();
    c.insert_row(
        "items",
        vec![
            ColValue::Str("orphan".into()),
            ColValue::Xml("<item/>".into()),
        ],
    )
    .unwrap();
    assert_eq!(server.db().txns().active_count(), 1);

    server.shutdown();

    // The open transaction died with the server — no lock or txn leaks.
    assert_eq!(server.db().txns().active_count(), 0);
    // And the connection is really gone.
    assert!(c.ping().is_err());
    // The uncommitted insert is invisible to a direct engine read.
    let db = server.db();
    let table = db.table("items").unwrap();
    let txn = db.begin().unwrap();
    drop(txn);
    let hits = {
        let t = db.begin().unwrap();
        let col = table.xml_column("doc").unwrap();
        let path = system_rx::xpath::XPathParser::new().parse("/item").unwrap();
        let (hits, _) = db.query_locked(&t, &table, col, &path, false).unwrap();
        t.commit().unwrap();
        hits
    };
    assert!(hits.is_empty(), "rolled-back insert leaked: {hits:?}");
}

#[test]
fn interleaved_streams_on_one_connection() {
    // Many sessions multiplexed over ONE TCP connection, each running its
    // own explicit transaction concurrently. Per-stream transaction state
    // must never bleed between sessions sharing the socket.
    const SESSIONS: usize = 6;
    const ROWS_PER_SESSION: usize = 8;

    let (server, addr) = start_server(4, 64);
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).unwrap();
    let mut handles = Vec::new();
    for owner in 0..SESSIONS {
        let mut s = conn.session();
        handles.push(std::thread::spawn(move || {
            s.begin().unwrap();
            let mut docs = Vec::new();
            for seq in 0..ROWS_PER_SESSION {
                let doc = s
                    .insert_row(
                        "items",
                        vec![
                            ColValue::Str(format!("mux-{owner}-{seq}")),
                            ColValue::Xml(item_xml(owner, seq)),
                        ],
                    )
                    .unwrap();
                docs.push((doc, seq));
            }
            // Uncommitted rows are visible inside this session's txn...
            for &(doc, seq) in &docs {
                let row = s.fetch_row("items", doc).unwrap().expect("own write lost");
                assert_eq!(row.values[0], format!("mux-{owner}-{seq}"));
            }
            s.commit().unwrap();
            docs.into_iter().map(|(d, _)| d).collect::<Vec<u64>>()
        }));
    }
    let mut all_docs = Vec::new();
    for h in handles {
        all_docs.extend(h.join().unwrap());
    }
    let unique: HashSet<u64> = all_docs.iter().copied().collect();
    assert_eq!(
        unique.len(),
        all_docs.len(),
        "duplicate DocIDs across streams"
    );
    assert_eq!(all_docs.len(), SESSIONS * ROWS_PER_SESSION);

    let mut verify = conn.session();
    let hits = verify.query("items", "doc", "/item/seq").unwrap();
    assert_eq!(hits.len(), SESSIONS * ROWS_PER_SESSION);
    let stats = verify.stats().unwrap();
    assert_eq!(stats.connections, 1, "all traffic rode one connection");
    assert!(
        stats.streams_opened as usize >= SESSIONS,
        "each session is its own stream: {} < {SESSIONS}",
        stats.streams_opened
    );
    server.shutdown();
}

#[test]
fn pipelined_sleeps_complete_out_of_order() {
    // One slow and several fast requests on sibling streams: the fast ones
    // must overtake the slow one, which the server counts as out-of-order
    // completions.
    let (server, addr) = start_server(4, 64);
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).unwrap();
    let mut slow = conn.session();
    let slow_h = std::thread::spawn(move || slow.sleep_ms(300));
    // Give the slow request time to get dispatched first.
    std::thread::sleep(Duration::from_millis(50));
    let mut fast = conn.session();
    let started = std::time::Instant::now();
    fast.ping().unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "fast stream must not wait behind the slow one"
    );
    slow_h.join().unwrap().unwrap();
    let stats = conn.session().stats().unwrap();
    assert!(
        stats.ooo_completions >= 1,
        "overtaking must be counted: {}",
        stats.ooo_completions
    );
    server.shutdown();
}

#[test]
fn stream_budget_answers_busy_per_stream() {
    // Server grants at most 2 concurrent in-flight requests per connection:
    // with two sleeps holding the budget, a third stream gets Busy while a
    // second *connection* still proceeds.
    let (server, addr) = start_server_with(ServerConfig {
        workers: 4,
        queue_depth: 64,
        idle_timeout: Duration::from_secs(30),
        max_streams: 2,
        ..ServerConfig::default()
    });
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).unwrap();
    assert_eq!(
        conn.max_streams(),
        2,
        "server must clamp the granted budget"
    );
    let mut s1 = conn.session();
    let mut s2 = conn.session();
    let h1 = std::thread::spawn(move || s1.sleep_ms(400));
    let h2 = std::thread::spawn(move || s2.sleep_ms(400));
    // Wait until both sleeps are in flight on the connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if server.stats().requests_in_flight >= 2 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "sleeps never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut probe = conn.session();
    let err = probe.ping().unwrap_err();
    assert!(err.is_busy(), "expected per-stream Busy, got: {err}");
    // A fresh connection has its own budget and sails through.
    let mut other = connect_tcp(addr).unwrap();
    other.ping().unwrap();
    h1.join().unwrap().unwrap();
    h2.join().unwrap().unwrap();
    // Budget released: the same connection works again.
    probe.ping().unwrap();
    server.shutdown();
}

#[test]
fn multiplexing_stress() {
    // Scaled by RX_STRESS_THREADS (CI's contended-storage job sets it);
    // defaults small enough for a laptop test run.
    let sessions: usize = std::env::var("RX_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let (server, addr) = start_server(4, 256);
    let conn = connect_tcp_multiplexed(
        addr,
        ConnectOptions {
            max_streams: sessions as u32,
            ..ConnectOptions::default()
        },
    )
    .unwrap();
    let mut handles = Vec::new();
    for owner in 0..sessions {
        let mut s = conn.session();
        handles.push(std::thread::spawn(move || {
            for seq in 0..20 {
                loop {
                    match s.insert_row(
                        "items",
                        vec![
                            ColValue::Str(format!("stress-{owner}-{seq}")),
                            ColValue::Xml(item_xml(owner, seq)),
                        ],
                    ) {
                        Ok(_) => break,
                        Err(e) if e.is_busy() => std::thread::sleep(Duration::from_millis(1)),
                        Err(e) => panic!("stream {owner} failed: {e}"),
                    }
                }
                if seq % 4 == 3 {
                    s.query("items", "doc", "/item/owner").unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut verify = conn.session();
    let hits = verify.query("items", "doc", "/item/seq").unwrap();
    assert_eq!(hits.len(), sessions * 20, "lost inserts under multiplexing");
    server.shutdown();
}

/// Far longer than any wait these tests expect: an answer that takes half of
/// it means a request waited on a lock that only the timeout released.
const LONG_LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// A TCP server whose database waits [`LONG_LOCK_TIMEOUT`] for a lock.
fn long_lock_server() -> (Arc<Server>, std::net::SocketAddr) {
    let db = Database::create_in_memory_with(DbConfig {
        lock_timeout: LONG_LOCK_TIMEOUT,
        ..DbConfig::default()
    })
    .unwrap();
    db.create_table(
        "items",
        &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
    )
    .unwrap();
    let server = Server::start(
        db,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    );
    let addr = server.listen(("127.0.0.1", 0)).unwrap();
    (server, addr)
}

fn wait_for_stats(server: &Server, what: &str, pred: impl Fn(&StatsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pred(&server.stats()) {
        assert!(Instant::now() < deadline, "server never reached: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Session A deletes a row in an open transaction, so it holds X on it.
/// Session B, on the same connection, fetches the row; B's fetch cannot run
/// inline (its S lock is refused) and waits on a worker. A then ends its
/// transaction on the same connection. Returns B's answer and how long it
/// took.
fn fetch_behind_a_writer(
    server: &Server,
    conn: &Connection,
    commit: bool,
) -> (
    Result<Option<system_rx::engine::Row>, ClientError>,
    Duration,
) {
    let mut setup = conn.session();
    let doc = setup
        .insert_row(
            "items",
            vec![
                ColValue::Str("held".into()),
                ColValue::Xml("<item/>".into()),
            ],
        )
        .unwrap();
    let mut a = conn.session();
    let mut b = conn.session();
    a.begin().unwrap();
    assert!(a.delete_row("items", doc).unwrap());
    let waits = server.stats().db.lock_waits;
    let started = Instant::now();
    let fetch = std::thread::spawn(move || (b.fetch_row("items", doc), started.elapsed()));
    wait_for_stats(server, "B's fetch waiting for its lock on a worker", |s| {
        s.db.lock_waits > waits
    });
    if commit {
        a.commit().unwrap();
    } else {
        a.rollback().unwrap();
    }
    fetch.join().unwrap()
}

fn assert_fetch_never_waits_on_the_reader(server: &Server, conn: &Connection) {
    let (row, took) = fetch_behind_a_writer(server, conn, true);
    assert!(
        matches!(row, Ok(None)),
        "the delete committed, so the row is gone: {row:?}"
    );
    assert!(took < LONG_LOCK_TIMEOUT / 2, "B waited {took:?}");
    let (row, took) = fetch_behind_a_writer(server, conn, false);
    let row = row
        .unwrap()
        .expect("the delete rolled back, so the row is back");
    assert_eq!(row.values[0], "held");
    assert!(took < LONG_LOCK_TIMEOUT / 2, "B waited {took:?}");
    assert_eq!(server.stats().db.lock_timeouts, 0);
}

#[test]
fn inline_fetch_never_waits_for_a_lock_over_tcp() {
    let (server, addr) = long_lock_server();
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).unwrap();
    assert_fetch_never_waits_on_the_reader(&server, &conn);
    server.shutdown();
}

#[test]
fn inline_fetch_never_waits_for_a_lock_in_process() {
    let (server, _addr) = long_lock_server();
    let conn = server
        .connect_multiplexed(ConnectOptions::default())
        .unwrap();
    assert_fetch_never_waits_on_the_reader(&server, &conn);
    server.shutdown();
}

/// A raw protocol-v2 client, for pipelining several requests on one
/// stream (a [`Session`] has at most one in flight).
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    codec: FrameCodec,
}

impl RawConn {
    fn open(addr: std::net::SocketAddr) -> RawConn {
        let mut writer = TcpStream::connect(addr).unwrap();
        writer
            .set_read_timeout(Some(LONG_LOCK_TIMEOUT / 2))
            .unwrap();
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        let codec = FrameCodec::new(system_rx::server::proto::MAX_FRAME);
        let hello = Hello {
            version: system_rx::server::proto::PROTO_VERSION,
            max_streams: 8,
            max_frame: system_rx::server::proto::MAX_FRAME as u64,
        };
        codec.write_handshake(&mut writer, &hello.encode()).unwrap();
        let ack = codec.read_handshake(&mut reader).unwrap().unwrap();
        HelloAck::decode(&ack).unwrap();
        RawConn {
            reader,
            writer,
            codec,
        }
    }

    fn send(&mut self, stream: u32, req: &Request) {
        self.codec
            .write(&mut self.writer, &Frame::data(stream, req.encode()))
            .unwrap();
    }

    /// The next response; a read that outlives half the lock timeout fails.
    fn recv(&mut self) -> (u32, Response) {
        let frame = self
            .codec
            .read(&mut self.reader)
            .expect("no answer within half the lock timeout")
            .expect("connection closed");
        (frame.stream, Response::decode(&frame.payload).unwrap())
    }
}

#[test]
fn pipelined_fetches_on_a_busy_stream_never_block_the_reader() {
    let (server, addr) = long_lock_server();
    let mut raw = RawConn::open(addr);
    let (a, b) = (1, 2);
    let items = || "items".to_string();
    raw.send(
        a,
        &Request::InsertRow {
            table: items(),
            values: vec![
                ColValue::Str("held".into()),
                ColValue::Xml("<item/>".into()),
            ],
        },
    );
    let Response::Doc(doc) = raw.recv().1 else {
        panic!("insert failed")
    };
    raw.send(a, &Request::Begin);
    assert_eq!(raw.recv(), (a, Response::Unit));
    raw.send(
        a,
        &Request::DeleteRow {
            table: items(),
            doc,
        },
    );
    assert_eq!(raw.recv(), (a, Response::Deleted(true)));
    // Two fetches pipelined on stream B: the first waits for the lock on a
    // worker while holding B's session; the second finds the session busy
    // and must go to a worker too rather than wait on the reader thread.
    let fetch = Request::FetchRow {
        table: items(),
        doc,
    };
    let waits = server.stats().db.lock_waits;
    raw.send(b, &fetch);
    raw.send(b, &fetch);
    wait_for_stats(&server, "both fetches on workers", |s| {
        s.db.lock_waits > waits && s.requests_in_flight == 2
    });
    let started = Instant::now();
    raw.send(a, &Request::Commit);
    let mut answers: Vec<(u32, Response)> = (0..3).map(|_| raw.recv()).collect();
    answers.sort_by_key(|(stream, _)| *stream);
    assert_eq!(
        answers,
        vec![
            (a, Response::Unit),
            (b, Response::Row(None)),
            (b, Response::Row(None)),
        ]
    );
    assert!(started.elapsed() < LONG_LOCK_TIMEOUT / 2);
    assert_eq!(server.stats().db.lock_timeouts, 0);
    server.shutdown();
}

#[test]
fn sixteen_sessions_on_one_connection_each_get_their_own_answers() {
    const SESSIONS: usize = 16;
    let (server, addr) = start_server(4, 256);
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).unwrap();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|owner| {
            let mut s = conn.session();
            std::thread::spawn(move || {
                let sku = format!("own-{owner}");
                let doc = s
                    .insert_row(
                        "items",
                        vec![
                            ColValue::Str(sku.clone()),
                            ColValue::Xml(item_xml(owner, 0)),
                        ],
                    )
                    .unwrap();
                for round in 0..25 {
                    match round % 4 {
                        0 => s.ping().unwrap(),
                        1 => {
                            let row = s.fetch_row("items", doc).unwrap().unwrap();
                            assert_eq!(row.values[0], sku);
                        }
                        2 => {
                            let path = format!("/item[owner = {owner}]/owner");
                            let hits = s.query("items", "doc", &path).unwrap();
                            assert_eq!(hits.len(), 1, "{path}");
                            assert_eq!(hits[0].doc, doc);
                            assert_eq!(hits[0].value, owner.to_string());
                        }
                        _ => s.sleep_ms((owner % 3) as u32).unwrap(),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.stats().connections, 1);
    server.shutdown();
}

#[test]
fn shutdown_releases_every_waiting_session() {
    let (server, addr) = start_server(2, 64);
    let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).unwrap();
    let waiters: Vec<_> = (0..8)
        .map(|i| {
            let mut s = conn.session();
            std::thread::spawn(move || {
                let started = Instant::now();
                let mut outcomes = Vec::new();
                // Keep calling until the server is gone.
                loop {
                    let r = if i % 2 == 0 { s.sleep_ms(20) } else { s.ping() };
                    match r {
                        Ok(()) => outcomes.push("ok"),
                        Err(ClientError::Closed | ClientError::ShuttingDown) => break,
                        Err(ClientError::Io(_)) => break,
                        Err(e) => panic!("unexpected {e}"),
                    }
                    assert!(started.elapsed() < Duration::from_secs(20));
                }
                started.elapsed()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    for w in waiters {
        let took = w.join().unwrap();
        assert!(took < Duration::from_secs(15), "a waiter took {took:?}");
    }
}
