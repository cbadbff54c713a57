//! Protocol v2 wire-level tests: property-based frame round-trips,
//! frame-size-bound enforcement, handshake negotiation (v2, future-version
//! requests, refusal of peers that skip the handshake or ask for an earlier
//! version), and responses too large for the frame bound.

use proptest::prelude::*;
use std::io::{Cursor, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use system_rx::engine::{ColValue, ColumnKind, Database};
use system_rx::server::{
    connect_tcp, connect_tcp_multiplexed, ClientError, ConnectOptions, Connection, ErrorCode,
    Frame, FrameCodec, Hello, HelloAck, Hit, Request, Response, Server, ServerConfig, Session,
};

// ---------------------------------------------------------------------------
// Frame codec properties
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn v2_frames_round_trip(
        stream in any::<u32>(),
        flags in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let codec = FrameCodec::new(1 << 20);
        let frame = Frame { stream, flags, payload };
        let mut wire = Vec::new();
        codec.write(&mut wire, &frame).unwrap();
        let mut r = Cursor::new(wire);
        let back = codec.read(&mut r).unwrap().expect("frame must decode");
        prop_assert_eq!(back.stream, frame.stream);
        prop_assert_eq!(back.flags, frame.flags);
        prop_assert_eq!(back.payload, frame.payload);
        // And the stream ends cleanly after exactly one frame.
        prop_assert!(codec.read(&mut r).unwrap().is_none());
    }

    #[test]
    fn back_to_back_v2_frames_never_desync(
        frames in prop::collection::vec(
            (any::<u32>(), any::<u8>(), prop::collection::vec(any::<u8>(), 0..256)),
            1..16,
        ),
    ) {
        let codec = FrameCodec::new(1 << 20);
        let mut wire = Vec::new();
        for (stream, flags, payload) in &frames {
            codec.write(&mut wire, &Frame {
                stream: *stream,
                flags: *flags,
                payload: payload.clone(),
            }).unwrap();
        }
        let mut r = Cursor::new(wire);
        for (stream, flags, payload) in &frames {
            let back = codec.read(&mut r).unwrap().expect("lost a frame");
            prop_assert_eq!(back.stream, *stream);
            prop_assert_eq!(back.flags, *flags);
            prop_assert_eq!(&back.payload, payload);
        }
        prop_assert!(codec.read(&mut r).unwrap().is_none());
    }
}

// ---------------------------------------------------------------------------
// Frame-size bound
// ---------------------------------------------------------------------------

#[test]
fn oversized_frames_rejected_without_allocation() {
    let codec = FrameCodec::new(4096);
    // Write side refuses to emit a frame over the bound.
    let fat = Frame::data(1, vec![0u8; 5000]);
    let mut wire = Vec::new();
    assert!(codec.write(&mut wire, &fat).is_err());
    // Read side rejects a hostile length prefix before allocating: claim
    // 3 GiB with only 8 bytes behind it.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&(3u32 << 30).to_le_bytes());
    hostile.extend_from_slice(&[0u8; 8]);
    let err = codec.read(&mut Cursor::new(hostile)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

// ---------------------------------------------------------------------------
// Handshake negotiation
// ---------------------------------------------------------------------------

fn start_server() -> (Arc<Server>, std::net::SocketAddr) {
    let db = Database::create_in_memory().unwrap();
    db.create_table(
        "items",
        &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
    )
    .unwrap();
    let server = Server::start(
        db,
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            idle_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    let addr = server.listen(("127.0.0.1", 0)).unwrap();
    (server, addr)
}

/// Send `payload` as the first frame of a raw TCP connection, framed as a
/// handshake (length prefix, no stream header), and read the one reply.
fn raw_first_frame(addr: std::net::SocketAddr, payload: &[u8]) -> (TcpStream, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let codec = FrameCodec::new(1 << 20);
    codec.write_handshake(&mut stream, payload).unwrap();
    let reply = codec
        .read_handshake(&mut stream)
        .unwrap()
        .expect("the server must answer the first frame");
    (stream, reply)
}

#[test]
fn handshake_negotiates_v2_by_default() {
    let (server, addr) = start_server();
    let stream = TcpStream::connect(addr).unwrap();
    let conn = Connection::establish(stream, ConnectOptions::default()).unwrap();
    assert_eq!(conn.max_streams(), ConnectOptions::default().max_streams);
    conn.session().ping().unwrap();
    assert_eq!(server.stats().connections, 1);
    server.shutdown();
}

#[test]
fn asking_for_a_future_version_lands_on_v2() {
    let (server, addr) = start_server();
    let hello = Hello {
        version: 9,
        max_streams: 4,
        max_frame: 1 << 20,
    };
    let (mut stream, reply) = raw_first_frame(addr, &hello.encode());
    let ack = HelloAck::decode(&reply).unwrap();
    assert_eq!(ack.version, 2, "server caps at what it speaks");
    assert_eq!(ack.max_streams, 4);
    // The connection now speaks stream frames.
    let codec = FrameCodec::new(1 << 20);
    codec
        .write(&mut stream, &Frame::data(1, Request::Ping.encode()))
        .unwrap();
    let frame = codec.read(&mut stream).unwrap().unwrap();
    assert_eq!(frame.stream, 1);
    assert_eq!(Response::decode(&frame.payload).unwrap(), Response::Pong);
    server.shutdown();
}

#[test]
fn unknown_version_refused_cleanly() {
    let (server, addr) = start_server();
    let hello = Hello {
        version: 0,
        max_streams: 4,
        max_frame: 1 << 20,
    };
    let (_stream, reply) = raw_first_frame(addr, &hello.encode());
    match Response::decode(&reply).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // The refusal did not wedge the server: a well-behaved client connects.
    let mut ok = connect_tcp(addr).unwrap();
    ok.ping().unwrap();
    server.shutdown();
}

#[test]
fn connection_establish_refuses_downgrade() {
    // A peer that acknowledges the Hello with protocol v1: the client must
    // not start multiplexing on a connection that cannot carry it.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let codec = FrameCodec::new(1 << 20);
        let hello = codec.read_handshake(&mut stream).unwrap().unwrap();
        assert_eq!(Hello::decode(&hello).unwrap().version, 2);
        let ack = HelloAck {
            version: 1,
            max_streams: 1,
            max_frame: 1 << 20,
        };
        codec.write_handshake(&mut stream, &ack.encode()).unwrap();
    });
    let err = match connect_tcp_multiplexed(addr, ConnectOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("a v1 acknowledgement must fail Connection::establish"),
    };
    assert!(err.to_string().contains("v1"), "{err}");
    peer.join().unwrap();
}

// ---------------------------------------------------------------------------
// Refusal of peers that skip the handshake or ask for an earlier version
// ---------------------------------------------------------------------------

#[test]
fn first_frames_other_than_a_v2_hello_are_refused() {
    let (server, addr) = start_server();
    let insert = Request::InsertRow {
        table: "items".into(),
        values: vec![
            ColValue::Str("legacy".into()),
            ColValue::Xml("<item><price>9</price></item>".into()),
        ],
    };
    let old_hello = Hello {
        version: 1,
        max_streams: 4,
        max_frame: 1 << 20,
    };
    // What a lockstep (v1) client sends first: a length-prefixed request
    // with no handshake; and a Hello asking for v1.
    let firsts = [
        ("v1 Ping", Request::Ping.encode()),
        ("v1 InsertRow", insert.encode()),
        ("Hello version 1", old_hello.encode()),
    ];
    assert_eq!(firsts[0].1.len(), 1, "a v1 Ping is a 1-byte payload");
    for (what, payload) in &firsts {
        let started = Instant::now();
        let (mut stream, reply) = raw_first_frame(addr, payload);
        match Response::decode(&reply) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.code, ErrorCode::UnsupportedVersion, "{what}: {e:?}")
            }
            other => panic!("{what}: expected one UnsupportedVersion error, got {other:?}"),
        }
        // Exactly one frame, then EOF (a read timeout would be an error).
        let mut rest = Vec::new();
        stream
            .read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("{what}: no EOF after the refusal: {e}"));
        assert!(
            rest.is_empty(),
            "{what}: {} bytes after the refusal",
            rest.len()
        );
        assert!(started.elapsed() < Duration::from_secs(5), "{what}");
        // The server keeps serving other connections.
        connect_tcp(addr).unwrap().ping().unwrap();
    }
    // Nothing a refused peer sent was served.
    let mut c = connect_tcp(addr).unwrap();
    assert!(c.query("items", "doc", "/item").unwrap().is_empty());
    let stats = c.stats().unwrap();
    assert_eq!(stats.connections, 4, "only the v2 clients were served");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Responses larger than the frame bound
// ---------------------------------------------------------------------------

/// Run `query("t", "doc", "/a/b")` on `session` from another thread and
/// wait at most 10 s for the outcome, so a lost response fails the test
/// instead of hanging it.
fn query_with_deadline(mut session: Session) -> (Session, Result<Vec<Hit>, ClientError>) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let r = session.query("t", "doc", "/a/b");
        let _ = tx.send((session, r));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the query never got an answer")
}

fn big_value_server(max_frame_bytes: usize) -> (Arc<Server>, std::net::SocketAddr) {
    let db = Database::create_in_memory().unwrap();
    db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
    let server = Server::start(
        db,
        ServerConfig {
            workers: 2,
            max_frame_bytes,
            ..ServerConfig::default()
        },
    );
    let addr = server.listen(("127.0.0.1", 0)).unwrap();
    let mut c = connect_tcp(addr).unwrap();
    for i in 0..4 {
        let value = format!("{i}").repeat(600);
        c.insert_row("t", vec![ColValue::Xml(format!("<a><b>{value}</b></a>"))])
            .unwrap();
    }
    (server, addr)
}

fn assert_frame_bound_error(r: Result<Vec<Hit>, ClientError>) {
    match r {
        Err(ClientError::Server(e)) => {
            assert!(e.message.contains("frame bound"), "{e:?}")
        }
        other => panic!("expected a frame-bound error, got {other:?}"),
    }
}

#[test]
fn oversized_response_is_an_error_not_a_hang() {
    // The server's own bound: four 600-byte values do not fit 1 KiB.
    let (server, addr) = big_value_server(1024);
    let (mut s, r) = query_with_deadline(connect_tcp(addr).unwrap());
    assert_frame_bound_error(r);
    // The session still works afterwards.
    s.ping().unwrap();
    assert!(s.query("t", "doc", "/a/c").unwrap().is_empty());
    server.shutdown();
}

#[test]
fn responses_respect_the_bound_the_client_advertises() {
    // The server could send it, but the client said it reads at most
    // 1 KiB: the answer is an error on that stream, and the connection
    // (with every sibling session) survives.
    let (server, addr) = big_value_server(system_rx::server::proto::MAX_FRAME);
    let conn = connect_tcp_multiplexed(
        addr,
        ConnectOptions {
            max_frame_bytes: 1024,
            ..ConnectOptions::default()
        },
    )
    .unwrap();
    let mut sibling = conn.session();
    let (mut s, r) = query_with_deadline(conn.session());
    assert_frame_bound_error(r);
    s.ping().unwrap();
    sibling.ping().unwrap();
    server.shutdown();
}
