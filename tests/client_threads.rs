//! Opening a client connection starts no thread: the sessions waiting for
//! replies take turns reading the socket (leader/follower). This file holds
//! one test, so no sibling test changes the process's thread count while
//! it runs.

#![cfg(target_os = "linux")]

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use system_rx::server::proto::{FLAG_END_STREAM, MAX_FRAME, PROTO_VERSION};
use system_rx::server::{ConnectOptions, Connection, Frame, FrameCodec, Hello, HelloAck, Response};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn opening_a_connection_starts_no_thread() {
    // A single-threaded fake server, started before the count: it answers
    // every request with a pong until the client hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let codec = FrameCodec::new(MAX_FRAME);
        let hello = codec.read_handshake(&mut reader).unwrap().unwrap();
        let hello = Hello::decode(&hello).unwrap();
        let ack = HelloAck {
            version: PROTO_VERSION,
            max_streams: hello.max_streams,
            max_frame: MAX_FRAME as u64,
        };
        codec.write_handshake(&mut writer, &ack.encode()).unwrap();
        while let Ok(Some(frame)) = codec.read(&mut reader) {
            if frame.flags & FLAG_END_STREAM != 0 {
                continue;
            }
            let pong = Frame::data(frame.stream, Response::Pong.encode());
            codec.write(&mut writer, &pong).unwrap();
        }
    });
    let before = threads();
    let stream = TcpStream::connect(addr).unwrap();
    let conn = Connection::establish(stream, ConnectOptions::default()).unwrap();
    let mut sessions: Vec<_> = (0..4).map(|_| conn.session()).collect();
    for s in &mut sessions {
        s.ping().unwrap();
    }
    assert_eq!(threads(), before, "the connection started a thread");
    drop(sessions);
    drop(conn);
    server.join().unwrap();
}
