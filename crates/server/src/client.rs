//! The client side of the wire protocol: a shared [`Connection`] that
//! multiplexes many concurrent [`Session`]s over one byte stream.
//!
//! A [`Connection`] owns the socket: a writer mutex serializes request
//! frames, and the sessions waiting for replies take turns reading them
//! (leader/follower). One waiting session, the leader, reads the socket;
//! it leaves every other stream's reply in that session's slot and wakes
//! only that session, and when its own reply arrives it returns and hands
//! the reader role to one session still waiting. No thread is started for
//! a connection. [`Session`] handles are
//! cheap (an `Arc` clone plus a stream id); every session gets independent
//! transaction state server-side. Responses may complete out of order
//! across sessions — that is the point — while each session itself stays
//! blocking and in order.
//!
//! [`Session`] is the one blocking request API. A session keeps its
//! connection alive, so a caller that wants a single session on a
//! connection of its own (`connect_tcp`, `Server::connect`) just holds the
//! session.

use crate::proto::{
    self, ErrorCode, Frame, FrameCodec, Hello, HelloAck, Hit, Request, Response, WireError,
};
use crate::stats::StatsSnapshot;
use crate::transport::{Closer, Transport};
use parking_lot::Mutex;
use rx_engine::{ColValue, Row};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::Thread;

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The admission queue (or the connection's stream budget) was full;
    /// retry later.
    Busy,
    /// The server is draining; reconnect elsewhere.
    ShuttingDown,
    /// This session was reaped after idling past the timeout.
    SessionExpired,
    /// Any other server-reported failure.
    Server(WireError),
    /// The peer sent bytes we could not decode.
    Protocol(String),
    /// The connection died.
    Io(io::Error),
    /// The server closed the connection mid-call.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Busy => write!(f, "server busy (admission queue full)"),
            ClientError::ShuttingDown => write!(f, "server shutting down"),
            ClientError::SessionExpired => write!(f, "session expired"),
            ClientError::Server(e) => write!(f, "server error ({:?}): {}", e.code, e.message),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Closed => write!(f, "connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True for [`ClientError::Busy`] — the caller should back off and
    /// retry.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy)
    }
}

fn error_response(err: WireError) -> ClientError {
    match err.code {
        ErrorCode::Busy => ClientError::Busy,
        ErrorCode::ShuttingDown => ClientError::ShuttingDown,
        ErrorCode::SessionExpired => ClientError::SessionExpired,
        _ => ClientError::Server(err),
    }
}

fn decode_response(payload: &[u8]) -> Result<Response, ClientError> {
    match Response::decode(payload).map_err(ClientError::Protocol)? {
        Response::Error(err) => Err(error_response(err)),
        resp => Ok(resp),
    }
}

/// How to open a connection: how many concurrent streams to ask for, and
/// the frame-size bound to enforce.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// Concurrent in-flight requests to ask for; the server may grant
    /// less, never more than its own budget.
    pub max_streams: u32,
    /// Frame-payload bound: larger length prefixes are a protocol error
    /// instead of an allocation attempt. The effective bound is the
    /// smaller of this and what the server advertises.
    pub max_frame_bytes: usize,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            max_streams: 32,
            max_frame_bytes: proto::MAX_FRAME,
        }
    }
}

/// Where one calling session's reply stands.
enum Reply {
    /// The caller is still writing its request.
    Sending,
    /// The caller waits as a follower, parked.
    Waiting,
    /// The leader read the reply off the socket and left it here.
    Ready(Vec<u8>),
}

/// One calling session: its reply and the thread to wake when it lands.
struct Slot {
    reply: Reply,
    waker: Thread,
}

/// Leader/follower demultiplexing state. At most one calling session, the
/// leader, reads the socket; it drops the replies of other streams into
/// their slots and wakes just that caller. A reply for a stream with no
/// slot (its session is gone) is discarded.
struct Demux {
    slots: HashMap<u32, Slot>,
    leader: bool,
    /// Set once, when the socket hits EOF or an error.
    dead: bool,
}

impl Demux {
    /// Pass the reader role on: wake one parked follower, which finds no
    /// leader and takes the role. A caller still writing its request is not
    /// chosen (its write may be what the peer waits on); it finds no leader
    /// itself once the write returns.
    fn hand_off(&self) {
        if let Some(slot) = self
            .slots
            .values()
            .find(|slot| matches!(slot.reply, Reply::Waiting))
        {
            slot.waker.unpark();
        }
    }
}

/// Shared state behind a [`Connection`] and all of its [`Session`]s.
struct ConnInner {
    writer: Mutex<Box<dyn Write + Send>>,
    /// The buffered read half; only the leader locks it.
    reader: Mutex<Box<dyn Read + Send>>,
    codec: FrameCodec,
    demux: Mutex<Demux>,
    closer: Closer,
    next_stream: AtomicU32,
    max_streams: u32,
}

impl Drop for ConnInner {
    fn drop(&mut self) {
        (self.closer)();
    }
}

impl ConnInner {
    /// Wait for the reply on `stream`, whose slot the caller registered
    /// before writing its request: take it if a leader already delivered
    /// it, read the socket as the leader if nobody does, or park as a
    /// follower until one of the two happens.
    fn wait(&self, stream: u32) -> Result<Vec<u8>, ClientError> {
        let mut d = self.demux.lock();
        loop {
            let ready = matches!(d.slots[&stream].reply, Reply::Ready(_));
            if ready || d.dead {
                return match d.slots.remove(&stream).map(|slot| slot.reply) {
                    Some(Reply::Ready(payload)) => Ok(payload),
                    _ => Err(ClientError::Closed),
                };
            }
            if !d.leader {
                d.leader = true;
                drop(d);
                return self.lead(stream);
            }
            if let Some(slot) = d.slots.get_mut(&stream) {
                slot.reply = Reply::Waiting;
            }
            drop(d);
            std::thread::park();
            d = self.demux.lock();
        }
    }

    /// Read frames as the leader until `stream`'s own reply arrives, then
    /// hand the reader role to a remaining caller.
    fn lead(&self, stream: u32) -> Result<Vec<u8>, ClientError> {
        let mut reader = self.reader.lock();
        loop {
            let frame = self.codec.read(&mut *reader);
            let mut d = self.demux.lock();
            match frame {
                Ok(Some(frame)) if frame.stream == stream => {
                    // Release the socket before the next leader wants it.
                    drop(reader);
                    d.slots.remove(&stream);
                    d.leader = false;
                    d.hand_off();
                    return Ok(frame.payload);
                }
                Ok(Some(frame)) => {
                    if let Some(slot) = d.slots.get_mut(&frame.stream) {
                        slot.reply = Reply::Ready(frame.payload);
                        slot.waker.unpark();
                    }
                }
                _ => {
                    drop(reader);
                    d.dead = true;
                    d.leader = false;
                    d.slots.remove(&stream);
                    for slot in d.slots.values() {
                        slot.waker.unpark();
                    }
                    return Err(ClientError::Closed);
                }
            }
        }
    }
}

/// A multiplexed protocol-v2 connection: one socket, many concurrent
/// [`Session`]s. Cloning is cheap and shares the socket; the socket closes
/// when the last clone and all sessions are gone. A connection starts no
/// thread: calling sessions take turns reading the socket.
#[derive(Clone)]
pub struct Connection {
    inner: Arc<ConnInner>,
}

impl Connection {
    /// Send a [`Hello`] and return the connection once the server
    /// acknowledges protocol v2. A refusal comes back as the server's
    /// error ([`ClientError::Server`] with `UnsupportedVersion`); an
    /// acknowledgement of any other version is a [`ClientError::Protocol`].
    pub fn establish<S: Transport>(
        stream: S,
        opts: ConnectOptions,
    ) -> Result<Connection, ClientError> {
        let (reader, mut writer, closer) = stream.into_split()?;
        // Buffered, so a frame costs one `read` call rather than three.
        let mut reader = BufReader::new(reader);
        let codec = FrameCodec::new(opts.max_frame_bytes);
        let hello = Hello {
            version: proto::PROTO_VERSION,
            max_streams: opts.max_streams,
            max_frame: opts.max_frame_bytes as u64,
        };
        codec.write_handshake(&mut writer, &hello.encode())?;
        let reply = codec
            .read_handshake(&mut reader)?
            .ok_or(ClientError::Closed)?;
        // Anything but an ack is the server's refusal (or garbage).
        let ack = HelloAck::decode(&reply).map_err(|msg| {
            decode_response(&reply)
                .err()
                .unwrap_or(ClientError::Protocol(msg))
        })?;
        if ack.version != proto::PROTO_VERSION {
            return Err(ClientError::Protocol(format!(
                "server negotiated protocol v{}; this client speaks only v{}",
                ack.version,
                proto::PROTO_VERSION
            )));
        }
        let max_frame = opts.max_frame_bytes.min(ack.max_frame as usize).max(1024);
        Ok(Connection {
            inner: Arc::new(ConnInner {
                writer: Mutex::new(Box::new(writer)),
                reader: Mutex::new(Box::new(reader)),
                codec: FrameCodec::new(max_frame),
                demux: Mutex::new(Demux {
                    slots: HashMap::new(),
                    leader: false,
                    dead: false,
                }),
                closer,
                next_stream: AtomicU32::new(1),
                max_streams: ack.max_streams,
            }),
        })
    }

    /// Open a new session (stream) on this connection. Cheap: no round
    /// trip; the server materializes the stream's session on its first
    /// request.
    pub fn session(&self) -> Session {
        let stream = self.inner.next_stream.fetch_add(1, Ordering::Relaxed);
        Session {
            inner: Arc::clone(&self.inner),
            stream,
        }
    }

    /// The stream budget the server granted at handshake.
    pub fn max_streams(&self) -> u32 {
        self.inner.max_streams
    }
}

/// One logical stream on a [`Connection`]: independent server-side
/// transaction state, blocking calls, one request in flight per session.
/// Run sessions from different threads (or pipeline across several
/// sessions) to overlap requests on the shared connection. Dropping a
/// session tells the server to close its stream (rolling back any open
/// transaction).
pub struct Session {
    inner: Arc<ConnInner>,
    stream: u32,
}

impl Session {
    /// The stream id this session occupies on its connection.
    pub fn stream_id(&self) -> u32 {
        self.stream
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        // Register before writing: the reply may be read by another
        // session's leader before the write call returns.
        {
            let mut d = self.inner.demux.lock();
            if d.dead {
                return Err(ClientError::Closed);
            }
            d.slots.insert(
                self.stream,
                Slot {
                    reply: Reply::Sending,
                    waker: std::thread::current(),
                },
            );
        }
        let frame = Frame::data(self.stream, req.encode());
        if let Err(e) = self
            .inner
            .codec
            .write(&mut *self.inner.writer.lock(), &frame)
        {
            self.inner.demux.lock().slots.remove(&self.stream);
            return Err(ClientError::Io(e));
        }
        let payload = self.inner.wait(self.stream)?;
        decode_response(&payload)
    }

    /// Open an explicit transaction on this session.
    pub fn begin(&mut self) -> Result<(), ClientError> {
        want_unit(self.call(&Request::Begin)?)
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> Result<(), ClientError> {
        want_unit(self.call(&Request::Commit)?)
    }

    /// Roll back the open transaction.
    pub fn rollback(&mut self) -> Result<(), ClientError> {
        want_unit(self.call(&Request::Rollback)?)
    }

    /// Insert a row; returns its DocID.
    pub fn insert_row(&mut self, table: &str, values: Vec<ColValue>) -> Result<u64, ClientError> {
        want_doc(self.call(&Request::InsertRow {
            table: table.to_string(),
            values,
        })?)
    }

    /// Fetch a row by DocID (`None` when the id is unknown).
    pub fn fetch_row(&mut self, table: &str, doc: u64) -> Result<Option<Row>, ClientError> {
        want_row(self.call(&Request::FetchRow {
            table: table.to_string(),
            doc,
        })?)
    }

    /// Delete a row by DocID; returns whether it existed.
    pub fn delete_row(&mut self, table: &str, doc: u64) -> Result<bool, ClientError> {
        want_deleted(self.call(&Request::DeleteRow {
            table: table.to_string(),
            doc,
        })?)
    }

    /// Evaluate an XPath over one XML column.
    pub fn query(
        &mut self,
        table: &str,
        column: &str,
        path: &str,
    ) -> Result<Vec<Hit>, ClientError> {
        want_hits(self.call(&Request::Query {
            table: table.to_string(),
            column: column.to_string(),
            path: path.to_string(),
        })?)
    }

    /// Fetch the server's counter snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        want_stats(self.call(&Request::Stats)?)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        want_pong(self.call(&Request::Ping)?)
    }

    /// Diagnostic: hold a worker slot for `millis` (admission-control
    /// testing).
    pub fn sleep_ms(&mut self, millis: u32) -> Result<(), ClientError> {
        want_unit(self.call(&Request::Sleep { millis })?)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Best effort: tell the server to close this stream's session.
        let _ = self.inner.codec.write(
            &mut *self.inner.writer.lock(),
            &Frame::end_stream(self.stream),
        );
    }
}

fn unexpected<T>(other: Response) -> Result<T, ClientError> {
    Err(ClientError::Protocol(format!("unexpected reply {other:?}")))
}

fn want_unit(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::Unit => Ok(()),
        other => unexpected(other),
    }
}

fn want_doc(resp: Response) -> Result<u64, ClientError> {
    match resp {
        Response::Doc(doc) => Ok(doc),
        other => unexpected(other),
    }
}

fn want_row(resp: Response) -> Result<Option<Row>, ClientError> {
    match resp {
        Response::Row(row) => Ok(row),
        other => unexpected(other),
    }
}

fn want_deleted(resp: Response) -> Result<bool, ClientError> {
    match resp {
        Response::Deleted(ok) => Ok(ok),
        other => unexpected(other),
    }
}

fn want_hits(resp: Response) -> Result<Vec<Hit>, ClientError> {
    match resp {
        Response::Hits(hits) => Ok(hits),
        other => unexpected(other),
    }
}

fn want_stats(resp: Response) -> Result<StatsSnapshot, ClientError> {
    match resp {
        Response::Stats(s) => Ok(*s),
        other => unexpected(other),
    }
}

fn want_pong(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::Pong => Ok(()),
        other => unexpected(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FLAG_END_STREAM;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// A one-connection fake server: acknowledges the handshake, then runs
    /// `serve` over the socket on a thread of its own.
    fn fake_server(
        serve: impl FnOnce(&FrameCodec, &mut BufReader<TcpStream>, &mut TcpStream) + Send + 'static,
    ) -> Connection {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let codec = FrameCodec::new(proto::MAX_FRAME);
            let hello = codec.read_handshake(&mut reader).unwrap().unwrap();
            let hello = Hello::decode(&hello).unwrap();
            let ack = HelloAck {
                version: proto::PROTO_VERSION,
                max_streams: hello.max_streams,
                max_frame: proto::MAX_FRAME as u64,
            };
            codec.write_handshake(&mut writer, &ack.encode()).unwrap();
            serve(&codec, &mut reader, &mut writer);
        });
        let stream = TcpStream::connect(addr).unwrap();
        Connection::establish(stream, ConnectOptions::default()).unwrap()
    }

    fn pong(codec: &FrameCodec, w: &mut TcpStream, stream: u32) {
        let frame = Frame::data(stream, Response::Pong.encode());
        codec.write(w, &frame).unwrap();
    }

    #[test]
    fn a_forced_close_releases_every_waiting_session() {
        const WAITERS: usize = 8;
        // Read every request, answer none, then hang up.
        let conn = fake_server(|codec, r, w| {
            let mut requests = 0;
            while requests < WAITERS {
                let frame = codec.read(r).unwrap().unwrap();
                if frame.flags & FLAG_END_STREAM == 0 {
                    requests += 1;
                }
            }
            w.shutdown(std::net::Shutdown::Both).unwrap();
        });
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let mut s = conn.session();
                std::thread::spawn(move || {
                    let started = Instant::now();
                    (s.ping(), started.elapsed())
                })
            })
            .collect();
        for w in waiters {
            let (r, took) = w.join().unwrap();
            assert!(matches!(r, Err(ClientError::Closed)), "{r:?}");
            assert!(took < Duration::from_secs(5), "a waiter took {took:?}");
        }
        // The connection stays dead for later calls.
        assert!(matches!(conn.session().ping(), Err(ClientError::Closed)));
    }

    #[test]
    fn a_late_reply_for_a_dropped_session_is_discarded() {
        let conn = fake_server(|codec, r, w| {
            // Answer the first ping, and once its session has ended the
            // stream, answer it a second time.
            let first = codec.read(r).unwrap().unwrap();
            pong(codec, w, first.stream);
            let end = codec.read(r).unwrap().unwrap();
            assert_eq!(end.stream, first.stream);
            assert_ne!(end.flags & FLAG_END_STREAM, 0);
            pong(codec, w, first.stream);
            while let Ok(Some(frame)) = codec.read(r) {
                if frame.flags & FLAG_END_STREAM == 0 {
                    pong(codec, w, frame.stream);
                }
            }
        });
        let mut a = conn.session();
        a.ping().unwrap();
        drop(a);
        let mut b = conn.session();
        b.ping().unwrap();
        b.ping().unwrap();
    }

    #[test]
    fn replies_in_reverse_order_reach_their_own_callers() {
        const CALLERS: usize = 6;
        // Collect one request per caller, then answer them last to first,
        // each with its own stream id as the payload's echo.
        let conn = fake_server(|codec, r, w| {
            let mut streams = Vec::new();
            while streams.len() < CALLERS {
                let frame = codec.read(r).unwrap().unwrap();
                if frame.flags & FLAG_END_STREAM == 0 {
                    streams.push(frame.stream);
                }
            }
            for &s in streams.iter().rev() {
                let doc = Response::Doc(u64::from(s));
                codec.write(w, &Frame::data(s, doc.encode())).unwrap();
            }
            while let Ok(Some(_)) = codec.read(r) {}
        });
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                let mut s = conn.session();
                std::thread::spawn(move || {
                    let id = s.stream_id();
                    (id, s.call(&Request::Ping))
                })
            })
            .collect();
        for c in callers {
            let (id, r) = c.join().unwrap();
            assert_eq!(r.unwrap(), Response::Doc(u64::from(id)));
        }
    }
}
