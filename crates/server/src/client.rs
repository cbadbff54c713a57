//! The client side of the wire protocol: a shared [`Connection`] that
//! multiplexes many concurrent [`Session`]s over one byte stream.
//!
//! A [`Connection`] owns the socket: a writer mutex serializes request
//! frames, and a background router thread reads response frames and hands
//! each to the session whose stream id it carries. [`Session`] handles are
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
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc};

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

/// One-shot response routes, keyed by stream id, plus the reason the
/// connection died (set once by the router thread).
struct Pending {
    routes: HashMap<u32, mpsc::Sender<Vec<u8>>>,
    dead: bool,
}

/// Shared state behind a [`Connection`] and all of its [`Session`]s.
struct ConnInner {
    writer: Mutex<Box<dyn Write + Send>>,
    codec: FrameCodec,
    pending: Arc<Mutex<Pending>>,
    closed: Arc<AtomicBool>,
    closer: Closer,
    next_stream: AtomicU32,
    max_streams: u32,
}

impl Drop for ConnInner {
    fn drop(&mut self) {
        // Hang up so the router thread unparks and exits.
        self.closed.store(true, Ordering::SeqCst);
        (self.closer)();
    }
}

/// A multiplexed protocol-v2 connection: one socket, many concurrent
/// [`Session`]s. Cloning is cheap and shares the socket; the socket closes
/// when the last clone and all sessions are gone.
#[derive(Clone)]
pub struct Connection {
    inner: Arc<ConnInner>,
}

impl Connection {
    /// Send a [`Hello`] on `stream` and start routing responses once the
    /// server acknowledges protocol v2. A refusal comes back as the server's
    /// error ([`ClientError::Server`] with `UnsupportedVersion`); an
    /// acknowledgement of any other version is a [`ClientError::Protocol`].
    pub fn establish<S: Transport>(
        stream: S,
        opts: ConnectOptions,
    ) -> Result<Connection, ClientError> {
        let (mut reader, mut writer, closer) = stream.into_split()?;
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
        Ok(Connection::from_parts(
            reader,
            writer,
            closer,
            ack.max_streams,
            max_frame,
        ))
    }

    fn from_parts<R: Read + Send + 'static>(
        reader: R,
        writer: impl Write + Send + 'static,
        closer: Closer,
        max_streams: u32,
        max_frame: usize,
    ) -> Connection {
        let pending = Arc::new(Mutex::new(Pending {
            routes: HashMap::new(),
            dead: false,
        }));
        let closed = Arc::new(AtomicBool::new(false));
        let inner = Arc::new(ConnInner {
            writer: Mutex::new(Box::new(writer)),
            codec: FrameCodec::new(max_frame),
            pending: Arc::clone(&pending),
            closed: Arc::clone(&closed),
            closer,
            next_stream: AtomicU32::new(1),
            max_streams,
        });
        // The router holds only the pending map and the closed flag — not
        // the inner — so dropping the last user handle hangs up the socket
        // and lets this thread exit.
        let codec = FrameCodec::new(max_frame);
        std::thread::Builder::new()
            .name("rx-client-router".into())
            .spawn(move || {
                let mut reader = reader;
                loop {
                    if closed.load(Ordering::SeqCst) {
                        break;
                    }
                    match codec.read(&mut reader) {
                        Ok(Some(frame)) => {
                            let route = pending.lock().routes.remove(&frame.stream);
                            if let Some(tx) = route {
                                let _ = tx.send(frame.payload);
                            }
                        }
                        _ => break,
                    }
                }
                let mut p = pending.lock();
                p.dead = true;
                p.routes.clear(); // wakes every parked caller with Closed
            })
            .expect("spawn client router");
        Connection { inner }
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
        let (tx, rx) = mpsc::channel();
        {
            let mut p = self.inner.pending.lock();
            if p.dead {
                return Err(ClientError::Closed);
            }
            p.routes.insert(self.stream, tx);
        }
        let frame = Frame::data(self.stream, req.encode());
        if let Err(e) = self
            .inner
            .codec
            .write(&mut *self.inner.writer.lock(), &frame)
        {
            self.inner.pending.lock().routes.remove(&self.stream);
            return Err(ClientError::Io(e));
        }
        let payload = rx.recv().map_err(|_| ClientError::Closed)?;
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
        self.inner.pending.lock().routes.remove(&self.stream);
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
