//! The server: a fixed worker pool behind a bounded admission queue,
//! per-connection handler threads that demultiplex protocol streams, a TCP
//! listener, an in-process channel transport, and graceful shutdown.
//!
//! Life of a connection: the handler reads the first frame whole. A
//! [`Hello`] asking for protocol v2 or later is acknowledged and the
//! connection runs the stream demultiplexer; anything else — no `Hello`,
//! or one asking for an earlier version — gets one `UnsupportedVersion`
//! error and is disconnected.
//!
//! Life of a request: the handler decodes frames off a buffered reader —
//! one session per stream, so per-stream transaction state lives in the
//! [`SessionManager`] like any other session. A point fetch or a ping runs
//! inline on the handler thread when it can do so without waiting: the
//! session mutex and the §5.1 locks are only tried, never waited for.
//! Everything else, and an inline candidate that would have to wait, is
//! dispatched as an independent job on the worker pool. A writer mutex
//! serializes responses back; completions may return out of order, tagged
//! by stream id. Two backpressure layers answer `Busy` per-stream instead
//! of stalling the socket: the per-connection `max_streams` in-flight
//! budget (which inline requests occupy too) and the global admission
//! queue.
//!
//! Shutdown: new requests and connections are refused, queued work drains,
//! every connection is force-closed, handler threads exit (closing their
//! sessions), and any session that still holds a transaction is rolled
//! back.

use crate::client::{ClientError, ConnectOptions, Connection, Session};
use crate::proto::{
    self, ErrorCode, Frame, FrameCodec, Hello, HelloAck, Hit, Request, Response, WireError,
    FLAG_END_STREAM,
};
use crate::session::{SessionError, SessionManager};
use crate::stats::{ReqClass, ServerCounters, StatsSnapshot};
use crate::transport::{ChannelStream, Transport};
use parking_lot::{Condvar, Mutex};
use rx_engine::{Database, EngineError};
use rx_xpath::XPathParser;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it get `Busy`.
    pub queue_depth: usize,
    /// Sessions idle longer than this are reaped (open txns rolled back).
    pub idle_timeout: Duration,
    /// Upper bound on concurrent in-flight requests per connection;
    /// a `Hello` may ask for less, never more. Requests beyond the budget
    /// are answered `Busy` on their stream.
    pub max_streams: u32,
    /// Frame-payload bound; larger length prefixes are a protocol error
    /// instead of an allocation attempt. Responses are written under the
    /// smaller of this and the bound the client's `Hello` advertises.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(30),
            max_streams: 32,
            max_frame_bytes: proto::MAX_FRAME,
        }
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// Why a submission was refused.
enum Refused {
    Busy,
    ShuttingDown,
}

struct Inner {
    db: Arc<Database>,
    sessions: SessionManager,
    counters: ServerCounters,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_depth: usize,
    max_streams: u32,
    max_frame: usize,
    shutting_down: AtomicBool,
    in_flight: AtomicUsize,
    /// Live connections by id. A handler removes its own entry when it
    /// exits, so the registry holds only connections still being served.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn: AtomicU64,
    /// Worker / acceptor / reaper threads, joined on shutdown.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A live connection: its force-close hook and its handler thread.
struct ConnEntry {
    close: Box<dyn Fn() + Send>,
    handle: JoinHandle<()>,
}

impl Inner {
    fn submit(&self, job: Job) -> Result<(), Refused> {
        let mut q = self.queue.lock();
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(Refused::ShuttingDown);
        }
        if q.len() >= self.queue_depth {
            return Err(Refused::Busy);
        }
        q.push_back(job);
        drop(q);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Serve `stream` on a handler thread of its own, registered under a
    /// fresh id with `close` as its force-close hook. Refused once shutdown
    /// has begun: the flag is checked under the registry lock that shutdown
    /// drains, so no connection slips in after the drain.
    fn spawn_connection<T: Transport>(
        self: &Arc<Self>,
        name: &str,
        stream: T,
        close: Box<dyn Fn() + Send>,
    ) -> io::Result<()> {
        let mut conns = self.conns.lock();
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "server is shutting down",
            ));
        }
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::clone(self);
        // The handler's exit-time removal waits for this lock, so it always
        // finds the entry inserted below.
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                serve_connection(&inner, stream);
                inner.conns.lock().remove(&id);
            })?;
        conns.insert(id, ConnEntry { close, handle });
        Ok(())
    }

    /// Run `req` on the calling connection reader if it is cheap and can be
    /// answered without waiting. `Ok(None)` hands it to the pool: it is not
    /// a point request, its session is busy with another request, or a §5.1
    /// lock it needs is held by a writer. Inline requests count as in
    /// flight, so a shutdown drain waits for them, and once shutdown has
    /// begun they are refused like pooled ones.
    fn run_inline(&self, session: u64, req: &Request) -> Result<Option<Response>, Refused> {
        if !matches!(req, Request::FetchRow { .. } | Request::Ping) {
            return Ok(None);
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.shutting_down.load(Ordering::SeqCst) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(Refused::ShuttingDown);
        }
        let resp = match req {
            Request::FetchRow { table, doc } => {
                let db = &self.db;
                self.sessions
                    .try_with_txn(session, db, |txn| {
                        let t = db.table(table)?;
                        if !rx_engine::conc::try_lock_document_shared(txn, t.def.id, *doc)? {
                            return Ok(None);
                        }
                        db.fetch_row(&t, *doc).map(Some)
                    })
                    .map(|r| match r {
                        Ok(row) => Response::Row(row),
                        Err(e) => session_error_response(e),
                    })
            }
            _ => Some(Response::Pong),
        };
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        if resp.is_some() {
            self.counters
                .requests_inline
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(resp)
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    self.queue_cv.wait(&mut q);
                }
            };
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            job();
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaves threads running until process exit; call shutdown for a clean
/// drain.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Start workers and the session reaper. No listener yet — use
    /// [`Server::listen`] for TCP and/or [`Server::connect`] for in-process
    /// clients.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> Arc<Server> {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.queue_depth >= 1, "need a positive queue depth");
        assert!(config.max_streams >= 1, "need at least one stream");
        assert!(
            config.max_frame_bytes >= 1024,
            "max_frame_bytes below 1 KiB cannot carry real requests"
        );
        let inner = Arc::new(Inner {
            db,
            sessions: SessionManager::new(config.idle_timeout),
            counters: ServerCounters::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_depth: config.queue_depth,
            max_streams: config.max_streams,
            max_frame: config.max_frame_bytes,
            shutting_down: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::new();
        for i in 0..config.workers {
            let inner2 = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rx-worker-{i}"))
                    .spawn(move || inner2.worker_loop())
                    .expect("spawn worker"),
            );
        }
        // Session reaper: poll a few times per idle window.
        let reap_every =
            (config.idle_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
        {
            let inner2 = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name("rx-reaper".into())
                    .spawn(move || loop {
                        std::thread::sleep(reap_every);
                        if inner2.shutting_down.load(Ordering::SeqCst) {
                            return;
                        }
                        let n = inner2.sessions.expire_idle();
                        if n > 0 {
                            inner2
                                .counters
                                .sessions_expired
                                .fetch_add(n, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn reaper"),
            );
        }
        inner.handles.lock().extend(handles);
        Arc::new(Server { inner })
    }

    /// The database this server fronts.
    pub fn db(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// Bind a TCP listener and accept connections until shutdown. Returns
    /// the bound address (use port 0 for an ephemeral port).
    pub fn listen(&self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("rx-acceptor".into())
            .spawn(move || loop {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nodelay(true);
                        let Ok(clone) = stream.try_clone() else {
                            continue;
                        };
                        let close = Box::new(move || {
                            let _ = clone.shutdown(std::net::Shutdown::Both);
                        });
                        // On refusal (shutdown began, or no thread could be
                        // spawned) the stream is dropped, which hangs up.
                        let _ = inner.spawn_connection("rx-conn", stream, close);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return,
                }
            })?;
        self.inner.handles.lock().push(handle);
        Ok(local)
    }

    /// Open an in-process multiplexed connection speaking the exact same
    /// frame codec as TCP, over a pair of byte channels: one
    /// socket-equivalent, many concurrent [`Session`]s.
    pub fn connect_multiplexed(&self, opts: ConnectOptions) -> io::Result<Connection> {
        let (c2s_tx, c2s_rx) = mpsc::channel::<Vec<u8>>();
        let (s2c_tx, s2c_rx) = mpsc::channel::<Vec<u8>>();
        let closed = Arc::new(AtomicBool::new(false));
        let server_side = ChannelStream::new(s2c_tx, c2s_rx, Arc::clone(&closed));
        let client_side = ChannelStream::new(c2s_tx, s2c_rx, Arc::clone(&closed));
        let close = Box::new(move || closed.store(true, Ordering::SeqCst));
        self.inner
            .spawn_connection("rx-conn-inproc", server_side, close)?;
        Connection::establish(client_side, opts).map_err(client_to_io)
    }

    /// Open an in-process connection carrying a single [`Session`]; the
    /// session keeps the connection alive and closes it when dropped.
    pub fn connect(&self) -> io::Result<Session> {
        Ok(self
            .connect_multiplexed(ConnectOptions::default())?
            .session())
    }

    /// Current counter snapshot (same data the wire `stats` request
    /// returns).
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.inner)
    }

    /// Graceful shutdown: refuse new work, drain queued and in-flight
    /// requests, force-close every connection, join all threads, and roll
    /// back whatever sessions remain. Idempotent.
    pub fn shutdown(&self) {
        // The flag is set under the queue lock: a worker checks it and goes
        // to sleep under that lock, so it either sees the flag or is already
        // waiting when `notify_all` runs, and no wakeup is lost.
        {
            let _queue = self.inner.queue.lock();
            if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
                return;
            }
        }
        self.inner.queue_cv.notify_all();
        // Drain: workers finish everything already admitted.
        let drain_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let empty = self.inner.queue.lock().is_empty();
            if empty && self.inner.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
            if Instant::now() > drain_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Unblock connection handlers so they can exit and close sessions.
        // No connection registers after this drain (see `spawn_connection`).
        let conns: Vec<ConnEntry> = self.inner.conns.lock().drain().map(|(_, c)| c).collect();
        for c in &conns {
            (c.close)();
        }
        for c in conns {
            let _ = c.handle.join();
        }
        loop {
            let handle = self.inner.handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // Anything still open (e.g. sessions whose connection died earlier)
        // is rolled back so no lock outlives the server.
        self.inner.sessions.rollback_all();
    }

    /// Sizes of the connection registry and of the long-lived thread list.
    #[cfg(test)]
    fn registry_sizes(&self) -> (usize, usize) {
        (
            self.inner.conns.lock().len(),
            self.inner.handles.lock().len(),
        )
    }
}

/// Map a client-side establishment failure into the `io::Result` the
/// connect helpers promise.
fn client_to_io(e: ClientError) -> io::Error {
    io::Error::other(e)
}

fn snapshot(inner: &Inner) -> StatsSnapshot {
    StatsSnapshot {
        requests_total: inner.counters.requests_total.load(Ordering::Relaxed),
        requests_rejected: inner.counters.requests_rejected.load(Ordering::Relaxed),
        requests_errored: inner.counters.requests_errored.load(Ordering::Relaxed),
        requests_in_flight: inner.in_flight.load(Ordering::SeqCst) as u64,
        requests_queued: inner.queue.lock().len() as u64,
        sessions_opened: inner.counters.sessions_opened.load(Ordering::Relaxed),
        sessions_expired: inner.counters.sessions_expired.load(Ordering::Relaxed),
        sessions_active: inner.sessions.active(),
        connections: inner.counters.connections.load(Ordering::Relaxed),
        streams_opened: inner.counters.streams_opened.load(Ordering::Relaxed),
        ooo_completions: inner.counters.ooo_completions.load(Ordering::Relaxed),
        requests_inline: inner.counters.requests_inline.load(Ordering::Relaxed),
        latency: std::array::from_fn(|i| inner.counters.latency[i].snapshot()),
        db: inner.db.stats(),
    }
}

fn class_of(req: &Request) -> ReqClass {
    match req {
        Request::Begin | Request::Commit | Request::Rollback => ReqClass::Txn,
        Request::InsertRow { .. } | Request::DeleteRow { .. } => ReqClass::Write,
        Request::FetchRow { .. } | Request::Query { .. } => ReqClass::Read,
        Request::Stats | Request::Ping | Request::Sleep { .. } => ReqClass::Admin,
    }
}

fn engine_error_response(e: &EngineError) -> Response {
    use rx_storage::StorageError;
    let (code, message) = match e {
        EngineError::NotFound { .. } => (ErrorCode::NotFound, e.to_string()),
        EngineError::AlreadyExists { .. } => (ErrorCode::AlreadyExists, e.to_string()),
        EngineError::Invalid(_) => (ErrorCode::Invalid, e.to_string()),
        EngineError::Storage(StorageError::LockTimeout) => (ErrorCode::LockTimeout, e.to_string()),
        EngineError::Storage(StorageError::Deadlock) => (ErrorCode::Deadlock, e.to_string()),
        EngineError::Xml(_) | EngineError::XPath(_) => (ErrorCode::Invalid, e.to_string()),
        _ => (ErrorCode::Internal, e.to_string()),
    };
    Response::Error(WireError { code, message })
}

fn session_error_response(e: SessionError) -> Response {
    match e {
        SessionError::Expired => Response::Error(WireError {
            code: ErrorCode::SessionExpired,
            message: "session expired (idle timeout) or closed".into(),
        }),
        SessionError::NoTxn => Response::Error(WireError {
            code: ErrorCode::Invalid,
            message: "no open transaction on this session".into(),
        }),
        SessionError::TxnOpen => Response::Error(WireError {
            code: ErrorCode::Invalid,
            message: "a transaction is already open on this session".into(),
        }),
        SessionError::Engine(e) => engine_error_response(&e),
    }
}

fn handle_request(inner: &Inner, session: u64, req: Request) -> Response {
    let db = &inner.db;
    let unit = |r: Result<(), SessionError>| match r {
        Ok(()) => Response::Unit,
        Err(e) => session_error_response(e),
    };
    match req {
        Request::Ping => Response::Pong,
        Request::Sleep { millis } => {
            std::thread::sleep(Duration::from_millis(u64::from(millis)));
            Response::Unit
        }
        Request::Stats => Response::Stats(Box::new(snapshot(inner))),
        Request::Begin => unit(inner.sessions.begin(session, db)),
        Request::Commit => unit(inner.sessions.commit(session)),
        Request::Rollback => unit(inner.sessions.rollback(session)),
        Request::InsertRow { table, values } => {
            match inner.sessions.with_txn(session, db, |txn| {
                let t = db.table(&table)?;
                db.insert_row_txn(txn, &t, &values)
            }) {
                Ok(doc) => Response::Doc(doc),
                Err(e) => session_error_response(e),
            }
        }
        Request::FetchRow { table, doc } => {
            match inner.sessions.with_txn(session, db, |txn| {
                let t = db.table(&table)?;
                // §5.1: S-lock the document so the fetch never observes a
                // partially written row.
                rx_engine::conc::lock_document_shared(txn, t.def.id, doc)?;
                db.fetch_row(&t, doc)
            }) {
                Ok(row) => Response::Row(row),
                Err(e) => session_error_response(e),
            }
        }
        Request::DeleteRow { table, doc } => {
            match inner.sessions.with_txn(session, db, |txn| {
                let t = db.table(&table)?;
                db.delete_row_txn(txn, &t, doc)
            }) {
                Ok(ok) => Response::Deleted(ok),
                Err(e) => session_error_response(e),
            }
        }
        Request::Query {
            table,
            column,
            path,
        } => {
            match inner.sessions.with_txn(session, db, |txn| {
                let t = db.table(&table)?;
                let col = t.xml_column(&column)?;
                let p = XPathParser::new().parse(&path)?;
                let (hits, _stats) = db.query_locked(txn, &t, col, &p, false)?;
                Ok(hits
                    .into_iter()
                    .map(|h| Hit {
                        doc: h.doc,
                        value: h.value,
                    })
                    .collect::<Vec<Hit>>())
            }) {
                Ok(hits) => Response::Hits(hits),
                Err(e) => session_error_response(e),
            }
        }
    }
}

/// Serve one connection until EOF or shutdown. Generic over the transport
/// so TCP and the in-process channel run the exact same code path.
///
/// The first frame must be a [`Hello`] asking for protocol v2 or later.
/// Anything else — a request from a client that skips the handshake, or a
/// `Hello` asking for an earlier version — is read whole and answered with
/// one `UnsupportedVersion` error in handshake framing, and the connection
/// is closed.
fn serve_connection<T: Transport>(inner: &Arc<Inner>, stream: T) {
    let Ok((reader, mut writer, _closer)) = stream.into_split() else {
        return;
    };
    // Buffered, so a frame costs one `read` call rather than one per
    // length prefix, header and payload.
    let mut reader = BufReader::new(reader);
    let codec = FrameCodec::new(inner.max_frame);
    let hello = match codec.read_handshake(&mut reader) {
        Ok(None) => return,
        Ok(Some(payload)) => Hello::decode(&payload),
        Err(e) => Err(e.to_string()),
    };
    let hello = match hello {
        Ok(h) if h.version >= proto::PROTO_VERSION => h,
        refused => {
            let why = match refused {
                Ok(h) => format!("cannot negotiate protocol version {}", h.version),
                Err(msg) => format!("the first frame must be a Hello ({msg})"),
            };
            let resp = Response::Error(WireError {
                code: ErrorCode::UnsupportedVersion,
                message: format!(
                    "{why}; this server speaks protocol v{}",
                    proto::PROTO_VERSION
                ),
            });
            let _ = codec.write_handshake(&mut writer, &resp.encode());
            return;
        }
    };
    let max_streams = hello.max_streams.clamp(1, inner.max_streams);
    let ack = HelloAck {
        version: proto::PROTO_VERSION,
        max_streams,
        max_frame: inner.max_frame as u64,
    };
    if codec.write_handshake(&mut writer, &ack.encode()).is_err() {
        return;
    }
    // Responses must fit the client's read bound as well as ours; the
    // client never reads with less than 1 KiB.
    let write_bound = inner
        .max_frame
        .min(usize::try_from(hello.max_frame).unwrap_or(usize::MAX))
        .max(1024);
    serve_streams(inner, codec, reader, writer, write_bound, max_streams);
}

/// Shared write side of one connection: the writer mutex that serializes
/// responses, and the dispatch-order ledger behind the out-of-order
/// completion counter and the `max_streams` budget.
struct StreamConn<W: Write> {
    writer: Mutex<W>,
    /// Frames responses under the write bound settled at handshake.
    codec: FrameCodec,
    ledger: Mutex<Ledger>,
}

struct Ledger {
    next_seq: u64,
    /// Dispatch sequence → stream, for every admitted-but-unanswered
    /// request on this connection.
    in_flight: BTreeMap<u64, u32>,
}

impl<W: Write> StreamConn<W> {
    /// Serialize one response frame back to the client. A response too
    /// large for the write bound is replaced by an error on the same
    /// stream, so the caller never waits on an answer that cannot be sent.
    /// Returns whether the connection is still writable (a dead connection
    /// just means the reader will notice EOF next).
    fn respond(&self, stream: u32, resp: &Response, inner: &Inner) -> bool {
        let mut payload = resp.encode();
        let bound = self.codec.max_frame();
        if payload.len() > bound {
            inner
                .counters
                .requests_errored
                .fetch_add(1, Ordering::Relaxed);
            payload = Response::Error(WireError {
                code: ErrorCode::Invalid,
                message: format!(
                    "response of {} bytes exceeds the {bound}-byte frame bound",
                    payload.len()
                ),
            })
            .encode();
        }
        let frame = Frame::data(stream, payload);
        self.codec.write(&mut *self.writer.lock(), &frame).is_ok()
    }

    /// Account for one answered request (error count, latency class,
    /// ledger retirement) and send its response. Pooled and inline requests
    /// both end here.
    fn complete(
        &self,
        inner: &Inner,
        stream: u32,
        seq: u64,
        class: ReqClass,
        started: Instant,
        resp: &Response,
    ) -> bool {
        if matches!(resp, Response::Error(_)) {
            inner
                .counters
                .requests_errored
                .fetch_add(1, Ordering::Relaxed);
        }
        inner.counters.record_latency(class, started.elapsed());
        self.retire(seq, inner, true);
        self.respond(stream, resp, inner)
    }

    /// Retire `seq` from the in-flight ledger. A retirement while an
    /// earlier-dispatched request is still in flight is an out-of-order
    /// completion (`count_ooo` is false on the Busy/refusal path, where
    /// nothing actually completed).
    fn retire(&self, seq: u64, inner: &Inner, count_ooo: bool) {
        let mut st = self.ledger.lock();
        let oldest = st.in_flight.keys().next().copied();
        st.in_flight.remove(&seq);
        if count_ooo && oldest.is_some_and(|o| o < seq) {
            inner
                .counters
                .ooo_completions
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The demultiplexer: decode frames off the socket (read under the
/// server's own bound), answer point requests that need no wait inline,
/// dispatch every other request as an independent job on the worker pool,
/// and let the jobs write their own responses (out of order, tagged by
/// stream id) through the shared writer.
fn serve_streams<R: Read, W: Write + Send + 'static>(
    inner: &Arc<Inner>,
    read_codec: FrameCodec,
    mut reader: R,
    writer: W,
    write_bound: usize,
    max_streams: u32,
) {
    inner.counters.connections.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(StreamConn {
        writer: Mutex::new(writer),
        codec: FrameCodec::new(write_bound),
        ledger: Mutex::new(Ledger {
            next_seq: 0,
            in_flight: BTreeMap::new(),
        }),
    });
    // Stream id → session id; owned by this reader thread alone.
    let mut streams: HashMap<u32, u64> = HashMap::new();
    while let Ok(Some(frame)) = read_codec.read(&mut reader) {
        let stream = frame.stream;
        if frame.flags & FLAG_END_STREAM != 0 {
            // The client is done with this stream: close its session (and
            // roll back any open transaction). No response.
            if let Some(sid) = streams.remove(&stream) {
                inner.sessions.close(sid);
            }
            continue;
        }
        let started = Instant::now();
        inner
            .counters
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let req = match Request::decode(&frame.payload) {
            Ok(r) => r,
            Err(msg) => {
                inner
                    .counters
                    .requests_errored
                    .fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error(WireError {
                    code: ErrorCode::Protocol,
                    message: msg,
                });
                if !conn.respond(stream, &resp, inner) {
                    break;
                }
                continue;
            }
        };
        let session = match streams.get(&stream) {
            Some(&sid) => sid,
            None => {
                let sid = inner.sessions.open();
                inner
                    .counters
                    .sessions_opened
                    .fetch_add(1, Ordering::Relaxed);
                inner
                    .counters
                    .streams_opened
                    .fetch_add(1, Ordering::Relaxed);
                streams.insert(stream, sid);
                sid
            }
        };
        let class = class_of(&req);
        // Per-connection budget: admitting more than `max_streams`
        // concurrent requests answers Busy on the offending stream; the
        // socket itself never stalls and sibling streams proceed.
        let seq = {
            let mut st = conn.ledger.lock();
            if st.in_flight.len() >= max_streams as usize {
                None
            } else {
                let seq = st.next_seq;
                st.next_seq += 1;
                st.in_flight.insert(seq, stream);
                Some(seq)
            }
        };
        let Some(seq) = seq else {
            inner
                .counters
                .requests_rejected
                .fetch_add(1, Ordering::Relaxed);
            inner
                .counters
                .requests_errored
                .fetch_add(1, Ordering::Relaxed);
            inner.counters.record_latency(class, started.elapsed());
            let resp = Response::Error(WireError {
                code: ErrorCode::Busy,
                message: format!("connection stream budget ({max_streams}) exhausted"),
            });
            if !conn.respond(stream, &resp, inner) {
                break;
            }
            continue;
        };
        let submit = match inner.run_inline(session, &req) {
            Ok(Some(resp)) => {
                if !conn.complete(inner, stream, seq, class, started, &resp) {
                    break;
                }
                continue;
            }
            Ok(None) => {
                let job_inner = Arc::clone(inner);
                let job_conn = Arc::clone(&conn);
                inner.submit(Box::new(move || {
                    let resp = handle_request(&job_inner, session, req);
                    job_conn.complete(&job_inner, stream, seq, class, started, &resp);
                }))
            }
            Err(refused) => Err(refused),
        };
        match submit {
            Ok(()) => {}
            Err(refused) => {
                conn.retire(seq, inner, false);
                let resp = match refused {
                    Refused::Busy => {
                        inner
                            .counters
                            .requests_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        Response::Error(WireError {
                            code: ErrorCode::Busy,
                            message: "admission queue full".into(),
                        })
                    }
                    Refused::ShuttingDown => Response::Error(WireError {
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".into(),
                    }),
                };
                inner
                    .counters
                    .requests_errored
                    .fetch_add(1, Ordering::Relaxed);
                inner.counters.record_latency(class, started.elapsed());
                if !conn.respond(stream, &resp, inner) {
                    break;
                }
            }
        }
    }
    // EOF, IO error, or forced close: every stream session (and any open
    // transaction) dies with the connection. In-flight jobs still retire
    // against the shared state and fail their writes harmlessly.
    inner.sessions.close_many(streams.into_values());
}

/// Connect to `addr` over TCP: one connection carrying a single
/// [`Session`], which keeps the connection alive and closes it when
/// dropped.
pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Session> {
    Ok(connect_tcp_multiplexed(addr, ConnectOptions::default())?.session())
}

/// Open a multiplexed TCP connection: one socket, many concurrent
/// [`Session`]s.
pub fn connect_tcp_multiplexed(
    addr: impl ToSocketAddrs,
    opts: ConnectOptions,
) -> io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Connection::establish(stream, opts).map_err(client_to_io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_engine::{ColValue, ColumnKind};

    fn test_server(workers: usize, queue_depth: usize) -> Arc<Server> {
        let db = Database::create_in_memory().unwrap();
        db.create_table(
            "items",
            &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
        )
        .unwrap();
        Server::start(
            db,
            ServerConfig {
                workers,
                queue_depth,
                idle_timeout: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        )
    }

    fn row(sku: &str, xml: &str) -> Vec<ColValue> {
        vec![ColValue::Str(sku.into()), ColValue::Xml(xml.into())]
    }

    #[test]
    fn inproc_autocommit_roundtrip() {
        let server = test_server(2, 16);
        let mut c = server.connect().unwrap();
        c.ping().unwrap();
        let doc = c
            .insert_row("items", row("widget", "<item><price>5</price></item>"))
            .unwrap();
        let fetched = c.fetch_row("items", doc).unwrap().unwrap();
        assert_eq!(fetched.values[0], "widget");
        let hits = c.query("items", "doc", "/item/price").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, doc);
        assert_eq!(hits[0].value, "5");
        assert!(c.delete_row("items", doc).unwrap());
        assert!(c.fetch_row("items", doc).unwrap().is_none());
        let stats = c.stats().unwrap();
        assert!(stats.requests_total >= 6);
        assert_eq!(stats.sessions_active, 1);
        assert!(stats.latency[ReqClass::Read as usize].count >= 3);
        assert!(stats.db.wal_records > 0);
        server.shutdown();
    }

    #[test]
    fn inproc_explicit_txn_rollback_discards_insert() {
        let server = test_server(2, 16);
        let mut c = server.connect().unwrap();
        c.begin().unwrap();
        let doc = c.insert_row("items", row("a", "<r/>")).unwrap();
        c.rollback().unwrap();
        assert!(c.fetch_row("items", doc).unwrap().is_none());
        server.shutdown();
    }

    #[test]
    fn unknown_table_maps_to_not_found() {
        let server = test_server(1, 16);
        let mut c = server.connect().unwrap();
        let err = c.fetch_row("nope", 1).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(e) if e.code == ErrorCode::NotFound),
            "{err}"
        );
        server.shutdown();
    }

    fn wait_for(server: &Server, pred: impl Fn(&StatsSnapshot) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if pred(&server.stats()) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "server never reached expected state"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn full_queue_answers_busy() {
        let server = test_server(1, 1);
        // One request occupies the single worker, one fills the queue; a
        // third must be refused without blocking.
        let mut slow1 = server.connect().unwrap();
        let t1 = std::thread::spawn(move || slow1.sleep_ms(400));
        wait_for(&server, |s| s.requests_in_flight == 1);
        let mut slow2 = server.connect().unwrap();
        let t2 = std::thread::spawn(move || slow2.sleep_ms(400));
        wait_for(&server, |s| s.requests_queued == 1);
        let mut probe = server.connect().unwrap();
        let started = Instant::now();
        let err = probe.sleep_ms(1).unwrap_err();
        assert!(err.is_busy(), "{err}");
        assert!(
            started.elapsed() < Duration::from_millis(300),
            "Busy must not block"
        );
        t1.join().unwrap().unwrap();
        t2.join().unwrap().unwrap();
        assert!(server.stats().requests_rejected >= 1);
        server.shutdown();
    }

    #[test]
    fn inline_requests_count_like_pooled_ones() {
        const FETCHES: u64 = 5;
        const QUERIES: u64 = 3;
        let server = test_server(2, 16);
        let mut c = server.connect().unwrap();
        let doc = c
            .insert_row("items", row("w", "<item><price>5</price></item>"))
            .unwrap();
        let before = server.stats();
        for _ in 0..FETCHES {
            assert!(c.fetch_row("items", doc).unwrap().is_some());
        }
        // An inline request that fails still counts as errored.
        assert!(c.fetch_row("nope", doc).is_err());
        for _ in 0..QUERIES {
            assert_eq!(c.query("items", "doc", "/item/price").unwrap().len(), 1);
        }
        let after = server.stats();
        let delta = |f: fn(&StatsSnapshot) -> u64| f(&after) - f(&before);
        let read = |s: &StatsSnapshot| s.latency[ReqClass::Read as usize].count;
        assert_eq!(delta(|s| s.requests_total), FETCHES + 1 + QUERIES);
        assert_eq!(delta(|s| s.requests_inline), FETCHES + 1);
        assert_eq!(delta(read), FETCHES + 1 + QUERIES);
        assert_eq!(delta(|s| s.requests_errored), 1);
        assert_eq!(delta(|s| s.requests_rejected), 0);
        // A worker leaves the gauge just after its reply is sent; nothing
        // may stay counted once every request is answered.
        wait_for(&server, |s| s.requests_in_flight == 0);
        server.shutdown();
    }

    #[test]
    fn inline_requests_answer_shutting_down_during_the_drain() {
        let server = test_server(2, 16);
        let conn = server
            .connect_multiplexed(ConnectOptions::default())
            .unwrap();
        let mut slow = conn.session();
        let mut probe = conn.session();
        let doc = probe.insert_row("items", row("w", "<r/>")).unwrap();
        // Let the insert's worker leave the gauge, so the next 1 is the sleep.
        wait_for(&server, |s| s.requests_in_flight == 0);
        let sleeper = std::thread::spawn(move || slow.sleep_ms(500));
        wait_for(&server, |s| s.requests_in_flight == 1);
        // The drain waits for the sleep, so the connection stays open while
        // shutdown refuses new work.
        let stopper = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.shutdown())
        };
        let deadline = Instant::now() + Duration::from_millis(400);
        let refused = loop {
            match probe.ping() {
                Ok(()) => assert!(Instant::now() < deadline, "ping never refused"),
                Err(e) => break e,
            }
        };
        assert!(matches!(refused, ClientError::ShuttingDown), "{refused}");
        let fetch = probe.fetch_row("items", doc).unwrap_err();
        assert!(matches!(fetch, ClientError::ShuttingDown), "{fetch}");
        sleeper.join().unwrap().unwrap();
        stopper.join().unwrap();
    }

    #[test]
    fn shutdown_rolls_back_open_sessions() {
        let server = test_server(2, 16);
        let mut c = server.connect().unwrap();
        c.begin().unwrap();
        c.insert_row("items", row("orphan", "<r/>")).unwrap();
        assert_eq!(server.db().txns().active_count(), 1);
        server.shutdown();
        assert_eq!(server.db().txns().active_count(), 0);
        assert!(matches!(
            c.ping().unwrap_err(),
            ClientError::Closed | ClientError::Io(_)
        ));
    }

    #[test]
    fn closed_connections_leave_the_registries() {
        let server = test_server(2, 16);
        let baseline = server.registry_sizes();
        assert_eq!(baseline.0, 0);
        for _ in 0..200 {
            let mut c = server.connect().unwrap();
            c.ping().unwrap();
        }
        // Handlers notice the hangup asynchronously.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.registry_sizes() != baseline {
            assert!(
                Instant::now() < deadline,
                "registries still hold {:?}, baseline {baseline:?}",
                server.registry_sizes()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.stats().connections, 200);
        server.shutdown();
    }

    /// A worker that finds the queue empty and the flag clear must still be
    /// woken by a shutdown that sets the flag right then. Many short
    /// serve/shutdown rounds run on a helper thread, and the test fails
    /// after a deadline instead of hanging in `join`.
    #[test]
    fn shutdown_wakes_every_idle_worker() {
        let db = Database::create_in_memory().unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..200 {
                let server = Server::start(
                    Arc::clone(&db),
                    ServerConfig {
                        workers: 4,
                        queue_depth: 16,
                        // The reaper polls every 5 ms, so shutdown joins it
                        // quickly.
                        idle_timeout: Duration::from_millis(20),
                        ..ServerConfig::default()
                    },
                );
                server.connect().unwrap().ping().unwrap();
                server.shutdown();
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("a shutdown hung: an idle worker missed its wakeup");
    }

    #[test]
    fn shutdown_is_idempotent_and_refuses_new_connections() {
        let server = test_server(1, 4);
        server.shutdown();
        server.shutdown();
        assert!(server.connect().is_err());
    }
}
