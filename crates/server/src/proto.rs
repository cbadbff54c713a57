//! The wire protocol: framed binary messages, in two versions.
//!
//! **v1 (lockstep)** frames are a little-endian `u32` payload length
//! followed by the payload — one request in flight per connection.
//!
//! **v2 (multiplexed streams)** frames carry a stream id and a flags byte
//! between the length and the payload: `u32 len · u32 stream_id · u8 flags
//! · payload`. Many logical sessions share one connection, each request is
//! tagged with its stream, and responses may return out of order. A
//! connection opens with a v1-framed [`Hello`] handshake that negotiates
//! the version (and per-connection stream budget), so v1 clients that skip
//! the handshake keep working unchanged.
//!
//! Request payloads start with an opcode byte, response payloads with a
//! status byte; all field encoding reuses the storage layer's
//! [`Enc`]/[`Dec`] codec, so the TCP listener and the in-process channel
//! transport share one byte format by construction. [`FrameCodec`] owns
//! the length/stream framing for both versions and enforces a configurable
//! `max_frame_bytes` so a corrupt length prefix is a protocol error, not
//! an allocation attempt.

use crate::stats::StatsSnapshot;
use rx_engine::{ColValue, Row};
use rx_storage::codec::{Dec, Enc};
use std::io::{self, Read, Write};

/// Default upper bound on a frame payload; anything larger is a protocol
/// error (protects both sides from a bad length prefix). Tune per server /
/// client with [`crate::ServerConfig::max_frame_bytes`] and
/// [`crate::ConnectOptions::max_frame_bytes`].
pub const MAX_FRAME: usize = 64 << 20;

/// Highest protocol version this build speaks.
pub const PROTO_MAX_VERSION: u8 = 2;

/// Frame flag: the sender is done with this stream; the server closes the
/// stream's session (rolling back any open transaction). Carried on an
/// empty payload, answered with nothing.
pub const FLAG_END_STREAM: u8 = 0x01;

// Request opcodes.
const OP_BEGIN: u8 = 1;
const OP_COMMIT: u8 = 2;
const OP_ROLLBACK: u8 = 3;
const OP_INSERT: u8 = 4;
const OP_FETCH: u8 = 5;
const OP_DELETE: u8 = 6;
const OP_QUERY: u8 = 7;
const OP_STATS: u8 = 8;
const OP_PING: u8 = 9;
const OP_SLEEP: u8 = 10;
/// Handshake opcode: the first payload byte of a [`Hello`]. Public so the
/// connection handler can recognise a handshake without decoding twice.
pub const OP_HELLO: u8 = 11;

// Response status bytes.
const ST_UNIT: u8 = 0;
const ST_DOC: u8 = 1;
const ST_ROW: u8 = 2;
const ST_DELETED: u8 = 3;
const ST_HITS: u8 = 4;
const ST_STATS: u8 = 5;
const ST_PONG: u8 = 6;
/// Handshake reply status: the first payload byte of a [`HelloAck`].
pub const ST_HELLO: u8 = 7;
const ST_ERROR: u8 = 255;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open an explicit transaction on this session.
    Begin,
    /// Commit the session's open transaction.
    Commit,
    /// Roll back the session's open transaction.
    Rollback,
    /// Insert one row (XML columns are parsed/validated server-side).
    InsertRow {
        /// Target table.
        table: String,
        /// One value per column.
        values: Vec<ColValue>,
    },
    /// Fetch a base row by DocID (S-locks the document).
    FetchRow {
        /// Target table.
        table: String,
        /// Document id.
        doc: u64,
    },
    /// Delete a row and its documents by DocID.
    DeleteRow {
        /// Target table.
        table: String,
        /// Document id.
        doc: u64,
    },
    /// Evaluate an XPath over one XML column via the access layer
    /// (index-driven where possible, §5.1 DocID S-locking).
    Query {
        /// Target table.
        table: String,
        /// XML column name.
        column: String,
        /// XPath text.
        path: String,
    },
    /// Admin: snapshot server + engine counters.
    Stats,
    /// Liveness check.
    Ping,
    /// Diagnostic: occupy a worker slot for `millis` (used by the
    /// admission-control tests; cheap to keep in the protocol).
    Sleep {
        /// How long the worker sleeps.
        millis: u32,
    },
}

/// One query match on the wire (node IDs stay server-side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Owning document.
    pub doc: u64,
    /// String value of the matched node.
    pub value: String,
}

/// Machine-readable failure class, carried alongside the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The admission queue is full; retry later.
    Busy = 1,
    /// The server is draining; no new work accepted.
    ShuttingDown = 2,
    /// The session was reaped after idling past the timeout.
    SessionExpired = 3,
    /// Named object not found.
    NotFound = 4,
    /// Named object already exists.
    AlreadyExists = 5,
    /// Lock wait timed out.
    LockTimeout = 6,
    /// Chosen as a deadlock victim.
    Deadlock = 7,
    /// Invalid argument or transaction-state misuse.
    Invalid = 8,
    /// Malformed frame or unknown opcode.
    Protocol = 9,
    /// Anything else.
    Internal = 10,
    /// The handshake requested a protocol version this server cannot speak.
    UnsupportedVersion = 11,
}

impl ErrorCode {
    fn from_u8(v: u8) -> ErrorCode {
        use ErrorCode::*;
        match v {
            1 => Busy,
            2 => ShuttingDown,
            3 => SessionExpired,
            4 => NotFound,
            5 => AlreadyExists,
            6 => LockTimeout,
            7 => Deadlock,
            8 => Invalid,
            9 => Protocol,
            11 => UnsupportedVersion,
            _ => Internal,
        }
    }
}

/// An error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with no payload (begin/commit/rollback/sleep).
    Unit,
    /// DocID of an inserted row.
    Doc(u64),
    /// A fetched row, or `None` when the DocID is unknown.
    Row(Option<Row>),
    /// Whether a delete removed a row.
    Deleted(bool),
    /// Query matches.
    Hits(Vec<Hit>),
    /// Counter snapshot (boxed: it is far larger than the other variants).
    Stats(Box<StatsSnapshot>),
    /// Liveness reply.
    Pong,
    /// Failure.
    Error(WireError),
}

fn enc_col_value(e: &mut Enc, v: &ColValue) {
    match v {
        ColValue::Str(s) => {
            e.u8(0).str(s);
        }
        ColValue::Xml(s) => {
            e.u8(1).str(s);
        }
        ColValue::XmlValidated { text, schema } => {
            e.u8(2).str(text).str(schema);
        }
    }
}

fn dec_col_value(d: &mut Dec) -> Result<ColValue, String> {
    let tag = d.u8().map_err(|e| e.to_string())?;
    let text = d.str().map_err(|e| e.to_string())?.to_string();
    Ok(match tag {
        0 => ColValue::Str(text),
        1 => ColValue::Xml(text),
        2 => ColValue::XmlValidated {
            text,
            schema: d.str().map_err(|e| e.to_string())?.to_string(),
        },
        t => return Err(format!("unknown column value tag {t}")),
    })
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Begin => {
                e.u8(OP_BEGIN);
            }
            Request::Commit => {
                e.u8(OP_COMMIT);
            }
            Request::Rollback => {
                e.u8(OP_ROLLBACK);
            }
            Request::InsertRow { table, values } => {
                e.u8(OP_INSERT).str(table).varint(values.len() as u64);
                for v in values {
                    enc_col_value(&mut e, v);
                }
            }
            Request::FetchRow { table, doc } => {
                e.u8(OP_FETCH).str(table).u64(*doc);
            }
            Request::DeleteRow { table, doc } => {
                e.u8(OP_DELETE).str(table).u64(*doc);
            }
            Request::Query {
                table,
                column,
                path,
            } => {
                e.u8(OP_QUERY).str(table).str(column).str(path);
            }
            Request::Stats => {
                e.u8(OP_STATS);
            }
            Request::Ping => {
                e.u8(OP_PING);
            }
            Request::Sleep { millis } => {
                e.u8(OP_SLEEP).u32(*millis);
            }
        }
        e.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let mut d = Dec::new(payload);
        let op = d.u8().map_err(|e| e.to_string())?;
        let req = match op {
            OP_BEGIN => Request::Begin,
            OP_COMMIT => Request::Commit,
            OP_ROLLBACK => Request::Rollback,
            OP_INSERT => {
                let table = d.str().map_err(|e| e.to_string())?.to_string();
                let n = d.varint().map_err(|e| e.to_string())? as usize;
                let mut values = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    values.push(dec_col_value(&mut d)?);
                }
                Request::InsertRow { table, values }
            }
            OP_FETCH => Request::FetchRow {
                table: d.str().map_err(|e| e.to_string())?.to_string(),
                doc: d.u64().map_err(|e| e.to_string())?,
            },
            OP_DELETE => Request::DeleteRow {
                table: d.str().map_err(|e| e.to_string())?.to_string(),
                doc: d.u64().map_err(|e| e.to_string())?,
            },
            OP_QUERY => Request::Query {
                table: d.str().map_err(|e| e.to_string())?.to_string(),
                column: d.str().map_err(|e| e.to_string())?.to_string(),
                path: d.str().map_err(|e| e.to_string())?.to_string(),
            },
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_SLEEP => Request::Sleep {
                millis: d.u32().map_err(|e| e.to_string())?,
            },
            op => return Err(format!("unknown request opcode {op}")),
        };
        if !d.is_done() {
            return Err(format!("{} trailing bytes after request", d.remaining()));
        }
        Ok(req)
    }
}

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Response::Unit => {
                e.u8(ST_UNIT);
            }
            Response::Doc(doc) => {
                e.u8(ST_DOC).u64(*doc);
            }
            Response::Row(row) => {
                e.u8(ST_ROW);
                match row {
                    None => {
                        e.u8(0);
                    }
                    Some(r) => {
                        e.u8(1).u64(r.doc).varint(r.values.len() as u64);
                        for v in &r.values {
                            e.str(v);
                        }
                    }
                }
            }
            Response::Deleted(ok) => {
                e.u8(ST_DELETED).u8(u8::from(*ok));
            }
            Response::Hits(hits) => {
                e.u8(ST_HITS).varint(hits.len() as u64);
                for h in hits {
                    e.u64(h.doc).str(&h.value);
                }
            }
            Response::Stats(s) => {
                e.u8(ST_STATS);
                s.encode(&mut e);
            }
            Response::Pong => {
                e.u8(ST_PONG);
            }
            Response::Error(err) => {
                e.u8(ST_ERROR).u8(err.code as u8).str(&err.message);
            }
        }
        e.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let mut d = Dec::new(payload);
        let st = d.u8().map_err(|e| e.to_string())?;
        let resp = match st {
            ST_UNIT => Response::Unit,
            ST_DOC => Response::Doc(d.u64().map_err(|e| e.to_string())?),
            ST_ROW => {
                if d.u8().map_err(|e| e.to_string())? == 0 {
                    Response::Row(None)
                } else {
                    let doc = d.u64().map_err(|e| e.to_string())?;
                    let n = d.varint().map_err(|e| e.to_string())? as usize;
                    let mut values = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        values.push(d.str().map_err(|e| e.to_string())?.to_string());
                    }
                    Response::Row(Some(Row { doc, values }))
                }
            }
            ST_DELETED => Response::Deleted(d.u8().map_err(|e| e.to_string())? != 0),
            ST_HITS => {
                let n = d.varint().map_err(|e| e.to_string())? as usize;
                let mut hits = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    hits.push(Hit {
                        doc: d.u64().map_err(|e| e.to_string())?,
                        value: d.str().map_err(|e| e.to_string())?.to_string(),
                    });
                }
                Response::Hits(hits)
            }
            ST_STATS => Response::Stats(Box::new(StatsSnapshot::decode(&mut d)?)),
            ST_PONG => Response::Pong,
            ST_ERROR => Response::Error(WireError {
                code: ErrorCode::from_u8(d.u8().map_err(|e| e.to_string())?),
                message: d.str().map_err(|e| e.to_string())?.to_string(),
            }),
            st => return Err(format!("unknown response status {st}")),
        };
        if !d.is_done() {
            return Err(format!("{} trailing bytes after response", d.remaining()));
        }
        Ok(resp)
    }
}

/// Wire protocol versions a connection can speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoVersion {
    /// Length-prefixed lockstep frames, one request in flight.
    V1,
    /// Multiplexed streams: frames carry `(stream_id, flags)`.
    V2,
}

/// One protocol frame. In v1 `stream` and `flags` are always zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The logical stream this frame belongs to (0 in v1).
    pub stream: u32,
    /// Frame flags ([`FLAG_END_STREAM`]); 0 in v1.
    pub flags: u8,
    /// The request/response payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A data frame carrying `payload` on `stream`.
    pub fn data(stream: u32, payload: Vec<u8>) -> Frame {
        Frame {
            stream,
            flags: 0,
            payload,
        }
    }

    /// An empty end-of-stream frame: the sender is done with `stream`.
    pub fn end_stream(stream: u32) -> Frame {
        Frame {
            stream,
            flags: FLAG_END_STREAM,
            payload: Vec::new(),
        }
    }
}

/// Owns the length/stream framing for both protocol versions: length
/// prefixes, the v2 stream header, and the `max_frame_bytes` bound that
/// turns a corrupt length prefix into a protocol error instead of an
/// allocation attempt. Every frame on a connection — TCP handler, channel
/// transport, client — goes through one of these.
#[derive(Debug, Clone)]
pub struct FrameCodec {
    version: ProtoVersion,
    max_frame: usize,
}

impl FrameCodec {
    /// A codec for `version` rejecting payloads larger than `max_frame`.
    pub fn new(version: ProtoVersion, max_frame: usize) -> FrameCodec {
        FrameCodec { version, max_frame }
    }

    /// A v1 (lockstep) codec.
    pub fn v1(max_frame: usize) -> FrameCodec {
        FrameCodec::new(ProtoVersion::V1, max_frame)
    }

    /// A v2 (multiplexed streams) codec.
    pub fn v2(max_frame: usize) -> FrameCodec {
        FrameCodec::new(ProtoVersion::V2, max_frame)
    }

    /// The version this codec frames.
    pub fn version(&self) -> ProtoVersion {
        self.version
    }

    /// The payload size bound enforced on both reads and writes.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Write one frame. v1 cannot carry stream ids or flags; passing a
    /// nonzero one there is an `InvalidInput` error (it would silently drop
    /// routing information).
    pub fn write<W: Write>(&self, w: &mut W, frame: &Frame) -> io::Result<()> {
        if frame.payload.len() > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame of {} bytes exceeds the {} byte limit",
                    frame.payload.len(),
                    self.max_frame
                ),
            ));
        }
        let mut buf = Vec::with_capacity(9 + frame.payload.len());
        buf.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
        match self.version {
            ProtoVersion::V1 => {
                if frame.stream != 0 || frame.flags != 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "v1 frames cannot carry a stream id or flags",
                    ));
                }
            }
            ProtoVersion::V2 => {
                buf.extend_from_slice(&frame.stream.to_le_bytes());
                buf.push(frame.flags);
            }
        }
        buf.extend_from_slice(&frame.payload);
        // One write_all so channel transports see whole frames per chunk.
        w.write_all(&buf)?;
        w.flush()
    }

    /// Read one frame. `Ok(None)` on clean EOF at a frame boundary.
    pub fn read<R: Read>(&self, r: &mut R) -> io::Result<Option<Frame>> {
        let mut len = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            match r.read(&mut len[filled..]) {
                Ok(0) => {
                    return if filled == 0 {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "EOF inside frame header",
                        ))
                    };
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let n = u32::from_le_bytes(len) as usize;
        if n > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame of {n} bytes exceeds the {} byte limit",
                    self.max_frame
                ),
            ));
        }
        let (stream, flags) = match self.version {
            ProtoVersion::V1 => (0, 0),
            ProtoVersion::V2 => {
                let mut head = [0u8; 5];
                r.read_exact(&mut head)?;
                (
                    u32::from_le_bytes([head[0], head[1], head[2], head[3]]),
                    head[4],
                )
            }
        };
        let mut payload = vec![0u8; n];
        r.read_exact(&mut payload)?;
        Ok(Some(Frame {
            stream,
            flags,
            payload,
        }))
    }
}

/// The client half of the version handshake, sent v1-framed as the very
/// first message of a connection that wants v2. (v1 clients skip it; their
/// first payload byte is an ordinary request opcode, never [`OP_HELLO`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Highest protocol version the client speaks.
    pub version: u8,
    /// How many concurrent streams the client wants on this connection.
    pub max_streams: u32,
    /// The client's frame-payload read bound, advertised so the peer can
    /// avoid writing frames the client would reject.
    pub max_frame: u64,
}

impl Hello {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(OP_HELLO)
            .u8(self.version)
            .u32(self.max_streams)
            .u64(self.max_frame);
        e.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Hello, String> {
        let mut d = Dec::new(payload);
        let op = d.u8().map_err(|e| e.to_string())?;
        if op != OP_HELLO {
            return Err(format!("expected hello opcode {OP_HELLO}, got {op}"));
        }
        let h = Hello {
            version: d.u8().map_err(|e| e.to_string())?,
            max_streams: d.u32().map_err(|e| e.to_string())?,
            max_frame: d.u64().map_err(|e| e.to_string())?,
        };
        if !d.is_done() {
            return Err(format!("{} trailing bytes after hello", d.remaining()));
        }
        Ok(h)
    }
}

/// The server half of the handshake: the negotiated version (which may be
/// lower than the client asked for — the explicit downgrade path), the
/// granted per-connection stream budget, and the server's frame bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The version the connection will speak from here on.
    pub version: u8,
    /// Concurrent in-flight requests granted to this connection; the
    /// server answers `Busy` per stream beyond it.
    pub max_streams: u32,
    /// The server's frame-payload read bound.
    pub max_frame: u64,
}

impl HelloAck {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(ST_HELLO)
            .u8(self.version)
            .u32(self.max_streams)
            .u64(self.max_frame);
        e.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<HelloAck, String> {
        let mut d = Dec::new(payload);
        let st = d.u8().map_err(|e| e.to_string())?;
        if st != ST_HELLO {
            return Err(format!("expected hello-ack status {ST_HELLO}, got {st}"));
        }
        let a = HelloAck {
            version: d.u8().map_err(|e| e.to_string())?,
            max_streams: d.u32().map_err(|e| e.to_string())?,
            max_frame: d.u64().map_err(|e| e.to_string())?,
        };
        if !d.is_done() {
            return Err(format!("{} trailing bytes after hello-ack", d.remaining()));
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Begin,
            Request::Commit,
            Request::Rollback,
            Request::InsertRow {
                table: "t".into(),
                values: vec![
                    ColValue::Str("a".into()),
                    ColValue::Xml("<r/>".into()),
                    ColValue::XmlValidated {
                        text: "<r/>".into(),
                        schema: "s".into(),
                    },
                ],
            },
            Request::FetchRow {
                table: "t".into(),
                doc: 7,
            },
            Request::DeleteRow {
                table: "t".into(),
                doc: 9,
            },
            Request::Query {
                table: "t".into(),
                column: "doc".into(),
                path: "/a/b".into(),
            },
            Request::Stats,
            Request::Ping,
            Request::Sleep { millis: 25 },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Unit,
            Response::Doc(42),
            Response::Row(None),
            Response::Row(Some(Row {
                doc: 3,
                values: vec!["x".into(), String::new()],
            })),
            Response::Deleted(true),
            Response::Hits(vec![
                Hit {
                    doc: 1,
                    value: "v1".into(),
                },
                Hit {
                    doc: 2,
                    value: "v2".into(),
                },
            ]),
            Response::Pong,
            Response::Error(WireError {
                code: ErrorCode::Busy,
                message: "queue full".into(),
            }),
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn v1_frames_round_trip_over_a_buffer() {
        let codec = FrameCodec::v1(MAX_FRAME);
        let mut buf = Vec::new();
        codec
            .write(&mut buf, &Frame::data(0, b"hello".to_vec()))
            .unwrap();
        codec.write(&mut buf, &Frame::data(0, Vec::new())).unwrap();
        let mut r = &buf[..];
        assert_eq!(codec.read(&mut r).unwrap().unwrap().payload, b"hello");
        assert_eq!(codec.read(&mut r).unwrap().unwrap().payload, b"");
        assert!(codec.read(&mut r).unwrap().is_none());
    }

    #[test]
    fn v2_frames_carry_stream_and_flags() {
        let codec = FrameCodec::v2(MAX_FRAME);
        let mut buf = Vec::new();
        codec
            .write(&mut buf, &Frame::data(7, b"payload".to_vec()))
            .unwrap();
        codec.write(&mut buf, &Frame::end_stream(9)).unwrap();
        let mut r = &buf[..];
        let f = codec.read(&mut r).unwrap().unwrap();
        assert_eq!((f.stream, f.flags, &f.payload[..]), (7, 0, &b"payload"[..]));
        let f = codec.read(&mut r).unwrap().unwrap();
        assert_eq!(
            (f.stream, f.flags, f.payload.len()),
            (9, FLAG_END_STREAM, 0)
        );
        assert!(codec.read(&mut r).unwrap().is_none());
    }

    #[test]
    fn v1_refuses_stream_ids() {
        let codec = FrameCodec::v1(MAX_FRAME);
        let mut buf = Vec::new();
        assert!(codec.write(&mut buf, &Frame::data(1, Vec::new())).is_err());
    }

    #[test]
    fn oversized_frame_rejected_on_read_and_write() {
        for codec in [FrameCodec::v1(1024), FrameCodec::v2(1024)] {
            // Read side: a corrupt length prefix is a protocol error, not an
            // allocation attempt.
            let mut buf = Vec::new();
            buf.extend_from_slice(&(u32::MAX).to_le_bytes());
            let mut r = &buf[..];
            let err = codec.read(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            // Write side: never emit a frame the configured peer bound
            // would reject.
            let mut out = Vec::new();
            assert!(codec
                .write(&mut out, &Frame::data(0, vec![0u8; 2048]))
                .is_err());
            // At the bound is fine.
            codec
                .write(&mut out, &Frame::data(0, vec![0u8; 1024]))
                .unwrap();
        }
    }

    #[test]
    fn hello_and_ack_round_trip() {
        let h = Hello {
            version: 2,
            max_streams: 16,
            max_frame: 1 << 20,
        };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
        let a = HelloAck {
            version: 2,
            max_streams: 8,
            max_frame: 64 << 20,
        };
        assert_eq!(HelloAck::decode(&a.encode()).unwrap(), a);
        // A hello is never a valid request, and vice versa.
        assert!(Request::decode(&h.encode()).is_err());
        assert!(Hello::decode(&Request::Ping.encode()).is_err());
        // Trailing bytes are a protocol error.
        let mut p = h.encode();
        p.push(0);
        assert!(Hello::decode(&p).is_err());
    }

    #[test]
    fn v1_codec_frames_are_length_prefixed() {
        let codec = FrameCodec::v1(MAX_FRAME);
        let mut buf = Vec::new();
        codec
            .write(&mut buf, &Frame::data(0, b"hello".to_vec()))
            .unwrap();
        // v1 wire format: `u32` little-endian payload length, then the payload.
        let mut expect = 5u32.to_le_bytes().to_vec();
        expect.extend_from_slice(b"hello");
        assert_eq!(buf, expect);
        let mut r = &buf[..];
        assert_eq!(codec.read(&mut r).unwrap().unwrap().payload, b"hello");
        // Clean EOF at a frame boundary.
        assert!(codec.read(&mut r).unwrap().is_none());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[77]).is_err());
        // Trailing bytes are a protocol error.
        let mut p = Request::Ping.encode();
        p.push(0);
        assert!(Request::decode(&p).is_err());
    }
}
