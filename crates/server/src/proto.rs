//! The wire protocol: framed binary messages over one byte stream.
//!
//! Every frame after the handshake is `u32 len · u32 stream_id · u8 flags ·
//! payload` (little-endian). Many logical sessions share one connection,
//! each request is tagged with its stream, and responses may return out of
//! order. A connection opens with a [`Hello`] / [`HelloAck`] handshake —
//! the only two messages framed without the stream header, as a bare
//! `u32 len · payload` — that settles the protocol version and the
//! per-connection stream budget. A peer whose first frame is not a `Hello`
//! asking for version 2 or later gets one `UnsupportedVersion` error in
//! that same bare framing and is disconnected.
//!
//! Request payloads start with an opcode byte, response payloads with a
//! status byte; all field encoding reuses the storage layer's
//! [`Enc`]/[`Dec`] codec, so the TCP listener and the in-process channel
//! transport share one byte format by construction. [`FrameCodec`] owns
//! the framing and enforces a configurable `max_frame_bytes` so a corrupt
//! length prefix is a protocol error, not an allocation attempt.

use crate::stats::StatsSnapshot;
use rx_engine::{ColValue, Row};
use rx_storage::codec::{Dec, Enc};
use std::io::{self, Read, Write};

/// Default upper bound on a frame payload; anything larger is a protocol
/// error (protects both sides from a bad length prefix). Tune per server /
/// client with [`crate::ServerConfig::max_frame_bytes`] and
/// [`crate::ConnectOptions::max_frame_bytes`].
pub const MAX_FRAME: usize = 64 << 20;

/// The protocol version this build speaks. A [`Hello`] asking for a later
/// version is answered with this one; an earlier one is refused.
pub const PROTO_VERSION: u8 = 2;

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
/// Handshake opcode: the first payload byte of a [`Hello`].
const OP_HELLO: u8 = 11;

// Response status bytes.
const ST_UNIT: u8 = 0;
const ST_DOC: u8 = 1;
const ST_ROW: u8 = 2;
const ST_DELETED: u8 = 3;
const ST_HITS: u8 = 4;
const ST_STATS: u8 = 5;
const ST_PONG: u8 = 6;
/// Handshake reply status: the first payload byte of a [`HelloAck`].
const ST_HELLO: u8 = 7;
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

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The logical stream this frame belongs to.
    pub stream: u32,
    /// Frame flags ([`FLAG_END_STREAM`]).
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

/// Owns the framing: length prefixes, the stream header, and the
/// `max_frame_bytes` bound that turns a corrupt length prefix into a
/// protocol error instead of an allocation attempt. Every frame on a
/// connection — TCP handler, channel transport, client — goes through one
/// of these.
#[derive(Debug, Clone)]
pub struct FrameCodec {
    max_frame: usize,
}

impl FrameCodec {
    /// A codec rejecting payloads larger than `max_frame`.
    pub fn new(max_frame: usize) -> FrameCodec {
        FrameCodec { max_frame }
    }

    /// The payload size bound enforced on both reads and writes.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    fn check_len(&self, n: usize) -> io::Result<()> {
        if n > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame of {n} bytes exceeds the {} byte limit",
                    self.max_frame
                ),
            ));
        }
        Ok(())
    }

    fn put<W: Write>(&self, w: &mut W, head: &[u8], payload: &[u8]) -> io::Result<()> {
        self.check_len(payload.len())?;
        let mut buf = Vec::with_capacity(4 + head.len() + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(head);
        buf.extend_from_slice(payload);
        // One write_all so channel transports see whole frames per chunk.
        w.write_all(&buf)?;
        w.flush()
    }

    /// Read a length prefix; `Ok(None)` on clean EOF at a frame boundary.
    fn read_len<R: Read>(&self, r: &mut R) -> io::Result<Option<usize>> {
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
        self.check_len(n)?;
        Ok(Some(n))
    }

    /// Write one frame.
    pub fn write<W: Write>(&self, w: &mut W, frame: &Frame) -> io::Result<()> {
        let mut head = [0u8; 5];
        head[..4].copy_from_slice(&frame.stream.to_le_bytes());
        head[4] = frame.flags;
        self.put(w, &head, &frame.payload)
    }

    /// Read one frame. `Ok(None)` on clean EOF at a frame boundary.
    pub fn read<R: Read>(&self, r: &mut R) -> io::Result<Option<Frame>> {
        let Some(n) = self.read_len(r)? else {
            return Ok(None);
        };
        let mut head = [0u8; 5];
        r.read_exact(&mut head)?;
        let mut payload = vec![0u8; n];
        r.read_exact(&mut payload)?;
        Ok(Some(Frame {
            stream: u32::from_le_bytes([head[0], head[1], head[2], head[3]]),
            flags: head[4],
            payload,
        }))
    }

    /// Write a handshake message ([`Hello`], [`HelloAck`], or the error that
    /// refuses a connection): a length prefix and the payload, no stream
    /// header.
    pub fn write_handshake<W: Write>(&self, w: &mut W, payload: &[u8]) -> io::Result<()> {
        self.put(w, &[], payload)
    }

    /// Read a handshake message written by [`FrameCodec::write_handshake`].
    /// `Ok(None)` on clean EOF before any byte.
    pub fn read_handshake<R: Read>(&self, r: &mut R) -> io::Result<Option<Vec<u8>>> {
        let Some(n) = self.read_len(r)? else {
            return Ok(None);
        };
        let mut payload = vec![0u8; n];
        r.read_exact(&mut payload)?;
        Ok(Some(payload))
    }
}

/// The client half of the version handshake: the very first message of a
/// connection, framed by [`FrameCodec::write_handshake`].
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

/// The server half of the handshake: the negotiated version (the server's
/// own when the client asked for a later one), the granted per-connection
/// stream budget, and the server's frame bound.
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
    fn v2_frames_carry_stream_and_flags() {
        let codec = FrameCodec::new(MAX_FRAME);
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
    fn frame_and_handshake_bytes_are_pinned() {
        let codec = FrameCodec::new(MAX_FRAME);
        // Stream frames: `u32 len · u32 stream · u8 flags · payload`.
        let mut buf = Vec::new();
        codec
            .write(
                &mut buf,
                &Frame {
                    stream: 0x0102_0304,
                    flags: FLAG_END_STREAM,
                    payload: b"hi".to_vec(),
                },
            )
            .unwrap();
        assert_eq!(buf, [2, 0, 0, 0, 4, 3, 2, 1, 1, b'h', b'i']);
        // Handshake messages: `u32 len · payload`, no stream header.
        let hello = Hello {
            version: 2,
            max_streams: 16,
            max_frame: 1 << 20,
        };
        let mut buf = Vec::new();
        codec.write_handshake(&mut buf, &hello.encode()).unwrap();
        let mut expect = 14u32.to_le_bytes().to_vec();
        expect.extend_from_slice(&[OP_HELLO, 2, 16, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0]);
        assert_eq!(buf, expect);
        let mut r = &buf[..];
        assert_eq!(
            codec.read_handshake(&mut r).unwrap().unwrap(),
            hello.encode()
        );
        // Clean EOF at a frame boundary.
        assert!(codec.read_handshake(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected_on_read_and_write() {
        let codec = FrameCodec::new(1024);
        // Read side: a corrupt length prefix is a protocol error, not an
        // allocation attempt — on stream frames and handshakes alike.
        let hostile = u32::MAX.to_le_bytes();
        let err = codec.read(&mut &hostile[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = codec.read_handshake(&mut &hostile[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Write side: never emit a frame the configured peer bound would
        // reject.
        let mut out = Vec::new();
        assert!(codec
            .write(&mut out, &Frame::data(0, vec![0u8; 2048]))
            .is_err());
        assert!(codec.write_handshake(&mut out, &[0u8; 2048]).is_err());
        assert!(out.is_empty(), "a refused frame writes nothing");
        // At the bound is fine.
        codec
            .write(&mut out, &Frame::data(0, vec![0u8; 1024]))
            .unwrap();
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
    fn garbage_rejected() {
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[77]).is_err());
        // Trailing bytes are a protocol error.
        let mut p = Request::Ping.encode();
        p.push(0);
        assert!(Request::decode(&p).is_err());
    }
}
