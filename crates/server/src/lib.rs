//! rx-server: the concurrent service layer for System R/X.
//!
//! Fronts an [`rx_engine::Database`] with a session-oriented request/response
//! protocol (Zhang 2005 §2's "database as a service" deployment shape):
//!
//! - **Wire protocol** ([`proto`]): length-prefixed binary frames over any
//!   byte stream. One dialect, protocol v2: a `Hello` handshake opens the
//!   connection, then many streams share it (frames tagged with a stream
//!   id). A peer that skips the handshake or asks for an earlier version
//!   is refused with one `UnsupportedVersion` error.
//! - **Sessions** ([`session`]): one session per stream, owning at most one
//!   open transaction, autocommit otherwise, idle-timeout reaping.
//! - **Admission control** ([`server`]): a fixed worker pool behind a
//!   bounded queue; overload answers `Busy` instead of queueing unboundedly,
//!   with a per-connection `max_streams` in-flight budget on top.
//! - **Transports** ([`transport`]): a TCP listener and an in-process
//!   channel client that share the frame codec and connection handler by
//!   construction; both split into reader/writer halves for multiplexing.
//! - **Clients** ([`client`]): a [`Connection`] hands out [`Session`]s, the
//!   one blocking request API; [`connect_tcp`] and [`Server::connect`]
//!   return a session on a connection of its own.
//! - **Stats** ([`stats`]): request counters and per-class log2 latency
//!   histograms, merged with the engine's [`rx_engine::DbStats`].

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod session;
pub mod stats;
pub mod transport;

pub use client::{ClientError, ConnectOptions, Connection, Session};
pub use proto::{ErrorCode, Frame, FrameCodec, Hello, HelloAck, Hit, Request, Response, WireError};
pub use server::{connect_tcp, connect_tcp_multiplexed, Server, ServerConfig};
pub use session::{SessionError, SessionManager};
pub use stats::{LatencySnapshot, ReqClass, StatsSnapshot};
pub use transport::{ChannelStream, Closer, Transport};
