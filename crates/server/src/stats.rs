//! Server-side counters: request totals, admission rejections, session
//! lifecycle events, and per-request-class latency histograms, combined
//! with the engine's [`DbStats`] into one wire-encodable snapshot.

use rx_engine::DbStats;
use rx_storage::codec::{Dec, Enc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 latency buckets (bucket `i` counts requests that took
/// `< 2^i` µs; the last bucket is unbounded).
pub const LATENCY_BUCKETS: usize = 16;

/// Request classes with separate latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ReqClass {
    /// begin / commit / rollback.
    Txn = 0,
    /// insert_row / delete_row.
    Write = 1,
    /// fetch_row / query.
    Read = 2,
    /// stats / ping / sleep.
    Admin = 3,
}

/// Number of request classes.
pub const REQ_CLASSES: usize = 4;

impl ReqClass {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ReqClass::Txn => "txn",
            ReqClass::Write => "write",
            ReqClass::Read => "read",
            ReqClass::Admin => "admin",
        }
    }

    /// All classes in snapshot order.
    pub fn all() -> [ReqClass; REQ_CLASSES] {
        [
            ReqClass::Txn,
            ReqClass::Write,
            ReqClass::Read,
            ReqClass::Admin,
        ]
    }
}

/// Lock-free log2 latency histogram.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros() as u64;
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Read the current state.
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        LatencySnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Bucket `i` counts requests with latency `< 2^i` µs.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies in µs.
    pub total_us: u64,
}

impl LatencySnapshot {
    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

/// Live server counters (one instance per server).
#[derive(Default)]
pub struct ServerCounters {
    /// Frames received (including ones later rejected).
    pub requests_total: AtomicU64,
    /// Requests refused by admission control (queue full).
    pub requests_rejected: AtomicU64,
    /// Requests answered with an error response.
    pub requests_errored: AtomicU64,
    /// Sessions ever opened.
    pub sessions_opened: AtomicU64,
    /// Sessions reaped by the idle timeout.
    pub sessions_expired: AtomicU64,
    /// Connections that completed the handshake.
    pub connections: AtomicU64,
    /// Streams ever opened (streams-per-connection is
    /// `streams_opened / connections`).
    pub streams_opened: AtomicU64,
    /// Responses that completed while an earlier-dispatched request on the
    /// same connection was still in flight (out-of-order completions — the
    /// win multiplexing exists for).
    pub ooo_completions: AtomicU64,
    /// Requests the connection reader answered itself, without a worker
    /// (point fetches and pings whose locks were granted at once).
    pub requests_inline: AtomicU64,
    /// Latency histograms indexed by [`ReqClass`].
    pub latency: [Histogram; REQ_CLASSES],
}

impl ServerCounters {
    /// Record one served request.
    pub fn record_latency(&self, class: ReqClass, elapsed: Duration) {
        self.latency[class as usize].record(elapsed);
    }
}

/// Everything the admin `stats` request returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Frames received.
    pub requests_total: u64,
    /// Requests refused with `Busy`.
    pub requests_rejected: u64,
    /// Requests answered with an error.
    pub requests_errored: u64,
    /// Requests currently executing, on a worker or inline (gauge).
    pub requests_in_flight: u64,
    /// Requests waiting in the admission queue (gauge).
    pub requests_queued: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions reaped by the idle timeout.
    pub sessions_expired: u64,
    /// Sessions currently open.
    pub sessions_active: u64,
    /// Connections that completed the handshake.
    pub connections: u64,
    /// Streams ever opened.
    pub streams_opened: u64,
    /// Responses completed out of dispatch order on their connection.
    pub ooo_completions: u64,
    /// Requests answered inline by the connection reader.
    pub requests_inline: u64,
    /// Per-class latency histograms (indexed by [`ReqClass`]).
    pub latency: [LatencySnapshot; REQ_CLASSES],
    /// Engine counters (buffer pool, WAL, locks, transactions).
    pub db: DbStats,
}

impl StatsSnapshot {
    /// Append the wire encoding to `e`.
    pub fn encode(&self, e: &mut Enc) {
        e.u64(self.requests_total)
            .u64(self.requests_rejected)
            .u64(self.requests_errored)
            .u64(self.requests_in_flight)
            .u64(self.requests_queued)
            .u64(self.sessions_opened)
            .u64(self.sessions_expired)
            .u64(self.sessions_active)
            .u64(self.connections)
            .u64(self.streams_opened)
            .u64(self.ooo_completions)
            .u64(self.requests_inline);
        for l in &self.latency {
            for b in &l.buckets {
                e.u64(*b);
            }
            e.u64(l.count).u64(l.total_us);
        }
        let d = &self.db;
        e.u64(d.buffer_hits)
            .u64(d.buffer_misses)
            .u64(d.buffer_evictions)
            .u64(d.buffer_writebacks)
            .u64(d.buffer_resident)
            .u64(d.buffer_shards)
            .u64(d.buffer_contention)
            .u64(d.wal_bytes)
            .u64(d.wal_records)
            .u64(d.wal_fsyncs)
            .u64(d.wal_group_commits)
            .u64(d.wal_batch_max)
            .u64(d.wal_durable_lsn)
            .u64(d.wal_durable_lag)
            .u64(d.lock_waits)
            .u64(d.lock_timeouts)
            .u64(d.lock_deadlocks)
            .u64(d.active_txns)
            .u64(d.query_workers)
            .u64(d.parallel_queries)
            .u64(d.plan_cache_hits)
            .u64(d.plan_cache_misses)
            .u64(d.plan_cache_entries)
            .u64(d.doc_cache_hits)
            .u64(d.doc_cache_misses)
            .u64(d.doc_cache_evictions)
            .u64(d.doc_cache_bytes);
    }

    /// Decode the wire encoding.
    pub fn decode(d: &mut Dec) -> Result<StatsSnapshot, String> {
        let mut next = || d.u64().map_err(|e| e.to_string());
        let mut s = StatsSnapshot {
            requests_total: next()?,
            requests_rejected: next()?,
            requests_errored: next()?,
            requests_in_flight: next()?,
            requests_queued: next()?,
            sessions_opened: next()?,
            sessions_expired: next()?,
            sessions_active: next()?,
            connections: next()?,
            streams_opened: next()?,
            ooo_completions: next()?,
            requests_inline: next()?,
            ..StatsSnapshot::default()
        };
        for l in &mut s.latency {
            for b in &mut l.buckets {
                *b = next()?;
            }
            l.count = next()?;
            l.total_us = next()?;
        }
        let db = &mut s.db;
        db.buffer_hits = next()?;
        db.buffer_misses = next()?;
        db.buffer_evictions = next()?;
        db.buffer_writebacks = next()?;
        db.buffer_resident = next()?;
        db.buffer_shards = next()?;
        db.buffer_contention = next()?;
        db.wal_bytes = next()?;
        db.wal_records = next()?;
        db.wal_fsyncs = next()?;
        db.wal_group_commits = next()?;
        db.wal_batch_max = next()?;
        db.wal_durable_lsn = next()?;
        db.wal_durable_lag = next()?;
        db.lock_waits = next()?;
        db.lock_timeouts = next()?;
        db.lock_deadlocks = next()?;
        db.active_txns = next()?;
        db.query_workers = next()?;
        db.parallel_queries = next()?;
        db.plan_cache_hits = next()?;
        db.plan_cache_misses = next()?;
        db.plan_cache_entries = next()?;
        db.doc_cache_hits = next()?;
        db.doc_cache_misses = next()?;
        db.doc_cache_evictions = next()?;
        db.doc_cache_bytes = next()?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_microseconds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_records() {
        let h = Histogram::default();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(2));
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert_eq!(s.mean_us(), (3 + 3 + 2000) / 3);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut s = StatsSnapshot {
            requests_total: 10,
            requests_rejected: 2,
            sessions_active: 3,
            connections: 4,
            streams_opened: 17,
            ooo_completions: 6,
            requests_inline: 5,
            ..StatsSnapshot::default()
        };
        s.latency[ReqClass::Read as usize].buckets[4] = 7;
        s.latency[ReqClass::Read as usize].count = 7;
        s.db.wal_records = 99;
        s.db.wal_fsyncs = 5;
        s.db.wal_group_commits = 40;
        s.db.wal_batch_max = 12;
        s.db.wal_durable_lsn = 98;
        s.db.wal_durable_lag = 1;
        s.db.buffer_shards = 16;
        s.db.buffer_contention = 7;
        s.db.query_workers = 8;
        s.db.parallel_queries = 21;
        s.db.plan_cache_hits = 30;
        s.db.plan_cache_misses = 4;
        s.db.plan_cache_entries = 4;
        s.db.doc_cache_hits = 17;
        s.db.doc_cache_misses = 3;
        s.db.doc_cache_evictions = 2;
        s.db.doc_cache_bytes = 65536;
        let mut e = Enc::new();
        s.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(StatsSnapshot::decode(&mut d).unwrap(), s);
        assert!(d.is_done());
    }
}
