//! Session management: one session per *stream* of a multiplexed
//! connection, each owning at most one open [`Txn`],
//! with idle-timeout reaping. Transaction state is keyed by session id, so
//! the demultiplexer gets independent per-stream transactions for free.
//!
//! A session with no explicit transaction runs each request in autocommit
//! mode (begin → op → commit, rollback on error). Sessions idle past the
//! timeout are reaped by the server's background thread: any open
//! transaction is rolled back (releasing its locks so it cannot block the
//! whole service forever) and subsequent requests on that session fail with
//! `SessionExpired`.

use parking_lot::Mutex;
use rx_engine::{Database, EngineError};
use rx_storage::Txn;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a session operation failed.
#[derive(Debug)]
pub enum SessionError {
    /// The session was reaped (idle timeout) or never existed.
    Expired,
    /// Commit/rollback with no open transaction.
    NoTxn,
    /// Begin while a transaction is already open.
    TxnOpen,
    /// The engine failed underneath.
    Engine(EngineError),
}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> SessionError {
        SessionError::Engine(e)
    }
}

struct SessionState {
    txn: Option<Txn>,
    last_active: Instant,
}

/// Run `f` in the session's open transaction, or in an autocommit one.
/// `None` when `f` declines with `Ok(None)`; an autocommit transaction is
/// then rolled back.
fn run_in_txn<R>(
    s: &mut SessionState,
    db: &Database,
    f: impl FnOnce(&Txn) -> Result<Option<R>, EngineError>,
) -> Option<Result<R, SessionError>> {
    s.last_active = Instant::now();
    let result = if let Some(txn) = &s.txn {
        f(txn).map_err(SessionError::Engine).transpose()?
    } else {
        let txn = match db.begin() {
            Ok(txn) => txn,
            Err(e) => return Some(Err(e.into())),
        };
        match f(&txn) {
            Ok(Some(r)) => txn
                .commit()
                .map(|()| r)
                .map_err(|e| SessionError::Engine(e.into())),
            Ok(None) => {
                let _ = txn.rollback();
                return None;
            }
            Err(e) => {
                let _ = txn.rollback();
                Err(SessionError::Engine(e))
            }
        }
    };
    s.last_active = Instant::now();
    Some(result)
}

/// All live sessions of one server.
pub struct SessionManager {
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
    next_id: AtomicU64,
    idle_timeout: Duration,
}

impl SessionManager {
    /// Create a manager reaping sessions idle longer than `idle_timeout`.
    pub fn new(idle_timeout: Duration) -> SessionManager {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            idle_timeout,
        }
    }

    /// Open a new session; returns its id.
    pub fn open(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().insert(
            id,
            Arc::new(Mutex::new(SessionState {
                txn: None,
                last_active: Instant::now(),
            })),
        );
        id
    }

    /// Close a session, rolling back any open transaction. No-op when the
    /// session was already reaped.
    pub fn close(&self, id: u64) {
        let entry = self.sessions.lock().remove(&id);
        if let Some(entry) = entry {
            let txn = entry.lock().txn.take();
            if let Some(txn) = txn {
                let _ = txn.rollback();
            }
        }
    }

    /// Close a batch of sessions (a multiplexed connection tearing down all
    /// of its stream sessions at once).
    pub fn close_many(&self, ids: impl IntoIterator<Item = u64>) {
        for id in ids {
            self.close(id);
        }
    }

    /// Number of open sessions.
    pub fn active(&self) -> u64 {
        self.sessions.lock().len() as u64
    }

    fn entry(&self, id: u64) -> Result<Arc<Mutex<SessionState>>, SessionError> {
        self.sessions
            .lock()
            .get(&id)
            .cloned()
            .ok_or(SessionError::Expired)
    }

    /// Open an explicit transaction on the session.
    pub fn begin(&self, id: u64, db: &Database) -> Result<(), SessionError> {
        let entry = self.entry(id)?;
        let mut s = entry.lock();
        s.last_active = Instant::now();
        if s.txn.is_some() {
            return Err(SessionError::TxnOpen);
        }
        s.txn = Some(db.begin()?);
        Ok(())
    }

    /// Commit the session's open transaction.
    pub fn commit(&self, id: u64) -> Result<(), SessionError> {
        let entry = self.entry(id)?;
        let mut s = entry.lock();
        s.last_active = Instant::now();
        let txn = s.txn.take().ok_or(SessionError::NoTxn)?;
        txn.commit().map_err(EngineError::from)?;
        Ok(())
    }

    /// Roll back the session's open transaction.
    pub fn rollback(&self, id: u64) -> Result<(), SessionError> {
        let entry = self.entry(id)?;
        let mut s = entry.lock();
        s.last_active = Instant::now();
        let txn = s.txn.take().ok_or(SessionError::NoTxn)?;
        txn.rollback().map_err(EngineError::from)?;
        Ok(())
    }

    /// Run `f` under the session's transaction: inside the open explicit
    /// transaction when there is one (commit stays with the client),
    /// otherwise in autocommit mode.
    pub fn with_txn<R>(
        &self,
        id: u64,
        db: &Database,
        f: impl FnOnce(&Txn) -> Result<R, EngineError>,
    ) -> Result<R, SessionError> {
        let entry = self.entry(id)?;
        let mut s = entry.lock();
        run_in_txn(&mut s, db, |txn| f(txn).map(Some)).expect("f never declines")
    }

    /// The never-waiting form of [`SessionManager::with_txn`], for requests
    /// the connection reader runs inline. `None` means "not now": the
    /// session is busy with another request, or `f` returned `Ok(None)`
    /// because a lock was not granted at once (an autocommit transaction is
    /// then rolled back; it logged nothing). The caller hands the request
    /// to the worker pool instead.
    pub fn try_with_txn<R>(
        &self,
        id: u64,
        db: &Database,
        f: impl FnOnce(&Txn) -> Result<Option<R>, EngineError>,
    ) -> Option<Result<R, SessionError>> {
        let entry = match self.entry(id) {
            Ok(entry) => entry,
            Err(e) => return Some(Err(e)),
        };
        let mut s = entry.try_lock()?;
        run_in_txn(&mut s, db, f)
    }

    /// Reap sessions idle past the timeout, rolling back their open
    /// transactions. Sessions currently executing a request are skipped
    /// (their session mutex is held, and they are not idle). Returns how
    /// many were reaped.
    pub fn expire_idle(&self) -> u64 {
        let candidates: Vec<(u64, Arc<Mutex<SessionState>>)> = self
            .sessions
            .lock()
            .iter()
            .map(|(id, e)| (*id, Arc::clone(e)))
            .collect();
        let mut reaped = 0;
        for (id, entry) in candidates {
            let Some(mut s) = entry.try_lock() else {
                continue;
            };
            if s.last_active.elapsed() < self.idle_timeout {
                continue;
            }
            if let Some(txn) = s.txn.take() {
                let _ = txn.rollback();
            }
            drop(s);
            self.sessions.lock().remove(&id);
            reaped += 1;
        }
        reaped
    }

    /// Roll back and drop every session (server shutdown).
    pub fn rollback_all(&self) {
        let drained: Vec<Arc<Mutex<SessionState>>> =
            self.sessions.lock().drain().map(|(_, e)| e).collect();
        for entry in drained {
            let txn = entry.lock().txn.take();
            if let Some(txn) = txn {
                let _ = txn.rollback();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_engine::Database;

    #[test]
    fn explicit_txn_lifecycle() {
        let db = Database::create_in_memory().unwrap();
        let sm = SessionManager::new(Duration::from_secs(30));
        let s = sm.open();
        assert!(matches!(sm.commit(s), Err(SessionError::NoTxn)));
        sm.begin(s, &db).unwrap();
        assert!(matches!(sm.begin(s, &db), Err(SessionError::TxnOpen)));
        assert_eq!(db.txns().active_count(), 1);
        sm.commit(s).unwrap();
        assert_eq!(db.txns().active_count(), 0);
        sm.begin(s, &db).unwrap();
        sm.rollback(s).unwrap();
        assert_eq!(db.txns().active_count(), 0);
        sm.close(s);
        assert!(matches!(sm.begin(s, &db), Err(SessionError::Expired)));
    }

    #[test]
    fn try_with_txn_declines_a_busy_session_and_a_refused_lock() {
        let db = Database::create_in_memory().unwrap();
        let sm = SessionManager::new(Duration::from_secs(30));
        let s = sm.open();
        // Busy session: the mutex is held by another request.
        let entry = sm.entry(s).unwrap();
        let held = entry.lock();
        assert!(sm.try_with_txn(s, &db, |_| Ok(Some(()))).is_none());
        drop(held);
        assert!(matches!(
            sm.try_with_txn(s, &db, |_| Ok(Some(7))),
            Some(Ok(7))
        ));
        // A refused lock rolls the autocommit transaction back.
        assert!(sm.try_with_txn(s, &db, |_| Ok(None::<()>)).is_none());
        assert_eq!(db.txns().active_count(), 0);
        // An explicit transaction stays open either way.
        sm.begin(s, &db).unwrap();
        assert!(sm.try_with_txn(s, &db, |_| Ok(None::<()>)).is_none());
        assert_eq!(db.txns().active_count(), 1);
        sm.rollback(s).unwrap();
        sm.close(s);
        assert!(matches!(
            sm.try_with_txn(s, &db, |_| Ok(Some(()))),
            Some(Err(SessionError::Expired))
        ));
    }

    #[test]
    fn close_rolls_back_open_txn() {
        let db = Database::create_in_memory().unwrap();
        let sm = SessionManager::new(Duration::from_secs(30));
        let s = sm.open();
        sm.begin(s, &db).unwrap();
        sm.close(s);
        assert_eq!(db.txns().active_count(), 0);
    }

    #[test]
    fn idle_sessions_reaped() {
        let db = Database::create_in_memory().unwrap();
        let sm = SessionManager::new(Duration::from_millis(20));
        let s = sm.open();
        sm.begin(s, &db).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(sm.expire_idle(), 1);
        assert_eq!(sm.active(), 0);
        assert_eq!(db.txns().active_count(), 0, "reaping must roll back");
        assert!(matches!(sm.commit(s), Err(SessionError::Expired)));
    }

    #[test]
    fn fresh_sessions_survive_reaper() {
        let db = Database::create_in_memory().unwrap();
        let sm = SessionManager::new(Duration::from_secs(30));
        let s = sm.open();
        sm.begin(s, &db).unwrap();
        assert_eq!(sm.expire_idle(), 0);
        assert_eq!(sm.active(), 1);
        sm.commit(s).unwrap();
        sm.close(s);
    }

    #[test]
    fn rollback_all_sweeps_everything() {
        let db = Database::create_in_memory().unwrap();
        let sm = SessionManager::new(Duration::from_secs(30));
        for _ in 0..3 {
            let s = sm.open();
            sm.begin(s, &db).unwrap();
        }
        assert_eq!(db.txns().active_count(), 3);
        sm.rollback_all();
        assert_eq!(db.txns().active_count(), 0);
        assert_eq!(sm.active(), 0);
    }
}
