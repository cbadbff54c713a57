//! Read-only transactions through the service layer: autocommit `FetchRow`
//! and `Query`, and explicit `Begin`/`Query`/`Commit` or `Rollback`
//! sessions, leave the WAL untouched (no records, no fsync), while one
//! `InsertRow` costs exactly one group-commit fsync, is visible to another
//! session, and survives reopening the directory.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use system_rx::engine::{ColValue, ColumnKind, Database, DbStats};
use system_rx::server::{Server, ServerConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-readonly-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve(db: Arc<Database>) -> Arc<Server> {
    Server::start(
        db,
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            idle_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
}

fn row(sku: &str, price: u32) -> Vec<ColValue> {
    vec![
        ColValue::Str(sku.into()),
        ColValue::Xml(format!("<item><price>{price}</price></item>")),
    ]
}

/// `(wal_records, wal_fsyncs)` as the wire `Stats` request reports them.
fn wal(stats: &DbStats) -> (u64, u64) {
    (stats.wal_records, stats.wal_fsyncs)
}

#[test]
fn read_only_requests_leave_the_wal_alone() {
    let dir = tmpdir("wire");
    let db = Database::create_dir(&dir).unwrap();
    db.create_table(
        "items",
        &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
    )
    .unwrap();
    let server = serve(db);
    let mut c = server.connect().unwrap();
    let first = c.insert_row("items", row("first", 5)).unwrap();

    let before = wal(&c.stats().unwrap().db);
    let fetched = c.fetch_row("items", first).unwrap().expect("row exists");
    assert_eq!(fetched.values[0], "first");
    assert_eq!(c.query("items", "doc", "/item/price").unwrap().len(), 1);
    c.begin().unwrap();
    assert_eq!(c.query("items", "doc", "/item/price").unwrap().len(), 1);
    assert!(c.fetch_row("items", first).unwrap().is_some());
    c.commit().unwrap();
    c.begin().unwrap();
    assert_eq!(c.query("items", "doc", "/item/price").unwrap().len(), 1);
    c.rollback().unwrap();
    assert_eq!(
        wal(&c.stats().unwrap().db),
        before,
        "read-only requests wrote or forced the WAL"
    );

    let second = c.insert_row("items", row("second", 7)).unwrap();
    let after = wal(&c.stats().unwrap().db);
    assert!(after.0 > before.0, "the insert must be logged");
    assert_eq!(after.1, before.1 + 1, "one insert, one commit fsync");

    // Another session sees the committed insert.
    let mut other = server.connect().unwrap();
    let hits = other.query("items", "doc", "/item/price").unwrap();
    let mut docs: Vec<u64> = hits.iter().map(|h| h.doc).collect();
    docs.sort_unstable();
    assert_eq!(docs, vec![first, second]);
    server.shutdown();
    drop(server);

    // Reopen without a checkpoint: recovery replays the logged inserts.
    let server = serve(Database::open_dir(&dir).unwrap());
    let mut c = server.connect().unwrap();
    let fetched = c.fetch_row("items", second).unwrap().expect("insert lost");
    assert_eq!(fetched.values[0], "second");
    assert_eq!(c.query("items", "doc", "/item/price").unwrap().len(), 2);
    server.shutdown();
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}
