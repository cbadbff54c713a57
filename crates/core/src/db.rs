//! The database façade: base tables with XML columns on shared relational
//! infrastructure (Fig. 1 / Fig. 2).
//!
//! "A base table with an XML column will have an implicit DocID column,
//! shared by all the XML columns in the table, and used to link from the base
//! table to the XML table. In addition, a DocID index on the base table is
//! used for getting to base table rows from XPath value indexes." (§3.1)
//!
//! One [`Database`] owns: a buffer pool shared by all table spaces, the
//! persistent catalog (object definitions, compiled schemas, counters, the
//! name dictionary), the WAL + transaction manager, and the lock manager.

use crate::error::{EngineError, Result};
use crate::pack::Packer;
use crate::synopsis::SynopsisBuilder;
use crate::validx::{IndexKeyGen, IndexKeys, ValueIndex, ValueIndexDef};
use crate::xmltable::{DocId, XmlTable};
use parking_lot::RwLock;
use rx_storage::codec::{Dec, Enc};
use rx_storage::wal::{FileLogStore, MemLogStore, RecoveryEnv, Wal};
use rx_storage::{
    BTree, BufferPool, Catalog, FileBackend, HeapTable, LockManager, MemBackend, Rid,
    StorageBackend, TableSpace, Txn, TxnManager,
};
use rx_xml::name::NameDict;
use rx_xml::parser::Parser;
use rx_xml::schema::{compile as compile_schema, parse_xsd, SchemaProgram};
use rx_xml::value::KeyType;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the database lives.
#[derive(Debug, Clone)]
pub enum Storage {
    /// Everything in memory (tests, CPU-bound benchmarks).
    Memory,
    /// One file per table space plus a WAL file under a directory.
    Dir(PathBuf),
}

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Target packed-record size (the packing-factor knob).
    pub target_record_size: usize,
    /// Lock wait timeout.
    pub lock_timeout: Duration,
    /// Query-executor lanes: how many candidate-document partitions a single
    /// query may evaluate concurrently. 1 disables intra-query parallelism.
    pub query_workers: usize,
    /// Document record-cache budget in bytes, shared by every XML table of
    /// the database (§3.4 traversal short-circuit). 0 disables the cache;
    /// repeated traversals of a hot document then always re-probe the NodeID
    /// index and re-fetch records through the buffer pool.
    pub doc_cache_bytes: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pages: 4096,
            target_record_size: crate::pack::DEFAULT_TARGET_RECORD,
            lock_timeout: Duration::from_secs(2),
            query_workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            doc_cache_bytes: 0,
        }
    }
}

impl DbConfig {
    /// Check the knobs make sense; every `create_*`/`open_*` entry point
    /// calls this so a zeroed config fails with a clear error instead of a
    /// panic deep in the buffer pool or an unwaitable lock timeout.
    pub fn validate(&self) -> Result<()> {
        if self.buffer_pages < rx_storage::buffer::MIN_BUFFER_PAGES {
            return Err(EngineError::Invalid(format!(
                "buffer_pages must be at least {} (got {})",
                rx_storage::buffer::MIN_BUFFER_PAGES,
                self.buffer_pages
            )));
        }
        if self.target_record_size == 0 {
            return Err(EngineError::Invalid(
                "target_record_size must be positive".to_string(),
            ));
        }
        if self.lock_timeout.is_zero() {
            return Err(EngineError::Invalid(
                "lock_timeout must be positive".to_string(),
            ));
        }
        if self.query_workers == 0 {
            return Err(EngineError::Invalid(
                "query_workers must be positive (1 disables parallelism)".to_string(),
            ));
        }
        Ok(())
    }
}

/// A point-in-time snapshot of the engine's internal counters, aggregated
/// across the buffer pool, WAL, lock manager, and transaction manager.
/// Served remotely through the rx-server `stats` request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Buffer-pool page hits.
    pub buffer_hits: u64,
    /// Buffer-pool page misses (reads from the backend).
    pub buffer_misses: u64,
    /// Pages evicted to make room.
    pub buffer_evictions: u64,
    /// Dirty pages written back.
    pub buffer_writebacks: u64,
    /// Pages currently resident.
    pub buffer_resident: u64,
    /// Buffer-pool lock stripes.
    pub buffer_shards: u64,
    /// Shard-mutex acquisitions that found the mutex already held.
    pub buffer_contention: u64,
    /// Total WAL bytes appended.
    pub wal_bytes: u64,
    /// Total WAL records appended.
    pub wal_records: u64,
    /// Fsyncs issued by the WAL group-commit flusher.
    pub wal_fsyncs: u64,
    /// Commits whose records were not yet durable on arrival, i.e. that
    /// joined a group-commit flush as leader or waiter (fewer fsyncs than
    /// this under concurrent load means batching is working).
    pub wal_group_commits: u64,
    /// Largest number of records one fsync covered.
    pub wal_batch_max: u64,
    /// Highest LSN known durable (the replication-shipping watermark).
    pub wal_durable_lsn: u64,
    /// Assigned LSNs not yet durable.
    pub wal_durable_lag: u64,
    /// Lock requests that blocked at least once.
    pub lock_waits: u64,
    /// Lock requests that timed out.
    pub lock_timeouts: u64,
    /// Lock requests refused as deadlock victims.
    pub lock_deadlocks: u64,
    /// Transactions currently active.
    pub active_txns: u64,
    /// Query-executor lanes configured (`DbConfig::query_workers`).
    pub query_workers: u64,
    /// Queries whose candidate evaluation actually fanned out across lanes.
    pub parallel_queries: u64,
    /// Plan-cache lookups that found a compiled plan.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that compiled afresh.
    pub plan_cache_misses: u64,
    /// Compiled plans currently cached.
    pub plan_cache_entries: u64,
    /// Document-cache lookups that found a valid snapshot.
    pub doc_cache_hits: u64,
    /// Document-cache lookups that fell through to the buffer pool.
    pub doc_cache_misses: u64,
    /// Document snapshots evicted to stay inside the byte budget.
    pub doc_cache_evictions: u64,
    /// Bytes currently held by resident document snapshots.
    pub doc_cache_bytes: u64,
}

/// Column kinds of a base table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// A relational string column.
    Str,
    /// A native XML column (backed by an internal XML table, §3.1).
    Xml,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Kind.
    pub kind: ColumnKind,
}

/// A base-table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table id.
    pub id: u32,
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
}

/// A value supplied for one column on insert.
#[derive(Debug, Clone, PartialEq)]
pub enum ColValue {
    /// A relational string value.
    Str(String),
    /// XML text to parse and store natively.
    Xml(String),
    /// XML text validated against a registered schema before storage.
    XmlValidated {
        /// Document text.
        text: String,
        /// Registered schema name.
        schema: String,
    },
}

/// One XML column of a base table with its internal XML table and its
/// indexes (value and full-text alike, DESIGN.md §13).
pub struct XmlColumn {
    /// Column name.
    pub name: String,
    /// Position within the table's column list.
    pub position: usize,
    xml: XmlTable,
    indexes: RwLock<Vec<Arc<ValueIndex>>>,
}

impl XmlColumn {
    /// The internal XML table.
    pub fn xml_table(&self) -> &XmlTable {
        &self.xml
    }

    /// Snapshot of the column's indexes, typed and terms-keyed alike (the
    /// planner never answers a comparison from a terms index).
    pub fn indexes(&self) -> Vec<Arc<ValueIndex>> {
        self.indexes.read().clone()
    }

    /// Snapshot of the column's full-text (terms-keyed) indexes.
    pub fn fulltext_indexes(&self) -> Vec<Arc<ValueIndex>> {
        self.indexes
            .read()
            .iter()
            .filter(|i| i.def.keys == IndexKeys::Terms)
            .cloned()
            .collect()
    }
}

/// A base table: relational row heap + DocID index + XML columns.
pub struct BaseTable {
    /// Definition.
    pub def: TableDef,
    heap: Arc<HeapTable>,
    docid_index: Arc<BTree>,
    xml_columns: Vec<Arc<XmlColumn>>,
    base_space: u32,
    /// The highest DocID allocated. Inserts take the next one with
    /// `fetch_add`; checkpoints persist it under `doccnt/<id>`.
    doc_high: AtomicU64,
}

/// Anchor of the DocID index within the base table's space.
pub const DOCID_INDEX_ANCHOR: usize = 2;

impl BaseTable {
    /// The XML column named `name`.
    pub fn xml_column(&self, name: &str) -> Result<&Arc<XmlColumn>> {
        self.xml_columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| EngineError::NotFound {
                kind: "XML column",
                name: name.to_string(),
            })
    }

    /// All XML columns.
    pub fn xml_columns(&self) -> &[Arc<XmlColumn>] {
        &self.xml_columns
    }

    /// The base-row heap.
    pub fn heap(&self) -> &Arc<HeapTable> {
        &self.heap
    }

    /// The DocID index (DocID → base-row RID).
    pub fn docid_index(&self) -> &Arc<BTree> {
        &self.docid_index
    }

    /// Look up a base row's RID by DocID ("getting to base table rows from
    /// XPath value indexes", §3.1).
    pub fn row_rid(&self, doc: DocId) -> Result<Option<Rid>> {
        Ok(self
            .docid_index
            .search(&doc.to_be_bytes())?
            .map(Rid::from_u64))
    }
}

/// A decoded base-table row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The implicit DocID.
    pub doc: DocId,
    /// Relational string values, in column order (XML columns contribute an
    /// empty marker here; their data lives in the internal XML tables).
    pub values: Vec<String>,
}

/// A base row: the DocID as a varint, then one length-prefixed slot per
/// column, in column order. A relational column's slot holds its string; an
/// XML column's holds the document's synopsis (DESIGN.md §19). This is
/// on-disk format [`FORMAT`].
fn encode_base_row(doc: DocId, slots: &[Vec<u8>]) -> Vec<u8> {
    let mut e = Enc::with_capacity(16 + slots.iter().map(Vec::len).sum::<usize>());
    e.varint(doc);
    e.varint(slots.len() as u64);
    for s in slots {
        e.bytes(s);
    }
    e.into_bytes()
}

fn decode_base_row(rec: &[u8], columns: &[ColumnDef]) -> Result<Row> {
    let mut d = Dec::new(rec);
    let doc = d.varint()?;
    let n = d.varint()? as usize;
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        values.push(match columns.get(i).map(|c| c.kind) {
            Some(ColumnKind::Xml) => {
                d.bytes()?;
                String::new()
            }
            _ => d.str()?.to_string(),
        });
    }
    Ok(Row { doc, values })
}

/// The DocID of base row `rec` and the byte range of its slot at column
/// `position`. A row that cannot be decoded, or has no such slot, is an
/// error.
fn locate_slot(rec: &[u8], position: usize) -> Result<(DocId, std::ops::Range<usize>)> {
    let mut d = Dec::new(rec);
    let doc = d.varint()?;
    let n = d.varint()? as usize;
    if position >= n {
        return Err(EngineError::Record(format!(
            "base row of document {doc} has {n} slots, not {}",
            position + 1
        )));
    }
    for _ in 0..position {
        d.bytes()?;
    }
    let len = d.varint()? as usize;
    let start = rec.len() - d.remaining();
    if len > d.remaining() {
        return Err(EngineError::Record("base row slot overruns the row".into()));
    }
    Ok((doc, start..start + len))
}

/// The DocID of base row `rec` and its slot at column `position` (for an
/// XML column, the document's synopsis).
pub(crate) fn base_row_slot(rec: &[u8], position: usize) -> Result<(DocId, &[u8])> {
    let (doc, range) = locate_slot(rec, position)?;
    Ok((doc, &rec[range]))
}

/// The on-disk format this build writes and reads. Format 1 stores base
/// rows as [`encode_base_row`] writes them, with a synopsis in each XML
/// column's slot; directories written before it carry no format key and
/// are refused at open rather than misread.
const FORMAT: u32 = 1;

// Catalog key prefixes.
const K_FORMAT: &[u8] = b"meta/format";
const K_NEXT_SPACE: &[u8] = b"meta/next_space";
const K_NEXT_TABLE: &[u8] = b"meta/next_table";
/// The name dictionary: one entry per string under `dict/s/` and one per
/// qname under `dict/q/`, each keyed by its big-endian id so a prefix scan
/// returns them in id order.
const K_DICT_STRING: &[u8] = b"dict/s/";
const K_DICT_QNAME: &[u8] = b"dict/q/";

fn k_dict(kind: &[u8], id: usize) -> Vec<u8> {
    [kind, &(id as u32).to_be_bytes()].concat()
}

fn k_table(name: &str) -> Vec<u8> {
    [b"tbl/", name.as_bytes()].concat()
}

fn k_doccnt(table_id: u32) -> Vec<u8> {
    format!("doccnt/{table_id}").into_bytes()
}

/// Catalog key prefixes of index definitions: typed indexes under `idx/`,
/// terms indexes under `fti/` (two name namespaces).
const INDEX_PREFIXES: [&str; 2] = ["idx", "fti"];

fn index_prefix(keys: IndexKeys) -> &'static str {
    match keys {
        IndexKeys::Typed(_) => INDEX_PREFIXES[0],
        IndexKeys::Terms => INDEX_PREFIXES[1],
    }
}

fn k_index(keys: IndexKeys, table: &str, index: &str) -> Vec<u8> {
    format!("{}/{table}/{index}", index_prefix(keys)).into_bytes()
}

/// Catalog record of an index definition: `(column, path, key_type u8,
/// space)` for a typed index, `(column, path, space)` for a terms index.
fn encode_index_def(column: &str, def: &ValueIndexDef) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(column).str(&def.path_text);
    if let IndexKeys::Typed(t) = def.keys {
        e.u8(t as u8);
    }
    e.u32(def.space_id);
    e.into_bytes()
}

/// Decode the record stored under catalog key `key` into `(column, def)`.
fn decode_index_def(key: &[u8], val: &[u8]) -> Result<(String, ValueIndexDef)> {
    let key = String::from_utf8_lossy(key);
    let mut d = Dec::new(val);
    let column = d.str()?.to_string();
    let path_text = d.str()?.to_string();
    let keys = if key.starts_with(index_prefix(IndexKeys::Terms)) {
        IndexKeys::Terms
    } else {
        IndexKeys::Typed(KeyType::from_u8(d.u8()?)?)
    };
    let def = ValueIndexDef {
        name: key.rsplit('/').next().unwrap_or_default().to_string(),
        path_text,
        keys,
        space_id: d.u32()?,
    };
    Ok((column, def))
}

fn k_schema(name: &str) -> Vec<u8> {
    [b"schema/", name.as_bytes()].concat()
}

/// The database.
pub struct Database {
    /// Configuration used to open it.
    pub config: DbConfig,
    storage: Storage,
    pool: Arc<BufferPool>,
    catalog: Arc<Catalog>,
    dict: Arc<NameDict>,
    txns: Arc<TxnManager>,
    tables: RwLock<HashMap<String, Arc<BaseTable>>>,
    schemas: RwLock<HashMap<String, Arc<SchemaProgram>>>,
    /// (strings, qnames) counts last persisted to the catalog.
    dict_persisted: parking_lot::Mutex<(usize, usize)>,
    /// Synopsis builders between documents, with their buffers and name
    /// keys; one is taken per stored or updated document (DESIGN.md §19.1).
    synopsis_builders: parking_lot::Mutex<Vec<SynopsisBuilder>>,
    executor: crate::executor::QueryExecutor,
    plan_cache: crate::executor::PlanCache,
    doc_cache: Arc<crate::doccache::DocCache>,
}

impl Database {
    /// Create a fresh in-memory database.
    pub fn create_in_memory() -> Result<Arc<Database>> {
        Self::create_with(Storage::Memory, DbConfig::default())
    }

    /// Create a fresh in-memory database with explicit config.
    pub fn create_in_memory_with(config: DbConfig) -> Result<Arc<Database>> {
        Self::create_with(Storage::Memory, config)
    }

    /// Create a fresh file-backed database under `dir`.
    pub fn create_dir(dir: impl Into<PathBuf>) -> Result<Arc<Database>> {
        Self::create_with(Storage::Dir(dir.into()), DbConfig::default())
    }

    fn make_backend(storage: &Storage, space: u32) -> Result<Arc<dyn StorageBackend>> {
        Ok(match storage {
            Storage::Memory => Arc::new(MemBackend::new()),
            Storage::Dir(dir) => {
                Arc::new(FileBackend::open(&dir.join(format!("space-{space}.dat")))?)
            }
        })
    }

    /// Create a new database with explicit storage and config: format the
    /// catalog space, then open it as [`Database::open_with`] does.
    pub fn create_with(storage: Storage, config: DbConfig) -> Result<Arc<Database>> {
        Self::start(storage, config, |storage, pool| {
            if let Storage::Dir(dir) = storage {
                std::fs::create_dir_all(dir).map_err(rx_storage::StorageError::from)?;
            }
            let space = TableSpace::create(pool.clone(), 0, Self::make_backend(storage, 0)?)?;
            let catalog = Catalog::create(space)?;
            catalog.put(K_FORMAT, &FORMAT.to_le_bytes())?;
            catalog.put(K_NEXT_SPACE, &1u64.to_le_bytes())?;
            pool.flush_space(0)?;
            Ok(catalog)
        })
    }

    /// Reopen a file-backed database, running crash recovery.
    pub fn open_dir(dir: impl Into<PathBuf>) -> Result<Arc<Database>> {
        Self::open_with(dir, DbConfig::default())
    }

    /// Reopen with explicit config.
    pub fn open_with(dir: impl Into<PathBuf>, config: DbConfig) -> Result<Arc<Database>> {
        Self::start(Storage::Dir(dir.into()), config, |storage, pool| {
            let space = TableSpace::open(pool.clone(), 0, Self::make_backend(storage, 0)?)?;
            Ok(Catalog::open(space)?)
        })
    }

    /// The one open path of every database: bring it up on the catalog that
    /// `catalog` creates or opens in space 0. Loads the name dictionary and
    /// every table, runs recovery (a no-op on an empty log), and seeds each
    /// table's DocID counter.
    fn start(
        storage: Storage,
        config: DbConfig,
        catalog: impl FnOnce(&Storage, &Arc<BufferPool>) -> Result<Arc<Catalog>>,
    ) -> Result<Arc<Database>> {
        config.validate()?;
        let pool = BufferPool::new(config.buffer_pages);
        let catalog = catalog(&storage, &pool)?;
        let format = catalog.get(K_FORMAT);
        if format.as_deref() != Some(&FORMAT.to_le_bytes()[..]) {
            return Err(EngineError::Invalid(format!(
                "unsupported on-disk format {:?} (this build reads format {FORMAT})",
                format.map(|v| v.try_into().map_or(0, u32::from_le_bytes))
            )));
        }
        let dict = load_dict(&catalog)?;
        let wal = match &storage {
            Storage::Memory => Wal::new(Arc::new(MemLogStore::new())),
            Storage::Dir(dir) => Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log"))?)),
        };
        let db = Arc::new(Database {
            txns: TxnManager::new(wal, LockManager::new(config.lock_timeout)),
            executor: crate::executor::QueryExecutor::new(config.query_workers),
            plan_cache: crate::executor::PlanCache::new(crate::executor::PLAN_CACHE_CAPACITY),
            doc_cache: crate::doccache::DocCache::new(config.doc_cache_bytes),
            dict_persisted: parking_lot::Mutex::new((dict.string_count(), dict.qname_count())),
            synopsis_builders: parking_lot::Mutex::new(Vec::new()),
            dict: Arc::new(dict),
            config,
            storage,
            pool,
            catalog,
            tables: RwLock::new(HashMap::new()),
            schemas: RwLock::new(HashMap::new()),
        });
        // Load all tables so recovery can reach every space.
        let mut env = RecoveryEnv::default();
        for (key, _) in db.catalog.list_prefix(b"tbl/") {
            let table = db.load_table(&String::from_utf8_lossy(&key[4..]), &[])?;
            env.heaps.insert(table.base_space, Arc::clone(&table.heap));
            env.indexes.insert(
                (table.base_space, DOCID_INDEX_ANCHOR as u32),
                Arc::clone(&table.docid_index),
            );
            for col in &table.xml_columns {
                env.heaps
                    .insert(col.xml.space_id(), Arc::clone(col.xml.heap()));
                env.indexes.insert(
                    (
                        col.xml.space_id(),
                        crate::xmltable::NODEID_INDEX_ANCHOR as u32,
                    ),
                    Arc::clone(col.xml.nodeid_index()),
                );
                for vi in col.indexes() {
                    env.indexes.insert(
                        (vi.def.space_id, crate::validx::VALUE_INDEX_ANCHOR as u32),
                        vi.btree_arc(),
                    );
                }
            }
        }
        rx_storage::recover(db.txns.wal(), &env)?;
        for table in db.tables.read().values() {
            // Once, after redo and undo have settled the entries.
            for col in &table.xml_columns {
                for vi in col.indexes() {
                    vi.recompute_multi_valued()?;
                }
            }
            // The counter starts at the high-water of the last checkpoint;
            // DocIDs committed since then are the entries past it.
            let mut high = table.doc_high.load(Ordering::Relaxed);
            table
                .docid_index
                .scan_from(&(high + 1).to_be_bytes(), |k, _| {
                    if let Ok(b) = <[u8; 8]>::try_from(k) {
                        high = high.max(u64::from_be_bytes(b));
                    }
                    true
                })?;
            table.doc_high.store(high, Ordering::Relaxed);
        }
        Ok(db)
    }

    /// The shared name dictionary.
    pub fn dict(&self) -> &Arc<NameDict> {
        &self.dict
    }

    /// The transaction manager.
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// The buffer pool (for stats).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Result<Txn> {
        Ok(self.txns.begin()?)
    }

    /// The shared query worker pool.
    pub fn executor(&self) -> &crate::executor::QueryExecutor {
        &self.executor
    }

    /// The shared query-plan cache.
    pub fn plan_cache(&self) -> &crate::executor::PlanCache {
        &self.plan_cache
    }

    /// Plan + execute an XPath query over `column` in `txn`: the engine's one
    /// query entry point. The plan comes from the plan cache; evaluation
    /// fans out across the worker pool after every candidate document is
    /// S-locked in `txn` (§5.1, DESIGN.md §14) and the candidates whose
    /// synopsis rules them out are dropped (DESIGN.md §19).
    pub fn query_locked(
        &self,
        txn: &Txn,
        table: &Arc<BaseTable>,
        column: &Arc<XmlColumn>,
        path: &rx_xpath::Path,
        prefer_nodeid: bool,
    ) -> Result<(Vec<crate::access::QueryHit>, crate::access::AccessStats)> {
        let prepared =
            crate::access::prepare(Some(&self.plan_cache), table, column, path, prefer_nodeid)?;
        crate::access::execute_prepared(
            &prepared,
            table,
            column,
            &self.dict,
            Some(&self.executor),
            txn,
        )
    }

    /// Snapshot the engine's internal counters. Cheap (a few atomic loads
    /// and two short mutex holds) — safe to call from a stats endpoint on
    /// every request.
    pub fn stats(&self) -> DbStats {
        let buffer = self.pool.stats();
        let (lock_waits, lock_timeouts, lock_deadlocks) = self.txns.locks().stats.snapshot();
        let wal = self.txns.wal();
        let wal_stats = wal.stats.snapshot();
        DbStats {
            buffer_hits: buffer.hits,
            buffer_misses: buffer.misses,
            buffer_evictions: buffer.evictions,
            buffer_writebacks: buffer.writebacks,
            buffer_resident: self.pool.resident() as u64,
            buffer_shards: self.pool.shard_count() as u64,
            buffer_contention: buffer.contention,
            wal_bytes: wal.bytes_written(),
            wal_records: wal.records_written(),
            wal_fsyncs: wal_stats.fsyncs,
            wal_group_commits: wal_stats.group_commits,
            wal_batch_max: wal_stats.batch_records_max,
            wal_durable_lsn: wal.durable_lsn(),
            wal_durable_lag: wal.durable_lag(),
            lock_waits,
            lock_timeouts,
            lock_deadlocks,
            active_txns: self.txns.active_count() as u64,
            query_workers: self.executor.workers() as u64,
            parallel_queries: self.executor.parallel_queries(),
            plan_cache_hits: self.plan_cache.hits(),
            plan_cache_misses: self.plan_cache.misses(),
            plan_cache_entries: self.plan_cache.len() as u64,
            doc_cache_hits: self.doc_cache.hits(),
            doc_cache_misses: self.doc_cache.misses(),
            doc_cache_evictions: self.doc_cache.evictions(),
            doc_cache_bytes: self.doc_cache.resident_bytes(),
        }
    }

    /// The shared document record cache (disabled when
    /// [`DbConfig::doc_cache_bytes`] is 0).
    pub fn doc_cache(&self) -> &Arc<crate::doccache::DocCache> {
        &self.doc_cache
    }

    fn allocate_space(&self) -> Result<Arc<TableSpace>> {
        let id = self.catalog.bump_counter(K_NEXT_SPACE)? as u32;
        TableSpace::create(
            self.pool.clone(),
            id,
            Self::make_backend(&self.storage, id)?,
        )
        .map_err(EngineError::from)
    }

    fn open_space(&self, id: u32) -> Result<Arc<TableSpace>> {
        TableSpace::open(
            self.pool.clone(),
            id,
            Self::make_backend(&self.storage, id)?,
        )
        .map_err(EngineError::from)
    }

    // -- tables -------------------------------------------------------------

    /// Create a base table: format its spaces (the base heap and DocID
    /// index, one XML table per XML column), put its catalog record, and
    /// bring it up through `load_table`, as every open does.
    pub fn create_table(
        &self,
        name: &str,
        columns: &[(&str, ColumnKind)],
    ) -> Result<Arc<BaseTable>> {
        if self.catalog.contains(&k_table(name)) {
            return Err(EngineError::AlreadyExists {
                kind: "table",
                name: name.to_string(),
            });
        }
        let id = self.catalog.bump_counter(K_NEXT_TABLE)? as u32;
        let base_space = self.allocate_space()?;
        HeapTable::create(Arc::clone(&base_space))?;
        BTree::create(Arc::clone(&base_space), DOCID_INDEX_ANCHOR)?;
        let mut e = Enc::new();
        e.u32(id).u32(base_space.id()).varint(columns.len() as u64);
        let mut spaces = vec![base_space];
        for (cname, kind) in columns {
            let space = match kind {
                ColumnKind::Str => 0,
                ColumnKind::Xml => {
                    let space = self.allocate_space()?;
                    XmlTable::create(Arc::clone(&space))?;
                    let id = space.id();
                    spaces.push(space);
                    id
                }
            };
            e.str(cname)
                .u8(match kind {
                    ColumnKind::Str => 0,
                    ColumnKind::Xml => 1,
                })
                .u32(space);
        }
        self.catalog.put(&k_table(name), &e.into_bytes())?;
        let table = self.load_table(name, &spaces)?;
        // DDL is durable immediately.
        self.pool.flush_all()?;
        Ok(table)
    }

    /// The table `name`, brought up from its catalog record on first use.
    /// `created` holds the spaces [`Database::create_table`] has just
    /// formatted (an in-memory space cannot be opened a second time);
    /// every other space is opened.
    fn load_table(&self, name: &str, created: &[Arc<TableSpace>]) -> Result<Arc<BaseTable>> {
        if let Some(t) = self.tables.read().get(name) {
            return Ok(Arc::clone(t));
        }
        let space = |id: u32| match created.iter().find(|s| s.id() == id) {
            Some(s) => Ok(Arc::clone(s)),
            None => self.open_space(id),
        };
        let bytes = self
            .catalog
            .get(&k_table(name))
            .ok_or_else(|| EngineError::NotFound {
                kind: "table",
                name: name.to_string(),
            })?;
        let mut d = Dec::new(&bytes);
        let id = d.u32()?;
        let base_space_id = d.u32()?;
        let ncols = d.varint()? as usize;
        let mut defs = Vec::with_capacity(ncols);
        let mut xml_cols_raw = Vec::new();
        for pos in 0..ncols {
            let cname = d.str()?.to_string();
            let kind = if d.u8()? == 1 {
                ColumnKind::Xml
            } else {
                ColumnKind::Str
            };
            let col_space = d.u32()?;
            if kind == ColumnKind::Xml {
                xml_cols_raw.push((cname.clone(), pos, col_space));
            }
            defs.push(ColumnDef { name: cname, kind });
        }
        let base_space = space(base_space_id)?;
        let heap = HeapTable::open(base_space.clone())?;
        let docid_index = BTree::open(base_space, DOCID_INDEX_ANCHOR)?;
        let index_defs = self
            .index_records(name)
            .iter()
            .map(|(k, v)| decode_index_def(k, v))
            .collect::<Result<Vec<_>>>()?;
        let mut xml_columns = Vec::new();
        for (cname, pos, col_space) in xml_cols_raw {
            let xml = XmlTable::open(space(col_space)?)?;
            xml.set_doc_cache(Arc::clone(&self.doc_cache));
            let mut indexes = Vec::new();
            for (_, def) in index_defs.iter().filter(|(c, _)| *c == cname) {
                indexes.push(Arc::new(ValueIndex::open(
                    space(def.space_id)?,
                    def.clone(),
                )?));
            }
            let col = Arc::new(XmlColumn {
                name: cname,
                position: pos,
                xml,
                indexes: RwLock::new(indexes),
            });
            xml_columns.push(col);
        }
        let table = Arc::new(BaseTable {
            def: TableDef {
                id,
                name: name.to_string(),
                columns: defs,
            },
            heap,
            docid_index,
            xml_columns,
            base_space: base_space_id,
            doc_high: AtomicU64::new(self.catalog.counter(&k_doccnt(id))),
        });
        self.tables
            .write()
            .insert(name.to_string(), Arc::clone(&table));
        Ok(table)
    }

    /// The catalog records `(key, value)` of every index on `table`.
    fn index_records(&self, table: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
        INDEX_PREFIXES
            .iter()
            .flat_map(|p| self.catalog.list_prefix(format!("{p}/{table}/").as_bytes()))
            .collect()
    }

    /// Get a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<BaseTable>> {
        self.load_table(name, &[])
    }

    /// Drop a base table: remove its definition, index definitions, and doc
    /// counter from the catalog, evict it from the table map, and invalidate
    /// every cached plan that compiled against it. The table's spaces are
    /// abandoned rather than reclaimed (recovery skips WAL records whose
    /// space is no longer reachable from the catalog).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let t = self.load_table(name, &[])?;
        for (key, _) in self.index_records(name) {
            self.catalog.delete(&key)?;
        }
        self.catalog.delete(&k_table(name))?;
        // Out of the table map first, so no checkpoint writes the counter
        // back after it is deleted.
        self.tables.write().remove(name);
        self.catalog.delete(&k_doccnt(t.def.id))?;
        self.plan_cache.invalidate_table(t.def.id);
        // Snapshots of the dropped table's spaces can never be read again;
        // free their bytes.
        for col in t.xml_columns() {
            self.doc_cache.invalidate_space(col.xml.space_id());
        }
        // DDL is durable immediately.
        self.pool.flush_all()?;
        Ok(())
    }

    // -- indexes --------------------------------------------------------------

    /// `CREATE INDEX … ON table(column) GENERATE KEY USING XPATH 'path' AS type`
    /// (§3.3). The index is backfilled from the documents already stored.
    pub fn create_value_index(
        &self,
        table: &str,
        index_name: &str,
        column: &str,
        path: &str,
        key_type: KeyType,
    ) -> Result<Arc<ValueIndex>> {
        self.create_index(table, index_name, column, path, IndexKeys::Typed(key_type))
    }

    /// `CREATE FULLTEXT INDEX … ON table(column) USING XPATH 'path'` — the
    /// §6 future-work extension: a value index whose keys are the terms of
    /// the string values of the nodes the path selects. Backfilled like
    /// [`Database::create_value_index`].
    pub fn create_fulltext_index(
        &self,
        table: &str,
        index_name: &str,
        column: &str,
        path: &str,
    ) -> Result<Arc<ValueIndex>> {
        self.create_index(table, index_name, column, path, IndexKeys::Terms)
    }

    /// Create an index and fill it from every stored document of `column`
    /// in one transaction that holds an S lock on the table: it waits out
    /// writers (which hold IX) and holds off new ones until the index is
    /// published in the column's list, so each document is indexed either
    /// by the backfill or by its writer. The catalog definition is put only
    /// after the commit, so a crash loses the whole index, never part of it
    /// (recovery skips WAL records of spaces the catalog does not name).
    fn create_index(
        &self,
        table: &str,
        index_name: &str,
        column: &str,
        path: &str,
        keys: IndexKeys,
    ) -> Result<Arc<ValueIndex>> {
        let t = self.table(table)?;
        let col = t.xml_column(column)?;
        let def_key = k_index(keys, table, index_name);
        if self.catalog.contains(&def_key) {
            return Err(EngineError::AlreadyExists {
                kind: match keys {
                    IndexKeys::Typed(_) => "index",
                    IndexKeys::Terms => "full-text index",
                },
                name: index_name.to_string(),
            });
        }
        let space = self.allocate_space()?;
        // The space counter is durable before any WAL record names the new
        // space, so a crash before the definition is put cannot hand the id
        // (and this backfill's records) to a later index.
        self.pool.flush_space(0)?;
        let space_id = space.id();
        let vi = Arc::new(ValueIndex::create(
            space,
            ValueIndexDef {
                name: index_name.to_string(),
                path_text: path.to_string(),
                keys,
                space_id,
            },
        )?);
        let txn = self.begin()?;
        txn.lock(
            &rx_storage::LockName::Table(t.def.id),
            rx_storage::LockMode::S,
        )?;
        let mut keygen = IndexKeyGen::new([&vi.tree], &self.dict);
        for doc in crate::access::all_docids(&t)? {
            let items = keygen.derive(&col.xml, doc)?;
            vi.insert_entries(&txn, doc, &col.xml, &items[0])?;
        }
        col.indexes.write().push(Arc::clone(&vi));
        // Cached plans chose their access path before this index existed.
        self.plan_cache.invalidate_table(t.def.id);
        if let Err(e) = txn.commit() {
            col.indexes.write().retain(|i| !Arc::ptr_eq(i, &vi));
            self.plan_cache.invalidate_table(t.def.id);
            return Err(e.into());
        }
        self.catalog
            .put(&def_key, &encode_index_def(column, &vi.def))?;
        self.pool.flush_all()?;
        Ok(vi)
    }

    // -- schemas --------------------------------------------------------------

    /// Register an XML schema: compile to the binary format and store it in
    /// the catalog (Fig. 4).
    pub fn register_schema(&self, name: &str, xsd_text: &str) -> Result<()> {
        let doc = parse_xsd(xsd_text)?;
        let bin = compile_schema(&doc)?;
        // Validate the binary loads.
        let program = SchemaProgram::load(&bin)?;
        self.catalog.put(&k_schema(name), &bin)?;
        self.schemas
            .write()
            .insert(name.to_string(), Arc::new(program));
        self.pool.flush_space(0)?;
        Ok(())
    }

    /// Load a registered schema program.
    pub fn schema(&self, name: &str) -> Result<Arc<SchemaProgram>> {
        if let Some(p) = self.schemas.read().get(name) {
            return Ok(Arc::clone(p));
        }
        let bin = self
            .catalog
            .get(&k_schema(name))
            .ok_or_else(|| EngineError::NotFound {
                kind: "schema",
                name: name.to_string(),
            })?;
        let program = Arc::new(SchemaProgram::load(&bin)?);
        self.schemas
            .write()
            .insert(name.to_string(), Arc::clone(&program));
        Ok(program)
    }

    // -- rows -------------------------------------------------------------

    /// Insert a row within `txn`. XML column values are parsed (optionally
    /// validated), packed, and indexed in the same transaction.
    pub fn insert_row_txn(
        &self,
        txn: &Txn,
        table: &Arc<BaseTable>,
        values: &[ColValue],
    ) -> Result<DocId> {
        if values.len() != table.def.columns.len() {
            return Err(EngineError::Invalid(format!(
                "expected {} column values, got {}",
                table.def.columns.len(),
                values.len()
            )));
        }
        let doc = table.doc_high.fetch_add(1, Ordering::Relaxed) + 1;
        // §5.1: X-lock the document (plus table intent) so no reader ever
        // sees a partially inserted document.
        crate::conc::lock_document_exclusive(txn, table.def.id, doc)?;
        let mut slots = Vec::with_capacity(values.len());
        for (cv, cd) in values.iter().zip(&table.def.columns) {
            match (cv, cd.kind) {
                (ColValue::Str(s), ColumnKind::Str) => slots.push(s.as_bytes().to_vec()),
                (ColValue::Xml(text), ColumnKind::Xml) => {
                    let col = table.xml_column(&cd.name)?;
                    slots.push(self.store_document(txn, col, doc, text, None)?);
                }
                (ColValue::XmlValidated { text, schema }, ColumnKind::Xml) => {
                    let col = table.xml_column(&cd.name)?;
                    let program = self.schema(schema)?;
                    slots.push(self.store_document(txn, col, doc, text, Some(&program))?);
                }
                _ => {
                    return Err(EngineError::Invalid(format!(
                        "value kind mismatch for column {}",
                        cd.name
                    )))
                }
            }
        }
        self.persist_dict_if_grown()?;
        // Base row + DocID index.
        let row = encode_base_row(doc, &slots);
        let rid = txn.heap_insert(&table.heap, row)?;
        txn.index_insert(&table.docid_index, doc.to_be_bytes().to_vec(), rid.to_u64())?;
        Ok(doc)
    }

    /// Insert a row in its own transaction.
    pub fn insert_row(&self, table: &Arc<BaseTable>, values: &[ColValue]) -> Result<DocId> {
        let txn = self.begin()?;
        let t = self.table(&table.def.name)?;
        let doc = self.insert_row_txn(&txn, &t, values)?;
        txn.commit()?;
        Ok(doc)
    }

    /// Parse/validate, pack, and index one document into an XML column,
    /// returning its synopsis (built in the same keygen pass).
    fn store_document(
        &self,
        txn: &Txn,
        col: &XmlColumn,
        doc: DocId,
        text: &str,
        schema: Option<&SchemaProgram>,
    ) -> Result<Vec<u8>> {
        let indexes = col.indexes();
        let mut keygen = IndexKeyGen::new(indexes.iter().map(|i| &i.tree), &self.dict)
            .with_synopsis(self.synopsis_builder());
        let xml = &col.xml;
        let mut err: Option<EngineError> = None;
        {
            let mut sink = |rec: crate::pack::PackedRecord| -> Result<()> {
                xml.insert_record(txn, doc, &rec)?;
                Ok(())
            };
            let mut packer =
                Packer::with_target(self.config.target_record_size, &mut sink, &mut keygen);
            let parse_result = match schema {
                None => Parser::new(&self.dict).parse(text, &mut packer),
                Some(program) => {
                    // Validating path: schema VM feeds the packer directly
                    // (streaming, no intermediate tree) via a tee through an
                    // annotated token stream.
                    let stream = rx_xml::schema::validate_to_tokens(text, program, &self.dict)?;
                    stream.replay(&mut packer)
                }
            };
            if let Err(e) = parse_result {
                err = Some(e.into());
            } else if let Err(e) = packer.finish() {
                err = Some(e);
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        let all_items = keygen.finish()?;
        for (vi, items) in indexes.iter().zip(&all_items) {
            vi.insert_entries(txn, doc, xml, items)?;
        }
        let synopsis = keygen.finish_synopsis(crate::synopsis::encode_sized);
        self.reuse_synopsis_builder(keygen);
        Ok(synopsis)
    }

    /// A synopsis builder for one document: a reused one when there is one.
    fn synopsis_builder(&self) -> SynopsisBuilder {
        self.synopsis_builders
            .lock()
            .pop()
            .unwrap_or_else(|| SynopsisBuilder::new(Arc::clone(&self.dict)))
    }

    /// Keep the synopsis builder of `keygen`, whose document is finished,
    /// for the next document.
    fn reuse_synopsis_builder(&self, keygen: IndexKeyGen<'_, '_>) {
        if let Some(builder) = keygen.into_synopsis() {
            self.synopsis_builders.lock().push(builder);
        }
    }

    /// Fetch a base row by DocID.
    pub fn fetch_row(&self, table: &Arc<BaseTable>, doc: DocId) -> Result<Option<Row>> {
        match table.row_rid(doc)? {
            Some(rid) => {
                let rec = table.heap.fetch(rid)?;
                Ok(Some(decode_base_row(&rec, &table.def.columns)?))
            }
            None => Ok(None),
        }
    }

    /// Delete a row (and its XML documents + index entries) within `txn`.
    pub fn delete_row_txn(&self, txn: &Txn, table: &Arc<BaseTable>, doc: DocId) -> Result<bool> {
        crate::conc::lock_document_exclusive(txn, table.def.id, doc)?;
        let Some(rid) = table.row_rid(doc)? else {
            return Ok(false);
        };
        for col in &table.xml_columns {
            // Re-derive every index's entries by replaying the stored document.
            let indexes = col.indexes();
            if !indexes.is_empty() {
                let mut keygen = IndexKeyGen::new(indexes.iter().map(|i| &i.tree), &self.dict);
                let all_items = keygen.derive(&col.xml, doc)?;
                for (vi, items) in indexes.iter().zip(&all_items) {
                    vi.delete_entries(txn, doc, items)?;
                }
            }
            col.xml.delete_document(txn, doc)?;
        }
        // Base row + DocID index entry.
        txn.heap_delete(&table.heap, rid)?;
        txn.index_delete(&table.docid_index, doc.to_be_bytes().to_vec())?;
        Ok(true)
    }

    /// Delete a row in its own transaction.
    pub fn delete_row(&self, table: &Arc<BaseTable>, doc: DocId) -> Result<bool> {
        let txn = self.begin()?;
        let ok = self.delete_row_txn(&txn, table, doc)?;
        txn.commit()?;
        Ok(ok)
    }

    /// Run a sub-document mutation of `doc` under the §5.1 writer locks
    /// (IX on the table, X on the document, as insert and delete take) with
    /// index maintenance: old index entries derived from the pre-image are
    /// removed, the mutation runs, and entries are re-derived from the
    /// post-image — each image in one traversal for every index, all in
    /// `txn`. The X lock makes the whole-document re-derivation exact: no
    /// other transaction changes the document until `txn` ends. Names a
    /// fragment interned are persisted before this returns, so they are
    /// durable before the commit record.
    pub fn update_document_txn(
        &self,
        txn: &Txn,
        table: &Arc<BaseTable>,
        column: &str,
        doc: DocId,
        mutate: impl FnOnce(&Txn, &XmlTable) -> Result<crate::update::UpdateStats>,
    ) -> Result<crate::update::UpdateStats> {
        let col = table.xml_column(column)?;
        crate::conc::lock_document_exclusive(txn, table.def.id, doc)?;
        let indexes = col.indexes();
        let trees = || indexes.iter().map(|i| &i.tree);
        if !indexes.is_empty() {
            let pre = IndexKeyGen::new(trees(), &self.dict).derive(&col.xml, doc)?;
            for (vi, items) in indexes.iter().zip(&pre) {
                vi.delete_entries(txn, doc, items)?;
            }
        }
        let stats = mutate(txn, &col.xml)?;
        let mut keygen =
            IndexKeyGen::new(trees(), &self.dict).with_synopsis(self.synopsis_builder());
        for (vi, items) in indexes.iter().zip(&keygen.derive(&col.xml, doc)?) {
            vi.insert_entries(txn, doc, &col.xml, items)?;
        }
        keygen.finish_synopsis(|entries| self.rewrite_synopsis(txn, table, col, doc, entries))?;
        self.reuse_synopsis_builder(keygen);
        self.persist_dict_if_grown()?;
        Ok(stats)
    }

    /// Rewrite the synopsis of `doc` in `col` from its post-image `entries`
    /// at the size it already has, so the base row keeps its length, its RID
    /// and its DocID-index entry. The rewrite is an ordinary logged heap
    /// update, so rollback and recovery restore the old synopsis with the
    /// old document.
    fn rewrite_synopsis(
        &self,
        txn: &Txn,
        table: &Arc<BaseTable>,
        col: &XmlColumn,
        doc: DocId,
        entries: &[u64],
    ) -> Result<()> {
        let rid = table.row_rid(doc)?.ok_or_else(|| EngineError::NotFound {
            kind: "document",
            name: doc.to_string(),
        })?;
        let mut row = table.heap.fetch(rid)?;
        let (_, slot) = locate_slot(&row, col.position)?;
        let filter = crate::synopsis::encode(entries, slot.len());
        if row[slot.clone()] != filter[..] {
            row[slot].copy_from_slice(&filter);
            txn.heap_update(&table.heap, rid, row)?;
        }
        Ok(())
    }

    /// Serialize a stored document back to XML text (§4.4 task 1).
    pub fn serialize_document(
        &self,
        table: &Arc<BaseTable>,
        column: &str,
        doc: DocId,
    ) -> Result<String> {
        let col = table.xml_column(column)?;
        let mut ser = rx_xml::Serializer::new(&self.dict);
        let mut sink = crate::traverse::DropIds(&mut ser);
        crate::traverse::Traverser::new(&col.xml, doc).run(&mut sink)?;
        Ok(ser.finish())
    }

    /// Persist the names interned since the last persist, one catalog
    /// entry each, flushing the catalog space so the names are durable
    /// *before* the commit record of any document that uses them (packed
    /// records store integer name IDs, so the dictionary must never lag the
    /// data). Each entry is small, so the dictionary can outgrow a page.
    fn persist_dict_if_grown(&self) -> Result<()> {
        let mut persisted = self.dict_persisted.lock();
        let (strings_from, qnames_from) = *persisted;
        let (strings, qnames) = self.dict.export_from(strings_from, qnames_from);
        if strings.is_empty() && qnames.is_empty() {
            return Ok(());
        }
        for (id, s) in (strings_from..).zip(&strings) {
            self.catalog.put(&k_dict(K_DICT_STRING, id), s.as_bytes())?;
        }
        for (id, q) in (qnames_from..).zip(&qnames) {
            let mut e = Enc::new();
            e.u32(q.uri).u32(q.prefix).u32(q.local);
            self.catalog
                .put(&k_dict(K_DICT_QNAME, id), &e.into_bytes())?;
        }
        self.pool.flush_space(0)?;
        *persisted = (strings_from + strings.len(), qnames_from + qnames.len());
        Ok(())
    }

    /// Flush all dirty pages, persist the name dictionary and every table's
    /// DocID high-water, and rewrite the WAL without the records the pages
    /// now hold (a checkpoint).
    pub fn checkpoint(&self) -> Result<()> {
        // Safe truncation floor: the engine mutates pages before logging, so
        // every record assigned up to here has its page effect in the pool
        // before the flush below reads it — once the flush succeeds those
        // effects are durable as page images. Records of still-active
        // transactions must survive regardless (recovery may need their undo
        // chain, and their commit may be staged concurrently), so the floor
        // backs up to the oldest active Begin LSN.
        let barrier = self.txns.wal().current_lsn() + 1;
        let keep_from = self
            .txns
            .oldest_active_lsn()
            .map_or(barrier, |lsn| lsn.min(barrier));
        self.persist_dict_if_grown()?;
        for table in self.tables.read().values() {
            let key = k_doccnt(table.def.id);
            let high = table.doc_high.load(Ordering::Relaxed);
            if self.catalog.counter(&key) != high {
                self.catalog.put(&key, &high.to_le_bytes())?;
            }
        }
        // The log before the pages: a page the flush writes may hold
        // changes of transactions still in flight, and if the rewrite below
        // fails the old log must already hold their undo.
        self.txns.wal().force()?;
        self.pool.flush_all()?;
        self.txns.wal().checkpoint(keep_from)?;
        Ok(())
    }
}

/// Rebuild the name dictionary from the catalog's per-name entries, in id
/// order.
fn load_dict(catalog: &Catalog) -> Result<NameDict> {
    let corrupt = |what: String| EngineError::Record(format!("name dictionary: {what}"));
    let mut strings = vec![String::new()];
    let mut qnames: Vec<rx_xml::QName> = Vec::new();
    for (key, value) in catalog.list_prefix(K_DICT_STRING) {
        let id =
            dict_id(&key[K_DICT_STRING.len()..]).ok_or_else(|| corrupt("bad string key".into()))?;
        if id != strings.len() {
            return Err(corrupt(format!("string {id} out of order")));
        }
        let s =
            String::from_utf8(value).map_err(|_| corrupt(format!("string {id} is not UTF-8")))?;
        strings.push(s);
    }
    for (key, value) in catalog.list_prefix(K_DICT_QNAME) {
        let id =
            dict_id(&key[K_DICT_QNAME.len()..]).ok_or_else(|| corrupt("bad qname key".into()))?;
        if id != qnames.len() {
            return Err(corrupt(format!("qname {id} out of order")));
        }
        qnames.push(decode_qname(&mut Dec::new(&value))?);
    }
    Ok(NameDict::import(&strings, &qnames))
}

fn dict_id(be: &[u8]) -> Option<usize> {
    Some(u32::from_be_bytes(be.try_into().ok()?) as usize)
}

fn decode_qname(d: &mut Dec<'_>) -> Result<rx_xml::QName> {
    Ok(rx_xml::QName {
        uri: d.u32()?,
        prefix: d.u32()?,
        local: d.u32()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::QueryHit;

    fn catalog_table(db: &Arc<Database>) -> Arc<BaseTable> {
        db.create_table(
            "products",
            &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
        )
        .unwrap()
    }

    /// Run `path` over the `doc` column through `query_locked` in a
    /// transaction of its own.
    fn query(db: &Database, t: &Arc<BaseTable>, path: &rx_xpath::Path) -> Vec<QueryHit> {
        let txn = db.begin().unwrap();
        let col = t.xml_column("doc").unwrap();
        let (hits, _) = db.query_locked(&txn, t, col, path, false).unwrap();
        txn.commit().unwrap();
        hits
    }

    const DOC1: &str = r#"<Catalog><Product><ProductName>Widget</ProductName><RegPrice>9.99</RegPrice></Product></Catalog>"#;
    const DOC2: &str = r#"<Catalog><Product><ProductName>Gadget</ProductName><RegPrice>120</RegPrice><Discount>0.25</Discount></Product></Catalog>"#;

    #[test]
    fn base_rows_hold_relational_values_and_synopses() {
        let columns = [
            ColumnDef {
                name: "sku".into(),
                kind: ColumnKind::Str,
            },
            ColumnDef {
                name: "doc".into(),
                kind: ColumnKind::Xml,
            },
        ];
        let synopsis = crate::synopsis::encode_sized(&[7]);
        let rec = encode_base_row(300, &[b"sku-1".to_vec(), synopsis.clone()]);
        let row = decode_base_row(&rec, &columns).unwrap();
        assert_eq!(
            (row.doc, row.values),
            (300, vec!["sku-1".into(), String::new()])
        );
        assert_eq!(base_row_slot(&rec, 1).unwrap(), (300, &synopsis[..]));
        assert!(
            base_row_slot(&rec[..rec.len() - 1], 1).is_err(),
            "a cut row"
        );
        assert!(base_row_slot(&rec, 2).is_err(), "no such slot");
    }

    #[test]
    fn directories_of_another_format_are_refused() {
        let dir = std::env::temp_dir().join(format!("rx-format-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::create_dir(&dir).unwrap();
            catalog_table(&db);
        }
        assert!(Database::open_dir(&dir).is_ok());
        {
            // A directory written before the format key existed.
            let db = Database::open_dir(&dir).unwrap();
            db.catalog.delete(K_FORMAT).unwrap();
            db.pool.flush_space(0).unwrap();
        }
        let err = Database::open_dir(&dir).err().expect("refused");
        assert!(matches!(err, EngineError::Invalid(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_validation_rejects_zeroed_knobs() {
        let bad_pool = DbConfig {
            buffer_pages: 0,
            ..DbConfig::default()
        };
        assert!(matches!(
            Database::create_in_memory_with(bad_pool),
            Err(EngineError::Invalid(_))
        ));
        let bad_timeout = DbConfig {
            lock_timeout: Duration::ZERO,
            ..DbConfig::default()
        };
        assert!(matches!(
            Database::create_in_memory_with(bad_timeout),
            Err(EngineError::Invalid(_))
        ));
        let bad_record = DbConfig {
            target_record_size: 0,
            ..DbConfig::default()
        };
        assert!(matches!(
            Database::create_in_memory_with(bad_record),
            Err(EngineError::Invalid(_))
        ));
        let bad_workers = DbConfig {
            query_workers: 0,
            ..DbConfig::default()
        };
        assert!(matches!(
            Database::create_in_memory_with(bad_workers),
            Err(EngineError::Invalid(_))
        ));
        assert!(DbConfig::default().validate().is_ok());
    }

    #[test]
    fn plan_cache_serves_repeats_and_invalidates_on_ddl() {
        let db = Database::create_in_memory().unwrap();
        let t = catalog_table(&db);
        db.create_value_index(
            "products",
            "price_idx",
            "doc",
            "/Catalog/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        for doc in [DOC1, DOC2] {
            db.insert_row(
                &t,
                &[ColValue::Str("s".into()), ColValue::Xml(doc.to_string())],
            )
            .unwrap();
        }
        let col = t.xml_column("doc").unwrap();
        let path = rx_xpath::XPathParser::new()
            .parse("/Catalog/Product[RegPrice > 50]")
            .unwrap();
        let explain = crate::access::plan(&path, col, false).explain();
        assert!(explain.contains("list access"), "got plan: {explain}");
        let hits = query(&db, &t, &path);
        assert_eq!(hits.len(), 1);
        assert_eq!(query(&db, &t, &path), hits);
        let s = db.stats();
        assert_eq!(s.plan_cache_misses, 1);
        assert_eq!(s.plan_cache_hits, 1);
        assert_eq!(s.plan_cache_entries, 1);
        assert_eq!(s.query_workers, db.config.query_workers as u64);
        // Index DDL drops every cached plan for the table: a plan chosen
        // under the old index set may no longer be the right one.
        db.create_fulltext_index("products", "name_ft", "doc", "/Catalog/Product/ProductName")
            .unwrap();
        let s = db.stats();
        assert_eq!(s.plan_cache_entries, 0);
        assert_eq!(query(&db, &t, &path), hits);
        assert_eq!(db.stats().plan_cache_misses, 2);
    }

    #[test]
    fn index_catalog_records_keep_their_bytes() {
        let db = Database::create_in_memory().unwrap();
        catalog_table(&db);
        // Spaces 2 and 3 hold the base table and the XML column.
        db.create_value_index(
            "products",
            "price_idx",
            "doc",
            "/Catalog/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        db.create_fulltext_index("products", "name_ft", "doc", "//ProductName")
            .unwrap();
        // idx/: (column, path, key_type u8, space u32 LE); strings are
        // varint-length-prefixed.
        let idx: Vec<u8> = [
            &[3u8][..],
            b"doc",
            &[25],
            b"/Catalog/Product/RegPrice",
            &[2], // KeyType::Double
            &[4, 0, 0, 0],
        ]
        .concat();
        // fti/: (column, path, space u32 LE).
        let fti: Vec<u8> = [&[3u8][..], b"doc", &[13], b"//ProductName", &[5, 0, 0, 0]].concat();
        assert_eq!(db.catalog().get(b"idx/products/price_idx"), Some(idx));
        assert_eq!(db.catalog().get(b"fti/products/name_ft"), Some(fti));
        assert_eq!(db.index_records("products").len(), 2);
    }

    #[test]
    fn drop_table_removes_definition_and_cached_plans() {
        let db = Database::create_in_memory().unwrap();
        let t = catalog_table(&db);
        db.create_value_index(
            "products",
            "price_idx",
            "doc",
            "/Catalog/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        db.insert_row(
            &t,
            &[ColValue::Str("a".into()), ColValue::Xml(DOC1.to_string())],
        )
        .unwrap();
        let path = rx_xpath::XPathParser::new().parse("/Catalog").unwrap();
        query(&db, &t, &path);
        assert_eq!(db.stats().plan_cache_entries, 1);
        db.drop_table("products").unwrap();
        assert_eq!(db.stats().plan_cache_entries, 0);
        assert!(matches!(
            db.table("products"),
            Err(EngineError::NotFound { .. })
        ));
        // The name (and its index names) are free again, and the fresh
        // table starts empty.
        let t2 = catalog_table(&db);
        db.create_value_index(
            "products",
            "price_idx",
            "doc",
            "/Catalog/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        assert!(query(&db, &t2, &path).is_empty());
    }

    #[test]
    fn stats_snapshot_moves_with_activity() {
        let db = Database::create_in_memory().unwrap();
        let t = catalog_table(&db);
        let before = db.stats();
        db.insert_row(
            &t,
            &[
                ColValue::Str("SKU-1".into()),
                ColValue::Xml(DOC1.to_string()),
            ],
        )
        .unwrap();
        let after = db.stats();
        assert!(after.wal_records > before.wal_records);
        assert!(after.wal_bytes > before.wal_bytes);
        assert!(after.buffer_hits + after.buffer_misses > 0);
        assert_eq!(after.active_txns, 0);
        let txn = db.begin().unwrap();
        assert_eq!(db.stats().active_txns, 1);
        txn.commit().unwrap();
        assert_eq!(db.stats().active_txns, 0);
    }

    #[test]
    fn insert_fetch_serialize() {
        let db = Database::create_in_memory().unwrap();
        let t = catalog_table(&db);
        let d1 = db
            .insert_row(
                &t,
                &[
                    ColValue::Str("SKU-1".into()),
                    ColValue::Xml(DOC1.to_string()),
                ],
            )
            .unwrap();
        let d2 = db
            .insert_row(
                &t,
                &[
                    ColValue::Str("SKU-2".into()),
                    ColValue::Xml(DOC2.to_string()),
                ],
            )
            .unwrap();
        assert_ne!(d1, d2);
        let row = db.fetch_row(&t, d1).unwrap().unwrap();
        assert_eq!(row.values[0], "SKU-1");
        assert_eq!(db.serialize_document(&t, "doc", d1).unwrap(), DOC1);
        assert_eq!(db.serialize_document(&t, "doc", d2).unwrap(), DOC2);
    }

    #[test]
    fn value_index_maintained_on_insert_and_delete() {
        let db = Database::create_in_memory().unwrap();
        let t = catalog_table(&db);
        let vi = db
            .create_value_index(
                "products",
                "price_idx",
                "doc",
                "/Catalog/Product/RegPrice",
                KeyType::Double,
            )
            .unwrap();
        let d1 = db
            .insert_row(
                &t,
                &[ColValue::Str("a".into()), ColValue::Xml(DOC1.to_string())],
            )
            .unwrap();
        let _d2 = db
            .insert_row(
                &t,
                &[ColValue::Str("b".into()), ColValue::Xml(DOC2.to_string())],
            )
            .unwrap();
        assert_eq!(vi.len().unwrap(), 2);
        assert!(db.delete_row(&t, d1).unwrap());
        assert_eq!(vi.len().unwrap(), 1);
        assert!(db.fetch_row(&t, d1).unwrap().is_none());
        assert!(!db.delete_row(&t, d1).unwrap());
    }

    #[test]
    fn validated_insert_annotates_and_rejects() {
        let db = Database::create_in_memory().unwrap();
        let t = catalog_table(&db);
        db.register_schema(
            "cat",
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                <xs:element name="Catalog">
                  <xs:complexType><xs:sequence>
                    <xs:element name="Product" maxOccurs="unbounded">
                      <xs:complexType><xs:sequence>
                        <xs:element name="ProductName" type="xs:string"/>
                        <xs:element name="RegPrice" type="xs:decimal"/>
                        <xs:element name="Discount" type="xs:double" minOccurs="0"/>
                      </xs:sequence></xs:complexType>
                    </xs:element>
                  </xs:sequence></xs:complexType>
                </xs:element>
               </xs:schema>"#,
        )
        .unwrap();
        let ok = db.insert_row(
            &t,
            &[
                ColValue::Str("v".into()),
                ColValue::XmlValidated {
                    text: DOC1.to_string(),
                    schema: "cat".into(),
                },
            ],
        );
        assert!(ok.is_ok());
        let bad = db.insert_row(
            &t,
            &[
                ColValue::Str("w".into()),
                ColValue::XmlValidated {
                    text: "<Catalog><Oops/></Catalog>".to_string(),
                    schema: "cat".into(),
                },
            ],
        );
        assert!(bad.is_err());
        // The failed insert must leave nothing behind.
        let col = t.xml_column("doc").unwrap();
        let root = col.xml_table().locate(2, &[]).unwrap();
        assert!(root.is_none(), "aborted insert left records");
    }

    #[test]
    fn persists_across_reopen_with_recovery() {
        let dir = std::env::temp_dir().join(format!("rxdb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (d1, d2);
        {
            let db = Database::create_dir(&dir).unwrap();
            let t = catalog_table(&db);
            db.create_value_index(
                "products",
                "price_idx",
                "doc",
                "/Catalog/Product/RegPrice",
                KeyType::Double,
            )
            .unwrap();
            d1 = db
                .insert_row(
                    &t,
                    &[ColValue::Str("a".into()), ColValue::Xml(DOC1.to_string())],
                )
                .unwrap();
            d2 = db
                .insert_row(
                    &t,
                    &[ColValue::Str("b".into()), ColValue::Xml(DOC2.to_string())],
                )
                .unwrap();
            db.checkpoint().unwrap();
        }
        let db = Database::open_dir(&dir).unwrap();
        let t = db.table("products").unwrap();
        assert_eq!(db.serialize_document(&t, "doc", d1).unwrap(), DOC1);
        assert_eq!(db.serialize_document(&t, "doc", d2).unwrap(), DOC2);
        let col = t.xml_column("doc").unwrap();
        assert_eq!(col.indexes().len(), 1);
        assert_eq!(col.indexes()[0].len().unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_uncheckpointed_commits() {
        let dir = std::env::temp_dir().join(format!("rxdb-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d1;
        {
            let db = Database::create_dir(&dir).unwrap();
            let t = catalog_table(&db);
            // Checkpoint the catalog state (table definition), then insert
            // WITHOUT flushing pages — simulating a crash after commit.
            db.checkpoint().unwrap();
            d1 = db
                .insert_row(
                    &t,
                    &[ColValue::Str("a".into()), ColValue::Xml(DOC1.to_string())],
                )
                .unwrap();
            // No checkpoint: dirty pages are lost; the WAL survives.
        }
        let db = Database::open_with(&dir, DbConfig::default()).unwrap();
        let t = db.table("products").unwrap();
        assert_eq!(
            db.serialize_document(&t, "doc", d1).unwrap(),
            DOC1,
            "committed document must survive crash recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn insert_doc(db: &Database, t: &Arc<BaseTable>, i: usize) -> DocId {
        let row = [ColValue::Str(format!("s{i}")), ColValue::Xml(DOC1.into())];
        db.insert_row(t, &row).unwrap()
    }

    /// A fresh directory name under the system temp directory.
    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rxdb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A checkpoint persists the DocID high-water, so the DocID of a
    /// deleted last row is not handed out again after a clean reopen.
    #[test]
    fn deleted_last_docid_is_not_reused_after_checkpoint_and_reopen() {
        let dir = tmpdir("docid-del");
        let last;
        {
            let db = Database::create_dir(&dir).unwrap();
            let t = catalog_table(&db);
            for i in 0..3 {
                insert_doc(&db, &t, i);
            }
            last = insert_doc(&db, &t, 3);
            assert!(db.delete_row(&t, last).unwrap());
            db.checkpoint().unwrap();
        }
        let db = Database::open_dir(&dir).unwrap();
        let t = db.table("products").unwrap();
        assert!(insert_doc(&db, &t, 4) > last);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Inserts leave the catalog alone; a checkpoint writes the high-water.
    #[test]
    fn docid_high_water_reaches_the_catalog_only_at_checkpoints() {
        let db = Database::create_in_memory().unwrap();
        let t = catalog_table(&db);
        let key = k_doccnt(t.def.id);
        let before = db.catalog.get(&key);
        let n = 25;
        let docs: Vec<DocId> = (0..n).map(|i| insert_doc(&db, &t, i)).collect();
        assert_eq!(db.catalog.get(&key), before);
        db.checkpoint().unwrap();
        assert_eq!(db.catalog.counter(&key), *docs.iter().max().unwrap());
        assert_eq!(db.catalog.counter(&key), n as u64);
    }

    /// A database opens through one path whether it was just created or
    /// reopened: a reopen right after `create_dir` sees the same tables and
    /// name dictionary, with no checkpoint in between.
    #[test]
    fn open_right_after_create_sees_the_same_tables_and_dictionary() {
        let dir = tmpdir("create-open");
        drop(Database::create_dir(&dir).unwrap());
        let (tables, names);
        {
            let db = Database::open_dir(&dir).unwrap();
            assert!(db.tables.read().is_empty());
            let t = catalog_table(&db);
            db.create_table("orders", &[("doc", ColumnKind::Xml)])
                .unwrap();
            insert_doc(&db, &t, 0);
            tables = db.catalog.list_prefix(b"tbl/");
            names = db.dict.export_from(0, 0);
        }
        let db = Database::open_dir(&dir).unwrap();
        assert_eq!(db.catalog.list_prefix(b"tbl/"), tables);
        let mut open: Vec<String> = db.tables.read().keys().cloned().collect();
        open.sort();
        assert_eq!(open, ["orders", "products"]);
        assert_eq!(db.dict.export_from(0, 0), names);
        let t = db.table("products").unwrap();
        assert_eq!(db.serialize_document(&t, "doc", 1).unwrap(), DOC1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Concurrent inserts into two tables get distinct DocIDs per table,
    /// and with no rollback every DocID from 1 up is taken once.
    #[test]
    fn concurrent_inserts_get_distinct_docids_per_table() {
        let db = Database::create_in_memory().unwrap();
        let a = catalog_table(&db);
        let b = db
            .create_table(
                "others",
                &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
            )
            .unwrap();
        let (threads, per_thread) = (4, 40);
        let docs: Vec<(Vec<DocId>, Vec<DocId>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let (mut da, mut dbs) = (Vec::new(), Vec::new());
                        for i in 0..per_thread {
                            da.push(insert_doc(&db, &a, i));
                            dbs.push(insert_doc(&db, &b, i));
                        }
                        (da, dbs)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expected: Vec<DocId> = (1..=(threads * per_thread) as u64).collect();
        for pick in [0, 1] {
            let mut all: Vec<DocId> = docs
                .iter()
                .flat_map(|(x, y)| if pick == 0 { x } else { y })
                .copied()
                .collect();
            all.sort_unstable();
            assert_eq!(all, expected, "table {pick}");
        }
    }
}
